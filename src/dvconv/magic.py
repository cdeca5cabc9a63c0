"""Mean-state projection, magic gap, mean-value vector, zero-mean
normalization, and Clifford+T circuit generation.

Every function of a state takes its ``CharFunction``; ``make_zero_mean``
displaces the table by a phase per point, with no dense Weyl product.

Logarithms are base 2 throughout (bits), matching the entropy module.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NoSolution, PhaseNotRoot
from .linalg import SUPPORT_TOL
from .states import DensityMatrix, StabilizerGroup, is_msps, unit_phases
from .weyl import CharFunction, displace, inverse_char, point_index, weyl_op, xi
from .zmod import mod_inverse, solve_mod_linear

PHASE_TOL = 1e-8
#: gates per random Clifford word, before its closing Weyl displacement
CLIFFORD_WORD_LENGTH = 8


def _mean_table(table: CharFunction) -> CharFunction:
    """Keep unit-modulus characteristic values, zero the rest.

    Unit values are renormalized to exact modulus 1 so the projection is
    idempotent to machine precision.
    """
    return CharFunction(table.d, table.n, unit_phases(table.values))


def mean_state(table: CharFunction) -> DensityMatrix:
    """M(rho) from rho's table: _mean_table, inverted and symmetrized."""
    M = inverse_char(_mean_table(table))
    return DensityMatrix(table.d, table.n, (M + M.conj().T) / 2)


def _gap_candidates(table: CharFunction) -> np.ndarray:
    """|Xi| over support points that are not unit modulus."""
    mags = np.abs(table.values)
    return mags[(mags > SUPPORT_TOL) & (unit_phases(table.values) == 0)]


def magic_gap(table: CharFunction) -> float:
    """1 - second-largest characteristic modulus on the support; 0 for MSPS."""
    cand = _gap_candidates(table)
    if cand.size == 0:
        return 0.0
    return float(1.0 - np.max(cand))


def log_magic_gap(table: CharFunction) -> float:
    """-log2 of the second-largest characteristic modulus; 0 for MSPS."""
    cand = _gap_candidates(table)
    if cand.size == 0:
        return 0.0
    return float(-np.log2(np.max(cand)))


def mean_vector(table: CharFunction) -> StabilizerGroup:
    """The mean state's group: generators g_i, phases k_i, Xi(g_i) = xi^{k_i}."""
    ok, group = is_msps(_mean_table(table))
    if not ok:
        raise PhaseNotRoot("mean state failed MSPS detection")
    w = xi(table.d)
    for g, k in zip(group.generators, group.phases):
        if abs(table.at(g) - w**k) > PHASE_TOL:
            raise PhaseNotRoot(
                f"support value at {g} deviates from a {table.d}-th root of unity"
            )
    return group


def make_zero_mean(table: CharFunction) -> tuple[tuple[int, ...], CharFunction]:
    """Weyl displacement x = (a, b) and the zero-mean table of w(x) rho w(x)^dag.

    Displacing by w(a, b) shifts each phase exponent by a.q_i - b.p_i, so
    the displacement solves a linear system over Z_d.
    """
    d, n = table.d, table.n
    group = mean_vector(table)
    if not group.generators:
        return (0,) * (2 * n), table
    g = np.array(group.generators, dtype=np.int64)
    rows = np.concatenate([g[:, n:], -g[:, :n] % d], axis=1)
    try:
        sol = solve_mod_linear(rows, -np.array(group.phases, dtype=np.int64) % d, d)
    except NoSolution as exc:  # consistent for valid inputs; defensive only
        raise NoSolution("zero-mean displacement system inconsistent") from exc
    return tuple(int(v) for v in sol), displace(table, sol)


# ---------------------------------------------------------------------------
# Clifford words and Clifford+T circuits
# ---------------------------------------------------------------------------


T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)])
T_GATE.flags.writeable = False


@lru_cache(maxsize=None)
def _fourier_gate(d: int) -> np.ndarray:
    j, k = np.indices((d, d))
    F = xi(d) ** (j * k) / np.sqrt(d)
    F.flags.writeable = False
    return F


@lru_cache(maxsize=None)
def _phase_gate(d: int) -> np.ndarray:
    if d == 2:
        P = np.diag([1.0, 1j])
    else:
        k = np.arange(d)
        P = np.diag(xi(d) ** (mod_inverse(2, d) * k * k))
    P.flags.writeable = False
    return P


#: the single-qudit gates of Clifford+T words, by name
_SINGLE_GATES = {"fourier": _fourier_gate, "phase": _phase_gate,
                 "t": lambda d: T_GATE}


@lru_cache(maxsize=None)
def _sum_gate(d: int, n: int, ctrl: int, tgt: int) -> np.ndarray:
    """|i, j> -> |i, i+j> on wires (ctrl, tgt); CNOT at d=2 (read-only)."""
    D = d**n
    digits = np.indices((d,) * n).reshape(n, D).T
    out = digits.copy()
    out[:, tgt] = (digits[:, tgt] + digits[:, ctrl]) % d
    U = np.zeros((D, D), dtype=complex)
    U[point_index(out, d), np.arange(D)] = 1.0
    U.flags.writeable = False
    return U


@lru_cache(maxsize=None)
def _embed(gate: str, d: int, n: int, wire: int) -> np.ndarray:
    """The named single-qudit gate on one wire of n (read-only)."""
    out = np.eye(1, dtype=complex)
    for k in range(n):
        out = np.kron(out, _SINGLE_GATES[gate](d) if k == wire
                      else np.eye(d, dtype=complex))
    out.flags.writeable = False
    return out


def random_clifford(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """Random word of CLIFFORD_WORD_LENGTH Fourier, phase and SUM gates
    (H, S, CNOT at d=2)."""
    D = d**n
    U = np.eye(D, dtype=complex)
    for _ in range(CLIFFORD_WORD_LENGTH):
        kind = rng.integers(0, 3 if n > 1 else 2)
        if kind == 0:
            U = _embed("fourier", d, n, int(rng.integers(n))) @ U
        elif kind == 1:
            U = _embed("phase", d, n, int(rng.integers(n))) @ U
        else:
            ctrl, tgt = rng.choice(n, size=2, replace=False)
            U = _sum_gate(d, n, int(ctrl), int(tgt)) @ U
    # random Weyl displacement for phase-space coverage
    p = rng.integers(0, d, size=n)
    q = rng.integers(0, d, size=n)
    return weyl_op(d, n, p, q) @ U


def clifford_t_circuit(seed: int, n: int, n_t: int) -> np.ndarray:
    """Alternating random Clifford layers and T gates on random wires (d=2).

    Exactly n_t T gates; deterministic per seed.
    """
    if n not in (1, 2):
        raise ValueError("clifford_t_circuit supports n in {1, 2}")
    rng = np.random.default_rng(seed)
    U = random_clifford(rng, 2, n)
    for _ in range(n_t):
        U = _embed("t", 2, n, int(rng.integers(n))) @ U
        U = random_clifford(rng, 2, n) @ U
    return U
