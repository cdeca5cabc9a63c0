"""Mean-state projection, magic gap, mean-value vector, zero-mean
normalization, and Clifford+T circuit generation.

Every function of a state takes its ``CharFunction``; ``make_zero_mean``
displaces the table by a phase per point, with no dense Weyl product.

Logarithms are base 2 throughout (bits), matching the entropy module.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import permutations

import numpy as np

from .errors import PhaseNotRoot
from .linalg import SUPPORT_TOL
from .states import DensityMatrix, is_msps, unit_phases
from .weyl import CharFunction, displace, inverse_char, point_index, weyl_op, xi
from .zmod import mod_inverse, solve_mod_linear

#: gates per random Clifford word, before its closing Weyl displacement
CLIFFORD_WORD_LENGTH = 8


def _mean_table(table: CharFunction) -> CharFunction:
    """Keep unit-modulus characteristic values, zero the rest.

    Unit values are renormalized to exact modulus 1 so the projection is
    idempotent to machine precision.
    """
    return CharFunction(table.d, table.n, unit_phases(table.values))


def mean_state(table: CharFunction) -> DensityMatrix:
    """M(rho) from rho's table: _mean_table, inverted and symmetrized; a
    stack of states for a stack of tables."""
    M = inverse_char(_mean_table(table))
    return DensityMatrix(table.d, table.n, (M + M.conj().swapaxes(-1, -2)) / 2)


def _top_gap_modulus(table: CharFunction) -> np.ndarray:
    """The largest |Xi| over support points that are not unit modulus, of
    each table of a stack; 0 where there is none (an MSPS)."""
    mags = np.abs(table.values)
    cand = (mags > SUPPORT_TOL) & (unit_phases(table.values) == 0)
    return np.where(cand, mags, 0.0).max(axis=-1)


def magic_gap(table: CharFunction) -> np.ndarray:
    """1 - second-largest characteristic modulus on the support; 0 for MSPS.
    An array of a stack's shape (an np.float64 for one table)."""
    top = _top_gap_modulus(table)
    return ((1.0 - top) * (top > 0))[()]


def log_magic_gap(table: CharFunction) -> np.ndarray:
    """-log2 of the second-largest characteristic modulus; 0 for MSPS.
    An array of a stack's shape (an np.float64 for one table)."""
    top = _top_gap_modulus(table)
    # 0.0 - log2(1) is 0.0 where -log2(1) would be -0.0
    return (0.0 - np.log2(np.where(top > 0, top, 1.0)))[()]


def mean_vector(table: CharFunction):
    """The mean state's group: generators g_i and phases k_i, with Xi(g_i)
    within 2 UNIT_TOL of xi^{k_i}, as is_msps compares the unit phases with
    the group's table.  An object array of groups for a stack of tables."""
    ok, group = is_msps(_mean_table(table))
    if not np.all(ok):
        raise PhaseNotRoot("mean state failed MSPS detection")
    return group


def make_zero_mean(table: CharFunction) -> tuple[np.ndarray, CharFunction]:
    """Weyl displacement x = (a, b) and the zero-mean table of w(x) rho w(x)^dag,
    of one table or of each table of a stack ((..., 2n) displacements).

    Displacing by w(a, b) shifts each phase exponent by a.q_i - b.p_i, so
    the displacement solves a linear system over Z_d, once per distinct
    group of the stack.
    """
    d, n = table.d, table.n
    groups = np.asarray(mean_vector(table), dtype=object)
    solutions = {}
    for group in set(groups.flat):
        g = np.array(group.generators, dtype=np.int64).reshape(-1, 2 * n)
        rows = np.concatenate([g[:, n:], -g[:, :n] % d], axis=1)
        phases = np.array(group.phases, dtype=np.int64)
        solutions[group] = solve_mod_linear(rows, -phases % d, d)
    x = np.array([solutions[group] for group in groups.flat], dtype=np.int64)
    x = x.reshape(groups.shape + (2 * n,))
    return x, displace(table, x)


# ---------------------------------------------------------------------------
# Clifford words and Clifford+T circuits
# ---------------------------------------------------------------------------


T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)])
T_GATE.flags.writeable = False


def _fourier_gate(d: int) -> np.ndarray:
    j, k = np.indices((d, d))
    return xi(d) ** (j * k) / np.sqrt(d)


def _phase_gate(d: int) -> np.ndarray:
    if d == 2:
        return np.diag([1.0, 1j])
    k = np.arange(d)
    return np.diag(xi(d) ** (mod_inverse(2, d) * k * k))


@lru_cache(maxsize=None)
def _gates(d: int, n: int) -> tuple[dict, np.ndarray]:
    """Every gate a word on n qudits draws, as one read-only (G, D, D) stack,
    and the index of each in it by key: per wire ("fourier", wire), ("phase",
    wire), ("t", wire) at d = 2 and ("weyl", p·d + q, wire), w(p, q) on that
    wire; ("sum", ctrl, tgt) per ordered pair (|i, j> -> |i, i+j>, CNOT at
    d = 2).  n(d^2 + 2) + n(n - 1) gates, n more at d = 2."""
    D = d**n
    singles = {("fourier",): _fourier_gate(d), ("phase",): _phase_gate(d),
               **{("weyl", k): weyl_op(d, 1, k // d, k % d) for k in range(d * d)}}
    if d == 2:
        singles[("t",)] = T_GATE
    index, mats = {}, []
    for key, gate in singles.items():
        for wire in range(n):
            index[key + (wire,)] = len(mats)
            mats.append(reduce(np.kron, [gate if k == wire else np.eye(d, dtype=complex)
                                         for k in range(n)], np.eye(1, dtype=complex)))
    digits = np.indices((d,) * n).reshape(n, D).T
    for ctrl, tgt in permutations(range(n), 2):
        index["sum", ctrl, tgt] = len(mats)
        out = digits + digits[:, [ctrl]] * (np.arange(n) == tgt)
        mats.append(np.eye(D, dtype=complex)[:, point_index(out, d)])
    stack = np.array(mats)
    stack.flags.writeable = False
    return index, stack


def draw_clifford_word(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """The gate indices into _gates(d, n) of one random Clifford word:
    CLIFFORD_WORD_LENGTH Fourier, phase and SUM gates (H, S, CNOT at d=2),
    then a random Weyl displacement w(p, q), one gate w(p_k, q_k) per wire,
    for phase-space coverage; drawn from rng in that order."""
    index, _ = _gates(d, n)
    word = []
    for _ in range(CLIFFORD_WORD_LENGTH):
        kind = rng.integers(0, 3 if n > 1 else 2)
        if kind == 2:
            ctrl, tgt = rng.choice(n, size=2, replace=False)
            word.append(index["sum", int(ctrl), int(tgt)])
        else:
            word.append(index[("fourier", "phase")[kind], int(rng.integers(n))])
    p = rng.integers(0, d, size=n)
    q = rng.integers(0, d, size=n)
    word += [index["weyl", int(k), wire] for wire, k in enumerate(p * d + q)]
    return np.array(word)


def clifford_words(words, d: int, n: int) -> np.ndarray:
    """The unitary of each word of a (..., L) stack of gate indices,
    (..., D, D): the gates applied in order to the identity, one stacked
    product per position.  A Clifford+T circuit is such a word too."""
    words = np.asarray(words)
    _, gates = _gates(d, n)
    D = d**n
    flat = words.reshape(-1, words.shape[-1])
    U = np.tile(np.eye(D, dtype=complex), (len(flat), 1, 1))
    for column in flat.T:
        U = gates[column] @ U
    return U.reshape(words.shape[:-1] + (D, D))


def random_clifford(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """One random Clifford word, drawn and multiplied: the one-row call of
    draw_clifford_word and clifford_words."""
    return clifford_words(draw_clifford_word(rng, d, n), d, n)


def draw_clifford_t(seed: int, n: int, n_t: int) -> np.ndarray:
    """The gate indices into _gates(2, n) of one Clifford+T circuit at d=2:
    n_t + 1 Clifford words alternating with n_t T gates on random wires
    (word, T, word, ..., word), drawn from seed in that order."""
    if n not in (1, 2):
        raise ValueError("clifford_t_circuit supports n in {1, 2}")
    index, _ = _gates(2, n)
    rng = np.random.default_rng(seed)
    circuit = [draw_clifford_word(rng, 2, n)]
    for _ in range(n_t):
        circuit += [[index["t", int(rng.integers(n))]], draw_clifford_word(rng, 2, n)]
    return np.concatenate(circuit)


def clifford_t_circuit(seed: int, n: int, n_t: int) -> np.ndarray:
    """Alternating random Clifford words and T gates on random wires (d=2):
    exactly n_t T gates, deterministic per seed.  The one-row call of
    draw_clifford_t and clifford_words."""
    return clifford_words(draw_clifford_t(seed, n, n_t), 2, n)
