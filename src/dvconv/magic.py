"""Mean-state projection, magic gap, mean-value vector, zero-mean
normalization, and Clifford+T circuit generation.

Every function of a state takes its ``CharFunction``; ``make_zero_mean``
displaces the table by a phase per point, with no dense Weyl product.  A
Clifford word or Clifford+T circuit is a fixed-shape array of indices into
one gate stack, drawn with a fixed set of array calls.  The one-qudit gates
follow weyl's phase rule: Fourier dft(d)/sqrt(d), phase xi^{2^{-1}k^2}, single_weyl_table.

Logarithms are base 2 throughout (bits), matching the entropy module.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from .errors import PhaseNotRoot
from .states import DensityMatrix, hermitian_part, is_msps, unit_phases
from .weyl import (SUPPORT_TOL, CharFunction, dft, displace, inverse_char, point_index,
                   single_weyl_table, xi)
from .weyl import weyl_op  # noqa: F401  not called; perfbench/test_tracer.py checks the name
from .zmod import mod_inverse, solve_mod_linear

#: gates per random Clifford word, before its closing Weyl displacement
CLIFFORD_WORD_LENGTH = 8
#: the most T gates of a Clifford+T circuit, and so its slots for them
MAX_T = 3


def _mean_table(table: CharFunction) -> CharFunction:
    """Keep unit-modulus characteristic values, zero the rest.

    Unit values are renormalized to exact modulus 1 so the projection is
    idempotent to machine precision.
    """
    return CharFunction(table.d, table.n, unit_phases(table.values))


def mean_state(table: CharFunction) -> DensityMatrix:
    """M(rho) from rho's table, inverted and symmetrized (a stack for a stack):
    the tests' dense oracle, as nothing in the package builds M(rho) densely."""
    M = inverse_char(_mean_table(table))
    return DensityMatrix(table.d, table.n, hermitian_part(M))


def magic_gaps(table: CharFunction) -> tuple[np.ndarray, np.ndarray]:
    """(MG, LMG) from one pass over the table: with t the largest |Xi| over
    support points that are not unit modulus, MG = 1 - t and LMG = -log2 t,
    both 0 for an MSPS (no such point).  Arrays of a stack's shape (np.float64
    for one table)."""
    mags = np.abs(table.values)
    cand = (mags > SUPPORT_TOL) & (unit_phases(table.values) == 0)
    top = np.where(cand, mags, 0.0).max(axis=-1)
    # 0.0 - log2(1) is 0.0 where -log2(1) would be -0.0
    return ((1.0 - top) * (top > 0))[()], (0.0 - np.log2(np.where(top > 0, top, 1.0)))[()]


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


def _phase_gate(d: int) -> np.ndarray:
    k = np.arange(d)
    return np.diag([1.0, 1j]) if d == 2 else np.diag(xi(d, mod_inverse(2, d) * k * k))


@lru_cache(maxsize=None)
def _gates(d: int, n: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Every gate a word on n qudits draws, as one read-only (G, D, D) stack,
    and the first index of each kind, (fourier, phase, weyl, t, sum).  After
    the identity at 0 come the one-wire gates, each on wires 0..n-1 in turn:
    Fourier, phase, w(p, q) per label k = p·d + q (at weyl + k·n + wire) and
    T at d = 2 (t == sum at odd d).  Then SUM per ordered pair, |i, j> ->
    |i, i+j> (CNOT at d = 2), control c and target c + o mod n, o in [1, n),
    at sum + c(n - 1) + o - 1.  1 + n(d^2 + 2) + n(n - 1) gates, n more at d = 2."""
    D = d**n
    eye = np.eye(d, dtype=complex)
    singles = [dft(d) / np.sqrt(d), _phase_gate(d), *single_weyl_table(d), *[T_GATE] * (d == 2)]
    one_wire = [reduce(np.kron, [gate if k == wire else eye for k in range(n)],
                       np.eye(1, dtype=complex)) for gate in singles for wire in range(n)]
    ctrl, offset = np.divmod(np.arange(n * (n - 1)), max(n - 1, 1))
    tgt = (ctrl + offset + 1) % n
    digits = np.indices((d,) * n).reshape(n, D).T
    # per pair, each basis state's digits with the control added to the target
    out = np.tile(digits, (len(ctrl), 1, 1))
    out[np.arange(len(ctrl)), :, tgt] += digits[:, ctrl].T
    sums = np.eye(D, dtype=complex)[point_index(out, d)].swapaxes(-1, -2)
    stack = np.concatenate([np.eye(D, dtype=complex)[None], one_wire, sums])
    stack.flags.writeable = False
    t = 1 + n * (d * d + 2)
    return (1, 1 + n, 1 + 2 * n, t, t + n * (d == 2)), stack


def draw_clifford_words(rng: np.random.Generator, d: int, n: int, count: int) -> np.ndarray:
    """The gate indices into _gates(d, n) of ``count`` random Clifford words,
    (count, CLIFFORD_WORD_LENGTH + n): CLIFFORD_WORD_LENGTH Fourier, phase
    and SUM gates (H, S, CNOT at d=2) on uniform wires and ordered pairs,
    then a uniform Weyl displacement w(p, q), one gate w(p_k, q_k) per wire,
    for phase-space coverage.  Five array draws from rng, in this order: the
    kinds, the wires (a SUM's control), the SUM target offsets in [1, n),
    then p and q."""
    (fourier, phase, weyl, _, sums), _ = _gates(d, n)
    shape = (count, CLIFFORD_WORD_LENGTH)
    kinds = rng.integers(0, 3 if n > 1 else 2, size=shape)
    wires = rng.integers(0, n, size=shape)
    offsets = rng.integers(1, max(n, 2), size=shape)  # all 1, unused, at n = 1
    p = rng.integers(0, d, size=(count, n))
    q = rng.integers(0, d, size=(count, n))
    gates = np.choose(kinds, [fourier + wires, phase + wires,
                              sums + wires * (n - 1) + offsets - 1])
    return np.concatenate([gates, weyl + (p * d + q) * n + np.arange(n)], axis=-1)


def clifford_words(words, d: int, n: int) -> np.ndarray:
    """The unitary of each word of a (..., L) stack of gate indices,
    (..., D, D): the gates applied in order to the identity, one stacked
    product per position.  A Clifford+T circuit is such a word too.  Gate
    0 is the identity, and I @ U is exactly U, so an identity slot leaves
    the product as it is."""
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
    draw_clifford_words and clifford_words."""
    return clifford_words(draw_clifford_words(rng, d, n, 1)[0], d, n)


def draw_clifford_t(rng: np.random.Generator, n: int, n_t: int) -> np.ndarray:
    """The gate indices into _gates(2, n) of one Clifford+T circuit at d=2
    with n_t <= MAX_T T gates, of one length whatever n_t: MAX_T + 1
    Clifford words with a slot between each pair (word, slot, word, ...,
    word).  The last n_t slots hold T on a random wire and the others gate
    0, the identity, so the words before the first T make a random
    stabilizer input.  Drawn from rng as the words, then a wire per slot."""
    if n not in (1, 2) or not 0 <= n_t <= MAX_T:
        raise ValueError(f"clifford_t_circuit supports n in {{1, 2}} and n_t in 0..{MAX_T}, "
                         f"got n={n}, n_t={n_t}")
    (_, _, _, t, _), _ = _gates(2, n)
    words = draw_clifford_words(rng, 2, n, MAX_T + 1)
    slots = np.where(np.arange(MAX_T) < MAX_T - n_t, 0, t + rng.integers(0, n, size=MAX_T))
    return np.concatenate([np.column_stack([words[:-1], slots]).ravel(), words[-1]])


def clifford_t_circuit(seed: int, n: int, n_t: int) -> np.ndarray:
    """Alternating random Clifford words and T gates on random wires (d=2):
    exactly n_t T gates, deterministic per seed.  The one-row call of
    draw_clifford_t, from default_rng(seed), and clifford_words."""
    return clifford_words(draw_clifford_t(np.random.default_rng(seed), n, n_t), 2, n)
