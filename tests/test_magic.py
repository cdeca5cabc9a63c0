from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dvconv import magic
from dvconv.magic import (
    clifford_t_circuit,
    log_magic_gap,
    magic_gap,
    make_zero_mean,
    mean_state,
    mean_vector,
    random_clifford,
)
from dvconv.states import (
    UNIT_TOL,
    DensityMatrix,
    StabilizerGroup,
    is_msps,
    ket_state,
    maximally_mixed,
    random_density,
    t_state,
)
from dvconv.weyl import (CharFunction, char_function, dft, inverse_char, phase_points,
                         point_index, weyl_op)
from oracles import enumerate_msps, is_clifford, msps_from_group


def test_mean_state_fixed_points():
    mixed = maximally_mixed(3, 1)
    assert np.max(np.abs(mean_state(char_function(mixed)).mat - mixed.mat)) < 1e-12
    for sigma in enumerate_msps(3):
        assert np.max(np.abs(mean_state(char_function(sigma)).mat - sigma.mat)) < 1e-10


def test_mean_state_t_state():
    assert np.max(np.abs(mean_state(char_function(t_state())).mat - np.eye(2) / 2)) < 1e-10


@given(st.integers(0, 10**6))
@settings(max_examples=20)
def test_mean_state_is_msps_and_idempotent(seed):
    rho = random_density(seed, 3, 1)
    M = mean_state(char_function(rho))
    ok, _ = is_msps(char_function(M))
    assert ok
    assert np.max(np.abs(mean_state(char_function(M)).mat - M.mat)) < 1e-10


NONZERO_POINTS_D3 = [tuple(int(v) for v in x) for x in phase_points(3, 1)[1:]]


def _cliff_table(x, delta):
    """d = 3, n = 1: Xi(0) = 1, Xi(x) = Xi(-x) = 1 + delta, 0 elsewhere."""
    values = np.zeros(9, dtype=complex)
    values[0] = 1.0
    values[point_index(x, 3)] = values[point_index(np.negative(x), 3)] = 1.0 + delta
    return CharFunction(3, 1, values)


@given(st.sampled_from(NONZERO_POINTS_D3), st.floats(-0.99 * UNIT_TOL, 0.99 * UNIT_TOL))
@settings(max_examples=50)
def test_unit_modulus_cliff_inside(x, delta):
    table = _cliff_table(x, delta)
    ok, _ = is_msps(table)
    assert ok
    assert magic_gap(table) == 0.0
    expected = msps_from_group(StabilizerGroup(3, 1, (x,), (0,)))
    assert np.max(np.abs(mean_state(table).mat - expected.mat)) < 1e-12


@given(st.sampled_from(NONZERO_POINTS_D3),
       st.floats(1.01 * UNIT_TOL, 0.5) | st.floats(-0.5, -1.01 * UNIT_TOL))
@settings(max_examples=50)
def test_unit_modulus_cliff_outside(x, delta):
    table = _cliff_table(x, delta)
    ok, _ = is_msps(table)
    assert not ok
    assert abs(magic_gap(table) + delta) <= 1e-15
    assert np.max(np.abs(mean_state(table).mat - np.eye(3) / 3)) < 1e-12


def test_magic_gap_values():
    for sigma in enumerate_msps(3):
        assert magic_gap(char_function(sigma)) == 0.0
    t = char_function(t_state())
    assert abs(magic_gap(t) - (1 - 1 / np.sqrt(2))) < 1e-12
    assert abs(log_magic_gap(t) - 0.5) < 1e-12


def test_magic_gap_tensor_min_rule():
    rho = t_state()
    sigma = random_density(3, 2, 1)
    prod = DensityMatrix(2, 2, np.kron(rho.mat, sigma.mat))
    mg_prod, mg_rho, mg_sigma = (magic_gap(char_function(s)) for s in (prod, rho, sigma))
    assert abs(mg_prod - min(mg_rho, mg_sigma)) < 1e-9


def test_lmg_mg_identity_single_gap():
    t = char_function(t_state())
    assert abs(log_magic_gap(t) + np.log2(1 - magic_gap(t))) < 1e-12


def test_magic_gap_clifford_invariance():
    for d in (2, 3):
        rho = random_density(10 + d, d, 1)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            U = random_clifford(rng, d, 1)
            rotated = DensityMatrix(d, 1, U @ rho.mat @ U.conj().T)
            assert abs(magic_gap(char_function(rotated))
                       - magic_gap(char_function(rho))) < 1e-9


def test_mean_vector_examples():
    assert mean_vector(char_function(maximally_mixed(3, 1))).phases == ()
    # |1><1| at d=3: Xi(1,0) = xi^{-1} = xi^2, so k = (2)
    group = mean_vector(char_function(ket_state(3, 1, [1])))
    assert group.generators == ((1, 0),)
    assert group.phases == (2,)


def test_make_zero_mean_trivial_and_example():
    disp, t2 = make_zero_mean(char_function(ket_state(3, 1, [0])))
    assert disp.tolist() == [0, 0]
    assert np.max(np.abs(inverse_char(t2) - ket_state(3, 1, [0]).mat)) < 1e-12
    _, t2 = make_zero_mean(char_function(ket_state(3, 1, [1])))
    assert np.max(np.abs(inverse_char(t2) - ket_state(3, 1, [0]).mat)) < 1e-10


@given(st.integers(0, 10**6))
@settings(max_examples=15)
def test_make_zero_mean_postcondition(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(seed, 3, 1, rank=int(rng.integers(1, 4)))
    disp, t2 = make_zero_mean(char_function(rho))
    group = mean_vector(t2)
    assert group.phases == (0,) * group.r


def test_make_zero_mean_matches_brute_force():
    # brute-force oracle: scan all d^{2n} dense displacements for one that
    # zeroes every phase exponent
    d = 3
    rho = ket_state(d, 1, [2])
    disp, t2 = make_zero_mean(char_function(rho))
    found = []
    for label in phase_points(d, 1):
        W = weyl_op(d, 1, label[:1], label[1:])
        cand = DensityMatrix(d, 1, W @ rho.mat @ W.conj().T)
        if mean_vector(char_function(cand)).phases == (0,):
            found.append(tuple(int(v) for v in label))
            if tuple(label) == tuple(disp):
                assert np.max(np.abs(char_function(cand).values - t2.values)) < 1e-14
    assert tuple(disp.tolist()) in found


def test_random_clifford_is_clifford():
    for d, n in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        rng = np.random.default_rng(d * 10 + n)
        U = random_clifford(rng, d, n)
        assert is_clifford(U, d, n)


def test_clifford_t_circuit():
    V0 = clifford_t_circuit(0, 1, 0)
    assert is_clifford(V0, 2, 1)
    # deterministic per seed
    assert np.array_equal(clifford_t_circuit(7, 2, 2), clifford_t_circuit(7, 2, 2))
    # one T gate on |0><0| keeps LMG at or below 1/2
    for seed in range(10):
        V = clifford_t_circuit(seed, 1, 1)
        ket = ket_state(2, 1, [0])
        out = DensityMatrix(2, 1, V @ ket.mat @ V.conj().T)
        assert log_magic_gap(char_function(out)) <= 0.5 + 1e-9
    with pytest.raises(ValueError, match=r"n in \{1, 2\}"):
        clifford_t_circuit(0, 3, 1)


@pytest.mark.parametrize("d", [19, 23])
def test_one_qudit_gates_keep_their_group_laws_at_large_d(d):
    """Each root of unity of a gate is xi^k with k reduced mod d, so the
    Fourier and Weyl gates stay unitary and the phase gate keeps S^d = I
    at large d; powers of a rounded xi drift by 1e-14 and 1e-11 here."""
    (fourier, phase, weyl, _, _), gates = magic._gates(d, 1)
    eye = np.eye(d)
    for U in (gates[fourier], *gates[weyl:weyl + d * d]):
        assert np.max(np.abs(U @ U.conj().T - eye)) < 1e-15
    assert np.max(np.abs(np.linalg.matrix_power(gates[phase], d) - eye)) < 1e-13


def _on_wire(gate, n, wire, d=2):
    ops = [gate if k == wire else np.eye(d, dtype=complex) for k in range(n)]
    return reduce(np.kron, ops, np.eye(1, dtype=complex))


#: CNOT as |i, j> -> |i, i + j> on (ctrl, tgt), by (ctrl, tgt)
CNOT = {(0, 1): np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                         dtype=complex),
        (1, 0): np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
                         dtype=complex)}


def _sum_on_two_qutrits(ctrl, tgt):
    """|i_0, i_1> -> the same with i_tgt + i_ctrl mod 3, column by column."""
    U = np.zeros((9, 9), dtype=complex)
    for i0 in range(3):
        for i1 in range(3):
            digits = [i0, i1]
            digits[tgt] = (digits[tgt] + digits[ctrl]) % 3
            U[3 * digits[0] + digits[1], 3 * i0 + i1] = 1.0
    return U


def _kron_words(rng, n, d=2, count=1):
    """``count`` random Clifford words at d=2 (or d=3 at n=2), each a list of
    gates built on the spot by np.kron, from the stream draw_clifford_words
    reads: the kinds, the wires (a SUM's control), the SUM target offsets,
    then p and q.  The closing Weyl displacement is one w(p_k, q_k) per
    wire, in wire order."""
    shape = (count, magic.CLIFFORD_WORD_LENGTH)
    kinds = rng.integers(0, 3 if n > 1 else 2, size=shape)
    wires = rng.integers(0, n, size=shape)
    offsets = rng.integers(1, max(n, 2), size=shape)
    p = rng.integers(0, d, size=(count, n))
    q = rng.integers(0, d, size=(count, n))
    words = []
    for c in range(count):
        word = []
        for kind, wire, offset in zip(kinds[c], wires[c], offsets[c]):
            if kind == 0:
                word.append(_on_wire(dft(d) / np.sqrt(d), n, wire, d))
            elif kind == 1:
                word.append(_on_wire(magic._phase_gate(d), n, wire, d))
            else:
                tgt = int(wire + offset) % n
                word.append(CNOT[wire, tgt] if d == 2 else _sum_on_two_qutrits(wire, tgt))
        words.append(word + [_on_wire(weyl_op(d, 1, p[c, k], q[c, k]), n, k, d)
                             for k in range(n)])
    return words


def _apply(gates, D):
    """The gates applied in order to the identity, one at a time."""
    return reduce(lambda U, gate: gate @ U, gates, np.eye(D, dtype=complex))


def test_stacked_words_match_kron_built_gates():
    """12 words at d = 3, n = 2, drawn from one rng and multiplied as one
    (3, 4) stack, against the same rng stream built gate by gate."""
    d, n = 3, 2
    rng, again = np.random.default_rng(5), np.random.default_rng(5)
    words = magic.draw_clifford_words(rng, d, n, 12)
    assert words.shape == (12, magic.CLIFFORD_WORD_LENGTH + n)
    stacked = magic.clifford_words(words.reshape(3, 4, -1), d, n)
    assert stacked.shape == (3, 4, 9, 9)
    for U, gates in zip(stacked.reshape(12, 9, 9), _kron_words(again, n, d, 12)):
        assert np.array_equal(U, _apply(gates, 9))
    assert np.array_equal(magic.random_clifford(np.random.default_rng(5), d, n),
                          _apply(_kron_words(np.random.default_rng(5), n, d)[0], 9))


@pytest.mark.parametrize("n", [1, 2])
def test_stacked_circuits_match_each_circuit(n):
    """Circuits of every T count are words of one length: a stack of them
    is one clifford_words call, and each member its one-row call."""
    seeds = range(24)
    words = np.array([magic.draw_clifford_t(np.random.default_rng(seed), n, seed % 4)
                      for seed in seeds])
    assert words.shape == (24, 4 * (magic.CLIFFORD_WORD_LENGTH + n) + 3)
    stacked = magic.clifford_words(words, 2, n)
    assert stacked.shape == (len(seeds), 2**n, 2**n)
    for seed, V in zip(seeds, stacked):
        assert np.array_equal(V, clifford_t_circuit(seed, n, seed % 4))


@pytest.mark.parametrize("n", [1, 2])
def test_clifford_t_circuit_matches_kron_built_gates(n):
    """Four words, then a wire per slot between them, from one stream: the
    last n_t slots hold T, the others nothing."""
    for seed in range(20):
        n_t = seed % 4
        rng = np.random.default_rng(seed)
        first, *rest = _kron_words(rng, n, count=4)
        wires = rng.integers(0, n, size=3)
        gates = first
        for slot, word in enumerate(rest):
            gates += [_on_wire(magic.T_GATE, n, wires[slot])] * (slot >= 3 - n_t) + word
        assert np.array_equal(clifford_t_circuit(seed, n, n_t), _apply(gates, 2**n))


class _CountingGenerator:
    """A Generator that counts the calls made on it."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("n", [1, 2])
def test_clifford_t_draw_is_one_shape_for_every_t_count(n):
    """Five array draws for the words and one for the T wires, whatever n_t:
    the same calls, the same stream consumed and one length."""
    drawn = []
    for n_t in range(magic.MAX_T + 1):
        rng = _CountingGenerator(3)
        circuit = magic.draw_clifford_t(rng, n, n_t)
        drawn.append((rng.calls, str(rng.rng.bit_generator.state), circuit.shape))
        assert np.count_nonzero(circuit[magic.CLIFFORD_WORD_LENGTH + n::
                                        magic.CLIFFORD_WORD_LENGTH + n + 1]) == n_t
    assert drawn == [drawn[0]] * (magic.MAX_T + 1)
    assert drawn[0][0] == 6


@pytest.mark.parametrize("n_t", [-1, 4])
def test_clifford_t_count_past_its_slots_is_refused(n_t):
    with pytest.raises(ValueError, match=r"n_t in 0\.\.3, got n=1, n_t="):
        magic.draw_clifford_t(np.random.default_rng(0), 1, n_t)


@pytest.mark.parametrize("d, n, count", [(2, 2, 16), (3, 2, 24), (7, 2, 104), (3, 3, 39)])
def test_gate_stack_holds_one_wire_weyl_gates(d, n, count):
    """The identity, then ``count`` gates: n (d^2 + 2) one-wire gates,
    n (n - 1) SUM gates and n T gates at d = 2, no gate per n-qudit Weyl
    operator.  The n one-wire gates of a label multiply to its Weyl
    operator within round-off, and the SUM gate of control c and target
    c + o adds digit c to digit c + o mod n."""
    (fourier, phase, weyl, t, sums), gates = magic._gates(d, n)
    D = d**n
    assert gates.shape == (1 + count, D, D)
    assert np.array_equal(gates[0], np.eye(D))
    assert (fourier, phase, weyl, t) == (1, 1 + n, 1 + 2 * n, 1 + (d * d + 2) * n)
    assert sums == t + n * (d == 2) and sums + n * (n - 1) == len(gates)
    for x in phase_points(d, n)[:: max(1, d ** (2 * n) // 50)]:
        p, q = x[:n], x[n:]
        W = reduce(lambda U, wire: gates[weyl + (p[wire] * d + q[wire]) * n + wire] @ U,
                   range(n), np.eye(D, dtype=complex))
        assert np.max(np.abs(W - weyl_op(d, n, p, q))) < 1e-14
    for c in range(n):
        for o in range(1, n):
            U = gates[sums + c * (n - 1) + o - 1]
            for i in range(D):
                digits = list(np.unravel_index(i, (d,) * n))
                digits[(c + o) % n] = (digits[(c + o) % n] + digits[c]) % d
                assert U[np.ravel_multi_index(digits, (d,) * n), i] == 1
            assert np.count_nonzero(U) == D


def test_cached_gates_are_read_only():
    for gate in (magic._gates(3, 2)[1], magic._gates(2, 2)[1], magic.T_GATE):
        with pytest.raises(ValueError):
            gate[0, 0] = 0
