import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dvconv.errors import (
    InvalidGroup,
    InvalidState,
    ParseError,
    UnsupportedDimension,
    UnsupportedScale,
)
from dvconv.magic import magic_gap, mean_state
from dvconv.states import (
    ENUMERATION_BUDGET,
    STATE_TOL,
    UNIT_TOL,
    DensityMatrix,
    StabilizerGroup,
    enumerate_groups,
    enumeration_count,
    is_msps,
    ket_state,
    maximally_mixed,
    msps_states,
    msps_table,
    random_density,
    state_from_json,
    state_to_json,
    t_state,
)
from dvconv.weyl import (SUPPORT_TOL, CharFunction, char_function, inverse_char, phase_points,
                         point_index, symplectic_form)
from dvconv.zmod import rank_mod, rref_mod
from oracles import enumerate_msps, ginibre_state, msps_from_group, scalar_is_msps


def test_density_matrix_validation():
    with pytest.raises(InvalidState):
        DensityMatrix(2, 1, np.eye(2, dtype=complex))  # trace 2
    with pytest.raises(InvalidState):
        DensityMatrix(2, 1, np.array([[0.5, 0.5], [-0.5, 0.5]], dtype=complex))
    with pytest.raises(InvalidState):
        DensityMatrix(2, 1, np.diag([1.5, -0.5]).astype(complex))


def _state_stack(d, n, count):
    """``count`` density matrices of every rank from 1 up, as one stack."""
    D = d**n
    return np.stack([random_density(seed, d, n, 1 + seed % D).mat for seed in range(count)])


@pytest.mark.parametrize("d, n", [(3, 1), (7, 1), (3, 2), (5, 2)])
def test_validated_spectra_match_each_state_bit_for_bit(d, n):
    D = d**n
    mats = _state_stack(d, n, 6)
    spectra = DensityMatrix(d, n, mats).eigenvalues()
    assert spectra.shape == (6, D)
    for mat, lam in zip(mats, spectra):
        assert np.array_equal(lam, DensityMatrix(d, n, mat).eigenvalues())
    # any leading shape is a stack
    grid = DensityMatrix(d, n, mats.reshape(2, 3, D, D)).eigenvalues()
    assert np.array_equal(grid, spectra.reshape(2, 3, D))


def _non_finite(m):
    m[0, 1] = np.nan


def _non_hermitian(m):
    m[0, 1] += 1e-6


def _trace_off(m):
    m *= 1.01


def _negative_eigenvalue(m):
    m[...] = np.diag([1.5, -0.5] + [0.0] * (len(m) - 2))


@pytest.mark.parametrize("spoil", [_non_finite, _non_hermitian, _trace_off,
                                   _negative_eigenvalue])
@pytest.mark.parametrize("member", [0, 3])
def test_one_bad_member_fails_the_stack_as_it_fails_alone(spoil, member):
    mats = _state_stack(3, 2, 5)
    spoil(mats[member])
    with pytest.raises(InvalidState) as alone:
        DensityMatrix(3, 2, mats[member])
    with pytest.raises(InvalidState) as stacked:
        DensityMatrix(3, 2, mats)
    assert str(stacked.value) == str(alone.value)


def test_validated_spectra_rejects_a_stack_of_another_size():
    with pytest.raises(InvalidState, match="expected"):
        DensityMatrix(3, 1, np.zeros((2, 9, 9), dtype=complex))


def test_density_matrix_leaves_the_callers_array_writeable():
    m = np.eye(3, dtype=complex) / 3
    rho = DensityMatrix(3, 1, m)
    assert m.flags.writeable
    assert not rho.mat.flags.writeable
    m[0, 0] = 5.0
    assert np.array_equal(rho.mat, np.eye(3) / 3)


def test_density_matrix_rejects_non_prime_d():
    with pytest.raises(UnsupportedDimension, match="d=4"):
        DensityMatrix(4, 1, np.eye(4, dtype=complex) / 4)


def test_random_density_rank_and_determinism():
    full = random_density(1, 3, 1)
    assert full.eigenvalues()[-1] > 0
    pure = random_density(2, 3, 1, rank=1)
    assert abs(np.vdot(pure.mat, pure.mat).real - 1) < 1e-10
    again = random_density(1, 3, 1)
    assert np.array_equal(full.mat, again.mat)


@pytest.mark.parametrize("d, n", [(2, 1), (3, 1), (7, 1), (3, 2), (2, 3)])
def test_random_density_matches_the_ginibre_oracle_bit_for_bit(d, n):
    """Every rank, drawn alone and in a mixed-rank stack whose ranks are
    shuffled, so members of one rank are not neighbours."""
    D = d**n
    for rank in range(1, D + 1):
        for seed in (rank, D + rank):
            assert (random_density(seed, d, n, rank).mat.tobytes()
                    == ginibre_state(seed, d, n, rank).tobytes())
    ranks = np.random.default_rng(D).permutation(np.repeat(np.arange(1, D + 1), 2))
    seeds = list(range(100, 100 + len(ranks)))
    stack = random_density(seeds, d, n, ranks)
    for mat, seed, rank in zip(stack.mat, seeds, ranks):
        assert mat.tobytes() == ginibre_state(seed, d, n, rank).tobytes()


@pytest.mark.parametrize("rank", [1, None])
def test_random_density_matches_the_ginibre_oracle_at_d343(rank):
    assert (random_density(3, 7, 3, rank).mat.tobytes()
            == ginibre_state(3, 7, 3, rank).tobytes())


@pytest.mark.parametrize("rank", [1, 3, np.int64(2)])
def test_random_density_takes_an_integer_rank_in_range(rank):
    rho = random_density(0, 3, 1, rank)
    assert rho.mat.tobytes() == ginibre_state(0, 3, 1, int(rank)).tobytes()
    assert np.count_nonzero(rho.eigenvalues() > 1e-12) == rank


@pytest.mark.parametrize("rank", [0, 4, 2.5, True])
def test_random_density_refuses_any_other_rank_before_drawing(monkeypatch, rank):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before the rank was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for seed, ranks in ((0, rank), ([0, 1], [1, rank])):
        with pytest.raises(ValueError, match=r"rank must be in \[1, 3\] and an integer"):
            random_density(seed, 3, 1, ranks)


def test_stabilizer_group_validation():
    with pytest.raises(InvalidGroup, match="more generators than qudits"):
        StabilizerGroup(3, 1, ((1, 0), (0, 1)), (0, 0))
    with pytest.raises(InvalidGroup, match="count mismatch"):
        StabilizerGroup(3, 1, ((1, 0),), (0, 1))
    with pytest.raises(InvalidGroup, match="generators 0, 1 do not commute"):
        # Z_1 and X_1 do not commute
        StabilizerGroup(3, 2, ((1, 0, 0, 0), (0, 0, 1, 0)), (0, 0))
    with pytest.raises(InvalidGroup, match="generators 1, 2 do not commute"):
        # Z_1 commutes with Z_2 and X_2; Z_2 and X_2 are the first pair that do not
        StabilizerGroup(3, 3, ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                               (0, 0, 0, 0, 1, 0)), (0, 0, 0))
    with pytest.raises(InvalidGroup):
        # dependent generators at n=2
        StabilizerGroup(3, 2, ((1, 0, 0, 0), (2, 0, 0, 0)), (0, 0))
    with pytest.raises(InvalidGroup, match="wrong length"):
        StabilizerGroup(3, 2, ((1, 0, 0, 0), (1, 0)), (0, 0))


def test_msps_empty_group():
    rho = msps_from_group(StabilizerGroup(3, 1, (), ()))
    assert np.max(np.abs(rho.mat - np.eye(3) / 3)) < 1e-12


def test_msps_z_group_is_zero_ket():
    rho = msps_from_group(StabilizerGroup(3, 1, ((1, 0),), (0,)))
    assert np.max(np.abs(rho.mat - ket_state(3, 1, [0]).mat)) < 1e-12


def test_msps_partial_group_n2():
    # <Z_1> at n=2: (1/3)|0><0| (x) I
    rho = msps_from_group(StabilizerGroup(3, 2, ((1, 0, 0, 0),), (0,)))
    expected = np.kron(ket_state(3, 1, [0]).mat, np.eye(3)) / 3
    assert np.max(np.abs(rho.mat - expected)) < 1e-12
    lam = rho.eigenvalues()
    assert np.sum(lam > 1e-10) == 3
    assert np.allclose(lam[lam > 1e-10], 1 / 3)


def test_is_msps_basics():
    ok, group = is_msps(char_function(maximally_mixed(3, 1)))
    assert ok and group.r == 0
    ok, group = is_msps(char_function(ket_state(3, 1, [0])))
    assert ok and group.generators == ((1, 0),)
    ok, _ = is_msps(char_function(t_state()))
    assert not ok


def test_enumerate_counts():
    assert len(enumerate_msps(2)) == 7
    assert len(enumerate_msps(3)) == 13
    assert len(enumerate_msps(3, mixed=False)) == 12
    for d in (2, 3, 5, 7, 11):
        assert len(enumerate_msps(d)) == enumeration_count(d) == d * (d + 1) + 1
        assert len(enumerate_msps(d, mixed=False)) == enumeration_count(d, mixed=False)
        assert enumeration_count(d, mixed=False) == d * (d + 1)
    # every named-spec prime fits the budget
    assert enumeration_count(13) * 13**2 <= ENUMERATION_BUDGET
    with pytest.raises(UnsupportedScale):
        enumerate_groups(3, n=2)
    with pytest.raises(UnsupportedScale):
        enumerate_groups(337, mixed=False)
    with pytest.raises(UnsupportedScale):
        enumeration_count(337)


@pytest.mark.parametrize("mixed", [True, False], ids=["mixed", "pure"])
@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_an_enumeration_is_built_once_read_only_with_the_bits_of_a_fresh_build(d, mixed):
    groups = enumerate_groups(d, 1, mixed)
    stack = msps_states(groups)
    assert isinstance(groups, tuple) and enumerate_groups(d, 1, mixed) is groups
    # equal groups in another tuple are one entry
    assert msps_states(groups) is msps_states(tuple(list(groups))) is stack
    fresh = msps_states.__wrapped__(enumerate_groups.__wrapped__(d, 1, mixed))
    assert fresh is not stack
    for cached, built in ((stack.mat, fresh.mat), (stack.eigenvalues(), fresh.eigenvalues()),
                          (stack.eigenvectors, fresh.eigenvectors)):
        assert not cached.flags.writeable
        assert cached.tobytes() == built.tobytes()


def _random_group(rng, d, n, r):
    """r independent commuting labels, each drawn at random until it fits,
    with random phases."""
    gens = []
    while len(gens) < r:
        g = tuple(int(v) for v in rng.integers(0, d, 2 * n))
        rows = np.array(gens + [g])
        if (all(symplectic_form(np.array(h), np.array(g), d) == 0 for h in gens)
                and rank_mod(rows, d) == len(rows)):
            gens.append(g)
    return StabilizerGroup(d, n, tuple(gens), tuple(int(x) for x in rng.integers(0, d, r)))


def _span(generators, d):
    """The row-echelon basis of the labels' span mod d."""
    R, pivots = rref_mod(np.array(generators, dtype=np.int64), d)
    return R[:len(pivots)].tolist()


@pytest.mark.parametrize("d, n", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2), (7, 2)])
def test_msps_table_matches_the_dense_oracle(d, n):
    rng = np.random.default_rng(100 * d + n)
    for r in range(n + 1):  # partial groups, then a maximal one
        for _ in range(3):
            group = _random_group(rng, d, n, r)
            table = msps_table(group)
            dense = msps_from_group(group)
            assert np.max(np.abs(inverse_char(table) - dense.mat)) < 1e-14
            # the dense side's forward transform adds its own round-off at D = 49
            assert np.max(np.abs(table.values - char_function(dense).values)) < 1e-13


def _ket(d, n, amplitudes):
    psi = np.zeros(d**n, dtype=complex)
    for digits, a in amplitudes.items():
        psi[int(digits, d)] = a
    return DensityMatrix(d, n, np.outer(psi, psi.conj()))


def _assert_recovers(table, group):
    ok, found = is_msps(table)
    assert ok
    assert _span(found.generators, group.d) == _span(group.generators, group.d)
    for g, k in zip(found.generators, found.phases):
        value = table.values[point_index(g, group.d)]
        assert abs(value - np.exp(2j * np.pi * k / group.d)) < 1e-12
    assert np.max(np.abs(msps_table(found).values - msps_table(group).values)) < 1e-12


def test_is_msps_accepts_bell_ghz_and_random_qubit_groups():
    # Bell: XX and ZZ with eigenvalue +1; YY then has -1
    bell = _ket(2, 2, {"00": 2**-0.5, "11": 2**-0.5})
    xx_zz = StabilizerGroup(2, 2, ((0, 0, 1, 1), (1, 1, 0, 0)), (0, 0))
    assert np.max(np.abs(msps_from_group(xx_zz).mat - bell.mat)) < 1e-12
    _assert_recovers(char_function(bell), xx_zz)
    ghz = _ket(2, 3, {"000": 2**-0.5, "111": 2**-0.5})
    ghz_group = StabilizerGroup(2, 3, ((0, 0, 0, 1, 1, 1), (1, 1, 0, 0, 0, 0),
                                       (0, 1, 1, 0, 0, 0)), (0, 0, 0))
    assert np.max(np.abs(msps_from_group(ghz_group).mat - ghz.mat)) < 1e-12
    _assert_recovers(char_function(ghz), ghz_group)
    rng = np.random.default_rng(2)
    for n in (2, 3):
        for _ in range(10):
            group = _random_group(rng, 2, n, n)
            _assert_recovers(char_function(msps_from_group(group)), group)


def test_is_msps_refuses_without_raising():
    # Bell with YY flipped (+1 is not the product phase); every label unit
    # (rank 2n > n); Z_1 and X_1 (rank n, not commuting); nothing
    for values in _refusals(2, 2):
        assert is_msps(CharFunction(2, 2, values)) == (False, None)


def _assert_stacked_matches_the_oracle(table):
    """Each member's verdict and group from one stacked call are the
    one-table oracle's."""
    ok, groups = is_msps(table)
    assert ok.shape == groups.shape == table.values.shape[:-1]
    for i in np.ndindex(ok.shape):
        member = CharFunction(table.d, table.n, table.values[i])
        assert (bool(ok[i]), groups[i]) == scalar_is_msps(member), i
    return ok


def _refusals(d, n):
    """The tables test_is_msps_refuses_without_raising refuses, in its order."""
    bell = char_function(_ket(d, n, {"00": 2**-0.5, "11": 2**-0.5}))
    flipped = bell.values.copy()
    flipped[point_index((1, 1, 1, 1), d)] *= -1
    noncommuting = np.zeros(d ** (2 * n), dtype=complex)
    for label in ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0)):
        noncommuting[point_index(label, d)] = 1.0
    return [flipped, np.ones(d ** (2 * n), dtype=complex), noncommuting,
            np.zeros(d ** (2 * n), dtype=complex)]


def test_stacked_is_msps_matches_the_oracle_per_member():
    bell = char_function(_ket(2, 2, {"00": 2**-0.5, "11": 2**-0.5})).values
    # MSPS and refusals mixed, on a (2, 3) stack
    mixed = np.stack([bell] + _refusals(2, 2)
                     + [char_function(random_density(0, 2, 2)).values]).reshape(2, 3, 16)
    ok = _assert_stacked_matches_the_oracle(CharFunction(2, 2, mixed))
    assert ok.tolist() == [[True, False, False], [False, False, False]]
    ghz = char_function(_ket(2, 3, {"000": 2**-0.5, "111": 2**-0.5})).values
    _assert_stacked_matches_the_oracle(CharFunction(2, 3, np.stack([ghz, ghz])))
    rng = np.random.default_rng(2)
    for n in (2, 3):
        groups = [_random_group(rng, 2, n, r) for r in range(n + 1) for _ in range(4)]
        tables = np.stack([msps_table(g).values for g in groups])
        assert _assert_stacked_matches_the_oracle(CharFunction(2, n, tables)).all()
    for d in (3, 7):
        tables = char_function(DensityMatrix(d, 1, np.stack(
            [rho.mat for rho in enumerate_msps(d)] + [random_density(d, d, 1).mat]))).values
        ok = _assert_stacked_matches_the_oracle(CharFunction(d, 1, tables))
        assert ok.tolist() == [True] * (len(tables) - 1) + [False]


def test_stacked_is_msps_of_an_empty_stack():
    ok, groups = is_msps(CharFunction(3, 1, np.zeros((0, 9), dtype=complex)))
    assert ok.shape == groups.shape == (0,)


@given(st.sampled_from([tuple(int(v) for v in x) for x in phase_points(3, 1)[1:]]),
       st.sampled_from([1, -1]))
@settings(max_examples=20)
def test_stacked_unit_modulus_cliff_gives_each_member_its_own_verdict(x, sign):
    """Two members, Xi(+-x) = 1 + delta at delta 0.99 UNIT_TOL and 1.01
    UNIT_TOL: the first is an MSPS and the second is not."""
    values = np.zeros((2, 9), dtype=complex)
    values[:, 0] = 1.0
    for row, factor in enumerate((0.99, 1.01)):
        values[row, [point_index(x, 3), point_index(np.negative(x), 3)]] = \
            1.0 + sign * factor * UNIT_TOL
    ok = _assert_stacked_matches_the_oracle(CharFunction(3, 1, values))
    assert ok.tolist() == [True, False]


@given(st.sampled_from([tuple(int(v) for v in x) for x in phase_points(3, 1)[1:]]),
       st.floats(0, 2 * np.pi))
@settings(max_examples=20)
def test_is_msps_and_the_magic_gap_share_one_zero(x, angle):
    """The maximally mixed qutrit with Xi(+-x) of modulus 0.99 SUPPORT_TOL
    and 1.01 SUPPORT_TOL: the first is an MSPS with magic gap 0, the second
    is support and no MSPS."""
    values = np.zeros((2, 9), dtype=complex)
    values[:, 0] = 1.0
    for row, factor in enumerate((0.99, 1.01)):
        values[row, point_index(x, 3)] = factor * SUPPORT_TOL * np.exp(1j * angle)
        values[row, point_index(np.negative(x), 3)] = factor * SUPPORT_TOL * np.exp(-1j * angle)
    table = CharFunction(3, 1, values)
    ok = _assert_stacked_matches_the_oracle(table)
    assert ok.tolist() == (magic_gap(table) == 0).tolist() == [True, False]


def _breaking(rule: str, delta: float) -> np.ndarray:
    """A 3 x 3 matrix that breaks one state rule by delta and keeps the
    others: an unmirrored off-diagonal entry, a diagonal entry off the unit
    trace, or the eigenvalue -delta."""
    if rule == "negative eigenvalue":
        return np.diag([2 / 3 + delta, 1 / 3, -delta]).astype(complex)
    m = np.eye(3, dtype=complex) / 3
    m[(0, 1) if rule == "Hermiticity deviation" else (0, 0)] += delta
    return m


STATE_RULES = ["Hermiticity deviation", "trace deviation", "negative eigenvalue"]


@pytest.mark.parametrize("rule", STATE_RULES)
@given(st.floats(0, 0.99 * STATE_TOL))
@settings(max_examples=20)
def test_state_rules_inside_state_tol(rule, delta):
    DensityMatrix(3, 1, _breaking(rule, delta))


@pytest.mark.parametrize("rule", STATE_RULES)
@given(st.floats(1.01 * STATE_TOL, 1e-3))
@settings(max_examples=20)
def test_state_rules_outside_state_tol(rule, delta):
    with pytest.raises(InvalidState, match=rule):
        DensityMatrix(3, 1, _breaking(rule, delta))


def test_enumerated_msps_all_detected():
    for d in (2, 3):
        for rho in enumerate_msps(d):
            ok, _ = is_msps(char_function(rho))
            assert ok


def test_pure_stabilizer_char_structure():
    for d in (2, 3):
        for rho in enumerate_msps(d, mixed=False):
            assert abs(np.vdot(rho.mat, rho.mat).real - 1) < 1e-10
            mags = np.abs(char_function(rho).values)
            unit = np.abs(mags - 1) < 1e-9
            assert np.sum(unit) == d
            assert np.all(unit | (mags < 1e-9))


def test_d2_stabilizers_are_pauli_eigenstates():
    # the 6 qubit stabilizer states are the +-1 eigenstates of X, Y, Z
    paulis = [np.diag([1, -1]).astype(complex),
              np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]], dtype=complex)]
    expected = []
    for P in paulis:
        for sign in (1, -1):
            expected.append((np.eye(2) + sign * P) / 2)
    found = enumerate_msps(2, mixed=False)
    for rho in found:
        assert any(np.max(np.abs(rho.mat - E)) < 1e-9 for E in expected)
    assert len(found) == 6


def test_msps_idempotent_under_mean_state():
    for rho in enumerate_msps(3):
        M = mean_state(char_function(rho))
        assert np.max(np.abs(M.mat - rho.mat)) < 1e-10


def test_same_group_distinct_phases_orthogonal():
    for label in [(1, 0), (0, 1), (1, 1), (1, 2)]:
        kets = [msps_from_group(StabilizerGroup(3, 1, (label,), (x,)))
                for x in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                hs = np.trace(kets[i].mat @ kets[j].mat).real
                assert abs(hs) < 1e-10


@given(st.integers(0, 10**6))
@settings(max_examples=15)
def test_json_dense_roundtrip(seed):
    rho = random_density(seed, 3, 1)
    back = state_from_json(json.loads(json.dumps(state_to_json(rho))))
    assert np.max(np.abs(back.mat - rho.mat)) < 1e-12


def test_json_msps_and_preset_kinds():
    # phase exponent x on generator (1,0) selects the ket |d-x>
    obj = {"d": 3, "n": 1, "kind": "msps",
           "generators": [[1, 0]], "phases": [1]}
    rho = state_from_json(obj)
    assert np.max(np.abs(rho.mat - ket_state(3, 1, [2]).mat)) < 1e-10
    mixed = state_from_json({"d": 3, "n": 1, "kind": "preset",
                             "name": "maximally-mixed"})
    assert np.max(np.abs(mixed.mat - np.eye(3) / 3)) < 1e-12


@pytest.mark.parametrize("field, value", [("n", True), ("d", 3.0), ("d", "3"), ("d", 3.9)])
@pytest.mark.parametrize("kind", ["preset", "dense", "msps"])
def test_json_d_and_n_must_be_integers(field, value, kind):
    """d and n are JSON integers, as generator entries and phases are: a
    bool, a float or a string is refused, never read as the integer it
    equals or truncates to."""
    obj = {"preset": {"kind": "preset", "name": "zero-ket"},
           "dense": state_to_json(ket_state(3, 1, [0])),
           "msps": {"kind": "msps", "generators": [[1, 0]], "phases": [0]}}[kind]
    obj = {**obj, "d": 3, "n": 1, field: value}
    with pytest.raises(ParseError, match="d and n must be integers"):
        state_from_json(obj)
