import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dvconv import conv
from dvconv.conv import (
    COVARIANCE_TOL,
    ConvolutionSpec,
    amplifier_spec,
    beam_splitter_spec,
    convolve,
    convolve_characteristic,
    default_spec,
    holevo_bounds,
    holevo_weyl_ensemble,
    key_unitary,
    partner_stabilizer_group,
)
from dvconv.entropy import renyi_entropy, renyi_spectra
from dvconv.errors import (
    CovarianceViolation,
    DimensionMismatch,
    InvalidGroup,
    NoSolution,
    NotInvertible,
    NotPositive,
    UnsupportedDimension,
    UnsupportedScale,
)
from dvconv.experiments import DUALITY_TOL, PURE_OUT_TOL
from dvconv.linalg import partial_trace_B
from dvconv.magic import mean_state
from dvconv.states import (
    DensityMatrix,
    StabilizerGroup,
    enumerate_groups,
    is_msps,
    ket_state,
    maximally_mixed,
    msps_states,
    random_density,
)
from dvconv.weyl import CharFunction, char_function, point_index
from oracles import enumerate_msps, is_clifford, msps_from_group, weyl_orbit_holevo

def _ensemble_with_covariance_off_by(delta):
    """holevo_weyl_ensemble at (3, 1), with every displaced input's output
    table moved by delta, so the covariance check deviates by delta."""
    step = conv.convolve_characteristic
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conv, "convolve_characteristic", lambda a, b, spec: CharFunction(
            spec.d, spec.n, step(a, b, spec).values + delta))
        return holevo_weyl_ensemble(default_spec(3, 1), random_density(0, 3, 1),
                                    random_density(1, 3, 1, 1))


@given(st.floats(0, 0.99 * COVARIANCE_TOL))
@settings(max_examples=20)
def test_covariance_check_inside_covariance_tol(delta):
    assert np.isfinite(_ensemble_with_covariance_off_by(delta))


@given(st.floats(1.01 * COVARIANCE_TOL, 1e-3))
@settings(max_examples=20)
def test_covariance_check_outside_covariance_tol(delta):
    with pytest.raises(CovarianceViolation):
        _ensemble_with_covariance_off_by(delta)


#: every named spec has a symmetric G; these do not, so a key map that used
#: G where it needs G^T would show
SKEW_SPECS = [ConvolutionSpec(d, n, g) for d, n, g in (
    (3, 1, (1, 2, 1, 1)), (3, 2, (1, 2, 1, 1)), (7, 1, (1, 2, 3, 4)))]
NAMED_SPECS = [default_spec(3, 1), default_spec(3, 2), beam_splitter_spec(7, 1),
               amplifier_spec(7, 1)]


def test_spec_rejects_d2():
    with pytest.raises(UnsupportedDimension):
        default_spec(2, 1)


@pytest.mark.parametrize("factory, finder", [(beam_splitter_spec, "find_beam_splitter_params"),
                                             (amplifier_spec, "find_amplifier_params")])
def test_named_specs_check_the_system_before_searching_for_G(monkeypatch, factory, finder):
    """d = 2 is the odd-prime refusal of default_spec, and a d past the scale
    limit fails at once, never reaching the O(d^2) search for G's pair."""
    with pytest.raises(UnsupportedDimension, match="odd prime"):
        factory(2, 1)

    def search(d):
        raise AssertionError(f"searched for G at d={d}")

    monkeypatch.setattr(conv, finder, search)
    for d, error in [(2, UnsupportedDimension), (4, UnsupportedDimension),
                     (10**30 + 57, UnsupportedScale), (7, AssertionError)]:
        with pytest.raises(error):
            factory(d, 1)


def test_named_specs():
    bs = beam_splitter_spec(7, 1)
    assert bs.G == (2, 2, 2, 5)
    assert amplifier_spec(7, 1).G == (3, 6, 6, 3)
    for d in (3, 5):
        with pytest.raises(NoSolution):
            beam_splitter_spec(d, 1)


def test_spec_default_d3():
    spec = ConvolutionSpec(3, 1, (1, 1, 1, 2))
    assert spec.G == (1, 1, 1, 2)
    assert spec.inverse() == (2, 2, 2, 1)


def test_spec_beam_splitter_d7():
    spec = ConvolutionSpec(7, 1, (2, 2, 2, -2))
    assert spec.G == (2, 2, 2, 5)
    # G^2 = I: the beam splitter is its own inverse at d = 7
    assert spec.inverse() == spec.G


def test_spec_rejections():
    """check_system, then d = 2, then a zero entry, then det G: a G that
    breaks several checks is refused by the first of them in that order."""
    for (d, n, G), error, message in [
        ((4, 1, (0, 0, 0, 0)), UnsupportedDimension, "d=4 is not prime"),
        ((2, 9, (0, 0, 0, 0)), UnsupportedScale, r"d\^n = 2\^9"),
        ((2, 1, (1, 1, 1, 1)), UnsupportedDimension, "odd prime"),
        ((2, 1, (1, 0, 1, 1)), UnsupportedDimension, "odd prime"),
        ((3, 1, (0, 1, 1, 1)), NotPositive, "zero entry mod 3"),
        ((3, 1, (1, 3, 1, 1)), NotPositive, "zero entry mod 3"),
        ((3, 1, (0, 0, 0, 0)), NotPositive, "zero entry mod 3"),
        ((3, 1, (1, 1, 1, 1)), NotInvertible, "det G = 0 mod 3"),
        ((7, 1, (1, 2, 3, 6)), NotInvertible, "det G = 0 mod 7"),
    ]:
        with pytest.raises(error, match=message):
            ConvolutionSpec(d, n, G)


@given(st.sampled_from([3, 5, 7]), st.tuples(*[st.integers(-50, 50)] * 4))
def test_spec_inverse(d, entries):
    try:
        spec = ConvolutionSpec(d, 1, entries)
    except (NotInvertible, NotPositive):
        return
    G = np.array(spec.G).reshape(2, 2)
    Ginv = np.array(spec.inverse()).reshape(2, 2)
    assert np.array_equal((G @ Ginv) % d, np.eye(2, dtype=np.int64))


def test_spec_reduces_G_to_python_int_residues():
    """Equal specs built from any integer sequence share one cache entry."""
    conv._key_sources.cache_clear()
    for G in ((1, 1, 1, -1), [1, 1, 1, -1], np.array([1, 1, 1, -1])):
        spec = ConvolutionSpec(3, 1, G)
        assert spec == default_spec(3, 1) and hash(spec) == hash(default_spec(3, 1))
        assert [type(g) for g in spec.G] == [int] * 4
        conv._key_sources(spec)
    assert conv._key_sources.cache_info().currsize == 1


def _transposed(spec):
    g00, g01, g10, g11 = spec.G
    return ConvolutionSpec(spec.d, spec.n, (g00, g10, g01, g11))


_KEY_SOURCES, _CHAR_SOURCES = conv._key_sources, conv._char_sources
SPEC_IDS = ["default-3-1", "default-3-2", "beam-splitter-7-1", "amplifier-7-1",
            "skew-3-1", "skew-3-2", "skew-7-1"]

#: one fault of the spec layer per row, with the specs whose duality check
#: it slips past; the gate's duality suite runs only default (3, 1),
#: default (3, 2) and beam splitter (7, 1), so it misses the last two rows
SPEC_FAULTS = {
    # G^2 = I for the beam splitter at d = 7, so G^-1 = G there
    "inverse-returns-G": (ConvolutionSpec, "inverse", lambda spec: spec.G,
                          {"beam-splitter-7-1"}),
    # every named G is symmetric, so G^T = G
    "key-sources-read-G-transposed": (
        conv, "_key_sources", lambda spec: _KEY_SOURCES(_transposed(spec)),
        {"default-3-1", "default-3-2", "beam-splitter-7-1", "amplifier-7-1"}),
    # h00 = h10 and g00 = g01 at these specs, so the two sources coincide
    "char-sources-swapped": (
        conv, "_char_sources", lambda spec: _CHAR_SOURCES(spec)[::-1],
        {"default-3-1", "default-3-2", "beam-splitter-7-1"}),
}


@pytest.mark.parametrize("fault", SPEC_FAULTS)
def test_duality_catches_each_spec_fault_on_some_spec(fault):
    target, name, patched, blind = SPEC_FAULTS[fault]
    devs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(target, name, patched)
        _KEY_SOURCES.cache_clear()
        _CHAR_SOURCES.cache_clear()
        try:
            for spec_id, spec in zip(SPEC_IDS, NAMED_SPECS + SKEW_SPECS):
                a = random_density([0, 1], spec.d, spec.n)
                b = random_density([2, 3], spec.d, spec.n, 1)
                lhs = char_function(convolve(a, b, spec)).values
                rhs = convolve_characteristic(char_function(a), char_function(b),
                                              spec).values
                devs[spec_id] = np.max(np.abs(lhs - rhs))
        finally:
            _KEY_SOURCES.cache_clear()
            _CHAR_SOURCES.cache_clear()
    assert {k for k, dev in devs.items() if dev > DUALITY_TOL} == set(SPEC_IDS) - blind, devs


def test_key_unitary_is_permutation_and_clifford():
    for spec in (default_spec(3, 1), default_spec(3, 2), beam_splitter_spec(7, 1)):
        U = key_unitary(spec)
        assert np.all(np.isin(U.real, [0.0, 1.0]))
        assert np.allclose(U.sum(axis=0), 1) and np.allclose(U.sum(axis=1), 1)
        assert is_clifford(U, spec.d, 2 * spec.n)
        # |0,0> is fixed
        assert U[0, 0] == 1.0


def test_beam_splitter_index_map():
    # |i, j> -> |si+tj, ti-sj> mod 7 with (s, t) = (2, 2)
    d, s, t = 7, 2, 2
    U = key_unitary(beam_splitter_spec(d, 1))
    for i in range(d):
        for j in range(d):
            src = i * d + j
            dst = ((s * i + t * j) % d) * d + (t * i - s * j) % d
            assert U[dst, src] == 1.0


def test_amplifier_index_map():
    # |i, j> -> |li+mj, mi+lj> mod 7 with (l, m) = (3, 1)
    d, l, m = 7, 3, 1
    U = key_unitary(amplifier_spec(d, 1))
    for i in range(d):
        for j in range(d):
            src = i * d + j
            dst = ((l * i + m * j) % d) * d + (m * i + l * j) % d
            assert U[dst, src] == 1.0


def test_convolve_basics():
    spec = default_spec(3, 1)
    zero = ket_state(3, 1, [0])
    out = convolve(zero, zero, spec)
    assert np.max(np.abs(out.mat - zero.mat)) < 1e-12
    mixed = maximally_mixed(3, 1)
    sigma = random_density(0, 3, 1)
    out = convolve(mixed, sigma, spec)
    assert np.max(np.abs(out.mat - mixed.mat)) < 1e-12
    with pytest.raises(DimensionMismatch):
        convolve(random_density(0, 3, 2), sigma, spec)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_duality(seed):
    for spec in NAMED_SPECS + SKEW_SPECS:
        d, n = spec.d, spec.n
        a = random_density(seed, d, n)
        b = random_density(seed + 1, d, n)
        lhs = char_function(convolve(a, b, spec)).values
        rhs = convolve_characteristic(char_function(a), char_function(b), spec).values
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_convolve_equals_dense_oracle():
    # the gather adds the partial-trace terms in the dense path's order, so
    # the two agree bit for bit, not only to rounding; D = 25 and 27 too
    for k, spec in enumerate(NAMED_SPECS + SKEW_SPECS
                             + [default_spec(5, 2), default_spec(3, 3)]):
        d, n, D = spec.d, spec.n, spec.d**spec.n
        a = random_density(k, d, n, rank=1)
        b = random_density(k + 100, d, n)
        U = key_unitary(spec)
        out = partial_trace_B(U @ np.kron(a.mat, b.mat) @ U.conj().T, D, D)
        assert np.array_equal(convolve(a, b, spec).mat, (out + out.conj().T) / 2)


def test_convolve_memory_at_d343():
    """The gather holds one j at a time: no D^3 index arrays."""
    spec = default_spec(7, 3)
    a = random_density(0, 7, 3, rank=1)
    b = random_density(1, 7, 3)
    tracemalloc.start()
    try:
        convolve(a, b, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


def test_stacked_convolve_memory():
    """20 members at D = 49 hold a few stacks of one j's gathers, 0.73 MB each."""
    spec = default_spec(7, 2)
    a = random_density(list(range(20)), 7, 2, 1)
    b = random_density(list(range(20, 40)), 7, 2)
    tracemalloc.start()
    try:
        out = convolve(a, b, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.mat.shape == (20, 49, 49)
    assert peak <= 8 * 2**20


def test_beam_splitter_char_form():
    # Xi_out(x) = Xi_rho(s x) Xi_sigma(t x)
    d, n = 7, 1
    s, t = 2, 2
    spec = beam_splitter_spec(d, n)
    a = random_density(3, d, n)
    b = random_density(4, d, n)
    ta, tb = char_function(a), char_function(b)
    out = convolve_characteristic(ta, tb, spec)
    from dvconv.weyl import phase_points

    for x in phase_points(d, n):
        expected = (ta.values[point_index(s * x, d)]
                    * tb.values[point_index(t * x, d)])
        assert abs(out.values[point_index(x, d)] - expected) < 1e-12


def test_stability_exhaustive():
    spec = default_spec(3, 1)
    stabs = enumerate_msps(3, mixed=False)
    for a in stabs:
        for b in stabs:
            ok, _ = is_msps(char_function(convolve(a, b, spec)))
            assert ok


def test_channel_apply():
    spec = default_spec(3, 1)
    out = convolve(random_density(1, 3, 1), maximally_mixed(3, 1), spec)
    assert np.max(np.abs(out.mat - np.eye(3) / 3)) < 1e-12
    out2 = convolve(random_density(3, 3, 1), random_density(2, 3, 1), spec)
    assert abs(np.trace(out2.mat) - 1) < 1e-12


def test_partner_group_example():
    spec = default_spec(3, 1)
    s2 = StabilizerGroup(3, 1, ((1, 0),), (0,))
    s1 = partner_stabilizer_group(s2, spec)
    # -g10^{-1} g11 = -2 = 1 mod 3: again a Z-type label
    assert s1.generators == ((1, 0),)


def test_partner_group_needs_a_maximal_group():
    group = StabilizerGroup(3, 2, ((1, 0, 0, 0),), (0,))
    with pytest.raises(InvalidGroup, match=r"r = n"):
        partner_stabilizer_group(group, default_spec(3, 2))


def test_partner_pairs_give_pure_output():
    spec = default_spec(3, 1)
    for line in [(1, 0), (1, 1), (1, 2), (0, 1)]:
        s2 = StabilizerGroup(3, 1, (line,), (0,))
        s1 = partner_stabilizer_group(s2, spec)
        out = convolve(msps_from_group(s1), msps_from_group(s2), spec)
        assert renyi_entropy(out, 1) < 1e-9


def test_mismatched_pair_has_entropy():
    spec = default_spec(3, 1)
    # Z-type second input partners with Z-type; an X-type first input mismatches
    a = msps_from_group(StabilizerGroup(3, 1, ((0, 1),), (0,)))
    b = msps_from_group(StabilizerGroup(3, 1, ((1, 0),), (0,)))
    assert renyi_entropy(convolve(a, b, spec), 1) > 0.1


#: a G's partner map (x, y) -> (cp x, cq y) fixes every line exactly when
#: cp = cq: so at every G at d = 3 and at every named G but the amplifier.
#: These move lines: (cp, cq) = (2, 1) and (3, 4)
LINE_MOVING_SPECS = [ConvolutionSpec(5, 1, (1, 1, 2, 1)), amplifier_spec(7, 1)]


def _partner_rule_holds(spec: ConvolutionSpec) -> bool:
    """Over every ordered pair (a, b) of pure stabilizer states, a boxtimes b
    has entropy below PURE_OUT_TOL exactly when a's group lies on the line
    of b's partner, and at least 0.1 bits otherwise."""
    groups = enumerate_groups(spec.d, mixed=False)
    pure = msps_states(groups)
    h = renyi_spectra(convolve(pure[:, None], pure[None], spec).eigenvalues(), 1)
    partners = [conv.partner_stabilizer_group(b, spec).generators for b in groups]
    is_partner = np.array([[a.generators == p for p in partners] for a in groups])
    return bool(np.all(np.where(is_partner, h < PURE_OUT_TOL, h >= 0.1)))


@pytest.mark.parametrize("spec", LINE_MOVING_SPECS, ids=str)
def test_partner_rule_holds_where_partners_move_lines(spec):
    assert _partner_rule_holds(spec)


@pytest.mark.parametrize("spec", LINE_MOVING_SPECS, ids=str)
def test_partner_rule_fails_for_a_partner_map_that_fixes_lines(monkeypatch, spec):
    monkeypatch.setattr(conv, "partner_stabilizer_group", lambda group, spec: group)
    assert not _partner_rule_holds(spec)


@pytest.mark.parametrize("spec", [default_spec(d, 1) for d in (3, 5, 7)]
                         + [spec for spec in SKEW_SPECS if spec.n == 1]
                         + LINE_MOVING_SPECS, ids=str)
def test_partner_group_is_an_enumerated_group(spec):
    """Partners come back in the canonical form the enumeration holds."""
    groups = enumerate_groups(spec.d, mixed=False)
    assert all(partner_stabilizer_group(g, spec) in groups for g in groups)


def test_holevo_bounds_cases():
    spec = default_spec(3, 1)
    lo, hi = holevo_bounds(spec, maximally_mixed(3, 1))
    assert abs(lo) < 1e-9 and abs(hi) < 1e-9
    for sigma in enumerate_msps(3, mixed=False):
        lo, hi = holevo_bounds(spec, sigma)
        assert abs(lo - np.log2(3)) < 1e-9
        assert abs(hi - np.log2(3)) < 1e-9
    # magic pure sigma: strict gap
    sigma = random_density(11, 7, 1, rank=1)
    lo, hi = holevo_bounds(beam_splitter_spec(7, 1), sigma)
    assert lo < hi - 1e-6


def _assert_lower_bound_is_the_dense_mean_state_entropy(sigma):
    """holevo_bounds' lower bound, read off the unit points of sigma's table,
    is n log2 d - H(M(sigma)) with M built densely by magic.mean_state, and
    log2 of a power of d.  Returns that power per member."""
    d, n = sigma.d, sigma.n
    lower, _ = holevo_bounds(default_spec(d, n), sigma)
    dense = n * np.log2(d) - renyi_spectra(mean_state(char_function(sigma)).eigenvalues(), 1)
    assert np.max(np.abs(lower - dense)) < 1e-12
    r = lower / np.log2(d)
    assert np.max(np.abs(r - np.round(r))) < 1e-12
    return np.round(r)


@pytest.mark.parametrize("d, n", [(3, 1), (7, 1), (3, 2), (5, 2), (7, 2), (3, 3), (7, 3)])
def test_holevo_lower_bound_matches_the_dense_mean_state(d, n):
    """A Ginibre stack of every rank (at D = 343 ranks 1, 2, d, d^2, D - 1
    and D: every rank there, 686 eigensolves at D = 343, would double the
    run time of the whole suite), and an MSPS of every group rank r, X-type
    generators on the first r wires, whose bound is r log2 d."""
    D = d**n
    ranks = list(range(1, D + 1)) if D < 343 else [1, 2, d, d * d, D - 1, D]
    _assert_lower_bound_is_the_dense_mean_state_entropy(
        random_density(list(range(len(ranks))), d, n, ranks))
    labels = np.eye(n, 2 * n, dtype=np.int64)
    groups = tuple(StabilizerGroup(d, n, tuple(map(tuple, labels[:r].tolist())),
                                   tuple(k % d for k in range(1, r + 1))) for r in range(n + 1))
    r = _assert_lower_bound_is_the_dense_mean_state_entropy(msps_states(groups))
    assert r.tolist() == list(range(n + 1))


@pytest.mark.parametrize("d", [3, 5, 7])
def test_holevo_lower_bound_matches_the_dense_mean_state_on_every_msps(d):
    r = _assert_lower_bound_is_the_dense_mean_state_entropy(msps_states(enumerate_groups(d)))
    assert r.tolist() == [1] * d * (d + 1) + [0]


def test_holevo_bounds_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        holevo_bounds(default_spec(3, 1), random_density(0, 3, 2))
    with pytest.raises(DimensionMismatch):
        holevo_bounds(default_spec(3, 1), random_density(0, 7, 1))


def test_holevo_weyl_ensemble():
    spec = default_spec(3, 1)
    mixed = maximally_mixed(3, 1)
    assert abs(holevo_weyl_ensemble(spec, mixed, random_density(0, 3, 1))) < 1e-9
    # MSPS sigma: some enumerated rho0 achieves the upper bound
    for sigma in enumerate_msps(3)[:3]:
        _, upper = holevo_bounds(spec, sigma)
        best = max(holevo_weyl_ensemble(spec, sigma, rho0)
                   for rho0 in enumerate_msps(3))
        assert abs(best - upper) < 1e-9


@pytest.mark.parametrize("spec", NAMED_SPECS + SKEW_SPECS,
                         ids=lambda s: f"{s.d}-{s.n}-G{''.join(map(str, s.G))}")
def test_holevo_weyl_ensemble_matches_full_orbit_oracle(spec):
    """The generator check against the dense sweep of all d^{2n} displacements."""
    D = spec.d**spec.n
    for seed, rank in enumerate((1, 2, D)):
        sigma = random_density(seed, spec.d, spec.n, rank)
        rho0 = random_density(100 + seed, spec.d, spec.n, 1 + seed % 2)
        holevo, avg_dev, spread = weyl_orbit_holevo(spec, sigma, rho0)
        assert avg_dev < 1e-9
        assert spread < 1e-9
        assert abs(holevo_weyl_ensemble(spec, sigma, rho0) - holevo) < 1e-9


def test_holevo_weyl_ensemble_rejects_a_non_covariant_channel(monkeypatch):
    true_convolve = conv.convolve

    def bumped(rho, sigma, spec):
        out = true_convolve(rho, sigma, spec).mat.copy()
        out[0, 0] += 1e-3
        return DensityMatrix(spec.d, spec.n, out / (1 + 1e-3))

    monkeypatch.setattr(conv, "convolve", bumped)
    spec = beam_splitter_spec(7, 1)
    with pytest.raises(CovarianceViolation, match="unit label"):
        holevo_weyl_ensemble(spec, random_density(0, 7, 1, 7), random_density(1, 7, 1, 1))


def test_holevo_weyl_ensemble_rejects_a_non_covariant_character_side(monkeypatch):
    true_convolve = conv.convolve_characteristic

    def bumped(t_rho, t_sigma, spec):
        values = true_convolve(t_rho, t_sigma, spec).values.copy()
        values[1] += 1e-3
        return CharFunction(spec.d, spec.n, values)

    monkeypatch.setattr(conv, "convolve_characteristic", bumped)
    spec = beam_splitter_spec(7, 1)
    with pytest.raises(CovarianceViolation, match="unit label"):
        holevo_weyl_ensemble(spec, random_density(0, 7, 1, 7), random_density(1, 7, 1, 1))


@pytest.mark.parametrize("d, n", [(3, 1), (3, 2), (7, 1)])
def test_holevo_weyl_ensemble_convolves_once(monkeypatch, d, n):
    """The covariance check runs on tables: one matrix-side convolution."""
    calls = []

    def counted(rho, sigma, spec):
        calls.append(1)
        return convolve(rho, sigma, spec)

    monkeypatch.setattr(conv, "convolve", counted)
    holevo_weyl_ensemble(default_spec(d, n), random_density(0, d, n), random_density(1, d, n, 1))
    assert len(calls) == 1
