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
from dvconv.entropy import renyi_entropy
from dvconv.errors import (
    CovarianceViolation,
    DimensionMismatch,
    NoSolution,
    UnsupportedDimension,
)
from dvconv.linalg import partial_trace_B
from dvconv.states import (
    DensityMatrix,
    StabilizerGroup,
    is_msps,
    ket_state,
    maximally_mixed,
    random_density,
)
from dvconv.weyl import CharFunction, char_function, point_index
from dvconv.zmod import gmatrix_new
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
SKEW_SPECS = [ConvolutionSpec(d, n, gmatrix_new(g, d)) for d, n, g in (
    (3, 1, (1, 2, 1, 1)), (3, 2, (1, 2, 1, 1)), (7, 1, (1, 2, 3, 4)))]
NAMED_SPECS = [default_spec(3, 1), default_spec(3, 2), beam_splitter_spec(7, 1),
               amplifier_spec(7, 1)]


def test_spec_rejects_d2():
    with pytest.raises(UnsupportedDimension):
        default_spec(2, 1)


def test_named_specs():
    bs = beam_splitter_spec(7, 1)
    assert (bs.G.g00, bs.G.g01, bs.G.g10, bs.G.g11) == (2, 2, 2, 5)
    amp = amplifier_spec(7, 1)
    assert (amp.G.g00, amp.G.g01, amp.G.g10, amp.G.g11) == (3, 6, 6, 3)
    for d in (3, 5):
        with pytest.raises(NoSolution):
            beam_splitter_spec(d, 1)


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
                         ids=lambda s: f"{s.d}-{s.n}-G{s.G.g00}{s.G.g01}{s.G.g10}{s.G.g11}")
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
