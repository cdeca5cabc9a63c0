import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    DensityMatrix,
    enumerate_msps,
    is_msps,
    ket_state,
    maximally_mixed,
    random_density,
    t_state,
)
from dvconv.weyl import char_function, is_clifford, phase_points, weyl_op


def test_mean_state_fixed_points():
    mixed = maximally_mixed(3, 1)
    assert np.max(np.abs(mean_state(mixed).mat - mixed.mat)) < 1e-12
    for sigma in enumerate_msps(3):
        assert np.max(np.abs(mean_state(sigma).mat - sigma.mat)) < 1e-10


def test_mean_state_t_state():
    assert np.max(np.abs(mean_state(t_state()).mat - np.eye(2) / 2)) < 1e-10


@given(st.integers(0, 10**6))
@settings(max_examples=20)
def test_mean_state_is_msps_and_idempotent(seed):
    rho = random_density(seed, 3, 1)
    M = mean_state(rho)
    ok, _ = is_msps(M)
    assert ok
    assert np.max(np.abs(mean_state(M).mat - M.mat)) < 1e-10


def test_magic_gap_values():
    for sigma in enumerate_msps(3):
        assert magic_gap(sigma) == 0.0
    assert abs(magic_gap(t_state()) - (1 - 1 / np.sqrt(2))) < 1e-12
    assert abs(log_magic_gap(t_state()) - 0.5) < 1e-12


def test_magic_gap_tensor_min_rule():
    rho = t_state()
    sigma = random_density(3, 2, 1)
    prod = DensityMatrix(2, 2, np.kron(rho.mat, sigma.mat))
    assert abs(magic_gap(prod) - min(magic_gap(rho), magic_gap(sigma))) < 1e-9


def test_lmg_mg_identity_single_gap():
    rho = t_state()
    assert abs(log_magic_gap(rho) + np.log2(1 - magic_gap(rho))) < 1e-12


def test_magic_gap_clifford_invariance():
    for d in (2, 3):
        rho = random_density(10 + d, d, 1)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            U = random_clifford(rng, d, 1)
            rotated = DensityMatrix(d, 1, U @ rho.mat @ U.conj().T)
            assert abs(magic_gap(rotated) - magic_gap(rho)) < 1e-9


def test_mean_vector_examples():
    assert mean_vector(maximally_mixed(3, 1)).k == ()
    # |1><1| at d=3: Xi(1,0) = xi^{-1} = xi^2, so k = (2)
    mv = mean_vector(ket_state(3, 1, [1]))
    assert mv.group.generators == ((1, 0),)
    assert mv.k == (2,)


def test_make_zero_mean_trivial_and_example():
    disp, rho2 = make_zero_mean(ket_state(3, 1, [0]))
    assert disp == (0, 0)
    assert np.max(np.abs(rho2.mat - ket_state(3, 1, [0]).mat)) < 1e-12
    _, rho2 = make_zero_mean(ket_state(3, 1, [1]))
    assert np.max(np.abs(rho2.mat - ket_state(3, 1, [0]).mat)) < 1e-10


@given(st.integers(0, 10**6))
@settings(max_examples=15)
def test_make_zero_mean_postcondition(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(seed, 3, 1, rank=int(rng.integers(1, 4)))
    disp, rho2 = make_zero_mean(rho)
    assert mean_vector(rho2).k == (0,) * mean_vector(rho2).group.r


def test_make_zero_mean_matches_brute_force():
    # brute-force oracle: scan all d^{2n} displacements for one that
    # zeroes every phase exponent
    d = 3
    rho = ket_state(d, 1, [2])
    disp, rho2 = make_zero_mean(rho)
    found = []
    for label in phase_points(d, 1):
        W = weyl_op(d, 1, label[:1], label[1:])
        cand = DensityMatrix(d, 1, W @ rho.mat @ W.conj().T)
        if mean_vector(cand).k == (0,):
            found.append(tuple(int(v) for v in label))
    assert tuple(disp) in found


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
        assert log_magic_gap(out) <= 0.5 + 1e-9
    with pytest.raises(ValueError):
        clifford_t_circuit(0, 3, 1)
