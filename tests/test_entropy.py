import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dvconv.entropy import (
    FULL_RANK_TOL,
    _off_support,
    fisher_fd_oracle,
    fisher_information,
    relative_entropy,
    renyi_entropy,
    renyi_spectra,
    sandwiched_relative_entropy,
    total_fisher,
)
from dvconv.errors import RankDeficient
from dvconv.experiments import ALPHAS_NEG, ALPHAS_NONNEG
from dvconv.magic import mean_state
from dvconv.states import (
    DensityMatrix,
    ket_state,
    maximally_mixed,
    random_density,
)
from dvconv.weyl import SUPPORT_TOL, char_function, xi
from oracles import (scalar_relative_entropy, scalar_renyi,
                     scalar_sandwiched_relative_entropy)

INF = math.inf


def _diag_state(*probs):
    return DensityMatrix(len(probs), 1, np.diag(probs).astype(complex))


def test_renyi_maximally_mixed():
    for alpha in (0.5, 1, 2, 3, INF):
        assert abs(renyi_entropy(maximally_mixed(3, 2), alpha) - 2 * np.log2(3)) < 1e-10


def test_renyi_pure():
    pure = random_density(0, 3, 1, rank=1)
    assert abs(renyi_entropy(pure, 2)) < 1e-9
    assert abs(renyi_entropy(pure, 1)) < 1e-8


def test_renyi_two_level_example():
    rho = _diag_state(0.75, 0.25)
    assert abs(renyi_entropy(rho, 2) + np.log2(10 / 16)) < 1e-12


def test_renyi_limit_cases():
    rho = _diag_state(0.5, 0.3, 0.2)
    assert abs(renyi_entropy(rho, 0) - np.log2(3)) < 1e-12
    assert abs(renyi_entropy(rho, INF) + np.log2(0.5)) < 1e-12
    assert abs(renyi_entropy(rho, -INF) - np.log2(0.2)) < 1e-12
    # finite negative alpha follows the sgn formula
    expected = -np.log2(0.5**-2 + 0.3**-2 + 0.2**-2) / 3
    assert abs(renyi_entropy(rho, -2) - expected) < 1e-12


@given(st.integers(0, 10**6),
       st.sampled_from([(3, 1), (7, 1), (3, 2), (2, 4), (7, 2), (5, 3), (7, 3)]))
@settings(max_examples=30, deadline=None)
def test_renyi_of_a_pure_state_is_zero(seed, shape):
    # below alpha = 1, eigensolver noise of ~1e-16 would enter as lam**alpha
    pure = random_density(seed, *shape, 1)
    for alpha in ALPHAS_NONNEG + (0.25, 0.75):
        assert abs(renyi_entropy(pure, alpha)) <= 1e-12, alpha


def test_renyi_negative_alpha_rank_deficient():
    pure = ket_state(3, 1, [0])
    assert renyi_entropy(pure, -1) == INF


@pytest.mark.parametrize("d, n", [(3, 1), (7, 1), (3, 2), (5, 2)])
def test_renyi_spectra_match_renyi_entropy_bit_for_bit(d, n):
    D = d**n
    # full rank, rank deficient and pure, in one stack
    states = [random_density(seed, d, n, rank) for seed, rank in
              ((0, None), (1, None), (2, 2), (3, D - 1), (4, 1), (5, 1))]
    states.append(maximally_mixed(d, n))
    spectra = np.stack([rho.eigenvalues() for rho in states])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in ALPHAS_NONNEG + ALPHAS_NEG:
            hs = renyi_spectra(spectra, alpha)
            assert hs.shape == (len(states),)
            grid = renyi_spectra(spectra.reshape(1, len(states), D), alpha)
            assert np.array_equal(grid[0], hs)
            for rho, h in zip(states, hs):
                assert h == renyi_entropy(rho, alpha)
                if alpha < 0 and rho.eigenvalues()[-1] <= FULL_RANK_TOL:
                    assert h == INF
                # removing the cut eigenvalues instead of replacing them
                # reorders the sum only past 8 terms
                oracle = scalar_renyi(rho.eigenvalues(), alpha)
                if D <= 8:
                    assert h == oracle, alpha
                else:
                    assert h == oracle or abs(h - oracle) <= 1e-14, alpha


#: smallest eigenvalue: 0, or FULL_RANK_TOL times a factor at least 1% from 1
SMALLEST_EIGENVALUE = st.one_of(
    st.just(0.0),
    st.floats(1e-4, 0.99).map(lambda f: f * FULL_RANK_TOL),
    st.floats(1.01, 100.0).map(lambda f: f * FULL_RANK_TOL),
)


def _state_with_smallest_eigenvalue(seed, share, eps):
    """A d = 3 state with spectrum (share (1 - eps), (1 - share)(1 - eps), eps)."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    lam = np.array([share * (1 - eps), (1 - share) * (1 - eps), eps])
    return DensityMatrix(3, 1, (U * lam) @ U.conj().T)


@given(st.integers(0, 10**6), st.floats(0.2, 0.8), SMALLEST_EIGENVALUE)
@settings(max_examples=60)
def test_renyi_at_the_full_rank_edge(seed, share, eps):
    rho = _state_with_smallest_eigenvalue(seed, share, eps)
    # only the alpha = 1 branch drops eigenvalues <= FULL_RANK_TOL; its
    # neighbours keep them and must still agree with it
    h1 = renyi_entropy(rho, 1)
    for alpha in (1 - 1e-6, 1 + 1e-6):
        assert abs(renyi_entropy(rho, alpha) - h1) < 1e-5
    for alpha in (-0.5, -1.0, -2.0, -INF):
        h = renyi_entropy(rho, alpha)
        assert (h == INF) == (eps <= FULL_RANK_TOL)
        assert h == INF or math.isfinite(h)


@given(st.integers(0, 10**6))
@settings(max_examples=20)
def test_renyi_monotone_in_alpha(seed):
    rho = random_density(seed, 3, 1)
    alphas = (0.5, 1, 2, 3, INF)
    hs = [renyi_entropy(rho, a) for a in alphas]
    for a, b in zip(hs, hs[1:]):
        assert b <= a + 1e-10


def test_relative_entropy_cases():
    rho = random_density(1, 3, 1)
    assert abs(relative_entropy(rho, rho)) < 1e-9
    gap = relative_entropy(rho, maximally_mixed(3, 1)) \
        - (np.log2(3) - renyi_entropy(rho, 1))
    assert abs(gap) < 1e-9
    assert relative_entropy(ket_state(2, 1, [0]), ket_state(2, 1, [1])) == INF


def test_sandwiched_cases():
    rho = random_density(2, 3, 1)
    for alpha in (0.5, 2, INF):
        assert abs(sandwiched_relative_entropy(rho, rho, alpha)) < 1e-8
    for alpha in (2, INF):
        gap = sandwiched_relative_entropy(rho, maximally_mixed(3, 1), alpha) \
            - (np.log2(3) - renyi_entropy(rho, alpha))
        assert abs(gap) < 1e-9
    assert sandwiched_relative_entropy(rho, ket_state(3, 1, [0]), 2) == INF
    with pytest.raises(ValueError):
        sandwiched_relative_entropy(rho, rho, 0.25)


@pytest.mark.parametrize("alpha", [0.5, 1, 2, INF])
def test_divergences_match_the_scalar_oracle(alpha):
    """Stacks of full-rank and rank-deficient rho against sigma = rho,
    sigma = M(rho), a random full-rank sigma and random pure sigma, which
    holds none of these rho in its support."""
    ranks = [3, 3, 2, 1, 2, 1]
    rho = random_density(list(range(6)), 3, 1, ranks)
    sigmas = {
        "self": rho,
        "mean": mean_state(char_function(rho)),
        "full": random_density(list(range(10, 16)), 3, 1),
        "pure": random_density(list(range(20, 26)), 3, 1, 1),
    }
    for name, sigma in sigmas.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sandwiched_relative_entropy(rho, sigma, alpha)
            if alpha == 1:
                assert np.array_equal(got, relative_entropy(rho, sigma))
        assert got.shape == (6,)
        for i in range(6):
            want = scalar_sandwiched_relative_entropy(rho[i], sigma[i], alpha)
            if alpha == 1:
                assert want == scalar_relative_entropy(rho[i], sigma[i])
            if name == "pure" and alpha >= 1:
                assert got[i] == want == INF
                continue
            assert abs(got[i] - want) <= 1e-12, (name, i)


@pytest.mark.parametrize("alpha", [0.5, 1, 2, INF])
@pytest.mark.parametrize("d, n, rank", [(3, 1, 1), (3, 2, 1), (3, 2, 3), (7, 1, 2)])
def test_divergence_of_a_rank_deficient_state_to_itself_is_zero(d, n, rank, alpha):
    """200 seeds per case: at alpha < 1 no eigensolver noise on the kernel
    of sigma = rho survives the power."""
    rho = random_density(list(range(200)), d, n, rank)
    assert np.abs(sandwiched_relative_entropy(rho, rho, alpha)).max() <= 1e-12


def _kernel_weight(delta):
    """rho with weight delta on the kernel of sigma = |0><0|."""
    return _diag_state(1.0 - delta, delta, 0.0), _diag_state(1.0, 0.0, 0.0)


@given(st.floats(0, 0.99 * SUPPORT_TOL))
@settings(max_examples=30)
def test_support_rule_inside_support_tol(delta):
    rho, sigma = _kernel_weight(delta)
    assert not _off_support(rho, sigma)
    assert relative_entropy(rho, sigma) < INF
    assert sandwiched_relative_entropy(rho, sigma, 2) < INF
    assert renyi_spectra(rho.eigenvalues(), 0) == 0.0  # one eigenvalue counts


@given(st.floats(1.01 * SUPPORT_TOL, 0.5))
@settings(max_examples=30)
def test_support_rule_outside_support_tol(delta):
    rho, sigma = _kernel_weight(delta)
    assert _off_support(rho, sigma)
    assert relative_entropy(rho, sigma) == INF
    assert sandwiched_relative_entropy(rho, sigma, 2) == INF
    assert renyi_spectra(rho.eigenvalues(), 0) == 1.0  # two count


def test_sandwiched_is_infinite_on_orthogonal_states_at_every_alpha():
    rho, sigma = ket_state(3, 1, [0]), ket_state(3, 1, [1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (0.5, 0.75, 1, 2, INF):
            assert sandwiched_relative_entropy(rho, sigma, alpha) == INF
    with pytest.raises(ValueError):
        sandwiched_relative_entropy(rho, sigma, 0.25)


@given(st.integers(0, 10**6))
@settings(max_examples=15)
def test_sandwiched_nonnegative_and_mean_state_identity(seed):
    rho = random_density(seed, 3, 1)
    sigma = random_density(seed + 1, 3, 1)
    for alpha in (1, 2, INF):
        assert sandwiched_relative_entropy(rho, sigma, alpha) > -1e-9
        M = mean_state(char_function(rho))
        identity_gap = sandwiched_relative_entropy(rho, M, alpha) \
            - (renyi_entropy(M, alpha) - renyi_entropy(rho, alpha))
        assert abs(identity_gap) < 1e-8


def test_fisher_zero_cases():
    mixed = maximally_mixed(3, 1)
    H = np.diag([1.0, 0, 0]).astype(complex)
    assert abs(fisher_information(mixed, H)) < 1e-9
    rho = random_density(3, 3, 1)
    assert abs(fisher_information(rho, np.eye(3, dtype=complex))) < 1e-9


def test_fisher_rank_deficient():
    with pytest.raises(RankDeficient):
        fisher_information(ket_state(3, 1, [0]), np.eye(3, dtype=complex))


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_fisher_matches_fd_oracle(seed):
    rho = random_density(seed, 3, 1)
    H = np.diag([1.0, 0, 0]).astype(complex)
    assert abs(fisher_information(rho, H) - fisher_fd_oracle(rho, H)) < 1e-4


def test_total_fisher():
    assert abs(total_fisher(maximally_mixed(3, 1))) < 1e-8
    assert total_fisher(random_density(5, 3, 1)) > -1e-9


def test_total_fisher_wire_permutation_invariance():
    a = random_density(6, 3, 1)
    b = random_density(7, 3, 1)
    ab = DensityMatrix(3, 2, np.kron(a.mat, b.mat))
    ba = DensityMatrix(3, 2, np.kron(b.mat, a.mat))
    assert abs(total_fisher(ab) - total_fisher(ba)) < 1e-6


def _kron_total_fisher(rho):
    """Oracle: sum of fisher_information over wire-local X/Z projectors built by kron."""
    d, n = rho.d, rho.n
    projs = []
    for j in range(d):
        z = np.eye(d)[j]
        x = xi(d) ** (-j * np.arange(d)) / np.sqrt(d)
        projs += [np.outer(z, z), np.outer(x, x.conj())]
    total = 0.0
    for k in range(n):
        for P in projs:
            H = np.eye(1)
            for m in range(n):
                H = np.kron(H, P if m == k else np.eye(d))
            total += fisher_information(rho, H)
    return total


@pytest.mark.parametrize("d, n", [(3, 1), (7, 1), (3, 2), (5, 2), (7, 2)])
def test_total_fisher_matches_kron_oracle(d, n):
    for seed in range(3):
        rho = random_density(seed, d, n)
        oracle = _kron_total_fisher(rho)
        assert abs(total_fisher(rho) - oracle) <= 1e-12 * abs(oracle)
    with pytest.raises(RankDeficient):
        total_fisher(random_density(0, d, n, 1))


def test_each_state_is_diagonalised_once(monkeypatch):
    rho = random_density(8, 3, 2)
    sigma = random_density(9, 3, 2)
    sigma.eigenvectors  # solved now, so only rho's solves are counted
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, _name=name, **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    H = np.diag(np.arange(9.0)).astype(complex)
    for _ in range(2):
        for alpha in ALPHAS_NONNEG + (-1.0, -INF):
            renyi_entropy(rho, alpha)
        relative_entropy(rho, sigma)
        relative_entropy(sigma, rho)
        fisher_information(rho, H)
        total_fisher(rho)
    assert calls == {"eigh": 1, "eigvalsh": 0}


def test_cached_spectrum_is_read_only():
    rho = random_density(10, 3, 1)
    lam, vecs = rho.eigenvalues(), rho.eigenvectors
    assert np.all(lam[:-1] >= lam[1:]) and lam[-1] >= 0
    assert np.allclose((vecs * lam) @ vecs.conj().T, rho.mat, atol=1e-12)
    for cached in (lam, vecs):
        with pytest.raises(ValueError):
            cached[0] = 0
