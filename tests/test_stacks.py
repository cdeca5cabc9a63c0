"""Stacked calls against single-state calls: member i of every stacked call
equals the single call on member i, bit for bit."""

import numpy as np
import pytest

from dvconv import conv, entropy, linalg, magic, states, weyl
from dvconv.errors import InvalidState
from dvconv.states import DensityMatrix, random_density

SHAPES = [(3, 1), (7, 1), (3, 2)]
#: members per stack
T = 5


def _spec(d, n):
    return conv.beam_splitter_spec(d, n) if d >= 7 else conv.default_spec(d, n)


def _stack(d, n, first=0, full_rank=False):
    """T states from seeds first.., of every rank from 1 up unless full rank."""
    seeds = list(range(first, first + T))
    ranks = [d**n if full_rank else 1 + s % d**n for s in seeds]
    return seeds, ranks, random_density(seeds, d, n, ranks)


@pytest.mark.parametrize("d, n", SHAPES)
def test_random_density_draws_each_member_from_its_own_seed(d, n):
    seeds, ranks, rho = _stack(d, n)
    assert rho.mat.shape == (T, d**n, d**n)
    for i, (seed, rank) in enumerate(zip(seeds, ranks)):
        alone = random_density(seed, d, n, rank)
        assert np.array_equal(rho.mat[i], alone.mat)
        assert np.array_equal(rho.eigenvalues()[i], alone.eigenvalues())
    full = random_density(tuple(seeds), d, n)
    for i, seed in enumerate(seeds):
        assert np.array_equal(full.mat[i], random_density(seed, d, n).mat)


def test_random_density_makes_a_stack_only_through_seeds():
    # a list of ints is a stack of int seeds, not one seed as numpy reads it
    for seeds in ([0, 1, 2], (0, 1, 2)):
        rho = random_density(seeds, 3, 1)
        assert rho.mat.shape == (3, 3, 3)
        for i, seed in enumerate(seeds):
            assert np.array_equal(rho.mat[i], random_density(seed, 3, 1).mat)
    # a one-member stack, and a stack of no members
    assert np.array_equal(random_density([4], 3, 1).mat, random_density(4, 3, 1).mat[None])
    assert random_density([], 3, 1).mat.shape == (0, 3, 3)
    # a SeedSequence is one seed
    assert random_density(np.random.SeedSequence(5), 3, 1).mat.shape == (3, 3)


def test_random_density_checks_each_rank():
    with pytest.raises(ValueError, match="2 ranks for 3 seeds"):
        random_density([0, 1, 2], 3, 1, [1, 2])
    with pytest.raises(ValueError, match="rank must be in"):
        random_density([0, 1], 3, 1, [1, 4])


@pytest.mark.parametrize("d, n", SHAPES)
def test_members_share_the_checked_arrays(monkeypatch, d, n):
    _, _, rho = _stack(d, n)
    alone = [DensityMatrix(d, n, m) for m in rho.mat]
    early = rho[0]  # taken before the stack solved its eigenvectors
    checks = []
    monkeypatch.setattr(DensityMatrix, "__post_init__", lambda self: checks.append(self))
    vecs = rho.eigenvectors
    for i in range(T):
        member = rho[i]
        assert member.mat.shape == (d**n, d**n)
        assert np.shares_memory(member.mat, rho.mat)
        assert np.shares_memory(member.eigenvalues(), rho.eigenvalues())
        assert np.shares_memory(member.eigenvectors, vecs)
        assert np.array_equal(member.eigenvalues(), alone[i].eigenvalues())
        assert np.array_equal(member.eigenvectors, alone[i].eigenvectors)
    assert np.array_equal(early.eigenvectors, alone[0].eigenvectors)
    # a None adds a broadcast axis and is no index: views, not new states
    D = d**n
    for view, lead in ((rho[:, None], (T, 1)), (rho[None], (1, T)), (rho[None, 2], (1,))):
        assert view.mat.shape == lead + (D, D)
        assert view.eigenvalues().shape == lead + (D,)
        assert view.eigenvectors.shape == lead + (D, D)
        assert np.shares_memory(view.mat, rho.mat)
        assert np.shares_memory(view.eigenvalues(), rho.eigenvalues())
        assert np.shares_memory(view.eigenvectors, vecs)
    assert np.array_equal(rho[None, 2].mat[0], rho.mat[2])
    assert np.array_equal(rho[:, None].eigenvectors[:, 0], vecs)
    assert not checks  # no member or view was validated again
    for index in ((0, 1), (None, 0, 1), (0, None, 1)):
        with pytest.raises(IndexError, match="2 indices for a stack of shape"):
            rho[index]


def test_members_index_the_leading_axes_only():
    _, _, rho = _stack(3, 1)
    grid = DensityMatrix(3, 1, rho.mat.reshape(T, 1, 3, 3))
    assert np.array_equal(grid[2, 0].mat, rho.mat[2])
    assert grid[2].mat.shape == (1, 3, 3)
    with pytest.raises(IndexError):
        rho[0, 0]
    with pytest.raises(IndexError):
        rho[0][0]


@pytest.mark.parametrize("d, n", SHAPES)
def test_one_bad_member_reports_its_own_numbers(d, n):
    _, _, rho = _stack(d, n)
    mats = rho.mat.copy()
    mats[3] *= 1.5  # trace 1.5
    with pytest.raises(InvalidState) as alone:
        DensityMatrix(d, n, mats[3])
    with pytest.raises(InvalidState, match="trace deviation 5.000e-01") as stacked:
        DensityMatrix(d, n, mats)
    assert str(stacked.value) == str(alone.value)


@pytest.mark.parametrize("d, n", SHAPES)
def test_convolve_stack_and_pair_grid_match_each_pair(d, n):
    spec, D = _spec(d, n), d**n
    _, _, a = _stack(d, n)
    _, _, b = _stack(d, n, first=T)
    out = conv.convolve(a, b, spec)
    grid = conv.convolve(DensityMatrix(d, n, a.mat[:, None]),
                         DensityMatrix(d, n, b.mat[None]), spec)
    assert out.mat.shape == (T, D, D) and grid.mat.shape == (T, T, D, D)
    for i in range(T):
        alone = conv.convolve(a[i], b[i], spec)
        assert np.array_equal(out.mat[i], alone.mat)
        assert np.array_equal(out.eigenvalues()[i], alone.eigenvalues())
        for j in range(T):
            assert np.array_equal(grid.mat[i, j], conv.convolve(a[i], b[j], spec).mat)


@pytest.mark.parametrize("d, n", SHAPES)
def test_char_function_and_its_inverse_per_member(d, n):
    spec = _spec(d, n)
    _, _, a = _stack(d, n)
    _, _, b = _stack(d, n, first=T)
    ta, tb = weyl.char_function(a), weyl.char_function(b)
    both = conv.convolve_characteristic(ta, tb, spec)
    back = weyl.inverse_char(ta)
    label = np.arange(2 * n) + 1
    moved = weyl.displace(ta, label)
    for i in range(T):
        alone = weyl.char_function(a[i])
        assert np.array_equal(ta.values[i], alone.values)
        assert np.array_equal(moved.values[i], weyl.displace(alone, label).values)
        assert np.array_equal(both.values[i], conv.convolve_characteristic(
            alone, weyl.char_function(b[i]), spec).values)
        assert np.array_equal(back[i], weyl.inverse_char(alone))


@pytest.mark.parametrize("d, n", SHAPES)
def test_total_fisher_per_member(d, n):
    _, _, rho = _stack(d, n, full_rank=True)
    fisher = entropy.total_fisher(rho)
    assert fisher.shape == (T,)
    for i in range(T):
        assert fisher[i] == entropy.total_fisher(rho[i])


@pytest.mark.parametrize("d", [3, 7])
def test_fisher_information_and_its_oracle_per_member(d):
    """A (10, d, d) stack of states against a stack of Hermitian H, and
    against one H for all, bit for bit as each member alone."""
    seeds = list(range(10))
    rho = random_density(seeds, d, 1)
    G = np.random.default_rng(d).standard_normal((2, 10, d, d))
    H = G[0] + 1j * G[1]
    H = H + H.conj().swapaxes(-1, -2)
    J, fd = entropy.fisher_information(rho, H), entropy.fisher_fd_oracle(rho, H)
    shared = entropy.fisher_information(rho, H[0])
    assert J.shape == fd.shape == shared.shape == (10,)
    for i, seed in enumerate(seeds):
        alone = random_density(seed, d, 1)
        assert J[i] == entropy.fisher_information(alone, H[i])
        assert fd[i] == entropy.fisher_fd_oracle(alone, H[i])
        assert shared[i] == entropy.fisher_information(alone, H[0])
    assert type(entropy.fisher_information(alone, H[0])) is np.float64
    assert type(entropy.fisher_fd_oracle(alone, H[0])) is np.float64


@pytest.mark.parametrize("members", [2, 3])  # 3: a stack as tall as the matrices
def test_mean_state_per_member(members):
    _, _, rho = _stack(3, 1)
    M = magic.mean_state(weyl.char_function(rho[:members]))
    assert M.mat.shape == (members, 3, 3)
    for i in range(members):
        alone = magic.mean_state(weyl.char_function(rho[i]))
        assert np.array_equal(M.mat[i], alone.mat)
        assert np.array_equal(M.eigenvalues()[i], alone.eigenvalues())


@pytest.mark.parametrize("d, n", SHAPES)
def test_holevo_bounds_and_ensemble_per_member(d, n):
    spec = _spec(d, n)
    _, _, sigma = _stack(d, n)
    _, _, rho0 = _stack(d, n, first=T)
    lower, upper = conv.holevo_bounds(spec, sigma)
    ensemble = conv.holevo_weyl_ensemble(spec, sigma, rho0)
    assert lower.shape == upper.shape == ensemble.shape == (T,)
    for i in range(T):
        alone = conv.holevo_bounds(spec, sigma[i])
        assert all(type(v) is np.float64 for v in alone)
        assert (lower[i], upper[i]) == alone
        assert ensemble[i] == conv.holevo_weyl_ensemble(spec, sigma[i], rho0[i])


def test_holevo_msps_grid_matches_each_pair():
    spec = conv.default_spec(3, 1)
    stack = states.msps_states(states.enumerate_groups(3))
    msps = [stack[i] for i in range(len(stack.mat))]
    lower, upper = conv.holevo_bounds(spec, stack)
    grid = conv.holevo_weyl_ensemble(spec, DensityMatrix(3, 1, stack.mat[:, None]),
                                     DensityMatrix(3, 1, stack.mat[None]))
    assert grid.shape == (13, 13)
    for j, sigma in enumerate(msps):
        assert (lower[j], upper[j]) == conv.holevo_bounds(spec, sigma)
        for k, rho0 in enumerate(msps):
            assert grid[j, k] == conv.holevo_weyl_ensemble(spec, sigma, rho0)


def test_herm_eig_per_member():
    _, _, rho = _stack(3, 2)
    mats = rho.mat - np.eye(9) / 9  # Hermitian, not states
    vals, vecs = linalg.herm_eig(mats)
    assert vals.shape == (T, 9) and vecs.shape == (T, 9, 9)
    for i in range(T):
        alone_vals, alone_vecs = linalg.herm_eig(mats[i])
        assert np.array_equal(vals[i], alone_vals)
        assert np.array_equal(vecs[i], alone_vecs)


@pytest.mark.parametrize("d, n", SHAPES)
def test_divergences_per_member(d, n):
    _, _, rho = _stack(d, n)
    _, _, sigma = _stack(d, n, first=T)
    pairs = entropy.relative_entropy(rho, sigma)
    assert pairs.shape == (T,)
    for i in range(T):
        assert pairs[i] == entropy.relative_entropy(rho[i], sigma[i])
    assert type(entropy.relative_entropy(rho[0], sigma[0])) is np.float64


@pytest.mark.parametrize("alpha", [0.5, 1, 2, np.inf])
def test_divergence_grid_against_the_msps_matches_each_pair(alpha):
    """A (T, 1) stack against the 13 MSPS of one qutrit: one grid call."""
    _, _, rho = _stack(3, 1)
    msps = states.msps_states(states.enumerate_groups(3))
    grid = entropy.sandwiched_relative_entropy(DensityMatrix(3, 1, rho.mat[:, None]),
                                               msps, alpha)
    assert grid.shape == (T, 13)
    for i in range(T):
        for j in range(13):
            assert grid[i, j] == entropy.sandwiched_relative_entropy(rho[i], msps[j], alpha)


@pytest.mark.parametrize("d, n", SHAPES)
def test_mean_vector_and_zero_mean_per_member(d, n):
    _, _, rho = _stack(d, n)
    tables = weyl.char_function(rho)
    groups = magic.mean_vector(tables)
    x, shifted = magic.make_zero_mean(tables)
    assert groups.shape == (T,) and x.shape == (T, 2 * n)
    for i in range(T):
        alone = weyl.char_function(rho[i])
        assert groups[i] == magic.mean_vector(alone)
        x_alone, shifted_alone = magic.make_zero_mean(alone)
        assert np.array_equal(x[i], x_alone)
        assert np.array_equal(shifted.values[i], shifted_alone.values)
