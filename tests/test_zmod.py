import numpy as np
import pytest
from hypothesis import given, strategies as st

from dvconv.errors import (
    NoSolution,
    UnsupportedDimension,
    UnsupportedScale,
    ZeroElement,
)
from dvconv.zmod import (
    MAX_DIM,
    check_system,
    find_amplifier_params,
    find_beam_splitter_params,
    is_prime,
    mod_inverse,
    rank_mod,
    solve_mod_linear,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23]

#: a prime far too large for trial division to finish
HUGE_PRIME = 10**30 + 57


def test_is_prime():
    assert [p for p in range(2, 25) if is_prime(p)] == SMALL_PRIMES
    assert not is_prime(1)
    assert not is_prime(0)


def test_check_system_accepts_exactly_the_primes():
    accepted = []
    for d in range(-3, 25):
        try:
            check_system(d, 1)
        except UnsupportedDimension as exc:
            assert f"d={d}" in str(exc)
        else:
            accepted.append(d)
    assert accepted == SMALL_PRIMES
    for n in (0, -1):
        with pytest.raises(UnsupportedDimension, match=f"n={n}"):
            check_system(3, n)
    for d, n in ((7, 3), (2, 8), (337, 1), (3, 5)):
        check_system(d, n)
    # refused before d^n is formed or d is tested for primality
    for d, n in ((2, 9), (347, 1), (3, 10**9), (HUGE_PRIME, 1)):
        with pytest.raises(UnsupportedScale, match=rf"d\^n = {d}\^{n} .* {MAX_DIM}"):
            check_system(d, n)


def test_mod_inverse_examples():
    assert mod_inverse(2, 7) == 4
    assert mod_inverse(2, 5) == 3
    for d in (3, 5, 7):
        assert mod_inverse(1, d) == 1
    with pytest.raises(ZeroElement):
        mod_inverse(0, 5)
    with pytest.raises(ZeroElement):
        mod_inverse(10, 5)


@given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(1, 12))
def test_mod_inverse_involution(d, a):
    a = a % d
    if a == 0:
        return
    inv = mod_inverse(a, d)
    assert (a * inv) % d == 1
    assert mod_inverse(inv, d) == a


def test_solve_identity():
    b = np.array([2, 0, 1])
    x = solve_mod_linear(np.eye(3, dtype=np.int64), b, 3)
    assert np.array_equal(x, b)


def test_solve_1x1():
    x = solve_mod_linear(np.array([[3]]), np.array([1]), 7)
    assert x[0] == 5


def test_solve_underdetermined():
    x = solve_mod_linear(np.array([[1, 1]]), np.array([1]), 3)
    assert (x[0] + x[1]) % 3 == 1


def test_solve_inconsistent():
    A = np.array([[1, 1], [2, 2]])
    with pytest.raises(NoSolution):
        solve_mod_linear(A, np.array([1, 1]), 3)


@given(st.sampled_from([3, 5, 7]), st.integers(0, 10**6))
def test_solve_random_systems(d, seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    A = rng.integers(0, d, size=(m, n))
    x_true = rng.integers(0, d, size=n)
    b = (A @ x_true) % d
    x = solve_mod_linear(A, b, d)
    assert np.array_equal((A @ x) % d, b)


def test_beam_splitter_examples():
    assert find_beam_splitter_params(7) == (2, 2)
    for d in (3, 5):
        with pytest.raises(NoSolution):
            find_beam_splitter_params(d)


def test_beam_splitter_all_primes_to_97():
    primes = [d for d in range(7, 98) if is_prime(d)]
    for d in primes:
        s, t = find_beam_splitter_params(d)
        assert s != 0 and t != 0
        assert (s * s + t * t) % d == 1


def test_amplifier_examples():
    assert find_amplifier_params(7) == (3, 1)
    with pytest.raises(NoSolution):
        find_amplifier_params(5)
    l, m = find_amplifier_params(11)
    assert (l * l - m * m) % 11 == 1


@pytest.mark.parametrize("search, sign, message", [
    (find_beam_splitter_params, 1,
     "no beam-splitter parameters at d={d}: no nonzero (s, t) with s^2+t^2=1 mod {d}"),
    (find_amplifier_params, -1,
     "no amplifier parameters at d={d}: no nonzero (l, m) with l^2-m^2=1 mod {d}"),
], ids=["beam-splitter", "amplifier"])
def test_parameter_search_is_the_smallest_nonzero_pair(search, sign, message):
    for d in filter(is_prime, range(3, 98)):
        pairs = [(a, b) for a in range(1, d) for b in range(1, d)
                 if (a * a + sign * b * b) % d == 1]
        if pairs:
            assert search(d) == min(pairs)
        else:
            with pytest.raises(NoSolution) as exc:
                search(d)
            assert str(exc.value) == message.format(d=d)


def test_rank_mod():
    assert rank_mod(np.array([[1, 2], [2, 4]]), 5) == 1
    assert rank_mod(np.array([[1, 0], [0, 1]]), 3) == 2
