import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dvconv.errors import UnsupportedDimension
from dvconv.states import maximally_mixed, ket_state, random_density, t_state
from dvconv.weyl import (
    CharFunction,
    char_function,
    char_table,
    displace,
    inverse_char,
    neg_perm,
    pauli_rank,
    phase_points,
    point_index,
    product_phase,
    symplectic_form,
    weyl_basis,
    weyl_op,
    xi,
)
from oracles import is_clifford

#: shapes small enough for the dense d^{2n} x D x D oracle; d = 2 has its own phase rule
ORACLE_SHAPES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 2), (3, 3), (7, 2)]
#: shapes at the edge of d^n <= 343, where the dense oracle cannot be allocated
LARGE_SHAPES = [(5, 3), (7, 3), (3, 5), (2, 8), (17, 2), (337, 1)]

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_weyl_identity():
    for d in (2, 3, 7):
        assert np.allclose(weyl_op(d, 1, [0], [0]), np.eye(d))


def test_weyl_qubit_paulis():
    assert np.allclose(weyl_op(2, 1, [0], [1]), X)
    assert np.allclose(weyl_op(2, 1, [1], [0]), Z)
    assert np.allclose(weyl_op(2, 1, [1], [1]), Y)


@given(st.sampled_from([2, 3, 7]), st.integers(0, 10**6))
@settings(max_examples=30)
def test_weyl_unitary(d, seed):
    rng = np.random.default_rng(seed)
    p, q = rng.integers(0, d, size=2)
    W = weyl_op(d, 1, [p], [q])
    assert np.max(np.abs(W @ W.conj().T - np.eye(d))) < 1e-12


def test_weyl_adjoint_is_negation():
    d = 3
    for p in range(d):
        for q in range(d):
            lhs = weyl_op(d, 1, [p], [q]).conj().T
            rhs = weyl_op(d, 1, [-p], [-q])
            assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("d, n", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 1), (7, 1)])
def test_product_phase_is_the_weyl_product(d, n):
    # w(x) w(y) = beta(x, y) w(x + y), for every x against a few y at once
    pts = phase_points(d, n)
    rng = np.random.default_rng(d + n)
    for y in pts[rng.choice(len(pts), size=4)]:
        beta = product_phase(d, pts, y)
        assert beta.shape == (len(pts),)
        for x, b in zip(pts, beta):
            lhs = weyl_op(d, n, x[:n], x[n:]) @ weyl_op(d, n, y[:n], y[n:])
            s = x + y
            assert np.max(np.abs(lhs - b * weyl_op(d, n, s[:n], s[n:]))) < 1e-12


def test_weyl_orthogonality_exhaustive():
    # d=3, n<=2: (1/d^n) Tr[w(x)^dag w(y)] = delta_{xy}
    for n in (1, 2):
        d, D = 3, 3**n
        pts = phase_points(d, n)
        ops = [weyl_op(d, n, x[:n], x[n:]) for x in pts]
        for i, A in enumerate(ops):
            for j, B in enumerate(ops):
                val = np.trace(A.conj().T @ B) / D
                expect = 1.0 if i == j else 0.0
                assert abs(val - expect) < 1e-12


def test_phase_points_row_major():
    pts = phase_points(3, 1)
    assert pts.shape == (9, 2)
    assert list(pts[0]) == [0, 0]
    assert list(pts[1]) == [0, 1]
    for i, label in enumerate(pts):
        assert point_index(label, 3) == i
    assert np.array_equal(point_index(phase_points(3, 2), 3), np.arange(81))


def test_char_function_rejects_n0():
    with pytest.raises(UnsupportedDimension, match="n=0"):
        CharFunction(3, 0, np.ones(1, dtype=complex))


def test_char_maximally_mixed():
    table = char_function(maximally_mixed(3, 1))
    assert abs(table.values[point_index((0, 0), 3)] - 1) < 1e-12
    assert np.sum(np.abs(table.values) > 1e-10) == 1


def test_char_zero_ket_d3():
    table = char_function(ket_state(3, 1, [0]))
    for p in range(3):
        for q in range(3):
            expected = 1.0 if q == 0 else 0.0
            assert abs(abs(table.values[point_index((p, q), 3)]) - expected) < 1e-12


def test_char_t_state():
    mags = sorted(np.abs(char_function(t_state()).values))
    assert np.allclose(mags, [0.0, 1 / np.sqrt(2), 1 / np.sqrt(2), 1.0])


@given(st.sampled_from([(2, 1), (3, 1), (3, 2), (7, 1)]), st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_char_invariants_and_roundtrip(cfg, seed):
    d, n = cfg
    rho = random_density(seed, d, n)
    table = char_function(rho)
    assert abs(table.values[0] - 1) < 1e-10
    assert np.max(np.abs(table.values)) <= 1 + 1e-10
    # Hermiticity: Xi(-x) = conj(Xi(x))
    pts = phase_points(d, n)
    for label in pts[:: max(1, len(pts) // 16)]:
        assert abs(table.values[point_index(-label, d)]
                   - np.conj(table.values[point_index(label, d)])) < 1e-10
    back = inverse_char(table)
    assert np.max(np.abs(back - rho.mat)) < 1e-10


def _complex_gaussian(rng, D):
    return rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_transform_matches_dense_oracle(seed):
    # non-Hermitian, non-unit-trace M: the transform is linear on all matrices
    rng = np.random.default_rng(seed)
    for d, n in ORACLE_SHAPES:
        D = d**n
        W = weyl_basis(d, n)
        M = _complex_gaussian(rng, D)
        expected = np.einsum("xab,ba->x", W, M)[neg_perm(d, n)]
        assert np.max(np.abs(char_table(M, d, n) - expected)) < 1e-11
        values = _complex_gaussian(rng, D).reshape(-1)
        expected = np.einsum("x,xab->ab", values, W) / D
        assert np.max(np.abs(inverse_char(CharFunction(d, n, values)) - expected)) < 1e-11


# with (7, 1), every cell that the benchmark's gate and scale workloads warm up
@pytest.mark.parametrize("d, n", ORACLE_SHAPES + [(7, 1)])
def test_weyl_basis_is_the_stack_of_weyl_op_to_the_bit(d, n):
    """The broadcast basis equals one kron product per label, signed zeros too."""
    expected = np.stack([weyl_op(d, n, x[:n], x[n:]) for x in phase_points(d, n)])
    W = weyl_basis(d, n)
    assert (W.shape, W.dtype) == (expected.shape, expected.dtype)
    assert W.tobytes() == expected.tobytes()
    assert not W.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        W[0, 0, 0] = 0


def test_weyl_basis_allocates_little_beyond_its_output():
    """Building the (7, 2) basis holds no second copy of it: the benchmark's
    scale warm-up builds it, so a copy would show in its peak RSS."""
    weyl_basis.cache_clear()
    tracemalloc.start()
    try:
        W = weyl_basis(7, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= W.nbytes + 2**20


def test_char_table_rejects_a_matrix_of_another_size():
    for shape in ((4, 4), (9, 9), (3, 4)):
        with pytest.raises(ValueError, match="expected"):
            char_table(np.eye(*shape), 3, 1)


@pytest.mark.parametrize("d, n", LARGE_SHAPES)
def test_transform_round_trip_and_parseval_at_scale(d, n):
    rho = random_density(d * 100 + n, d, n)
    table = char_function(rho)
    # Parseval: sum_x |Xi(x)|^2 = D Tr[rho^2]
    purity = np.vdot(rho.mat, rho.mat).real
    assert abs(np.sum(np.abs(table.values) ** 2) / d**n - purity) < 1e-12
    assert np.max(np.abs(inverse_char(table) - rho.mat)) < 1e-12


@pytest.mark.parametrize("d, n", [(7, 3), (337, 1)])
def test_transform_memory_stays_quadratic(d, n):
    D = d**n
    M = _complex_gaussian(np.random.default_rng(0), D)
    table = CharFunction(d, n, char_table(M, d, n))  # fills the per-(d, n) tables
    inverse_char(table)
    tracemalloc.start()
    try:
        inverse_char(CharFunction(d, n, char_table(M, d, n)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one D^3 complex temporary alone would be 16 D^3 bytes, over 600 MB here
    assert peak < 64 * 2**20


@pytest.mark.parametrize("d, n", [(3, 1), (7, 1), (3, 2), (5, 2)])
def test_stacked_inverse_matches_each_table(d, n):
    D = d**n
    tables = np.stack([char_function(random_density(seed, d, n, 1 + seed % D)).values
                       for seed in range(6)])
    stacked = inverse_char(CharFunction(d, n, tables))
    assert stacked.shape == (6, D, D)
    for values, mat in zip(tables, stacked):
        assert np.max(np.abs(mat - inverse_char(CharFunction(d, n, values)))) <= 1e-15
    grid = inverse_char(CharFunction(d, n, tables.reshape(2, 3, -1)))
    assert np.max(np.abs(grid - stacked.reshape(2, 3, D, D))) <= 1e-15


@pytest.mark.parametrize("d, n", [(7, 3), (3, 5)])
def test_a_lone_table_inverts_to_the_bits_of_a_stack_of_one(d, n):
    # past 256 KB numpy may compute * in place in a temporary, with
    # other rounding; a lone table must keep the bits it has in a stack
    table = char_function(random_density(1, d, n, 1)).values
    alone = inverse_char(CharFunction(d, n, table))
    assert alone.tobytes() == inverse_char(CharFunction(d, n, table[None]))[0].tobytes()


def test_inverse_char_delta():
    values = np.zeros(9, dtype=complex)
    values[0] = 1.0
    out = inverse_char(CharFunction(3, 1, values))
    assert np.max(np.abs(out - np.eye(3) / 3)) < 1e-12


def test_pauli_rank():
    assert pauli_rank(char_function(maximally_mixed(3, 1))) == 1
    assert pauli_rank(char_function(ket_state(3, 1, [0]))) == 3
    assert pauli_rank(char_function(t_state())) == 3


def test_is_clifford_identity_and_fourier():
    for d in (2, 3):
        assert is_clifford(np.eye(d, dtype=complex), d, 1)
        j, k = np.indices((d, d))
        F = xi(d) ** (j * k) / np.sqrt(d)
        assert is_clifford(F, d, 1)


def test_is_clifford_rejects_generic_unitary():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    Q, _ = np.linalg.qr(A)
    assert not is_clifford(Q, 3, 1)


def test_is_clifford_requires_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        is_clifford(np.diag([1.0, 2.0]).astype(complex), 2, 1)


def test_clifford_permutes_char_magnitudes():
    from dvconv.magic import random_clifford

    rng = np.random.default_rng(5)
    rho = random_density(5, 3, 1)
    U = random_clifford(rng, 3, 1)
    from dvconv.states import DensityMatrix

    rotated = DensityMatrix(3, 1, U @ rho.mat @ U.conj().T)
    a = np.sort(np.abs(char_function(rho).values))
    b = np.sort(np.abs(char_function(rotated).values))
    assert np.max(np.abs(a - b)) < 1e-9


def test_symplectic_form():
    assert symplectic_form(np.array([1, 0]), np.array([0, 1]), 3) == 1
    assert symplectic_form(np.array([1, 0]), np.array([2, 0]), 3) == 0


@pytest.mark.parametrize("d, n", [(2, 1), (2, 2), (3, 2), (5, 1), (7, 2)])
def test_displace_matches_dense_conjugation(d, n):
    """The table of w(x) M w(x)^dag, built densely with weyl_op."""
    rng = np.random.default_rng(10 * d + n)
    for seed in range(5):
        M = random_density(seed, d, n).mat
        x = rng.integers(0, d, size=2 * n)
        W = weyl_op(d, n, x[:n], x[n:])
        dense = char_table(W @ M @ W.conj().T, d, n)
        got = displace(CharFunction(d, n, char_table(M, d, n)), x).values
        assert np.max(np.abs(got - dense)) <= 1e-14
