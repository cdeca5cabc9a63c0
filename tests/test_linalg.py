import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dvconv.errors import DimensionMismatch, NotHermitian
from dvconv.linalg import (
    HERM_TOL,
    check_hermitian,
    herm_eig,
    partial_trace_B,
)
from dvconv.states import random_density
from dvconv.weyl import char_function
from oracles import schatten2_norm


def _random_hermitian(seed, dim):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (A + A.conj().T) / 2


def test_herm_eig_identity():
    vals, vecs = herm_eig(np.eye(3, dtype=complex))
    assert np.allclose(vals, [1, 1, 1])
    assert np.allclose(vecs @ vecs.conj().T, np.eye(3))


def test_herm_eig_pauli_z():
    Z = np.diag([1.0, -1.0]).astype(complex)
    vals, _ = herm_eig(Z)
    assert np.allclose(vals, [1, -1])


def _off_hermitian(delta):
    """A 3 x 3 matrix whose one entry lacks its mirror by delta, and a stack
    of it behind a Hermitian member."""
    A = np.zeros((3, 3), dtype=complex)
    A[0, 1] = delta
    return A, np.stack([np.eye(3, dtype=complex), A])


@given(st.floats(0, 0.99 * HERM_TOL))
@settings(max_examples=30)
def test_check_hermitian_inside_herm_tol(delta):
    for A in _off_hermitian(delta):
        check_hermitian(A)


@given(st.floats(1.01 * HERM_TOL, 1.0))
@settings(max_examples=30)
def test_check_hermitian_outside_herm_tol(delta):
    for A in _off_hermitian(delta):
        with pytest.raises(NotHermitian):
            check_hermitian(A)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


@given(st.integers(0, 10**6))
@settings(max_examples=25)
def test_herm_eig_reconstruction(seed):
    A = _random_hermitian(seed, 5)
    vals, vecs = herm_eig(A)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.max(np.abs((vecs * vals) @ vecs.conj().T - A)) < 1e-10
    assert np.max(np.abs(vecs @ vecs.conj().T - np.eye(5))) < 1e-10


def test_partial_trace_of_product():
    A = _random_hermitian(5, 3)
    B = _random_hermitian(6, 2)
    out = partial_trace_B(np.kron(A, B), 3, 2)
    assert np.max(np.abs(out - np.trace(B) * A)) < 1e-12


def test_partial_trace_max_entangled():
    d = 3
    psi = np.zeros(d * d, dtype=complex)
    for j in range(d):
        psi[j * d + j] = 1 / np.sqrt(d)
    out = partial_trace_B(np.outer(psi, psi.conj()), d, d)
    assert np.max(np.abs(out - np.eye(d) / d)) < 1e-12


@given(st.integers(0, 10**6))
@settings(max_examples=20)
def test_partial_trace_preserves_state(seed):
    rho = random_density(seed, 3, 2)
    out = partial_trace_B(rho.mat, 3, 3)
    assert np.max(np.abs(out - out.conj().T)) < 1e-12
    assert abs(np.trace(out) - 1) < 1e-12
    assert np.linalg.eigvalsh(out)[0] > -1e-12


def test_partial_trace_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        partial_trace_B(np.eye(5, dtype=complex), 2, 2)


def test_norms():
    assert np.isclose(schatten2_norm(np.eye(7)), np.sqrt(7))
    rho = random_density(0, 3, 1)
    assert schatten2_norm(rho.mat - rho.mat) == 0.0


@given(st.integers(0, 10**6))
@settings(max_examples=15)
def test_parseval_bridge(seed):
    rho = random_density(seed, 3, 1)
    table = char_function(rho)
    lhs = schatten2_norm(rho.mat) ** 2
    rhs = np.sum(np.abs(table.values) ** 2) / 3
    assert abs(lhs - rhs) < 1e-9
