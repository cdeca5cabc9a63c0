"""Weyl operators, characteristic-function transform, Pauli rank,
and Clifford detection.

Phase-space points of an n-qudit system are length-2n integer vectors
(p_1..p_n, q_1..q_n) with canonical residues in [0, d-1].  Characteristic
tables are dense over all d^{2n} points in row-major (p, q) order.

The transform and its inverse run qudit by qudit: a gather of the D^2
entries that Weyl operators touch, one d x d DFT per qudit and one phase
multiply, in O(n d D^2) time and O(D^2) memory (D = d^n).  weyl_basis, the
stacked d^{2n} x D x D operators, is kept only as the dense oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotUnitary
from .linalg import SUPPORT_TOL
from .zmod import check_system, mod_inverse

UNITARY_TOL = 1e-10
CLIFFORD_TOL = 1e-9


def xi(d: int) -> complex:
    return np.exp(2j * np.pi / d)


@lru_cache(maxsize=None)
def _clock_shift(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(Z, X) for a single qudit: Z|k> = xi^k |k>, X|k> = |k+1>."""
    Z = np.diag(xi(d) ** np.arange(d))
    X = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    Z.flags.writeable = False
    X.flags.writeable = False
    return Z, X


def _weyl_phase(d: int, pq) -> np.ndarray:
    """The Weyl phase phi of w(p, q) = phi Z^p X^q, from pq = p . q.

    phi = (-i)^{pq mod 4} at d = 2 and xi^{-2^{-1} pq mod d} otherwise.
    The exponent is reduced first, so the angle stays below 2 pi and keeps
    its accuracy at large d.
    """
    pq = np.asarray(pq, dtype=np.int64)
    if d == 2:
        return np.array([1, -1j, -1, 1j])[pq % 4]
    return np.exp(2j * np.pi * ((-mod_inverse(2, d) * (pq % d)) % d) / d)


@lru_cache(maxsize=None)
def _single_weyl_table(d: int) -> np.ndarray:
    """All d^2 single-qudit Weyl operators, indexed by p*d + q."""
    Z, X = _clock_shift(d)
    out = np.empty((d * d, d, d), dtype=complex)
    for p in range(d):
        Zp = np.linalg.matrix_power(Z, p)
        for q in range(d):
            out[p * d + q] = _weyl_phase(d, p * q) * (Zp @ np.linalg.matrix_power(X, q))
    out.flags.writeable = False
    return out


def weyl_op(d: int, n: int, p, q) -> np.ndarray:
    """w(p, q) = w(p_1, q_1) (x) ... (x) w(p_n, q_n)."""
    p = np.asarray(p, dtype=np.int64).reshape(n) % d
    q = np.asarray(q, dtype=np.int64).reshape(n) % d
    table = _single_weyl_table(d)
    out = table[p[0] * d + q[0]]
    for k in range(1, n):
        out = np.kron(out, table[p[k] * d + q[k]])
    return out


@lru_cache(maxsize=None)
def phase_points(d: int, n: int) -> np.ndarray:
    """All d^{2n} labels as rows (p_1..p_n, q_1..q_n), row-major order."""
    grids = np.indices((d,) * (2 * n)).reshape(2 * n, -1).T
    pts = np.ascontiguousarray(grids.astype(np.int64))
    pts.flags.writeable = False
    return pts


def point_index(labels, d: int):
    """Row-major index of base-d digit vectors, vectorised over the last axis.

    The one base-d encoding: a length-2n label gives its phase-point index,
    a length-n digit vector its computational-basis index.
    """
    labels = np.asarray(labels, dtype=np.int64) % d
    return labels @ d ** np.arange(labels.shape[-1] - 1, -1, -1, dtype=np.int64)


@lru_cache(maxsize=None)
def neg_perm(d: int, n: int) -> np.ndarray:
    """Permutation sending index of x to index of -x mod d."""
    perm = point_index(-phase_points(d, n), d)
    perm.flags.writeable = False
    return perm


@lru_cache(maxsize=8)
def weyl_basis(d: int, n: int) -> np.ndarray:
    """Stacked w(x) for all phase points x, aligned with phase_points.

    The dense oracle of the transform: d^{2n} x D x D values, so tests use
    it at small D only and no transform calls it.
    """
    pts = phase_points(d, n)
    D = d**n
    out = np.empty((len(pts), D, D), dtype=complex)
    for i, label in enumerate(pts):
        out[i] = weyl_op(d, n, label[:n], label[n:])
    out.flags.writeable = False
    return out


@lru_cache(maxsize=16)
def _transform_tables(d: int, n: int) -> tuple[np.ndarray, ...]:
    """(index, unindex, phases, F) of the per-qudit transform of an (d, n) system.

    w(p, q) = phi Z^p X^q has the entry phi xi^{p.(c+q)} = conj(phi) xi^{p.c}
    (as phi^2 = xi^{-p.q}) at (c + q, c) for every basis digit vector c, and
    no other.  index[c*D + q] is the flat position of (c + q, c) in a D x D
    matrix, a permutation of the D^2 positions whose inverse is unindex,
    phases[x] = phi(x) over the phase points, and F[p, c] = xi^{pc mod d} is
    the d x d DFT matrix.
    """
    D = d**n
    pts = phase_points(d, n)
    c, q = pts[:, :n], pts[:, n:]
    index = point_index(c + q, d) * D + point_index(c, d)
    unindex = np.argsort(index)
    phases = _weyl_phase(d, np.einsum("ij,ij->i", c, q))
    r = np.arange(d)
    F = np.exp(2j * np.pi * (np.outer(r, r) % d) / d)
    for table in (index, unindex, phases, F):
        table.flags.writeable = False
    return index, unindex, phases, F


def _per_digit(F: np.ndarray, T: np.ndarray, d: int, n: int) -> np.ndarray:
    """Apply the d x d matrix F along each of the n base-d digits of T's rows.

    The last axis of T holds d^n rows; row digit k is the middle axis of a
    (..., d^k, d, rest) view, and leading axes are a stack of such tables.
    """
    shape = T.shape
    for k in range(n):
        T = F @ T.reshape(*shape[:-1], d**k, d, -1)
    return T.reshape(shape)


@dataclass(frozen=True)
class CharFunction:
    """Dense characteristic table over the phase space of an (d, n) system."""

    d: int
    n: int
    values: np.ndarray

    def __post_init__(self):
        check_system(self.d, self.n)
        if self.values.shape != (self.d ** (2 * self.n),):
            raise ValueError("characteristic table has wrong length")

    def at(self, label) -> complex:
        return complex(self.values[point_index(label, self.d)])


def char_table(M: np.ndarray, d: int, n: int) -> np.ndarray:
    """Xi_M(x) = Tr[M w(-x)] for every phase point x.

    Tr[M w(-p, -q)] = phi(p, q) sum_c xi^{-p.c} M[c + q, c]: one gather of
    the D^2 entries, one conjugate DFT per qudit and one phase multiply,
    O(n d D^2) time and O(D^2) memory.
    """
    D = d**n
    if np.shape(M) != (D, D):
        raise ValueError(f"M has shape {np.shape(M)}, expected {(D, D)}")
    index, _, phases, F = _transform_tables(d, n)
    return _per_digit(F.conj(), np.ravel(M)[index], d, n) * phases


def char_function(rho) -> CharFunction:
    """Characteristic function of a density matrix (or any (d, n, mat) holder)."""
    return CharFunction(rho.d, rho.n, char_table(rho.mat, rho.d, rho.n))


def inverse_char(table: CharFunction) -> np.ndarray:
    """(1/d^n) sum_x Xi(x) w(x); left inverse of char_function."""
    return inverse_tables(table.d, table.n, table.values)


def inverse_tables(d: int, n: int, values: np.ndarray) -> np.ndarray:
    """inverse_char of every table along the last axis: (..., d^{2n}) -> (..., D, D).

    char_table's steps backwards: conjugate phases, one DFT per qudit, and
    a gather through the inverse of its index.  Each table takes the same
    matrix products as it would alone.
    """
    _, unindex, phases, F = _transform_tables(d, n)
    D = d**n
    T = _per_digit(F, values * phases.conj(), d, n) / D
    return T.take(unindex, axis=-1).reshape(values.shape[:-1] + (D, D))


def pauli_rank(table: CharFunction) -> int:
    """Size of the characteristic-function support."""
    return int(np.sum(np.abs(table.values) > SUPPORT_TOL))


def is_clifford(U: np.ndarray, d: int, n: int) -> bool:
    """True iff U maps every Weyl generator to a phase times a Weyl operator.

    Checking the 2n generators suffices by the group structure.
    """
    D = d**n
    if U.shape != (D, D):
        raise ValueError(f"U has shape {U.shape}, expected {(D, D)}")
    if np.max(np.abs(U @ U.conj().T - np.eye(D))) > UNITARY_TOL:
        raise NotUnitary("U is not unitary within 1e-10")
    for k in range(n):
        e = np.zeros(n, dtype=np.int64)
        e[k] = 1
        zero = np.zeros(n, dtype=np.int64)
        for p, q in ((e, zero), (zero, e)):
            B = U @ weyl_op(d, n, p, q) @ U.conj().T
            coeffs = np.abs(char_table(B, d, n)) / D
            top = np.max(coeffs)
            rest = np.partition(coeffs, -2)[-2]
            if abs(top - 1.0) > CLIFFORD_TOL or rest > CLIFFORD_TOL:
                return False
    return True


def symplectic_form(x: np.ndarray, y: np.ndarray, d: int):
    """p_x . q_y - q_x . p_y mod d for a length-2n label x and a label y,
    vectorised over y's rows."""
    n = len(x) // 2
    return (y[..., n:] @ x[:n] - y[..., :n] @ x[n:]) % d


def displace(table: CharFunction, x) -> CharFunction:
    """The table of w(x) rho w(x)^dag: Xi(y) xi^{<x, y>} at every phase point y.

    Conjugation by w(x) multiplies w(-y) by xi^{<x, y>}, at d = 2 too, as
    the Weyl phases cancel.
    """
    d, n = table.d, table.n
    phases = np.exp(2j * np.pi * symplectic_form(np.asarray(x), phase_points(d, n), d) / d)
    return CharFunction(d, n, table.values * phases)
