"""Weyl operators and their phase convention, the characteristic-function
transform and its inverse, Pauli rank, and displacement of tables.

Phase-space points of an n-qudit system are length-2n integer vectors
(p_1..p_n, q_1..q_n) with canonical residues in [0, d-1].  Characteristic
tables are dense over all d^{2n} points in row-major (p, q) order.

The transform and its inverse run qudit by qudit: a gather of the D^2
entries that Weyl operators touch, one d x d DFT per qudit and one phase
multiply, in O(n d D^2) time and O(D^2) memory (D = d^n).  weyl_basis, the
d^{2n} x D x D operators as one broadcast of single_weyl_table, is only the
dense oracle.  One phase rule: every root of unity is xi(d, k), k reduced mod d
first, and every d x d DFT is dft(d), here and in states, magic and entropy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .zmod import check_system, mod_inverse

#: |Xi| and eigenvalues at most this count as exact zeros for rank and support work
SUPPORT_TOL = 1e-10


def xi(d: int, k=1):
    """xi^k, xi = e^{2 pi i/d}, of an integer or integer array k: the one root of
    unity rule.  k is reduced mod d first, so the angle keeps its accuracy."""
    return np.exp(2j * np.pi * (k % d) / d)


@lru_cache(maxsize=None)
def dft(d: int) -> np.ndarray:
    """F[j, k] = xi^{jk}, the read-only d x d DFT matrix without its 1/sqrt(d)."""
    r = np.arange(d)
    F = xi(d, np.outer(r, r))
    F.flags.writeable = False
    return F


def _weyl_phase(d: int, pq) -> np.ndarray:
    """The Weyl phase phi of w(p, q) = phi Z^p X^q, from pq = p . q.

    phi = (-i)^{pq mod 4} at d = 2 and xi^{-2^{-1} pq} otherwise.
    """
    pq = np.asarray(pq, dtype=np.int64)
    if d == 2:
        return np.array([1, -1j, -1, 1j])[pq % 4]
    return xi(d, -mod_inverse(2, d) * (pq % d))


def product_phase(d: int, x, y) -> np.ndarray:
    """beta(x, y) = phi(x) phi(y) xi^{-q_x.p_y} / phi(x + y), over the rows of x
    and y, with w(x) w(y) = beta(x, y) w(x + y) as X^q Z^p = xi^{-q.p} Z^p X^q.
    phi is a character of p.q and xi^{-c} is phi at 2c: beta is one phi."""
    x, y = np.asarray(x, dtype=np.int64) % d, np.asarray(y, dtype=np.int64) % d
    (px, qx), (py, qy), (ps, qs) = (np.split(v, 2, axis=-1) for v in (x, y, (x + y) % d))
    return _weyl_phase(d, np.sum(px * qx + py * qy - ps * qs + 2 * py * qx, axis=-1))


@lru_cache(maxsize=None)
def single_weyl_table(d: int) -> np.ndarray:
    """All d^2 single-qudit Weyl operators w(p, q) = phi Z^p X^q, read-only
    and indexed by p*d + q: Z^p|k> = xi^{pk}|k> and X^q|k> = |k+q>."""
    k, eye = np.arange(d), np.eye(d, dtype=complex)
    out = np.empty((d * d, d, d), dtype=complex)
    for p in range(d):
        Zp = np.diag(xi(d, p * k))
        for q in range(d):
            out[p * d + q] = _weyl_phase(d, p * q) * (Zp @ np.roll(eye, q, axis=0))
    out.flags.writeable = False
    return out


def weyl_op(d: int, n: int, p, q) -> np.ndarray:
    """w(p, q) = w(p_1, q_1) (x) ... (x) w(p_n, q_n)."""
    p, q = (np.asarray(v, dtype=np.int64).reshape(n) % d for v in (p, q))
    return reduce(np.kron, single_weyl_table(d)[p * d + q])


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
    """Stacked w(x) for all phase points x, aligned with phase_points: the
    transform's dense oracle, d^{2n} x D x D values, so tests use it at small D
    only and no transform calls it.  One broadcast product of single_weyl_table
    per further qudit, in kron order: the bits of a stack of weyl_op products."""
    t = out = single_weyl_table(d).reshape(d, d, d, d)
    for _ in range(1, n):
        # (P, Q, R, C) times (p, q, r, c) laid out as (P, p, Q, q, R, r, C, c)
        out = out[:, None, :, None, :, None, :, None] * t[:, None, :, None, :, None, :]
        out = out.reshape([size * d for size in out.shape[::2]])
    out = out.reshape(d ** (2 * n), d**n, d**n)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=16)
def _transform_tables(d: int, n: int) -> tuple[np.ndarray, ...]:
    """(index, unindex, phases, F) of the per-qudit transform of an (d, n) system.

    w(p, q) = phi Z^p X^q has the entry phi xi^{p.(c+q)} = conj(phi) xi^{p.c}
    (as phi^2 = xi^{-p.q}) at (c + q, c) for every basis digit vector c, and
    no other.  index[c*D + q] is the flat position of (c + q, c) in a D x D
    matrix, a permutation of the D^2 positions whose inverse is unindex,
    phases[x] = phi(x) over the phase points, and F = dft(d).
    """
    D = d**n
    pts = phase_points(d, n)
    c, q = pts[:, :n], pts[:, n:]
    index = point_index(c + q, d) * D + point_index(c, d)
    unindex = np.argsort(index)
    phases = _weyl_phase(d, np.einsum("ij,ij->i", c, q))
    for table in (index, unindex, phases):
        table.flags.writeable = False
    return index, unindex, phases, dft(d)


def _per_digit(F: np.ndarray, T: np.ndarray, d: int, n: int) -> np.ndarray:
    """Apply the d x d matrix F along each of the n base-d digits of T's rows.

    The last axis of T holds d^n rows; row digit k is the middle axis of a
    (..., d^k, d, rest) view, and leading axes are a stack of such tables.
    """
    shape = T.shape
    for k in range(n):
        T = F @ T.reshape(*shape[:-1], d**k, d, shape[-1] // d ** (k + 1))
    return T.reshape(shape)


@dataclass(frozen=True)
class CharFunction:
    """Dense characteristic table over the phase space of an (d, n) system.

    ``values`` is one table of d^{2n} values or a (..., d^{2n}) stack of them.
    """

    d: int
    n: int
    values: np.ndarray

    def __post_init__(self):
        check_system(self.d, self.n)
        if self.values.shape[-1:] != (self.d ** (2 * self.n),):
            raise ValueError("characteristic table has wrong length")


def char_table(M: np.ndarray, d: int, n: int) -> np.ndarray:
    """Xi_M(x) = Tr[M w(-x)] for every phase point x, of M or of each
    matrix of a (..., D, D) stack along the last axis of the result.

    Tr[M w(-p, -q)] = phi(p, q) sum_c xi^{-p.c} M[c + q, c]: one gather of
    the D^2 entries, one conjugate DFT per qudit and one phase multiply,
    O(n d D^2) time and O(D^2) memory per matrix.
    """
    D = d**n
    M = np.asarray(M)
    if M.shape[-2:] != (D, D):
        raise ValueError(f"M has shape {M.shape}, expected {(D, D)}")
    index, _, phases, F = _transform_tables(d, n)
    flat = M.reshape(M.shape[:-2] + (D * D,))
    return _per_digit(F.conj(), flat.take(index, axis=-1), d, n) * phases


def char_function(rho) -> CharFunction:
    """Characteristic function of a density matrix (or any (d, n, mat) holder),
    a stack of tables for a stack of states."""
    return CharFunction(rho.d, rho.n, char_table(rho.mat, rho.d, rho.n))


def inverse_char(table: CharFunction) -> np.ndarray:
    """(1/d^n) sum_x Xi(x) w(x); left inverse of char_function, (..., D, D)
    for a (..., d^{2n}) stack of tables.

    char_table's steps backwards: conjugate phases, one DFT per qudit, and
    a gather through the inverse of its index.  Each table takes the same
    matrix products as it would alone.
    """
    d, n, values = table.d, table.n, table.values
    _, unindex, phases, F = _transform_tables(d, n)
    D = d**n
    # np.multiply, not *: * reuses a large temporary of the result's shape
    # in place, with other rounding, so a lone table would lose a stack's bits
    T = _per_digit(F, np.multiply(values, phases.conj()), d, n) / D
    return T.take(unindex, axis=-1).reshape(values.shape[:-1] + (D, D))


def pauli_rank(table: CharFunction) -> int:
    """Size of the characteristic-function support."""
    return int(np.sum(np.abs(table.values) > SUPPORT_TOL))


def symplectic_form(x, y, d: int) -> np.ndarray:
    """p_x . q_y - q_x . p_y mod d of length-2n labels x and y, broadcast over
    their leading axes."""
    x, y = np.asarray(x), np.asarray(y)
    n = x.shape[-1] // 2
    return ((x[..., :n] * y[..., n:]).sum(axis=-1)
            - (x[..., n:] * y[..., :n]).sum(axis=-1)) % d


def displace(table: CharFunction, x) -> CharFunction:
    """The table of w(x) rho w(x)^dag: Xi(y) xi^{<x, y>} at every phase point y.

    x is one label or a (..., 2n) stack of them, one per table of a stack.
    Conjugation by w(x) multiplies w(-y) by xi^{<x, y>}, at d = 2 too, as
    the Weyl phases cancel.
    """
    d, n = table.d, table.n
    x = np.asarray(x)[..., None, :]
    return CharFunction(d, n, table.values * xi(d, symplectic_form(x, phase_points(d, n), d)))
