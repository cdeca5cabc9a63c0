"""Dense Hermitian eigensolves on d^n-dimensional operators, and the
partial trace.

``check_hermitian`` is the one Hermitian check, and ``herm_eig`` runs it
before it solves.  The support cut SUPPORT_TOL lives in weyl, the lowest
module that reads it.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotHermitian

HERM_TOL = 1e-10


def check_hermitian(A: np.ndarray) -> None:
    """A, or every matrix of a (..., N, N) stack, within HERM_TOL of A^dag;
    an empty stack passes."""
    dev = np.max(np.abs(A - A.conj().swapaxes(-1, -2)), initial=0.0)
    if dev > HERM_TOL:
        raise NotHermitian(f"max |A - A^dag| = {dev:.3e} > {HERM_TOL:.0e}")


def herm_eig(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (real, descending) and unitary eigenvector columns, of A
    or of every matrix of a (..., N, N) stack."""
    check_hermitian(A)
    vals, vecs = np.linalg.eigh(A)
    return vals[..., ::-1].copy(), vecs[..., ::-1].copy()


def partial_trace_B(M: np.ndarray, dimA: int, dimB: int) -> np.ndarray:
    """Tr_B of an operator on H_A (x) H_B."""
    if M.shape != (dimA * dimB, dimA * dimB):
        raise DimensionMismatch(
            f"operator is {M.shape}, expected {(dimA * dimB, dimA * dimB)}"
        )
    return np.trace(M.reshape(dimA, dimB, dimA, dimB), axis1=1, axis2=3)

