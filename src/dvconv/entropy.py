"""Generalized Renyi entropies, sandwiched Renyi relative entropy, Umegaki
relative entropy, and divergence-based quantum Fisher information.

All entropies are in bits (log base 2); infinities are returned as values,
not raised.  The generalized entropy is sgn(alpha)/(1-alpha) log2 sum lam^alpha
with the alpha in {0, 1, +-inf} cases routed to their limits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RankDeficient
from .linalg import herm_eig  # noqa: F401  not called; perfbench/test_tracer.py checks the name
from .states import DensityMatrix, hermitian_part
from .weyl import SUPPORT_TOL, dft

#: below this minimum eigenvalue a state counts as rank deficient
FULL_RANK_TOL = 1e-12

INF = math.inf

#: rotation angle of the finite-difference Fisher oracle
FD_STEP = 1e-3


def renyi_entropy(rho: DensityMatrix, alpha: float) -> float:
    """Generalized Renyi entropy H_alpha in bits.

    alpha < 0 on a rank-deficient state returns +inf by convention.
    """
    return float(renyi_spectra(rho.eigenvalues(), alpha))


def renyi_spectra(lam: np.ndarray, alpha: float) -> np.ndarray:
    """H_alpha in bits of every spectrum along the last axis of ``lam``.

    Each spectrum is a state's: clipped at 0 and descending, as
    ``DensityMatrix.eigenvalues()`` gives it, for one state or a stack.  The
    rules apply to each spectrum on its own, and the eigenvalues a rule
    cuts are replaced before any log or power, so no zero meets a log or a
    negative power.
    """
    if alpha == 1:
        pos = np.where(lam > FULL_RANK_TOL, lam, 1.0)
        return -(pos * np.log2(pos)).sum(axis=-1)
    if alpha == 0:
        return np.log2((lam > SUPPORT_TOL).sum(axis=-1))
    if alpha == INF:
        return -np.log2(lam[..., 0])
    if alpha < 0:
        # +inf on a rank-deficient spectrum; the clip keeps its powers finite
        low = np.maximum(lam, FULL_RANK_TOL)
        if alpha == -INF:
            h = np.log2(low[..., -1])
        else:
            h = -np.log2((low**alpha).sum(axis=-1)) / (1 - alpha)
        return np.where(lam[..., -1] > FULL_RANK_TOL, h, INF)
    # below 1, lam**alpha lifts eigensolver noise; cut it as alpha = 1 does
    pos = np.where(lam > FULL_RANK_TOL, lam, 0.0) if alpha < 1 else lam
    return np.log2((pos**alpha).sum(axis=-1)) / (1 - alpha)


def _on_support(sigma: DensityMatrix, f) -> np.ndarray:
    """f(sigma) on sigma's support and 0 on its kernel, of each member: the
    kernel's eigenvalues are masked before f, so no log or power meets a 0."""
    vals, vecs = sigma.eigenvalues(), sigma.eigenvectors
    keep = vals > SUPPORT_TOL
    fvals = np.where(keep, f(np.where(keep, vals, 1.0)), 0.0)
    return (vecs * fvals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _off_support(rho: DensityMatrix, sigma: DensityMatrix) -> np.ndarray:
    """The one support rule, per broadcast pair: True where rho's weight on
    sigma's kernel, the sum over kernel eigenvectors v of v^dag rho v,
    exceeds SUPPORT_TOL."""
    vecs = sigma.eigenvectors
    kernel = sigma.eigenvalues() <= SUPPORT_TOL
    diag = (vecs.conj() * (rho.mat @ vecs)).sum(axis=-2).real
    return np.where(kernel, diag, 0.0).sum(axis=-1) > SUPPORT_TOL


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> np.ndarray:
    """Umegaki D(rho||sigma) in bits; +inf off the support of sigma.

    rho and sigma are states or stacks, broadcast over their leading axes
    as ``convolve`` broadcasts them; the result has the broadcast shape
    (an np.float64 for one pair).
    """
    s1 = -renyi_spectra(rho.eigenvalues(), 1)
    s2 = np.trace(rho.mat @ _on_support(sigma, np.log2), axis1=-2, axis2=-1).real
    return np.where(_off_support(rho, sigma), INF, s1 - s2)[()]


def sandwiched_relative_entropy(rho: DensityMatrix, sigma: DensityMatrix,
                                alpha: float) -> np.ndarray:
    """Sandwiched Renyi divergence D_alpha, alpha in [1/2, inf], of each
    broadcast pair, as ``relative_entropy`` takes them.

    Above alpha 1 it is +inf off the support of sigma; at any alpha it is
    +inf where the middle operator sigma^e rho sigma^e is 0.
    """
    if alpha == 1:
        return relative_entropy(rho, sigma)
    if not (0.5 <= alpha):
        raise ValueError("alpha must be in [1/2, inf]")
    # e -> -1/2 as alpha -> inf
    e = -0.5 if alpha == INF else (1 - alpha) / (2 * alpha)
    sig_e = _on_support(sigma, lambda v: v**e)
    mid = sig_e @ rho.mat @ sig_e
    vals = np.linalg.eigvalsh(hermitian_part(mid))[..., ::-1]  # descending
    if alpha == INF:
        q, scale = vals[..., 0], 1.0
    else:
        # below 1, the power lifts eigensolver noise on sigma's kernel; cut
        # it as renyi_spectra does
        cut = FULL_RANK_TOL if alpha < 1 else 0.0
        q, scale = (np.where(vals > cut, vals, 0.0) ** alpha).sum(axis=-1), alpha - 1
    off = q <= 0
    if alpha > 1:
        off |= _off_support(rho, sigma)
    return np.where(off, INF, np.log2(np.where(off, 1.0, q)) / scale)[()]


# ---------------------------------------------------------------------------
# Divergence-based quantum Fisher information
# ---------------------------------------------------------------------------


def _full_rank_eig(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    vals = rho.eigenvalues()
    if (vals[..., -1] <= FULL_RANK_TOL).any():
        raise RankDeficient("Fisher information needs a full-rank state")
    return vals, rho.eigenvectors


def fisher_information(rho: DensityMatrix, H: np.ndarray) -> np.ndarray:
    """J(rho; H) = Tr rho [H, [H, log rho]], log base 2; needs full rank.

    rho is a state or a stack and H a (..., D, D) Hermitian matrix or
    stack, broadcast over their leading axes; the result has the broadcast
    shape (an np.float64 for one pair).
    """
    vals, vecs = _full_rank_eig(rho)
    L = (vecs * np.log2(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    comm = H @ (H @ L - L @ H) - (H @ L - L @ H) @ H
    return np.trace(rho.mat @ comm, axis1=-2, axis2=-1).real[()]


def total_fisher(rho: DensityMatrix) -> float | np.ndarray:
    """Sum of J(rho; H) over every wire and every X/Z eigenprojector H, of
    rho or of each member of a stack (an array of the stack's shape).

    In rho's eigenbasis J(rho; H) = sum_ij |H_ij|^2 (lam_i - lam_j)
    (log2 lam_i - log2 lam_j), with H_ij the entries of V^dag H V.  One
    weight matrix K = sum_H |V^dag H V|^2 serves every H.  The Z
    projector |j><j| on wire k keeps the rows of V whose digit k is j, so
    V^dag H V = A_j^dag A_j for that digit slice A_j; the X projectors do
    the same after a DFT on the digit (their eigenvectors are its rows).
    The d projectors of a wire and basis are summed one digit value at a
    time, so no temporary holds more than one D x D matrix per member.
    """
    d, n = rho.d, rho.n
    D = d**n
    vals, vecs = _full_rank_eig(rho)
    lead = vals.shape[:-1]
    fourier = dft(d) / np.sqrt(d)
    weights = np.zeros(lead + (D, D))
    for k in range(n):
        z = vecs.reshape(lead + (d**k, d, d ** (n - k - 1) * D))
        for digits in (z, fourier @ z):
            slices = np.moveaxis(digits, -2, -3).reshape(lead + (d, D // d, D))
            basis = 0.0
            for j in range(d):
                A = slices[..., j, :, :]
                basis = basis + np.abs(A.conj().swapaxes(-1, -2) @ A) ** 2
            weights += basis
    logs = np.log2(vals)
    return (weights * (vals[..., :, None] - vals[..., None, :])
            * (logs[..., :, None] - logs[..., None, :])).sum(axis=(-2, -1))


def fisher_fd_oracle(rho: DensityMatrix, H: np.ndarray) -> np.ndarray:
    """Finite-difference check: second derivative of D(rho || e^{i t H} rho e^{-i t H}),
    of each pair broadcast as ``fisher_information`` takes them; each side's
    rotated states are validated as one stack."""
    def div(t: float) -> np.ndarray:
        U = _expm_herm(1j * t * H)
        rotated = DensityMatrix(rho.d, rho.n, U @ rho.mat @ U.conj().swapaxes(-1, -2))
        return relative_entropy(rho, rotated)

    return (div(FD_STEP) + div(-FD_STEP)) / FD_STEP**2


def _expm_herm(A: np.ndarray) -> np.ndarray:
    """exp(A) for anti-Hermitian A = i t H, or each of a stack, via
    eigendecomposition of H."""
    vals, vecs = np.linalg.eigh(-1j * A)
    return (vecs * np.exp(1j * vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
