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
from .linalg import SUPPORT_TOL, herm_eig
from .states import DensityMatrix

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


def _support_projector(sigma: DensityMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    vals, vecs = sigma.eigenvalues(), sigma.eigenvectors
    keep = vals > SUPPORT_TOL
    return vals[keep], vecs[:, keep], vecs[:, ~keep]


def _outside_support_weight(rho: DensityMatrix, kernel_vecs: np.ndarray) -> float:
    if kernel_vecs.shape[1] == 0:
        return 0.0
    return float(np.real(np.trace(kernel_vecs.conj().T @ rho.mat @ kernel_vecs)))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Umegaki D(rho||sigma) in bits; +inf off the support of sigma."""
    svals, svecs, skern = _support_projector(sigma)
    if _outside_support_weight(rho, skern) > SUPPORT_TOL:
        return INF
    rvals = rho.eigenvalues()
    rpos = rvals[rvals > FULL_RANK_TOL]
    s1 = float(np.sum(rpos * np.log2(rpos)))
    log_sigma = (svecs * np.log2(svals)) @ svecs.conj().T
    s2 = float(np.real(np.trace(rho.mat @ log_sigma)))
    return s1 - s2


def sandwiched_relative_entropy(rho: DensityMatrix, sigma: DensityMatrix,
                                alpha: float) -> float:
    """Sandwiched Renyi divergence D_alpha, alpha in [1/2, inf]."""
    if alpha == 1:
        return relative_entropy(rho, sigma)
    if not (0.5 <= alpha):
        raise ValueError("alpha must be in [1/2, inf]")
    svals, svecs, skern = _support_projector(sigma)
    if alpha > 1 and _outside_support_weight(rho, skern) > SUPPORT_TOL:
        return INF
    if alpha == INF:
        inv_sqrt = (svecs * svals**-0.5) @ svecs.conj().T
        mid = inv_sqrt @ rho.mat @ inv_sqrt
        vals, _ = herm_eig((mid + mid.conj().T) / 2)
        return float(np.log2(vals[0]))
    e = (1 - alpha) / (2 * alpha)
    sig_e = (svecs * svals**e) @ svecs.conj().T
    mid = sig_e @ rho.mat @ sig_e
    vals, _ = herm_eig((mid + mid.conj().T) / 2)
    vals = np.clip(vals, 0.0, None)
    return float(np.log2(np.sum(vals**alpha)) / (alpha - 1))


# ---------------------------------------------------------------------------
# Divergence-based quantum Fisher information
# ---------------------------------------------------------------------------


def _full_rank_eig(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    vals = rho.eigenvalues()
    if (vals[..., -1] <= FULL_RANK_TOL).any():
        raise RankDeficient("Fisher information needs a full-rank state")
    return vals, rho.eigenvectors


def fisher_information(rho: DensityMatrix, H: np.ndarray) -> float:
    """J(rho; H) = Tr rho [H, [H, log rho]], log base 2; needs full rank."""
    vals, vecs = _full_rank_eig(rho)
    L = (vecs * np.log2(vals)) @ vecs.conj().T
    comm = H @ (H @ L - L @ H) - (H @ L - L @ H) @ H
    return float(np.real(np.trace(rho.mat @ comm)))


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
    r = np.arange(d)
    fourier = np.exp(2j * np.pi * (np.outer(r, r) % d) / d) / np.sqrt(d)
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


def fisher_fd_oracle(rho: DensityMatrix, H: np.ndarray) -> float:
    """Finite-difference check: second derivative of D(rho || e^{i t H} rho e^{-i t H})."""
    def div(t: float) -> float:
        U = _expm_herm(1j * t * H)
        rotated = DensityMatrix(rho.d, rho.n, U @ rho.mat @ U.conj().T)
        return relative_entropy(rho, rotated)

    return (div(FD_STEP) + div(-FD_STEP)) / FD_STEP**2


def _expm_herm(A: np.ndarray) -> np.ndarray:
    """exp(A) for anti-Hermitian A = i t H via eigendecomposition of H."""
    vals, vecs = np.linalg.eigh(-1j * A)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T
