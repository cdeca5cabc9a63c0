"""Dense reference computations that the tests check the library against.

Each oracle takes the slow, literal route on purpose: it shares no fast
path with the code under test, so it is only usable at small D.
"""

import math

import numpy as np

from dvconv.conv import ConvolutionSpec, convolve
from dvconv.entropy import FULL_RANK_TOL, renyi_entropy
from dvconv.linalg import SUPPORT_TOL
from dvconv.magic import make_zero_mean, mean_state
from dvconv.states import DensityMatrix
from dvconv.weyl import char_function, phase_points, weyl_op


def schatten2_norm(A: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(A) ** 2)))


def weyl_orbit_holevo(spec: ConvolutionSpec, sigma: DensityMatrix,
                      rho0: DensityMatrix) -> tuple[float, float, float]:
    """The full-orbit Holevo sweep: (Holevo quantity, average deviation, spread).

    The Holevo quantity is H(avg) - mean H(outputs) over the uniform Weyl orbit
    of rho0; the average deviation is max |avg - I/d^n|; the spread is the
    largest difference between two orbit output entropies.
    """
    d, n = spec.d, spec.n
    outputs = []
    for label in phase_points(d, n):
        W = weyl_op(d, n, label[:n], label[n:])
        displaced = DensityMatrix(d, n, W @ rho0.mat @ W.conj().T)
        outputs.append(convolve(displaced, sigma, spec))
    D = d**n
    avg = sum(out.mat for out in outputs) / len(outputs)
    entropies = np.array([renyi_entropy(out, 1) for out in outputs])
    holevo = renyi_entropy(DensityMatrix(d, n, (avg + avg.conj().T) / 2), 1) \
        - np.mean(entropies)
    dev = float(np.max(np.abs(avg - np.eye(D) / D)))
    return float(holevo), dev, float(np.ptp(entropies))


def dense_clt(rho: DensityMatrix, spec: ConvolutionSpec, n_max: int,
              alphas) -> tuple[list[float], list[dict]]:
    """The CLT iteration on dense matrices: rho_N = rho_{N-1} boxtimes rho_0
    by the matrix-side ``convolve``, from the zero-mean displacement rho_0
    of rho.  Returns ||rho_N - M||_2 and {alpha: H_alpha(rho_N)} for
    N = 0..n_max, with M the mean state of rho_0.
    """
    _, rho0 = make_zero_mean(rho)
    M = mean_state(char_function(rho0))
    norms, entropies = [], []
    cur = rho0
    for N in range(n_max + 1):
        if N > 0:
            cur = convolve(cur, rho0, spec)
        norms.append(schatten2_norm(cur.mat - M.mat))
        entropies.append({a: renyi_entropy(cur, a) for a in alphas})
    return norms, entropies


def scalar_renyi(lam: np.ndarray, alpha: float) -> float:
    """H_alpha in bits of one descending spectrum, one case at a time: the
    alpha rules written per state, with the eigenvalues each rule cuts
    removed rather than replaced."""
    if alpha == 1:
        pos = lam[lam > FULL_RANK_TOL]
        return float(-np.sum(pos * np.log2(pos)))
    if alpha == 0:
        return float(np.log2(np.sum(lam > SUPPORT_TOL)))
    if alpha == math.inf:
        return float(-np.log2(lam[0]))
    if alpha < 0:
        if lam[-1] <= FULL_RANK_TOL:
            return math.inf
        if alpha == -math.inf:
            return float(np.log2(lam[-1]))
        return float(-np.log2(np.sum(lam**alpha)) / (1 - alpha))
    pos = lam[lam > FULL_RANK_TOL] if alpha < 1 else lam
    return float(np.log2(np.sum(pos**alpha)) / (1 - alpha))
