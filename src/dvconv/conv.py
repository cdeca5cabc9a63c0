"""The quantum convolution: key permutation, state convolution, duality,
beam-splitter/amplifier specializations, minimal-output-entropy partners,
and Holevo capacity bounds.

The matrix path gathers entries through the key permutation, one j at a
time: O(D^3) time, O(D^2) memory per state and no D^2 x D^2 operand; the
characteristic-side product is an independent cross-check.  ``key_unitary``
is the dense permutation, kept as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CovarianceViolation,
    DimensionMismatch,
    InvalidGroup,
    UnsupportedDimension,
)
from .entropy import renyi_spectra
from .magic import mean_state
from .states import DensityMatrix, StabilizerGroup, hermitian_part
from .weyl import CharFunction, char_function, displace, phase_points, point_index
from .weyl import weyl_op  # noqa: F401  not called; perfbench/test_tracer.py checks the name
from .zmod import GMatrix, check_system, find_amplifier_params, \
    find_beam_splitter_params, gmatrix_new, mod_inverse

COVARIANCE_TOL = 1e-9


def _require_odd_prime(d: int, n: int) -> None:
    """A supported system with d != 2: the convolution's domain."""
    check_system(d, n)
    if d == 2:
        raise UnsupportedDimension(
            "convolution needs an odd prime d; no positive invertible "
            "parameter matrix exists mod 2"
        )


@dataclass(frozen=True)
class ConvolutionSpec:
    """A (d, n) system together with a positive invertible parameter matrix."""

    d: int
    n: int
    G: GMatrix

    def __post_init__(self):
        _require_odd_prime(self.d, self.n)
        if self.G.d != self.d:
            raise DimensionMismatch("G modulus differs from spec d")


def default_spec(d: int, n: int) -> ConvolutionSpec:
    """The canonical positive invertible choice G = [1, 1; 1, d-1]."""
    _require_odd_prime(d, n)
    return ConvolutionSpec(d, n, gmatrix_new((1, 1, 1, d - 1), d))


def beam_splitter_spec(d: int, n: int) -> ConvolutionSpec:
    """G = [s, t; t, -s] with the smallest s^2 + t^2 = 1 mod d pair."""
    s, t = find_beam_splitter_params(d)
    return ConvolutionSpec(d, n, gmatrix_new((s, t, t, -s), d))


def amplifier_spec(d: int, n: int) -> ConvolutionSpec:
    """G = [l, -m; -m, l] with the smallest l^2 - m^2 = 1 mod d pair."""
    l, m = find_amplifier_params(d)
    return ConvolutionSpec(d, n, gmatrix_new((l, -m, -m, l), d))


@lru_cache(maxsize=None)
def _key_sources(spec: ConvolutionSpec) -> tuple[np.ndarray, np.ndarray]:
    """D x D arrays (a, b): the key unitary sends |a[i, j], b[i, j]> to |i, j>.

    U applies (G^-1)^T to (i, j) on each wire, so (a, b) is G^T (i, j) there.
    """
    d, n, g = spec.d, spec.n, spec.G
    D = d**n
    # row i*D + j of the phase points holds the digits of i, then those of j
    digits = phase_points(d, n)
    i_dig, j_dig = digits[:, :n], digits[:, n:]
    a = point_index(g.g00 * i_dig + g.g10 * j_dig, d).reshape(D, D)
    b = point_index(g.g01 * i_dig + g.g11 * j_dig, d).reshape(D, D)
    a.flags.writeable = b.flags.writeable = False
    return a, b


def key_unitary(spec: ConvolutionSpec) -> np.ndarray:
    """Permutation on the 2n-qudit basis: |i, j> -> |(G^-1)^T (i, j)> per wire."""
    a, b = _key_sources(spec)
    U = np.zeros((a.size, a.size), dtype=complex)
    U[np.arange(a.size), (a * a.shape[0] + b).ravel()] = 1.0
    return U


def _check_pair(rho, sigma, spec: ConvolutionSpec) -> None:
    """Both operands (states or characteristic tables) live on spec's system."""
    if (rho.d, rho.n) != (spec.d, spec.n) or (sigma.d, sigma.n) != (spec.d, spec.n):
        raise DimensionMismatch("operands do not match the convolution spec")


def convolve(rho: DensityMatrix, sigma: DensityMatrix,
             spec: ConvolutionSpec) -> DensityMatrix:
    """rho boxtimes sigma = Tr_B[U (rho (x) sigma) U^dag]: entry (i, k) is
    sum_j rho[a(i, j), a(k, j)] sigma[b(i, j), b(k, j)], with (a, b) from
    _key_sources, summed in j order as the dense partial trace sums it.

    Stacks broadcast over their leading axes, member by member: each j
    takes one row and one column gather of each operand.
    """
    _check_pair(rho, sigma, spec)
    a, b = _key_sources(spec)
    r, s = rho.mat, sigma.mat
    out = np.zeros(np.broadcast_shapes(r.shape, s.shape), dtype=complex)
    for aj, bj in zip(a.T, b.T):
        out += r.take(aj, -2).take(aj, -1) * s.take(bj, -2).take(bj, -1)
    return DensityMatrix(spec.d, spec.n, hermitian_part(out))


@lru_cache(maxsize=None)
def _char_sources(spec: ConvolutionSpec) -> tuple[np.ndarray, np.ndarray]:
    """Phase-point indices (h00 p, g00 q) and (h10 p, g01 q) of every (p, q),
    with G^-1 = [h00, h01; h10, h11]."""
    d, n, g = spec.d, spec.n, spec.G
    h00, _, h10, _ = g.inverse_entries()
    pts = phase_points(d, n)
    p, q = pts[:, :n], pts[:, n:]
    a = point_index(np.concatenate([h00 * p, g.g00 * q], axis=1), d)
    b = point_index(np.concatenate([h10 * p, g.g01 * q], axis=1), d)
    a.flags.writeable = b.flags.writeable = False
    return a, b


def convolve_characteristic(t_rho: CharFunction, t_sigma: CharFunction,
                            spec: ConvolutionSpec) -> CharFunction:
    """Xi_out(p, q) = Xi_rho(h00 p, g00 q) Xi_sigma(h10 p, g01 q),
    with G^-1 = [h00, h01; h10, h11]; stacks of tables broadcast."""
    _check_pair(t_rho, t_sigma, spec)
    a, b = _char_sources(spec)
    return CharFunction(spec.d, spec.n,
                        t_rho.values.take(a, axis=-1) * t_sigma.values.take(b, axis=-1))


def partner_stabilizer_group(s2: StabilizerGroup,
                             spec: ConvolutionSpec) -> StabilizerGroup:
    """Labels (x, y) -> (-g10^-1 g11 x, g01^-1 g00 y), zero phases.

    This is the input group pairing that makes the convolution of the two
    pure stabilizer states pure again.
    """
    d, n, g = spec.d, spec.n, spec.G
    if s2.r != n:
        raise InvalidGroup("partner construction needs a maximal group (r = n)")
    cp = (-mod_inverse(g.g10, d) * g.g11) % d
    cq = (mod_inverse(g.g01, d) * g.g00) % d
    gens = np.array(s2.generators, dtype=np.int64)
    gens = np.hstack([cp * gens[:, :n], cq * gens[:, n:]]) % d
    return StabilizerGroup(d, n, tuple(map(tuple, gens.tolist())), (0,) * n)


def holevo_bounds(spec: ConvolutionSpec, sigma: DensityMatrix
                  ) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(n log2 d - H(M(sigma)), n log2 d - H(sigma)) sandwiching the capacity
    of the channel rho -> rho boxtimes sigma, each of sigma's stack shape."""
    _check_pair(sigma, sigma, spec)
    cap = spec.n * np.log2(spec.d)
    lower = cap - renyi_spectra(mean_state(char_function(sigma)).eigenvalues(), 1)
    upper = cap - renyi_spectra(sigma.eigenvalues(), 1)
    return lower, upper


def holevo_weyl_ensemble(spec: ConvolutionSpec, sigma: DensityMatrix,
                         rho0: DensityMatrix) -> float | np.ndarray:
    """Holevo quantity of the uniform Weyl orbit of rho0 through
    rho -> rho boxtimes sigma: a certified lower bound on the capacity.

    Covariance, displacing the input by w(p, q) displaces the output by
    w(g00 p, h00 q) with h00 = (G^-1)_00, is a group property, so it is
    checked at the 2n unit labels only, on characteristic tables against
    out = rho0 boxtimes sigma, the one matrix-side convolution.  No average
    check: G is positive (``gmatrix_new``), so g00 and h00 are nonzero and
    x -> (g00 x_p, h00 x_q) is a bijection of phase space.  Every orbit
    output is then unitarily equivalent to out and the orbit average is the
    full Weyl twirl, I/d^n for every state.  Returns n log2 d - H(out), of
    the shape that stacks broadcast to as in ``convolve``, checked as a whole.
    """
    _check_pair(rho0, sigma, spec)
    d, n, g = spec.d, spec.n, spec.G
    h00 = g.inverse_entries()[0]
    out = convolve(rho0, sigma, spec)
    t_rho0, t_sigma, t_out = (char_function(s) for s in (rho0, sigma, out))
    for k, label in enumerate(np.eye(2 * n, dtype=np.int64)):
        lhs = convolve_characteristic(displace(t_rho0, label), t_sigma, spec)
        rhs = displace(t_out, np.concatenate([g.g00 * label[:n], h00 * label[n:]]))
        dev = np.max(np.abs(lhs.values - rhs.values), initial=0.0)
        if dev > COVARIANCE_TOL:
            raise CovarianceViolation(
                f"unit label {k}: displaced output table deviates from "
                f"that of w(g00 p, h00 q) out w^dag by {dev:.3e}")
    return n * np.log2(d) - renyi_spectra(out.eigenvalues(), 1)
