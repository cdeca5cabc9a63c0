"""The quantum convolution: key permutation, state convolution, duality,
beam-splitter/amplifier specializations, minimal-output-entropy partners,
and Holevo capacity bounds.

Every operation takes a ``ConvolutionSpec``, which validates its own
parameter matrix G: a positive invertible 2 x 2 matrix over Z_d, of which
none exists mod 2.  The matrix path gathers entries through the key
permutation, one j at a time: O(D^3) time, O(D^2) memory per state and no
D^2 x D^2 operand; the characteristic-side product is an independent
cross-check.  ``key_unitary`` is the dense permutation, kept as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CovarianceViolation,
    DimensionMismatch,
    InvalidGroup,
    NotInvertible,
    NotPositive,
    UnsupportedDimension,
)
from .entropy import renyi_spectra
from .states import DensityMatrix, StabilizerGroup, hermitian_part, unit_phases
from .weyl import CharFunction, char_function, displace, phase_points, point_index
from .weyl import weyl_op  # noqa: F401  not called; perfbench/test_tracer.py checks the name
from .zmod import check_system, find_amplifier_params, find_beam_splitter_params, \
    mod_inverse, rref_mod

COVARIANCE_TOL = 1e-9


@dataclass(frozen=True)
class ConvolutionSpec:
    """A (d, n) system with a positive invertible parameter matrix
    G = [g00, g01; g10, g11] over Z_d, held as the residues (g00, g01, g10, g11).

    Positive means no entry is 0 mod d.  G may be any four integers; they
    are reduced mod d, so equal specs hash equal.  d = 2 is refused before
    G is read: no positive invertible matrix exists mod 2.
    """

    d: int
    n: int
    G: tuple[int, int, int, int]

    @staticmethod
    def validate_system(d: int, n: int) -> None:
        """zmod.check_system, then d = 2 refused: run before any search for G."""
        check_system(d, n)
        if d == 2:
            raise UnsupportedDimension("convolution needs an odd prime d; no positive "
                                       "invertible parameter matrix exists mod 2")

    def __post_init__(self):
        self.validate_system(self.d, self.n)
        d = self.d
        g00, g01, g10, g11 = G = tuple(int(g) % d for g in self.G)
        object.__setattr__(self, "G", G)
        if 0 in G:
            raise NotPositive(f"G has a zero entry mod {d}")
        if (g00 * g11 - g01 * g10) % d == 0:
            raise NotInvertible(f"det G = 0 mod {d}")

    def inverse(self) -> tuple[int, int, int, int]:
        """G^{-1} = (det G)^{-1} [g11, -g01; -g10, g00] mod d."""
        d, (g00, g01, g10, g11) = self.d, self.G
        N = mod_inverse(g00 * g11 - g01 * g10, d)
        return (N * g11 % d, -N * g01 % d, -N * g10 % d, N * g00 % d)


def default_spec(d: int, n: int) -> ConvolutionSpec:
    """The canonical positive invertible choice G = [1, 1; 1, d-1]."""
    return ConvolutionSpec(d, n, (1, 1, 1, d - 1))


def beam_splitter_spec(d: int, n: int) -> ConvolutionSpec:
    """G = [s, t; t, -s] with the smallest s^2 + t^2 = 1 mod d pair."""
    ConvolutionSpec.validate_system(d, n)
    s, t = find_beam_splitter_params(d)
    return ConvolutionSpec(d, n, (s, t, t, -s))


def amplifier_spec(d: int, n: int) -> ConvolutionSpec:
    """G = [l, -m; -m, l] with the smallest l^2 - m^2 = 1 mod d pair."""
    ConvolutionSpec.validate_system(d, n)
    l, m = find_amplifier_params(d)
    return ConvolutionSpec(d, n, (l, -m, -m, l))


@lru_cache(maxsize=None)
def _key_sources(spec: ConvolutionSpec) -> tuple[np.ndarray, np.ndarray]:
    """D x D arrays (a, b): the key unitary sends |a[i, j], b[i, j]> to |i, j>.

    U applies (G^-1)^T to (i, j) on each wire, so (a, b) is G^T (i, j) there.
    """
    d, n, (g00, g01, g10, g11) = spec.d, spec.n, spec.G
    D = d**n
    # row i*D + j of the phase points holds the digits of i, then those of j
    digits = phase_points(d, n)
    i_dig, j_dig = digits[:, :n], digits[:, n:]
    a = point_index(g00 * i_dig + g10 * j_dig, d).reshape(D, D)
    b = point_index(g01 * i_dig + g11 * j_dig, d).reshape(D, D)
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
    d, n, (g00, g01, _, _) = spec.d, spec.n, spec.G
    h00, _, h10, _ = spec.inverse()
    pts = phase_points(d, n)
    p, q = pts[:, :n], pts[:, n:]
    a = point_index(np.concatenate([h00 * p, g00 * q], axis=1), d)
    b = point_index(np.concatenate([h10 * p, g01 * q], axis=1), d)
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


def duality_deviation(rho: DensityMatrix, sigma: DensityMatrix, out: DensityMatrix,
                      spec: ConvolutionSpec) -> float | np.ndarray:
    """max |Xi_out - convolve_characteristic(Xi_rho, Xi_sigma)| over the
    table, per stack member, for out = rho boxtimes sigma: the one duality check."""
    t_out = char_function(out).values
    del out  # frees a caller's temporary output before the other tables are built
    dual = convolve_characteristic(char_function(rho), char_function(sigma), spec)
    return np.abs(t_out - dual.values).max(axis=-1)


def partner_stabilizer_group(s2: StabilizerGroup,
                             spec: ConvolutionSpec) -> StabilizerGroup:
    """Labels (x, y) -> (-g10^-1 g11 x, g01^-1 g00 y), zero phases: the input
    group pairing that makes the convolution of two pure stabilizer states
    pure.  Generators come back in rref_mod form, as enumerate_groups holds
    them; they commute, so row operations keep every phase 0."""
    d, n, (g00, g01, g10, g11) = spec.d, spec.n, spec.G
    if s2.r != n:
        raise InvalidGroup("partner construction needs a maximal group (r = n)")
    cp = (-mod_inverse(g10, d) * g11) % d
    cq = (mod_inverse(g01, d) * g00) % d
    gens = np.array(s2.generators, dtype=np.int64)
    gens = rref_mod(np.hstack([cp * gens[:, :n], cq * gens[:, n:]]), d)[0]
    return StabilizerGroup(d, n, tuple(map(tuple, gens.tolist())), (0,) * n)


def holevo_bounds(spec: ConvolutionSpec, sigma: DensityMatrix
                  ) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(n log2 d - H(M(sigma)), n log2 d - H(sigma)) sandwiching the capacity
    of the channel rho -> rho boxtimes sigma, each of sigma's stack shape.
    M(sigma) is the MSPS on the unit points S of sigma's table, flat on
    d^n / |S| levels, so the lower bound is log2 |S|: a count, no state."""
    _check_pair(sigma, sigma, spec)
    unit = np.count_nonzero(unit_phases(char_function(sigma).values), axis=-1)
    upper = spec.n * np.log2(spec.d) - renyi_spectra(sigma.eigenvalues(), 1)
    return np.log2(unit), upper


def holevo_weyl_ensemble(spec: ConvolutionSpec, sigma: DensityMatrix,
                         rho0: DensityMatrix) -> float | np.ndarray:
    """Holevo quantity of the uniform Weyl orbit of rho0 through
    rho -> rho boxtimes sigma: a certified lower bound on the capacity.

    Covariance, displacing the input by w(p, q) displaces the output by
    w(g00 p, h00 q) with h00 = (G^-1)_00, is a group property, so it is
    checked at the 2n unit labels only, on characteristic tables against
    out = rho0 boxtimes sigma, the one matrix-side convolution.  No average
    check: ``ConvolutionSpec`` refuses a G with a zero entry, so g00 and
    h00 = g11 / det G are nonzero and x -> (g00 x_p, h00 x_q) is a
    bijection of phase space.  Every orbit output is then unitarily
    equivalent to out and the orbit average is the full Weyl twirl, I/d^n
    for every state.  Returns n log2 d - H(out), of the shape that stacks
    broadcast to as in ``convolve``, checked as a whole.
    """
    d, n, g00 = spec.d, spec.n, spec.G[0]
    h00 = spec.inverse()[0]
    out = convolve(rho0, sigma, spec)
    t_rho0, t_sigma, t_out = (char_function(s) for s in (rho0, sigma, out))
    for k, label in enumerate(np.eye(2 * n, dtype=np.int64)):
        lhs = convolve_characteristic(displace(t_rho0, label), t_sigma, spec)
        rhs = displace(t_out, np.concatenate([g00 * label[:n], h00 * label[n:]]))
        dev = np.max(np.abs(lhs.values - rhs.values), initial=0.0)
        if dev > COVARIANCE_TOL:
            raise CovarianceViolation(
                f"unit label {k}: displaced output table deviates from "
                f"that of w(g00 p, h00 q) out w^dag by {dev:.3e}")
    return n * np.log2(d) - renyi_spectra(out.eigenvalues(), 1)
