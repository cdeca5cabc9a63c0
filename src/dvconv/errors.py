"""Exception hierarchy shared by all dvconv modules."""


class DvconvError(Exception):
    """Base class for all dvconv errors."""


class ZeroElement(DvconvError):
    """Requested the inverse of 0 in Z_d."""


class NoSolution(DvconvError):
    """A modular linear system or parameter search has no solution."""


class NotInvertible(DvconvError):
    """Parameter matrix is singular mod d."""


class NotPositive(DvconvError):
    """Parameter matrix has a zero entry mod d."""


class NotHermitian(DvconvError):
    """Operator deviates from Hermiticity beyond tolerance."""


class DimensionMismatch(DvconvError):
    """Operator dimensions are inconsistent."""


class UnsupportedScale(DvconvError):
    """Request beyond desk scale: a system with d^n > zmod.MAX_DIM, or an
    enumeration at n != 1 or above states.ENUMERATION_BUDGET values."""


class UnsupportedDimension(DvconvError):
    """System outside the supported set: d not prime or n < 1, or d = 2
    for convolution (no positive invertible parameter matrix exists mod 2)."""


class InvalidGroup(DvconvError):
    """Stabilizer generators do not commute or are dependent."""


class InvalidState(DvconvError):
    """Density-matrix invariants violated beyond tolerance."""


class PhaseNotRoot(DvconvError):
    """A unit-modulus characteristic value is not a d-th root of unity."""


class RankDeficient(DvconvError):
    """Operation requires a full-rank state."""


class CovarianceViolation(DvconvError):
    """The convolution channel failed its Weyl-covariance check on a generator."""


class ParseError(DvconvError):
    """Malformed CLI input or state file."""


class MalformedGroup(InvalidGroup, ParseError):
    """Generator and phase lists of the wrong count or label length: a
    malformed input, so a state file holding them is a usage error."""
