"""Exact arithmetic over Z_d (d prime) and modular linear algebra.

All elements are canonical residues in [0, d-1]; every operation reduces
eagerly so outputs are bit-exact across platforms.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NoSolution, UnsupportedDimension, UnsupportedScale, ZeroElement


def is_prime(d: int) -> bool:
    """Deterministic trial division; d stays small throughout."""
    if d < 2:
        return False
    f = 2
    while f * f <= d:
        if d % f == 0:
            return False
        f += 1
    return True


#: Largest supported Hilbert-space dimension D = d^n ("desk scale").
MAX_DIM = 343


@lru_cache(maxsize=None)
def check_system(d: int, n: int) -> None:
    """The one definition of a supported system: d prime, n >= 1, d^n <= MAX_DIM.

    The Weyl phase uses 2^{-1} mod d, which is well defined only for
    prime d.  A d above MAX_DIM is refused before the primality test, and
    d^n is never formed for an n that must exceed it.  Cached, so repeated
    validation costs one lookup.
    """
    too_large = f"d^n = {d}^{n} exceeds the limit MAX_DIM = {MAX_DIM}"
    if d > MAX_DIM:
        raise UnsupportedScale(too_large)
    if not is_prime(d):
        raise UnsupportedDimension(f"local dimension d={d} is not prime")
    if n < 1:
        raise UnsupportedDimension(f"qudit count n={n} must be >= 1")
    # d >= 2 here, so every n >= MAX_DIM.bit_length() gives d^n > MAX_DIM
    if d ** min(n, MAX_DIM.bit_length()) > MAX_DIM:
        raise UnsupportedScale(too_large)


def mod_inverse(a: int, d: int) -> int:
    """Inverse of a in Z_d (d prime)."""
    a = a % d
    if a == 0:
        raise ZeroElement(f"0 has no inverse mod {d}")
    return pow(a, d - 2, d)


def rref_mod(A: np.ndarray, d: int) -> tuple[np.ndarray, list[int]]:
    """Row-reduced echelon form of A over the field Z_d.

    Returns the reduced matrix and the list of pivot columns.
    """
    R = np.array(A, dtype=np.int64) % d
    m, n = R.shape
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        sel = None
        for i in range(row, m):
            if R[i, col] % d != 0:
                sel = i
                break
        if sel is None:
            continue
        R[[row, sel]] = R[[sel, row]]
        R[row] = (R[row] * mod_inverse(int(R[row, col]), d)) % d
        for i in range(m):
            if i != row and R[i, col] % d != 0:
                R[i] = (R[i] - R[i, col] * R[row]) % d
        pivots.append(col)
        row += 1
    return R, pivots


def rank_mod(A: np.ndarray, d: int) -> int:
    _, pivots = rref_mod(A, d)
    return len(pivots)


def solve_mod_linear(A: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    """One solution x of A x = b over Z_d (free variables set to 0).

    Raises NoSolution when the system is inconsistent.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.int64)) % d
    b = np.asarray(b, dtype=np.int64).reshape(-1) % d
    m, n = A.shape
    if b.shape[0] != m:
        raise ValueError("A and b have inconsistent shapes")
    aug = np.concatenate([A, b.reshape(-1, 1)], axis=1)
    R, pivots = rref_mod(aug, d)
    if n in pivots:
        raise NoSolution("inconsistent modular linear system")
    x = np.zeros(n, dtype=np.int64)
    for i, col in enumerate(pivots):
        x[col] = R[i, n]
    return x


def _smallest_pair(d: int, sign: int, law: str, a: str, b: str) -> tuple[int, int]:
    """Lexicographically smallest (x, y), both nonzero, with x^2 + sign y^2 = 1
    mod d; NoSolution names the ``law`` and calls the pair (a, b)."""
    for x in range(1, d):
        for y in range(1, d):
            if (x * x + sign * y * y) % d == 1:
                return x, y
    raise NoSolution(f"no {law} parameters at d={d}: no nonzero ({a}, {b}) "
                     f"with {a}^2{'+' if sign > 0 else '-'}{b}^2=1 mod {d}")


def find_beam_splitter_params(d: int) -> tuple[int, int]:
    """Smallest (s, t) with s^2+t^2 = 1 mod d; NoSolution for d in {3, 5}."""
    return _smallest_pair(d, 1, "beam-splitter", "s", "t")


def find_amplifier_params(d: int) -> tuple[int, int]:
    """Smallest (l, m) with l^2-m^2 = 1 mod d."""
    return _smallest_pair(d, -1, "amplifier", "l", "m")
