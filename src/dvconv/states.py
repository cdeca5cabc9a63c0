"""Density matrices, stabilizer groups, MSPS construction and detection.

MSPS detection reads only a characteristic table (``is_msps`` takes a
``CharFunction``): the table of an MSPS is a character supported on a
symplectically-isotropic subgroup of the phase space, with unit modulus on
the support and zero elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidGroup, InvalidState, ParseError, UnsupportedScale
# not called here: perfbench/test_tracer.py checks that the tracer's wrapper reaches this name
from .linalg import herm_eig  # noqa: F401
from .weyl import (
    CharFunction,
    inverse_char,
    phase_points,
    point_index,
    symplectic_form,
    weyl_op,
    xi,
)
from .zmod import check_system, rank_mod, rref_mod

STATE_TOL = 1e-10
#: |Xi| within this of 1 counts as unit modulus
UNIT_TOL = 1e-9


def unit_phases(values: np.ndarray) -> np.ndarray:
    """Xi/|Xi| where |Xi| counts as 1, 0 elsewhere: the one unit-modulus rule."""
    mags = np.abs(values)
    unit = np.abs(mags - 1.0) <= UNIT_TOL
    return np.where(unit, values / np.where(unit, mags, 1.0), 0.0)


def validated_spectra(d: int, n: int, mats: np.ndarray) -> np.ndarray:
    """Spectra of a (..., D, D) stack of density matrices: the one state check.

    Every matrix must be finite, Hermitian, of unit trace and positive
    semidefinite, each within STATE_TOL, checked in that order over the
    whole stack.  The eigenvalues are those of the Hermitian part, clipped
    at 0, in descending order along the last axis.  Numbers in an error
    message are the stack's worst, which is the one bad member's own.
    """
    check_system(d, n)
    D = d**n
    if mats.shape[-2:] != (D, D):
        raise InvalidState(f"matrix is {mats.shape}, expected {(D, D)}")
    # checked first: a NaN fails no comparison, and inf - inf warns
    if not np.isfinite(mats).all():
        raise InvalidState("matrix has a non-finite entry")
    adj = mats.conj().swapaxes(-1, -2)
    herm_dev = abs(mats - adj).max()
    if herm_dev > STATE_TOL:
        raise InvalidState(f"Hermiticity deviation {herm_dev:.3e}")
    # builtin max and min over .flat: for one state, a numpy reduction of
    # one value costs more than the iteration
    tr_dev = max(abs(mats.trace(axis1=-2, axis2=-1) - 1.0).flat)
    if tr_dev > STATE_TOL:
        raise InvalidState(f"trace deviation {tr_dev:.3e}")
    lam = np.linalg.eigvalsh((mats + adj) / 2)  # ascending
    low = min(lam[..., 0].flat)
    if low < -STATE_TOL:
        raise InvalidState(f"negative eigenvalue {low:.3e}")
    return np.maximum(lam[..., ::-1], 0.0)


@dataclass(frozen=True)
class DensityMatrix:
    """Dense d^n x d^n state with validated invariants.

    Validation computes the spectrum and the state keeps it; the
    eigenvectors are solved on first use and kept too.  Every entropy reads
    these, so a state runs one eigvalsh and at most one eigh.
    """

    d: int
    n: int
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        # a private copy: freezing the caller's own array would lock it too
        m = np.array(self.mat, order="C")
        spectrum = validated_spectra(self.d, self.n, m)
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "_spectrum", _read_only(spectrum))

    def _hermitian_part(self) -> np.ndarray:
        return (self.mat + self.mat.conj().T) / 2

    def eigenvalues(self) -> np.ndarray:
        """The spectrum, clipped at 0, in descending order (read-only)."""
        return self._spectrum

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Unitary eigenvector columns aligned with ``eigenvalues()`` (read-only)."""
        _, vecs = np.linalg.eigh(self._hermitian_part())
        return _read_only(vecs[:, ::-1])


def _read_only(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def maximally_mixed(d: int, n: int) -> DensityMatrix:
    D = d**n
    return DensityMatrix(d, n, np.eye(D, dtype=complex) / D)


def ket_state(d: int, n: int, digits) -> DensityMatrix:
    """|digits><digits| in the computational basis."""
    psi = np.zeros(d**n, dtype=complex)
    psi[point_index(np.reshape(digits, n), d)] = 1.0
    return DensityMatrix(d, n, np.outer(psi, psi.conj()))


def t_state() -> DensityMatrix:
    """Qubit T state (I + (X+Y)/sqrt 2)/2."""
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    return DensityMatrix(2, 1, (np.eye(2) + (X + Y) / np.sqrt(2)) / 2)


def random_density(seed: int, d: int, n: int, rank: int | None = None) -> DensityMatrix:
    """Ginibre state: A A^dag / Tr with a d^n x rank complex-Gaussian factor."""
    D = d**n
    if rank is None:
        rank = D
    if not 1 <= rank <= D:
        raise ValueError(f"rank must be in [1, {D}]")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((D, rank)) + 1j * rng.standard_normal((D, rank))
    M = A @ A.conj().T
    return DensityMatrix(d, n, M / np.trace(M).real)


@dataclass(frozen=True)
class StabilizerGroup:
    """r <= n independent commuting Weyl labels plus phase exponents in Z_d^r.

    Each generator is a length-2n label (p | q); phases[i] = x_i satisfies
    Xi_rho(p_i, q_i) = xi^{x_i} for the MSPS built from the group.
    """

    d: int
    n: int
    generators: tuple[tuple[int, ...], ...]
    phases: tuple[int, ...]

    def __post_init__(self):
        if len(self.generators) != len(self.phases):
            raise InvalidGroup("generator/phase count mismatch")
        if len(self.generators) > self.n:
            raise InvalidGroup("more generators than qudits")
        gens = [np.asarray(g, dtype=np.int64) % self.d for g in self.generators]
        for g in gens:
            if g.shape != (2 * self.n,):
                raise InvalidGroup("generator label has wrong length")
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if symplectic_form(gens[i], gens[j], self.d) != 0:
                    raise InvalidGroup(f"generators {i}, {j} do not commute")
        if gens and rank_mod(np.stack(gens), self.d) != len(gens):
            raise InvalidGroup("generators are linearly dependent mod d")

    @property
    def r(self) -> int:
        return len(self.generators)


def msps_from_group(group: StabilizerGroup) -> DensityMatrix:
    """rho = (1/d^{n-r}) prod_i E_k [xi^{x_i} w(p_i, q_i)]^k."""
    d, n = group.d, group.n
    D = d**n
    P = np.eye(D, dtype=complex)
    w = xi(d)
    for label, x in zip(group.generators, group.phases):
        g = np.asarray(label, dtype=np.int64)
        W = weyl_op(d, n, g[:n], g[n:])
        avg = np.zeros((D, D), dtype=complex)
        term = np.eye(D, dtype=complex)
        for k in range(d):
            avg += (w**x) ** k * term
            term = term @ W
        P = P @ (avg / d)
    scale = d ** (n - group.r)
    tr = np.trace(P).real
    if abs(tr - scale) > 1e-8 * scale:
        raise InvalidGroup(f"projector trace {tr:.6f}, expected {scale}")
    return DensityMatrix(d, n, (P + P.conj().T) / (2 * scale))


def _recover_group(table: CharFunction, support_idx: np.ndarray) -> StabilizerGroup:
    """Canonical (row-echelon) generators and phases from a unit support."""
    d, n = table.d, table.n
    pts = phase_points(d, n)
    labels = pts[support_idx]
    R, pivots = rref_mod(labels, d) if len(labels) else (np.zeros((0, 2 * n)), [])
    gens = [tuple(int(v) for v in R[i]) for i in range(len(pivots))]
    phases = []
    for g in gens:
        val = table.values[point_index(g, d)]
        k = int(round(d * (np.angle(val) / (2 * np.pi)))) % d
        phases.append(k)
    return StabilizerGroup(d, n, tuple(gens), tuple(phases))


def is_msps(table: CharFunction) -> tuple[bool, StabilizerGroup | None]:
    """MSPS test on a table; returns the recovered group on success.

    Conditions: every |Xi| in {0, 1}; unit support closed under addition;
    the phases Xi/|Xi| on the support form a character; support labels
    commute symplectically.
    """
    d, n = table.d, table.n
    phases = unit_phases(table.values)
    unit = phases != 0
    if not np.all(unit | (np.abs(table.values) <= UNIT_TOL)):
        return False, None
    support_idx = np.flatnonzero(unit)
    labels = phase_points(d, n)[support_idx]
    vals = phases[support_idx]
    sums = point_index(labels[:, None, :] + labels[None, :, :], d)
    if not np.all(unit[sums]):
        return False, None
    if np.any(np.abs(phases[sums] - np.outer(vals, vals)) > UNIT_TOL):
        return False, None
    p, q = labels[:, :n], labels[:, n:]
    if np.any((p @ q.T - q @ p.T) % d):
        return False, None
    group = _recover_group(table, support_idx)
    if d**group.r != len(support_idx):
        return False, None
    return True, group


def enumerate_msps(d: int, n: int = 1) -> list[DensityMatrix]:
    """All d^2 + d + 1 MSPS of a single qudit, d in {2, 3}."""
    if n != 1 or d not in (2, 3):
        raise UnsupportedScale("enumeration supported only at n=1, d in {2, 3}")
    return enumerate_pure_stabilizers(d, n) + [maximally_mixed(d, n)]


def enumerate_pure_stabilizers(d: int, n: int = 1) -> list[DensityMatrix]:
    """The d(d+1) single-qudit pure stabilizer states, d in {2, 3, 7}."""
    if n != 1 or d not in (2, 3, 7):
        raise UnsupportedScale("enumeration supported only at n=1, d in {2, 3, 7}")
    out = []
    for label in line_generators(d):
        for x in range(d):
            group = StabilizerGroup(d, 1, (label,), (x,))
            out.append(msps_from_group(group))
    return out


def line_generators(d: int) -> list[tuple[int, int]]:
    """Canonical generator of each of the d+1 lines through the origin."""
    return [(1, b) for b in range(d)] + [(0, 1)]


# ---------------------------------------------------------------------------
# JSON state schema (shared with the CLI)
# ---------------------------------------------------------------------------

PRESETS = ("maximally-mixed", "zero-ket", "t-state")


def state_to_json(rho: DensityMatrix) -> dict:
    return {
        "d": rho.d,
        "n": rho.n,
        "kind": "dense",
        "re": [[float(v) for v in row] for row in rho.mat.real],
        "im": [[float(v) for v in row] for row in rho.mat.imag],
    }


def char_to_json(table: CharFunction) -> dict:
    return {
        "d": table.d,
        "n": table.n,
        "kind": "char",
        "re": [float(v) for v in table.values.real],
        "im": [float(v) for v in table.values.imag],
    }


def load_state_json(obj: dict) -> tuple[DensityMatrix, CharFunction | None]:
    """The state a JSON object describes, and the table a ``char`` object holds.

    The table is returned only once the state it inverts to has validated.
    A malformed object is a ParseError.
    """
    try:
        d, n, kind = int(obj["d"]), int(obj["n"]), obj["kind"]
        if kind in ("dense", "char"):
            mat = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
            if kind == "dense":
                return DensityMatrix(d, n, mat), None
            table = CharFunction(d, n, mat)
            return DensityMatrix(d, n, inverse_char(table)), table
        if kind == "msps":
            group = StabilizerGroup(
                d, n,
                tuple(tuple(int(v) for v in g) for g in obj["generators"]),
                tuple(int(x) for x in obj["phases"]),
            )
            return msps_from_group(group), None
        if kind == "preset":
            return preset_state(obj["name"], d, n), None
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed state object: {exc!r}") from exc
    raise ParseError(f"unknown state kind {kind!r}")


def state_from_json(obj: dict) -> DensityMatrix:
    """The state a JSON object describes; a malformed one is a ParseError."""
    return load_state_json(obj)[0]


def preset_state(name: str, d: int, n: int) -> DensityMatrix:
    if name == "maximally-mixed":
        return maximally_mixed(d, n)
    if name == "zero-ket":
        return ket_state(d, n, [0] * n)
    if name == "t-state":
        if (d, n) != (2, 1):
            raise ParseError("t-state preset requires d=2, n=1")
        return t_state()
    raise ParseError(f"unknown preset {name!r}")
