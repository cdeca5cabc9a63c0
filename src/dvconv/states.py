"""Density matrices, stabilizer groups, MSPS construction and detection.

An MSPS is a stabilizer group with a phase per generator; ``msps_table``,
its characteristic table, is its one working form.  The enumerations invert
those tables as one stack, and ``is_msps`` recovers a group from a table's
unit support and compares the table with the group's own, once per
distinct support and group of a stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (InvalidGroup, InvalidState, MalformedGroup, ParseError,
                     UnsupportedScale)
from .linalg import SUPPORT_TOL
from .linalg import herm_eig  # noqa: F401  not called; perfbench/test_tracer.py checks the name
from .weyl import (
    CharFunction,
    inverse_char,
    phase_points,
    point_index,
    product_phase,
    symplectic_form,
)
from .weyl import weyl_op  # noqa: F401  not called; perfbench/test_tracer.py checks the name
from .zmod import check_system, rank_mod, rref_mod

STATE_TOL = 1e-10
#: |Xi| within this of 1 counts as unit modulus
UNIT_TOL = 1e-9


def unit_phases(values: np.ndarray) -> np.ndarray:
    """Xi/|Xi| where |Xi| counts as 1, 0 elsewhere: the one unit-modulus rule."""
    mags = np.abs(values)
    unit = np.abs(mags - 1.0) <= UNIT_TOL
    return np.where(unit, values / np.where(unit, mags, 1.0), 0.0)


def hermitian_part(mats: np.ndarray) -> np.ndarray:
    """(A + A^dag) / 2 of each matrix of a stack, halved first: no overflow."""
    return mats / 2 + mats.conj().swapaxes(-1, -2) / 2


def _validated_spectra(d: int, n: int, mats: np.ndarray) -> np.ndarray:
    """Spectra of a (..., D, D) stack of density matrices: the one state check.

    Every matrix must be finite, Hermitian, of unit trace and positive
    semidefinite, each within STATE_TOL, checked in that order over the
    whole stack.  The eigenvalues are those of the Hermitian part, clipped
    at 0, in descending order along the last axis; an empty stack has
    empty spectra.  Numbers in an error message are the stack's worst,
    which is the one bad member's own.
    """
    check_system(d, n)
    D = d**n
    if mats.shape[-2:] != (D, D):
        raise InvalidState(f"matrix is {mats.shape}, expected {(D, D)}")
    if not mats.size:
        return np.zeros(mats.shape[:-1])
    # checked first: a NaN fails no comparison, and inf - inf warns
    if not np.isfinite(mats).all():
        raise InvalidState("matrix has a non-finite entry")
    adj = mats.conj().swapaxes(-1, -2)
    with np.errstate(over="ignore"):  # a deviation past the float range is inf
        herm_dev = abs(mats - adj).max()
        if herm_dev > STATE_TOL:
            raise InvalidState(f"Hermiticity deviation {herm_dev:.3e}")
        # builtin max and min over .flat: for one state, a numpy reduction of
        # one value costs more than the iteration
        tr_dev = max(abs(mats.trace(axis1=-2, axis2=-1) - 1.0).flat)
        if tr_dev > STATE_TOL:
            raise InvalidState(f"trace deviation {tr_dev:.3e}")
    lam = np.linalg.eigvalsh(hermitian_part(mats))  # ascending
    low = min(lam[..., 0].flat)
    if not low >= -STATE_TOL:  # a NaN eigenvalue is refused too
        raise InvalidState(f"negative eigenvalue {low:.3e}")
    return np.maximum(lam[..., ::-1], 0.0)


@dataclass(frozen=True)
class DensityMatrix:
    """Dense d^n x d^n state with validated invariants, or a stack of them.

    ``mat`` may be one (D, D) matrix or a (..., D, D) stack, checked as a
    whole by one validation.  Validation computes the spectrum and the
    state keeps it; the eigenvectors are solved on first use, as one
    batched eigh for a stack, and kept too.  ``rho[i]`` is member i of a
    stack: it shares the stack's checked arrays, and its eigenvectors once
    the stack has solved them, and is not validated again.  Every entropy
    reads these, so a state runs one eigvalsh and at most one eigh.
    """

    d: int
    n: int
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        # a private copy: freezing the caller's own array would lock it too
        m = np.array(self.mat, order="C")
        spectrum = _validated_spectra(self.d, self.n, m)
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "_spectrum", _read_only(spectrum))

    def __getitem__(self, index) -> DensityMatrix:
        """Member ``index`` of a stack, indexed over the leading axes."""
        key = index if isinstance(index, tuple) else (index,)
        if len(key) > self.mat.ndim - 2:
            raise IndexError(f"{len(key)} indices for a stack of shape {self.mat.shape[:-2]}")
        key += (Ellipsis,)
        member = object.__new__(DensityMatrix)
        for name, value in (("d", self.d), ("n", self.n), ("mat", self.mat[key]),
                            ("_spectrum", self._spectrum[key])):
            object.__setattr__(member, name, value)
        if "eigenvectors" in self.__dict__:
            object.__setattr__(member, "eigenvectors", self.eigenvectors[key])
        return member

    def eigenvalues(self) -> np.ndarray:
        """The spectrum, clipped at 0, in descending order (read-only), (..., D)."""
        return self._spectrum

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Unitary eigenvector columns aligned with ``eigenvalues()`` (read-only)."""
        _, vecs = np.linalg.eigh(hermitian_part(self.mat))
        return _read_only(vecs[..., ::-1])


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


def random_density(seed, d: int, n: int, rank=None) -> DensityMatrix:
    """Ginibre state: A A^dag / Tr with a d^n x rank complex-Gaussian factor.

    A list or tuple ``seed`` gives a stack, one member per seed, with
    ``rank`` None, one rank for all or a matching sequence of ranks: member
    i is drawn from seed[i] alone, as the single call draws it, and the
    stack is validated once.  A rank is None or an integer in [1, D]; any
    other is a ValueError before anything is drawn.  Only the draws run
    per member; the product and the normalisation run once per distinct
    rank, on that rank's members as one stack, with the bits of the
    single call (members padded to one rank would not have them).
    """
    D = d**n
    stacked = isinstance(seed, (list, tuple))
    seeds = list(seed) if stacked else [seed]
    ranks = list(rank) if stacked and np.ndim(rank) else [rank] * len(seeds)
    if len(ranks) != len(seeds):
        raise ValueError(f"{len(ranks)} ranks for {len(seeds)} seeds")
    ranks = [D if r is None else r for r in ranks]
    for r in ranks:
        if isinstance(r, bool) or not isinstance(r, (int, np.integer)) or not 1 <= r <= D:
            raise ValueError(f"rank must be in [1, {D}] and an integer, got {r!r}")
    mats = np.empty((len(seeds), D, D), dtype=complex)
    for r in set(ranks):
        rows = [k for k, rk in enumerate(ranks) if rk == r]
        # real and imaginary parts: the stream of two (D, r) draws
        parts = np.array([np.random.default_rng(seeds[k]).standard_normal((2, D, r))
                          for k in rows])
        A = parts[:, 0] + 1j * parts[:, 1]
        M = A @ A.conj().swapaxes(-1, -2)
        mats[rows] = M / M.trace(axis1=-2, axis2=-1).real[:, None, None]
    return DensityMatrix(d, n, mats if stacked else mats[0])


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
            raise MalformedGroup("generator/phase count mismatch")
        if len(self.generators) > self.n:
            raise MalformedGroup("more generators than qudits")
        if any(np.shape(g) != (2 * self.n,) for g in self.generators):
            raise MalformedGroup("generator label has wrong length")
        if not self.generators:
            return
        gens = np.array(self.generators, dtype=np.int64) % self.d
        # every pair's form at once; forms is antisymmetric with a zero
        # diagonal, so its first nonzero entry in row-major order is the
        # first pair i < j that fails
        forms = symplectic_form(gens[:, None], gens[None], self.d)
        if forms.any():
            i, j = np.argwhere(forms)[0]
            raise InvalidGroup(f"generators {i}, {j} do not commute")
        if rank_mod(gens, self.d) != len(gens):
            raise InvalidGroup("generators are linearly dependent mod d")

    @property
    def r(self) -> int:
        return len(self.generators)


def msps_table(group: StabilizerGroup) -> CharFunction:
    """The MSPS of ``group`` as its characteristic table: the one definition.

    d^n rho = prod_i sum_k (xi^{x_i} w(g_i))^k, so the table, 1 at 0, folds in
    each generator's d - 1 steps at once: y -> y + g_i, value times
    xi^{x_i} beta(y, g_i).
    """
    d, n = group.d, group.n
    labels, vals = np.zeros((1, 2 * n), dtype=np.int64), np.ones(1, dtype=complex)
    for g, x in zip(group.generators, group.phases):
        steps = (labels + np.arange(d)[:, None, None] * np.array(g)) % d  # y + k g
        factors = np.exp(2j * np.pi * (x % d) / d) * product_phase(d, steps[:-1], g)
        vals = np.concatenate([vals[None], vals * np.cumprod(factors, axis=0)]).ravel()
        labels = steps.reshape(-1, 2 * n)
    values = np.zeros(d ** (2 * n), dtype=complex)
    values[point_index(labels, d)] = vals
    return CharFunction(d, n, values)


def msps_states(groups) -> DensityMatrix:
    """The MSPS of each group of one (d, n), inverted as one stack and validated once."""
    d, n = groups[0].d, groups[0].n
    values = np.stack([msps_table(g).values for g in groups])
    return DensityMatrix(d, n, inverse_char(CharFunction(d, n, values)))


def _equal_rows(rows: np.ndarray) -> list[np.ndarray]:
    """The row indices of each set of equal rows of a 2-D array, ascending
    within each set; rows compare as bytes."""
    sets: dict[bytes, list[int]] = {}
    for i, row in enumerate(rows):
        sets.setdefault(row.tobytes(), []).append(i)
    return [np.array(indices) for indices in sets.values()]


def is_msps(table: CharFunction):
    """MSPS test of a table, or of each table of a (..., d^{2n}) stack, with
    the recovered group of each MSPS.

    Every |Xi| must be 1 or at most SUPPORT_TOL, the magic gap's zero.  The
    unit support must hold d^r points, r the rank of its labels, whose
    row-echelon generators commute; with the phases read off them, the
    table must be their msps_table within UNIT_TOL.  Group recovery runs
    once per distinct support and msps_table once per distinct group.  One
    table gives (ok, group or None); a stack gives a bool array and an
    object array of groups, both of its leading shape.  Never raises.
    """
    d, n, values = table.d, table.n, table.values
    flat = values.reshape(-1, values.shape[-1])
    phases = unit_phases(flat)
    unit = phases != 0
    ok = np.all(unit | (np.abs(flat) <= SUPPORT_TOL), axis=-1)
    groups = np.full(len(flat), None, dtype=object)
    members = np.flatnonzero(ok)
    # members of one support, then of one phase vector on it
    for rows in (members[i] for i in _equal_rows(unit[members])):
        support = unit[rows[0]]
        R, pivots = rref_mod(phase_points(d, n)[support], d)
        if np.count_nonzero(support) != d ** len(pivots):
            ok[rows] = False
            continue
        gens = R[:len(pivots)]
        angles = np.angle(phases[rows[:, None], point_index(gens, d)])
        ks = np.round(d * angles / (2 * np.pi)).astype(np.int64) % d
        for i in _equal_rows(ks):
            sub = rows[i]
            try:
                group = StabilizerGroup(d, n, tuple(map(tuple, gens.tolist())),
                                        tuple(ks[i[0]].tolist()))
            except InvalidGroup:  # the generators do not commute
                ok[sub] = False
                continue
            ok[sub] = np.abs(msps_table(group).values - phases[sub]).max(axis=-1) <= UNIT_TOL
            groups[sub[ok[sub]]] = group
    if values.ndim == 1:
        return bool(ok[0]), groups[0]
    return ok.reshape(values.shape[:-1]), groups.reshape(values.shape[:-1])


#: the most complex values one enumeration may hold, states x D^2
ENUMERATION_BUDGET = 100_000


def enumeration_count(d: int, n: int = 1, mixed: bool = True) -> int:
    """The d(d+1) pure stabilizer states of one qudit, plus the maximally
    mixed state when ``mixed``.  The one enumeration rule: UnsupportedScale,
    before anything is built, at n != 1 or above ENUMERATION_BUDGET values.
    """
    check_system(d, n)
    count = d * (d + 1) + mixed
    if n != 1:
        raise UnsupportedScale(f"enumeration supported only at n=1, got n={n}")
    if count * d**2 > ENUMERATION_BUDGET:
        raise UnsupportedScale(f"{count} states of {d}x{d} hold {count * d**2} values; "
                               f"the enumeration budget is {ENUMERATION_BUDGET}")
    return count


def enumerate_groups(d: int, n: int = 1, mixed: bool = True) -> list[StabilizerGroup]:
    """Lines (1, 0..d-1) then (0, 1), phases 0..d-1 on each, then the empty
    group when ``mixed``: the order of every enumeration."""
    enumeration_count(d, n, mixed)
    lines = [(1, b) for b in range(d)] + [(0, 1)]
    groups = [StabilizerGroup(d, 1, (label,), (x,)) for label in lines for x in range(d)]
    return groups + [StabilizerGroup(d, 1, (), ())] * mixed


# ---------------------------------------------------------------------------
# JSON state schema (shared with the CLI)
# ---------------------------------------------------------------------------

PRESETS = ("maximally-mixed", "zero-ket", "t-state")


def _complex_json(d: int, n: int, kind: str, values: np.ndarray) -> dict:
    """The one writer of a state schema object: real and imaginary parts as lists."""
    return {"d": d, "n": n, "kind": kind,
            "re": values.real.tolist(), "im": values.imag.tolist()}


def state_to_json(rho: DensityMatrix) -> dict:
    return _complex_json(rho.d, rho.n, "dense", rho.mat)


def char_to_json(table: CharFunction) -> dict:
    return _complex_json(table.d, table.n, "char", table.values)


def load_state_json(obj: dict) -> tuple[DensityMatrix, CharFunction | None]:
    """The state a JSON object describes, and the table a ``char`` or
    ``msps`` object holds or defines.

    The table is returned only once the state it inverts to has validated.
    A malformed object is a ParseError.
    """
    try:
        d, n, kind = obj["d"], obj["n"], obj["kind"]
        if type(d) is not int or type(n) is not int:  # bool, float, str
            raise ParseError(f"d and n must be integers, got d={d!r}, n={n!r}")
        if kind in ("dense", "char"):
            re, im = np.asarray(obj["re"], dtype=float), np.asarray(obj["im"], dtype=float)
            if re.shape != im.shape:  # they would broadcast into another matrix
                raise ParseError(f"{kind} state has re of shape {re.shape} "
                                 f"and im of shape {im.shape}")
            with np.errstate(invalid="ignore"):  # 1j * inf is nan + inf j, refused below
                mat = re + 1j * im
            # a file holds one state: a stack would pass the stack-aware checks
            ndim = 2 if kind == "dense" else 1
            if mat.ndim != ndim:
                raise ParseError(f"{kind} state has {mat.ndim}-D re/im lists, "
                                 f"expected {ndim}-D")
            if kind == "dense":
                return DensityMatrix(d, n, mat), None
            table = CharFunction(d, n, mat)
        elif kind == "msps":
            gens, phases = tuple(map(tuple, obj["generators"])), tuple(obj["phases"])
            bad = [v for v in sum(gens, phases) if type(v) is not int]  # bool, float, str
            if bad:
                raise ParseError(f"msps generators and phases must be integers, got {bad[0]!r}")
            table = msps_table(StabilizerGroup(d, n, gens, phases))
        elif kind == "preset":
            return preset_state(obj["name"], d, n), None
        else:
            raise ParseError(f"unknown state kind {kind!r}")
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite: refused below
            mat = inverse_char(table)
        return DensityMatrix(d, n, mat), table
    # OverflowError: an integer past int64
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed state object: {exc!r}") from exc


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
