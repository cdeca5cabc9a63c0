"""Theorem-verification suites as named, seeded, reproducible experiments.

Every suite is a pure function of (seed, parameters) and reproduces its
records bit-identically.  One draw rule: a suite spawns one generator per
trial from ``np.random.default_rng(seed)``, or one per block (entropy's and
fisher's configs, fisher's oracle cases) and one per trial from that; trial i
draws its discrete choices (ranks, level, T count), then its states in the
order the suite names them, then any circuits, all from its own generator.
Violations are accumulated into the report rather than raised.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import conv, entropy, linalg, magic, states, weyl
from .zmod import find_beam_splitter_params, rref_mod

INF = math.inf

#: alpha grids
ALPHAS_NONNEG = (0.0, 0.5, 1.0, 2.0, 3.0, INF)
ALPHAS_NEG = (-1.0, -INF)
ALPHAS_SECOND_LAW = (0.5, 1.0, 2.0, INF)
ALPHAS_EXTREMALITY = (1.0, 2.0, INF)

#: (d, n) configs of the suites that draw random pairs
DUALITY_CONFIGS = ((3, 1), (3, 2), (7, 1))
ENTROPY_CONFIGS = ((3, 1), (7, 1))
FISHER_CONFIGS = ((3, 1), (7, 1))
#: finite-difference oracle cases suite fisher checks by default
FISHER_ORACLE_CASES = 20
#: the qudit dimension of the MSPS enumerations in holevo and extremality
MSPS_D = 3
#: the trajectory length suite clt runs by default
CLT_STEPS = 30
#: norms at or below this are rounding noise, left out of the fitted slope
SLOPE_NORM_FLOOR = 1e-12


@dataclass
class ExperimentReport:
    """Structured per-suite results; pass iff every record's value <= bound.

    ``add`` broadcasts index, metric, value, bound and keep together and adds
    the records in row-major order, skipping those whose keep is False.
    """

    suite: str
    seed: int | None
    params: dict
    records: list[dict] = field(default_factory=list)
    passed: bool = True
    max_violation: float = 0.0

    def add(self, index, metric, value, bound, keep=True) -> None:
        *columns, keep = np.broadcast_arrays(index, metric, np.asarray(value, dtype=float),
                                             np.asarray(bound, dtype=float), keep)
        index, metric, value, bound = (column[keep] for column in columns)
        ok = value <= bound
        self.records += [{"index": i, "metric": m, "value": v, "bound": b, "pass": p}
                         for i, m, v, b, p in zip(*(column.tolist() for column in
                                                    (index, metric, value, bound, ok)))]
        self.passed = self.passed and bool(ok.all())
        over = value - bound  # a NaN compares False: it never raises the maximum
        self.max_violation = float(over.max(initial=self.max_violation,
                                            where=over > self.max_violation))

    def to_json(self) -> str:
        """The report as sorted, indented JSON: byte-identical per seed."""
        out = {
            "suite": self.suite,
            "seed": self.seed,
            "params": self.params,
            "passed": self.passed,
            "max_violation": self.max_violation,
            "records": self.records,
        }
        return json.dumps(out, sort_keys=True, default=_json_default, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "seed", "index", "metric", "value", "bound", "pass"])
        writer.writerows([self.suite, self.seed, rec["index"], rec["metric"], fmt(rec["value"]),
                          fmt(rec["bound"]), int(rec["pass"])] for rec in self.records)
        return buf.getvalue()


def fmt(x: float) -> str:
    """17 significant digits: every float output round-trips exactly."""
    return format(float(x), ".17g")


def _json_default(obj):
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _spec_for(d: int, n: int) -> conv.ConvolutionSpec:
    return conv.beam_splitter_spec(d, n) if d >= 7 else conv.default_spec(d, n)


# ---------------------------------------------------------------------------
# CLT iteration
# ---------------------------------------------------------------------------


@dataclass
class CltSeries:
    """Norms, bounds and entropies along an iterated-convolution trajectory,
    or along each trajectory of a stack.

    ``norms``, ``bounds`` and each of ``entropies`` ({alpha: array}) run
    over N = 0..n_max on their last axis; ``displacement`` is an integer
    array over its 2n labels.  Every field carries the stack's leading
    axes first, and ``mg`` is a scalar for one series.
    """

    displacement: np.ndarray
    mg: float | np.ndarray
    norms: np.ndarray
    bounds: np.ndarray
    entropies: dict[float, np.ndarray]


def log_slope(norms: np.ndarray) -> float | None:
    """Least-squares slope of ln(norm) vs N over the steps whose norm
    exceeds SLOPE_NORM_FLOOR, of one series' norms."""
    steps = np.flatnonzero(norms > SLOPE_NORM_FLOOR)
    if len(steps) < 2:
        return None
    return float(np.polyfit(steps, np.log(norms[steps]), 1)[0])


def clt_run(rho: states.DensityMatrix, spec: conv.ConvolutionSpec,
            n_max: int) -> CltSeries:
    """Iterate the beam-splitter convolution and record norms and entropies,
    of one state or of each member of a stack.

    Non-zero-mean inputs are displaced to zero mean first, all members in
    one pass on their tables; the applied displacement is recorded in the
    series.  The iteration runs on characteristic tables, one step at a
    time for all members, so only one step's tables are held.  Per step,
    the norms ||rho_N - M||_2 are taken on the tables by Parseval, and the
    tables are inverted and validated as one stack; the spectra of all
    steps give the entropies, one call per alpha.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    d, n = spec.d, spec.n
    displacement, table0 = magic.make_zero_mean(weyl.char_function(rho))
    mean = weyl.char_function(magic.mean_state(table0)).values
    mg = magic.magic_gap(table0)

    def norm(table: weyl.CharFunction) -> np.ndarray:
        return np.sqrt((np.abs(table.values - mean) ** 2).sum(axis=-1) / d**n)

    # displacing is unitary, so rho_0 has rho's spectrum
    norms, spectra, table = [norm(table0)], [rho.eigenvalues()], table0
    for _ in range(n_max):
        table = conv.convolve_characteristic(table, table0, spec)
        norms.append(norm(table))
        spectra.append(states.DensityMatrix(d, n, weyl.inverse_char(table)).eigenvalues())
    all_norms, spectra = np.stack(norms, axis=-1), np.stack(spectra, axis=-2)
    # Python powers: numpy's array power can differ in the last bit
    bounds = np.array([[(1 - m) ** N * b for N in range(n_max + 1)] for m, b in
                       zip(np.ravel(mg).tolist(), all_norms[..., 0].ravel().tolist())])
    return CltSeries(displacement, mg, all_norms, bounds.reshape(all_norms.shape),
                     {a: entropy.renyi_spectra(spectra, a) for a in ALPHAS_SECOND_LAW})


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

DUALITY_TOL = 1e-10
ENTROPY_TOL = 1e-8
FISHER_TOL = 1e-6
FISHER_FD_TOL = 1e-4
TRACE_MONO_TOL = 1e-9
RELENT_MONO_TOL = 1e-8
EXTREMALITY_TOL = 1e-8
#: an MSPS this close to M(rho), entrywise, is M(rho) and gets no margin
MEAN_MATCH_TOL = 1e-9
PURE_OUT_TOL = 1e-9
HOLEVO_TOL = 1e-9
SYNTH_TOL = 1e-9
CLT_TOL = 1e-9
SLOPE_TOL = 1e-6
SECOND_LAW_TOL = 1e-8


def suite_duality(seed: int = 0, trials: int = 200) -> ExperimentReport:
    """Matrix-side vs characteristic-side convolution agreement."""
    configs = DUALITY_CONFIGS
    report = ExperimentReport("duality", seed, {"configs": configs, "trials": trials})
    rngs = np.random.default_rng(seed).spawn(trials)
    devs = np.empty(trials)
    for c, (d, n) in enumerate(configs):
        spec = _spec_for(d, n)
        # trial i runs config i % 3: this config's trials as one stack
        trial_rngs = rngs[c::len(configs)]
        ranks = np.array([rng.integers(1, d**n + 1, size=2)
                          for rng in trial_rngs]).reshape(-1, 2)
        a = states.random_density(trial_rngs, d, n, ranks[:, 0])
        b = states.random_density(trial_rngs, d, n, ranks[:, 1])
        lhs = weyl.char_function(conv.convolve(a, b, spec)).values
        rhs = conv.convolve_characteristic(
            weyl.char_function(a), weyl.char_function(b), spec).values
        devs[c::len(configs)] = np.abs(lhs - rhs).max(axis=-1)
    report.add(np.arange(trials), np.resize([f"duality_dev_d{d}n{n}" for d, n in configs],
                                            trials), devs, DUALITY_TOL)
    return report


def suite_entropy(seed: int = 0, trials: int = 100) -> ExperimentReport:
    """H_alpha(rho box sigma) >= max of the inputs, all alpha grids."""
    configs = ENTROPY_CONFIGS
    report = ExperimentReport("entropy", seed, {
        "configs": configs, "trials": trials,
        "alphas": list(ALPHAS_NONNEG), "alphas_full_rank": list(ALPHAS_NEG),
    })
    alphas = ALPHAS_NONNEG + ALPHAS_NEG
    gaps = []
    for (d, n), block in zip(configs, np.random.default_rng(seed).spawn(len(configs))):
        spec = _spec_for(d, n)
        rngs = block.spawn(trials)
        D = d**n
        # even trials are full rank; odd ones draw both ranks first
        ranks = np.array([(D, D) if i % 2 == 0 else rng.integers(1, D + 1, size=2)
                          for i, rng in enumerate(rngs)]).reshape(-1, 2)
        a = states.random_density(rngs, d, n, ranks[:, 0])
        b = states.random_density(rngs, d, n, ranks[:, 1])
        out = conv.convolve(a, b, spec)
        # (trials, 3, D): a, b and out
        spectra = np.stack([a.eigenvalues(), b.eigenvalues(), out.eigenvalues()], axis=1)
        h_a, h_b, h_out = np.stack([entropy.renyi_spectra(spectra, alpha)
                                    for alpha in alphas], axis=-1).swapaxes(0, 1)
        # the builtin max of (h_a, h_b): h_a unless h_b exceeds it
        gaps.append(np.where(h_b > h_a, h_b, h_a) - h_out)
    ids = np.arange(trials)[:, None]
    names = [[[f"entropy_gap_d{d}n{n}_a{alpha}" for alpha in alphas]] for d, n in configs]
    # the negative alphas only on the full-rank (even) trials
    report.add(ids, names, gaps, ENTROPY_TOL, keep=(ids % 2 == 0) | np.isin(alphas, ALPHAS_NONNEG))
    return report


def suite_fisher(seed: int = 0, trials: int = 100,
                 oracle_cases: int = FISHER_ORACLE_CASES) -> ExperimentReport:
    """J(rho box sigma) <= min of inputs; J matches the finite-difference oracle."""
    configs = FISHER_CONFIGS
    report = ExperimentReport("fisher", seed, {
        "configs": configs, "trials": trials, "oracle_cases": oracle_cases})
    blocks = np.random.default_rng(seed).spawn(len(configs) + 1)  # last: oracle cases
    gaps = []
    for (d, n), block in zip(configs, blocks):
        spec = _spec_for(d, n)
        rngs = block.spawn(trials)
        a = states.random_density(rngs, d, n)
        b = states.random_density(rngs, d, n)
        out = conv.convolve(a, b, spec)
        gaps.append(entropy.total_fisher(out) - np.minimum(entropy.total_fisher(a),
                                                           entropy.total_fisher(b)))
    report.add(np.arange(trials), [[f"fisher_gap_d{d}n{n}"] for d, n in configs], gaps,
               FISHER_TOL)
    cases = blocks[-1].spawn(oracle_cases)
    devs = np.empty(oracle_cases)
    for parity, d in enumerate((3, 7)):
        # case i runs d = 3 when i is even, 7 when odd: this d's cases as one
        # stack, each H the projector on a level the case draws before its state
        case_rngs = cases[parity::2]
        levels = [rng.integers(d) for rng in case_rngs]
        rho = states.random_density(case_rngs, d, 1)
        H = np.zeros((len(case_rngs), d, d), dtype=complex)
        H[np.arange(len(case_rngs)), levels, levels] = 1.0
        devs[parity::2] = np.abs(entropy.fisher_information(rho, H)
                                 - entropy.fisher_fd_oracle(rho, H))
    report.add(np.arange(oracle_cases), np.resize(["fisher_fd_dev_d3", "fisher_fd_dev_d7"],
                                                  oracle_cases), devs, FISHER_FD_TOL)
    return report


def suite_monotonicity(seed: int = 0, trials: int = 100) -> ExperimentReport:
    """Trace-norm and relative-entropy contraction under (.) box tau."""
    d, n = 3, 1
    spec = conv.default_spec(d, n)
    report = ExperimentReport("monotonicity", seed, {"d": d, "n": n, "trials": trials})
    rngs = np.random.default_rng(seed).spawn(trials)
    tau_ranks = [rng.integers(1, d**n + 1) for rng in rngs]
    rho = states.random_density(rngs, d, n)
    sigma = states.random_density(rngs, d, n)  # full rank
    tau = states.random_density(rngs, d, n, tau_ranks)
    rc = conv.convolve(rho, tau, spec)
    sc = conv.convolve(sigma, tau, spec)
    tn_gaps = linalg.trace_norm(rc.mat - sc.mat) - linalg.trace_norm(rho.mat - sigma.mat)
    re_gaps = entropy.relative_entropy(rc, sc) - entropy.relative_entropy(rho, sigma)
    report.add(np.arange(trials)[:, None], ["trace_norm_gap", "rel_entropy_gap"],
               np.stack([tn_gaps, re_gaps], axis=-1), [TRACE_MONO_TOL, RELENT_MONO_TOL])
    return report


def _stabilizer_pairs(spec: conv.ConvolutionSpec):
    """The single-qudit pure stabilizer groups, and a boxtimes b for every ordered
    pair (a, b) of their states as one (count, count) stack, a along axis 0."""
    groups = states.enumerate_groups(spec.d, mixed=False)
    mats = states.msps_states(groups).mat
    outs = conv.convolve(states.DensityMatrix(spec.d, 1, mats[:, None]),
                         states.DensityMatrix(spec.d, 1, mats[None]), spec)
    return groups, outs


def suite_stability() -> ExperimentReport:
    """All 144 ordered pure-stabilizer pairs at d=3 convolve to MSPS."""
    d = 3
    spec = conv.default_spec(d, 1)
    groups, outs = _stabilizer_pairs(spec)
    report = ExperimentReport("stability", None, {"d": d, "pairs": len(groups) ** 2})
    ok, _ = states.is_msps(weyl.char_function(outs))
    report.add(np.arange(ok.size), "is_msps", np.where(ok.ravel(), 0.0, 1.0), 0.0)
    return report


def suite_min_output() -> ExperimentReport:
    """Zero output entropy occurs exactly at partner-related label pairs (d=3)."""
    d = 3
    spec = conv.default_spec(d, 1)
    report = ExperimentReport("min_output", None, {"d": d})
    groups, outs = _stabilizer_pairs(spec)
    partners = [conv.partner_stabilizer_group(g, spec) for g in groups]
    # groups[::d] holds phase 0 on each line
    out = conv.convolve(states.msps_states(partners[::d]),
                        states.msps_states(groups[::d]), spec)
    h = entropy.renyi_spectra(out.eigenvalues(), 1)
    report.add(np.arange(len(h)), "partner_output_entropy", h, PURE_OUT_TOL)
    h_outs = entropy.renyi_spectra(outs.eigenvalues(), 1)
    # the enumerated generators are in RREF; bring each partner's to that form
    partner_gens = [tuple(map(tuple, rref_mod(np.array(s.generators), d)[0].tolist()))
                    for s in partners]
    is_partner = np.array([[a.generators == gens for gens in partner_gens] for a in groups])
    consistent = (h_outs < PURE_OUT_TOL) == is_partner
    # per pair its consistency, then, when mismatched, its entropy floor:
    # mismatched pairs must sit well above zero entropy
    report.add(np.arange(h_outs.size).reshape(h_outs.shape)[..., None],
               ["zero_entropy_iff_partner", "mismatch_entropy_floor"],
               np.dstack([np.where(consistent, 0.0, 1.0), np.full_like(h_outs, 0.1)]),
               np.dstack([np.zeros_like(h_outs), h_outs]),
               keep=np.dstack([np.ones_like(is_partner), ~is_partner]))
    return report


def suite_holevo(seed: int = 0, trials: int = 50) -> ExperimentReport:
    """Capacity sandwich, ensemble lower bound, and the MSPS equality branch."""
    report = ExperimentReport("holevo", seed, {"trials": trials, "d": [3, 7]})
    rngs = np.random.default_rng(seed).spawn(trials)
    gaps = np.empty((trials, 2))
    for parity, d in enumerate((3, 7)):
        spec = _spec_for(d, 1)
        # trial i runs d = 3 when i is even, 7 when odd: this d's trials as one stack
        trial_rngs = rngs[parity::2]
        ranks = [rng.integers(1, d + 1) for rng in trial_rngs]
        sigma = states.random_density(trial_rngs, d, 1, ranks)
        rho0 = states.random_density(trial_rngs, d, 1, 1)
        lower, upper = conv.holevo_bounds(spec, sigma)
        ensemble = conv.holevo_weyl_ensemble(spec, sigma, rho0)
        gaps[parity::2] = np.stack([lower - upper, ensemble - upper], axis=-1)
    names = [[f"sandwich_order_d{d}", f"ensemble_below_upper_d{d}"] for d in (3, 7)]
    report.add(np.arange(trials)[:, None], np.resize(names, (trials, 2)), gaps, HOLEVO_TOL)
    # equality branch: sigma an MSPS at d=3; some enumerated rho0 meets the bound
    d = MSPS_D
    spec = conv.default_spec(d, 1)
    candidates = states.msps_states(states.enumerate_groups(d))
    _, upper = conv.holevo_bounds(spec, candidates)
    # sigma along axis 0, rho0 along axis 1
    best = conv.holevo_weyl_ensemble(
        spec, states.DensityMatrix(d, 1, candidates.mat[:, None]),
        states.DensityMatrix(d, 1, candidates.mat[None])).max(axis=1)
    report.add(np.arange(len(best)), "msps_equality_gap", upper - best, HOLEVO_TOL)
    # pure stabilizer sigma (all but the last, mixed, member): bounds collapse to log2 d
    cap = float(np.log2(d))
    lower, upper = conv.holevo_bounds(spec, candidates[:-1])
    collapse = np.maximum(np.abs(lower - cap), np.abs(upper - cap))
    report.add(np.arange(len(collapse)), "stab_bounds_collapse", collapse, HOLEVO_TOL)
    return report


def suite_synthesis(seed: int = 0, trials: int = 100) -> ExperimentReport:
    """LMG growth of Clifford+T circuits is at most N/2 on stabilizer inputs."""
    report = ExperimentReport("synthesis", seed, {"trials": trials, "max_t": magic.MAX_T})
    # trial i runs n = 1 + i % 2 on |0...0>: its T count, then its circuit,
    # whose words before the first T make a random stabilizer input
    rngs = np.random.default_rng(seed).spawn(trials)
    n_t = np.array([rng.integers(0, magic.MAX_T + 1) for rng in rngs])
    circuits = [magic.draw_clifford_t(rng, 1 + i % 2, k)
                for i, (rng, k) in enumerate(zip(rngs, n_t))]
    lmg = np.empty(trials)
    for n in (1, 2)[:trials]:  # each n that some trial runs
        # every circuit of one n has one length: one stacked product
        U = magic.clifford_words(np.array(circuits[n - 1::2]), 2, n)
        base = states.ket_state(2, n, [0] * n).mat
        out = states.DensityMatrix(2, n, U @ base @ U.conj().swapaxes(-1, -2))
        lmg[n - 1::2] = magic.log_magic_gap(weyl.char_function(out)) - n_t[n - 1::2] / 2
    report.add(np.arange(trials), np.resize(["lmg_minus_halfN_n1", "lmg_minus_halfN_n2"], trials),
               lmg, SYNTH_TOL)
    return report


def suite_extremality(seed: int = 0, trials: int = 50) -> ExperimentReport:
    """Exhaustive MSPS minimization of D_alpha is attained uniquely at M(rho)."""
    d = MSPS_D
    msps = states.msps_states(states.enumerate_groups(d))
    count = len(msps.mat)
    report = ExperimentReport("extremality", seed, {
        "d": d, "trials": trials, "alphas": [1, 2, "inf"]})
    rngs = np.random.default_rng(seed).spawn(trials)
    # MSPS inputs (i % 5 == 4) exercise the uniqueness margin against all
    # 12 others; every other trial draws a random state of random rank
    drawn = [i for i in range(trials) if i % 5 != 4]
    ranks = [rngs[i].integers(1, d + 1) for i in drawn]
    mats = msps.mat[np.arange(trials) % count]
    mats[drawn] = states.random_density([rngs[i] for i in drawn], d, 1, ranks).mat
    # (trials, 1) against the (count,) MSPS stack: one grid per alpha
    rho = states.DensityMatrix(d, 1, mats[:, None])
    M = magic.mean_state(weyl.char_function(rho))
    # an MSPS this close to M(rho) is M(rho) and gets no margin
    skip = np.abs(msps.mat - M.mat).max(axis=(-2, -1)) < MEAN_MATCH_TOL
    # (trials, alphas, 1 + count): per alpha the identity, then a margin per MSPS
    values, keep = [], []
    for alpha in ALPHAS_EXTREMALITY:
        to_mean = entropy.sandwiched_relative_entropy(rho, M, alpha)
        gap = (entropy.renyi_spectra(M.eigenvalues(), alpha)
               - entropy.renyi_spectra(rho.eigenvalues(), alpha))
        other = entropy.sandwiched_relative_entropy(rho, msps, alpha)
        # strict uniqueness: every other finite MSPS exceeds the minimum
        values.append(np.concatenate([np.abs(to_mean - gap),
                                      to_mean + EXTREMALITY_TOL - other], axis=-1))
        keep.append(np.insert(~skip & (other != INF), 0, True, axis=-1))
    names = [[f"identity_dev_a{a}"] + [f"uniqueness_margin_a{a}_s{j}" for j in range(count)]
             for a in ALPHAS_EXTREMALITY]
    report.add(np.arange(trials)[:, None, None], names, np.stack(values, axis=1),
               [EXTREMALITY_TOL] + [0.0] * count, keep=np.stack(keep, axis=1))
    return report


def suite_clt(seed: int = 0, trials: int = 50, steps: int = CLT_STEPS) -> ExperimentReport:
    """Norm decay bound, fitted slope, and second law along CLT trajectories."""
    d, n = 7, 1
    spec = conv.beam_splitter_spec(d, n)
    report = ExperimentReport("clt", seed, {
        "d": d, "n": n, "steps": steps, "trials": trials,
        "s_t": list(find_beam_splitter_params(d)),
        "alphas": [0.5, 1, 2, "inf"]})
    rngs = np.random.default_rng(seed).spawn(trials)
    # even trials are pure; odd ones draw their rank first
    ranks = [1 if i % 2 == 0 else int(rng.integers(1, d + 1)) for i, rng in enumerate(rngs)]
    series = clt_run(states.random_density(rngs, d, n, ranks), spec, steps)
    fits = [(log_slope(norms), mg) for norms, mg in zip(series.norms, series.mg.tolist())]
    fitted = np.array([slope is not None and mg < 1 for slope, mg in fits], dtype=bool)
    # math.log per series: numpy's array log can differ in the last bit
    slope_gaps = [slope - math.log(1 - mg) if ok else 0.0 for (slope, mg), ok in zip(fits, fitted)]
    # a single state has no drop; with steps, the largest may be negative
    drops = [np.max(hs[:, :-1] - hs[:, 1:], axis=-1) if steps else np.zeros(trials)
             for hs in series.entropies.values()]
    # per trial the norm gap, the slope gap where fitted, then a drop per alpha
    report.add(np.arange(trials)[:, None],
               ["norm_bound_gap", "log_slope_gap"]
               + [f"second_law_drop_a{alpha}" for alpha in series.entropies],
               np.stack([np.max(series.norms - series.bounds, axis=-1), slope_gaps, *drops], -1),
               [CLT_TOL, SLOPE_TOL] + [SECOND_LAW_TOL] * len(drops),
               keep=(np.arange(2 + len(drops)) != 1) | fitted[:, None])
    return report


SUITES = {
    "duality": suite_duality,
    "entropy": suite_entropy,
    "fisher": suite_fisher,
    "monotonicity": suite_monotonicity,
    "stability": suite_stability,
    "min-output": suite_min_output,
    "holevo": suite_holevo,
    "synthesis": suite_synthesis,
    "extremality": suite_extremality,
    "clt": suite_clt,
}

#: the most records each sampled suite reports at ``trials`` trials, from
#: the constants the suite reads
RECORD_COUNTS = {
    "duality": lambda trials: trials,
    # full rank adds the negative alphas on even trials
    "entropy": lambda trials: len(ENTROPY_CONFIGS) * (
        len(ALPHAS_NONNEG) * trials + len(ALPHAS_NEG) * ((trials + 1) // 2)),
    "fisher": lambda trials: len(FISHER_CONFIGS) * trials + FISHER_ORACLE_CASES,
    "monotonicity": lambda trials: 2 * trials,
    "holevo": lambda trials: 2 * trials + states.enumeration_count(MSPS_D)
    + states.enumeration_count(MSPS_D, mixed=False),
    "synthesis": lambda trials: trials,
    # per alpha the identity and a margin against each other MSPS, which
    # is computed always and reported when the divergence is finite
    "extremality": lambda trials: len(ALPHAS_EXTREMALITY)
    * states.enumeration_count(MSPS_D) * trials,
    # the norm gap, at most one slope gap and a drop per alpha
    "clt": lambda trials: (2 + len(ALPHAS_SECOND_LAW)) * trials,
}


def record_bound(name: str, trials: int, steps: int = CLT_STEPS) -> int:
    """The most records sampled suite ``name`` computes at these counts: its
    report's, and for clt the steps + 1 records each trial's series holds."""
    count = RECORD_COUNTS[name](trials)
    if name == "clt":
        count += trials * (steps + 1)
    return count
