"""Theorem-verification suites as named, seeded, reproducible experiments.

Every suite is a pure function of (seed, parameters): per-trial inputs are
drawn from spawned child seeds so records reproduce bit-identically.
Violations are accumulated into the report rather than raised.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
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
#: table values per chunk of the CLT iteration, at least one step per chunk:
#: 83 steps at D = 7, one step at D = 49
CLT_CHUNK_VALUES = 2**12
#: norms at or below this are rounding noise, left out of the fitted slope
SLOPE_NORM_FLOOR = 1e-12


@dataclass
class ExperimentReport:
    """Structured per-suite results; pass iff every record's value <= bound."""

    suite: str
    seed: int | None
    params: dict
    records: list[dict] = field(default_factory=list)
    passed: bool = True
    max_violation: float = 0.0
    wall_time: float = 0.0

    def add(self, index, metric: str, value: float, bound: float) -> None:
        value, bound = float(value), float(bound)
        ok = value <= bound
        self.records.append(
            {"index": index, "metric": metric, "value": value, "bound": bound, "pass": ok}
        )
        if not ok:
            self.passed = False
        self.max_violation = max(self.max_violation, value - bound)

    def to_json(self) -> str:
        """The report without its wall time, so it is byte-identical per seed."""
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
        for rec in self.records:
            writer.writerow([
                self.suite, self.seed, rec["index"], rec["metric"],
                fmt(rec["value"]), fmt(rec["bound"]), int(rec["pass"]),
            ])
        return buf.getvalue()


def fmt(x: float) -> str:
    """17 significant digits: every float output round-trips exactly."""
    return format(float(x), ".17g")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _child_seeds(seed: int, count: int) -> list[np.random.SeedSequence]:
    return list(np.random.SeedSequence(seed).spawn(count))


def _spec_for(d: int, n: int) -> conv.ConvolutionSpec:
    return conv.beam_splitter_spec(d, n) if d >= 7 else conv.default_spec(d, n)


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        report = fn(*args, **kwargs)
        report.wall_time = time.perf_counter() - t0
        return report

    return wrapper


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
    series.  The iteration runs on characteristic tables, all members at
    once, in chunks of at most CLT_CHUNK_VALUES // (members * D^2) steps
    (at least one), so no more than a chunk of tables is held.  Per chunk,
    the norms ||rho_N - M||_2 are taken on the tables by Parseval, and the
    tables are inverted and validated as one stack; the spectra of all
    steps give the entropies, one call per alpha.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    d, n = spec.d, spec.n
    D = d**n
    tables = weyl.char_function(rho).values
    displacement, table0 = magic.make_zero_mean(weyl.CharFunction(d, n, tables))
    mean = weyl.char_function(magic.mean_state(table0)).values
    mg = magic.magic_gap(table0)

    def norms(tables: np.ndarray) -> np.ndarray:
        return np.sqrt((np.abs(tables - mean[..., None, :]) ** 2).sum(axis=-1) / D)

    def chunks():
        # displacing is unitary, so rho_0 has rho's spectrum
        yield norms(table0.values[..., None, :]), rho.eigenvalues()[..., None, :]
        size = max(1, CLT_CHUNK_VALUES // (tables.size or 1))
        table = table0
        for start in range(1, n_max + 1, size):
            steps = []
            for _ in range(start, min(start + size, n_max + 1)):
                table = conv.convolve_characteristic(table, table0, spec)
                steps.append(table.values)
            steps = np.stack(steps, axis=-2)
            chunk = weyl.inverse_char(weyl.CharFunction(d, n, steps))
            yield norms(steps), states.DensityMatrix(d, n, chunk).eigenvalues()

    norm_parts, spectra_parts = zip(*chunks())
    all_norms = np.concatenate(norm_parts, axis=-1)
    spectra = np.concatenate(spectra_parts, axis=-2)
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


@_timed
def suite_duality(seed: int = 0, trials: int = 200) -> ExperimentReport:
    """Matrix-side vs characteristic-side convolution agreement."""
    configs = DUALITY_CONFIGS
    report = ExperimentReport("duality", seed, {"configs": configs, "trials": trials})
    seeds = _child_seeds(seed, 2 * trials)
    devs = {}
    for c, (d, n) in enumerate(configs):
        spec = _spec_for(d, n)
        # trial i runs config i % 3: this config's trials as one stack
        ids = range(c, trials, len(configs))
        ranks = np.array([np.random.default_rng(seeds[2 * i]).integers(1, d**n + 1, size=2)
                          for i in ids]).reshape(-1, 2)
        a = states.random_density([seeds[2 * i] for i in ids], d, n, ranks[:, 0])
        b = states.random_density([seeds[2 * i + 1] for i in ids], d, n, ranks[:, 1])
        lhs = weyl.char_function(conv.convolve(a, b, spec)).values
        rhs = conv.convolve_characteristic(
            weyl.char_function(a), weyl.char_function(b), spec).values
        devs.update(zip(ids, np.abs(lhs - rhs).max(axis=-1).tolist()))
    for i in range(trials):
        d, n = configs[i % len(configs)]
        report.add(i, f"duality_dev_d{d}n{n}", devs[i], DUALITY_TOL)
    return report


@_timed
def suite_entropy(seed: int = 0, trials: int = 100) -> ExperimentReport:
    """H_alpha(rho box sigma) >= max of the inputs, all alpha grids."""
    configs = ENTROPY_CONFIGS
    report = ExperimentReport("entropy", seed, {
        "configs": configs, "trials": trials,
        "alphas": list(ALPHAS_NONNEG), "alphas_full_rank": list(ALPHAS_NEG),
    })
    for d, n in configs:
        spec = _spec_for(d, n)
        seeds = _child_seeds(seed + d, 2 * trials)
        D = d**n
        # even trials are full rank; odd ones draw both ranks from their first seed
        ranks = np.array([(D, D) if i % 2 == 0 else
                          np.random.default_rng(seeds[2 * i]).integers(1, D + 1, size=2)
                          for i in range(trials)])
        a = states.random_density(seeds[0::2], d, n, ranks[:, 0])
        b = states.random_density(seeds[1::2], d, n, ranks[:, 1])
        out = conv.convolve(a, b, spec)
        # (trials, 3, D): a, b and out
        spectra = np.stack([a.eigenvalues(), b.eigenvalues(), out.eigenvalues()], axis=1)
        hs = {alpha: entropy.renyi_spectra(spectra, alpha).tolist()
              for alpha in ALPHAS_NONNEG + ALPHAS_NEG}
        for i in range(trials):
            # the negative alphas only on the full-rank (even) trials
            alphas = ALPHAS_NONNEG + (ALPHAS_NEG if i % 2 == 0 else ())
            for alpha in alphas:
                h_a, h_b, h_out = hs[alpha][i]
                report.add(i, f"entropy_gap_d{d}n{n}_a{alpha}",
                           max(h_a, h_b) - h_out, ENTROPY_TOL)
    return report


@_timed
def suite_fisher(seed: int = 0, trials: int = 100,
                 oracle_cases: int = FISHER_ORACLE_CASES) -> ExperimentReport:
    """J(rho box sigma) <= min of inputs; J matches the finite-difference oracle."""
    configs = FISHER_CONFIGS
    report = ExperimentReport("fisher", seed, {
        "configs": configs, "trials": trials, "oracle_cases": oracle_cases})
    for d, n in configs:
        spec = _spec_for(d, n)
        seeds = _child_seeds(seed + d, 2 * trials)
        a = states.random_density(seeds[0::2], d, n)
        b = states.random_density(seeds[1::2], d, n)
        out = conv.convolve(a, b, spec)
        gaps = entropy.total_fisher(out) - np.minimum(entropy.total_fisher(a),
                                                      entropy.total_fisher(b))
        for i, gap in enumerate(gaps.tolist()):
            report.add(i, f"fisher_gap_d{d}n{n}", gap, FISHER_TOL)
    oracle_seeds = _child_seeds(seed + 1000, oracle_cases)
    for i in range(oracle_cases):
        d = 3 if i % 2 == 0 else 7
        rho = states.random_density(oracle_seeds[i], d, 1)
        rng = np.random.default_rng(oracle_seeds[i])
        j = int(rng.integers(d))
        H = np.zeros((d, d), dtype=complex)
        H[j, j] = 1.0
        dev = abs(entropy.fisher_information(rho, H)
                  - entropy.fisher_fd_oracle(rho, H))
        report.add(i, f"fisher_fd_dev_d{d}", dev, FISHER_FD_TOL)
    return report


@_timed
def suite_monotonicity(seed: int = 0, trials: int = 100) -> ExperimentReport:
    """Trace-norm and relative-entropy contraction under (.) box tau."""
    d, n = 3, 1
    spec = conv.default_spec(d, n)
    report = ExperimentReport("monotonicity", seed, {"d": d, "n": n, "trials": trials})
    seeds = _child_seeds(seed, 3 * trials)
    rho = states.random_density(seeds[0::3], d, n)
    sigma = states.random_density(seeds[1::3], d, n)  # full rank
    tau_ranks = [np.random.default_rng(s).integers(1, d**n + 1) for s in seeds[2::3]]
    tau = states.random_density(seeds[2::3], d, n, tau_ranks)
    rc = conv.convolve(rho, tau, spec)
    sc = conv.convolve(sigma, tau, spec)
    tn_gaps = (linalg.trace_norm(rc.mat - sc.mat)
               - linalg.trace_norm(rho.mat - sigma.mat)).tolist()
    re_gaps = (entropy.relative_entropy(rc, sc)
               - entropy.relative_entropy(rho, sigma)).tolist()
    for i in range(trials):
        report.add(i, "trace_norm_gap", tn_gaps[i], TRACE_MONO_TOL)
        report.add(i, "rel_entropy_gap", re_gaps[i], RELENT_MONO_TOL)
    return report


def _stabilizer_pairs(spec: conv.ConvolutionSpec):
    """The single-qudit pure stabilizer groups, and a boxtimes b for every ordered
    pair (a, b) of their states as one (count, count) stack, a along axis 0."""
    groups = states.enumerate_groups(spec.d, mixed=False)
    mats = states.msps_states(groups).mat
    outs = conv.convolve(states.DensityMatrix(spec.d, 1, mats[:, None]),
                         states.DensityMatrix(spec.d, 1, mats[None]), spec)
    return groups, outs


@_timed
def suite_stability() -> ExperimentReport:
    """All 144 ordered pure-stabilizer pairs at d=3 convolve to MSPS."""
    d = 3
    spec = conv.default_spec(d, 1)
    groups, outs = _stabilizer_pairs(spec)
    report = ExperimentReport("stability", None, {"d": d, "pairs": len(groups) ** 2})
    ok, _ = states.is_msps(weyl.char_function(outs))
    for idx, member_ok in enumerate(ok.ravel().tolist()):
        report.add(idx, "is_msps", 0.0 if member_ok else 1.0, 0.0)
    return report


@_timed
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
    for i, h in enumerate(entropy.renyi_spectra(out.eigenvalues(), 1).tolist()):
        report.add(i, "partner_output_entropy", h, PURE_OUT_TOL)
    h_outs = entropy.renyi_spectra(outs.eigenvalues(), 1).tolist()
    # the enumerated generators are in RREF; bring each partner's to that form
    partner_gens = [tuple(map(tuple, rref_mod(np.array(s.generators), d)[0].tolist()))
                    for s in partners]
    idx = 0
    for ia in range(len(groups)):
        for ib in range(len(groups)):
            h_out = h_outs[ia][ib]
            is_partner = groups[ia].generators == partner_gens[ib]
            consistent = (h_out < PURE_OUT_TOL) == is_partner
            report.add(idx, "zero_entropy_iff_partner",
                       0.0 if consistent else 1.0, 0.0)
            if not is_partner:
                # mismatched pairs must sit well above zero entropy
                report.add(idx, "mismatch_entropy_floor", 0.1, h_out)
            idx += 1
    return report


@_timed
def suite_holevo(seed: int = 0, trials: int = 50) -> ExperimentReport:
    """Capacity sandwich, ensemble lower bound, and the MSPS equality branch."""
    report = ExperimentReport("holevo", seed, {"trials": trials, "d": [3, 7]})
    seeds = _child_seeds(seed, 2 * trials)
    for parity, d in enumerate((3, 7)):
        spec = _spec_for(d, 1)
        # trial i runs d = 3 when i is even, 7 when odd: this d's trials as one stack
        ids = range(parity, trials, 2)
        ranks = [np.random.default_rng(seeds[2 * i]).integers(1, d + 1) for i in ids]
        sigma = states.random_density([seeds[2 * i] for i in ids], d, 1, ranks)
        rho0 = states.random_density([seeds[2 * i + 1] for i in ids], d, 1, 1)
        lower, upper = conv.holevo_bounds(spec, sigma)
        ensemble = conv.holevo_weyl_ensemble(spec, sigma, rho0)
        for i, order, below in zip(ids, (lower - upper).tolist(), (ensemble - upper).tolist()):
            report.add(i, f"sandwich_order_d{d}", order, HOLEVO_TOL)
            report.add(i, f"ensemble_below_upper_d{d}", below, HOLEVO_TOL)
    # a stable sort by trial: each trial's two records stay in their order
    report.records.sort(key=lambda rec: rec["index"])
    # equality branch: sigma an MSPS at d=3; some enumerated rho0 meets the bound
    d = MSPS_D
    spec = conv.default_spec(d, 1)
    candidates = states.msps_states(states.enumerate_groups(d))
    _, upper = conv.holevo_bounds(spec, candidates)
    # sigma along axis 0, rho0 along axis 1
    best = conv.holevo_weyl_ensemble(
        spec, states.DensityMatrix(d, 1, candidates.mat[:, None]),
        states.DensityMatrix(d, 1, candidates.mat[None])).max(axis=1)
    for j, gap in enumerate((upper - best).tolist()):
        report.add(j, "msps_equality_gap", gap, HOLEVO_TOL)
    # pure stabilizer sigma (all but the last, mixed, member): bounds collapse to log2 d
    cap = float(np.log2(d))
    lower, upper = conv.holevo_bounds(spec, candidates[:-1])
    collapse = np.maximum(np.abs(lower - cap), np.abs(upper - cap))
    for j, dev in enumerate(collapse.tolist()):
        report.add(j, "stab_bounds_collapse", dev, HOLEVO_TOL)
    return report


@_timed
def suite_synthesis(seed: int = 0, trials: int = 100) -> ExperimentReport:
    """LMG growth of Clifford+T circuits is at most N/2 on stabilizer inputs."""
    report = ExperimentReport("synthesis", seed, {"trials": trials, "max_t": 3})
    seeds = _child_seeds(seed, trials)
    # trial i runs n = 1 + i % 2: per n the T counts and gate sequences (the
    # input Clifford word at n = 2, then the circuit), from each trial's rng
    draws = {1: [], 2: []}
    for i in range(trials):
        rng = np.random.default_rng(seeds[i])
        n = 1 + i % 2
        n_t = int(rng.integers(0, 4))
        circuit = magic.draw_clifford_t(int(rng.integers(2**32)), n, n_t)
        if n == 2:
            circuit = np.concatenate([magic.draw_clifford_word(rng, 2, n), circuit])
        draws[n].append((n_t, circuit))
    lmg = {}
    for n, drawn in draws.items():
        if not drawn:
            continue
        n_t, circuits = np.array([k for k, _ in drawn]), [c for _, c in drawn]
        # one product per T count, which fixes the length, into one stack per n
        U = np.empty((len(drawn), 2**n, 2**n), dtype=complex)
        for k in set(n_t.tolist()):  # np.unique would import numpy.ma: 1 MB of RSS
            rows = np.flatnonzero(n_t == k)
            U[rows] = magic.clifford_words(np.array([circuits[i] for i in rows]), 2, n)
        base = states.ket_state(2, n, [0] * n).mat
        out = states.DensityMatrix(2, n, U @ base @ U.conj().swapaxes(-1, -2))
        lmg[n] = (magic.log_magic_gap(weyl.char_function(out)) - n_t / 2).tolist()
    for i in range(trials):
        n = 1 + i % 2
        report.add(i, f"lmg_minus_halfN_n{n}", lmg[n][i // 2], SYNTH_TOL)
    return report


@_timed
def suite_extremality(seed: int = 0, trials: int = 50) -> ExperimentReport:
    """Exhaustive MSPS minimization of D_alpha is attained uniquely at M(rho)."""
    d = MSPS_D
    msps = states.msps_states(states.enumerate_groups(d))
    count = len(msps.mat)
    report = ExperimentReport("extremality", seed, {
        "d": d, "trials": trials, "alphas": [1, 2, "inf"]})
    seeds = _child_seeds(seed, trials)
    # MSPS inputs (i % 5 == 4) exercise the uniqueness margin against all
    # 12 others; every other trial draws a random state of random rank
    drawn = [i for i in range(trials) if i % 5 != 4]
    ranks = [np.random.default_rng(seeds[i]).integers(1, d + 1) for i in drawn]
    mats = msps.mat[np.arange(trials) % count]
    mats[drawn] = states.random_density([seeds[i] for i in drawn], d, 1, ranks).mat
    # (trials, 1) against the (count,) MSPS stack: one grid per alpha
    rho = states.DensityMatrix(d, 1, mats[:, None])
    M = magic.mean_state(weyl.char_function(rho))
    # an MSPS this close to M(rho) is M(rho) and gets no margin
    skip = (np.abs(msps.mat - M.mat).max(axis=(-2, -1)) < MEAN_MATCH_TOL).tolist()
    identity, d_mean, d_other = {}, {}, {}
    for alpha in ALPHAS_EXTREMALITY:
        to_mean = entropy.sandwiched_relative_entropy(rho, M, alpha)[:, 0]
        gap = (entropy.renyi_spectra(M.eigenvalues(), alpha)
               - entropy.renyi_spectra(rho.eigenvalues(), alpha))[:, 0]
        identity[alpha] = np.abs(to_mean - gap).tolist()
        d_mean[alpha] = to_mean.tolist()
        d_other[alpha] = entropy.sandwiched_relative_entropy(rho, msps, alpha).tolist()
    for i in range(trials):
        for alpha in ALPHAS_EXTREMALITY:
            report.add(i, f"identity_dev_a{alpha}", identity[alpha][i], EXTREMALITY_TOL)
            for j, other in enumerate(d_other[alpha][i]):
                if skip[i][j] or other == INF:
                    continue
                # strict uniqueness: every other finite MSPS exceeds the minimum
                report.add(i, f"uniqueness_margin_a{alpha}_s{j}",
                           d_mean[alpha][i] + EXTREMALITY_TOL - other, 0.0)
    return report


@_timed
def suite_clt(seed: int = 0, trials: int = 50, steps: int = CLT_STEPS) -> ExperimentReport:
    """Norm decay bound, fitted slope, and second law along CLT trajectories."""
    d, n = 7, 1
    spec = conv.beam_splitter_spec(d, n)
    report = ExperimentReport("clt", seed, {
        "d": d, "n": n, "steps": steps, "trials": trials,
        "s_t": list(find_beam_splitter_params(d)),
        "alphas": [0.5, 1, 2, "inf"]})
    seeds = _child_seeds(seed, trials)
    # even trials are pure; odd ones draw their rank from their own seed
    ranks = [1 if i % 2 == 0 else int(np.random.default_rng(seeds[i]).integers(1, d + 1))
             for i in range(trials)]
    series = clt_run(states.random_density(seeds, d, n, ranks), spec, steps)
    gaps = np.max(series.norms - series.bounds, axis=-1).tolist()
    # a single state has no drop; with steps, the largest may be negative
    drops = {alpha: np.max(hs[:, :-1] - hs[:, 1:], axis=-1).tolist() if steps
             else [0.0] * trials for alpha, hs in series.entropies.items()}
    for i, (norms, mg) in enumerate(zip(series.norms, series.mg.tolist())):
        report.add(i, "norm_bound_gap", gaps[i], CLT_TOL)
        slope = log_slope(norms)
        if slope is not None and mg < 1:
            report.add(i, "log_slope_gap", slope - math.log(1 - mg), SLOPE_TOL)
        for alpha, drop in drops.items():
            report.add(i, f"second_law_drop_a{alpha}", drop[i], SECOND_LAW_TOL)
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
