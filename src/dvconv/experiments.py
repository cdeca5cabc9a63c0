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
        ok = value <= bound
        self.records.append(
            {"index": index, "metric": metric, "value": float(value),
             "bound": float(bound), "pass": ok}
        )
        if not ok:
            self.passed = False
        self.max_violation = max(self.max_violation, float(value - bound))

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
    """Norm/bound/entropy records along an iterated-convolution trajectory."""

    d: int
    n: int
    displacement: tuple[int, ...]
    mg: float
    base_norm: float
    steps: list[dict]

    def log_slope(self) -> float | None:
        """Least-squares slope of ln(norm) vs N over steps with norm > 1e-12."""
        pts = [(s["N"], s["norm"]) for s in self.steps if s["norm"] > 1e-12]
        if len(pts) < 2:
            return None
        xs = np.array([p[0] for p in pts], dtype=float)
        ys = np.log([p[1] for p in pts])
        return float(np.polyfit(xs, ys, 1)[0])


def clt_run(rho: states.DensityMatrix, spec: conv.ConvolutionSpec,
            n_max: int) -> CltSeries:
    """Iterate the beam-splitter convolution and record norms and entropies.

    Non-zero-mean inputs are displaced to zero mean first, on the table;
    the applied displacement is recorded in the series.  The iteration runs
    on characteristic tables, in chunks of at most GATHER_BUDGET // D^2
    steps (at least one), so no more than a chunk of tables is held.  Per
    chunk, the norms ||rho_N - M||_2 are taken on the tables by Parseval, and the
    tables are inverted and validated as one stack whose spectra give the
    entropies.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    displacement, table0 = magic.make_zero_mean(weyl.char_function(rho))
    d, n = spec.d, spec.n
    D = d**n
    mean = weyl.char_function(magic.mean_state(table0)).values
    mg = magic.magic_gap(table0)

    def norms(tables: np.ndarray) -> np.ndarray:
        return np.sqrt((np.abs(tables - mean) ** 2).sum(axis=-1) / D)

    def chunks():
        # displacing is unitary, so rho_0 has rho's spectrum
        yield table0.values[None], rho.eigenvalues()[None]
        size = max(1, conv.GATHER_BUDGET // D**2)
        table = table0
        for start in range(1, n_max + 1, size):
            tables = []
            for _ in range(start, min(start + size, n_max + 1)):
                table = conv.convolve_characteristic(table, table0, spec)
                tables.append(table.values)
            tables = np.array(tables)
            yield tables, states.validated_spectra(d, n, weyl.inverse_tables(d, n, tables))

    base = float(norms(table0.values))
    steps = []
    for tables, spectra in chunks():
        hs = {a: entropy.renyi_spectra(spectra, a).tolist() for a in ALPHAS_SECOND_LAW}
        for k, norm in enumerate(norms(tables).tolist()):
            N = len(steps)
            steps.append({
                "N": N,
                "norm": norm,
                "bound": (1 - mg) ** N * base,
                "entropies": {a: h[k] for a, h in hs.items()},
            })
    return CltSeries(d, n, displacement, mg, base, steps)


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
PURE_OUT_TOL = 1e-9
HOLEVO_TOL = 1e-9
SYNTH_TOL = 1e-9
CLT_TOL = 1e-9
SLOPE_TOL = 1e-6
SECOND_LAW_TOL = 1e-8


@_timed
def suite_duality(seed: int = 0, trials: int = 200) -> ExperimentReport:
    """Matrix-side vs characteristic-side convolution agreement."""
    configs = [(3, 1), (3, 2), (7, 1)]
    report = ExperimentReport("duality", seed, {"configs": configs, "trials": trials})
    seeds = _child_seeds(seed, 2 * trials)
    for i in range(trials):
        d, n = configs[i % len(configs)]
        spec = _spec_for(d, n)
        rng = np.random.default_rng(seeds[2 * i])
        ranks = rng.integers(1, d**n + 1, size=2)
        a = states.random_density(seeds[2 * i], d, n, int(ranks[0]))
        b = states.random_density(seeds[2 * i + 1], d, n, int(ranks[1]))
        lhs = weyl.char_function(conv.convolve(a, b, spec)).values
        rhs = conv.convolve_characteristic(
            weyl.char_function(a), weyl.char_function(b), spec).values
        report.add(i, f"duality_dev_d{d}n{n}",
                   float(np.max(np.abs(lhs - rhs))), DUALITY_TOL)
    return report


@_timed
def suite_entropy(seed: int = 0, trials: int = 100) -> ExperimentReport:
    """H_alpha(rho box sigma) >= max of the inputs, all alpha grids."""
    configs = [(3, 1), (7, 1)]
    report = ExperimentReport("entropy", seed, {
        "configs": configs, "trials": trials,
        "alphas": list(ALPHAS_NONNEG), "alphas_full_rank": list(ALPHAS_NEG),
    })
    for d, n in configs:
        spec = _spec_for(d, n)
        seeds = _child_seeds(seed + d, 2 * trials)
        trial_spectra = []
        for i in range(trials):
            rng = np.random.default_rng(seeds[2 * i])
            full_rank = i % 2 == 0
            D = d**n
            ranks = (D, D) if full_rank else tuple(rng.integers(1, D + 1, size=2))
            a = states.random_density(seeds[2 * i], d, n, int(ranks[0]))
            b = states.random_density(seeds[2 * i + 1], d, n, int(ranks[1]))
            out = conv.convolve(a, b, spec)
            trial_spectra.append((a.eigenvalues(), b.eigenvalues(), out.eigenvalues()))
        spectra = np.array(trial_spectra)  # (trials, 3, D): a, b and out
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
def suite_fisher(seed: int = 0, trials: int = 100, oracle_cases: int = 20) -> ExperimentReport:
    """J(rho box sigma) <= min of inputs; J matches the finite-difference oracle."""
    configs = [(3, 1), (7, 1)]
    report = ExperimentReport("fisher", seed, {
        "configs": configs, "trials": trials, "oracle_cases": oracle_cases})
    for d, n in configs:
        spec = _spec_for(d, n)
        seeds = _child_seeds(seed + d, 2 * trials)
        for i in range(trials):
            a = states.random_density(seeds[2 * i], d, n)
            b = states.random_density(seeds[2 * i + 1], d, n)
            out = conv.convolve(a, b, spec)
            gap = entropy.total_fisher(out) - min(entropy.total_fisher(a),
                                                  entropy.total_fisher(b))
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
    for i in range(trials):
        rho = states.random_density(seeds[3 * i], d, n)
        sigma = states.random_density(seeds[3 * i + 1], d, n)  # full rank
        rng = np.random.default_rng(seeds[3 * i + 2])
        tau = states.random_density(seeds[3 * i + 2], d, n,
                                    int(rng.integers(1, d**n + 1)))
        rc = conv.convolve(rho, tau, spec)
        sc = conv.convolve(sigma, tau, spec)
        tn_gap = linalg.trace_norm(rc.mat - sc.mat) \
            - linalg.trace_norm(rho.mat - sigma.mat)
        report.add(i, "trace_norm_gap", tn_gap, TRACE_MONO_TOL)
        re_gap = entropy.relative_entropy(rc, sc) - entropy.relative_entropy(rho, sigma)
        report.add(i, "rel_entropy_gap", re_gap, RELENT_MONO_TOL)
    return report


@_timed
def suite_stability() -> ExperimentReport:
    """All 144 ordered pure-stabilizer pairs at d=3 convolve to MSPS."""
    d = 3
    spec = conv.default_spec(d, 1)
    stabs = states.enumerate_pure_stabilizers(d)
    report = ExperimentReport("stability", None, {"d": d, "pairs": len(stabs) ** 2})
    idx = 0
    for a in stabs:
        for b in stabs:
            ok, _ = states.is_msps(weyl.char_function(conv.convolve(a, b, spec)))
            report.add(idx, "is_msps", 0.0 if ok else 1.0, 0.0)
            idx += 1
    return report


@_timed
def suite_min_output() -> ExperimentReport:
    """Zero output entropy occurs exactly at partner-related label pairs (d=3)."""
    d = 3
    spec = conv.default_spec(d, 1)
    report = ExperimentReport("min_output", None, {"d": d})
    for i, line in enumerate(states.line_generators(d)):
        s2 = states.StabilizerGroup(d, 1, (line,), (0,))
        s1 = conv.partner_stabilizer_group(s2, spec)
        out = conv.convolve(states.msps_from_group(s1),
                            states.msps_from_group(s2), spec)
        report.add(i, "partner_output_entropy",
                   entropy.renyi_entropy(out, 1), PURE_OUT_TOL)
    stabs = states.enumerate_pure_stabilizers(d)
    groups = [states.is_msps(weyl.char_function(s))[1] for s in stabs]
    # is_msps returns RREF generators; bring each partner's to the same form
    partner_gens = [tuple(map(tuple, rref_mod(np.array(
        conv.partner_stabilizer_group(g, spec).generators), d)[0].tolist()))
        for g in groups]
    idx = 0
    for ia, a in enumerate(stabs):
        for ib, b in enumerate(stabs):
            h_out = entropy.renyi_entropy(conv.convolve(a, b, spec), 1)
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
    for i in range(trials):
        d = 3 if i % 2 == 0 else 7
        spec = _spec_for(d, 1)
        rng = np.random.default_rng(seeds[2 * i])
        sigma = states.random_density(seeds[2 * i], d, 1, int(rng.integers(1, d + 1)))
        lower, upper = conv.holevo_bounds(spec, sigma)
        report.add(i, f"sandwich_order_d{d}", lower - upper, HOLEVO_TOL)
        rho0 = states.random_density(seeds[2 * i + 1], d, 1, 1)
        val = conv.holevo_weyl_ensemble(spec, sigma, rho0)
        report.add(i, f"ensemble_below_upper_d{d}", val - upper, HOLEVO_TOL)
    # equality branch: sigma an MSPS at d=3; some enumerated rho0 meets the bound
    d = 3
    spec = conv.default_spec(d, 1)
    candidates = states.enumerate_msps(d)
    for j, sigma in enumerate(candidates):
        _, upper = conv.holevo_bounds(spec, sigma)
        best = -INF
        for rho0 in candidates:
            best = max(best, conv.holevo_weyl_ensemble(spec, sigma, rho0))
        report.add(j, "msps_equality_gap", upper - best, HOLEVO_TOL)
    # pure stabilizer sigma: bounds collapse to n log2 d
    cap = float(np.log2(d))
    for j, sigma in enumerate(states.enumerate_pure_stabilizers(d)):
        lower, upper = conv.holevo_bounds(spec, sigma)
        report.add(j, "stab_bounds_collapse",
                   max(abs(lower - cap), abs(upper - cap)), HOLEVO_TOL)
    return report


@_timed
def suite_synthesis(seed: int = 0, trials: int = 100) -> ExperimentReport:
    """LMG growth of Clifford+T circuits is at most N/2 on stabilizer inputs."""
    report = ExperimentReport("synthesis", seed, {"trials": trials, "max_t": 3})
    seeds = _child_seeds(seed, trials)
    for i in range(trials):
        rng = np.random.default_rng(seeds[i])
        n = 1 + i % 2
        n_t = int(rng.integers(0, 4))
        circuit_seed = int(rng.integers(2**32))
        V = magic.clifford_t_circuit(circuit_seed, n, n_t)
        if i % 2 == 0:
            ket = states.ket_state(2, n, [0] * n)
        else:
            U = magic.random_clifford(rng, 2, n)
            base = states.ket_state(2, n, [0] * n)
            ket = states.DensityMatrix(2, n, U @ base.mat @ U.conj().T)
        out = states.DensityMatrix(2, n, V @ ket.mat @ V.conj().T)
        report.add(i, f"lmg_minus_halfN_n{n}",
                   magic.log_magic_gap(weyl.char_function(out)) - n_t / 2, SYNTH_TOL)
    return report


@_timed
def suite_extremality(seed: int = 0, trials: int = 50) -> ExperimentReport:
    """Exhaustive MSPS minimization of D_alpha is attained uniquely at M(rho)."""
    d = 3
    msps_set = states.enumerate_msps(d)
    report = ExperimentReport("extremality", seed, {
        "d": d, "trials": trials, "alphas": [1, 2, "inf"]})
    seeds = _child_seeds(seed, trials)
    for i in range(trials):
        if i % 5 == 4:
            # MSPS inputs exercise the uniqueness margin against all 12 others
            rho = msps_set[i % len(msps_set)]
        else:
            rng = np.random.default_rng(seeds[i])
            rank = int(rng.integers(1, d + 1))
            rho = states.random_density(seeds[i], d, 1, rank)
        M = magic.mean_state(weyl.char_function(rho))
        for alpha in ALPHAS_EXTREMALITY:
            d_mean = entropy.sandwiched_relative_entropy(rho, M, alpha)
            identity_dev = abs(
                d_mean - (entropy.renyi_entropy(M, alpha)
                          - entropy.renyi_entropy(rho, alpha)))
            report.add(i, f"identity_dev_a{alpha}", identity_dev, EXTREMALITY_TOL)
            for j, sigma in enumerate(msps_set):
                if np.max(np.abs(sigma.mat - M.mat)) < 1e-9:
                    continue
                d_other = entropy.sandwiched_relative_entropy(rho, sigma, alpha)
                if d_other == INF:
                    continue
                # strict uniqueness: every other finite MSPS exceeds the minimum
                report.add(i, f"uniqueness_margin_a{alpha}_s{j}",
                           d_mean + EXTREMALITY_TOL - d_other, 0.0)
    return report


@_timed
def suite_clt(seed: int = 0, trials: int = 50, steps: int = 30) -> ExperimentReport:
    """Norm decay bound, fitted slope, and second law along CLT trajectories."""
    d, n = 7, 1
    spec = conv.beam_splitter_spec(d, n)
    report = ExperimentReport("clt", seed, {
        "d": d, "n": n, "steps": steps, "trials": trials,
        "s_t": list(find_beam_splitter_params(d)),
        "alphas": [0.5, 1, 2, "inf"]})
    seeds = _child_seeds(seed, trials)
    for i in range(trials):
        rng = np.random.default_rng(seeds[i])
        rank = 1 if i % 2 == 0 else int(rng.integers(1, d + 1))
        rho = states.random_density(seeds[i], d, n, rank)
        series = clt_run(rho, spec, steps)
        worst = max(s["norm"] - s["bound"] for s in series.steps)
        report.add(i, "norm_bound_gap", worst, CLT_TOL)
        slope = series.log_slope()
        if slope is not None and series.mg < 1:
            report.add(i, "log_slope_gap",
                       slope - math.log(1 - series.mg), SLOPE_TOL)
        for alpha in ALPHAS_SECOND_LAW:
            hs = [s["entropies"][alpha] for s in series.steps]
            worst_drop = max(
                (hs[k] - hs[k + 1] for k in range(len(hs) - 1)), default=0.0)
            report.add(i, f"second_law_drop_a{alpha}", worst_drop, SECOND_LAW_TOL)
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
