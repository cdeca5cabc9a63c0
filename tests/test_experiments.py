import json
import math
import tracemalloc

import numpy as np
import pytest

from dvconv import conv, entropy, experiments, magic, states, weyl
from dvconv.conv import beam_splitter_spec
from dvconv.experiments import ALPHAS_SECOND_LAW, ExperimentReport, clt_run
from dvconv.states import DensityMatrix, enumerate_msps, ket_state, random_density
from oracles import dense_clt, per_trial_records


def test_report_accumulation():
    report = ExperimentReport("demo", 0, {})
    report.add(0, "m", 0.5, 1.0)
    report.add(1, "m", 2.0, 1.0)
    assert not report.passed
    assert report.max_violation == 1.0
    obj = json.loads(report.to_json())
    assert obj["suite"] == "demo" and len(obj["records"]) == 2


def test_report_csv_format():
    report = ExperimentReport("demo", 3, {})
    report.add(0, "m", 1 / 3, 1.0)
    lines = report.to_csv().splitlines()
    assert lines[0] == "suite,seed,index,metric,value,bound,pass"
    assert lines[1] == "demo,3,0,m,0.33333333333333331,1,1"


def test_report_add_takes_numpy_scalars():
    report = ExperimentReport("demo", 0, {})
    report.add(0, "m", np.float64(1.0), 2.0)
    report.add(1, "m", np.float32(0.5), np.float64(0.25))
    for rec in report.records:
        assert type(rec["pass"]) is bool
        assert type(rec["value"]) is float and type(rec["bound"]) is float
    assert type(report.max_violation) is float
    obj = json.loads(report.to_json())
    assert [(r["value"], r["bound"], r["pass"]) for r in obj["records"]] == [
        (1.0, 2.0, True), (0.5, 0.25, False)]
    assert obj["max_violation"] == 0.25 and not obj["passed"]


def test_clt_run_msps_fixed_point():
    spec = beam_splitter_spec(7, 1)
    from dvconv.states import maximally_mixed

    series = clt_run(maximally_mixed(7, 1), spec, 3)
    assert series.norms.shape == (4,) and (series.norms < 1e-12).all()


def test_clt_run_bound_and_second_law():
    spec = beam_splitter_spec(7, 1)
    rho = random_density(0, 7, 1, rank=1)
    series = clt_run(rho, spec, 8)
    assert (series.norms <= series.bounds + 1e-9).all()
    assert list(series.entropies) == list(experiments.ALPHAS_SECOND_LAW)
    for hs in series.entropies.values():
        assert (hs[1:] >= hs[:-1] - 1e-8).all()
    slope = experiments.log_slope(series.norms)
    assert slope is not None
    assert slope <= math.log(1 - series.mg) + 1e-6


def _displaced_product(seed):
    """|3><3| (x) tau at (7,2): the only input here with a nonzero displacement."""
    tau = random_density(seed, 7, 1, rank=3)
    return DensityMatrix(7, 2, np.kron(ket_state(7, 1, [3]).mat, tau.mat))


@pytest.mark.parametrize("n, steps, inputs", [
    pytest.param(1, 30, "random", id="1-30"),
    pytest.param(2, 12, "random", id="2-12"),
    pytest.param(2, 12, "displaced", id="2-12-displaced"),
])
def test_clt_run_matches_dense_iteration(n, steps, inputs):
    """The table-side iteration against the matrix-side one, pure and mixed,
    and from an input that must be displaced to zero mean first."""
    spec = beam_splitter_spec(7, n)
    if inputs == "random":
        cases = [random_density(seed, 7, n, rank)
                 for seed, rank in ((0, 1), (1, 1), (2, 3), (3, None))]
    else:
        cases = [_displaced_product(seed) for seed in (0, 1)]
    for rho in cases:
        series = clt_run(rho, spec, steps)
        if inputs == "displaced":
            assert series.displacement.tolist() == [0, 0, 4, 0]
        norms, entropies = dense_clt(rho, spec, steps, ALPHAS_SECOND_LAW)
        assert series.norms.shape == series.bounds.shape == (steps + 1,)
        assert np.max(np.abs(series.norms - norms)) <= 1e-12
        for alpha in ALPHAS_SECOND_LAW:
            dense = [hs[alpha] for hs in entropies]
            assert np.max(np.abs(series.entropies[alpha] - dense)) <= 1e-10


def test_clt_bounds_are_python_powers():
    series = clt_run(random_density(7, 7, 1, rank=1), beam_splitter_spec(7, 1), 30)
    assert series.bounds.tolist() == [(1 - series.mg) ** N * series.norms[0]
                                      for N in range(31)]


def test_clt_run_refuses_a_negative_step_count():
    with pytest.raises(ValueError, match="n_max"):
        clt_run(random_density(0, 7, 1, rank=1), beam_splitter_spec(7, 1), -1)


@pytest.mark.parametrize("budget", [49, 4 * 49, 7 * 49])
def test_clt_run_does_not_depend_on_the_chunk_size(monkeypatch, budget):
    spec = beam_splitter_spec(7, 1)
    rho = random_density(4, 7, 1, rank=2)
    whole = clt_run(rho, spec, 30)  # one chunk of 30 steps at D = 7
    monkeypatch.setattr(experiments, "CLT_CHUNK_VALUES", budget)  # chunks of 1, 4 and 7 steps
    chunked = clt_run(rho, spec, 30)
    assert chunked.norms.tobytes() == whole.norms.tobytes()
    assert chunked.bounds.tobytes() == whole.bounds.tobytes()
    for alpha, hs in whole.entropies.items():
        assert chunked.entropies[alpha].tobytes() == hs.tobytes()


def test_clt_run_validates_each_chunk_with_one_eigensolve(monkeypatch):
    spec = beam_splitter_spec(7, 1)
    rho = random_density(5, 7, 1, rank=3)
    calls = []
    solver = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return solver(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    clt_run(rho, spec, 0)
    before = len(calls)
    clt_run(rho, spec, 30)
    # past the set-up solves of step 0, steps 1..30 make one chunk at D = 7
    # and one stacked solve
    assert calls[2 * before:] == [(30, 7, 7)]


def test_clt_run_chunks_count_values_over_the_whole_stack(monkeypatch):
    spec = beam_splitter_spec(7, 1)
    rho = random_density(list(range(10)), 7, 1, 3)
    calls = []
    solver = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return solver(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    clt_run(rho, spec, 30)
    # 2^12 // (10 * 49) = 8 steps per chunk, after the mean states' solve
    assert calls[1:] == [(10, 8, 7, 7)] * 3 + [(10, 6, 7, 7)]


def test_clt_run_memory_at_d343():
    spec = beam_splitter_spec(7, 3)
    rho = random_density(1, 7, 3, rank=1)
    clt_run(rho, spec, 1)  # fills the per-(d, n) tables
    tracemalloc.start()
    try:
        series = clt_run(rho, spec, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series.norms) == 31
    # a chunk holds one table at D = 343; all 31 would be 58 MB
    assert peak <= 32 * 2**20


def test_suites_reproducible():
    a = experiments.suite_duality(seed=5, trials=6)
    b = experiments.suite_duality(seed=5, trials=6)
    assert a.records == b.records
    assert a.passed


def test_all_suites_registered_and_pass_small():
    assert set(experiments.SUITES) == {
        "duality", "entropy", "fisher", "monotonicity", "stability",
        "min-output", "holevo", "synthesis", "extremality", "clt",
    }
    small = {
        "duality": dict(seed=0, trials=6),
        "entropy": dict(seed=0, trials=4),
        "fisher": dict(seed=0, trials=4),
        "monotonicity": dict(seed=0, trials=6),
        "stability": dict(),
        "min-output": dict(),
        "holevo": dict(seed=0, trials=4),
        "synthesis": dict(seed=0, trials=10),
        "extremality": dict(seed=0, trials=5),
        "clt": dict(seed=0, trials=2, steps=6),
    }
    for name, kwargs in small.items():
        report = experiments.SUITES[name](**kwargs)
        assert report.passed, f"{name}: max violation {report.max_violation}"


def test_extremality_covers_msps_inputs():
    report = experiments.suite_extremality(seed=0, trials=10)
    metrics = {r["metric"].split("_s")[0] for r in report.records}
    assert any(m.startswith("uniqueness_margin") for m in metrics)


def test_extremality_msps_input_has_no_margin_against_itself():
    """Trial 4 is the pure MSPS msps_set[4]: its mean state is itself, within
    MEAN_MATCH_TOL, and of the others only I/3 gives a finite divergence."""
    msps_set = enumerate_msps(experiments.MSPS_D)
    mixed = [j for j, s in enumerate(msps_set) if np.linalg.matrix_rank(s.mat) > 1]
    assert mixed == [12]
    report = experiments.suite_extremality(seed=0, trials=5)
    margins = [r["metric"] for r in report.records
               if r["index"] == 4 and r["metric"].startswith("uniqueness_margin")]
    assert margins == [f"uniqueness_margin_a{alpha}_s12"
                       for alpha in experiments.ALPHAS_EXTREMALITY]


def test_log_slope_keeps_only_norms_above_the_floor():
    """Of two norms a hair either side of SLOPE_NORM_FLOOR, the fit keeps the
    upper one: the slope is that of steps 0 and 1 alone."""
    floor = experiments.SLOPE_NORM_FLOOR
    norms = np.array([1.0, floor * (1 + 1e-3), floor * (1 - 1e-3)])
    assert experiments.log_slope(norms) == pytest.approx(math.log(norms[1]), rel=1e-12)


@pytest.mark.parametrize("name, trials", [
    ("duality", 6), ("entropy", 6), ("fisher", 6), ("monotonicity", 6),
    ("duality", 2),  # fewer trials than configs: one config's stack is empty
    ("synthesis", 7), ("synthesis", 1),  # 1: the n = 2 stack is empty
    ("extremality", 11), ("extremality", 1),
    ("extremality", 4),  # no MSPS input
    ("extremality", 0),  # empty stacks
    ("clt", 5), ("clt", 1),
    ("stability", None),  # no seed, no trials: every ordered pure pair
])
def test_stacked_suites_match_the_per_trial_oracle(name, trials):
    report = experiments.SUITES[name](**({} if trials is None else dict(seed=0, trials=trials)))
    records = [(r["index"], r["metric"], r["value"]) for r in report.records]
    assert records == per_trial_records(name, 0, trials)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("trials", [1, 2, 5])  # 1: the d = 7 stack is empty
def test_stacked_holevo_matches_the_per_trial_oracle(seed, trials):
    report = experiments.suite_holevo(seed=seed, trials=trials)
    records = [(r["index"], r["metric"], r["value"]) for r in report.records]
    assert records == per_trial_records("holevo", seed, trials)


@pytest.mark.parametrize("trials", [1, 4, 9])
def test_suite_holevo_calls_each_bound_once_per_stack(monkeypatch, trials):
    calls = {"holevo_bounds": 0, "holevo_weyl_ensemble": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(conv, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(conv, name, counted)
    assert experiments.suite_holevo(seed=0, trials=trials).passed
    # one per d for both, the MSPS grid for both, and the pure members' bounds
    assert calls == {"holevo_bounds": 4, "holevo_weyl_ensemble": 3}


@pytest.mark.parametrize("name, trials, most", [
    ("entropy", 100, 6),  # 2 configs x (a, b, out)
    ("duality", 200, 9),  # 3 configs x (a, b, out)
    ("monotonicity", 100, 5),  # rho, sigma, tau and the two outputs
    # the MSPS stack, the draw, the input stack and its mean states
    ("extremality", 50, 4), ("extremality", 200, 4),
    ("synthesis", 100, 6), ("synthesis", 300, 6),  # 2 n x (|0..0>, outputs): 4
    # the draw, the mean states and at most one chunk per step
    ("clt", 50, 2 + experiments.CLT_STEPS), ("clt", 200, 2 + experiments.CLT_STEPS),
])
def test_stacked_suites_validate_once_per_stack(monkeypatch, name, trials, most):
    checks = []
    post_init = DensityMatrix.__post_init__

    def counted(self):
        checks.append(self.mat.shape)
        post_init(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
    assert experiments.SUITES[name](seed=0, trials=trials).passed
    assert len(checks) <= most, checks


@pytest.mark.parametrize("trials", [1, 3, 50])
def test_suite_clt_convolves_once_per_step(monkeypatch, trials):
    calls = []
    step = conv.convolve_characteristic

    def counted(*args):
        calls.append(args[0].values.shape)
        return step(*args)

    monkeypatch.setattr(conv, "convolve_characteristic", counted)
    assert experiments.suite_clt(seed=0, trials=trials, steps=6).passed
    assert calls == [(trials, 49)] * 6


@pytest.mark.parametrize("trials", [1, 4, 50])
def test_suite_extremality_makes_two_divergence_calls_per_alpha(monkeypatch, trials):
    calls = []
    divergence = entropy.sandwiched_relative_entropy

    def counted(rho, sigma, alpha):
        calls.append(alpha)
        return divergence(rho, sigma, alpha)

    monkeypatch.setattr(entropy, "sandwiched_relative_entropy", counted)
    assert experiments.suite_extremality(seed=0, trials=trials).passed
    assert calls == [alpha for alpha in experiments.ALPHAS_EXTREMALITY for _ in range(2)]


def test_suite_stability_recovers_each_distinct_support_once(monkeypatch):
    """One rref_mod per distinct unit support of the 144 output tables, and
    one is_msps call for all of them."""
    calls = {"rref_mod": [], "is_msps": 0}
    rref, detect = states.rref_mod, states.is_msps

    def counted_rref(A, d):
        calls["rref_mod"].append(np.asarray(A).tobytes())
        return rref(A, d)

    def counted_detect(table):
        calls["is_msps"] += 1
        return detect(table)

    monkeypatch.setattr(states, "rref_mod", counted_rref)
    monkeypatch.setattr(states, "is_msps", counted_detect)
    assert experiments.suite_stability().passed
    assert calls["is_msps"] == 1
    # the labels each call reduces are one support's: no support twice
    assert len(calls["rref_mod"]) == len(set(calls["rref_mod"]))
    groups, outs = experiments._stabilizer_pairs(conv.default_spec(3, 1))
    unit = states.unit_phases(weyl.char_function(outs).values) != 0
    assert len(calls["rref_mod"]) == len(np.unique(unit.reshape(-1, 9), axis=0))


@pytest.mark.parametrize("trials", [1, 50])
def test_clt_run_makes_one_zero_mean_pass(monkeypatch, trials):
    calls = []
    shift = magic.make_zero_mean

    def counted(table):
        calls.append(table.values.shape)
        return shift(table)

    monkeypatch.setattr(magic, "make_zero_mean", counted)
    assert experiments.suite_clt(seed=0, trials=trials, steps=2).passed
    assert calls == [(trials, 49)]


def test_suite_synthesis_multiplies_stacked_words_only(monkeypatch):
    """No one-row Clifford call: the gate sequences of a pass are drawn,
    then multiplied in one clifford_words call per distinct (n, length)."""
    calls = {"random_clifford": 0, "clifford_t_circuit": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(magic, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(magic, name, counted)
    stacks = []
    multiply = magic.clifford_words

    def counted_words(words, d, n):
        stacks.append((n,) + np.shape(words))
        return multiply(words, d, n)

    monkeypatch.setattr(magic, "clifford_words", counted_words)
    assert experiments.suite_synthesis(seed=0, trials=100).passed
    assert calls == {"random_clifford": 0, "clifford_t_circuit": 0}
    # n_t + 1 words and n_t T gates, after an input word at n = 2
    word = {n: magic.CLIFFORD_WORD_LENGTH + n for n in (1, 2)}
    lengths = {(n, (n_t + 1) * word[n] + n_t + (word[n] if n == 2 else 0))
               for n in (1, 2) for n_t in range(4)}
    assert sorted((n, length) for n, _, length in stacks) == sorted(lengths)
    assert sum(rows for _, rows, _ in stacks) == 100


def test_clt_stack_members_are_one_state_series():
    spec = beam_splitter_spec(7, 1)
    seeds = [3, 4, 5]
    stack = clt_run(random_density(seeds, 7, 1, [1, 2, 7]), spec, 8)
    assert stack.norms.shape == stack.bounds.shape == (3, 9)
    assert stack.displacement.shape == (3, 2)
    assert stack.mg.shape == (3,)
    assert list(stack.entropies) == list(ALPHAS_SECOND_LAW)
    for i, (seed, rank) in enumerate(zip(seeds, [1, 2, 7])):
        alone = clt_run(random_density(seed, 7, 1, rank), spec, 8)
        assert stack.displacement[i].tobytes() == alone.displacement.tobytes()
        assert stack.mg[i].tobytes() == np.float64(alone.mg).tobytes()
        assert stack.norms[i].tobytes() == alone.norms.tobytes()
        assert stack.bounds[i].tobytes() == alone.bounds.tobytes()
        for alpha, hs in alone.entropies.items():
            assert stack.entropies[alpha][i].tobytes() == hs.tobytes()


@pytest.mark.parametrize("trials", [4, 7])
def test_record_bound_counts_each_sampled_suite(trials):
    for name in experiments.RECORD_COUNTS:
        counts = {"trials": trials, "steps": 3} if name == "clt" else {"trials": trials}
        report = experiments.SUITES[name](seed=0, **counts)
        bound = experiments.record_bound(name, **counts)
        if name == "clt":
            bound -= trials * 4  # the series' steps + 1 records per trial
        if name == "extremality":
            # a margin against an MSPS at infinite divergence is not reported
            assert len(report.records) <= bound
        else:
            assert len(report.records) == bound, name
