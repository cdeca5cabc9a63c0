import json
import math
import tracemalloc

import numpy as np
import pytest

from dvconv import conv, entropy, experiments, magic, states, weyl
from dvconv.conv import beam_splitter_spec
from dvconv.experiments import ALPHAS_SECOND_LAW, ExperimentReport, clt_run
from dvconv.states import DensityMatrix, ket_state, random_density
from oracles import dense_clt, enumerate_msps, per_trial_records


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


def test_report_add_takes_a_block_in_row_major_order_less_the_dropped():
    """A (trials, metrics) block: each trial's metrics in turn, and a dropped
    entry neither adds a record nor counts toward pass or max_violation."""
    report = ExperimentReport("demo", 0, {})
    report.add(np.arange(3)[:, None], ["a", "b"], [[0.1, 0.2], [0.3, 9.0], [0.5, 0.6]],
               [1.0, 0.5], keep=[[True, True], [True, False], [False, True]])
    assert [tuple(r.values()) for r in report.records] == [
        (0, "a", 0.1, 1.0, True), (0, "b", 0.2, 0.5, True),
        (1, "a", 0.3, 1.0, True), (2, "b", 0.6, 0.5, False)]
    for rec in report.records:
        assert [type(v) for v in rec.values()] == [int, str, float, float, bool]
    assert not report.passed
    assert report.max_violation == pytest.approx(0.1)
    report = ExperimentReport("demo", 0, {})
    report.add([0, 1], "m", [0.5, 2.0], 1.0, keep=[True, False])
    assert report.passed and report.max_violation == 0.0 and len(report.records) == 1


def test_report_nan_value_fails_and_leaves_max_violation_as_it_was():
    """As the builtin max over [max_violation] + the differences leaves it."""
    report = ExperimentReport("demo", 0, {})
    report.add(0, "m", math.nan, 1.0)
    assert not report.passed and report.max_violation == 0.0
    report.add([1, 2, 3], "m", [1.5, math.nan, 1.25], 1.0)
    assert [r["pass"] for r in report.records] == [False, False, False, False]
    assert report.max_violation == max([0.0, math.nan - 1.0, 0.5, math.nan, 0.25]) == 0.5
    assert math.isnan(report.records[2]["value"])


@pytest.mark.parametrize("block", [
    (np.arange(0)[:, None], ["a", "b"], np.zeros((0, 2)), [1.0, 2.0]),  # 0 trials
    (0, "m", 5.0, 1.0, False),  # one record, dropped
], ids=["zero-trials", "all-dropped"])
def test_report_empty_add_changes_nothing(block):
    report = ExperimentReport("demo", 0, {})
    report.add(0, "m", 1.5, 1.0)
    before = (report.to_json(), report.to_csv(), report.passed, report.max_violation)
    report.add(*block)
    assert (report.to_json(), report.to_csv(), report.passed, report.max_violation) == before


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
    # past the set-up solves of step 0, one solve per step
    assert calls[2 * before:] == [(7, 7)] * 30


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
    # one solve of all 10 members per step, after the mean states' solve
    assert calls[1:] == [(10, 7, 7)] * 30


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
    # one step's table is held at D = 343; all 31 would be 58 MB
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


@pytest.mark.parametrize("name", sorted(experiments.SUITES))
def test_every_suite_keeps_its_own_name_and_docstring(name):
    """Each registered suite is its own function, not a wrapper that hides
    the name and docstring that help and tracing read."""
    fn = experiments.SUITES[name]
    assert fn.__name__ == "suite_" + name.replace("-", "_")
    assert fn.__doc__ and fn.__doc__.strip()


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
    ("min-output", None),
])
def test_stacked_suites_match_the_per_trial_oracle(name, trials):
    report = experiments.SUITES[name](**({} if trials is None else dict(seed=0, trials=trials)))
    records = [(r["index"], r["metric"], r["value"]) for r in report.records]
    assert records == per_trial_records(name, 0, trials)


def test_min_output_floor_bound_is_each_mismatched_pair_entropy():
    """Record idx = a * 12 + b bounds the floor by H(a boxtimes b), a pair at a time."""
    pure = enumerate_msps(3, mixed=False)
    spec = conv.default_spec(3, 1)
    floors = [(r["index"], r["bound"]) for r in experiments.suite_min_output().records
              if r["metric"] == "mismatch_entropy_floor"]
    assert len(floors) == 108
    for idx, bound in floors:
        a, b = divmod(idx, len(pure))
        assert bound == entropy.renyi_entropy(conv.convolve(pure[a], pure[b], spec), 1)


@pytest.mark.parametrize("oracle_cases", [0, 1, 2, 20])  # 0, 1: an empty stack
def test_stacked_fisher_oracle_cases_match_the_per_trial_oracle(oracle_cases):
    trials = 3
    report = experiments.suite_fisher(seed=0, trials=trials, oracle_cases=oracle_cases)
    records = [(r["index"], r["metric"], r["value"]) for r in report.records]
    assert len(records) == 2 * trials + oracle_cases
    assert records == per_trial_records("fisher", 0, trials, oracle_cases=oracle_cases)


#: random_density calls per suite at the gate's parameters (the defaults):
#: one per input operand and config (or d), and one per d of fisher's
#: oracle cases
GATE_DRAWS = {"duality": 6, "entropy": 4, "fisher": 6, "monotonicity": 3,
              "holevo": 4, "extremality": 1, "clt": 1}


@pytest.mark.parametrize("name", GATE_DRAWS)
def test_suites_draw_once_per_input_stack(monkeypatch, name):
    calls = {"random_density": 0, "fisher_fd_oracle": 0}
    for module, fn in ((states, "random_density"), (entropy, "fisher_fd_oracle")):
        def counted(*args, _name=fn, _fn=getattr(module, fn)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, fn, counted)
    assert experiments.SUITES[name]().passed
    # fisher checks its oracle cases as one stack per d
    assert calls == {"random_density": GATE_DRAWS[name],
                     "fisher_fd_oracle": 2 if name == "fisher" else 0}


class _RecordingGenerator(np.random.Generator):
    """A generator that logs the draws made from it; its spawned children
    are of its type, and default_rng returns it unchanged."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.draws, self.children = [], []

    def spawn(self, n_children):
        self.children += super().spawn(n_children)
        return self.children[-n_children:]

    def integers(self, *args, **kwargs):
        self.draws.append("discrete")
        return super().integers(*args, **kwargs)

    def choice(self, *args, **kwargs):
        self.draws.append("discrete")
        return super().choice(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        self.draws.append("state")
        return super().standard_normal(*args, **kwargs)


#: the trial generators each sampled suite spawns at the gate's parameters
#: (the defaults): one per trial and per fisher oracle case, 970 in all
GATE_GENERATORS = {"duality": 200, "entropy": 2 * 100, "fisher": 2 * 100 + 20,
                   "monotonicity": 100, "holevo": 50, "synthesis": 100,
                   "extremality": 50, "clt": 50}


@pytest.mark.parametrize("name", GATE_GENERATORS)
def test_suites_draw_each_trial_from_one_generator(monkeypatch, name):
    assert sum(GATE_GENERATORS.values()) == 970
    roots = []

    def default_rng(seed=None):
        if isinstance(seed, np.random.Generator):
            return seed
        # any generator built from a seed, and not spawned, is a root
        roots.append(_RecordingGenerator(np.random.PCG64(seed)))
        return roots[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    assert experiments.SUITES[name](seed=3).passed
    assert len(roots) == 1, f"{len(roots)} generators built from a seed, not spawned"
    inner, leaves, stack = [], [], list(roots)
    while stack:
        rng = stack.pop()
        (inner if rng.children else leaves).append(rng)
        stack += rng.children
    assert len(leaves) == GATE_GENERATORS[name]
    # a root or a block only spawns; a trial draws its discrete choices,
    # then its states, all from its one stream
    assert not any(rng.draws for rng in inner)
    for rng in leaves:
        assert rng.draws == sorted(rng.draws, key=lambda kind: kind == "state")
        if name != "synthesis" and "discrete" in rng.draws:
            assert "state" in rng.draws, "a rank or level drawn apart from its state"


@pytest.mark.parametrize("name, blocks", [
    ("entropy", lambda call, pos: (call // 2, pos)),
    # fisher's last two calls are the oracle cases of d = 3 (even) and 7 (odd)
    ("fisher", lambda call, pos: (call // 2, pos if call < 4 else 2 * pos + call % 2)),
])
def test_no_seed_pool_is_shared_across_seeds_configs_or_trials(monkeypatch, name, blocks):
    """Every (seed, block, trial) draws its states from a seed sequence of
    its own, and each trial from one."""
    owners, at = {}, {}

    def recorded(seeds, *args, _fn=states.random_density):
        for pos, s in enumerate(seeds):
            ss = s.bit_generator.seed_seq if isinstance(s, np.random.Generator) else s
            owner = (at["seed"], *blocks(at["call"], pos))
            owners.setdefault((ss.entropy, ss.spawn_key), set()).add(owner)
        at["call"] += 1
        return _fn(seeds, *args)

    monkeypatch.setattr(states, "random_density", recorded)
    for seed in range(9):
        at.update(seed=seed, call=0)
        experiments.SUITES[name](seed=seed, trials=10)
    shared = {key: owned for key, owned in owners.items() if len(owned) > 1}
    assert not shared, f"seed sequences drawn by more than one input: {shared}"
    # and no input draws from two: a trial's operands share its stream
    assert len(owners) == len(set().union(*owners.values()))


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
    # the draw, the mean states and one stack per step
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
    """No one-row Clifford call: the circuits of a pass are drawn, then
    multiplied in one clifford_words call per n.  Every circuit of one n has
    one length, whatever its T count: MAX_T + 1 = 4 words and 3 T slots."""
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
    word = {n: magic.CLIFFORD_WORD_LENGTH + n for n in (1, 2)}
    assert stacks == [(1, 50, 4 * word[1] + 3), (2, 50, 4 * word[2] + 3)]


@pytest.mark.parametrize("seed", range(70))
def test_suite_synthesis_passes_at_every_seed(seed):
    report = experiments.suite_synthesis(seed=seed, trials=100)
    assert report.passed, f"max violation {report.max_violation}"
    assert len(report.records) == 100


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


@pytest.mark.parametrize("name", sorted(experiments.RECORD_COUNTS))
def test_sampled_suites_pass_with_no_trials(name):
    """No trial records: only the records a suite adds whatever its trials."""
    report = experiments.SUITES[name](seed=0, trials=0)
    assert report.passed
    assert len(report.records) == experiments.RECORD_COUNTS[name](0)


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
