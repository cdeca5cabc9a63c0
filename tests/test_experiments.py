import json
import math
import tracemalloc

import numpy as np
import pytest

from dvconv import conv, experiments
from dvconv.conv import beam_splitter_spec
from dvconv.experiments import ALPHAS_SECOND_LAW, ExperimentReport, clt_run
from dvconv.states import DensityMatrix, enumerate_msps, ket_state, random_density
from oracles import dense_clt


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


def test_clt_run_msps_fixed_point():
    spec = beam_splitter_spec(7, 1)
    from dvconv.states import maximally_mixed

    series = clt_run(maximally_mixed(7, 1), spec, 3)
    assert all(s["norm"] < 1e-12 for s in series.steps)


def test_clt_run_bound_and_second_law():
    spec = beam_splitter_spec(7, 1)
    rho = random_density(0, 7, 1, rank=1)
    series = clt_run(rho, spec, 8)
    for s in series.steps:
        assert s["norm"] <= s["bound"] + 1e-9
    for alpha in experiments.ALPHAS_SECOND_LAW:
        hs = [s["entropies"][alpha] for s in series.steps]
        for a, b in zip(hs, hs[1:]):
            assert b >= a - 1e-8
    slope = series.log_slope()
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
            assert series.displacement == (0, 0, 4, 0)
        norms, entropies = dense_clt(rho, spec, steps, ALPHAS_SECOND_LAW)
        assert [s["N"] for s in series.steps] == list(range(steps + 1))
        assert series.base_norm == series.steps[0]["norm"]
        for step, norm, hs in zip(series.steps, norms, entropies):
            assert abs(step["norm"] - norm) <= 1e-12
            for alpha in ALPHAS_SECOND_LAW:
                assert abs(step["entropies"][alpha] - hs[alpha]) <= 1e-10


def test_clt_run_refuses_a_negative_step_count():
    with pytest.raises(ValueError, match="n_max"):
        clt_run(random_density(0, 7, 1, rank=1), beam_splitter_spec(7, 1), -1)


@pytest.mark.parametrize("budget", [49, 4 * 49, 7 * 49])
def test_clt_run_does_not_depend_on_the_chunk_size(monkeypatch, budget):
    spec = beam_splitter_spec(7, 1)
    rho = random_density(4, 7, 1, rank=2)
    whole = clt_run(rho, spec, 30)  # one chunk of 30 steps at D = 7
    monkeypatch.setattr(conv, "GATHER_BUDGET", budget)  # chunks of 1, 4 and 7 steps
    assert clt_run(rho, spec, 30).steps == whole.steps


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
    assert len(series.steps) == 31
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
