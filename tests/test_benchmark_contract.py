"""What the benchmark in perfbench/ needs from the package.

perfbench/run.py --trace 1 exits 2 ("no value for ...") when a per-layer
metric of BENCHMARK.json names a function the tracer cannot find, so the
names it reads must keep resolving even where only tests call them.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from dvconv import conv, experiments, states, weyl

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _gate_suites():
    """perfbench/workload.py's GATE_SUITES, read from the file as it is."""
    spec = importlib.util.spec_from_file_location("perfbench_workload",
                                                  ROOT / "perfbench" / "workload.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GATE_SUITES

#: per-layer prefixes measured outside the dvconv layers
NOT_LAYERS = {"numpy", "trace"}


def test_every_traced_layer_function_resolves():
    names = {tuple(m["name"].split(".")[:2]) for m in BENCHMARK["per_layer"]}
    layer_names = sorted(n for n in names if n[0] not in NOT_LAYERS)
    assert layer_names
    for layer, attr in layer_names:
        module = importlib.import_module(f"dvconv.{layer}")
        obj = getattr(module, attr, None)
        assert callable(obj), f"{layer}.{attr}"
        # the tracer wraps only what the layer itself defines
        assert obj.__module__ == module.__name__, f"{layer}.{attr}"


def test_suite_margins_name_registered_suites():
    margins = {m["name"] for m in BENCHMARK["per_layer"]
               if m["name"].endswith(".min_margin")}
    assert margins == {"experiments.suite_" + name.replace("-", "_") + ".min_margin"
                       for name in experiments.SUITES}


def test_probed_names_remain():
    assert callable(weyl.weyl_basis.cache_info)
    assert callable(weyl.neg_perm)
    assert {"rho", "sigma"} <= set(inspect.signature(conv.convolve).parameters)
    assert {"M", "d", "n"} <= set(inspect.signature(weyl.char_table).parameters)


@pytest.mark.parametrize("name, kwargs, expected",
                         [pytest.param(*entry, id=entry[0]) for entry in _gate_suites()])
def test_gate_suites_report_a_record_count_in_their_range(name, kwargs, expected):
    """The gate workload counts an op as failed when its report's record
    count leaves the range, so a suite that reports more records (a new
    metric) needs the range widened first.  Seed 0, as the workload runs."""
    low, high = expected
    report = experiments.SUITES[name](**({} if kwargs is None else dict(kwargs, seed=0)))
    assert report.passed
    assert low <= len(report.records) <= high


def test_a_second_gate_pass_builds_no_enumeration(monkeypatch):
    """In one process, from cleared caches, the second pass over the gate's
    suites at seed 0 validates at most 81 states and builds at most 22 MSPS
    tables: the enumerations are built and validated on the first pass only,
    and broadcast as views.  The counts read 78 and 14 (91 and 72 on every
    pass while each suite built its own enumeration and re-validated it)."""
    counts = {"validations": 0, "msps_table": 0}
    post_init, build = states.DensityMatrix.__post_init__, states.msps_table

    def counted_check(self):
        counts["validations"] += 1
        post_init(self)

    def counted_build(group):
        counts["msps_table"] += 1
        return build(group)

    monkeypatch.setattr(states.DensityMatrix, "__post_init__", counted_check)
    monkeypatch.setattr(states, "msps_table", counted_build)
    states.enumerate_groups.cache_clear()
    states.msps_states.cache_clear()
    for _ in range(2):
        counts.update(validations=0, msps_table=0)
        for name, kwargs, _ in _gate_suites():
            experiments.SUITES[name](**({} if kwargs is None else dict(kwargs, seed=0)))
    assert counts["validations"] <= 81 and counts["msps_table"] <= 22, counts
