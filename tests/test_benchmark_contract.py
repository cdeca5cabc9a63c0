"""What the benchmark in perfbench/ needs from the package.

perfbench/run.py --trace 1 exits 2 ("no value for ...") when a per-layer
metric of BENCHMARK.json names a function the tracer cannot find, so the
names it reads must keep resolving even where only tests call them.
"""

import importlib
import inspect
import json
from pathlib import Path

from dvconv import conv, experiments, weyl

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

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
