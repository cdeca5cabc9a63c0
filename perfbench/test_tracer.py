"""Tests of the benchmark's tracer and layer instrumentation.

    python3 -m pytest perfbench/test_tracer.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from tracer import Tracer  # noqa: E402
from workload import Probes, instrument  # noqa: E402

from dvconv import cli, conv, entropy, experiments, magic, states, weyl  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_child_spans():
    clock = FakeClock()
    ns = {}

    def leaf():
        clock.now += 2

    def mid():
        clock.now += 1
        ns["leaf"]()
        clock.now += 3
        ns["leaf"]()

    def top():
        ns["mid"]()
        clock.now += 5

    def rec(k):
        if k:
            clock.now += 1
            ns["rec"](k - 1)

    ns.update(leaf=leaf, mid=mid, top=top, rec=rec)
    tracer = Tracer(clock)
    for name, fn in list(ns.items()):
        tracer.install(name, fn, [ns])
    ns["top"]()
    ns["rec"](2)
    stats = tracer.summary()

    assert stats["leaf"] == {"calls": 2, "self_s": 4.0, "total_s": 4.0}
    assert stats["mid"] == {"calls": 1, "self_s": 4.0, "total_s": 8.0}
    assert stats["top"] == {"calls": 1, "self_s": 5.0, "total_s": 13.0}
    # nested spans of one name count once in total_s, and each in self_s
    assert stats["rec"] == {"calls": 3, "self_s": 2.0, "total_s": 2.0}

    tracer.uninstall()
    assert ns["leaf"] is leaf and ns["rec"] is rec


def test_span_ends_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1
        raise ValueError("boom")

    traced = tracer.wrap("boom", boom)
    with pytest.raises(ValueError):
        traced()
    assert tracer.summary() == {"boom": {"calls": 1, "self_s": 1.0, "total_s": 1.0}}
    tracer.reset()
    assert tracer.summary() == {}


def _dvconv_callables():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "dvconv" or name.startswith("dvconv.")
            for attr, value in vars(module).items() if callable(value)}


def test_wrappers_replace_every_imported_reference():
    before = _dvconv_callables()
    tracer = Tracer()
    instrument(tracer, Probes(conv.convolve, weyl.char_table))
    try:
        after = _dvconv_callables()
        replaced = {id(before[key]) for key in before if after[key] is not before[key]}
        assert replaced
        for key, value in before.items():
            if id(value) in replaced:
                assert after[key].__wrapped__ is value, key
        assert weyl.weyl_op is conv.weyl_op is states.weyl_op is magic.weyl_op
        assert weyl.weyl_op is not before[("dvconv.weyl", "weyl_op")]
        assert states.herm_eig is entropy.herm_eig
        assert experiments.SUITES["min-output"] is experiments.suite_min_output
        assert "states.DensityMatrix" in tracer.names
        assert "numpy.eigh" in tracer.names
    finally:
        tracer.uninstall()
    assert _dvconv_callables() == before


def test_operand_bytes_are_computed_from_shapes():
    tracer = Tracer()
    probes = Probes(conv.convolve, weyl.char_table)
    instrument(tracer, probes)
    try:
        rho = states.random_density(0, 3, 1)
        conv.convolve(rho, rho, conv.default_spec(3, 1))
        copies = [rho.mat.copy(), rho.mat.copy()]
        for mat in copies:
            weyl.char_table(mat, 3, 1)
    finally:
        tracer.uninstall()
    D = 3
    assert probes.operand_bytes["conv.convolve"] == 16 * D**4
    assert probes.operand_bytes["weyl.char_table"] == 16 * 3**2 * D**2
    assert tracer.summary()["conv.convolve"]["calls"] == 1
    # equal contents in different arrays count as one distinct input
    probes.new_pass()
    assert probes.char_calls == 2 and probes.char_distinct == 1


def test_gap_at_d49_makes_eight_char_table_calls_on_two_matrices(tmp_path):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(states.state_to_json(states.random_density(0, 7, 2))))
    tracer = Tracer()
    probes = Probes(conv.convolve, weyl.char_table)
    instrument(tracer, probes)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["gap", "--d", "7", "--n", "2", "--input", str(path), "--json"])
        stats = tracer.summary()
    finally:
        tracer.uninstall()
    assert code == 0
    assert stats["weyl.char_table"]["calls"] == 8
    probes.new_pass()
    assert probes.char_calls == 8 and probes.char_distinct == 2
    assert probes.operand_bytes["weyl.char_table"] == 16 * 7**4 * 49**2
