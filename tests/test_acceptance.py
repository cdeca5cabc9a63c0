"""Acceptance gate: twelve top-level criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json

import numpy as np
import pytest

from dvconv import experiments
from dvconv.cli import main as cli_main
from dvconv.conv import beam_splitter_spec, default_spec, key_unitary
from dvconv.magic import magic_gap, random_clifford
from dvconv.states import DensityMatrix, random_density
from dvconv.weyl import char_function, inverse_char
from oracles import is_clifford


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d} {name}: {tag}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _suite_ok(report, time_limit=None):
    ok = report.passed
    detail = f"max violation {report.max_violation:.3e}, {report.wall_time:.1f}s"
    if time_limit is not None:
        ok = ok and report.wall_time < time_limit
        detail += f" < {time_limit}s"
    return ok, detail


@pytest.fixture(scope="module")
def clt_report():
    return experiments.suite_clt(seed=0, trials=50, steps=30)


def test_criterion_01_duality():
    ok, detail = _suite_ok(experiments.suite_duality(seed=0, trials=200),
                           time_limit=30)
    _report(1, "duality", ok, detail)


def test_criterion_02_entropy_increase():
    ok, detail = _suite_ok(experiments.suite_entropy(seed=0, trials=100),
                           time_limit=60)
    _report(2, "entropy increase", ok, detail)


def test_criterion_03_fisher_decrease():
    report = experiments.suite_fisher(seed=0, trials=100, oracle_cases=20)
    n_oracle = sum(1 for r in report.records if "fd_dev" in r["metric"])
    ok, detail = _suite_ok(report)
    _report(3, "fisher decrease", ok and n_oracle == 20, detail)


def test_criterion_04_extremality():
    ok, detail = _suite_ok(experiments.suite_extremality(seed=0, trials=50))
    _report(4, "extremality of MSPS", ok, detail)


def test_criterion_05_stability():
    report = experiments.suite_stability()
    n = sum(1 for r in report.records if r["metric"] == "is_msps")
    ok, detail = _suite_ok(report)
    _report(5, "convolutional stability", ok and n == 144,
            f"{n}/144 pairs, {detail}")


def test_criterion_06_min_output_entropy():
    ok, detail = _suite_ok(experiments.suite_min_output())
    _report(6, "minimal output entropy", ok, detail)


def test_criterion_07_holevo_sandwich():
    ok, detail = _suite_ok(experiments.suite_holevo(seed=0, trials=50))
    _report(7, "holevo sandwich", ok, detail)


def test_criterion_08_clt_decay(clt_report):
    decay = [r for r in clt_report.records
             if r["metric"] in ("norm_bound_gap", "log_slope_gap")]
    ok = all(r["pass"] for r in decay) and clt_report.wall_time < 120
    _report(8, "CLT decay", ok,
            f"{len(decay)} records, {clt_report.wall_time:.1f}s < 120s")


def test_criterion_09_second_law(clt_report):
    laws = [r for r in clt_report.records
            if r["metric"].startswith("second_law_drop")]
    ok = bool(laws) and all(r["pass"] for r in laws)
    _report(9, "second law", ok, f"{len(laws)} records")


def test_criterion_10_monotonicity():
    ok, detail = _suite_ok(experiments.suite_monotonicity(seed=0, trials=100))
    _report(10, "monotonicity", ok, detail)


def test_criterion_11_synthesis_bound():
    ok, detail = _suite_ok(experiments.suite_synthesis(seed=0, trials=100))
    _report(11, "synthesis bound", ok, detail)


def test_criterion_12_infrastructure(tmp_path, capsys):
    ok = True
    details = []

    # characteristic round-trip and Parseval on random states
    for seed, (d, n) in enumerate([(2, 1), (3, 1), (3, 2), (7, 1)]):
        rho = random_density(seed, d, n)
        table = char_function(rho)
        rt = np.max(np.abs(inverse_char(table) - rho.mat))
        ok &= rt < 1e-10
        parseval = abs(np.sum(np.abs(table.values) ** 2) / d**n
                       - np.sum(np.abs(rho.mat) ** 2))
        ok &= parseval < 1e-9
    details.append("round-trip/Parseval")

    # key unitaries are Clifford
    for spec in (default_spec(3, 1), default_spec(3, 2),
                 beam_splitter_spec(7, 1)):
        ok &= is_clifford(key_unitary(spec), spec.d, 2 * spec.n)
    details.append("key unitaries Clifford")

    # MG invariance under seeded Cliffords
    for d in (2, 3):
        rho = random_density(20 + d, d, 1)
        for s in range(5):
            U = random_clifford(np.random.default_rng(s), d, 1)
            rotated = DensityMatrix(d, 1, U @ rho.mat @ U.conj().T)
            ok &= abs(magic_gap(char_function(rotated))
                      - magic_gap(char_function(rho))) < 1e-9
    details.append("MG Clifford-invariant")

    # byte-identical CLI outputs per seed
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code = cli_main(["clt", "--d", "7", "--steps", "5", "--seed", "42",
                         "--out", str(path)])
        ok &= code == 0
    ok &= a.read_bytes() == b.read_bytes()
    capsys.readouterr()
    details.append("byte-identical CLI")

    _report(12, "infrastructure", ok, "; ".join(details))
