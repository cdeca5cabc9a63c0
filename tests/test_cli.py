import argparse
import contextlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dvconv
from dvconv import cli, experiments, magic, states, weyl
from dvconv.cli import EXIT_CLOSED_PIPE, RECORD_BUDGET, main
from dvconv.conv import amplifier_spec, convolve, default_spec
from dvconv.entropy import renyi_entropy
from dvconv.errors import InvalidState, NoSolution
from dvconv.experiments import DUALITY_TOL, RECORD_COUNTS, record_bound
from dvconv.states import (DensityMatrix, char_to_json, random_density,
                           state_from_json, state_to_json)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gap_maximally_mixed(capsys):
    code, out, _ = run(capsys, "gap", "--d", "3", "--preset", "maximally-mixed")
    assert code == 0
    assert "MG        0" in out
    assert "PauliRank 1" in out


def test_gap_t_state_json(capsys):
    code, out, _ = run(capsys, "gap", "--d", "2", "--preset", "t-state", "--json")
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["magic_gap"] - (1 - 1 / np.sqrt(2))) < 1e-12
    assert abs(obj["log_magic_gap"] - 0.5) < 1e-12
    assert obj["pauli_rank"] == 3


def test_gap_missing_state(capsys):
    code, _, err = run(capsys, "gap", "--d", "3")
    assert code == 2


def test_gap_counts_a_band_above_support_tol_as_support(tmp_path, capsys):
    """The maximally mixed qutrit with Xi(+-(1, 0)) = 5e-10, between
    SUPPORT_TOL and UNIT_TOL: support of the magic gap and Pauli rank, so
    no MSPS either."""
    values = weyl.char_function(states.maximally_mixed(3, 1)).values.copy()
    values[[weyl.point_index([1, 0], 3), weyl.point_index([-1, 0], 3)]] = 5e-10
    path = tmp_path / "band.json"
    path.write_text(json.dumps(char_to_json(weyl.CharFunction(3, 1, values))))
    code, out, _ = run(capsys, "gap", "--d", "3", "--input", str(path))
    assert code == 0
    assert out.splitlines()[:4] == ["MG        0.99999999949999996",
                                    "LMG       30.897352853986263",
                                    "PauliRank 3", "IsMSPS    false"]


def test_convolve_zero_kets(tmp_path, capsys):
    out_file = tmp_path / "out.json"
    code, _, _ = run(capsys, "convolve", "--d", "3", "--a", "zero-ket",
                     "--b", "zero-ket", "--out", str(out_file))
    assert code == 0
    rho = state_from_json(json.loads(out_file.read_text()))
    assert abs(rho.mat[0, 0] - 1) < 1e-10


def test_convolve_duality_flag(tmp_path, capsys):
    out_file = tmp_path / "out.json"
    code, out, _ = run(capsys, "convolve", "--d", "3", "--a", "random-mixed",
                       "--b", "random-mixed", "--seed", "3",
                       "--out", str(out_file), "--check-duality")
    assert code == 0
    dev = float(out.split()[-1])
    assert dev < 1e-10


def test_convolve_d2_rejected(tmp_path, capsys):
    code, _, err = run(capsys, "convolve", "--d", "2", "--a", "zero-ket",
                       "--b", "zero-ket", "--out", str(tmp_path / "x.json"))
    assert code == 2


def test_named_spec_rejected_at_small_d(tmp_path, capsys):
    code, _, _ = run(capsys, "convolve", "--d", "3", "--a", "zero-ket",
                     "--b", "zero-ket", "--spec", "beam-splitter",
                     "--out", str(tmp_path / "x.json"))
    assert code == 2


def test_amplifier_spec_passes_duality_at_d7_and_is_refused_at_d3(tmp_path, capsys):
    """The paper's DV amplifier: its (l, m) exist at d = 7, and none at d = 3."""
    out_file = tmp_path / "x.json"
    flags = ("--a", "zero-ket", "--b", "random-mixed", "--seed", "1",
             "--spec", "amplifier", "--check-duality", "--out", str(out_file))
    code, out, err = run(capsys, "convolve", "--d", "7", *flags)
    assert code == 0, err
    name, dev = out.split()
    assert name == "duality-deviation" and float(dev) <= DUALITY_TOL
    out_file.unlink()
    code, out, err = run(capsys, "convolve", "--d", "3", *flags)
    _assert_usage_error(code, err, "no amplifier parameters at d=3")
    assert out == "" and not out_file.exists()
    with pytest.raises(NoSolution):
        amplifier_spec(3, 1)


@pytest.mark.parametrize("argv, message", [
    (("gap", "--d", "3", "--preset", "no-such-state"),
     "state descriptor 'no-such-state' is neither a preset"),
    (("gap", "--d", "3", "--preset", "t-state"), "t-state preset requires d=2, n=1"),
], ids=["unknown-descriptor", "t-state-at-d3"])
def test_state_descriptor_that_names_no_state_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    _assert_usage_error(code, err, message)
    assert out == ""


def test_random_preset_needs_seed(tmp_path, capsys):
    code, _, _ = run(capsys, "convolve", "--d", "3", "--a", "random-pure",
                     "--b", "zero-ket", "--out", str(tmp_path / "x.json"))
    assert code == 2


def test_convolve_operands_of_two_seeds_share_no_state(tmp_path, monkeypatch, capsys):
    """One generator per command: b continues a's stream, so no operand of
    --seed 0 is an operand of --seed 1, and a is the state of its seed alone."""
    drawn = []

    def recorded(*args, _fn=states.random_density):
        drawn.append(_fn(*args).mat)
        return DensityMatrix(3, 1, drawn[-1])

    monkeypatch.setattr(states, "random_density", recorded)
    for seed in ("0", "1"):
        code, _, _ = run(capsys, "convolve", "--d", "3", "--a", "random-mixed",
                         "--b", "random-mixed", "--seed", seed,
                         "--out", str(tmp_path / f"{seed}.json"))
        assert code == 0
    assert len(drawn) == 4
    for i in range(4):
        for j in range(i):
            assert not np.allclose(drawn[i], drawn[j]), (i, j)
    # a is drawn first, so it is the state of its seed, as gap and clt draw it
    assert np.array_equal(drawn[0], random_density(0, 3, 1).mat)
    assert np.array_equal(drawn[2], random_density(1, 3, 1).mat)


def test_state_file_input(tmp_path, capsys):
    rho = random_density(9, 3, 1)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json(rho)))
    out_file = tmp_path / "out.json"
    code, _, _ = run(capsys, "convolve", "--d", "3", "--a", str(path),
                     "--b", "maximally-mixed", "--out", str(out_file))
    assert code == 0
    out = state_from_json(json.loads(out_file.read_text()))
    assert np.max(np.abs(out.mat - np.eye(3) / 3)) < 1e-10


def test_emit_char_roundtrip(tmp_path, capsys):
    rho = random_density(4, 3, 1)
    src = tmp_path / "state.json"
    src.write_text(json.dumps(state_to_json(rho)))
    char_path = tmp_path / "char.json"
    code, _, _ = run(capsys, "gap", "--d", "3", "--input", str(src),
                     "--emit-char", str(char_path))
    assert code == 0
    back = state_from_json(json.loads(char_path.read_text()))
    assert np.max(np.abs(back.mat - rho.mat)) < 1e-10


@pytest.mark.parametrize("n, generators, rank", [
    (2, [[0, 0, 1, 1], [1, 1, 0, 0]], 4),  # Bell: XX, ZZ
    (3, [[0, 0, 0, 1, 1, 1], [1, 1, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0]], 8),  # GHZ
], ids=["bell", "ghz"])
def test_gap_on_qubit_msps_files(tmp_path, capsys, n, generators, rank):
    path = _write(tmp_path / "msps.json", {"d": 2, "n": n, "kind": "msps",
                                           "generators": generators, "phases": [0] * n})
    code, out, err = run(capsys, "gap", "--d", "2", "--n", str(n), "--input", path)
    assert code == 0, err
    assert "IsMSPS    true" in out
    assert "MG        0\n" in out
    assert f"PauliRank {rank}\n" in out


@pytest.mark.parametrize("d, n", [(3, 5), (337, 1)])
def test_gap_at_the_largest_systems(capsys, d, n):
    code, out, err = run(capsys, "gap", "--d", str(d), "--n", str(n),
                         "--preset", "random-mixed", "--seed", "0", "--json")
    assert code == 0, err
    obj = json.loads(out)
    assert (obj["d"], obj["n"]) == (d, n)
    assert 0 < obj["magic_gap"] < 1


def test_gap_dense_and_char_input_agree_at_d343(tmp_path, capsys):
    char_path = tmp_path / "char.json"
    size = ("--d", "7", "--n", "3")
    code, dense_out, _ = run(capsys, "gap", *size, "--preset", "random-mixed",
                             "--seed", "0", "--emit-char", str(char_path), "--json")
    assert code == 0
    code, char_out, _ = run(capsys, "gap", *size, "--input", str(char_path), "--json")
    assert code == 0
    first, second = json.loads(dense_out), json.loads(char_out)
    assert abs(first["magic_gap"] - second["magic_gap"]) < 1e-9
    assert first["pauli_rank"] == second["pauli_rank"]
    assert first["mean_vector"] == second["mean_vector"]


def test_clt_csv(tmp_path, capsys):
    out_file = tmp_path / "clt.csv"
    code, _, _ = run(capsys, "clt", "--d", "7", "--steps", "5", "--seed", "7",
                     "--preset", "random-pure", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("N,norm,bound")
    assert len(lines) == 7  # header + steps 0..5
    for line in lines[1:]:
        cols = line.split(",")
        assert float(cols[1]) <= float(cols[2]) + 1e-9


def test_clt_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "clt", "--d", "7", "--steps", "4", "--seed",
                         "11", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_clt_json_reads_its_system_and_base_norm(capsys):
    code, out, _ = run(capsys, "clt", "--d", "7", "--n", "2", "--steps", "3", "--seed", "2",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert (obj["d"], obj["n"], len(obj["displacement"])) == (7, 2, 4)
    assert [step["N"] for step in obj["steps"]] == [0, 1, 2, 3]
    assert obj["base_norm"] == obj["steps"][0]["norm"] == obj["steps"][0]["bound"]


def test_clt_rejects_d3(tmp_path, capsys):
    code, _, _ = run(capsys, "clt", "--d", "3", "--seed", "1")
    assert code == 2


def test_suite_exit_codes(tmp_path, capsys):
    code, _, _ = run(capsys, "suite", "stability", "--out",
                     str(tmp_path / "s.csv"))
    assert code == 0
    code, _, _ = run(capsys, "suite", "duality", "--seed", "1", "--trials",
                     "4", "--format", "json", "--out", str(tmp_path / "d.json"))
    assert code == 0
    obj = json.loads((tmp_path / "d.json").read_text())
    assert obj["passed"]


@pytest.mark.parametrize("name", ["stability", "min-output"])
@pytest.mark.parametrize("flag", [("--seed", "5"), ("--trials", "3")])
def test_exhaustive_suites_refuse_sample_flags(tmp_path, capsys, name, flag):
    out_file = tmp_path / "s.csv"
    code, out, err = run(capsys, "suite", name, *flag, "--out", str(out_file))
    _assert_usage_error(code, err, f"suite {name} takes no --seed or --trials")
    assert out == "" and not out_file.exists()


@pytest.mark.parametrize("argv, message", [
    (("clt", "--d", "7", "--seed", "1", "--steps", "-1"), "--steps must be >= 0, got -1"),
    (("suite", "clt", "--trials", "2", "--steps", "-3"), "--steps must be >= 0, got -3"),
    (("suite", "entropy", "--trials", "-1"), "--trials must be >= 1, got -1"),
    (("suite", "entropy", "--trials", "0"), "--trials must be >= 1, got 0"),
    (("suite", "duality", "--seed", "-1"), "--seed must be >= 0, got -1"),
    (("gap", "--d", "3", "--preset", "random-pure", "--seed", "-2"),
     "--seed must be >= 0, got -2"),
    (("suite", "duality", "--trials", "3", "--steps", "5"), "suite duality takes no --steps"),
    (("suite", "stability", "--steps", "3"), "suite stability takes no --steps"),
    (("clt", "--d", "7", "--seed", "1", "--steps", "1000000000"),
     f"the arguments ask for 1000000001 records; the budget is {RECORD_BUDGET}"),
    (("suite", "entropy", "--trials", "1000000000"),
     f"the arguments ask for 14000000000 records; the budget is {RECORD_BUDGET}"),
    (("enumerate", "msps", "--d", "337"),
     f"the enumeration budget is {states.ENUMERATION_BUDGET}"),
], ids=["clt-steps", "suite-steps", "trials-negative", "trials-zero", "suite-seed",
        "gap-seed", "duality-steps", "stability-steps", "clt-steps-budget",
        "entropy-trials-budget", "enumerate-budget"])
def test_bad_counts_are_usage_errors(monkeypatch, capsys, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the refusal")

    monkeypatch.setattr(states, "random_density", no_work)
    monkeypatch.setattr(states, "msps_states", no_work)
    monkeypatch.setattr(states, "msps_table", no_work)
    code, out, err = run(capsys, *argv)
    _assert_usage_error(code, err, message)
    assert out == ""


def test_record_budget_admits_the_documented_runs():
    # the README's suite loop, the gate's trial counts and clt --steps 30
    for name in RECORD_COUNTS:
        assert record_bound(name, 50) <= RECORD_BUDGET
    gate = {"duality": 200, "entropy": 100, "fisher": 100, "extremality": 50,
            "holevo": 50, "clt": 50, "monotonicity": 100, "synthesis": 100}
    for name, trials in gate.items():
        assert record_bound(name, trials) <= RECORD_BUDGET


def test_suite_clt_steps_default_to_30(capsys):
    code, default, _ = run(capsys, "suite", "clt", "--trials", "3", "--format", "json")
    assert code == 0 and json.loads(default)["params"]["steps"] == 30
    code, explicit, _ = run(capsys, "suite", "clt", "--trials", "3", "--steps", "30",
                            "--format", "json")
    assert code == 0 and explicit == default


def test_sampled_suites_default_to_50_trials(capsys):
    code, out, _ = run(capsys, "suite", "holevo", "--format", "json")
    assert code == 0
    default = json.loads(out)
    assert default["params"]["trials"] == 50
    code, out, _ = run(capsys, "suite", "holevo", "--seed", "0", "--trials", "50",
                       "--format", "json")
    assert code == 0 and json.loads(out) == default


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "msps", "--d", "3")
    assert code == 0
    assert len(json.loads(out)) == 13
    code, out, _ = run(capsys, "enumerate", "stabilizers", "--d", "2")
    assert code == 0
    assert len(json.loads(out)) == 6
    code, out, _ = run(capsys, "enumerate", "stabilizers", "--d", "11")
    assert code == 0
    assert len(json.loads(out)) == 132


def test_capacity_bounds(capsys):
    code, out, _ = run(capsys, "capacity-bounds", "--d", "3", "--sigma",
                       "zero-ket", "--rho0", "zero-ket")
    assert code == 0
    vals = {line.split()[0]: float(line.split()[1])
            for line in out.strip().splitlines()}
    assert abs(vals["lower"] - np.log2(3)) < 1e-9
    assert abs(vals["upper"] - np.log2(3)) < 1e-9
    assert abs(vals["weyl-ensemble"] - np.log2(3)) < 1e-9


def test_capacity_bounds_weyl_ensemble_at_d125(capsys):
    """(5,3): the orbit holds 15,625 displacements; the generator check needs 6."""
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "capacity-bounds", "--d", "5", "--n", "3",
                       "--sigma", "random-mixed", "--rho0", "random-pure",
                       "--seed", "1")
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 2.0
    vals = {line.split()[0]: float(line.split()[1])
            for line in out.strip().splitlines()}
    rng = np.random.default_rng(1)  # rho0 continues sigma's stream
    sigma = random_density(rng, 5, 3, 125)
    rho0 = random_density(rng, 5, 3, 1)
    expected = 3 * np.log2(5) - renyi_entropy(convolve(rho0, sigma, default_spec(5, 3)), 1)
    assert abs(vals["weyl-ensemble"] - expected) < 1e-12


def test_capacity_bounds_weyl_ensemble_at_d343(capsys):
    """(7,3): one matrix-side convolution; the covariance check runs on tables."""
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "capacity-bounds", "--d", "7", "--n", "3",
                       "--sigma", "random-mixed", "--rho0", "random-pure",
                       "--seed", "1")
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 2.0
    vals = {line.split()[0]: float(line.split()[1])
            for line in out.strip().splitlines()}
    rng = np.random.default_rng(1)  # rho0 continues sigma's stream
    sigma = random_density(rng, 7, 3, 343)
    rho0 = random_density(rng, 7, 3, 1)
    expected = 3 * np.log2(7) - renyi_entropy(convolve(rho0, sigma, default_spec(7, 3)), 1)
    assert abs(vals["weyl-ensemble"] - expected) < 1e-12


def test_unsupported_enumeration_is_usage_error(capsys):
    code, out, err = run(capsys, "enumerate", "msps", "--d", "3", "--n", "2")
    _assert_usage_error(code, err, "enumeration supported only at n=1, got n=2")
    assert out == ""
    code, out, _ = run(capsys, "enumerate", "msps", "--d", "7")
    assert code == 0 and len(json.loads(out)) == 57


@pytest.mark.parametrize("argv, message", [
    (("gap", "--d", "4", "--preset", "zero-ket"), "d=4 is not prime"),
    (("gap", "--d", "9", "--preset", "zero-ket"), "d=9 is not prime"),
    (("gap", "--d", "-3", "--preset", "zero-ket"), "d=-3 is not prime"),
    (("gap", "--d", "3", "--n", "0", "--preset", "zero-ket"), "n=0"),
    (("convolve", "--d", "3", "--n", "0", "--a", "zero-ket", "--b", "zero-ket"),
     "n=0"),
    (("convolve", "--d", "9", "--a", "zero-ket", "--b", "zero-ket"),
     "d=9 is not prime"),
    (("convolve", "--d", "3", "--a", "zero-ket", "--b", "zero-ket",
      "--G", "a,b,c,d"), "--G expects four comma-separated integers"),
    (("convolve", "--d", "3", "--a", "zero-ket", "--b", "zero-ket",
      "--G", "1,0,1,2"), "zero entry"),
    (("convolve", "--d", "7", "--seed", "3", "--a", "random-mixed", "--b", "random-pure",
      "--spec", "beam-splitter", "--G", "1,1,1,2"), "--G and --spec"),
    (("capacity-bounds", "--d", "7", "--seed", "3", "--sigma", "random-mixed",
      "--spec", "beam-splitter", "--G", "1,1,1,2"), "--G and --spec"),
    (("gap", "--d", "347", "--preset", "zero-ket"), "d^n = 347^1 exceeds the limit"),
    (("gap", "--d", "2", "--n", "9", "--preset", "zero-ket"), "d^n = 2^9 exceeds"),
    (("gap", "--d", "3", "--n", "1000000000", "--preset", "zero-ket"),
     "d^n = 3^1000000000 exceeds"),
    (("gap", "--d", str(10**30 + 57), "--preset", "zero-ket"),
     f"d^n = {10**30 + 57}^1 exceeds the limit MAX_DIM = 343"),
    (("convolve", "--d", "7", "--n", "4", "--a", "zero-ket", "--b", "zero-ket"),
     "d^n = 7^4 exceeds"),
    (("convolve", "--d", "2", "--a", "zero-ket", "--b", "zero-ket", "--G", "1,1,1,2"),
     "odd prime"),
    (("capacity-bounds", "--d", "2", "--sigma", "maximally-mixed", "--G", "1,1,1,1"),
     "odd prime"),
], ids=["gap-d4", "gap-d9", "gap-d-3", "gap-n0", "convolve-n0", "convolve-d9",
        "convolve-G-letters", "convolve-G-zero-entry", "convolve-G-with-spec",
        "capacity-bounds-G-with-spec", "gap-d347", "gap-2^9",
        "gap-n-huge", "gap-d-huge-prime", "convolve-7^4",
        "convolve-d2-G-zero-entry-mod-2", "capacity-bounds-d2-G-singular-mod-2"])
def test_bad_system_is_usage_error(tmp_path, capsys, argv, message):
    out_file = tmp_path / "x.json"
    if argv[0] == "convolve":
        argv += ("--out", str(out_file))
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert message in err
    assert not out_file.exists()


def test_internal_error_exit_code(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("dvconv.weyl.char_function", boom)
    code, _, err = run(capsys, "gap", "--d", "3", "--preset", "zero-ket")
    assert code == 4
    assert "Traceback" in err
    assert err.splitlines()[-1] == "internal error: RuntimeError: boom"


def _write(path, obj):
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


BAD_STATE_FILES = {
    "not-json": "{not json",
    "dense-without-re-im": {"d": 3, "n": 1, "kind": "dense"},
    "msps-without-generators": {"d": 3, "n": 1, "kind": "msps", "phases": [0]},
    "im-not-numbers": {"d": 3, "n": 1, "kind": "dense",
                       "re": np.eye(3).tolist(), "im": "x"},
    "char-wrong-length": {"d": 3, "n": 1, "kind": "char", "re": [1.0], "im": [0.0]},
    "not-an-object": [1, 2, 3],
    "msps-label-wrong-length": {"d": 3, "n": 1, "kind": "msps",
                                "generators": [[1]], "phases": [0]},
    "msps-count-mismatch": {"d": 3, "n": 1, "kind": "msps",
                            "generators": [[1, 0]], "phases": [0, 1]},
    "msps-more-generators-than-qudits": {"d": 3, "n": 1, "kind": "msps",
                                         "generators": [[1, 0], [0, 1]], "phases": [0, 0]},
    # a JSON integer each, never truncated: each would be the group ((1, 0),), phase 1
    "msps-phase-float": {"d": 3, "n": 1, "kind": "msps", "generators": [[1, 0]],
                         "phases": [1.7]},
    "msps-generator-bool": {"d": 3, "n": 1, "kind": "msps", "generators": [[True, 0]],
                            "phases": [1]},
    "msps-generator-string": {"d": 3, "n": 1, "kind": "msps", "generators": [["1", 0]],
                              "phases": [1]},
    "msps-generator-past-int64": {"d": 3, "n": 1, "kind": "msps",
                                  "generators": [[10**30, 0]], "phases": [0]},
    # equal to --d 3 --n 1, yet not JSON integers: each would load as a (3, 1) state
    "n-bool": {"d": 3, "n": True, "kind": "preset", "name": "zero-ket"},
    "d-float": dict(state_to_json(states.ket_state(3, 1, [0])), d=3.0, n=1.0),
}


def _assert_usage_error(code, err, message):
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("name", sorted(BAD_STATE_FILES))
def test_bad_state_file_is_usage_error(tmp_path, capsys, name):
    path = _write(tmp_path / "state.json", BAD_STATE_FILES[name])
    code, out, err = run(capsys, "gap", "--d", "3", "--input", path)
    assert out == ""
    _assert_usage_error(code, err, "state.json")


#: the (d, n) each fuzzed file is read at; D <= 9 keeps an example cheap
FUZZ_SYSTEMS = [(2, 1), (3, 1), (5, 1), (3, 2)]
FUZZ_FLOATS = st.one_of(st.floats(-2, 2), st.sampled_from([math.nan, math.inf, -math.inf, 1e308]))


def _fuzz_int(value):
    """An int, a bool, a float or a string, equal to ``value`` or not."""
    return st.one_of(st.just(value), st.integers(-2, 2**70), st.booleans(), st.floats(),
                     st.just(float(value)), st.just(str(value)), st.text(max_size=2))


def _fuzz_lists(shape):
    """Float lists nested to ``shape`` or to another shape, ragged lists, or
    a value that is not a list."""
    def nested(dims):
        size = int(np.prod(dims))
        return st.lists(FUZZ_FLOATS, min_size=size, max_size=size).map(
            lambda flat: np.reshape(np.array(flat, dtype=float), dims).tolist())

    dims = st.one_of(st.just(shape), st.lists(st.integers(0, 4), max_size=3).map(tuple))
    return st.one_of(dims.flatmap(nested), st.just([[1.0], [1.0, 2.0]]),
                     st.text(max_size=2), FUZZ_FLOATS, st.none())


@st.composite
def _fuzz_state_files(draw):
    d, n = draw(st.sampled_from(FUZZ_SYSTEMS))
    D = d**n
    kind = draw(st.sampled_from(["dense", "char", "msps", "preset", "other"]))
    exact = draw(st.booleans())  # else most files would hold another (d, n)
    obj = {"d": d if exact else draw(_fuzz_int(d)),
           "n": n if exact else draw(_fuzz_int(n)), "kind": kind}
    if kind == "dense" and draw(st.booleans()):  # a valid state, so some files load
        obj["re"], obj["im"] = (np.eye(D) / D).tolist(), np.zeros((D, D)).tolist()
    elif kind == "dense":
        obj["re"], obj["im"] = draw(_fuzz_lists((D, D))), draw(_fuzz_lists((D, D)))
    elif kind == "char":
        obj["re"], obj["im"] = draw(_fuzz_lists((D * D,))), draw(_fuzz_lists((D * D,)))
    elif kind == "msps":
        entry = st.one_of(st.integers(-4, 4), st.booleans(), FUZZ_FLOATS, st.text(max_size=1))
        obj["generators"] = draw(st.lists(st.lists(entry, max_size=2 * n + 1), max_size=n + 1))
        obj["phases"] = draw(st.lists(entry, max_size=n + 1))
    elif kind == "preset":
        obj["name"] = draw(st.sampled_from(list(states.PRESETS) + ["bogus", 7]))
    else:
        obj["kind"] = draw(st.one_of(st.text(max_size=4), st.integers(), st.none()))
    for key in draw(st.sets(st.sampled_from(sorted(obj)), max_size=1)):
        del obj[key]
    return d, n, obj


@given(_fuzz_state_files())
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
def test_fuzzed_state_file_ends_in_a_documented_exit(tmp_path_factory, case):
    """Any state file gives 0, or 2 or 3 with one ``error:`` line and no
    stdout; never an internal error."""
    d, n, obj = case
    path = tmp_path_factory.getbasetemp() / "fuzzed-state.json"
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["gap", "--d", str(d), "--n", str(n), "--input", str(path)])
    assert code in (0, 2, 3), err.getvalue()
    if code:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")


#: each value flag's draws: (accepted values, the edges of each check and
#: malformed text); (d, n) stay at D <= 49 so an example is cheap
ARGV_VALUES = {
    "--d": (["3", "7"], ["2", "5", "4", "1", "0", "-3", "343", "x", ""]),
    "--n": (["1", "2"], ["0", "-1", "x"]),
    "--seed": (["0", "7"], ["-1", str(2**64), "x"]),
    "--steps": (["0", "2"], ["-1", "50000", "x"]),
    "--trials": (["1", "2"], ["0", "3572", "x"]),
    "--G": (["1,1,1,2", "1,1,1,6"], ["1,2", "0,1,1,1", "a,b,c,d", "1,1,1,1"]),
    "--spec": (["beam-splitter", "amplifier"], ["bogus"]),
    "--format": (["csv", "json"], ["xml"]),
    # state descriptors: presets and files under the work directory (a
    # file that parses but whose matrix is not a state is accepted here)
    "state": (["zero-ket", "negative.json", "maximally-mixed", "random-pure", "random-mixed",
               "good.json"],
              ["t-state", "bogus", "other.json", "bad.json", "deep.json", "dir", "loop",
               "missing.json"]),
    # output targets under the work directory; the edges but the first are
    # never a regular file
    "target": (["out.json", "link-out"],
               ["missing/x.json", "dir", "fifo", "link-dir", "link-fifo", "loop", ""]),
}
ARGV_NON_REGULAR = ARGV_VALUES["target"][1][1:]
#: the drawn values that name a path under the work directory
ARGV_FILES = {"good.json", "other.json", "bad.json", "deep.json", "negative.json",
              "missing.json", *ARGV_VALUES["target"][0], *ARGV_VALUES["target"][1]} - {""}
#: each command's flags, the ones it needs to run first
ARGV_FLAGS = {
    "gap": (["--d", "--preset"], ["--n", "--input", "--seed", "--emit-char", "--json"]),
    "convolve": (["--d", "--a", "--b", "--out"],
                 ["--n", "--seed", "--check-duality", "--G", "--spec"]),
    "clt": (["--d", "--seed"], ["--n", "--steps", "--preset", "--input", "--out", "--format"]),
    "suite": ([], ["--seed", "--trials", "--steps", "--out", "--format"]),
    "enumerate": (["--d"], ["--n", "--out"]),
    "capacity-bounds": (["--d", "--sigma"], ["--n", "--rho0", "--seed", "--G", "--spec"]),
}
ARGV_POSITIONAL = {"suite": sorted(experiments.SUITES) + ["bogus"],
                   "enumerate": ["msps", "stabilizers", "bogus"]}
ARGV_KIND = {"--preset": "state", "--input": "state", "--a": "state", "--b": "state",
             "--sigma": "state", "--rho0": "state", "--out": "target", "--emit-char": "target"}
ARGV_SWITCHES = {"--json", "--check-duality"}


def _argv_workdir(work):
    """The files the fuzzed descriptors and targets name, made once."""
    if work.exists():
        return
    work.mkdir()
    (work / "dir").mkdir()
    os.mkfifo(work / "fifo")
    for link, target in [("link-dir", "dir"), ("link-fifo", "fifo"), ("loop", "loop"),
                         ("link-out", "out.json")]:
        (work / link).symlink_to(target)
    _write(work / "good.json", state_to_json(states.ket_state(3, 1, [1])))
    _write(work / "other.json", D5_STATE)
    _write(work / "bad.json", '{"d": 3, "n": 1, "kind": "dense", "re": [[1')
    _write(work / "deep.json", "[" * 100_000)
    _write(work / "negative.json", {"d": 3, "n": 1, "kind": "dense",
                                    "re": np.diag([2.0, -1.0, 0.0]).tolist(),
                                    "im": np.zeros((3, 3)).tolist()})


@st.composite
def _fuzz_argv(draw):
    """A command line of known commands and flags: each flag given or not, a
    value from its list, now and then a flag of another command."""
    command = draw(st.sampled_from([*ARGV_FLAGS, "frobnicate"]))
    argv = [command]
    if command in ARGV_POSITIONAL:
        argv.append(draw(st.sampled_from(ARGV_POSITIONAL[command])))
    needed, optional = ARGV_FLAGS.get(command, ([], []))
    flags = [flag for flag in needed if draw(st.sampled_from([True] * 7 + [False]))]
    flags += [flag for flag in optional if draw(st.booleans())]
    flags += draw(st.lists(st.sampled_from(sorted(ARGV_KIND)), max_size=1))
    for flag in flags:
        argv.append(flag)
        if flag not in ARGV_SWITCHES:
            accepted, edges = ARGV_VALUES[ARGV_KIND.get(flag, flag)]
            argv.append(draw(st.one_of(st.sampled_from(accepted),
                                       st.sampled_from(accepted + edges))))
    return argv


def _tree(work):
    """Every path under ``work`` with its kind, size and modification time."""
    return sorted((str(path.relative_to(work)), path.lstat().st_mode, path.lstat().st_size,
                   path.lstat().st_mtime_ns) for path in work.rglob("*"))


@given(_fuzz_argv())
@settings(max_examples=500, derandomize=True, database=None, deadline=None)
def test_fuzzed_argv_ends_in_a_documented_exit(tmp_path_factory, argv):
    """Any command line gives 0, 1 (a suite only), or 2 or 3 with one
    ``error:`` line, no stdout and no file written; never an internal error.
    A target that is not a regular file is refused with 2."""
    work = tmp_path_factory.getbasetemp() / "fuzzed-argv"
    _argv_workdir(work)
    targets = [value for flag, value in zip(argv, argv[1:]) if ARGV_KIND.get(flag) == "target"]
    argv = [str(work / arg) if arg in ARGV_FILES else arg for arg in argv]
    before = _tree(work)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), err.getvalue()
    assert code != 1 or argv[0] == "suite"
    if code in (2, 3):
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
        assert err.getvalue().startswith("error: ")
        assert _tree(work) == before
    if set(targets) & set(ARGV_NON_REGULAR):
        assert code == 2, err.getvalue()


def test_msps_file_with_non_commuting_generators_is_not_a_valid_state(tmp_path, capsys):
    """A well-formed group file whose generators, Z_1 and X_1, do not commute."""
    path = _write(tmp_path / "state.json", {"d": 3, "n": 2, "kind": "msps",
                                            "generators": [[1, 0, 0, 0], [0, 0, 1, 0]],
                                            "phases": [0, 0]})
    code, out, err = run(capsys, "gap", "--d", "3", "--n", "2", "--input", path)
    assert (code, out) == (3, "")
    assert err == "error: InvalidGroup: generators 0, 1 do not commute\n"


# each member alone is a valid state: only the file's shape is wrong
STACKED_STATE_FILES = {
    "char-two-tables": (char_to_json(weyl.char_function(states.maximally_mixed(3, 1))),
                        "char state has 2-D re/im lists, expected 1-D"),
    "dense-two-matrices": (state_to_json(states.maximally_mixed(3, 1)),
                           "dense state has 3-D re/im lists, expected 2-D"),
}


@pytest.mark.parametrize("name", sorted(STACKED_STATE_FILES))
@pytest.mark.parametrize("command", ["gap", "convolve"])
def test_state_file_holding_a_stack_is_usage_error(tmp_path, capsys, name, command):
    one, message = STACKED_STATE_FILES[name]
    path = _write(tmp_path / "state.json",
                  dict(one, re=[one["re"]] * 2, im=[one["im"]] * 2))
    out_file = tmp_path / "out.json"
    argv = {"gap": ("gap", "--d", "3", "--input", path),
            "convolve": ("convolve", "--d", "3", "--a", path, "--b", "zero-ket",
                         "--out", str(out_file))}[command]
    code, out, err = run(capsys, *argv)
    assert out == ""
    _assert_usage_error(code, err, message)
    assert not out_file.exists()


# re and im that numpy would broadcast into one matrix of the wrong state
MISMATCHED_STATE_FILES = {
    "dense-im-one-entry": ({"d": 3, "n": 1, "kind": "dense", "re": np.eye(3).tolist(),
                            "im": [[0.0]]},
                           "dense state has re of shape (3, 3) and im of shape (1, 1)"),
    "dense-re-one-column": ({"d": 3, "n": 1, "kind": "dense", "re": [[1 / 3]] * 3,
                             "im": np.zeros((3, 3)).tolist()},
                            "dense state has re of shape (3, 1) and im of shape (3, 3)"),
    "char-im-one-entry": ({"d": 3, "n": 1, "kind": "char", "re": [1.0] + [0.0] * 8,
                           "im": [0.0]},
                          "char state has re of shape (9,) and im of shape (1,)"),
}


@pytest.mark.parametrize("name", sorted(MISMATCHED_STATE_FILES))
def test_state_file_whose_re_and_im_shapes_differ_is_usage_error(tmp_path, capsys, name):
    obj, message = MISMATCHED_STATE_FILES[name]
    path = _write(tmp_path / "state.json", obj)
    code, out, err = run(capsys, "gap", "--d", "3", "--input", path)
    assert out == ""
    _assert_usage_error(code, err, message)


def test_state_file_nested_too_deep_to_decode_is_usage_error(tmp_path, capsys):
    path = _write(tmp_path / "state.json", "[" * 100_000)
    code, out, err = run(capsys, "gap", "--d", "3", "--input", path)
    assert out == ""
    _assert_usage_error(code, err, "maximum recursion depth exceeded")


def test_directory_as_state_file_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "gap", "--d", "3", "--input", str(tmp_path))
    _assert_usage_error(code, err, "Is a directory")


@pytest.mark.parametrize("argv", [
    ("convolve", "--d", "3", "--a", "zero-ket", "--b", "zero-ket", "--out"),
    ("gap", "--d", "3", "--preset", "zero-ket", "--emit-char"),
    ("clt", "--d", "7", "--steps", "1", "--seed", "1", "--out"),
    ("convolve", "--d", "7", "--a", "zero-ket", "--b", "zero-ket", "--check-duality", "--out"),
], ids=["convolve-out", "gap-emit-char", "clt-out", "convolve-check-duality"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv):
    """Refused before the command runs: nothing printed, nothing written."""
    target = str(tmp_path / "missing" / "x.json")
    code, out, err = run(capsys, *argv, target)
    _assert_usage_error(code, err, "No such file or directory")
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_output_path_that_is_a_directory_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "convolve", "--d", "3", "--a", "zero-ket",
                       "--b", "zero-ket", "--out", str(tmp_path))
    _assert_usage_error(code, err, "Is a directory")
    assert list(tmp_path.iterdir()) == []  # the temporary file is removed


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
@pytest.mark.parametrize("argv", [
    ("convolve", "--d", "3", "--a", "zero-ket", "--b", "zero-ket", "--out"),
    ("gap", "--d", "3", "--preset", "zero-ket", "--emit-char"),
], ids=["convolve-out", "gap-emit-char"])
def test_written_file_takes_the_umask_mode(tmp_path, capsys, argv, umask, mode):
    """As ``open(path, "w")`` would make it, and with no temporary file left."""
    target = tmp_path / "x.json"
    old = os.umask(umask)
    try:
        code, _, err = run(capsys, *argv, str(target))
    finally:
        os.umask(old)
    assert code == 0, err
    assert stat.S_IMODE(target.stat().st_mode) == mode
    assert list(tmp_path.iterdir()) == [target]


WRITER_ARGV = {"convolve-out": ("convolve", "--d", "3", "--a", "zero-ket", "--b", "zero-ket",
                                 "--out"),
               "gap-emit-char": ("gap", "--d", "3", "--preset", "zero-ket", "--emit-char")}
WRITERS = pytest.mark.parametrize("argv", list(WRITER_ARGV.values()), ids=list(WRITER_ARGV))


@WRITERS
def test_output_through_a_symlink_replaces_its_target(tmp_path, capsys, argv):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old")
    link.symlink_to(target)
    code, _, err = run(capsys, *argv, str(link))
    assert code == 0, err
    assert link.is_symlink() and link.resolve() == target
    assert json.loads(target.read_text())["d"] == 3
    assert sorted(tmp_path.iterdir()) == [link, target]


# with --check-duality: refused before the command prints its deviation
@pytest.mark.parametrize("argv", [
    *WRITER_ARGV.values(),
    ("convolve", "--d", "3", "--a", "zero-ket", "--b", "zero-ket", "--check-duality", "--out"),
], ids=[*WRITER_ARGV, "convolve-check-duality"])
def test_output_to_a_fifo_is_refused(tmp_path, capsys, argv):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    code, out, err = run(capsys, *argv, str(fifo))
    _assert_usage_error(code, err, "Not a regular file")
    assert out == ""
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


D5_STATE = state_to_json(random_density(0, 5, 1))
D4_PRESET = {"d": 4, "n": 1, "kind": "preset", "name": "zero-ket"}


@pytest.mark.parametrize("argv, state, message", [
    (("gap", "--d", "3", "--input"), D5_STATE, "holds d=5, n=1"),
    (("gap", "--d", "5", "--n", "2", "--input"), D5_STATE, "holds d=5, n=1"),
    (("convolve", "--d", "3", "--b", "zero-ket", "--out", "x.json", "--a"), D5_STATE,
     "holds d=5, n=1"),
    (("capacity-bounds", "--d", "3", "--sigma"), D5_STATE, "holds d=5, n=1"),
    (("gap", "--d", "3", "--input"), D4_PRESET, "holds d=4, n=1"),
    (("gap", "--d", "3", "--input"), {"n": 1, "kind": "preset", "name": "zero-ket"},
     "holds d=None, n=1"),
    (("gap", "--d", "3", "--input"), dict(D4_PRESET, d="3"), "holds d='3', n=1"),
], ids=["gap-other-d", "gap-other-n", "convolve", "capacity-bounds", "gap-d4-file",
        "gap-d-missing", "gap-d-string"])
def test_state_file_of_other_system_is_usage_error(tmp_path, capsys, argv, state,
                                                   message):
    path = _write(tmp_path / "state.json", state)
    code, out, err = run(capsys, *argv, path)
    assert out == ""
    _assert_usage_error(code, err, message)


def test_state_file_whose_matrix_is_not_a_state_is_numeric_error(tmp_path, capsys):
    path = _write(tmp_path / "state.json", {"d": 3, "n": 1, "kind": "dense",
                                            "re": (2 * np.eye(3)).tolist(),
                                            "im": np.zeros((3, 3)).tolist()})
    code, out, err = run(capsys, "gap", "--d", "3", "--input", path)
    assert code == 3 and out == ""
    assert err.startswith("error: InvalidState: trace deviation")


def _non_finite(case):
    m = np.eye(3, dtype=complex) / 3
    if case == "nan-diagonal":
        m[0, 0] = np.nan
    elif case == "nan-off-diagonal":
        m[0, 1] = np.nan
    elif case == "inf-diagonal":
        m[1, 1] = np.inf
    elif case == "inf-imaginary-pair":  # re + 1j * im makes each nan + inf j
        m[0, 1], m[1, 0] = complex(0, np.inf), complex(0, -np.inf)
    else:  # a Hermitian pair, so the Hermiticity check would meet inf - inf
        m[0, 2] = m[2, 0] = -np.inf
    return m


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["nan-diagonal", "nan-off-diagonal", "inf-diagonal",
                                  "inf-imaginary-pair", "minus-inf-off-diagonal"])
def test_non_finite_state_is_invalid(tmp_path, capsys, case):
    m = _non_finite(case)
    with pytest.raises(InvalidState, match="non-finite"):
        DensityMatrix(3, 1, m)
    # JSON carries NaN and Infinity literals
    path = _write(tmp_path / "state.json", {"d": 3, "n": 1, "kind": "dense",
                                            "re": m.real.tolist(), "im": m.imag.tolist()})
    for argv in (("gap", "--d", "3", "--input", path),
                 ("convolve", "--d", "3", "--a", path, "--b", "zero-ket",
                  "--out", str(tmp_path / "out.json"))):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err == "error: InvalidState: matrix has a non-finite entry\n"
    assert not (tmp_path / "out.json").exists()


#: char tables that invert to a non-finite matrix: an infinite entry, and
#: 1e308s that overflow the inverse transform
NON_FINITE_INVERSES = {
    "char-im-inf": {"d": 2, "n": 1, "kind": "char", "re": [1.0, 0.0, 0.0, 0.0],
                    "im": [0.0, 0.0, 0.0, math.inf]},
    "char-1e308": {"d": 2, "n": 1, "kind": "char", "re": [0.0, 0.0, 0.0, 1e308],
                   "im": [0.0, 1e308, 0.0, 0.0]},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(NON_FINITE_INVERSES))
def test_char_table_with_a_non_finite_inverse_is_numeric_error(tmp_path, capsys, name):
    path = _write(tmp_path / "state.json", NON_FINITE_INVERSES[name])
    code, out, err = run(capsys, "gap", "--d", "2", "--input", path)
    assert code == 3 and out == ""
    assert err == "error: InvalidState: matrix has a non-finite entry\n"


#: dense states whose Hermiticity or trace deviation overflows to inf, and
#: a Hermitian one whose sum with its adjoint would
OVERFLOW_MESSAGES = {"all-entries-1e308": "trace deviation inf",
                     "real-pair-1e308-and-minus-1e308": "Hermiticity deviation inf",
                     "imaginary-pair-both-1e308": "Hermiticity deviation inf",
                     "real-pair-both-1e308": "negative eigenvalue -1.000e+308"}


@pytest.mark.parametrize("case", OVERFLOW_MESSAGES)
def test_state_past_the_float_range_is_numeric_error_with_no_warning(tmp_path, capsys, case):
    """The inf fails its check with its one line, and numpy warns of nothing."""
    re, im = np.eye(3) / 3, np.zeros((3, 3))
    if case == "all-entries-1e308":
        re[:] = 1e308
    elif case == "real-pair-1e308-and-minus-1e308":
        re[0, 1], re[1, 0] = 1e308, -1e308
    elif case == "real-pair-both-1e308":
        re[0, 1] = re[1, 0] = 1e308
    else:
        im[0, 1] = im[1, 0] = 1e308
    path = _write(tmp_path / "state.json", {"d": 3, "n": 1, "kind": "dense",
                                            "re": re.tolist(), "im": im.tolist()})
    code, out, err = run(capsys, "gap", "--d", "3", "--input", path)
    assert code == 3 and out == ""
    assert err == f"error: InvalidState: {OVERFLOW_MESSAGES[case]}\n"


def _count_calls(monkeypatch, fn):
    """Replace every dvconv binding of fn with a wrapper that counts calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "dvconv" or name.startswith("dvconv."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_gap_transforms_a_dense_state_once(tmp_path, monkeypatch, capsys):
    rho = random_density(0, 7, 2)
    path = _write(tmp_path / "rho.json", state_to_json(rho))
    char_path = _write(tmp_path / "char.json", char_to_json(weyl.char_function(rho)))
    inverse_char = weyl.inverse_char
    forward = _count_calls(monkeypatch, weyl.char_table)
    inverse = _count_calls(monkeypatch, inverse_char)
    # the by-name imports are counted too
    assert states.inverse_char is magic.inverse_char is weyl.inverse_char
    assert weyl.inverse_char is not inverse_char
    code, out, _ = run(capsys, "gap", "--d", "7", "--n", "2", "--input", path, "--json")
    assert code == 0 and json.loads(out)["d"] == 7
    assert (len(forward), len(inverse)) == (1, 0)
    # a char file's table is inverted once to validate its state, then used as is
    code, char_out, _ = run(capsys, "gap", "--d", "7", "--n", "2", "--input", char_path,
                            "--json")
    assert code == 0 and char_out == out
    assert (len(forward), len(inverse)) == (1, 1)
    # an msps file's table is built from its group: inverted once, never transformed
    msps_path = _write(tmp_path / "msps.json", {"d": 7, "n": 2, "kind": "msps",
                                                "generators": [[1, 0, 0, 0], [0, 0, 0, 1]],
                                                "phases": [3, 5]})
    code, msps_out, _ = run(capsys, "gap", "--d", "7", "--n", "2", "--input", msps_path,
                            "--json")
    assert code == 0 and json.loads(msps_out)["is_msps"] is True
    assert (len(forward), len(inverse)) == (1, 2)


def test_gap_normalises_the_unit_phases_at_most_three_times(tmp_path, monkeypatch, capsys):
    """One gap takes the unit phases of the table for the mean table and for
    MG and LMG together, and of the mean table in is_msps."""
    rho = random_density(0, 7, 2)
    dense = _write(tmp_path / "rho.json", state_to_json(rho))
    char = _write(tmp_path / "char.json", char_to_json(weyl.char_function(rho)))
    calls = _count_calls(monkeypatch, states.unit_phases)
    assert magic.unit_phases is states.unit_phases  # the by-name import is counted too
    outs = []
    for path in (dense, char):
        calls.clear()
        code, out, err = run(capsys, "gap", "--d", "7", "--n", "2", "--input", path, "--json")
        assert code == 0, err
        assert len(calls) <= 3
        outs.append(out)
    assert outs[0] == outs[1]


def _gap_tables() -> dict[str, weyl.CharFunction]:
    """Tables on both sides of the MSPS rule: every MSPS at d = 3 and 5,
    Ginibre states, the qubit T state, a Bell state, the maximally mixed
    qutrit with Xi(+-x) at 0.99 and 1.01 SUPPORT_TOL, and |0><0| at d = 3
    mixed toward I/3 until its unit values sit at 1 - 0.5 and 1 - 2 UNIT_TOL."""
    tables = {f"msps-d{d}-{k}": states.msps_table(group) for d in (3, 5)
              for k, group in enumerate(states.enumerate_groups(d, 1))}
    for seed, (d, n) in enumerate([(3, 1), (5, 1), (7, 1), (3, 2)]):
        tables[f"ginibre-d{d}n{n}"] = weyl.char_function(random_density(seed, d, n))
    tables["t-state"] = weyl.char_function(states.t_state())
    bell = np.zeros((4, 4), dtype=complex)
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    tables["bell"] = weyl.char_function(DensityMatrix(2, 2, bell))
    mixed = weyl.char_function(states.maximally_mixed(3, 1)).values
    for factor in (0.99, 1.01):
        values = mixed.copy()
        values[weyl.point_index([[1, 2], [2, 1]], 3)] = factor * weyl.SUPPORT_TOL
        tables[f"support-tol-x{factor}"] = weyl.CharFunction(3, 1, values)
    pure = weyl.char_function(states.ket_state(3, 1, [0])).values
    for k in (0.5, 2):
        values = pure.copy()
        values[1:] *= 1 - k * states.UNIT_TOL
        tables[f"unit-tol-x{k}"] = weyl.CharFunction(3, 1, values)
    return tables


GAP_TABLES = _gap_tables()


@pytest.mark.parametrize("name", sorted(GAP_TABLES))
def test_gap_detects_an_msps_in_one_pass(tmp_path, monkeypatch, capsys, name):
    """gap reports is_msps as MG = 0 once the mean table has passed
    is_msps: the one call agrees with is_msps on the table itself."""
    table = GAP_TABLES[name]
    path = _write(tmp_path / "char.json", char_to_json(table))
    _, read = states.load_state_json(json.loads(Path(path).read_text()))
    expected = states.is_msps(read)[0]
    calls = _count_calls(monkeypatch, states.is_msps)
    assert magic.is_msps is states.is_msps  # the by-name import is counted too
    code, out, err = run(capsys, "gap", "--d", str(table.d), "--n", str(table.n),
                         "--input", path, "--json")
    assert code == 0, err
    assert json.loads(out)["is_msps"] is expected
    assert len(calls) == 1


def test_convolve_at_d343(tmp_path, capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "convolve", "--d", "7", "--n", "3", "--a", "random-pure",
                         "--b", "random-mixed", "--seed", "0", "--check-duality",
                         "--out", str(tmp_path / "out.json"))
    elapsed = time.perf_counter() - t0
    assert code == 0, err
    assert float(out.split()[-1]) <= DUALITY_TOL
    assert elapsed < 2.0


def test_clt_at_d343(tmp_path, capsys):
    out_file = tmp_path / "clt.csv"
    t0 = time.perf_counter()
    code, _, err = run(capsys, "clt", "--d", "7", "--n", "3", "--steps", "30",
                       "--seed", "7", "--out", str(out_file))
    elapsed = time.perf_counter() - t0
    assert code == 0, err
    assert elapsed < 10.0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 32  # header + steps 0..30
    for line in lines[1:]:
        cols = line.split(",")
        assert float(cols[1]) <= float(cols[2]) + 1e-9


def _subprocess_env():
    """The environment of a ``python -m dvconv`` run of these sources."""
    src = str(Path(dvconv.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ("enumerate", "msps", "--d", "17"),  # megabytes
    ("suite", "entropy", "--trials", "200"),  # 170 kB of CSV
    ("clt", "--d", "7", "--seed", "1", "--steps", "2000"),  # 250 kB of CSV
], ids=["enumerate", "suite", "clt"])
def test_a_closed_stdout_ends_quietly(argv, unbuffered):
    """``dvconv ... | head -c 100``: the reader leaves early, while the output
    is longer than a pipe holds.  Unbuffered, a write may be cut short
    without an error; the rest must still reach the closed pipe."""
    env = _subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "dvconv", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        code = proc.wait(timeout=60)  # a traceback would fit in the pipe's buffer
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.stderr.close()
    assert (code, err) == (EXIT_CLOSED_PIPE, b"")


def test_importing_the_cli_loads_neither_secrets_nor_hmac():
    """The temporary file of an atomic write is named from os.urandom, so no
    CLI process pays for importing ``secrets`` and the ``hmac`` it loads."""
    code = "import sys, dvconv.cli; print(sorted({'secrets', 'hmac'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_second_main_call_builds_no_parser(monkeypatch, capsys):
    """``cli.main`` builds its parser once per process."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    argv = ("gap", "--d", "3", "--preset", "zero-ket", "--json")
    first = run(capsys, *argv)
    assert built  # the count sees the first call build it
    del built[:]
    assert run(capsys, *argv) == first
    assert built == []


def test_commands_are_dispatched_through_the_table(monkeypatch, capsys):
    seen = []

    def stub(args):
        seen.append((args.command, args.d, args.state))
        return 0

    monkeypatch.setitem(cli.COMMANDS, "gap", stub)
    code, out, err = run(capsys, "gap", "--d", "3", "--preset", "zero-ket")
    assert (code, out, err) == (0, "", "")
    assert seen == [("gap", 3, "zero-ket")]


def _run_in_process(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # help and argparse's own usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv, code", [
    (("--help",), 0),
    (("gap", "--help"), 0),
    (("suite", "--seed", "-1", "duality"), 2),
    (("frobnicate",), 2),
    (("gap", "--d", "3", "--preset", "zero-ket", "--json"), 0),
], ids=["help", "gap-help", "suite-seed", "unknown-command", "gap-json"])
def test_repeated_main_calls_match_a_fresh_process(monkeypatch, capsys, argv, code):
    """The cached parser gives each call what a new process gives: exit code,
    stdout and stderr, byte for byte."""
    monkeypatch.setenv("COLUMNS", "80")  # one help width in and out of process
    first = _run_in_process(capsys, argv)
    assert first[0] == code
    assert _run_in_process(capsys, argv) == first
    proc = subprocess.run([sys.executable, "-m", "dvconv", *argv], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == first
