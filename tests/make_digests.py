"""Write tests/digests.json: the sha256 of every output that the toolkit
promises to reproduce byte for byte per seed.

    PYTHONPATH=src python3 tests/make_digests.py

The digests cover every suite's ``to_json() + to_csv()`` at the acceptance
gate's parameters (``GATE_SUITES`` in perfbench/workload.py) at seeds 0 and
7, the three commands of each ``scale`` cell (``SCALE_CELLS``) at seed 0,
and the README's CLI examples.  A CLI digest covers the exit code, stdout,
stderr and every file the command writes.  tests/test_digests.py recomputes
them.  A change that alters output bytes on purpose reruns this script and
logs which digests changed and why: the file is a check's data.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shlex
import tempfile
from pathlib import Path

import numpy as np

from dvconv import cli, experiments

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SUITE_SEEDS = (0, 7)
SCALE_SEED = 0
#: the flags whose value names a file the command writes
OUTPUT_FLAGS = ("--out", "--emit-char")


def _workload():
    """perfbench/workload.py, read from the file as it is."""
    spec = importlib.util.spec_from_file_location("perfbench_workload",
                                                  ROOT / "perfbench" / "workload.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def readme_examples() -> list[list[str]]:
    """The argv of each command in the README's CLI block, without ``dvconv``."""
    block = (ROOT / "README.md").read_text().split("## CLI\n\n```sh\n", 1)[1].split("```")[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.strip()]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_digest(argv, workdir) -> str:
    """One in-process ``cli.main`` call; relative output paths go under workdir."""
    argv = list(argv)
    written = []
    for i, flag in enumerate(argv[:-1]):
        if flag in OUTPUT_FLAGS:
            argv[i + 1] = os.path.join(workdir, argv[i + 1])
            written.append(argv[i + 1])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    files = [Path(path).read_text() for path in written]
    return _sha256(json.dumps([code, out.getvalue(), err.getvalue(), files]))


def digests(workdir) -> dict[str, str]:
    """Every digest by name; the CLI commands write their files in workdir."""
    workload = _workload()
    out = {}
    for name, kwargs, _ in workload.GATE_SUITES:
        for seed in SUITE_SEEDS:
            # as the benchmark calls it: a suite without parameters gets no seed
            kwargs_at_seed = {} if kwargs is None else dict(kwargs, seed=seed)
            report = experiments.SUITES[name](**kwargs_at_seed)
            out[f"suite {name} seed {seed}"] = _sha256(report.to_json() + report.to_csv())
    for d, n in workload.SCALE_CELLS:
        dense, char = (os.path.join(workdir, f"{kind}_d{d}n{n}.json")
                       for kind in ("state", "char"))
        size = ["--d", str(d), "--n", str(n)]
        for label, argv in (
            ("convolve", ["convolve", *size, "--a", "random-pure", "--b", "random-mixed",
                          "--seed", str(SCALE_SEED), "--check-duality", "--out", dense]),
            ("gap dense", ["gap", *size, "--input", dense, "--emit-char", char, "--json"]),
            ("gap char", ["gap", *size, "--input", char, "--json"]),
        ):
            out[f"scale d={d} n={n} {label}"] = _cli_digest(argv, workdir)
    for argv in readme_examples():
        out["readme " + " ".join(argv)] = _cli_digest(argv, workdir)
    return out


def builds() -> dict[str, str]:
    """The numpy and BLAS builds the digests were computed with."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        table = dict(builds(), digests=digests(workdir))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
