"""dvconv benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload gate --seed 0 --seconds 45 --trace 0

Run from the root of a checkout.  The workload runs in its own fresh
process (``workload.py``) with BLAS pinned to one thread and a memory
ceiling.  With ``--trace 0`` the set-up is also repeated in separate
set-up-only processes and ``setup_s`` is the median over all of them.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every end-to-end metric of BENCHMARK.json with
``--trace 0``, every per-layer metric with ``--trace 1``.  The lines before
it give the machine and the spread of the pass times.  Any harness failure
exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up processes per untraced run, the measured workload process included.
SETUP_SAMPLES = 5

#: Wall-clock budget of one benchmark run, children included.
RUN_BUDGET_S = 170

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def run_child(args, extra, deadline):
    """Run workload.py; return its start time and its JSON result."""
    argv = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env={**os.environ, **BLAS_ENV},
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - started, 1))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return started, json.loads(lines[-1])


def measure(args, spec, deadline):
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            started, result = run_child(args, ["--setup-only"], deadline)
            setup.append(result["setup_end"] - started)
    started, result = run_child(args, ["--trace", str(args.trace)], deadline)
    setup.append(result["setup_end"] - started)
    if Path(result["dvconv"]).resolve().parent != ROOT / "src" / "dvconv":
        raise BenchError(f"measured dvconv from {result['dvconv']}, not from src/")

    walls = [p["wall_s"] for p in result["passes"]]
    cpus = [p["cpu_s"] for p in result["passes"]]
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    q1, _, q3 = statistics.quantiles(walls, n=4)
    print(f"pass_s median {statistics.median(walls):.4f} q1 {q1:.4f} q3 {q3:.4f} "
          f"n {len(walls)}; fail_frac {result['failed']}/{result['attempted']}")

    if args.trace:
        wanted, values = spec["per_layer"], result["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(walls),
            "pass_cpu_s": statistics.median(cpus),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "dvconv" / "__init__.py").is_file():
            raise BenchError(f"no dvconv sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        result = measure(args, spec, deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
