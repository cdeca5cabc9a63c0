"""One run of one benchmark workload, in a fresh process.

    python3 perfbench/workload.py --workload gate --seed 0 --seconds 45 --trace 0

The run sets a memory ceiling, imports dvconv from ``src/``, builds its
inputs from the seed and fills the lazy transform caches (together: set-up).
It then runs timed passes over the workload in a closed loop until
``--seconds`` have passed, and checks every output.  ``--setup-only`` stops
after set-up.  With ``--trace 1`` the first half of the run is untraced and
the second half runs with every public function of every dvconv layer (and
the numpy kernels they call) wrapped by ``tracer.Tracer``; nothing under
``src/`` changes.

The last stdout line is one JSON object that ``run.py`` turns into the
benchmark result.  ``run.py`` pins the BLAS thread count in the environment
before this process starts, because OpenBLAS reads it when numpy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import inspect
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Address-space ceiling of a workload process.  A transform that grows as
#: D^4 fails here with a counted MemoryError instead of exhausting the host.
MEMORY_CEILING = 2 * 1024**3

#: Fewest timed passes per phase, however long a pass takes.
MIN_PASSES = 2

#: The acceptance gate's suite parameters, and the record count each report
#: must have.  A (low, high) pair is a range where the inputs decide:
#: extremality skips infinite divergences and clt skips slopes it cannot fit.
GATE_SUITES = (
    ("duality", {"trials": 200}, (200, 200)),
    ("entropy", {"trials": 100}, (1400, 1400)),  # 2 configs x (6 alphas + 2 on full rank)
    ("fisher", {"trials": 100, "oracle_cases": 20}, (220, 220)),
    ("extremality", {"trials": 50}, (150, 1950)),  # 3 alphas x (1 + up to 12 other MSPS)
    ("stability", None, (144, 144)),
    ("min-output", None, (256, 256)),  # 4 partner lines + 144 pairs + 108 mismatched
    ("holevo", {"trials": 50}, (125, 125)),  # 2 per trial + 13 MSPS + 12 stabilizers
    ("clt", {"trials": 50, "steps": 30}, (250, 300)),  # 5 per trial + fitted slope
    ("monotonicity", {"trials": 100}, (200, 200)),
    ("synthesis", {"trials": 100}, (100, 100)),
)

#: (d, n) cells of the scale workload, D = d^n from 3 to 49.  D = 125 and
#: D = 343 are left out: their dense Weyl basis cannot be allocated today.
SCALE_CELLS = ((3, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2))

#: The dense-input and characteristic-input gap runs must agree this closely.
GAP_AGREE_TOL = 1e-9

#: Modules of the dvconv package whose public functions are traced.
LAYERS = ("zmod", "linalg", "weyl", "states", "magic", "entropy", "conv",
          "experiments", "cli")

COMPLEX_BYTES = 16


def set_memory_ceiling() -> int:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = MEMORY_CEILING if hard == resource.RLIM_INFINITY else min(MEMORY_CEILING, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return limit


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Gate:
    """All ten suites through ``experiments.SUITES``; one op is one suite call."""

    warm_cells = ((2, 1), (2, 2), (3, 1), (3, 2), (7, 1))

    def __init__(self, seed: int, workdir: str):
        from dvconv import experiments

        self.experiments = experiments
        self.ops = []
        for name, kwargs, _ in GATE_SUITES:
            kwargs = {} if kwargs is None else dict(kwargs, seed=seed)
            self.ops.append((name, self._caller(name, kwargs)))
        self.reference: list[str] | None = None
        self.margins: dict[str, float] = {}

    def _caller(self, name, kwargs):
        # Look the suite up at call time, so a traced SUITES entry is used.
        return lambda: self.experiments.SUITES[name](**kwargs)

    def check(self, outputs) -> list[str | None]:
        digests, errors = [], []
        for (name, _, (low, high)), report in zip(GATE_SUITES, outputs):
            if isinstance(report, BaseException):
                digests.append(None)
                errors.append(f"{name}: raised {report!r}")
                continue
            digests.append(hashlib.sha256(report.to_json().encode()).hexdigest())
            records = report.records
            if not report.passed:
                errors.append(f"{name}: report failed")
            elif not low <= len(records) <= high:
                errors.append(f"{name}: {len(records)} records, expected {low}..{high}")
            else:
                errors.append(None)
                margin = min(r["bound"] - r["value"] for r in records)
                self.margins[name] = min(margin, self.margins.get(name, margin))
        return _against_reference(self, digests, errors)


class Scale:
    """``cli.main`` in-process over growing (d, n); one op is one call.

    Per cell: ``convolve`` writes a dense state, ``gap`` reads it and writes
    its characteristic table, and a second ``gap`` reads that table back.
    """

    warm_cells = SCALE_CELLS

    def __init__(self, seed: int, workdir: str):
        from dvconv import cli, experiments, states

        self.cli, self.states = cli, states
        self.duality_tol = experiments.DUALITY_TOL
        self.ops, self.files = [], []
        for d, n in SCALE_CELLS:
            dense = os.path.join(workdir, f"state_d{d}n{n}.json")
            char = os.path.join(workdir, f"char_d{d}n{n}.json")
            size = ["--d", str(d), "--n", str(n)]
            self.files.append((d, n, dense, char))
            for argv in (
                ["convolve", *size, "--a", "random-pure", "--b", "random-mixed",
                 "--seed", str(seed), "--check-duality", "--out", dense],
                ["gap", *size, "--input", dense, "--emit-char", char, "--json"],
                ["gap", *size, "--input", char, "--json"],
            ):
                self.ops.append((f"{argv[0]} d={d} n={n}", self._caller(argv)))
        self.reference: list[str] | None = None
        self.margins: dict[str, float] = {}

    def _caller(self, argv):
        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        return call

    def _load(self, path, d, n) -> None:
        with open(path) as fh:
            rho = self.states.state_from_json(json.load(fh))
        if (rho.d, rho.n) != (d, n):
            raise ValueError(f"{path} holds d={rho.d} n={rho.n}")

    def _check_convolve(self, stdout, dense, d, n) -> None:
        dev = float(stdout.split()[1])
        if not dev <= self.duality_tol:
            raise ValueError(f"duality deviation {dev:.3e} > {self.duality_tol:.0e}")
        self._load(dense, d, n)

    @staticmethod
    def _check_agree(dense_stdout, char_stdout) -> None:
        first, second = json.loads(dense_stdout), json.loads(char_stdout)
        if (abs(first["magic_gap"] - second["magic_gap"]) > GAP_AGREE_TOL
                or first["pauli_rank"] != second["pauli_rank"]
                or first["mean_vector"] != second["mean_vector"]):
            raise ValueError("dense-input and characteristic-input gap disagree")

    def check(self, outputs) -> list[str | None]:
        digests, errors = [], []
        for cell, (d, n, dense, char) in enumerate(self.files):
            conv_out, gap_out, back_out = ops = outputs[3 * cell: 3 * cell + 3]
            errs = [_exit_error(out) for out in ops]
            if errs[0] is None:
                errs[0] = _error_of(self._check_convolve, conv_out[1], dense, d, n)
            if errs[1] is None:
                errs[1] = _error_of(self._load, char, d, n)
            if errs[2] is None:
                errs[2] = ("no dense-input gap to compare with" if errs[1] is not None
                           else _error_of(self._check_agree, gap_out[1], back_out[1]))
            for (label, _), err in zip(self.ops[3 * cell: 3 * cell + 3], errs):
                errors.append(None if err is None else f"{label}: {err}")
            digests.append(None if errs[0] else conv_out[1] + _file_digest(dense))
            digests += [None if e else out[1] for e, out in zip(errs[1:], ops[1:])]
        return _against_reference(self, digests, errors)


def _exit_error(out) -> str | None:
    if isinstance(out, BaseException):
        return f"raised {out!r}"
    code, _, stderr = out
    return None if code == 0 else f"exit {code}: {stderr.strip()}"


def _error_of(check, *args) -> str | None:
    try:
        check(*args)
    except Exception as exc:  # any failure to read or verify an output counts
        return repr(exc)
    return None


def _file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _against_reference(workload, digests, errors):
    """Each op's output must repeat the first pass's output exactly."""
    if workload.reference is None:
        workload.reference = digests
    return [err if err is not None or digest == ref else "output differs from the first pass"
            for err, digest, ref in zip(errors, digests, workload.reference)]


WORKLOADS = {"gate": Gate, "scale": Scale}


def warm_up(cells) -> None:
    """Fill the lru_cache tables the transforms build on first use."""
    from dvconv import weyl

    for d, n in cells:
        weyl.weyl_basis(d, n)
        weyl.neg_perm(d, n)


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class Probes:
    """Observers for kernel sizes and repeated transform inputs.

    Sizes are computed from operand shapes, not measured: the dense
    convolution conjugates a (D^2 x D^2) complex operand, and the forward
    transform contracts a (d^{2n} x D x D) complex Weyl basis.
    """

    def __init__(self, convolve, char_table):
        self._convolve_sig = inspect.signature(convolve)
        self._char_sig = inspect.signature(char_table)
        self.operand_bytes = {"conv.convolve": 0, "weyl.char_table": 0}
        self.char_calls = 0
        self.char_distinct = 0
        self._seen: set = set()

    def new_pass(self) -> None:
        self.char_distinct += len(self._seen)
        self._seen.clear()

    def convolve(self, args, kwargs, result) -> None:
        bound = self._convolve_sig.bind(*args, **kwargs).arguments
        joint = bound["rho"].mat.shape[0] * bound["sigma"].mat.shape[0]
        self._note("conv.convolve", joint * joint * COMPLEX_BYTES)

    def char_table(self, args, kwargs, result) -> None:
        bound = self._char_sig.bind(*args, **kwargs).arguments
        M, d, n = bound["M"], bound["d"], bound["n"]
        self._note("weyl.char_table", d ** (2 * n) * M.shape[0] * M.shape[1] * COMPLEX_BYTES)
        self.char_calls += 1
        digest = hashlib.blake2b(M.tobytes(), digest_size=16).digest()
        self._seen.add((d, n, M.shape, digest))

    def _note(self, name, nbytes) -> None:
        self.operand_bytes[name] = max(self.operand_bytes[name], nbytes)


def instrument(tracer, probes) -> None:
    """Wrap every public function of every layer, in every dvconv namespace."""
    import numpy

    from dvconv import states

    modules = [m for name, m in sys.modules.items()
               if name == "dvconv" or name.startswith("dvconv.")]
    tables = [value for m in modules for key, value in vars(m).items()
              if isinstance(value, dict) and not key.startswith("__")]
    containers = modules + tables
    observers = {"conv.convolve": probes.convolve, "weyl.char_table": probes.char_table}
    for layer in LAYERS:
        module = importlib.import_module(f"dvconv.{layer}")
        for attr, obj in list(vars(module).items()):
            if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            name = f"{layer}.{attr}"
            tracer.install(name, obj, containers, observers.get(name))
    tracer.install("states.DensityMatrix", states.DensityMatrix.__post_init__,
                   [states.DensityMatrix])
    for name, owner, attr in (("numpy.kron", numpy, "kron"),
                              ("numpy.eigh", numpy.linalg, "eigh"),
                              ("numpy.eigvalsh", numpy.linalg, "eigvalsh")):
        tracer.install(name, getattr(owner, attr), [owner] + containers)


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------


def run_phase(workload, seconds: float, before_pass=None, after_pass=None) -> list[dict]:
    """Timed passes until ``seconds`` have passed; the hooks bracket the ops only."""
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        if before_pass:
            before_pass()
        outputs = []
        wall, cpu = time.perf_counter(), time.process_time()
        for _, op in workload.ops:
            try:
                outputs.append(op())
            except Exception as exc:  # a failing op is counted; the run goes on
                traceback.print_exc()
                outputs.append(exc)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        if after_pass:
            after_pass()
        errors = workload.check(outputs)
        for err in errors:
            if err is not None:
                print(f"check failed: {err}", file=sys.stderr)
        passes.append({"wall_s": wall, "cpu_s": cpu, "attempted": len(outputs),
                       "failed": sum(e is not None for e in errors)})
    return passes


def machine_info(ceiling: int) -> dict:
    import numpy

    model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "memory_ceiling_bytes": ceiling,
    }


def traced_phase(workload, seconds: float):
    from dvconv import conv, experiments, weyl

    from tracer import Tracer

    probes = Probes(conv.convolve, weyl.char_table)
    basis_cache = weyl.weyl_basis
    tracer = Tracer()
    instrument(tracer, probes)
    totals: dict[str, dict[str, float]] = {}

    def collect():
        for name, stats in tracer.summary().items():
            entry = totals.setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                entry[key] += value
        tracer.reset()
        probes.new_pass()

    cache_before = basis_cache.cache_info()
    try:
        passes = run_phase(workload, seconds, before_pass=tracer.reset, after_pass=collect)
    finally:
        tracer.uninstall()
    cache_after = basis_cache.cache_info()

    count = len(passes)
    layer = {}
    for name in tracer.names:
        stats = totals.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for key, value in stats.items():
            layer[f"{name}.{key}"] = value / count
    for name, nbytes in probes.operand_bytes.items():
        layer[f"{name}.max_operand_bytes"] = nbytes
    layer["weyl.char_table.repeat_frac"] = (
        1 - probes.char_distinct / probes.char_calls if probes.char_calls else 0.0)
    layer["weyl.weyl_basis.cache_hits"] = (cache_after.hits - cache_before.hits) / count
    layer["weyl.weyl_basis.cache_misses"] = (cache_after.misses - cache_before.misses) / count
    for name in experiments.SUITES:
        metric = "experiments.suite_" + name.replace("-", "_") + ".min_margin"
        layer[metric] = workload.margins.get(name, 0.0)
    return passes, layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    ceiling = set_memory_ceiling()
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        import dvconv.cli  # noqa: F401  (imports every layer)

        workload = WORKLOADS[args.workload](args.seed, workdir)
        warm_up(workload.warm_cells)
        result = {"setup_end": time.monotonic()}
        if not args.setup_only:
            if args.trace:
                plain = run_phase(workload, args.seconds / 2)
                traced, layer = traced_phase(workload, args.seconds / 2)
                result["per_layer"] = layer
                layer["trace.overhead_frac"] = (
                    statistics.median(p["wall_s"] for p in traced)
                    / statistics.median(p["wall_s"] for p in plain) - 1)
                passes = plain + traced
            else:
                passes = run_phase(workload, args.seconds)
            result["passes"] = passes
            result["attempted"] = sum(p["attempted"] for p in passes)
            result["failed"] = sum(p["failed"] for p in passes)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["machine"] = machine_info(ceiling)
            result["dvconv"] = sys.modules["dvconv"].__file__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
