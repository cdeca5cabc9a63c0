"""Command-line front door: state I/O, suite invocation, CLT runs.

Exit codes: 0 pass; 1 suite violation (and nothing else); 2 usage error
(bad arguments, unsupported (d, n), a parameter matrix that cannot be
built, a state file that cannot be read or parsed or holds another (d, n),
or an output path that cannot be written); 3 numeric precondition failure
on valid arguments; 4 internal error (any exception that is not a
DvconvError, printed with its traceback before one ``internal error:``
line); 141 (128 + SIGPIPE) when the reader of stdout has closed it, with
nothing printed.  Codes 2 and 3 print one ``error:`` line (argparse's own
errors too), and nothing on stdout or to a file.
All floats print with 17 significant digits so outputs are byte-identical
across runs and platforms.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import traceback

import numpy as np

from . import conv, experiments, magic, states, weyl
from .errors import DvconvError, ParseError
from .experiments import fmt
from .zmod import check_system

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE, as a shell reports a killed writer

RANDOM_PRESETS = ("random-pure", "random-mixed")

#: the least value each count option takes, checked before any command runs
COUNT_FLOORS = {"seed": 0, "steps": 0, "trials": 1}

#: the most records one command may compute (CLT steps or suite records),
#: checked before anything is drawn; at the budget, suite fisher, the
#: largest stack per record, peaked at 263 MB RSS with 1 BLAS thread
RECORD_BUDGET = 50_000


@contextlib.contextmanager
def _usage_errors():
    """Report any DvconvError raised inside as a usage error (exit 2)."""
    try:
        yield
    except DvconvError as exc:
        raise ParseError(str(exc)) from exc


def _check_records(count: int) -> None:
    if count > RECORD_BUDGET:
        raise ParseError(f"the arguments ask for {count} records; "
                         f"the budget is {RECORD_BUDGET}")


def _emit(text: str, path: str | None) -> None:
    """Write ``text`` atomically to the file at ``path``, through a symlink,
    with mode 0o666 less the umask, as ``open(path, "w")`` gives (``main``
    has refused a target that is not a regular file).  Else write to stdout,
    as bytes until every byte is taken: a short write through an unbuffered
    text layer would lose the rest, and a closed reader's BrokenPipeError."""
    if path:
        real = os.path.realpath(path)
        try:
            tmp = os.path.join(os.path.dirname(real), f".dvconv-{os.urandom(8).hex()}")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(text)
                os.replace(tmp, real)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as exc:
            raise ParseError(f"cannot write {path!r}: {exc.strerror}") from exc
    elif not hasattr(sys.stdout, "buffer"):  # a text-only capture
        sys.stdout.write(text)
    else:
        sys.stdout.flush()
        data = text.encode(sys.stdout.encoding)
        while data:
            data = data[sys.stdout.buffer.write(data):]
        sys.stdout.buffer.flush()


def _rng(args) -> np.random.Generator | None:
    """The one generator a seeded command draws its operands from, in order."""
    return None if args.seed is None else np.random.default_rng(args.seed)


def _load(descriptor: str, d: int, n: int, rng: np.random.Generator | None
          ) -> tuple[states.DensityMatrix, weyl.CharFunction | None]:
    """The state of a preset name, random preset drawn from rng, or JSON file
    of this (d, n), and the table a ``char`` or ``msps`` file holds or defines."""
    if descriptor in states.PRESETS:
        return states.preset_state(descriptor, d, n), None
    if descriptor in RANDOM_PRESETS:
        if rng is None:
            raise ParseError(f"preset {descriptor!r} requires --seed")
        rank = 1 if descriptor == "random-pure" else d**n
        return states.random_density(rng, d, n, rank), None
    if not os.path.exists(descriptor):
        raise ParseError(f"state descriptor {descriptor!r} is neither a preset "
                         f"({', '.join(states.PRESETS + RANDOM_PRESETS)}) nor a file")
    try:
        with open(descriptor) as fh:
            obj = json.load(fh)
    # ValueError: not JSON text; RecursionError: nested deeper than the decoder goes
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"state file {descriptor!r}: {exc}") from exc
    held = (obj.get("d"), obj.get("n")) if isinstance(obj, dict) else (None, None)
    if tuple(map(type, held)) != (int, int) or held != (d, n):  # before anything is built
        raise ParseError(f"state file {descriptor!r} holds d={held[0]!r}, "
                         f"n={held[1]!r}; expected d={d}, n={n}")
    try:
        return states.load_state_json(obj)
    except ParseError as exc:
        raise ParseError(f"state file {descriptor!r}: {exc}") from exc


def _spec_from_args(spec: str | None, G: str | None, d: int,
                    n: int) -> conv.ConvolutionSpec:
    """The one place a convolution spec is built from command-line arguments."""
    if spec is not None and G is not None:
        raise ParseError("--G and --spec each name a parameter matrix; give one")
    with _usage_errors():
        if spec == "beam-splitter":
            return conv.beam_splitter_spec(d, n)
        if spec == "amplifier":
            return conv.amplifier_spec(d, n)
        if G is None:
            return conv.default_spec(d, n)
        try:
            entries = tuple(int(v) for v in G.split(","))
        except ValueError:
            entries = ()
        if len(entries) != 4:
            raise ParseError("--G expects four comma-separated integers")
        return conv.ConvolutionSpec(d, n, entries)


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--G", help="comma-separated g00,g01,g10,g11 over Z_d")
    p.add_argument("--spec", choices=["beam-splitter", "amplifier"],
                   help="named parameter matrix")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gap(args) -> int:
    if args.state is None:
        raise ParseError("gap needs --preset or --input")
    rho, table = _load(args.state, args.d, args.n, _rng(args))
    if table is None:
        table = weyl.char_function(rho)
    group = magic.mean_vector(table)
    mg, lmg = magic.magic_gaps(table)
    out = {
        "d": rho.d,
        "n": rho.n,
        "magic_gap": mg,
        "log_magic_gap": lmg,
        "pauli_rank": weyl.pauli_rank(table),
        # mean_vector has checked that the mean table is an MSPS's, so rho is one iff MG = 0
        "is_msps": bool(mg == 0),
        "mean_vector": list(group.phases),
        "mean_state_generators": [list(g) for g in group.generators],
    }
    if args.emit_char:
        _emit(json.dumps(states.char_to_json(table), sort_keys=True), args.emit_char)
    if args.json:
        print(json.dumps(out, sort_keys=True))
    else:
        print(f"MG        {fmt(out['magic_gap'])}")
        print(f"LMG       {fmt(out['log_magic_gap'])}")
        print(f"PauliRank {out['pauli_rank']}")
        print(f"IsMSPS    {str(out['is_msps']).lower()}")
        print(f"MeanVec   {out['mean_vector']}")
        print(f"Group     {out['mean_state_generators']}")
    return EXIT_PASS


def cmd_convolve(args) -> int:
    spec = _spec_from_args(args.spec, args.G, args.d, args.n)
    rng = _rng(args)
    a = _load(args.a, args.d, args.n, rng)[0]
    b = _load(args.b, args.d, args.n, rng)[0]
    out = conv.convolve(a, b, spec)
    if args.check_duality:
        dual = conv.convolve_characteristic(
            weyl.char_function(a), weyl.char_function(b), spec)
        dev = float(np.max(np.abs(weyl.char_function(out).values - dual.values)))
    _emit(json.dumps(states.state_to_json(out), sort_keys=True), args.out)
    if args.check_duality:
        print(f"duality-deviation {fmt(dev)}")
    return EXIT_PASS


def cmd_clt(args) -> int:
    _check_records(args.steps + 1)
    spec = _spec_from_args("beam-splitter", None, args.d, args.n)
    rho = _load(args.state, args.d, args.n, _rng(args))[0]
    series = experiments.clt_run(rho, spec, args.steps)
    norms, bounds = series.norms.tolist(), series.bounds.tolist()
    hs = {a: h.tolist() for a, h in series.entropies.items()}
    if args.format == "json":
        payload = {
            "d": args.d, "n": args.n,
            "displacement": series.displacement.tolist(),
            "magic_gap": series.mg, "base_norm": norms[0],
            "steps": [{"N": N, "norm": norm, "bound": bound,
                       "entropies": {a: h[N] for a, h in hs.items()}}
                      for N, (norm, bound) in enumerate(zip(norms, bounds))],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        lines = ["N,norm,bound," + ",".join(f"H_{a}" for a in hs)]
        for N, row in enumerate(zip(norms, bounds, *hs.values())):
            lines.append(",".join([str(N)] + [fmt(v) for v in row]))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_PASS


def cmd_suite(args) -> int:
    fn = experiments.SUITES[args.name]
    kwargs = {}
    if args.name not in experiments.RECORD_COUNTS:
        # exhaustive suites: no sample to seed or size
        if args.seed is not None or args.trials is not None:
            raise ParseError(f"suite {args.name} takes no --seed or --trials")
    else:
        kwargs["seed"] = args.seed if args.seed is not None else 0
        kwargs["trials"] = args.trials if args.trials is not None else 50
    if args.steps is not None:
        if args.name != "clt":
            raise ParseError(f"suite {args.name} takes no --steps")
        kwargs["steps"] = args.steps
    if "trials" in kwargs:
        counts = {k: v for k, v in kwargs.items() if k != "seed"}
        _check_records(experiments.record_bound(args.name, **counts))
    report = fn(**kwargs)
    _emit(report.to_json() + "\n" if args.format == "json" else report.to_csv(), args.out)
    print(f"suite {args.name}: {'PASS' if report.passed else 'FAIL'} "
          f"(max violation {fmt(report.max_violation)})", file=sys.stderr)
    return EXIT_PASS if report.passed else EXIT_VIOLATION


def cmd_enumerate(args) -> int:
    mixed = args.kind == "msps"
    with _usage_errors():
        states.enumeration_count(args.d, args.n, mixed)
    stack = states.msps_states(states.enumerate_groups(args.d, args.n, mixed))
    payload = [states.state_to_json(stack[i]) for i in range(len(stack.mat))]
    text = json.dumps(payload, sort_keys=True)
    _emit(text if args.out else text + "\n", args.out)
    return EXIT_PASS


def cmd_capacity_bounds(args) -> int:
    spec = _spec_from_args(args.spec, args.G, args.d, args.n)
    rng = _rng(args)
    sigma = _load(args.sigma, args.d, args.n, rng)[0]
    rho0 = _load(args.rho0, args.d, args.n, rng)[0] if args.rho0 else None
    lower, upper = conv.holevo_bounds(spec, sigma)
    lines = [f"lower {fmt(lower)}", f"upper {fmt(upper)}"]
    if rho0 is not None:
        lines.append(f"weyl-ensemble {fmt(conv.holevo_weyl_ensemble(spec, sigma, rho0))}")
    print("\n".join(lines))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors as ParseErrors, which ``main`` prints as one line; subparsers too."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process, built on first use and shared by every
    ``main`` call, so it is never changed: argparse spends about a
    millisecond on its ~40 arguments, more than a small command's work."""
    parser = _Parser(
        prog="dvconv",
        description="Discrete-variable quantum convolution toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    size = argparse.ArgumentParser(add_help=False)
    size.add_argument("--d", type=int, required=True)
    size.add_argument("--n", type=int, default=1)

    p = sub.add_parser("gap", parents=[size], help="magic gap, LMG, Pauli rank, mean vector")
    p.add_argument("--preset", dest="state")
    p.add_argument("--input", dest="state")
    p.add_argument("--seed", type=int)
    p.add_argument("--emit-char", help="write the characteristic table to a file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("convolve", parents=[size], help="write rho boxtimes sigma as a JSON state")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--check-duality", action="store_true")
    _add_spec_args(p)

    p = sub.add_parser("clt", parents=[size], help="iterated beam-splitter convolution series")
    p.add_argument("--steps", type=int, default=experiments.CLT_STEPS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--preset", dest="state", default="random-pure")
    p.add_argument("--input", dest="state")
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("suite", help="run a named verification suite")
    p.add_argument("name", choices=sorted(experiments.SUITES))
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--steps", type=int, help=f"clt only (default {experiments.CLT_STEPS})")
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("enumerate", parents=[size], help="enumerate MSPS or pure stabilizers")
    p.add_argument("kind", choices=["msps", "stabilizers"])
    p.add_argument("--out")

    p = sub.add_parser("capacity-bounds", parents=[size], help="Holevo capacity sandwich")
    p.add_argument("--sigma", required=True)
    p.add_argument("--rho0")
    p.add_argument("--seed", type=int)
    _add_spec_args(p)

    return parser


#: the function that runs each subcommand, looked up when it runs
COMMANDS = {
    "gap": cmd_gap,
    "convolve": cmd_convolve,
    "clt": cmd_clt,
    "suite": cmd_suite,
    "enumerate": cmd_enumerate,
    "capacity-bounds": cmd_capacity_bounds,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for flag, low in COUNT_FLOORS.items():
            value = getattr(args, flag, None)
            if value is not None and value < low:
                raise ParseError(f"--{flag} must be >= {low}, got {value}")
        if "d" in args:
            with _usage_errors():
                check_system(args.d, args.n)
        # an output target that is not a regular file (a FIFO, a device, a
        # directory, a symlink loop) or whose directory does not exist is
        # refused before the command runs
        for path in (getattr(args, "out", None), getattr(args, "emit_char", None)):
            real = path is not None and os.path.realpath(path)
            if real and os.path.lexists(real) and not os.path.isfile(real):
                raise ParseError(f"cannot write {path!r}: " + (
                    "Is a directory" if os.path.isdir(real) else "Not a regular file"))
            if real and not os.path.isdir(os.path.dirname(real)):
                raise ParseError(f"cannot write {path!r}: No such file or directory")
        return COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DvconvError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BrokenPipeError:  # the reader left (``| head``); the flush at exit must not raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE
    except Exception as exc:  # a defect, not a bad input: keep the traceback
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
