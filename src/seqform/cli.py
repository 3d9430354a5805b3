"""Command line interface: build, validate and solve games.

make-game writes one sequence-form file, kuhn or random-matrix, the one
kind that takes --rows, --cols and --seed; solve reads a game file or
--builtin kuhn, so a random matrix game is solved from its make-game
file.

All files are written deterministically: floating-point numbers are
serialized with 17 significant digits (enough to round-trip doubles),
dictionary key order is fixed, and no file holds a clock reading: the
trace's elapsed_ms column is always 0, kept so the trace's columns do
not change. The same command therefore writes the same bytes at a
fixed BLAS thread count, and the manifest embedded in every report
holds the resolved flags needed to reproduce a run and names the game
as {"path", "sha256"} or {"builtin": "kuhn"}.

Exit codes: 0 success, 1 validation failure, 2 parse or usage error
or a game too large to allocate, 3 finished without converging,
4 numerical divergence. I/O failures exit 1, and a command writes all
of its outputs or none, so a failed run leaves earlier outputs as they
were. The argument parser reports every usage error, an unknown word
with the usage line of the sub-command it follows, or with the
top-level one if it comes before the sub-command. Both commands check
their outputs before any work is done, and refuse with nothing written
an output that is the game file or another output, whether named by
path or reached by a hard link (exit 2), or that is empty, ends in a
path separator, is an existing directory or lies in a missing one
(exit 1).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import gc
import hashlib
import json
import math
import os
import shutil
import stat
import sys

from . import __version__
from .errors import (DivergenceError, FileFormatError, SeqformError,
                     ValidationError)
from .games import kuhn_poker, random_matrix_game, to_sequence_form
from .solver import SolveReport, SolverConfig, solve
from .treeplex import SequenceFormGame, validate_sequence_form

TRACE_HEADER = "iter,residual,duality_gap,value,p0,neg_q0,feas_x,feas_y,min_x,min_y,elapsed_ms"
# Most violations printed for one game; a malformed file can break millions of rules.
_MAX_VIOLATIONS_SHOWN = 20


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("cannot serialize a non-finite number")
    return "%.17g" % x


def _fmt_residual(x: float) -> str:
    # a window whose check fails has no certificate: its residual is inf (solver.residual)
    return "inf" if x == math.inf else _fmt_float(x)


def _is_scalar(v) -> bool:
    return v is None or isinstance(v, (bool, int, float, str))


def _scalar_json(v) -> str:
    if type(v) is int:  # what json.dumps writes, without its call; a bool is not an int here
        return int.__repr__(v)
    return _fmt_float(v) if isinstance(v, float) else json.dumps(v)


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if _is_scalar(obj):
        return _scalar_json(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is float for v in obj):
            # the strategy vectors: one finiteness pass, then one format operation,
            # a fifth faster than formatting each float on its own
            if not all(map(math.isfinite, obj)):
                raise ValueError("cannot serialize a non-finite number")
            return "[" + ", ".join(("%.17g",) * len(obj)) % tuple(obj) + "]"
        if all(_is_scalar(v) for v in obj):
            return "[" + ", ".join(_scalar_json(v) for v in obj) + "]"
        body = ",\n".join(inner + render_json(v, indent + 1) for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key, v in obj.items():
            parts.append(f"{inner}{json.dumps(str(key))}: {render_json(v, indent + 1)}")
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_outputs(outputs) -> None:
    """Write each (path, text) of outputs: all of them, or none.

    A regular file, existing or new, is written to a temporary file
    beside it (beside the file a symbolic link names), and the
    temporaries replace their targets only once every write succeeded.
    An existing output that is not a regular file, such as /dev/null, is
    written in place just before the renames, never renamed over. On a
    failure the temporaries are removed and the error is raised.
    """
    staged, devices = [], []
    try:
        for path, text in outputs:
            st = os.stat(path) if os.path.exists(path) else None
            if st is not None and not stat.S_ISREG(st.st_mode):
                devices.append((path, text))
                continue
            target = os.path.realpath(path)
            tmp = os.path.join(os.path.dirname(target),
                               f".{os.path.basename(target)}.{os.getpid()}.tmp")
            staged.append((tmp, target))
            with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            if st is not None:
                os.chmod(tmp, stat.S_IMODE(st.st_mode))  # a rewritten output keeps its mode
        for path, text in devices:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        for tmp, target in staged:
            os.replace(tmp, target)
    except BaseException:
        for tmp, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


def render_trace_csv(trace) -> str:
    lines = [TRACE_HEADER]
    for t in trace:
        lines.append(",".join([
            str(t.iter), _fmt_residual(t.residual), _fmt_float(t.duality_gap),
            _fmt_float(t.value), _fmt_float(t.p0), _fmt_float(t.neg_q0),
            _fmt_float(t.feas_x), _fmt_float(t.feas_y),
            # elapsed_ms: no output file holds a clock reading
            _fmt_float(t.min_x), _fmt_float(t.min_y), "0",
        ]))
    return "\n".join(lines) + "\n"


class _Utf8Reader:
    """What json.load reads: a binary file's bytes, hashed if asked, decoded as strict UTF-8.

    json.loads on the decoded bytes would parse the same, but then the
    read, the hash and the decode would run outside json.load, which is
    where perfbench's set-up time starts counting the parse.
    """

    def __init__(self, fh, hasher):
        self._fh = fh
        self._hasher = hasher

    def read(self) -> str:
        data = self._fh.read()
        if self._hasher is not None:
            self._hasher.update(data)
        return data.decode("utf-8")


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _load_game_file(path: str, hasher=None) -> SequenceFormGame:
    """Parse a game file, read once; its bytes also go to hasher.update if given."""
    # The cyclic garbage collector would rescan the parse's millions of
    # new lists while they are built, though a JSON document holds no
    # cycles; it stays paused until the document is turned into a game
    # and freed.
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "rb") as fh:
            try:
                doc = json.load(_Utf8Reader(fh, hasher), parse_constant=_refuse_constant)
            except RecursionError as exc:
                raise FileFormatError(f"game file nests too deeply: {exc}") from None
            except ValueError as exc:
                # bad UTF-8, bad JSON (NaN too), or an integer past Python's digit limit
                raise FileFormatError(f"game file is not readable JSON: {exc}") from None
        return SequenceFormGame.from_dict(doc)
    finally:
        if enabled:
            gc.enable()


def _int_at_least(low: int, word: str):
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if n < low:
            raise argparse.ArgumentTypeError(f"expected a {word} integer, got {n}")
        return n
    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "nonnegative")


def _positive_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return x


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once a process, at the terminal width of the first call;
    # HelpFormatter would otherwise query the terminal once per argument
    fmt = functools.partial(argparse.HelpFormatter,
                            width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="seqform", formatter_class=fmt,
        description="Approximate equilibria of two-person zero-sum games in sequence form.")
    parser.add_argument("--version", action="version", version=f"seqform {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    mk = sub.add_parser("make-game", formatter_class=fmt, help="write a built-in game to JSON")
    kinds = mk.add_subparsers(dest="kind", required=True)
    kuhn = kinds.add_parser("kuhn", formatter_class=fmt, help="Kuhn poker")
    rm = kinds.add_parser("random-matrix", formatter_class=fmt, help="a random matrix game")
    for kind in (kuhn, rm):
        kind.add_argument("--out", required=True, help="output path for the sequence-form JSON")
        kind.set_defaults(func=cmd_make_game, error=kind.error)
    rm.add_argument("--rows", type=_positive_int, required=True, help="payoff matrix rows")
    rm.add_argument("--cols", type=_positive_int, required=True, help="payoff matrix columns")
    rm.add_argument("--seed", type=_nonnegative_int, default=0,
                    help="seed of the payoff draw (default %(default)s)")

    va = sub.add_parser("validate", formatter_class=fmt, help="check a sequence-form JSON file")
    va.add_argument("game", help="path to the game file")
    va.set_defaults(func=cmd_validate, error=va.error)

    so = sub.add_parser("solve", formatter_class=fmt,
                        help="solve a game and write report and trace")
    so.add_argument("game", nargs="?", help="path to a sequence-form JSON file")
    so.add_argument("--builtin", choices=["kuhn"],
                    help="solve a built-in game instead of a file")
    so.add_argument("--epsilon", type=_positive_float, default=SolverConfig.epsilon,
                    help="target residual (default %(default)s)")
    so.add_argument("--max-iters", type=_positive_int, default=SolverConfig.max_iter,
                    help="iteration budget (default %(default)s)")
    so.add_argument("--trace-every", type=_nonnegative_int, default=100,
                    help="record a trace row every N iterations (default 100)")
    so.add_argument("--report", default="report.json", help="report path (default report.json)")
    so.add_argument("--trace", default="trace.csv", help="trace path (default trace.csv)")
    so.add_argument("--strategies", default=None,
                    help="optional path for the computed strategies")
    so.set_defaults(func=cmd_solve, error=so.error)
    return parser


def cmd_make_game(args) -> int:
    _check_outputs(args.error, None, {"--out": args.out})  # one output: no clash, only the raises
    game = to_sequence_form(kuhn_poker())[0] if args.kind == "kuhn" \
        else random_matrix_game(args.rows, args.cols, args.seed)
    _write_outputs([(args.out, render_json(game.to_dict()) + "\n")])
    print(f"wrote {args.out}")
    return 0


def _print_violations(violations, file) -> None:
    """Print the first _MAX_VIOLATIONS_SHOWN violations in order, then a count of the rest."""
    for v in violations[:_MAX_VIOLATIONS_SHOWN]:
        print(str(v), file=file)
    if len(violations) > _MAX_VIOLATIONS_SHOWN:
        print(f"... and {len(violations) - _MAX_VIOLATIONS_SHOWN} more violations", file=file)


def cmd_validate(args) -> int:
    game = _load_game_file(args.game)
    violations = validate_sequence_form(game)
    if violations:
        _print_violations(violations, sys.stdout)
        return 1
    return 0


def _manifest(args, game_desc: dict) -> dict:
    return {
        "command": "solve",
        "flags": {
            "epsilon": args.epsilon,
            "max_iters": args.max_iters,
            "trace_every": args.trace_every,
            "report": args.report,
            "trace": args.trace,
            "strategies": args.strategies,
        },
        "game": game_desc,
        "version": __version__,
    }


def _report_dict(report: SolveReport, manifest: dict) -> dict:
    return {
        "converged": report.converged,
        "iterations": report.iterations,
        "epsilon": report.epsilon,
        "lambda": report.lam,
        "norm_K": report.norm_K,
        # null when the last window's check failed, which JSON cannot write as inf
        "residual": None if report.residual == math.inf else report.residual,
        "value": report.value,
        "duality_gap": report.duality_gap,
        "feas": report.feas._asdict(),
        "manifest": manifest,
    }


def _strategies_dict(report: SolveReport) -> dict:
    return {
        "x": report.x_plan.tolist(),
        "y": report.y_plan.tolist(),
        "x_last": report.last.x.tolist(),
        "y_last": report.last.y.tolist(),
        "p_last": report.last.p.tolist(),
        "q_last": report.last.q.tolist(),
    }


def _summary_line(report: SolveReport) -> str:
    word = "converged" if report.converged else "not converged"
    return (f"{word} iterations={report.iterations} residual={report.residual:.6g} "
            f"value={report.value:.6g} gap={report.duality_gap:.6g} "
            f"restarts={len(report.restarts)}")


def _check_outputs(error, game: str | None, outputs: dict) -> None:
    """Refuse, before any work, outputs ({flag: path}, None if not written) that cannot be written.

    An output that is empty, names a directory (an existing one, or any
    path ending in a separator), lies in a missing directory, or is not
    writable raises. The directory is the one the path resolves into,
    links followed, since _write_outputs writes a regular file to a
    temporary one there and renames it over the target: a regular file,
    new or existing, needs that directory's permission, and an existing
    one its own too. An existing file that is not regular, such as
    /dev/null, is written in place and needs only its own.
    Two of the game file and the outputs that are one file go to error,
    the parser's usage error: an existing path is compared by device and
    inode, so a hard link is its target, and a missing one once resolved.
    An existing path that is not a regular file, such as /dev/null, is
    not compared: writing a device twice destroys nothing.
    """
    outputs = {flag: path for flag, path in outputs.items() if path is not None}
    for path in outputs.values():
        if not path:
            raise FileNotFoundError(errno.ENOENT, "the output path is empty", path)
        if os.path.isdir(path) or not os.path.basename(path):
            raise IsADirectoryError(errno.EISDIR, "the output is a directory", path)
        directory = os.path.dirname(os.path.realpath(path))
        if not os.path.isdir(directory):
            raise FileNotFoundError(errno.ENOENT, "no directory for the output file", path)
        exists = os.path.exists(path)
        renamed = not exists or os.path.isfile(path)  # written beside its target, renamed over it
        if (exists and not os.access(path, os.W_OK)
                or renamed and not os.access(directory, os.W_OK | os.X_OK)):
            raise PermissionError(errno.EACCES, "no permission to write the output", path)
    seen = {}
    for name, path in (("the game file", game), *outputs.items()):
        if path is not None:
            try:
                st = os.stat(path)
                key = st.st_dev, st.st_ino  # what os.path.samestat compares
            except OSError:
                key = os.path.realpath(path)
            else:
                if not stat.S_ISREG(st.st_mode):
                    continue
            if key in seen:
                error(f"{seen[key]} and {name} are the same file: {path}")
            seen[key] = name


def cmd_solve(args) -> int:
    if (args.game is None) == (args.builtin is None):
        args.error("give exactly one of a game file or --builtin kuhn")
    _check_outputs(args.error, args.game, {"--report": args.report, "--trace": args.trace,
                                           "--strategies": args.strategies})
    if args.builtin is not None:
        game = to_sequence_form(kuhn_poker())[0]
        game_desc = {"builtin": "kuhn"}
    else:
        hasher = hashlib.sha256()
        game = _load_game_file(args.game, hasher)
        game_desc = {"path": args.game, "sha256": hasher.hexdigest()}

    report = solve(game, SolverConfig(epsilon=args.epsilon, max_iter=args.max_iters,
                                      trace_every=args.trace_every))
    outputs = [(args.trace, render_trace_csv(report.trace)),
               (args.report, render_json(_report_dict(report, _manifest(args, game_desc))) + "\n")]
    if args.strategies is not None:
        outputs.append((args.strategies, render_json(_strategies_dict(report)) + "\n"))
    _write_outputs(outputs)
    print(_summary_line(report))
    return 0 if report.converged else 3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # the top-level parser's leftovers come first, each one before the sub-command
        error = parser.error if extra[0] in argv[:argv.index(args.command)] else args.error
        error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except FileFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        _print_violations(exc.violations, sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: game too large to allocate: {exc}", file=sys.stderr)
        return 2
    except SeqformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
