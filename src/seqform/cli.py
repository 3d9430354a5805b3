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
4 numerical divergence. I/O failures exit 1.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import shutil
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
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _fmt_float(v)
    return json.dumps(v)


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


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: str, obj) -> None:
    _write_text(path, render_json(obj) + "\n")


def write_trace_csv(path: str, trace) -> None:
    lines = [TRACE_HEADER]
    for t in trace:
        lines.append(",".join([
            str(t.iter), _fmt_residual(t.residual), _fmt_float(t.duality_gap),
            _fmt_float(t.value), _fmt_float(t.p0), _fmt_float(t.neg_q0),
            _fmt_float(t.feas_x), _fmt_float(t.feas_y),
            # elapsed_ms: no output file holds a clock reading
            _fmt_float(t.min_x), _fmt_float(t.min_y), "0",
        ]))
    _write_text(path, "\n".join(lines) + "\n")


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
                doc = json.load(_Utf8Reader(fh, hasher))
            except RecursionError as exc:
                raise FileFormatError(f"game file nests too deeply: {exc}") from None
            except ValueError as exc:
                # bad UTF-8, bad JSON, or an integer literal past Python's digit limit
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


def _build_parser() -> argparse.ArgumentParser:
    # HelpFormatter would otherwise query the terminal once per argument
    fmt = functools.partial(argparse.HelpFormatter,
                            width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="seqform", formatter_class=fmt,
        description="Approximate equilibria of two-person zero-sum games in sequence form.")
    parser.add_argument("--version", action="version", version=f"seqform {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    mk = sub.add_parser("make-game", formatter_class=fmt, help="write a built-in game to JSON")
    mk.add_argument("kind", choices=["kuhn", "random-matrix"])
    mk.add_argument("--out", required=True, help="output path for the sequence-form JSON")
    mk.add_argument("--rows", type=_positive_int, help="rows for random-matrix")
    mk.add_argument("--cols", type=_positive_int, help="cols for random-matrix")
    mk.add_argument("--seed", type=_nonnegative_int, help="seed for random-matrix (default 0)")
    mk.set_defaults(func=cmd_make_game)

    va = sub.add_parser("validate", formatter_class=fmt, help="check a sequence-form JSON file")
    va.add_argument("game", help="path to the game file")
    va.set_defaults(func=cmd_validate)

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
    so.set_defaults(func=cmd_solve)
    return parser


def cmd_make_game(args) -> int:
    given = [f"--{flag}" for flag in ("rows", "cols", "seed") if getattr(args, flag) is not None]
    if args.kind == "kuhn" and given:
        print(f"error: kuhn takes no {', '.join(given)}", file=sys.stderr)
        return 2
    if args.kind == "random-matrix" and (args.rows is None or args.cols is None):
        print("error: random-matrix requires --rows and --cols", file=sys.stderr)
        return 2
    game = to_sequence_form(kuhn_poker())[0] if args.kind == "kuhn" \
        else random_matrix_game(args.rows, args.cols, args.seed or 0)
    _write_json(args.out, game.to_dict())
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
        "feas": {
            "feas_x": report.feas.feas_x,
            "feas_y": report.feas.feas_y,
            "min_x": report.feas.min_x,
            "min_y": report.feas.min_y,
        },
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


def cmd_solve(args) -> int:
    if (args.game is None) == (args.builtin is None):
        print("error: give exactly one of a game file or --builtin kuhn", file=sys.stderr)
        return 2
    if args.builtin is not None:
        game = to_sequence_form(kuhn_poker())[0]
        game_desc = {"builtin": "kuhn"}
    else:
        hasher = hashlib.sha256()
        game = _load_game_file(args.game, hasher)
        game_desc = {"path": args.game, "sha256": hasher.hexdigest()}

    report = solve(game, SolverConfig(epsilon=args.epsilon, max_iter=args.max_iters,
                                      trace_every=args.trace_every))
    write_trace_csv(args.trace, report.trace)
    _write_json(args.report, _report_dict(report, _manifest(args, game_desc)))
    if args.strategies:
        _write_json(args.strategies, _strategies_dict(report))
    print(_summary_line(report))
    return 0 if report.converged else 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
