"""Run one `seqform solve` in this fresh process and write its timings as JSON.

    python3 probe.py --src SRC --result OUT.json [--traced] -- solve GAME --epsilon E ...

The solve is `seqform.cli.main(argv)`, called in-process. Untraced, only
the once-per-solve set-up calls are wrapped, so set-up time can be split
out of the wall time at no measurable cost. Traced, every public function
of the cli, treeplex, sparse, solver and games modules is wrapped and the
per-layer metrics are written as well.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory that holds the seqform package")
    ap.add_argument("--result", required=True, help="where to write the timings")
    ap.add_argument("--traced", action="store_true", help="wrap every public function")
    ap.add_argument("argv", nargs=argparse.REMAINDER, help="arguments for seqform after --")
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import seqform.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"seqform was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    import tracer as tr
    tracer = tr.Tracer()
    tr.install(tracer, None if args.traced else tr.SETUP_SPANS)
    main_fn = cli.main

    t0 = time.perf_counter()
    try:
        code = main_fn(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    wall = time.perf_counter() - t0

    result = {
        "exit_code": code,
        "wall_s": wall,
        "setup_s": tr.setup_seconds(tracer),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.traced:
        metrics, dists = tr.layer_metrics(tracer, wall)
        result.update(layers=metrics, distributions=dists, stats=tr.stats_table(tracer),
                      norm=tracer.captured.get("sparse.spectral_norm", []))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
