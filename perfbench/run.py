"""Time-to-certificate benchmark for seqform.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {kuhn,rm1000,deep,all} --seed N \
        --seconds S --trace {0,1} [--smoke]

For one seed the benchmark writes the workload's game file (see
workloads.py) and computes its reference value, both outside every timer.
It then runs the user path, `seqform.cli.main(["solve", GAME, "--epsilon",
E, "--strategies", S])`, in a fresh process per solve, one solve at a
time, until S seconds of solving are used up (at least two solves). Every
solve is checked:

- the process exits 0 and `report.json` says `converged`, residual < E;
- both realization plans in the strategies file are feasible
  (`feasibility_residuals`: E x = e and x >= 0);
- the reported duality gap equals the one recomputed with the public
  `duality_gap` from the strategies file;
- |value - reference| <= gap + 1e-6, the reference being -1/18 for kuhn
  and the LP value for the others;
- `report.json` and `trace.csv` are byte-identical to the first solve's.

With `--trace 0` it reports the end-to-end metrics: medians over the
solves of wall time of the `cli.main` call (time to certificate), set-up
time (parse, `solver.init`, both index builds), steps per second after
set-up and peak RSS, and the iteration count. Where set-up is cheap, more
set-up samples come from solves cut to one step with `--max-iters 1`,
which must exit 3 (not converged). With `--trace 1` it makes
the same untraced solves and then one traced solve (every public function
of cli, treeplex, sparse, solver and games wrapped, see tracer.py), and
reports the per-layer metrics and the tracing overhead: traced wall time
minus the untraced median.

Detail lines, including the environment, every sample and each metric's
median, high percentile and sample count, go to standard output and to
`perfbench/.work/<workload>/result.json`. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. The
exit code is 0 only if every check passed.

BLAS threads are left at the machine's default on purpose; the
environment block records the setting.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END = {
    "time_to_certificate_s": "s",
    "setup_s": "s",
    "iterations": "count",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.parse_s": "s", "cli.bytes_read": "B", "cli.write_s": "s", "cli.bytes_written": "B",
    "treeplex.validate_s": "s", "treeplex.index_s": "s", "treeplex.normalize_ms": "ms",
    "treeplex.best_response_ms": "ms", "treeplex.duality_gap_ms": "ms", "treeplex.calls": "count",
    "sparse.build_K_self_s": "s", "sparse.norm_s": "s", "sparse.norm_rounds": "count",
    "sparse.norm_ms_per_round": "ms", "sparse.norm_ms_per_round_tail": "ms",
    "sparse.matvec_us": "us", "sparse.transpose_matvec_us": "us",
    "sparse.products_per_step": "count", "sparse.bytes_per_step_computed": "B",
    "solver.step_us": "us", "solver.step_self_us": "us", "solver.residual_us": "us",
    "solver.residual_us_tail": "us", "solver.trace_point_ms": "ms", "solver.trace_share": "ratio",
    "solver.init_s": "s", "solver.steps": "count",
    "trace.overhead_s": "s", "trace.coverage": "ratio",
}

MIN_SOLVES = 2
# Extra set-up samples come from solves cut to one step (exit code 3), run
# while they fit in this share of --seconds, up to this many samples in all.
SETUP_PROBE_SHARE = 0.25
MAX_SETUP_SAMPLES = 9
# Wall-clock budget of one invocation; the contract allows 180 s.
BUDGET_S = 170.0
FEAS_TOL = 1e-9
GAP_RTOL = 1e-9
VALUE_TOL = 1e-6
OUTPUTS = ("report.json", "trace.csv", "strategies.json", "probe.json")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="Time-to-certificate benchmark for seqform.")
    ap.add_argument("--workload", required=True, choices=["kuhn", "rm1000", "deep", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="solving time to sample per workload (at least two solves)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: add one traced solve and report per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="shrunk games and loose epsilon, same code path and checks")
    return ap.parse_args(argv)


# ---------------------------------------------------------------- environment

def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_caches() -> dict:
    """Data and unified cache sizes seen by CPU 0, with the CPUs sharing each."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, entry, "level"))
        if level and _read(os.path.join(base, entry, "type")) != "Instruction":
            out[f"L{level}"] = {"size": _read(os.path.join(base, entry, "size")),
                                "shared_cpus": _read(os.path.join(base, entry, "shared_cpu_list"))}
    return out


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _blas_threads() -> dict:
    """BLAS thread count reported by each loaded OpenBLAS, by name of its library."""
    import ctypes

    found = {}
    maps = _read("/proc/self/maps") or ""
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(lib)] = fn()
                break
    return found


def _source_digest(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "seqform")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None  # an exported checkout; the source digest identifies the code
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def environment(root: str, src: str) -> dict:
    import scipy
    import seqform

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seqform_version": seqform.__version__,
        "seqform_commit": _git_commit(root),
        "seqform_source_sha256": _source_digest(src),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "caches": _cpu_caches(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "openblas_configuration": blas.get("openblas configuration")},
        "blas_thread_env": {k: os.environ.get(k, "unset") for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------- one solve

def run_solve(work: str, src: str, argv: list, traced: bool, timeout: float) -> dict:
    """One `seqform solve` in a fresh process; returns the probe's timings or an error."""
    for name in OUTPUTS:
        path = os.path.join(work, name)
        if os.path.exists(path):
            os.remove(path)
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), "--src", src, "--result", "probe.json"]
    if traced:
        cmd.append("--traced")
    cmd += ["--", *argv]
    t = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=work, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"solve did not finish within {timeout:.0f} s"}
    process_s = time.perf_counter() - t
    result_path = os.path.join(work, "probe.json")
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"error": f"probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["process_s"] = process_s
    return result


class Checker:
    """Output checks for the solves of one game file."""

    def __init__(self, work: str, epsilon: float, reference: float):
        from seqform.treeplex import SequenceFormGame

        self.work = work
        self.epsilon = epsilon
        self.reference = reference
        with open(os.path.join(work, "game.json"), encoding="utf-8") as fh:
            self.game = SequenceFormGame.from_dict(json.load(fh))
        self.first = None  # bytes of report.json and trace.csv of the first solve
        self._gaps = {}    # strategies digest -> recomputed gap and feasibility

    def _bytes(self, name: str) -> bytes:
        with open(os.path.join(self.work, name), "rb") as fh:
            return fh.read()

    def _recompute(self, strategies: bytes):
        import warnings

        from seqform.treeplex import duality_gap, feasibility_residuals

        key = hashlib.sha256(strategies).hexdigest()
        if key not in self._gaps:
            doc = json.loads(strategies)
            x = np.asarray(doc["x"], dtype=np.float64)
            y = np.asarray(doc["y"], dtype=np.float64)
            feas = feasibility_residuals(self.game, x, y)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # infeasibility is reported by the check below
                gap = duality_gap(self.game, x, y)
            self._gaps[key] = (feas, gap)
        return self._gaps[key]

    def check(self, probe: dict) -> tuple[list, dict]:
        """Failed checks of the solve just run, and its report."""
        if "error" in probe:
            return [probe["error"]], {}
        fails = []
        if probe["exit_code"] != 0:
            fails.append(f"seqform exited {probe['exit_code']}")
        try:
            report_bytes = self._bytes("report.json")
            trace_bytes = self._bytes("trace.csv")
            strategies = self._bytes("strategies.json")
            report = json.loads(report_bytes)
        except (OSError, ValueError) as exc:
            return fails + [f"missing or unreadable output: {exc}"], {}
        if report.get("converged") is not True:
            fails.append("report does not say converged")
        if not report.get("residual", float("inf")) < self.epsilon:
            fails.append(f"residual {report.get('residual')} is not below {self.epsilon}")
        feas, gap = self._recompute(strategies)
        if max(feas.feas_x, feas.feas_y) > FEAS_TOL or min(feas.min_x, feas.min_y) < -FEAS_TOL:
            fails.append(f"strategies infeasible: {tuple(feas)}")
        reported_gap = report.get("duality_gap", float("nan"))
        if not abs(gap - reported_gap) <= GAP_RTOL * max(1.0, abs(gap)):
            fails.append(f"reported gap {reported_gap!r} != recomputed {gap!r}")
        value = report.get("value", float("nan"))
        if not abs(value - self.reference) <= max(gap, 0.0) + VALUE_TOL:
            fails.append(f"value {value!r} is farther than gap {gap!r} from reference {self.reference!r}")
        if self.first is None:
            self.first = (report_bytes, trace_bytes)
        else:
            if report_bytes != self.first[0]:
                fails.append("report.json differs from the first solve's")
            if trace_bytes != self.first[1]:
                fails.append("trace.csv differs from the first solve's")
        return fails, report

    def check_cut(self, probe: dict) -> list:
        """Failed checks of a solve cut to one step: exit code 3 after one iteration."""
        if "error" in probe:
            return [probe["error"]]
        if probe["exit_code"] != 3:
            return [f"one-step solve exited {probe['exit_code']}, expected 3 (not converged)"]
        try:
            report = json.loads(self._bytes("report.json"))
        except (OSError, ValueError) as exc:
            return [f"one-step solve: missing or unreadable report: {exc}"]
        if report.get("iterations") != 1:
            return [f"one-step solve ran {report.get('iterations')} iterations"]
        return []


# ---------------------------------------------------------------- one workload

def _summary(values) -> dict:
    """Median and maximum: a run has fewer than the eleven samples a p90 needs."""
    return {"median": statistics.median(values), "max": max(values), "n": len(values)}


def run_workload(name: str, args, root: str, src: str, deadline: float) -> dict:
    from workloads import EPSILON, WRITERS

    epsilon = EPSILON[name][1 if args.smoke else 0]
    work = os.path.join(HERE, ".work", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    t = time.perf_counter()
    game_file = WRITERS[name](os.path.join(work, "game.json"), args.seed, args.smoke)
    checker = Checker(work, float(epsilon), game_file.reference)
    prepare_s = time.perf_counter() - t
    argv = ["solve", "game.json", "--epsilon", epsilon, "--strategies", "strategies.json"]

    samples, failures = [], []

    def solve(traced: bool) -> dict:
        probe = run_solve(work, src, argv, traced, max(1.0, deadline - time.perf_counter()))
        fails, report = checker.check(probe)
        sample = {"traced": traced, "fails": fails, "iterations": report.get("iterations"), **{
            k: probe.get(k) for k in ("exit_code", "wall_s", "setup_s", "peak_rss_mb", "process_s")}}
        samples.append(sample)
        failures.extend(fails)
        print(f"[{name}] solve {len(samples)}{' traced' if traced else ''}: "
              f"wall={sample['wall_s']} setup={sample['setup_s']} "
              f"iterations={sample['iterations']} rss_mb={sample['peak_rss_mb']} "
              f"checks={'ok' if not fails else fails}", flush=True)
        return probe

    start = time.perf_counter()
    while True:
        solve(traced=False)
        if failures:
            break
        spent = time.perf_counter() - start
        expected = statistics.median(s["wall_s"] for s in samples)
        reserve = expected * (2.5 if args.trace else 1.0)  # room for the traced solve
        if len(samples) >= MIN_SOLVES and (spent + expected > args.seconds
                                           or time.perf_counter() + reserve > deadline):
            break
    untraced = [s for s in samples if not s["fails"]]
    setups = [s["setup_s"] for s in untraced]
    if not args.trace and not failures:
        # extra set-up samples from solves cut to one step
        cost = statistics.median(s["process_s"] - s["wall_s"] + s["setup_s"] for s in untraced)
        room = int(SETUP_PROBE_SHARE * args.seconds / cost)
        for _ in range(min(room, MAX_SETUP_SAMPLES - len(setups))):
            if time.perf_counter() + cost > deadline:
                break
            probe = run_solve(work, src, argv + ["--max-iters", "1"], False,
                              max(1.0, deadline - time.perf_counter()))
            fails = checker.check_cut(probe)
            samples.append({"traced": False, "cut": True, "fails": fails,
                            "exit_code": probe.get("exit_code"), "setup_s": probe.get("setup_s")})
            failures.extend(fails)
            print(f"[{name}] set-up sample {len(setups) + 1}: setup={probe.get('setup_s')} "
                  f"checks={'ok' if not fails else fails}", flush=True)
            if fails:
                break
            setups.append(probe["setup_s"])
    result = {"workload": name, "seed": args.seed, "smoke": args.smoke, "epsilon": epsilon,
              "reference": game_file.reference, "sizes": game_file.sizes,
              "payoff_draws": game_file.attempts, "prepare_s": prepare_s, "samples": samples}

    metrics, detail = {}, {}
    if args.trace and not failures:
        probe = solve(traced=True)
        if not failures:
            metrics = dict(probe["layers"])
            metrics["trace.overhead_s"] = probe["wall_s"] - statistics.median(
                s["wall_s"] for s in untraced)
            result.update(distributions=probe["distributions"], stats=probe["stats"],
                          norm=probe["norm"])
    elif untraced and not failures:
        per = {
            "time_to_certificate_s": [s["wall_s"] for s in untraced],
            "setup_s": setups,
            "iterations": [s["iterations"] for s in untraced],
            "steps_per_s": [s["iterations"] / (s["wall_s"] - s["setup_s"]) for s in untraced],
            "peak_rss_mb": [s["peak_rss_mb"] for s in untraced],
        }
        detail = {k: _summary(v) for k, v in per.items()}
        metrics = {k: d["median"] for k, d in detail.items()}
    result.update(metrics=metrics, detail=detail, failures=failures,
                  attempted=len(samples), failed=sum(1 for s in samples if s["fails"]))
    return result


def _print_result(result: dict, units: dict) -> None:
    name = result["workload"]
    print(f"[{name}] sizes: {json.dumps(result['sizes'])}")
    print(f"[{name}] reference value {result['reference']!r}; inputs made in "
          f"{result['prepare_s']:.2f} s (not timed)")
    attempted, failed = result["attempted"], result["failed"]
    print(f"[{name}] failed_share {failed}/{attempted} = {failed / max(attempted, 1):.3f}")
    for key, d in result["detail"].items():
        print(f"[{name}] {key:24s} median={d['median']:.6g} max={d['max']:.6g} "
              f"n={d['n']} unit={units[key]}")
    if not result["detail"]:
        for key, value in result["metrics"].items():
            print(f"[{name}] {key:32s} {value:.6g} {units[key]}")
    for label, d in result.get("distributions", {}).items():
        print(f"[{name}] distribution {label:28s} median={d['median']:.6g} "
              f"{d['tail_label']}={d['tail']:.6g} n={d['n']}")
    for fail in result["failures"]:
        print(f"[{name}] FAILED: {fail}")


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + BUDGET_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "seqform", "cli.py")):
        print(f"perfbench: no seqform sources in {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)

    env = environment(root, src)
    print("environment: " + json.dumps(env), flush=True)
    names = ["kuhn", "rm1000", "deep"] if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    results = []
    for name in names:
        budget_end = deadline if args.workload != "all" else time.perf_counter() + BUDGET_S
        result = run_workload(name, args, root, src, budget_end)
        result["environment"] = env
        with open(os.path.join(HERE, ".work", name, "result.json"), "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        _print_result(result, units)
        results.append(result)

    prefix = len(results) > 1
    metrics = {}
    for r in results:
        for key, value in r["metrics"].items():
            metrics[f"{r['workload']}.{key}" if prefix else key] = {"value": value, "unit": units[key]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(r["metrics"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
