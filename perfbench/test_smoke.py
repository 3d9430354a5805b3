"""Smoke tests of the benchmark itself: shrunk workloads, same code path and checks.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer as tr  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", ["kuhn", "rm1000", "deep"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 2
    want = declared("per_layer" if trace == "1" else "end_to_end")
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_one_command_runs_every_workload():
    proc = bench("--workload", "all", "--seed", "4", "--seconds", "1", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = last_json(proc)
    assert out["correct"] is True and out["failed"] == 0
    assert set(out["metrics"]) == {f"{w}.{m}" for w in ("kuhn", "rm1000", "deep") for m in run.END_TO_END}


def test_declared_metrics_match_the_runner():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER


def test_benchmark_json_is_within_its_limits():
    import re

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= doc["run_seconds"] <= 60 and isinstance(doc["run_seconds"], int)
    assert 2 <= len(doc["workloads"]) <= 8
    import workloads
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WRITERS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in doc["workloads"]] + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert all(name.match(n) for n in names)
    assert len(set(m["name"] for m in doc["end_to_end"] + doc["per_layer"])) == \
        len(doc["end_to_end"]) + len(doc["per_layer"])
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in doc["workloads"])
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    assert all(set(m) == {"name", "unit", "better"} for m in doc["per_layer"])
    assert all(unit.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]


def test_same_seed_same_inputs_and_a_nonzero_deep_value(tmp_path):
    import workloads

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    ga = workloads.write_deep(a, 5, smoke=True)
    gb = workloads.write_deep(b, 5, smoke=True)
    assert a.read_bytes() == b.read_bytes()
    assert ga.reference == gb.reference and abs(ga.reference) > workloads.DEGENERATE_VALUE
    workloads.write_rm(b, 6, smoke=True)
    assert a.read_bytes() != b.read_bytes()


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "kuhn", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture()
def kuhn_checker():
    """A checker over one smoke kuhn solve whose outputs are still on disk."""
    import workloads

    work = os.path.join(HERE, ".work", "test-checker")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ref = workloads.write_kuhn(os.path.join(work, "game.json"), 0, smoke=True).reference
    argv = ["solve", "game.json", "--epsilon", "1e-2", "--strategies", "strategies.json"]
    probe = run.run_solve(work, os.path.join(ROOT, "src"), argv, False, 60)
    checker = run.Checker(work, 1e-2, ref)
    fails, _ = checker.check(probe)
    assert fails == []
    yield checker, probe, work
    shutil.rmtree(work, ignore_errors=True)


def _edit_json(path, **changes):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.update(changes)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def test_checks_catch_a_wrong_gap_and_a_changed_report(kuhn_checker):
    checker, probe, work = kuhn_checker
    _edit_json(os.path.join(work, "report.json"), duality_gap=0.5)
    fails, _ = checker.check(probe)
    assert any("gap" in f for f in fails)
    assert any("report.json differs" in f for f in fails)


def test_checks_catch_a_wrong_value(kuhn_checker):
    checker, probe, work = kuhn_checker
    checker.reference = 0.0
    fails, _ = checker.check(probe)
    assert any("reference" in f for f in fails)


def test_checks_catch_infeasible_strategies(kuhn_checker):
    checker, probe, work = kuhn_checker
    path = os.path.join(work, "strategies.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["x"][1] += 0.25
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    fails, _ = checker.check(probe)
    assert any("infeasible" in f for f in fails)


def test_checks_catch_a_nonzero_exit(kuhn_checker):
    checker, probe, _ = kuhn_checker
    fails, _ = checker.check(dict(probe, exit_code=3))
    assert "seqform exited 3" in fails


def test_self_time_excludes_wrapped_children_and_recursion_is_one_span():
    ticks = iter(range(100))
    t = tr.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    def outer(depth):
        return outer(depth - 1) if depth else inner()

    inner = t.wrap("m.leaf", leaf)
    outer = t.wrap("m.outer", outer)
    outer(3)
    assert [s[2] for s in t.spans] == ["m.leaf", "m.outer"]
    leaf_span, outer_span = t.spans
    assert leaf_span[1] == outer_span[0]
    assert outer_span[4] - outer_span[3] == 3.0 and outer_span[5] == 2.0
    assert tr.top_level_total(t.spans, {"m.outer", "m.leaf"}) == 3.0
