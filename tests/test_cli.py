"""End-to-end command line behavior: files, exit codes, determinism."""

import argparse
import gc
import hashlib
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import seqform
from seqform import FileFormatError, random_matrix_game
from seqform.cli import _load_game_file, _scalar_json, main, render_json, write_trace_csv
from seqform.solver import TracePoint
from seqform.treeplex import SequenceFormGame, validate_sequence_form
from conftest import fixed_norm


# README promises these columns never change, so the tests spell them out
# rather than read cli.TRACE_HEADER, which an edit would change with them
TRACE_COLUMNS = "iter,residual,duality_gap,value,p0,neg_q0,feas_x,feas_y,min_x,min_y,elapsed_ms"


def read(path):
    return path.read_text(encoding="utf-8")


def test_version(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.strip() == "seqform 0.1.0"


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def check_make_game_kuhn(tmp_path, capsys, expected, name):
    # the tree is compiled in memory; the sequence form is the only file written
    out = tmp_path / name
    assert main(["make-game", "kuhn", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"wrote {out}"]
    assert [p.name for p in tmp_path.iterdir()] == [name]
    game = SequenceFormGame.from_dict(json.loads(read(out)))
    assert game.A.triplets() == expected.A.triplets()
    assert main(["validate", str(out)]) == 0


def test_make_game_kuhn(tmp_path, capsys, kuhn):
    check_make_game_kuhn(tmp_path, capsys, kuhn[1], "kuhn.json")


def test_make_game_kuhn_without_json_suffix(tmp_path, capsys, kuhn):
    check_make_game_kuhn(tmp_path, capsys, kuhn[1], "kuhn.game")


def test_make_game_random_matrix(tmp_path):
    out = tmp_path / "rm.json"
    assert main(["make-game", "random-matrix", "--out", str(out),
                 "--rows", "3", "--cols", "4", "--seed", "7"]) == 0
    game = SequenceFormGame.from_dict(json.loads(read(out)))
    assert game.A.triplets() == random_matrix_game(3, 4, 7).A.triplets()


def test_make_game_random_matrix_needs_dimensions(tmp_path, capsys):
    out = tmp_path / "rm.json"
    with pytest.raises(SystemExit) as err:
        main(["make-game", "random-matrix", "--out", str(out)])
    assert err.value.code == 2
    assert "the following arguments are required: --rows, --cols" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["make-game", "random-matrix", "--out", "x.json", "--rows", "0", "--cols", "4"],
     "expected a positive integer, got 0"),
    (["solve", "--builtin", "kuhn", "--epsilon", "0"], "expected a finite positive number"),
    (["solve", "--builtin", "kuhn", "--epsilon", "nan"], "expected a finite positive number"),
    (["solve", "--builtin", "kuhn", "--epsilon", "inf"], "expected a finite positive number"),
    (["solve", "--builtin", "kuhn", "--lambda", "0.5"], "unrecognized arguments: --lambda"),
    (["solve", "--builtin", "kuhn", "--timing"], "unrecognized arguments: --timing"),
    (["solve", "--builtin", "kuhn", "--trace-every", "-1"], "expected a nonnegative integer, got -1"),
    (["solve", "--builtin", "kuhn", "--max-iters", "2.5"], "expected an integer, got '2.5'"),
    (["solve", "--builtin", "kuhn", "--epsilon", "abc"], "expected a number, got 'abc'"),
], ids=["make-game-rows-0", "solve-epsilon-0", "solve-epsilon-nan", "solve-epsilon-inf",
        "solve-lambda-is-unknown", "solve-timing-is-unknown", "solve-trace-every-negative",
        "solve-max-iters-not-integer", "solve-epsilon-not-number"])
def test_nonpositive_rows_is_usage_error(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_validate_reports_each_violation(tmp_path, capsys):
    out = tmp_path / "kuhn.json"
    main(["make-game", "kuhn", "--out", str(out)])
    doc = json.loads(read(out))
    doc["e1"][0] = 0.9
    out.write_text(render_json(doc) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["e1 [0]: first entry must be 1, got 0.9"]


def test_violation_output_is_bounded(tmp_path, capsys, monkeypatch):
    # 30 entries of E1 set to 2 break 61 rules; both commands print the
    # first 20 in order and count the rest
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "bad.json"
    main(["make-game", "random-matrix", "--rows", "30", "--cols", "2", "--out", str(out)])
    doc = json.loads(read(out))
    for t in doc["E1"]["triplets"]:
        t[2] = 2.0
    out.write_text(json.dumps(doc), encoding="utf-8")
    violations = [str(v) for v in validate_sequence_form(_load_game_file(str(out)))]
    assert len(violations) == 61
    expected = violations[:20] + ["... and 41 more violations"]
    capsys.readouterr()
    assert main(["validate", str(out)]) == 1
    assert capsys.readouterr().out.splitlines() == expected
    assert main(["solve", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == expected
    assert captured.out == ""
    assert not (tmp_path / "report.json").exists()


def test_solve_with_overflowing_payoffs_is_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    game = seqform.simplex_game(seqform.SparseMatrix.from_dense([[1e78, -1e78]]))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(game.to_dict()), encoding="utf-8")
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: operator norm estimation overflowed")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "report.json").exists()


def test_validate_parse_and_io_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n1": 13,', encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("parse error:")

    out = tmp_path / "kuhn.json"
    main(["make-game", "kuhn", "--out", str(out)])
    doc = json.loads(read(out))
    doc["n1"] = 5
    out.write_text(render_json(doc) + "\n", encoding="utf-8")
    assert main(["validate", str(out)]) == 2
    assert "declared dimensions" in capsys.readouterr().err

    doc["n1"] = 13
    doc["A"]["triplets"][0][2] = "abc"
    out.write_text(render_json(doc) + "\n", encoding="utf-8")
    assert main(["validate", str(out)]) == 2
    assert capsys.readouterr().err.startswith("parse error:")

    main(["make-game", "kuhn", "--out", str(out)])
    doc = json.loads(read(out))
    for key, value in (("n1", 13.0), ("l1", True)):
        out.write_text(json.dumps(dict(doc, **{key: value})), encoding="utf-8")
        assert main(["validate", str(out)]) == 2
        assert "must be integers" in capsys.readouterr().err

    assert main(["validate", str(tmp_path / "missing.json")]) == 1
    assert capsys.readouterr().err.startswith("i/o error:")


@pytest.mark.parametrize("command", ["validate", "solve"])
def test_deeply_nested_game_file_is_parse_error(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text("[" * 100000, encoding="utf-8")
    assert main([command, "deep.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and "nests too deeply" in err


@pytest.mark.parametrize("command", ["validate", "solve"])
def test_game_file_not_utf8_is_parse_error(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe{}")
    assert main([command, "bad.json"]) == 2
    assert capsys.readouterr().err.startswith("parse error:")


@pytest.mark.parametrize("command", ["validate", "solve"])
def test_numbers_past_python_limits_are_parse_errors(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    text = json.dumps(random_matrix_game(3, 2, 5).to_dict())
    assert '"e1": [1.0]' in text
    # more digits than int() reads, and an integer past the largest double
    for number in ("1" * 5000, "1" + "0" * 400):
        (tmp_path / "big.json").write_text(text.replace('"e1": [1.0]', f'"e1": [{number}]'),
                                           encoding="utf-8")
        assert main([command, "big.json"]) == 2
        assert capsys.readouterr().err.startswith("parse error:")


@pytest.mark.parametrize("command", ["validate", "solve"])
def test_nan_and_infinity_literals_are_parse_errors(tmp_path, capsys, monkeypatch, command):
    # Python's json reads NaN, Infinity and -Infinity, and json.dumps writes
    # them; JSON has no such literal, in a vector, a triplet or the labels
    monkeypatch.chdir(tmp_path)
    doc = random_matrix_game(3, 2, 5).to_dict()
    labels = {"sequences1": ["", "a", "b", "c"]}
    for constant in (float("nan"), float("inf"), float("-inf")):
        triplets = [list(t) for t in doc["A"]["triplets"]]
        triplets[0][2] = constant
        for edited in (dict(doc, e1=[constant]), dict(doc, A=dict(doc["A"], triplets=triplets)),
                       dict(doc, labels=dict(labels, sequences2=["", constant]))):
            text = json.dumps(edited)
            assert "Infinity" in text or "NaN" in text
            (tmp_path / "bad.json").write_text(text, encoding="utf-8")
            assert main([command, "bad.json"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("parse error:") and "is not a JSON number" in err
    # the same file without the literal reads
    (tmp_path / "good.json").write_text(json.dumps(dict(doc, labels=labels)), encoding="utf-8")
    assert main(["validate", "good.json"]) == 0


@pytest.mark.parametrize("command", ["validate", "solve"])
def test_matrix_too_large_to_allocate_is_parse_error(tmp_path, capsys, monkeypatch, command):
    # an index array of 8 PB exceeds any address space: numpy refuses it at once
    monkeypatch.chdir(tmp_path)
    doc = random_matrix_game(3, 2, 5).to_dict()
    for key in ("rows", "cols"):
        (tmp_path / "big.json").write_text(
            json.dumps(dict(doc, A=dict(doc["A"], **{key: 10 ** 15}))), encoding="utf-8")
        assert main([command, "big.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and "too large" in err


@pytest.mark.parametrize("command", ["validate", "solve"])
def test_declared_shape_the_file_cannot_back_is_refused_before_allocating(
        tmp_path, capsys, monkeypatch, command):
    # one E1 entry cannot back a million player 1 sequences; refused at once
    monkeypatch.chdir(tmp_path)
    n = 1_000_000
    doc = {"n1": n, "n2": 1, "l1": 1, "l2": 1,
           "A": {"rows": n, "cols": 1, "triplets": [[0, 0, 1.0]]},
           "E1": {"rows": 1, "cols": n, "triplets": [[0, 0, 1.0]]},
           "E2": {"rows": 1, "cols": 1, "triplets": [[0, 0, 1.0]]},
           "e1": [1.0], "e2": [1.0]}
    (tmp_path / "wide.json").write_text(json.dumps(doc), encoding="utf-8")
    assert (tmp_path / "wide.json").stat().st_size < 300
    tracemalloc.start()
    try:
        assert main([command, "wide.json"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and "too large" in err
    assert peak < 10 * 2 ** 20


def test_payoff_block_past_the_sequences_is_a_parse_error_and_a_smaller_one_a_violation(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = random_matrix_game(3, 2, 5).to_dict()
    for shape, code, violations in (
            ({"rows": 4}, 2, []),
            ({"rows": 2}, 1, ["A rows: must match the 3 player 1 sequences, got 2"]),
            ({"cols": 1}, 1, ["A cols: must match the 2 player 2 sequences, got 1"])):
        (tmp_path / "g.json").write_text(
            json.dumps(dict(doc, A=dict(doc["A"], **shape, triplets=[]))), encoding="utf-8")
        assert main(["validate", "g.json"]) == code
        out, err = capsys.readouterr()
        assert ("too large" in err) == (code == 2)
        assert out.splitlines() == violations


def test_load_game_file_hashes_the_bytes_it_parses(tmp_path):
    path = tmp_path / "game.json"
    doc = random_matrix_game(3, 2, 5).to_dict()
    doc["labels"] = {"note": "caf\u00e9 \u2660"}
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    hasher = hashlib.sha256()
    game = _load_game_file(str(path), hasher)
    assert game.labels == {"note": "caf\u00e9 \u2660"}
    assert hasher.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()


def test_make_game_random_matrix_bytes_are_pinned(tmp_path):
    out = tmp_path / "rm.json"
    assert main(["make-game", "random-matrix", "--rows", "50", "--cols", "40",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "b36f1b819ebd0b53cd40fc3332185ff09e5622ab5bc7402a90477271f24e1607")


def test_solve_dense_game_reruns_are_byte_identical(tmp_path, monkeypatch):
    # a full payoff block takes the dense product layout; Kuhn's does not
    monkeypatch.chdir(tmp_path)
    assert main(["make-game", "random-matrix", "--rows", "200", "--cols", "200",
                 "--out", "rm.json"]) == 0
    args = ["solve", "rm.json", "--epsilon", "1e-2"]
    runs = []
    for _ in range(2):
        assert main(args) == 0
        runs.append(((tmp_path / "report.json").read_bytes(),
                     (tmp_path / "trace.csv").read_bytes()))
    assert runs[0] == runs[1]


def solve_kuhn_args(tmp_path, *extra):
    return ["solve", "--builtin", "kuhn", "--epsilon", "1e-2",
            "--report", str(tmp_path / "report.json"),
            "--trace", str(tmp_path / "trace.csv"), *extra]


def test_solve_builtin_kuhn(tmp_path, capsys):
    code = main(solve_kuhn_args(tmp_path, "--strategies", str(tmp_path / "s.json")))
    assert code == 0
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("converged iterations=")

    doc = json.loads(read(tmp_path / "report.json"))
    assert list(doc.keys()) == [
        "converged", "iterations", "epsilon", "lambda", "norm_K", "residual",
        "value", "duality_gap", "feas", "manifest"]
    assert list(doc["feas"].keys()) == ["feas_x", "feas_y", "min_x", "min_y"]
    assert doc["converged"] is True
    assert doc["epsilon"] == 0.01
    assert abs(doc["value"] + 1.0 / 18.0) < 0.01
    assert doc["manifest"]["game"] == {"builtin": "kuhn"}
    assert doc["manifest"]["version"] == "0.1.0"
    assert doc["manifest"]["flags"] == {
        "epsilon": 0.01, "max_iters": 100000, "trace_every": 100,
        "report": str(tmp_path / "report.json"),
        "trace": str(tmp_path / "trace.csv"),
        "strategies": str(tmp_path / "s.json")}

    trace_lines = read(tmp_path / "trace.csv").splitlines()
    assert trace_lines[0] == TRACE_COLUMNS
    assert len(trace_lines) >= 2
    assert all(line.endswith(",0") for line in trace_lines[1:])
    assert int(trace_lines[-1].split(",")[0]) == doc["iterations"]

    strategies = json.loads(read(tmp_path / "s.json"))
    assert list(strategies.keys()) == ["x", "y", "x_last", "y_last", "p_last", "q_last"]
    assert len(strategies["x"]) == 13
    assert abs(sum(strategies["y"][1:3]) - 1.0) < 1e-12


@pytest.mark.parametrize("outputs", [
    [flag, spelling] for flag in ("--report", "--trace", "--strategies")
    for spelling in ("g.json", "./g.json")
] + [["--trace", "out", "--report", "out"]])
def test_solve_refuses_to_write_over_its_own_files(tmp_path, capsys, monkeypatch, outputs):
    monkeypatch.chdir(tmp_path)
    main(["make-game", "kuhn", "--out", "g.json"])
    before = (tmp_path / "g.json").read_bytes()
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["solve", "g.json", *outputs])
    assert err.value.code == 2
    assert "are the same file" in capsys.readouterr().err
    assert (tmp_path / "g.json").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["g.json"]


@pytest.mark.parametrize("flag", ["--report", "--trace", "--strategies"])
def test_solve_refuses_an_output_in_a_missing_directory_before_solving(tmp_path, capsys,
                                                                       monkeypatch, flag):
    monkeypatch.chdir(tmp_path)

    def no_solve(*args):
        raise AssertionError("solved before checking the outputs")

    monkeypatch.setattr("seqform.cli.solve", no_solve)
    assert main(["solve", "--builtin", "kuhn", flag, "nodir/out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "nodir/out" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--report", "--trace", "--strategies"])
@pytest.mark.parametrize("denied", ["file", "directory"])
def test_solve_refuses_an_unwritable_output_before_reading_the_game(tmp_path, capsys,
                                                                     monkeypatch, flag, denied):
    # os.access is patched to deny the one target, since a root user passes the real check:
    # an existing output by its own permission, a missing one by its directory's
    monkeypatch.chdir(tmp_path)
    main(["make-game", "kuhn", "--out", "g.json"])
    (tmp_path / "ro").mkdir()
    if denied == "file":
        (tmp_path / "ro" / "out").write_text("old\n")
    target = os.path.abspath("ro/out" if denied == "file" else "ro")
    access = os.access

    def no_write_to_target(path, mode, **kwargs):
        if os.path.abspath(path) == target and mode & os.W_OK:
            return False
        return access(path, mode, **kwargs)

    def no_work(*args):
        raise AssertionError("read the game or solved before checking the outputs")

    monkeypatch.setattr(os, "access", no_write_to_target)
    monkeypatch.setattr("seqform.cli._load_game_file", no_work)
    monkeypatch.setattr("seqform.cli.solve", no_work)
    capsys.readouterr()
    assert main(["solve", "g.json", flag, "ro/out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "no permission to write the output: 'ro/out'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json", "ro"]
    if denied == "file":
        assert [p.name for p in (tmp_path / "ro").iterdir()] == ["out"]
        assert read(tmp_path / "ro" / "out") == "old\n"
    else:
        assert list((tmp_path / "ro").iterdir()) == []


def test_solve_writes_its_trace_to_a_device(tmp_path, monkeypatch):
    # an existing output is checked by its own permission, not its directory's,
    # which a user other than root may not write to
    monkeypatch.chdir(tmp_path)
    devices = os.path.dirname(os.path.abspath(os.devnull))
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode, **kwargs: (
        os.path.abspath(path) != devices and access(path, mode, **kwargs)))
    assert main(["solve", "--builtin", "kuhn", "--epsilon", "1e-2", "--trace", os.devnull]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_two_outputs_to_one_device_are_not_a_clash(tmp_path, monkeypatch):
    # only a regular file can be clobbered; a device written twice loses nothing
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--builtin", "kuhn", "--report", os.devnull,
                 "--trace", os.devnull]) == 0
    assert list(tmp_path.iterdir()) == []
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_solve_refuses_a_hard_link_to_its_game_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    main(["make-game", "kuhn", "--out", "g.json"])
    before = (tmp_path / "g.json").read_bytes()
    try:
        os.link("g.json", "h.json")
    except (OSError, NotImplementedError) as exc:
        pytest.skip(f"no hard links here: {exc}")
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["solve", "g.json", "--report", "h.json"])
    assert err.value.code == 2
    assert "the game file and --report are the same file: h.json" in capsys.readouterr().err
    assert (tmp_path / "g.json").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json", "h.json"]


@pytest.mark.parametrize("flag", ["--report", "--trace", "--strategies"])
def test_solve_refuses_an_output_that_is_a_directory_before_solving(tmp_path, capsys,
                                                                    monkeypatch, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()

    def no_game():
        raise AssertionError("built the game before checking the outputs")

    monkeypatch.setattr("seqform.cli.kuhn_poker", no_game)
    assert main(["solve", "--builtin", "kuhn", flag, "sub"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "the output is a directory: 'sub'" in err
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]
    assert list((tmp_path / "sub").iterdir()) == []


@pytest.mark.parametrize("out", ["nodir/g.json", "sub"])
def test_make_game_refuses_its_output_before_building_the_game(tmp_path, capsys,
                                                               monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()

    def no_game(*args):
        raise AssertionError("built the game before checking --out")

    monkeypatch.setattr("seqform.cli.random_matrix_game", no_game)
    assert main(["make-game", "random-matrix", "--rows", "1000", "--cols", "1000",
                 "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and out in err
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]
    assert list((tmp_path / "sub").iterdir()) == []


@pytest.mark.parametrize("path", ["", "nodir/", "f/"], ids=["empty", "nodir-slash", "file-slash"])
@pytest.mark.parametrize("command", [
    ["solve", "--builtin", "kuhn", flag] for flag in ("--report", "--trace", "--strategies")
] + [["make-game", "kuhn", "--out"]], ids=["report", "trace", "strategies", "make-game-out"])
def test_an_output_that_names_no_file_is_refused_before_any_work(tmp_path, capsys,
                                                                  monkeypatch, command, path):
    # an empty path, or one ending in a separator, names no file to write
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f").write_text("f\n")

    def no_game():
        raise AssertionError("built the game before checking the outputs")

    monkeypatch.setattr("seqform.cli.kuhn_poker", no_game)
    assert main([*command, path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and f"{path!r}" in err
    assert [p.name for p in tmp_path.iterdir()] == ["f"]
    assert read(tmp_path / "f") == "f\n"


def test_solve_reruns_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["solve", "--builtin", "kuhn", "--epsilon", "1e-2"]
    assert main(args) == 0
    first = ((tmp_path / "report.json").read_bytes(),
             (tmp_path / "trace.csv").read_bytes())
    assert main(args) == 0
    second = ((tmp_path / "report.json").read_bytes(),
              (tmp_path / "trace.csv").read_bytes())
    assert first == second


def test_solve_game_file_records_hash(tmp_path):
    game_path = tmp_path / "rm.json"
    main(["make-game", "random-matrix", "--out", str(game_path),
          "--rows", "8", "--cols", "8", "--seed", "3"])
    assert main(["solve", str(game_path), "--epsilon", "1e-2",
                 "--report", str(tmp_path / "report.json"),
                 "--trace", str(tmp_path / "trace.csv")]) == 0
    doc = json.loads(read(tmp_path / "report.json"))
    digest = hashlib.sha256(game_path.read_bytes()).hexdigest()
    assert doc["manifest"]["game"] == {"path": str(game_path), "sha256": digest}


def test_seed_picks_only_the_random_matrix_game(tmp_path, monkeypatch, capsys):
    # make-game random-matrix is the one command that reads --rows, --cols and --seed
    monkeypatch.chdir(tmp_path)
    assert main(["make-game", "random-matrix", "--rows", "8", "--cols", "8", "--seed", "3",
                 "--out", "rm.json"]) == 0
    game = SequenceFormGame.from_dict(json.loads(read(tmp_path / "rm.json")))
    assert game.A.triplets() == random_matrix_game(8, 8, 3).A.triplets()
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["make-game", "kuhn", "--rows", "5", "--seed", "9", "--out", "kuhn.json"])
    assert err.value.code == 2
    assert "unrecognized arguments: --rows 5 --seed 9" in capsys.readouterr().err
    for flag in ("--rows", "--cols", "--seed"):
        for argv in (["make-game", "kuhn", flag, "5", "--out", "kuhn.json"],
                     ["solve", "rm.json", flag, "3"], ["solve", "--builtin", "kuhn", flag, "3"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["rm.json"]


@pytest.mark.parametrize("argv, command, words", [
    (["make-game", "kuhn", "--rows", "5", "--out", "k.json"], "make-game kuhn", "--rows 5"),
    (["make-game", "random-matrix", "--rows", "2", "--cols", "2", "--out", "x.json", "extra"],
     "make-game random-matrix", "extra"),
    (["validate", "--bogus", "g.json"], "validate", "--bogus"),
    (["solve", "--builtin", "kuhn", "--bogus"], "solve", "--bogus"),
    # a word before the sub-command is the top-level command's
    (["--bogus", "make-game", "kuhn", "--out", "k.json"], "", "--bogus"),
    (["--bogus", "solve", "--builtin", "kuhn", "--also"], "", "--bogus --also"),
], ids=["make-game-kuhn", "make-game-random-matrix", "validate", "solve",
        "before-make-game", "before-and-after-solve"])
def test_unknown_word_shows_its_sub_command_usage(tmp_path, monkeypatch, capsys,
                                                  argv, command, words):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith(f"usage: seqform {command} " if command else
                             "usage: seqform [-h] [--version] {make-game,validate,solve} ...\n")
    assert f"unrecognized arguments: {words}" in stderr
    assert list(tmp_path.iterdir()) == []


def seed_keys(doc, where=""):
    """Every place a key named seed appears in a JSON document, as dotted paths."""
    if not isinstance(doc, dict):
        return []
    return [f"{where}{key}" for key in doc if key == "seed"] + [
        path for key, value in doc.items() for path in seed_keys(value, f"{where}{key}.")]


def test_manifest_names_the_game_by_file_hash_or_builtin_kuhn(tmp_path, monkeypatch):
    # the seed that drew a random matrix game is in the file the manifest hashes
    monkeypatch.chdir(tmp_path)
    assert main(["make-game", "random-matrix", "--rows", "4", "--cols", "3", "--seed", "3",
                 "--out", "rm.json"]) == 0
    digest = hashlib.sha256((tmp_path / "rm.json").read_bytes()).hexdigest()
    for source, game in ((["rm.json"], {"path": "rm.json", "sha256": digest}),
                         (["--builtin", "kuhn"], {"builtin": "kuhn"})):
        assert main(["solve", *source, "--epsilon", "1e-2"]) == 0
        doc = json.loads(read(tmp_path / "report.json"))
        assert doc["manifest"]["game"] == game
        assert seed_keys(doc) == []


def test_solve_source_conflicts(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in (["solve"], ["solve", "game.json", "--builtin", "kuhn"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
    assert capsys.readouterr().err.count(
        "seqform solve: error: give exactly one of a game file or --builtin kuhn") == 2
    # a random matrix game is solved from the file make-game writes
    with pytest.raises(SystemExit) as err:
        main(["solve", "--builtin", "random-matrix"])
    assert err.value.code == 2
    assert "invalid choice: 'random-matrix'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["make-game", "random-matrix", "--rows", "1000000", "--cols", "1000000", "--out", "rm.json"],
], ids=["make-game"])
def test_random_matrix_too_large_to_allocate_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    # stands in for numpy refusing the 8 TB draw; no test allocates one
    def refuse(rows, cols, seed):
        raise MemoryError(f"Unable to allocate an array with shape ({rows}, {cols})")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("seqform.cli.random_matrix_game", refuse)
    assert main(argv) == 2
    assert capsys.readouterr().err == ("error: game too large to allocate: "
                                       "Unable to allocate an array with shape (1000000, 1000000)\n")
    assert list(tmp_path.iterdir()) == []


def test_help_lists_the_three_commands(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    assert "{make-game,validate,solve}" in capsys.readouterr().out


def test_main_calls_share_one_parser(tmp_path, monkeypatch):
    parsers = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def record(self, *args, **kwargs):
        if self.prog == "seqform":  # argparse calls each sub-parser's too
            parsers.append(self)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", record)
    out = str(tmp_path / "kuhn.json")
    assert main(["make-game", "kuhn", "--out", out]) == 0
    assert main(["validate", out]) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_solve_nonconvergence_exit_code(tmp_path, capsys):
    code = main(solve_kuhn_args(tmp_path, "--epsilon", "1e-4", "--max-iters", "50"))
    assert code == 3
    assert capsys.readouterr().out.startswith("not converged")
    doc = json.loads(read(tmp_path / "report.json"))
    assert doc["converged"] is False
    assert doc["iterations"] == 50


def test_solve_divergence_exit_code(tmp_path, capsys, monkeypatch):
    # a norm estimate far too small makes the step size diverge at once
    fixed_norm(monkeypatch, 1e-200)
    code = main(solve_kuhn_args(tmp_path))
    assert code == 4
    assert capsys.readouterr().err.startswith("divergence:")


def test_uncertified_last_step_is_written_as_inf_and_null(tmp_path, capsys, monkeypatch):
    # at 1.3 / ||K|| the window check first fails at step 8: no certificate
    from seqform import build_K, kuhn_poker, to_sequence_form

    game = to_sequence_form(kuhn_poker())[0]
    fixed_norm(monkeypatch, float(np.linalg.norm(build_K(game).to_dense(), 2)) / 1.3)
    args = ["solve", "--builtin", "kuhn", "--max-iters", "8", "--trace-every", "1",
            "--report", str(tmp_path / "report.json"), "--trace", str(tmp_path / "trace.csv")]
    assert main(args) == 3
    assert "not converged iterations=8 residual=inf " in capsys.readouterr().out
    assert json.loads(read(tmp_path / "report.json"))["residual"] is None
    rows = read(tmp_path / "trace.csv").splitlines()
    assert [row.split(",")[1] == "inf" for row in rows[1:]] == [False] * 7 + [True]


def test_summary_line_counts_restarts(tmp_path, capsys):
    args = ["solve", "--builtin", "kuhn", "--epsilon", "1e-4",
            "--report", str(tmp_path / "report.json"), "--trace", str(tmp_path / "trace.csv")]
    assert main(args) == 0
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("converged iterations=224 ")
    assert summary.endswith(" restarts=5")
    assert main([*args, "--max-iters", "21"]) == 3
    # the rule fires on step 21, but a capped run stops before restarting
    assert capsys.readouterr().out.strip().endswith(" restarts=0")


def test_solve_invalid_game_exit_code(tmp_path, capsys):
    out = tmp_path / "kuhn.json"
    main(["make-game", "kuhn", "--out", str(out)])
    doc = json.loads(read(out))
    doc["e1"][0] = 0.9
    out.write_text(render_json(doc) + "\n", encoding="utf-8")
    assert main(["solve", str(out),
                 "--report", str(tmp_path / "r.json"),
                 "--trace", str(tmp_path / "t.csv")]) == 1
    assert "first entry must be 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["make-game", "random-matrix", "--rows", "2", "--cols", "2", "--seed", "-1", "--out", "x.json"],
], ids=["make-game-seed"])
def test_negative_seeds_and_nonpositive_sizes_are_usage_errors(tmp_path, monkeypatch, capsys,
                                                               argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_render_json_formatting():
    assert render_json(0.1) == "0.10000000000000001"
    assert render_json([1, 2.5, "a"]) == '[1, 2.5, "a"]'
    assert render_json({"b": 1, "a": {"nested": True}}) == (
        '{\n  "b": 1,\n  "a": {\n    "nested": true\n  }\n}')
    assert render_json({}) == "{}"
    assert render_json([]) == "[]"
    with pytest.raises(ValueError):
        render_json(float("nan"))
    with pytest.raises(TypeError):
        render_json({1, 2})
    # all-float lists take a fast path with the per-item bytes and checks
    assert render_json([0.1, -0.0, 1e300]) == "[0.10000000000000001, -0, 1.0000000000000001e+300]"
    with pytest.raises(ValueError):
        render_json([0.5, float("nan")])
    rng = np.random.default_rng(5)
    floats = (rng.standard_normal(500) * 10.0 ** rng.integers(-320, 300, 500)).tolist()
    assert render_json(floats) == "[" + ", ".join(_scalar_json(v) for v in floats) + "]"


def test_load_game_file_restores_the_collector(tmp_path, monkeypatch):
    good = tmp_path / "game.json"
    assert main(["make-game", "random-matrix", "--rows", "3", "--cols", "2",
                 "--out", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    seen = []
    from_dict = SequenceFormGame.from_dict.__func__
    monkeypatch.setattr(SequenceFormGame, "from_dict", classmethod(
        lambda cls, doc: seen.append(gc.isenabled()) or from_dict(cls, doc)))
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert _load_game_file(str(good)).A.shape == (3, 2)
            assert gc.isenabled() == enabled
            with pytest.raises(FileFormatError):
                _load_game_file(str(bad))
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    # the document is turned into a game with the collector paused
    assert seen == [False, False]


def env_importing_this_seqform() -> dict:
    """os.environ with this checkout's seqform first on PYTHONPATH, for a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(seqform.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    return env


def test_solve_leaves_scipy_linalg_unimported(tmp_path):
    # importing scipy.linalg costs more than a whole Kuhn set-up
    modules = ("scipy.linalg", "scipy.sparse.linalg")
    code = ("import sys\n"
            "from seqform.cli import main\n"
            "code = main(['solve', '--builtin', 'kuhn'])\n"
            f"print([m for m in {modules!r} if m in sys.modules])\n"
            "sys.exit(code)\n")
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         env=env_importing_this_seqform(), capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def test_solve_reruns_in_fresh_processes_are_byte_identical(tmp_path):
    # string hashing, and so set and dict iteration order, differs only between processes
    env = env_importing_this_seqform()
    outputs = []
    for seed in ("0", "1"):
        cwd = tmp_path / seed
        cwd.mkdir()
        run = subprocess.run(
            [sys.executable, "-m", "seqform.cli", "solve", "--builtin", "kuhn",
             "--epsilon", "1e-3", "--trace-every", "1", "--strategies", "s.json"],
            cwd=cwd, env={**env, "PYTHONHASHSEED": seed}, capture_output=True, text=True,
            timeout=120)
        assert run.returncode == 0, run.stderr
        outputs.append([(cwd / name).read_bytes()
                        for name in ("report.json", "trace.csv", "s.json")])
    assert outputs[0] == outputs[1]


def test_solve_without_numpys_private_einsum_kernel_writes_the_same_bytes(tmp_path):
    # numpy has moved its private modules before; without the private name seqform
    # falls back to np.einsum, the same kernel, and every output keeps its bytes
    solve = ("import sys\n"
             "{prelude}"
             "import numpy as np\n"
             "from seqform import sparse\n"
             "from seqform.cli import main\n"
             "assert (sparse._einsum is np.einsum) == {fallback}\n"
             "sys.exit(main(['solve', '--builtin', 'kuhn', '--epsilon', '1e-3',\n"
             "               '--trace-every', '1']))\n")
    deleted = "import numpy._core.multiarray as multiarray\ndel multiarray.c_einsum\n"
    outputs = []
    for kernel, prelude in (("private", ""), ("public", deleted)):
        cwd = tmp_path / kernel
        cwd.mkdir()
        code = solve.format(prelude=prelude, fallback=bool(prelude))
        run = subprocess.run([sys.executable, "-c", code], cwd=cwd,
                             env=env_importing_this_seqform(), capture_output=True, text=True,
                             timeout=120)
        assert run.returncode == 0, run.stderr
        outputs.append([(cwd / name).read_bytes() for name in ("report.json", "trace.csv")])
    assert outputs[0] == outputs[1]


def test_render_json_round_trips_doubles():
    values = [1.0 / 18.0, 2.0 ** -52, 1e300, -0.1]
    parsed = json.loads(render_json(values))
    assert parsed == values


def test_write_trace_csv_golden(tmp_path):
    point = TracePoint(iter=3, residual=0.5, duality_gap=0.25, value=-1.0 / 18.0,
                       p0=1.0, neg_q0=-1.0, feas_x=0.0, feas_y=0.0,
                       min_x=0.0, min_y=-0.125)
    path = tmp_path / "t.csv"
    write_trace_csv(str(path), [point])
    assert read(path).splitlines() == [
        TRACE_COLUMNS,
        "3,0.5,0.25,-0.055555555555555552,1,-1,0,0,0,-0.125,0",
    ]
