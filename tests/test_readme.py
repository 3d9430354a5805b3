"""README's Python examples and command lines run as written."""

import re
import shlex
from pathlib import Path

import numpy as np

from seqform import SolverConfig, kuhn_poker, solve, to_sequence_form
from seqform.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_one_namespace(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the documented init/step/residual loop stops only on a certified window
    state = namespace["state"]
    assert state.E <= 0.5 * float(np.einsum("i,i->", state.v, state.v))
    assert namespace["residual"](state) < 1e-3
    # and takes the number of steps README quotes for it
    quoted = re.search(r"Kuhn poker takes ([\d,]+) steps to 1e-3",
                       " ".join(README.read_text(encoding="utf-8").split()))
    assert quoted and int(quoted.group(1).replace(",", "")) == state.steps
    assert capsys.readouterr().out


def run_seqform(line: str) -> int:
    words = shlex.split(line)
    assert words[0] == "seqform", line
    return main(words[1:])


def test_readme_command_lines_run_as_written(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    commands, loop = re.findall(r"^```\n(.*?)^```", section, re.DOTALL | re.MULTILINE)[:2]
    monkeypatch.chdir(tmp_path)
    lines = commands.splitlines()
    assert lines and all(line.startswith("seqform ") for line in lines)
    for line in lines:
        assert run_seqform(line) == 0, line
    # the grid loop at its first size and first seed, continuation lines joined
    loop = loop.replace("\\\n", " ")
    first = {name: values.split()[0]
             for name, values in re.findall(r"for (\w+) in ([^;]+); do", loop)}
    solves = [re.sub(r"\$\{?(\w+)\}?", lambda m: first[m.group(1)], line.strip())
              for line in loop.splitlines() if line.strip().startswith("seqform ")]
    assert solves
    for line in solves:
        assert run_seqform(line) == 0, line


def test_readme_kuhn_counts_are_solves():
    # the iteration count and restart steps quoted for Kuhn poker at 1e-4
    text = " ".join(README.read_text(encoding="utf-8").split())
    quoted = re.search(r"Kuhn poker reaches a 1e-4 certificate in ([\d,]+) iterations, "
                       r"with restarts at steps ([\d, ]+) and (\d+),", text)
    gate = re.search(r"the run converges in ([\d,]+) iterations", text)
    assert quoted and gate
    report = solve(to_sequence_form(kuhn_poker())[0], SolverConfig(epsilon=1e-4))
    assert report.converged
    iterations = int(quoted.group(1).replace(",", ""))
    assert iterations == int(gate.group(1).replace(",", "")) == report.iterations
    steps = [int(s) for s in quoted.group(2).split(",")] + [int(quoted.group(3))]
    assert steps == report.restarts
