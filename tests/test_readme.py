"""README's Python examples run as written."""

import re
from pathlib import Path

import numpy as np

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
    assert capsys.readouterr().out
