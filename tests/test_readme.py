"""README's Library example and the outputs that its Command line block
states: each runs and gives what its comment says."""

import re
import shlex
from pathlib import Path

import pytest

from zqforce.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_values():
    text = README.read_text(encoding="utf-8")
    block = text[text.index("## Library"):].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    stated = {"zq_chain(g, 2)": [4, 5, 5, 5], "res.value": 5, "zq_formula(seq, 1)": 4,
              "zq_formula(seq, seq.s)": 4}
    for expr, value in stated.items():
        comment = rf"^{re.escape(expr)}\s+# {re.escape(str(value))}(?!\d)"
        assert re.search(comment, block, re.M), expr
        assert eval(expr, namespace) == value, expr


# Per output that a comment of README's "Command line" block states: the
# lines that its command's output must hold
STATED_OUTPUTS = {
    "value: 1": ["value: 1"],
    "formula 4, game 4, PASS": ["formula: 4", "game: 4", "verify: PASS"],
    "chain: [2, 3, 3, 3]": ["chain: [2, 3, 3, 3]"],
    "chain: [15, 15]": ["chain: [15, 15]"],
    "Z_1: 15": ["Z_1: 15"],
    "inertia (0, 3, 5)": ["certificate inertia (neg, zero, pos): (0, 3, 5)"],
}


@pytest.mark.parametrize("stated, lines", STATED_OUTPUTS.items(), ids=list(STATED_OUTPUTS))
def test_command_line_stated_outputs(capsys, stated, lines):
    text = README.read_text(encoding="utf-8")
    block = text[text.index("## Command line"):].split("```sh\n", 1)[1].split("```", 1)[0]
    command = re.search(rf"^zqforce (.*?)\s+# {re.escape(stated)}(?!\d)", block, re.M)
    assert command, stated
    assert run(shlex.split(command[1])) == 0, command[0]
    out = capsys.readouterr().out.splitlines()
    assert all(line in out for line in lines), (command[0], out)
