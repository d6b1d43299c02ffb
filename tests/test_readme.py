"""README's Library example runs and gives the values its comments state."""

import re
from pathlib import Path

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
