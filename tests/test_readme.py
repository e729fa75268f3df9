"""The README's Python quick start runs as written and shows what it says."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs_and_shows_its_commented_values():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    shown = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            comment = lines[node.end_lineno - 1].partition("#")[2].split()
            shown.append((repr(value) if isinstance(value, float) else str(value), comment[0]))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert shown == [
        ("1.2071067811865475", "1.2071067811865475"),
        ("1.2071067811865475", "1.2071067811865475"),
        ("Outcome.ENTANGLED", "Outcome.ENTANGLED"),
    ]
