"""The README's Python blocks run as written and show what they say."""

import ast
import json
import re
from pathlib import Path

from momentcrit import OperatorClass, build_moment_matrix, states
from momentcrit.cli import EXIT_ENTANGLED, main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_readme_quick_start_runs_and_shows_its_commented_values():
    block = BLOCKS[0]
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


def test_readme_array_decoder_reads_a_singlet_report(tmp_path, monkeypatch):
    (block,) = [b for b in BLOCKS if "b64decode" in b]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(
        {"state": {"library": "singlet"}, "criteria": [{"name": "pt_norm"}]}))
    assert main(["analyze", "c.json", "--format", "structured", "--out", "report.json"]) \
        == EXIT_ENTANGLED
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    m = build_moment_matrix(states.singlet(), OperatorClass.from_strings(["1", "a"], ["1", "b"]))
    assert namespace["m"].shape == (4, 4) and namespace["m"].tobytes() == m.entries.tobytes()
