"""Fixed rules of the package source, checked on its syntax trees.

Arithmetic is exact, so no module holds a float literal or calls `float`;
mathematical invariants raise exceptions, so no module uses `assert`, which
`python -O` strips.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "diffchar").glob("*.py"))


def _violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float() call"


def test_no_asserts_or_floats_in_the_package():
    assert {p.name for p in SOURCES} >= {"exact_linalg.py", "characters.py", "cli.py"}
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in _violations(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_rules_catch_each_violation():
    source = "assert x\ny = 0.5\nz = float(y)\nw = 2j\n"
    assert [what for _, what in sorted(_violations(ast.parse(source)))] == [
        "assert statement", "float literal 0.5", "float() call", "float literal 2j",
    ]
