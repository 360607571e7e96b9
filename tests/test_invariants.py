"""Library-wide rules that no single module's tests would catch."""

import ast
from pathlib import Path

import flowtri

SOURCES = sorted(Path(flowtri.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    """Invariants raise explicitly, so ``python -O`` cannot strip them."""
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
