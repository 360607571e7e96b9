"""Library-wide rules that no single module's tests would catch."""

import ast
from collections import Counter
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


def _inexact(node: ast.AST) -> bool:
    """True division, a float literal, a ``float(...)`` call or any mention
    of ``Fraction``."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.Div)
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "float"
    if isinstance(node, ast.Name):
        return node.id == "Fraction"
    if isinstance(node, ast.Attribute):
        return node.attr == "Fraction"
    if isinstance(node, ast.alias):
        return node.name == "Fraction"
    return False


def test_library_arithmetic_is_exact():
    """The library computes in ints alone: no ``/`` or ``/=``, no float
    literal, no ``float(...)`` and no ``Fraction``, so no fast path can
    round or fall back to rationals."""
    assert SOURCES
    found = [f"{path.name}:{getattr(node, 'lineno', '?')}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if _inexact(node)]
    assert found == []


def _unread_parameters(fn: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> list[str]:
    """The parameters of ``fn`` that its body (nested functions included)
    never loads."""
    args = fn.args
    params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                              args.vararg, args.kwarg) if a]
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    read = {node.id for stmt in body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [p for p in params if p not in read and p not in ("self", "cls")]


def test_library_reads_every_parameter():
    """No function or lambda has a parameter its body never reads, so no
    caller builds an argument for nothing.  The ``cli.cmd_*`` handlers are
    exempt: they share the dispatcher's signature."""
    assert SOURCES
    found = [f"{path.name}:{node.lineno} {getattr(node, 'name', 'lambda')}({p})"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             and not getattr(node, "name", "").startswith("cmd_")
             for p in _unread_parameters(node)]
    assert found == []


def test_library_uses_every_private_helper():
    """Every ``_``-prefixed function or class of the library is referenced
    by library code outside its own body, so no helper stays behind that
    only the tests call.  Dunder methods are exempt."""
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES]
    assert trees

    def references(node: ast.AST) -> Counter:
        return Counter(n.id if isinstance(n, ast.Name) else n.attr
                       for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    everywhere = sum(map(references, trees), Counter())
    helpers = [node for tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")]
    assert helpers
    unused = [node.name for node in helpers
              if everywhere[node.name] == references(node)[node.name]]
    assert unused == []
