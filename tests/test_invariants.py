"""Library-wide rules that no single module's tests would catch."""

import ast
import dataclasses
import importlib
import inspect
import re
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


def test_report_format_lives_in_cli():
    """No library class knows its report's shape: ``cli`` builds each
    report block from the record's fields.  The module-level data formats
    (``dag_to_json``, ``embedding_to_json``, ``poset_to_json``) stay."""
    assert SOURCES
    found = [f"{path.name}:{node.lineno} {node.name}.{item.name}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ClassDef)
             for item in node.body
             if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
             and item.name == "to_json"]
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


# The private names one library module may take from another: the mask
# helpers, the sized clique search and the avoided-set growth.
SHARED_PRIVATE = {("geometry", "_members"), ("geometry", "_pick"), ("geometry", "_mask"),
                  ("geometry", "_canonical"), ("dkk", "_sized_cliques"),
                  ("equatorial", "_avoided_sets")}


def _private_imports(tree: ast.Module) -> list[tuple[str, str, int]]:
    """Each (module, name, line) where the module of ``tree`` takes a
    ``_``-prefixed, non-dunder name from another library module: by
    ``from .x import _y``, or as ``m._y`` for a module bound by
    ``from . import x as m``."""
    bound: dict[str, str] = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    bound[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.append((node.module, alias.name, node.lineno))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in bound and node.attr.startswith("_") \
                and not node.attr.endswith("__"):
            found.append((bound[node.value.id], node.attr, node.lineno))
    return found


def test_library_shares_only_listed_private_names():
    """No library module reads another's private name outside
    ``SHARED_PRIVATE``, so a helper's callers stay inside its module."""
    found = {path.name: _private_imports(ast.parse(path.read_text(), str(path)))
             for path in SOURCES}
    assert ("equatorial", "_avoided_sets") in {(m, n) for uses in found.values()
                                               for m, n, _ in uses}
    assert [f"{name}:{line} {mod}.{attr}" for name, uses in found.items()
            for mod, attr, line in uses if (mod, attr) not in SHARED_PRIVATE] == []


MODULES = ("cli", "dag", "routes", "dkk", "equatorial", "geometry", "quotient", "planar")
README = Path(__file__).parents[1] / "README.md"


def _resolves(head: object, parts: list[str]) -> bool:
    """Each part is an attribute of what the parts before it name, or, on a
    dataclass, one of its fields (which the class itself does not hold)."""
    for part in parts:
        if hasattr(head, part):
            head = getattr(head, part)
        elif inspect.isclass(head) and dataclasses.is_dataclass(head) and \
                part in {f.name for f in dataclasses.fields(head)}:
            head = None                   # a field: nothing further to resolve
        else:
            return False
    return True


def test_readme_names_live_code():
    """Every dotted name inside backticks in README.md whose head is a
    ``flowtri`` module (``geometry._members``, ``flowtri.dag.G``) or a
    library class (``Poset.holders``) resolves to a live attribute or
    dataclass field, so README names no function that is gone."""
    modules = {m: importlib.import_module(f"flowtri.{m}") for m in MODULES}
    classes = {name: value for mod in modules.values() for name, value in vars(mod).items()
               if inspect.isclass(value) and value.__module__.startswith("flowtri.")}
    heads = {**modules, **classes, "flowtri": flowtri}
    names = [name for span in re.findall(r"`([^`]+)`", README.read_text())
             for name in re.findall(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
             if name.split(".")[0] in heads]
    assert len(names) > 20
    assert [n for n in names if not _resolves(heads[n.split(".")[0]], n.split(".")[1:])] == []
