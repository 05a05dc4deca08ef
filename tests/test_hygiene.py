"""Source hygiene checks: standard-library AST scans of the source files."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wrinet"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; ``__future__`` imports and
    names listed in ``__all__`` count as used."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read - exported)


def test_scan_finds_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b, c\n" \
             "__all__ = ['c']\nprint(sys)\n"
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_reads_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []


def op_names_compared(source: str) -> set[str]:
    """String constants compared with ``==`` or ``!=`` against a ``.op``
    attribute, on either side."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for i, cmp in enumerate(node.ops):
            if not isinstance(cmp, (ast.Eq, ast.NotEq)):
                continue
            pair = operands[i:i + 2]
            if any(isinstance(o, ast.Attribute) and o.attr == "op" for o in pair):
                names.update(o.value for o in pair
                             if isinstance(o, ast.Constant) and isinstance(o.value, str))
    return names


def test_op_scan_finds_compared_names():
    source = 'if node.op == "bn" or "relu" != n.op or x.op in ("gap",) or y == "z":\n  pass\n'
    assert op_names_compared(source) == {"bn", "relu"}


@pytest.mark.parametrize("path", sorted(
    str(p.relative_to(ROOT)) for p in [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                                       *(ROOT / "perfbench").glob("*.py")]))
def test_compared_op_names_exist(path):
    """A node-kind name that no op has (one left behind by a rename) makes a
    comparison silently false."""
    from wrinet.graph import OPS

    assert op_names_compared((ROOT / path).read_text()) <= {*OPS, "input"}
