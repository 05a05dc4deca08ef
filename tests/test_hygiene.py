"""Source hygiene checks: standard-library AST scans of the source files."""

import ast
import json
from collections import Counter
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


def shape_error_raisers(source: str) -> list[str]:
    """The enclosing function of each ``raise ShapeError`` in ``source``, as
    ``Class.method`` for a method and ``<module>`` outside any function."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None and \
                    ast.unparse(child.exc).split("(")[0] == "ShapeError":
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_shape_error_scan_names_enclosing_functions():
    source = ("class P:\n    def __post_init__(self):\n        if 1:\n"
              "            raise ShapeError('a')\n"
              "def f():\n    raise ShapeError\n    raise ValueError('b')\n"
              "raise ShapeError(f'{1}')\n")
    assert shape_error_raisers(source) == ["P.__post_init__", "f", "<module>"]


def test_kernels_raise_no_shape_errors_of_their_own():
    """The graph checks every shape before a kernel runs, a train-mode
    batch norm's N*H*W >= 2 among them, so the kernel modules raise
    ShapeError only for the conv's own invariants."""
    raisers = [r for module in ("layers.py", "tensor.py")
               for r in shape_error_raisers((SRC / module).read_text())]
    assert sorted(set(raisers)) == ["ConvParams.__post_init__"]


def names_read(tree: ast.AST) -> Counter:
    """How often each bare name is loaded in ``tree``."""
    return Counter(n.id for n in ast.walk(tree)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def qualified_reads(tree: ast.AST, modules: set[str]) -> Counter:
    """How often ``tree`` reads each ``(module, name)`` of ``modules`` through
    the module: ``from <module> import name``, or ``alias.name`` where an
    import binds ``alias`` to the module (``import pkg.module as alias``,
    ``from pkg import module``, ``from . import module as alias``). Modules
    are known by the last part of their dotted path."""
    aliases = {}
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[-1] in modules:
                    aliases[a.asname or a.name] = a.name.split(".")[-1]
        elif isinstance(node, ast.ImportFrom):
            source = (node.module or "").split(".")[-1]
            for a in node.names:
                if source in modules:
                    reads[source, a.name] += 1
                elif a.name in modules:
                    aliases[a.asname or a.name] = a.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            module = aliases.get(ast.unparse(node.value))
            if module:
                reads[module, node.attr] += 1
    return reads


def unread_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` for each public module-level function or class of
    ``modules`` (module name -> source) that nothing reads outside its own
    definition: neither a bare name in its own module nor a read through the
    module (:func:`qualified_reads`) in ``modules`` or ``readers``. A
    same-named attribute or bare name elsewhere does not count."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    qualified = sum((qualified_reads(t, set(trees))
                     for t in [*trees.values(), *map(ast.parse, readers)]), Counter())
    unread = []
    for module, tree in trees.items():
        own = names_read(tree)
        unread += [f"{module}.{node.name}" for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_")
                   and not qualified[module, node.name]
                   and own[node.name] == names_read(node)[node.name]]
    return sorted(unread)


def test_definition_scan_finds_unread_names():
    modules = {
        "a": "def used(): pass\ndef recursive(n): return recursive(n - 1)\n"
             "class Lone:\n    def make(self): return Lone()\ndef _private(): pass\n"
             "def local(): pass\nlocal()\n",
        "b": "import pkg.a as alias\nalias.used()\n",
    }
    assert unread_definitions(modules, []) == ["a.Lone", "a.recursive"]
    assert unread_definitions(modules, ["from .a import Lone\n"]) == ["a.recursive"]


def test_definition_scan_is_not_fooled_by_same_names():
    """A same-named attribute, or a bare name in another module, is not a read
    of the function."""
    modules = {"a": "def dead(): pass\n",
               "b": "class C:\n    dead = 1\nprint(C().dead)\ndead = 2\nprint(dead)\n"}
    readers = ["import other\nother.dead()\nfrom other import dead\n"]
    assert unread_definitions(modules, readers) == ["a.dead"]
    assert unread_definitions(modules, readers + ["from pkg import a\na.dead()\n"]) == []


PARAMETER_MAKERS = {"make_conv", "make_fc", "make_batch_norm", "make_affine"}


def test_only_the_graph_makes_parameters():
    """The graph makes every parameter and running statistic it holds, in
    its own dtype, so no builder passes one in. Besides it, only gradcheck's
    kernel-level cases, which hold no graph, read the layers' makers."""
    readers = {p.stem for p in SRC.glob("*.py")
               if any(name in PARAMETER_MAKERS
                      for _, name in qualified_reads(ast.parse(p.read_text()), {"layers"}))}
    assert readers == {"graph", "gradcheck"}


# Public definitions that nothing in src/ or perfbench/ calls yet, each kept
# on purpose.
UNREAD_ALLOWED = {
    "heads.detection_backward": "detection training (ROADMAP item 3) will call it",
    "heads.detection_loss_batch": "detection training (ROADMAP item 3) will call it",
    "optim.detection_defaults": "detection training (ROADMAP item 3) will call it",
    "blocks.effective_receptive_paths": "the paper's {1, 3, 5} receptive-path claim, "
                                        "checked by the acceptance tests",
}


def test_every_public_definition_is_read():
    """A public function or class that no program reads is code only tests
    keep alive; delete it or name it, with its reason, in UNREAD_ALLOWED."""
    modules = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    readers = [p.read_text() for p in (ROOT / "perfbench").glob("*.py")]
    assert unread_definitions(modules, readers) == sorted(UNREAD_ALLOWED)


def unread_fields(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module.Class.field`` for each field of a dataclass of ``modules``
    (module name -> source) that no source of ``modules`` or ``readers``
    loads as an attribute. Writes (``obj.field += 1``) and keyword arguments
    are not reads; a read of a same-named attribute of any object is."""
    read = {node.attr for source in [*modules.values(), *readers]
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for module, source in modules.items():
        for cls in ast.parse(source).body:
            if isinstance(cls, ast.ClassDef) and any(
                    ast.unparse(d).split("(")[0] in ("dataclass", "dataclasses.dataclass")
                    for d in cls.decorator_list):
                unread += [f"{module}.{cls.name}.{f.target.id}" for f in cls.body
                           if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                           and f.target.id not in read]
    return sorted(unread)


def test_field_scan_finds_unread_fields():
    modules = {
        "a": "from dataclasses import dataclass\n"
             "@dataclass(frozen=True)\nclass P:\n    x: int\n    count: int = 0\n"
             "    tag: str = ''\n    def bump(self):\n        self.count += 1\n"
             "@dataclass\nclass Q:\n    y: int\n"
             "class Plain:\n    z: int\n"
             "P(x=1, tag='t').x\n",
    }
    assert unread_fields(modules, []) == ["a.P.count", "a.P.tag", "a.Q.y"]
    assert unread_fields(modules, ["q.y\n"]) == ["a.P.count", "a.P.tag"]


def test_every_dataclass_field_is_read():
    """A dataclass field that no program reads is state that only its
    writers keep alive; delete it."""
    modules = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    readers = [p.read_text() for p in (ROOT / "perfbench").glob("*.py")]
    assert unread_fields(modules, readers) == []


def bench_record_problems(record: dict, benchmark: dict) -> list[str]:
    """Why a ``BENCH_*.json`` record cannot back a claim: missing ``env``; a
    workload or metric that ``benchmark`` (BENCHMARK.json) does not define,
    in ``runs`` (end-to-end metrics), ``traced`` (per-layer metrics),
    ``claims`` or ``summary`` (one end-to-end metric each); or a claimed
    workload with fewer than ten seeds run on both the ``parent`` and the
    ``change`` side."""
    workloads = {w["name"] for w in benchmark["workloads"]}
    end_to_end = {m["name"] for m in benchmark["end_to_end"]}
    per_layer = {m["name"] for m in benchmark["per_layer"]}
    problems = [] if record.get("env") else ["no env recorded"]
    for section, metrics in (("runs", end_to_end), ("traced", per_layer),
                             ("claims", end_to_end), ("summary", end_to_end)):
        for entry in record.get(section, []):
            if entry["workload"] not in workloads:
                problems.append(f"{section}: unknown workload {entry['workload']!r}")
            names = entry["metrics"] if "metrics" in entry else [entry["metric"]]
            problems += [f"{section}: unknown metric {m!r}" for m in names
                         if m not in metrics]
    for claim in record.get("claims", []):
        sides = {}
        for run in record.get("runs", []):
            if run["workload"] == claim["workload"]:
                sides.setdefault(run["seed"], set()).add(run["side"])
        pairs = sum(s == {"parent", "change"} for s in sides.values())
        if pairs < 10:
            problems.append(f"claim on {claim['workload']}: {pairs} pairs, need 10")
    return problems


def test_bench_record_check_finds_problems():
    benchmark = {"workloads": [{"name": "w"}], "end_to_end": [{"name": "t"}],
                 "per_layer": [{"name": "k.share"}]}
    runs = [{"workload": "w", "seed": s, "side": side, "metrics": {"t": 1.0}}
            for s in range(10) for side in ("parent", "change")]
    good = {"env": {"numpy": "2"}, "claims": [{"workload": "w", "metric": "t"}],
            "runs": runs, "traced": [{"workload": "w", "metrics": {"k.share": 0.1}}],
            "summary": [{"workload": "w", "metric": "t"}]}
    assert bench_record_problems(good, benchmark) == []
    bad = {"claims": [{"workload": "w", "metric": "t"}, {"workload": "v", "metric": "u"}],
           "runs": runs[1:] + [{"workload": "w", "seed": 99, "side": "parent",
                                "metrics": {"u": 1.0}}],
           "traced": [{"workload": "v", "metrics": {"k.gb_per_s": 1.0}}],
           "summary": [{"workload": "w", "metric": "k.share"}]}
    assert bench_record_problems(bad, benchmark) == [
        "no env recorded",
        "runs: unknown metric 'u'",
        "traced: unknown workload 'v'",
        "traced: unknown metric 'k.gb_per_s'",
        "claims: unknown workload 'v'",
        "claims: unknown metric 'u'",
        "summary: unknown metric 'k.share'",
        "claim on w: 9 pairs, need 10",
        "claim on v: 0 pairs, need 10",
    ]


@pytest.mark.parametrize("path", sorted(p.name for p in ROOT.glob("BENCH_*.json")))
def test_bench_record_is_usable(path):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench_record_problems(json.loads((ROOT / path).read_text()), benchmark) == []
