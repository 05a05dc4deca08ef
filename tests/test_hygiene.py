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


def names_read(tree: ast.AST) -> Counter:
    """How often each name is loaded in ``tree``, as a bare name or as an
    attribute (``detection.nms`` reads ``nms``)."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def unread_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` for each public module-level function or class of
    ``modules`` (module name -> source) that no source of ``modules`` or
    ``readers`` reads outside its own definition. Reads match by name alone,
    so a same-named attribute elsewhere hides a definition; the scan can miss
    dead code but never flags live code."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    total = sum((names_read(t) for t in [*trees.values(), *map(ast.parse, readers)]),
                Counter())
    return sorted(f"{module}.{node.name}" for module, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")
                  and total[node.name] == names_read(node)[node.name])


def test_definition_scan_finds_unread_names():
    modules = {
        "a": "def used(): pass\ndef recursive(n): return recursive(n - 1)\n"
             "class Lone:\n    def make(self): return Lone()\ndef _private(): pass\n",
        "b": "from a import used\nused = 1\n",
    }
    assert unread_definitions(modules, []) == ["a.Lone", "a.recursive", "a.used"]
    assert unread_definitions(modules, ["import a\na.used()\nLone"]) == ["a.recursive"]


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
