"""Every widewalk name that perfbench reads still exists.

The benchmark's files are parsed with ast, neither run nor changed: the
worker's flagship set-up, the workloads, the gate and the reference
maker each read package names that no other tier-1 test reaches, so a
deletion in the package that would break the benchmark fails here.
perfbench binds the package to `ww` or `widewalk`, and reads some of
its modules through an alias (`a = ww.amplify`), which is followed
through the file that binds it.  The tracer's WRAPPED names are checked by
test_perfbench_tracer.py.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = {"ww", "widewalk"}


def _chain(node) -> list[str]:
    """["ww", "code", "encode"] for the expression ww.code.encode, else []."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return [node.id, *reversed(attrs)] if isinstance(node, ast.Name) else []


def package_reads(source: str) -> set[tuple[str, ...]]:
    """Dotted paths from `widewalk` that the source reads: attribute chains
    on the package or on a module alias, and the modules and names it
    imports from the package."""
    nodes = list(ast.walk(ast.parse(source)))
    reads, aliases = set(), {}
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "widewalk":
            reads.update((*node.module.split("."), alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            reads.update(tuple(a.name.split(".")) for a in node.names if a.name.split(".")[0] == "widewalk")
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            chain = _chain(node.value)
            if len(chain) == 2 and chain[0] in PACKAGE:
                aliases[node.targets[0].id] = chain[1]
    for node in nodes:
        chain = _chain(node) if isinstance(node, ast.Attribute) else []
        if chain and chain[0] in PACKAGE:
            reads.add(("widewalk", *chain[1:]))
        elif chain and chain[0] in aliases:
            reads.add(("widewalk", aliases[chain[0]], *chain[1:]))
    return reads


def unresolved(reads: set[tuple[str, ...]]) -> list[str]:
    missing = []
    for path in sorted(reads):
        obj = importlib.import_module("widewalk")
        for i, name in enumerate(path[1:], 1):
            if not hasattr(obj, name):
                try:  # a submodule that nothing has imported yet
                    obj = importlib.import_module(".".join(path[: i + 1]))
                    continue
                except ImportError:
                    missing.append(".".join(path))
                    break
            obj = getattr(obj, name)
    return missing


def test_every_package_name_perfbench_reads_exists():
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        reads |= package_reads(path.read_text())
    assert unresolved(reads) == []
    # the reads this test exists for: the flagship set-up's imports, the
    # workloads' calls through module aliases, and the gate's chains
    assert {("widewalk", "cli", name) for name in
            ("ReplacementSystem", "WalkParams", "build_aghp", "build_complete_selfloop")} <= reads
    assert {("widewalk", "amplify", "check_middle_start_identity"),
            ("widewalk", "graphs", "build_aghp"),
            ("widewalk", "code", "encode"),
            ("widewalk", "cli", "main")} <= reads


@pytest.mark.parametrize("source, missing", [
    ("def f(ww):\n    return ww.code.rate(amp)\n", "widewalk.code.rate"),
    ("def f(ww):\n    a = ww.amplify\n    return a.dp_gk_level\n", "widewalk.amplify.dp_gk_level"),
    ("from widewalk.code import embed, encode\n", "widewalk.code.embed"),
    ("import widewalk.nowhere\n", "widewalk.nowhere"),
], ids=["chain", "module-alias", "from-import", "import"])
def test_a_deleted_name_is_reported(source, missing):
    assert unresolved(package_reads(source)) == [missing]
