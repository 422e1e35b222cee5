"""Static checks on the package source, read with ast: no module imports
a name it never uses (pyflakes' F401, with no linter to install), no
exported function lacks a caller, and no top-level helper is left behind
with no reader."""

import ast
import inspect
import re
from pathlib import Path

import widewalk

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "widewalk"
PERFBENCH = PACKAGE.parents[1] / "perfbench"
# exported functions with no caller yet, each with the ROADMAP item that
# gives it one
AWAITING_A_CALLER = {
    "check_pure_walk_bounds": "item 20",
    "check_first_step_trick": "item 20",
}


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never reads: a name counts as
    read where it is loaded (an attribute's base too) or listed in
    __all__.  from __future__ imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if "__all__" in targets:
            read |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_the_unused_import_scan_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "import numpy as np\n"
        "from fractions import Fraction as F\n"
        "from typing import Optional, Sequence\n"
        "__all__ = ['Sequence']\n"
        "x: Optional[int] = np.zeros(1)\n"
        "y = os.path.join\n"
    )
    assert unused_imports(source) == ["math (line 2)", "F (line 4)"]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    found = {path.name: unused_imports(path.read_text()) for path in modules}
    assert {name: names for name, names in found.items() if names} == {}


def forged_caches(source: str) -> list[str]:
    """The places where source calls vars() or reads an attribute named
    __dict__: the ways to write a cached property's value, such as a
    graph's character table, from outside the object that builds it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vars":
            found.append((node.lineno, "vars"))
        elif isinstance(node, ast.Attribute) and node.attr == "__dict__":
            found.append((node.lineno, "__dict__"))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_the_forged_cache_scan_finds_what_it_should():
    source = (
        "vars(graph)['character_table'] = table\n"
        "x = graph.character_table\n"
        "graph.__dict__.update(character_table=table)\n"
        "names = vars\n"
    )
    assert forged_caches(source) == ["vars (line 1)", "__dict__ (line 3)"]


def test_no_module_forges_a_cached_table():
    # a character table is built only by its own graph (CayleyGraph's
    # cached property), never written into another object's dict
    found = {path.name: forged_caches(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def loaded_names(source: str) -> set[str]:
    """The names source loads, as a name or an attribute, outside the body
    of the function or class that defines each name."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name and isinstance(getattr(node, "ctx", None), ast.Load) and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return found


def test_the_loaded_name_scan_skips_the_defining_body():
    source = "def f(n):\n    return f(n - 1) + g.h\ndef g():\n    f(1)\nx = y\n"
    assert loaded_names(source) == {"f", "g", "h", "n", "y"}
    assert "f" not in loaded_names("def f(n):\n    return f(n - 1)\n")
    assert "C" not in loaded_names("class C:\n    def make(self):\n        return C()\n")


def left_behind(modules: dict[str, str], exported: set[str], bench: str) -> list[str]:
    """The top-level functions and classes of modules (file name -> source)
    that no module loads outside their own body, that exported does not
    hold and that the benchmark source bench does not name."""
    read = set().union(*map(loaded_names, modules.values()))
    defined = [(module, node.name) for module, source in modules.items()
               for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return [f"{module}: {name}" for module, name in defined
            if name not in read | exported and not re.search(rf"\b{name}\b", bench)]


def test_the_left_behind_scan_finds_what_it_should():
    modules = {
        "a.py": "def used():\n    return 1\ndef grid(n):\n    return grid(n - 1)\n"
                "class Old:\n    def copy(self):\n        return Old()\n",
        "b.py": "from .a import used\ndef public():\n    return used()\ndef timed():\n    pass\n",
    }
    assert left_behind(modules, {"public"}, "") == ["a.py: grid", "a.py: Old", "b.py: timed"]
    # the benchmark naming a helper keeps it, a longer name does not
    assert left_behind(modules, {"public"}, "ww.timed()\ngrid_old = 1\n") == ["a.py: grid", "a.py: Old"]


def test_no_helper_is_left_behind():
    # every top-level def and class of the package is read by the package
    # outside its own body, exported, or named by the benchmark: a helper
    # that only tests call is deleted with its last caller in src/
    modules = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert len(modules) >= 8
    bench = "\n".join(path.read_text() for path in sorted(PERFBENCH.glob("*.py")))
    assert left_behind(modules, set(widewalk.__all__), bench) == []


def test_every_exported_function_has_a_caller():
    # a public function stays only while the package reads it (outside its
    # own definition and the re-export in __init__.py), the benchmark names
    # it, or the ROADMAP plans its caller; a waiting entry leaves the list
    # once it has one
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            read |= loaded_names(path.read_text())
    bench = "\n".join(path.read_text() for path in sorted(PERFBENCH.glob("*.py")))
    functions = [name for name in widewalk.__all__ if inspect.isfunction(getattr(widewalk, name))]
    called = {name for name in functions if name in read or re.search(rf"\b{name}\b", bench)}
    assert sorted(set(functions) - called) == sorted(AWAITING_A_CALLER)
