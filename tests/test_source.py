"""Static checks on the package source, read with ast: no module imports
a name it never uses (pyflakes' F401, with no linter to install)."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "widewalk"


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
