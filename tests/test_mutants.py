"""The mutant list in mutants.py stays current: each old text occurs
exactly once in src/, in the file named, and each killer is a test that
exists.  Running the mutants themselves is opt-in (see mutants.py)."""

import ast

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant_applies_to_one_place_in_src(name):
    mutant = MUTANTS[name]
    texts = {path: path.read_text() for path in sorted((ROOT / "src").rglob("*.py"))}
    places = [path for path, text in texts.items() for _ in range(text.count(mutant.old))]
    assert places == [ROOT / mutant.path], name
    assert mutant.new != mutant.old, name
    path, test = mutant.killer.split("::")
    tree = ast.parse((ROOT / path).read_text())
    assert test in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, name
