"""The kept mutants of ``tests/mutants.py`` still apply: every anchor occurs
exactly once in its module and every test named to kill a mutant exists.

Running the mutants takes seconds per mutant, so tier-1 only checks that
the catalogue is current; ``python tests/mutants.py`` runs it.
"""

import ast
import functools
import importlib.util
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = importlib.util.spec_from_file_location("mutants", HERE / "mutants.py")
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)

PACKAGE = mutants.ROOT / "src" / "tau3"


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_anchor_occurs_once(mutant):
    text = (PACKAGE / mutant.module).read_text()
    assert text.count(mutant.anchor) == 1
    assert mutant.replacement != mutant.anchor
    mutated = text.replace(mutant.anchor, mutant.replacement)
    ast.parse(mutated)  # a mutant is a mistake, not a syntax error


@functools.cache
def defined_tests(path: Path) -> set:
    """``Class::test`` and ``test`` names defined in a test file."""
    tree = ast.parse(path.read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names |= {f"{node.name}::{fn.name}" for fn in node.body
                      if isinstance(fn, ast.FunctionDef)}
    return names


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    assert mutant.kills
    for test_id in mutant.kills:
        path, _, name = test_id.partition("::")
        assert name in defined_tests(mutants.ROOT / path), test_id
