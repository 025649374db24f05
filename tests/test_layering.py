"""Module layering: intra-package imports point only downward.

The chain is intervals -> measures -> fourier -> topology -> class_algebra
-> invariants -> cli; each module may import ``errors`` and the modules
before it.  ``class_algebra`` and ``oracle`` are narrower, and the package
``__init__`` re-exports everything.

Outside the package only the standard library is imported, at module
level or inside a function, so no tau3 code loads a third-party module.

In ``fourier`` one constructor, ``_terms``, picks the term reader of a
sequence kind, and no other code there reads the kind; an index is reduced
only in a reader's ``__missing__``, the fill of its per-call memo.

``measures.lattice_measure`` builds every measure, the constructor's
included, is the only code that sets a measure's integer lattice and holds
the one ``raise SymmetryViolation`` in the package.  Every measure is
canonical from construction, so no module of the package calls
``normalize``, the identity kept by name.  ``oracle`` reads no ``Fraction``
atoms: ``ft_point``, ``discretize`` and ``convolve_atoms`` leave them
unbuilt.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
#: the package ``import tau3`` finds, so that a copy of src/ on PYTHONPATH,
#: such as a mutant of ``tests/mutants.py``, is the one checked
PACKAGE = Path(importlib.util.find_spec("tau3").origin).parent
CHAIN = ("intervals", "measures", "fourier", "topology", "class_algebra",
         "invariants", "cli")

ALLOWED = {name: {"errors", *CHAIN[:i]} for i, name in enumerate(CHAIN)}
ALLOWED["class_algebra"] = {"errors", "measures"}
ALLOWED["oracle"] = {"errors", "measures", "fourier"}
ALLOWED["cli"] |= {"oracle", "__init__"}
ALLOWED["errors"] = set()
ALLOWED["__init__"] = {*CHAIN, "errors", "oracle"}

MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def relative_imports(tree):
    """(module imported, node) for every ``from .x import`` in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            yield node.module or "__init__", node


def absolute_imports(tree):
    """(top-level package imported, node) for every absolute import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], node
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0], node


def test_every_module_has_a_rule():
    assert set(MODULES) == set(ALLOWED)


@pytest.mark.parametrize("module", MODULES)
def test_imports_follow_the_table(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = {name for name, _ in relative_imports(tree)}
    assert imported <= ALLOWED[module], imported - ALLOWED[module]


@pytest.mark.parametrize("module", MODULES)
def test_no_function_local_relative_imports(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    local = [f"{fn.name}: from .{name}"
             for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for name, _ in relative_imports(fn)]
    assert not local


@pytest.mark.parametrize("module", MODULES)
def test_third_party_imports_follow_the_table(module):
    # the rule outside the package: the standard library only, anywhere
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    bad = [f"line {node.lineno}: {name}"
           for name, node in absolute_imports(tree)
           if name not in sys.stdlib_module_names]
    assert not bad


@pytest.mark.parametrize("module", MODULES)
def test_no_private_names_across_modules(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    private = [f"from .{name} import {alias.name}"
               for name, node in relative_imports(tree)
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not private


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"tau3.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_only_terms_reads_the_sequence_kind():
    tree = ast.parse((PACKAGE / "fourier.py").read_text())
    terms = [fn for fn in tree.body
             if isinstance(fn, ast.FunctionDef) and fn.name == "_terms"]
    assert len(terms) == 1
    inside = {id(node) for node in ast.walk(terms[0])}
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "kind"
             or isinstance(node, ast.Name)
             and node.id in ("EXPLICIT", "FACTORIAL", "GEOMETRIC")]
    outside = [f"line {node.lineno}: {ast.unparse(node)}"
               for node in reads if id(node) not in inside]
    assert reads and not outside, outside


def test_only_the_memo_reduces_an_index():
    # arg_reduce is the public one-off reduction; every reader reduces in
    # its __missing__ alone
    tree = ast.parse((PACKAGE / "fourier.py").read_text())
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef)
              and fn.name in ("arg_reduce", "__missing__")
              for node in ast.walk(fn)}
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "_reduce"]
    outside = [f"line {node.lineno}: {ast.unparse(node)}"
               for node in calls if id(node) not in inside]
    assert calls and not outside, outside


def test_only_lattice_measure_raises_symmetry_violation():
    # one builder of canonical atoms holds the one symmetry check
    raises = []
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        owner = {id(node): fn.name for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            exc = exc.func if isinstance(exc, ast.Call) else exc
            name = getattr(exc, "id", getattr(exc, "attr", None))
            if name == "SymmetryViolation":
                raises.append((module, owner.get(id(node)), node.lineno))
    assert [r[:2] for r in raises] == [("measures", "lattice_measure")], \
        raises


def test_only_lattice_measure_sets_a_lattice():
    # every lattice comes from one builder: the constructor returns through
    # it, and only the builder makes an instance without the constructor
    tree = ast.parse((PACKAGE / "measures.py").read_text())
    owners = [fn.name for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef)
              for node in ast.walk(fn)
              if isinstance(node, ast.Call)
              and ast.unparse(node.func) == "object.__setattr__"
              and ast.unparse(node.args[1]) == "'_lattice'"]
    assert owners == ["lattice_measure"], owners
    bare = [fn.name for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and ast.unparse(node) == "object.__new__(MeasureExpr)"]
    assert bare == ["lattice_measure"], bare
    new = next(fn for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == "__new__")
    assert [ast.unparse(node.value.func) for node in ast.walk(new)
            if isinstance(node, ast.Return)] == ["lattice_measure"]


def test_no_module_calls_normalize():
    calls = [f"{module} line {node.lineno}"
             for module in MODULES
             for node in ast.walk(ast.parse(
                 (PACKAGE / f"{module}.py").read_text()))
             if isinstance(node, ast.Call)
             and ast.unparse(node.func).split(".")[-1] == "normalize"]
    assert not calls, calls


def test_oracle_reads_no_fraction_atoms():
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    reads = [f"line {node.lineno}: {ast.unparse(node)}"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "atoms"]
    assert not reads, reads


def test_integer_paths_leave_the_fraction_atoms_unbuilt():
    # ft_point, discretize and convolve_atoms read the integer lattice; a
    # measure builds its Fraction atoms only when a caller reads .atoms
    from fractions import Fraction

    from tau3.fourier import ft_point
    from tau3.measures import convolve_atoms, lattice_measure
    from tau3.oracle import discretize

    a = lattice_measure(8, 840, {-4: 210, 0: 420, 4: 210})
    b = lattice_measure(108, 8, {-27: 3, 0: 2, 27: 3})
    conv = convolve_atoms(a, b)
    for m, step in ((a, Fraction(1, 8)), (b, Fraction(1, 4)),
                    (conv, Fraction(1, 8))):
        ft_point(m, Fraction(2, 7))
        discretize(m, step)
    assert [m._atoms for m in (a, b, conv)] == [None] * 3
    half = ((Fraction(-3, 4), Fraction(3, 32)), (Fraction(-1, 2),
            Fraction(1, 16)), (Fraction(-1, 4), Fraction(9, 32)))
    assert conv.atoms == (*half, (Fraction(0), Fraction(1, 8)),
                          *((-p, w) for p, w in reversed(half)))
