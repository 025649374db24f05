"""The value contract shared by every value class that ``tau3`` exports.

Each case builds one instance twice and names its fields in constructor
order.  Values are immutable, equal instances hash equal, ``repr`` names
the class and every field, the constructor takes the fields by position
and by keyword, copies compare equal and values can be weakly referenced.
Fields that carry provenance (``ClassExpr.provenance``,
``CompletionClass.witness_verdict`` and ``CompletionClass.trace``) stay out
of equality and hashing.  ``MeasureExpr.atoms``, built from an integer
lattice when first read, keeps the same contract.
"""

import copy
import inspect
import pickle
import weakref
from fractions import Fraction

import pytest

import tau3
from tau3 import (Axiom, Certificate, ClassExpr, CoefficientSequence,
                  CompletionClass, CompletionKind, Conclusion,
                  ConvergenceVerdict, FactorSpec, GridMeasure,
                  IntervalValue, LEBESGUE_CLASS, MeasureExpr, Relation,
                  RelationKind, SBounds, ScaledPower, SequenceSpec,
                  SingularTag, Support, TauDescriptor, distinguish)
from tau3.errors import Value
from tau3.measures import lattice_measure

F = Fraction

GEO = CoefficientSequence("geometric", 3, F(1, 2))
SEQ = SequenceSpec("factorial", F(2, 3), 3, 1, 4)
VERDICT = ConvergenceVerdict(((1, "3^1", IntervalValue(F(1, 4), F(1, 2))),),
                             Conclusion.UNDETERMINED, reason="short")


def certificate():
    return distinguish(FactorSpec("A", MeasureExpr.symmetric_pair(1)),
                       FactorSpec("B", MeasureExpr.symmetric_pair(F(1, 2))))


#: class -> (factory, field names in constructor order, hashable)
CASES = {
    IntervalValue: (lambda: IntervalValue(F(1, 3), F(1, 2)),
                    ("lo", "hi"), True),
    CoefficientSequence: (lambda: CoefficientSequence(
        "explicit", values=(F(1, 2), F(1, 5))),
        ("kind", "base", "scale", "values"), True),
    MeasureExpr: (lambda: MeasureExpr(((F(-1), F(1, 2)), (F(1), F(1, 2))),
                                      False, GEO),
                  ("atoms", "lebesgue", "bernoulli"), True),
    ScaledPower: (lambda: ScaledPower(F(1, 2), 3, 5),
                  ("scale", "base", "exponent"), True),
    SequenceSpec: (lambda: SequenceSpec("geometric", F(1, 2), 3, 2, 5),
                   ("family", "lam", "base", "n_min", "n_max", "values"),
                   True),
    ConvergenceVerdict: (lambda: ConvergenceVerdict(
        ((2, "9", IntervalValue(F(0), F(1, 4))),),
        Conclusion.BOUNDED_AWAY_FROM_1, F(1, 2), 2, "gap", True, "claim"),
        ("per_n", "conclusion", "gap", "from_index", "reason",
         "beyond_horizon", "claim"), True),
    CompletionClass: (lambda: CompletionClass(
        CompletionKind.NON_LOCALLY_COMPACT, (), None, SEQ, VERDICT, ("step",)),
        ("kind", "dual_generators", "canonical_generator", "witness",
         "witness_verdict", "trace"), True),
    Support: (lambda: Support.lattice(F(1, 2), (F(0), F(1, 4))),
              ("den", "period", "residues"), True),
    SingularTag: (lambda: SingularTag(((GEO.key(), 2),), False, (),
                                      Support.finite([0, 1])),
                  ("components", "closed", "opaque", "translates"), True),
    Axiom: (lambda: Axiom("rule", "statement", "anchor"),
            ("name", "statement", "anchor"), True),
    ClassExpr: (lambda: ClassExpr(Support.finite([1]), True, (),
                                  ("note",)),
                ("atoms", "ac_lebesgue", "tags", "provenance"), True),
    Relation: (lambda: Relation(RelationKind.DISJOINT, ("rule",)),
               ("kind", "trace"), True),
    FactorSpec: (lambda: FactorSpec("M", MeasureExpr.symmetric_pair(1)),
                 ("label", "spectral_measure"), True),
    TauDescriptor: (lambda: TauDescriptor(None, "outside the catalog"),
                    ("completion", "reason"), True),
    SBounds: (lambda: SBounds(None, LEBESGUE_CLASS, None, "tau", ("rule",)),
              ("lower", "upper", "w_exact", "tau_bar", "rules"), True),
    Certificate: (certificate,
                  ("label_a", "label_b", "measure_a", "measure_b", "tau_a",
                   "tau_b", "sb_a", "sb_b", "relations", "cross_tests",
                   "verdict", "reason", "table_hash", "axioms", "notes"),
                  False),
    # the cells are a dict, which compares by value but does not hash
    GridMeasure: (lambda: GridMeasure(F(1, 4), {-2: 0.5, 2: 0.5}),
                  ("step", "cells"), False),
}

#: class -> a second instance differing only in fields outside equality
UNCOMPARED = {
    ClassExpr: lambda: ClassExpr(Support.finite([1]), True, (), ("other",)),
    CompletionClass: lambda: CompletionClass(
        CompletionKind.NON_LOCALLY_COMPACT, (), None, SEQ),
}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_value_contract(cls):
    make, fields, hashable = CASES[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert weakref.ref(a)() is a

    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)

    text = repr(a)
    assert text.startswith(f"{cls.__name__}(")
    if cls is not IntervalValue:    # which keeps its own compact repr
        assert [n for n in fields if f"{n}=" in text] == list(fields)

    values = [getattr(a, n) for n in fields]
    rebuilt = [cls(*values), cls(**dict(zip(fields, values))),
               copy.copy(a), copy.deepcopy(a)]
    assert list(inspect.signature(cls).parameters) == list(fields)
    assert a == b and not a != b
    assert all(r == a for r in rebuilt)
    assert a != object()
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b, *rebuilt}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)
    if cls in UNCOMPARED:
        other = UNCOMPARED[cls]()
        assert repr(other) != repr(a)
        assert other == a and hash(other) == hash(a)


def test_lazily_built_atoms_behave_like_constructed_ones():
    """A canonical measure builds its ``atoms`` from its integer lattice
    when first read; every reader of the field sees the same value."""
    built = MeasureExpr(((F(-1, 2), F(1, 3)), (F(0), F(1, 3)),
                         (F(1, 2), F(1, 3))))

    def lazy():     # den 4 and total 6 are not in lowest terms
        m = lattice_measure(4, 6, {-2: 2, 0: 2, 2: 2})
        assert m._atoms is None
        return m

    def pickled(m):
        return pickle.loads(pickle.dumps(m))

    for copied in (lambda m: m, copy.copy, copy.deepcopy, pickled,
                   lambda m: m.replace(lebesgue=False)):
        assert copied(lazy()) == built and built == copied(lazy())
        assert hash(copied(lazy())) == hash(built)
        assert repr(copied(lazy())) == repr(built)
    assert lazy().atoms == built.atoms


def test_every_exported_value_class_is_covered():
    exported = {obj for obj in vars(tau3).values()
                if isinstance(obj, type) and issubclass(obj, Value)}
    assert exported == set(CASES)
