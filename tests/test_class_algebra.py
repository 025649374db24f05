"""Measure-class calculus: convolution, series closure, relations, axioms."""

import random
from fractions import Fraction

import pytest

from tau3.class_algebra import (AxiomTable, ClassExpr, LEBESGUE_CLASS,
                                RelationKind, Support, class_from_text,
                                class_of, class_to_text, convolve, relation,
                                series_class)
from tau3.errors import SpecFormatError
from tau3.measures import MeasureExpr

F = Fraction


class TestSupport:
    def test_finite_ops(self):
        a = Support.finite([F(1), F(-1)])
        b = Support.finite([F(2)])
        assert a.sumset(b).points == (F(1), F(3))
        assert a.intersects(Support.finite([F(1)]))
        assert not a.intersects(b)
        assert Support.finite([F(1)]).subset_of(a)

    def test_lattice_ops(self):
        z = Support.lattice(F(1))
        half = Support.lattice(F(1, 2))
        assert z.subset_of(half)
        assert not half.subset_of(z)
        assert z.intersects(half)
        f = Support.finite([F(3), F(-3)])
        assert f.subset_of(z)
        assert not Support.finite([F(1, 3)]).subset_of(z)

    def test_cosets_disjoint(self):
        evens = Support.lattice(F(2))
        odds = Support.lattice(F(2), [F(1)])
        assert not evens.intersects(odds)
        assert evens.sumset(odds) == odds

    def test_group_generated(self):
        g = Support.finite([F(1, 2), F(1, 3)]).group()
        assert g.generator == F(1, 6)
        assert Support.lattice(2, [F(1, 3)]).group() == Support.lattice(
            F(1, 3))
        assert Support.finite([0]).group() == Support.finite([0])

    def test_lattice_reduces_to_its_smallest_period(self):
        # 2Z + {0, 1} is Z, and 6Z + {0, 2, 4} is 2Z: one form per set
        assert Support.lattice(2, [0, 1]) == Support.lattice(1)
        assert Support.lattice(6, [0, 2, 4]) == Support.lattice(2)
        assert Support.lattice(6, [1, 3, 5]) == Support.lattice(2, [1])
        assert Support.lattice(6, [0, 2, 3, 4]).generator == 6

    def test_same_set_in_two_forms_is_equivalent(self):
        rel = relation(ClassExpr(atoms=Support.lattice(1)),
                       ClassExpr(atoms=Support.lattice(2, [0, 1])))
        assert rel.kind is RelationKind.EQUIVALENT

    def test_inclusion_across_periods(self):
        # 3Z lies in 6Z + {0, 2, 3, 4}, whose generator is no divisor of 3
        assert Support.lattice(3).subset_of(Support.lattice(6, [0, 2, 3, 4]))
        assert not Support.lattice(3).subset_of(Support.lattice(6, [0, 2, 4]))
        assert not Support.lattice(F(1, 2)).subset_of(Support.lattice(1))
        assert Support.lattice(6, [0, 3]).subset_of(Support.lattice(3))


class TestConvolve:
    def test_atoms_convolve_pointwise(self, pair):
        c = convolve(pair, pair)
        assert c.atoms.points == (F(-2), F(0), F(2))
        assert not c.ac_lebesgue and not c.tags

    def test_lebesgue_absorbs(self, lebesgue, pair, geometric):
        c = convolve(lebesgue, pair.plus(geometric))
        assert c.ac_lebesgue
        assert c.atoms is None and not c.tags
        assert "axiom:LebesgueAbsorption" in c.provenance

    def test_singular_power_bookkeeping(self, geometric):
        c = convolve(geometric, geometric)
        assert len(c.tags) == 1
        (key, power), = c.tags[0].components
        assert power == 2
        r = relation(c, LEBESGUE_CLASS)
        assert r.kind is RelationKind.DISJOINT
        assert "axiom:SingularPowers" in r.trace

    def test_trace_names_the_rule_that_fired(self, geometric):
        power = convolve(geometric, geometric)
        assert class_to_text(power).startswith("bern[3^-k]^2")
        assert "rule:TagPower" in power.provenance
        assert "rule:TagOpaque" not in power.provenance
        opaque = convolve(series_class(geometric), geometric)
        assert opaque.tags[0].is_opaque()
        assert "rule:TagOpaque" in opaque.provenance
        assert "rule:TagPower" not in opaque.provenance

    def test_tag_translation(self, geometric, pair):
        c = convolve(geometric, pair)
        assert c.atoms is None
        assert c.tags[0].translates.points == (F(-1), F(1))

    def test_commutative_associative_random(self, pair, lebesgue):
        rng = random.Random(42)

        def rand_class():
            k = rng.randrange(6)
            if k == 0:
                return class_of(MeasureExpr.symmetric_pair(
                    F(rng.randint(1, 4), rng.randint(1, 3))))
            if k == 1:
                return class_of(lebesgue)
            if k == 2:
                return class_of(MeasureExpr.bernoulli_geometric(
                    3, F(1, rng.choice((1, 3)))))
            if k == 3:
                return class_of(MeasureExpr.bernoulli_factorial(3))
            if k == 4:
                return series_class(MeasureExpr.bernoulli_geometric(3).plus(
                    MeasureExpr.symmetric_pair(1, F(1, 2))))
            return class_of(MeasureExpr.symmetric_pair(F(1, 2), F(1, 2))
                            .plus(lebesgue))

        for i in range(200):
            x, y, z = rand_class(), rand_class(), rand_class()
            assert convolve(x, y) == convolve(y, x), i
            assert convolve(convolve(x, y), z) == convolve(x, convolve(y, z)), i

    def test_absorption_relation(self, lebesgue):
        rng = random.Random(43)
        for _ in range(30):
            e = MeasureExpr.symmetric_pair(
                F(rng.randint(1, 9), rng.randint(1, 9)),
                F(rng.randint(1, 3)))
            c = convolve(class_of(lebesgue), class_of(e))
            assert relation(c, LEBESGUE_CLASS).kind is RelationKind.EQUIVALENT


class TestSeriesClass:
    def test_atoms_plus_lebesgue(self, pair, lebesgue):
        s = series_class(pair.plus(lebesgue))
        assert s.ac_lebesgue
        assert s.atoms == Support.lattice(F(1))
        assert not s.tags
        r = relation(s, LEBESGUE_CLASS)
        assert r.kind is RelationKind.SECOND_AC_FIRST

    def test_atoms_only(self, pair):
        s = series_class(pair)
        assert s.atoms == Support.lattice(F(1))
        assert not s.ac_lebesgue and not s.tags

    def test_series_support_matches_power_supports(self, pair):
        # the lattice closure agrees with the brute-force power supports
        from tau3.measures import convolve_atoms, normalize
        acc = base = normalize(pair)
        seen = set()
        for n in range(1, 7):
            seen.update(p for p, _ in acc.atoms)
            acc = convolve_atoms(acc, base)
        s = series_class(pair)
        assert all(s.atoms.members_include(p) for p in seen)
        assert {F(0), F(1), F(-1)} <= seen

    @pytest.mark.parametrize("atoms, group", [
        (Support.lattice(2, [1]), Support.lattice(1)),      # odd integers
        (Support.lattice(3, [1]), Support.lattice(1)),
        (Support.lattice(1, [F(1, 2)]), Support.lattice(F(1, 2))),
        (Support.lattice(2, [0, F(2, 3)]), Support.lattice(F(2, 3))),
        (Support.lattice(2), Support.lattice(2)),
    ])
    def test_lattice_closes_to_the_group_it_generates(self, atoms, group):
        # the n-fold sumsets of g*Z + r are g*Z + n*r, whose union is the
        # group that g and r generate
        assert series_class(ClassExpr(atoms=atoms)).atoms == group
        powers = [atoms]
        for _ in range(5):
            powers.append(powers[-1].sumset(atoms))
        assert all(p.subset_of(group) for p in powers)
        assert any(p.members_include(group.generator) for p in powers)

    def test_geometric_plus_atoms(self, geometric, half_pair):
        s = series_class(geometric.plus(half_pair))
        assert s.atoms == Support.lattice(F(1))
        assert not s.ac_lebesgue
        tag, = s.tags
        assert tag.closed and tag.is_base3_geometric()
        assert tag.translates == Support.lattice(F(1))
        r = relation(s, LEBESGUE_CLASS)
        assert r.kind is RelationKind.DISJOINT
        assert "axiom:SingularPowers" in r.trace

    def test_monotonicity_of_powers(self, geometric, half_pair):
        a = geometric.plus(half_pair)
        s = series_class(a)
        acc = class_of(a)
        for n in range(2, 7):
            acc = convolve(acc, class_of(a))
            r = relation(acc, s)
            assert r.kind is RelationKind.FIRST_AC_SECOND, n


class TestRelation:
    def test_reflexive_equivalence(self):
        assert relation(LEBESGUE_CLASS, LEBESGUE_CLASS).kind is \
            RelationKind.EQUIVALENT

    def test_disjoint_needs_cited_rules(self, pair, geometric):
        cases = [
            (class_of(pair), LEBESGUE_CLASS),
            (class_of(geometric), LEBESGUE_CLASS),
            (class_of(geometric), class_of(pair)),
            (class_of(MeasureExpr.symmetric_pair(F(1, 3), F(1, 2))),
             class_of(MeasureExpr.symmetric_pair(F(1, 5), F(1, 2)))),
        ]
        for a, b in cases:
            r = relation(a, b)
            assert r.kind is RelationKind.DISJOINT
            assert r.trace, (a.describe(), b.describe())

    def test_disjoint_symmetric(self, geometric, pair):
        a, b = class_of(geometric), class_of(pair)
        assert relation(a, b).kind == relation(b, a).kind

    def test_atoms_in_lattice(self, pair):
        s = series_class(pair)
        r = relation(class_of(pair), s)
        assert r.kind is RelationKind.FIRST_AC_SECOND
        assert "rule:AtomSupportInclusion" in r.trace

    def test_unknown_for_mixed_families(self, geometric):
        fact = MeasureExpr.bernoulli_factorial(3)
        mixed = convolve(geometric, fact)
        assert relation(mixed, LEBESGUE_CLASS).kind is RelationKind.UNKNOWN

    def test_unknown_without_axiom(self, geometric):
        table = AxiomTable.parse(
            "AtomsVsLebesgue | countable sets are null | standard\n")
        r = relation(class_of(geometric), LEBESGUE_CLASS, table)
        assert r.kind is RelationKind.UNKNOWN

    def test_overlapping_atoms_unresolved(self):
        a = class_of(MeasureExpr.symmetric_pair(1, F(1, 2)))
        b = class_of(MeasureExpr.symmetric_pair(1, F(1, 2)).plus(
            MeasureExpr.symmetric_pair(2, F(1, 2))))
        r = relation(a, b)
        assert r.kind is RelationKind.FIRST_AC_SECOND
        r2 = relation(b, a)
        assert r2.kind is RelationKind.SECOND_AC_FIRST

    def test_factorial_tag_vs_lebesgue_unknown(self):
        fact = MeasureExpr.bernoulli_factorial(3)
        assert relation(class_of(fact), LEBESGUE_CLASS).kind is \
            RelationKind.UNKNOWN


class TestAxiomTable:
    def test_default_parses(self):
        table = AxiomTable.default()
        for name in ("SingularPowers", "LebesgueAbsorption",
                     "AtomsVsLebesgue", "BernoulliNonAtomic", "R-CORE",
                     "R-EXACT", "W-IN-LAMBDA", "TauBarFromFullCore"):
            assert table.has(name)
            axiom = table.get(name)
            assert axiom.statement and axiom.anchor

    def test_hash_is_stable_and_sensitive(self):
        t1 = AxiomTable.default()
        t2 = AxiomTable.default()
        assert t1.table_hash() == t2.table_hash()
        t3 = AxiomTable.parse(t1.serialize().replace(
            "SingularPowers", "SingularPowersX"))
        assert t3.table_hash() != t1.table_hash()

    def test_round_trip(self):
        table = AxiomTable.default()
        again = AxiomTable.parse(table.serialize())
        assert again.table_hash() == table.table_hash()

    def test_rejects_malformed(self):
        with pytest.raises(SpecFormatError):
            AxiomTable.parse("just one field\n")
        with pytest.raises(SpecFormatError):
            AxiomTable.parse("A | s | a\nA | t | b\n")

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "axioms.txt"
        p.write_text("MyAxiom | my statement | my anchor\n")
        table = AxiomTable.load(p)
        assert table.names() == ("MyAxiom",)


class TestTextForm:
    def test_round_trip(self, pair, lebesgue, geometric, half_pair):
        cases = [
            class_of(pair),
            class_of(lebesgue),
            series_class(pair.plus(lebesgue)),
            series_class(geometric.plus(half_pair)),
            convolve(geometric, geometric),
            ClassExpr(),
        ]
        for c in cases:
            text = class_to_text(c)
            assert class_from_text(text) == c.canonical(), text

    def test_provenance_not_part_of_equality(self, pair):
        a = class_of(pair)
        b = a.with_note("extra note")
        assert a == b
        assert b.provenance != a.provenance
