"""Measure model: canonical forms, partial expansions, scaling, documents."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from tau3.errors import BudgetExceeded, SpecFormatError, SymmetryViolation
from tau3.measures import (CoefficientSequence, MeasureExpr, atom_plan,
                           bernoulli_partial, convolve_atoms,
                           dump_measure_spec, lattice_measure,
                           measure_from_dict, normalize, parse_measure_spec,
                           plan_mass, scale_measure, support_lattice)

F = Fraction


class TestNormalize:
    def test_merges_duplicates(self):
        e = MeasureExpr(atoms=((F(1), F(1)), (F(-1), F(1)),
                               (F(1), F(1)), (F(-1), F(1))))
        n = normalize(e)
        assert n.atoms == ((F(-1), F(2)), (F(1), F(2)))

    def test_lebesgue_scaling_invariant(self):
        e = scale_measure(MeasureExpr.lebesgue_measure(), 7)
        assert normalize(e) == MeasureExpr.lebesgue_measure()

    def test_reordered_sum_is_byte_identical(self):
        a = MeasureExpr(atoms=((F(2), F(1)), (F(-2), F(1)),
                               (F(1), F(3)), (F(-1), F(3))))
        b = MeasureExpr(atoms=((F(-1), F(3)), (F(1), F(3)),
                               (F(-2), F(1)), (F(2), F(1))))
        assert normalize(a) == normalize(b)
        assert normalize(a).describe() == normalize(b).describe()

    def test_symmetry_violation(self):
        with pytest.raises(SymmetryViolation):
            normalize(MeasureExpr(atoms=((F(1), F(1)),)))
        # a mirrored support is not enough: the weights must match too
        with pytest.raises(SymmetryViolation):
            normalize(MeasureExpr(atoms=((F(1), F(1)), (F(-1), F(2)))))

    def test_zero_weights_dropped(self):
        e = MeasureExpr(atoms=((F(1), F(0)), (F(-1), F(0)), (F(0), F(2))))
        assert normalize(e).atoms == ((F(0), F(2)),)

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(50):
            atoms = []
            for _ in range(rng.randint(0, 6)):
                p = F(rng.randint(0, 9), rng.randint(1, 4))
                w = F(rng.randint(1, 5))
                atoms += [(p, w), (-p, w)]
            e = scale_measure(MeasureExpr(atoms=tuple(atoms),
                                          lebesgue=rng.random() < 0.3),
                              F(rng.randint(1, 5), rng.randint(1, 5)))
            assert normalize(e) is e
            assert MeasureExpr(e.atoms, e.lebesgue, e.bernoulli) == e

    def test_fields_become_fractions_without_rewrapping(self):
        w = F(1, 2)
        e = MeasureExpr(atoms=((1, "1/2"), (-1, F(1, 2))))
        assert e.atoms == ((F(-1), F(1, 2)), (F(1), F(1, 2)))
        assert all(type(x) is Fraction for atom in e.atoms for x in atom)
        assert CoefficientSequence("geometric", 3, w).scale is w
        assert type(CoefficientSequence("geometric", 3, 2).scale) is Fraction

    def test_scale_pushed_into_components(self):
        e = MeasureExpr(atoms=((F(2), F(1)), (F(-2), F(1))))
        n = scale_measure(e, 2)
        assert n._lattice == (2, 1, ((-2, 1), (2, 1)))
        assert n.atoms == ((F(-1), F(1)), (F(1), F(1)))
        b = MeasureExpr(bernoulli=CoefficientSequence("geometric", 3))
        nb = scale_measure(b, 3)
        assert nb.bernoulli.scale == F(1, 3)

    def test_convolution_of_atomics_expands(self):
        pair = MeasureExpr.symmetric_pair(1, F(1, 2))
        cube = convolve_atoms(convolve_atoms(pair, pair), pair)
        assert normalize(cube) == cube
        assert cube.atoms == ((F(-3), F(1, 8)), (F(-1), F(3, 8)),
                              (F(1), F(3, 8)), (F(3), F(1, 8)))
        delta0 = MeasureExpr(atoms=((F(0), F(1)),))
        assert convolve_atoms(delta0, cube) == cube

    def test_support_lattice_expands_an_explicit_part(self):
        seq = CoefficientSequence("explicit", values=(F(1, 2), F(1, 3)))
        m = MeasureExpr(atoms=((F(1, 4), F(1)), (F(-1, 4), F(1))),
                        bernoulli=seq)
        den, nums = support_lattice(m)
        assert sorted(F(p, den) for p in nums) == [
            F(-5, 6), F(-1, 4), F(-1, 6), F(1, 6), F(1, 4), F(5, 6)]
        assert support_lattice(scale_measure(MeasureExpr(atoms=m.atoms),
                                             2)) == (8, [-1, 1])
        with pytest.raises(BudgetExceeded):
            support_lattice(MeasureExpr(bernoulli=CoefficientSequence(
                "explicit", values=tuple(F(1, 2 ** k) for k in range(1, 14)))))

    def test_convolution_totals_stay_in_lowest_terms(self):
        # weights 1/4, 1/2, 1/4 over 840: the fifth power's total is
        # 4**5, not 840**5
        base = lattice_measure(8, 840, {-4: 210, 0: 420, 4: 210})
        power = base
        for _ in range(4):
            power = convolve_atoms(power, base)
        den, total, pairs = power._lattice
        assert (den, total) == (8, 1024)
        assert sum(w for _, w in pairs) == 1024
        assert power.atoms[0] == (F(-20, 8), F(1, 1024))


class TestCanonicalMark:
    """Every measure is canonical from construction; normalize is the
    identity."""

    def canonical_measures(self):
        pair = normalize(MeasureExpr.symmetric_pair(F(2, 3), F(1, 2)))
        part = bernoulli_partial(CoefficientSequence("geometric", 3), 3)
        doc = {"atoms": [["1", "1"], ["-1", "1"]], "scale": "2"}
        return (pair, part, convolve_atoms(pair, part),
                measure_from_dict(doc),
                normalize(scale_measure(MeasureExpr.bernoulli_factorial(3),
                                        F(3, 8))))

    def test_canonical_argument_comes_back_unchanged(self):
        for c in self.canonical_measures():
            assert normalize(c) is c

    def test_other_arguments_keep_their_canonical_form(self):
        # unmerged atoms with a zero weight, then scaled: already canonical
        e = scale_measure(MeasureExpr(atoms=((F(2), F(1)), (F(-2), F(1)),
                                             (F(2, 3), F(0)))), 2)
        assert e._lattice == (6, 1, ((-6, 1), (6, 1)))
        assert normalize(e) is e and normalize(normalize(e)) is e

    def test_convolution_is_marked_only_for_canonical_inputs(self):
        pair = MeasureExpr.symmetric_pair(1, F(1, 2))
        rebuilt = MeasureExpr(atoms=pair.atoms)
        out = convolve_atoms(rebuilt, pair)
        assert normalize(out) is out and out == convolve_atoms(pair, pair)
        with pytest.raises(SymmetryViolation):
            convolve_atoms(MeasureExpr(atoms=((F(1), F(1)),)), pair)

    def test_lopsided_measure_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(SymmetryViolation):
                MeasureExpr(atoms=((F(1), F(1)), (F(-1), F(2))))

    def test_marked_and_unmarked_equal_measures_compare_equal(self):
        for c in self.canonical_measures():
            u = MeasureExpr(atoms=c.atoms, lebesgue=c.lebesgue,
                            bernoulli=c.bernoulli)
            assert c == u and hash(c) == hash(u)
            assert normalize(u) == c
            assert c == u and hash(c) == hash(u)

    def test_marks_make_no_reference_cycles(self):
        # refcounting alone frees acyclic objects: with the collector off,
        # a cycle through a mark or a cached plan would keep them alive
        gc.disable()
        try:
            e = MeasureExpr(atoms=((F(2), F(1)), (F(-2), F(1))))
            c = scale_measure(e, 2)
            atom_plan(e), atom_plan(c), e.atoms, c.atoms
            refs = [weakref.ref(e), weakref.ref(c)]
            del e, c
            assert all(r() is None for r in refs)
        finally:
            gc.enable()


class TestAtomPlan:
    def test_pairs_carry_twice_the_weight_over_one_denominator(self):
        e = MeasureExpr(atoms=((F(1, 2), F(1, 3)), (F(-1, 2), F(1, 3)),
                               (F(0), F(1, 4)), (F(3), F(1, 6)),
                               (F(-3), F(1, 6))))
        assert atom_plan(e) == (12, ((0, 1, 3), (1, 2, 8), (3, 1, 4)))
        assert atom_plan(e) is atom_plan(normalize(e))

    def test_no_atoms(self):
        assert atom_plan(MeasureExpr.bernoulli_geometric(3)) == (1, ())


class TestBernoulliPartial:
    def test_single_factor_geometric(self):
        seq = CoefficientSequence("geometric", 3)
        al = bernoulli_partial(seq, 1)
        assert al.atoms == ((F(-1, 3), F(1, 2)), (F(1, 3), F(1, 2)))

    def test_explicit_direct_expansion(self):
        seq = CoefficientSequence("explicit", values=(F(1, 2), F(1, 4)))
        al = bernoulli_partial(seq, 2)
        assert al.atoms == ((F(-3, 4), F(1, 4)), (F(-1, 4), F(1, 4)),
                           (F(1, 4), F(1, 4)), (F(3, 4), F(1, 4)))

    def test_lacunary_counts_and_mass(self):
        # factorial exponents blow up quickly; its depth stays small
        for seq, depth in ((CoefficientSequence("geometric", 3), 10),
                           (CoefficientSequence("factorial", 3), 6),
                           (CoefficientSequence("geometric", 5, F(2, 7)), 10)):
            al = bernoulli_partial(seq, depth)
            assert len(al.atoms) == 1 << depth
            assert plan_mass(al) == 1
            assert dict(al.atoms) == {-p: w for p, w in al.atoms}
            assert all(w == F(1, 1 << depth) for _, w in al.atoms)

    def test_budget(self):
        seq = CoefficientSequence("geometric", 3)
        with pytest.raises(BudgetExceeded):
            bernoulli_partial(seq, 13)
        bernoulli_partial(seq, 13, atom_budget=1 << 14)

    def test_colliding_coefficients_merge(self):
        # 1/2 then 1/4, 1/4 is not allowed (not strictly decreasing), but
        # sums can still collide: 1/2 - 1/4 - 1/4 would need duplicates;
        # use 3/8 and 1/8 where +3/8-1/8 == +1/8+... no collision; use
        # explicit check that masses always total 1 even with collisions
        seq = CoefficientSequence("explicit", values=(F(1, 2), F(1, 4),
                                                      F(1, 8), F(1, 16)))
        al = bernoulli_partial(seq, 4)
        assert plan_mass(al) == 1


class TestScaleMeasure:
    def test_atom_motion(self):
        e = MeasureExpr.symmetric_pair(2, F(1))
        s = normalize(scale_measure(e, 2))
        assert s.atoms == ((F(-1), F(1)), (F(1), F(1)))

    def test_identity(self):
        e = MeasureExpr.symmetric_pair(2, F(1))
        assert scale_measure(e, 1) is e

    def test_round_trip(self):
        rng = random.Random(6)
        for _ in range(40):
            p = F(rng.randint(1, 9), rng.randint(1, 9))
            e = normalize(MeasureExpr.symmetric_pair(p, F(1, 2)))
            s = F(rng.randint(1, 9), rng.randint(1, 9))
            back = normalize(scale_measure(scale_measure(e, s), 1 / s))
            assert back == e

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale_measure(MeasureExpr.symmetric_pair(1), 0)


class TestCoefficientSequence:
    def test_terms(self):
        f = CoefficientSequence("factorial", 3)
        assert f.c(1) == F(1, 3)
        assert f.c(3) == F(1, 3 ** 6)
        g = CoefficientSequence("geometric", 3, F(1, 2))
        assert g.c(2) == F(1, 18)

    def test_explicit_validation(self):
        with pytest.raises(ValueError):
            CoefficientSequence("explicit", values=(F(1, 4), F(1, 2)))
        with pytest.raises(ValueError):
            CoefficientSequence("explicit", values=())
        with pytest.raises(ValueError):
            CoefficientSequence("geometric", 1)

    def test_strictly_decreasing(self):
        for seq in (CoefficientSequence("factorial", 3),
                    CoefficientSequence("geometric", 2, F(7, 3))):
            vals = [seq.c(k) for k in range(1, 8)]
            assert all(b < a for a, b in zip(vals, vals[1:]))
            assert all(v > 0 for v in vals)


class TestConvolveAtoms:
    def test_pair_square(self):
        pair = MeasureExpr(atoms=((F(-1), F(1, 2)), (F(1), F(1, 2))))
        sq = convolve_atoms(pair, pair)
        assert sq.atoms == ((F(-2), F(1, 4)), (F(0), F(1, 2)),
                           (F(2), F(1, 4)))
        assert plan_mass(sq) == 1

    def test_rejects_components_it_would_drop(self):
        pair = MeasureExpr(atoms=((F(-1), F(1, 2)), (F(1), F(1, 2))))
        # a scaled measure is a plain atomic one and convolves as such
        assert convolve_atoms(pair, scale_measure(pair, 2)).atoms == (
            (F(-3, 2), F(1, 4)), (F(-1, 2), F(1, 4)), (F(1, 2), F(1, 4)),
            (F(3, 2), F(1, 4)))
        for other in (pair.plus(
                MeasureExpr.lebesgue_measure()), bernoulli_partial(
                CoefficientSequence("geometric", 3), 2).plus(
                MeasureExpr.bernoulli_geometric(3))):
            with pytest.raises(ValueError):
                convolve_atoms(pair, other)


class TestSpecDocuments:
    DOC = {"atoms": [["1", "1/2"], ["-1", "1/2"]], "lebesgue": False,
           "bernoulli": {"kind": "geometric", "base": 3, "scale": "1"},
           "scale": "1"}

    def test_round_trip(self):
        m = measure_from_dict(self.DOC)
        text = dump_measure_spec(m)
        again = parse_measure_spec(text)
        assert again == m

    def test_rationals_are_strings_only(self):
        bad = dict(self.DOC, atoms=[[0.5, "1/2"], ["-1/2", "1/2"]])
        with pytest.raises(SpecFormatError):
            measure_from_dict(bad)

    def test_malformed_reports_position(self):
        with pytest.raises(SpecFormatError) as err:
            parse_measure_spec('{"atoms": [[,]]}')
        assert err.value.line == 1
        assert err.value.column is not None

    def test_unknown_fields_rejected(self):
        with pytest.raises(SpecFormatError):
            measure_from_dict(dict(self.DOC, extra=1))

    def test_explicit_sequence_documents(self):
        doc = {"atoms": [], "lebesgue": False,
               "bernoulli": {"kind": "explicit",
                             "values": ["1/2", "1/4"], "scale": "1/3"},
               "scale": "1"}
        m = measure_from_dict(doc)
        assert m.bernoulli.values == (F(1, 2), F(1, 4))
        assert m.bernoulli.scale == F(1, 3)

    def test_asymmetric_rejected(self):
        doc = {"atoms": [["1", "1"]], "lebesgue": False,
               "bernoulli": None, "scale": "1"}
        with pytest.raises(SpecFormatError):
            measure_from_dict(doc)
