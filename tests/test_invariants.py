"""Descriptor engine: bounds, certificates, replay, symmetry."""

import random
from fractions import Fraction

import pytest

from tau3 import invariants
from tau3.class_algebra import (AxiomTable, LEBESGUE_CLASS, RelationKind,
                                relation)
from tau3.invariants import (CERT_HEADER, FactorSpec, Verdict, distinguish,
                             replay_certificate, s_bounds)
from tau3.measures import MeasureExpr, scale_measure
from tau3.topology import CompletionKind, Conclusion

F = Fraction
run_tau_descriptor = invariants.tau_descriptor


@pytest.fixture
def m1(pair, lebesgue):
    return FactorSpec("M1", pair.plus(lebesgue))


@pytest.fixture
def m2(pair, geometric):
    return FactorSpec("M2", geometric.plus(pair))


class TestFactorSpec:
    def test_rejects_trivial(self):
        with pytest.raises(ValueError):
            FactorSpec("X", MeasureExpr())
        with pytest.raises(ValueError):
            FactorSpec("X", MeasureExpr(atoms=((F(0), F(1)),)))

    def test_normalizes_on_construction(self):
        spec = FactorSpec("X", scale_measure(MeasureExpr(
            atoms=((F(2), F(1)), (F(-2), F(1)))), 2))
        assert spec.spectral_measure.atoms == ((F(-1), F(1)), (F(1), F(1)))


class TestTauDescriptor:
    def test_usual_for_both_sides(self, m1, m2):
        assert run_tau_descriptor(m1).completion.kind is \
            CompletionKind.USUAL_TOPOLOGY_REAL
        assert run_tau_descriptor(m2).completion.kind is \
            CompletionKind.USUAL_TOPOLOGY_REAL

    def test_factorial_scaled_witness(self, factorial_measure):
        spec = FactorSpec("G", scale_measure(factorial_measure, F(3, 7)))
        td = run_tau_descriptor(spec)
        assert td.completion.kind is CompletionKind.NON_LOCALLY_COMPACT
        assert td.completion.witness.lam == F(3, 7)

    def test_outside_catalog_undetermined(self):
        spec = FactorSpec("X", MeasureExpr.bernoulli_geometric(7))
        td = run_tau_descriptor(spec)
        assert not td.determined and td.reason


class TestSBounds:
    def test_lebesgue_side(self, m1):
        sb = s_bounds(m1)
        assert sb.lower is not None
        assert relation(sb.lower, LEBESGUE_CLASS).kind is \
            RelationKind.EQUIVALENT
        assert relation(LEBESGUE_CLASS, sb.upper).kind is \
            RelationKind.FIRST_AC_SECOND
        assert sb.w_exact is not None
        assert sb.tau_bar is not None
        assert "axiom:R-CORE" in sb.rules

    def test_singular_side(self, m2):
        sb = s_bounds(m2)
        assert sb.lower is None and sb.w_exact is None
        r = relation(sb.upper, LEBESGUE_CLASS)
        assert r.kind is RelationKind.DISJOINT
        assert "axiom:SingularPowers" in r.trace

    def test_atomic_spec_has_lattice_upper(self, pair):
        sb = s_bounds(FactorSpec("A", pair))
        assert sb.lower is None
        assert sb.upper.atoms is not None
        assert not sb.upper.ac_lebesgue
        assert sb.upper.atoms.generator == 1

    def test_core_rule_never_fires_without_lebesgue(self):
        rng = random.Random(99)
        for i in range(100):
            atoms = MeasureExpr.symmetric_pair(
                F(rng.randint(1, 9), rng.randint(1, 9)),
                F(rng.randint(1, 4)))
            if rng.random() < 0.5:
                m = atoms.plus(MeasureExpr.bernoulli_geometric(
                    3, F(1, rng.choice((1, 3)))))
            else:
                m = atoms
            sb = s_bounds(FactorSpec(f"S{i}", m))
            assert sb.lower is None
            assert sb.w_exact is None
            assert "axiom:R-CORE" not in sb.rules

    def test_w_bound_inside_lebesgue_class(self, m1, pair, lebesgue):
        rng = random.Random(100)
        specs = [m1]
        for i in range(99):
            w = F(rng.randint(1, 5), rng.randint(1, 5))
            specs.append(FactorSpec(
                f"L{i}", MeasureExpr.symmetric_pair(w, F(1, 2)).plus(lebesgue)))
        for spec in specs:
            sb = s_bounds(spec)
            assert sb.w_exact is not None
            assert relation(sb.w_exact, LEBESGUE_CLASS).kind in (
                RelationKind.EQUIVALENT, RelationKind.FIRST_AC_SECOND)

    def test_exact_state_rule(self, lebesgue):
        exact = FactorSpec("E", lebesgue.plus(
            MeasureExpr(atoms=((F(0), F(1)),))))
        sb = s_bounds(exact)
        assert "axiom:R-EXACT" in sb.rules
        assert sb.lower == sb.upper
        assert sb.lower.ac_lebesgue
        assert sb.lower.atoms.points == (F(0),)

    def test_axiom_removal_disables_rule(self, m1):
        table = AxiomTable.parse(
            "AtomsVsLebesgue | countable sets are null | standard\n"
            "SingularPowers | powers singular | lacunary example\n")
        sb = s_bounds(m1, table)
        assert sb.lower is None and sb.tau_bar is None


class TestDistinguish:
    def test_separation_certificate(self, m1, m2):
        cert = distinguish(m1, m2)
        assert cert.verdict is Verdict.NOT_ISOMORPHIC
        assert cert.tau_a.completion.kind is \
            CompletionKind.USUAL_TOPOLOGY_REAL
        assert cert.tau_b.completion.kind is \
            CompletionKind.USUAL_TOPOLOGY_REAL
        cited = cert.cited_rules()
        assert "axiom:SingularPowers" in cited
        assert "axiom:R-CORE" in cited
        report = replay_certificate(cert.to_text())
        assert report.ok, report.notes

    def test_self_comparison(self, m1):
        cert = distinguish(m1, m1)
        assert cert.verdict is Verdict.INDISTINGUISHABLE

    def test_symmetry(self, m1, m2, factorial_measure):
        pairs = [
            (m1, m2),
            (m1, m1),
            (FactorSpec("Ga", factorial_measure),
             FactorSpec("Gb", scale_measure(factorial_measure, F(3, 4)))),
        ]
        for a, b in pairs:
            assert distinguish(a, b).verdict == distinguish(b, a).verdict

    def test_factorial_pair_tau_witness(self, factorial_measure):
        a = FactorSpec("Ga", factorial_measure)
        b = FactorSpec("Gb", scale_measure(factorial_measure, F(3, 4)))
        cert = distinguish(a, b)
        assert cert.verdict is Verdict.NOT_ISOMORPHIC
        assert "tau separation" in cert.reason
        assert any(ct.verdict.conclusion is Conclusion.BOUNDED_AWAY_FROM_1
                   for ct in cert.cross_tests)

    def test_half_ratio_pair_undetermined(self, factorial_measure):
        a = FactorSpec("Ga", factorial_measure)
        b = FactorSpec("Gb", scale_measure(factorial_measure, F(1, 2)))
        cert = distinguish(a, b)
        assert cert.verdict is Verdict.UNDETERMINED

    def test_atomic_generator_separation(self):
        a = FactorSpec("A1", MeasureExpr.symmetric_pair(1))
        b = FactorSpec("A2", MeasureExpr.symmetric_pair(F(1, 2)))
        cert = distinguish(a, b)
        assert cert.verdict is Verdict.NOT_ISOMORPHIC
        assert replay_certificate(cert.to_text()).ok

    def test_atomic_same_topology_indistinguishable(self):
        # different atoms generating the same lattice: descriptors agree
        a = FactorSpec("A1", MeasureExpr.symmetric_pair(1))
        b = FactorSpec("A2", MeasureExpr.symmetric_pair(1, F(1, 3)))
        cert = distinguish(a, b)
        assert cert.verdict is Verdict.INDISTINGUISHABLE

    def test_usual_vs_non_locally_compact(self, m1, factorial_measure):
        g = FactorSpec("G", factorial_measure)
        cert = distinguish(m1, g)
        assert cert.verdict is Verdict.NOT_ISOMORPHIC
        assert "tau separation" in cert.reason


class TestCertificates:
    def test_text_sections_in_order(self, m1, m2):
        text = distinguish(m1, m2).to_text()
        lines = text.splitlines()
        assert lines[0] == CERT_HEADER
        order = [lines.index(s) for s in
                 ("INPUTS", "TAU", "S-BOUNDS", "RELATIONS", "VERDICT",
                  "AXIOMS", "NOTES", "END")]
        assert order == sorted(order)
        assert any(line.startswith("AXIOM-TABLE-HASH: ") for line in lines)

    def test_deterministic(self, m1, m2):
        assert distinguish(m1, m2).to_text() == distinguish(m1, m2).to_text()

    def test_replay_detects_tampering(self, m1, m2):
        text = distinguish(m1, m2).to_text()
        tampered = text.replace("NotIsomorphic", "Indistinguishable")
        assert not replay_certificate(tampered).ok
        tampered2 = text.replace("Disjoint", "Unknown")
        assert not replay_certificate(tampered2).ok

    def test_replay_rejects_a_malformed_measure(self, m1, m2):
        text = distinguish(m1, m2).to_text()
        start = text.index("A.measure: ") + len("A.measure: ")
        end = text.index("\n", start)
        report = replay_certificate(text[:start] + '{"atoms": 5}' + text[end:])
        assert not report.ok
        assert report.notes[-1] == "replay failed: 'atoms' must be a list"

    def test_replay_rejects_other_table(self, m1, m2):
        table = AxiomTable.parse(
            "AtomsVsLebesgue | countable sets are null | standard\n")
        text = distinguish(m1, m2).to_text()
        report = replay_certificate(text, table)
        assert not report.ok

    def test_notation_note_in_footer(self, m1, m2):
        text = distinguish(m1, m2).to_text()
        assert "state-intersection invariant" in text
        assert "only containment" in text

    def test_axioms_listed_with_anchors(self, m1, m2):
        cert = distinguish(m1, m2)
        names = [a[0] for a in cert.axioms]
        assert "SingularPowers" in names and "R-CORE" in names
        for _, statement, anchor in cert.axioms:
            assert statement and anchor
