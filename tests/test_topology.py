"""Convergence verdicts, the window scan, and completion classification."""

from fractions import Fraction

import pytest

from tau3.errors import (NotPointwiseEvaluable, ParameterError,
                         SymmetryViolation, TailNotCertified,
                         UndeterminedError)
from tau3.intervals import cos2pi
from tau3.measures import CoefficientSequence, MeasureExpr, scale_measure
from tau3 import topology
from tau3.topology import (CompletionKind, Conclusion, SequenceSpec,
                           cached_window_scan, classify_completion,
                           f_gap_scan, window_product)

# accessed through the module so pytest does not collect the operation
# itself as a test
run_test_sequence = topology.test_sequence

F = Fraction

# certified supremum bound of the three-factor window product, frozen from
# the deterministic default-budget scan
FROZEN_WINDOW_SUP = 0.508017853124695
FROZEN_WINDOW_GAP = 1 - FROZEN_WINDOW_SUP


def seq_factorial(lam, n_min=3, n_max=6):
    return SequenceSpec("factorial", lam=F(lam), base=3,
                        n_min=n_min, n_max=n_max)


class TestSequenceSpec:
    def test_forms(self):
        s = seq_factorial(1)
        assert s.argument(3).exponent == 6
        g = SequenceSpec("geometric", lam=F(2), n_min=1, n_max=4)
        assert g.argument(4).exponent == 4
        e = SequenceSpec("explicit", values=(F(1), F(2)))
        # an explicit family's argument is the rational itself
        assert type(e.argument(2)) is F and e.argument(2) == 2

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            SequenceSpec("explicit", values=(F(2), F(1)))
        with pytest.raises(ValueError):
            SequenceSpec("factorial", lam=F(-1), n_min=1, n_max=2)


class TestFactorialFamily:
    def test_unit_scale_converges(self, factorial_measure):
        v = run_test_sequence(factorial_measure, seq_factorial(1), F(1, 10 ** 6))
        assert v.conclusion is Conclusion.CONVERGES_TO_1
        assert v.from_index == 3
        assert v.beyond_horizon
        table = {n: iv for n, _, iv in v.per_n}
        assert table[5].lo >= 1 - F(1, 10 ** 50)

    def test_third_scale_bounded_away(self, factorial_measure):
        v = run_test_sequence(factorial_measure, seq_factorial(F(1, 3)))
        assert v.conclusion is Conclusion.BOUNDED_AWAY_FROM_1
        assert v.gap == F(1, 2)
        assert v.beyond_horizon

    def test_half_scale_undetermined(self, factorial_measure):
        v = run_test_sequence(factorial_measure, seq_factorial(F(1, 2)))
        assert v.conclusion is Conclusion.UNDETERMINED
        assert "1/2" in (v.reason or "") or "half" in (v.reason or "")

    def test_lebesgue_precondition(self, lebesgue):
        with pytest.raises(NotPointwiseEvaluable):
            run_test_sequence(lebesgue, seq_factorial(1))

    def test_scaling_sequence_duality_grid(self, factorial_measure):
        # verdicts over a rational grid: only the matching scale converges;
        # the ratio-1/2 pairs are excluded (degenerate single-factor bound)
        grid = [F(k, 20) for k in range(1, 21)]
        mismatches = []
        for lam in grid:
            scaled = scale_measure(factorial_measure, lam)
            for nu in grid:
                if nu > lam or nu / lam == F(1, 2):
                    continue
                v = run_test_sequence(scaled, seq_factorial(nu), F(1, 10 ** 6))
                converged = v.conclusion is Conclusion.CONVERGES_TO_1
                if converged != (nu == lam):
                    mismatches.append((lam, nu, v.conclusion))
        assert not mismatches

    def test_gap_certificates_hold_per_index(self, factorial_measure):
        v = run_test_sequence(factorial_measure, seq_factorial(F(1, 4)))
        assert v.conclusion is Conclusion.BOUNDED_AWAY_FROM_1
        for n, _, iv in v.per_n:
            if n >= v.from_index:
                assert iv.hi <= 1 - v.gap


class TestWindowBound:
    def test_window_values_at_exact_points(self):
        assert window_product(F(3)).lo == F(-1, 2)
        assert window_product(F(3)).exact
        assert window_product(F(3, 2)).lo == F(1, 2)
        # cos(pi/2) = 0 times two cosines that are not rational
        w = window_product(F(1, 4))
        assert (w.lo, w.hi) == (0, 0) and w.exact

    def test_scan_certifies_gap(self):
        scan = f_gap_scan()
        assert scan.sup.hi < 1
        assert abs(float(scan.sup.hi) - FROZEN_WINDOW_SUP) <= 1e-6
        assert float(scan.gap) >= FROZEN_WINDOW_GAP - 1e-6
        lo, hi = scan.peak
        assert 1 <= lo < hi <= 3

    @pytest.mark.parametrize("c", [F(1), F(3, 2), F(7, 5), F(193167, 131072),
                                   F(-22, 7), F(10 ** 9 + 1, 3 ** 7)])
    def test_window_product_is_the_interval_product(self, c):
        ref = cos2pi(c, 96) * cos2pi(c / 3, 96) * cos2pi(c / 9, 96)
        assert window_product(c, 96) == ref.clamp(-1, 1)

    # the exact result of the midpoint (second-order) scan.
    # FIRST_ORDER_SCANS holds the (sup.lo, sup.hi) that the earlier
    # first-order box-range scan certified at each of its split budgets, an
    # outer bound the scan's enclosure must lie inside.  FOUR_CHAIN_SUP_LO
    # is the sup.lo of that scan under the earlier four-chain kernel, an
    # outer bound on the first-order pin
    PINNED_SCAN = (
        F(7895279685647983731318980305317549959767384762614155196496339247283744097328061694435, 1 << 283),  # noqa: E501
        F(292852199714030611, 1 << 59),
        (F(49451903, 33554432), F(98903807, 67108864)))
    FIRST_ORDER_SCANS = {
        100: (F(126324474926935671455567535068749906593649852010696315314303236042567510694454137279485, 1 << 287),  # noqa: E501
              F(9372241520811477769, 1 << 64)),
        1500: (F(126324474970366776630886781666908910717426457209190969481711394444191294107405142932945, 1 << 287),  # noqa: E501
               F(4685637660733308669, 1 << 63)),
        3000: (F(63162237485183695004100336221746970356472330109484150317715753366974060941903429426539, 1 << 286),  # noqa: E501
               F(9371271627094437149, 1 << 64)),
    }
    FOUR_CHAIN_SUP_LO = {
        100: F(15790559365866958931945941876145111931982009255009815558505124105848770930782428350721, 1 << 284),  # noqa: E501
        1500: F(15790559371295847078860847701298991565323331503449956681629067217847326011047313972097, 1 << 284),  # noqa: E501
        3000: F(7895279685647961875512542024472681571603038542905548289460433452716934857981839098975, 1 << 283),  # noqa: E501
    }

    @pytest.mark.parametrize("budget", sorted(FIRST_ORDER_SCANS))
    def test_scan_result_is_pinned(self, budget):
        # the one scan against the old pins of each first-order budget
        sup_lo, sup_hi, peak = self.PINNED_SCAN
        assert sup_lo >= self.FOUR_CHAIN_SUP_LO[budget]
        old_lo, old_hi = self.FIRST_ORDER_SCANS[budget]
        assert old_lo <= sup_lo and sup_hi <= old_hi
        scan = f_gap_scan()
        assert scan.sup.lo == sup_lo
        assert scan.sup.hi == sup_hi
        assert scan.peak == peak
        assert not scan.sup.exact

    @pytest.mark.parametrize("cap", [100, 1500, 3000])
    def test_scan_stops_within_100_splits(self, monkeypatch, cap):
        # 16 initial boxes and two per split; the stop rule, not the
        # split cap, ends the scan, at any cap from 100 up
        monkeypatch.setattr(topology, "SCAN_SPLIT_CAP", cap)
        counted = []

        def counting(p, e, bits):
            counted.append(e)
            return box_bound(p, e, bits)

        box_bound = topology._box_bound
        monkeypatch.setattr(topology, "_box_bound", counting)
        scan = f_gap_scan()
        assert (len(counted) - 16) // 2 == scan.splits == 62
        assert scan.sup.width <= F(1, 10 ** 14)

    def test_sup_is_attained_nearby(self):
        # the certified enclosure brackets a genuine value of |window|
        scan = cached_window_scan()
        assert scan.sup.lo <= scan.sup.hi
        assert float(scan.sup.lo) > 0.5

    def test_geometric_measure_bounded_away(self, geometric):
        seq = SequenceSpec("geometric", lam=F(5), n_min=3, n_max=8)
        v = run_test_sequence(geometric, seq)
        assert v.conclusion is Conclusion.BOUNDED_AWAY_FROM_1
        assert v.beyond_horizon
        assert v.gap >= F(2, 5)  # certified window gap ~0.492

    def test_geometric_with_atoms_scaled_gap(self, geometric, half_pair):
        m2 = geometric.plus(half_pair)       # total mass 2
        seq = SequenceSpec("geometric", lam=F(5), n_min=3, n_max=8)
        v = run_test_sequence(m2, seq)
        assert v.conclusion is Conclusion.BOUNDED_AWAY_FROM_1
        assert F(1, 5) <= v.gap <= F(1, 2)

    def test_factorial_sequence_against_geometric(self, geometric):
        v = run_test_sequence(geometric, seq_factorial(1, 2, 5))
        assert v.conclusion is Conclusion.BOUNDED_AWAY_FROM_1

    @pytest.mark.parametrize("lam, n_min, calls", [
        (F(1), 2, 1),           # window indices j_n = n - 1 >= 1 throughout
        (F(1, 81), 1, 0),       # j_n = n - 5 < 1: the transform at every n
    ])
    def test_one_window_product_per_call(self, geometric, monkeypatch, lam,
                                         n_min, calls):
        counted = []

        def counting(c, bits=None):
            counted.append(c)
            return window_product(c, bits)

        monkeypatch.setattr(topology, "window_product", counting)
        seq = SequenceSpec("geometric", lam=lam, n_min=n_min, n_max=n_min + 4)
        run_test_sequence(geometric, seq)
        assert len(counted) == calls


class TestWeightSymmetry:
    @pytest.mark.parametrize("base", [3, 5])
    def test_lopsided_weights_rejected_on_every_route(self, base):
        # base 3 takes the window route, base 5 the generic per-index one;
        # a lopsided measure is refused before either route can start
        seq = SequenceSpec("geometric", base=base, n_min=3, n_max=5)
        with pytest.raises(SymmetryViolation):
            run_test_sequence(MeasureExpr(
                atoms=((F(1), F(1)), (F(-1), F(2))),
                bernoulli=CoefficientSequence("geometric", 3)), seq)


class TestRefusedEvaluation:
    def test_matched_factorial_refusal_keeps_the_uniform_bound(self):
        # factor k = n is (8/3) * (1/5) = 8/15 for every n, above omega, and
        # at n = 80 the cap leaves no later factor to start the tail; the
        # bound |FT(t_n)| <= |cos(2*pi*8/15)| needs no enclosure
        m = MeasureExpr.bernoulli_factorial(3, F(8, 3))
        v = run_test_sequence(m, seq_factorial(F(1, 5), 80, 81))
        assert v.conclusion is Conclusion.BOUNDED_AWAY_FROM_1
        assert v.per_n == ()
        assert v.from_index == 80 and v.beyond_horizon
        assert v.gap == 1 - cos2pi(F(8, 15)).mag_hi()
        assert v.reason == ("per-n ends at n=80: TailNotCertified: no "
                            "certified tail start within the first 80 "
                            "factors")

    def test_refusal_clips_the_uniform_gap_by_the_evaluated_indices(
            self, monkeypatch):
        # m = 3/8: the gap is the smaller of the analytic bound and the
        # enclosures before the refused index
        measure = MeasureExpr.bernoulli_factorial(3, F(3, 8))
        seq = seq_factorial(1, 3, 6)
        whole = run_test_sequence(measure, seq)
        calls = []
        evaluate = topology._normalized_ft

        def refuse_third(*args):
            calls.append(args)
            if len(calls) == 3:
                raise TailNotCertified("refused")
            return evaluate(*args)

        monkeypatch.setattr(topology, "_normalized_ft", refuse_third)
        v = run_test_sequence(measure, seq)
        assert v.conclusion is Conclusion.BOUNDED_AWAY_FROM_1
        assert v.per_n == whole.per_n[:2]
        assert v.reason == "per-n ends at n=5: TailNotCertified: refused"
        bound = 1 - cos2pi(F(3, 8)).mag_hi()
        assert v.gap == min([bound] + [1 - iv.hi for _, _, iv in v.per_n])
        assert v.gap >= whole.gap

    @pytest.mark.parametrize("route", ["factorial", "window", "generic"])
    def test_every_route_stops_at_the_first_refusal(self, monkeypatch, route):
        measure, seq = {
            "factorial": (MeasureExpr.bernoulli_factorial(3),
                          seq_factorial(1, 3, 6)),
            # j_n = n - 5 < 1, so the window route evaluates every index
            "window": (MeasureExpr.bernoulli_geometric(3),
                       SequenceSpec("geometric", lam=F(1, 81), n_min=1,
                                    n_max=5)),
            "generic": (MeasureExpr.symmetric_pair(1, F(1)),
                        SequenceSpec("explicit", values=(F(1), F(2), F(3)))),
        }[route]
        calls = []
        evaluate = topology._normalized_ft

        def refuse_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise TailNotCertified("refused")
            return evaluate(*args)

        monkeypatch.setattr(topology, "_normalized_ft", refuse_second)
        v = run_test_sequence(measure, seq)
        assert v.conclusion is Conclusion.UNDETERMINED
        assert [n for n, _, _ in v.per_n] == [seq.indices()[0]]
        assert v.reason == "TailNotCertified: refused"
        assert len(calls) == 2


class TestGenericSequences:
    def test_explicit_exact_convergence(self, pair):
        seq = SequenceSpec("explicit", values=(F(1), F(2), F(3), F(4)))
        v = run_test_sequence(pair, seq)
        assert v.conclusion is Conclusion.CONVERGES_TO_1
        assert all(iv.exact and iv.lo == 1 for _, _, iv in v.per_n)

    def test_explicit_bounded(self, pair):
        seq = SequenceSpec("explicit",
                           values=(F(1, 2), F(3, 2), F(5, 2), F(7, 2)))
        v = run_test_sequence(pair, seq)
        assert v.conclusion is Conclusion.BOUNDED_AWAY_FROM_1
        assert v.gap == 2

    def test_zero_measure_rejected(self):
        seq = SequenceSpec("geometric", lam=F(1), n_min=1, n_max=3)
        with pytest.raises(ParameterError, match="measure has no mass"):
            run_test_sequence(MeasureExpr(), seq)

    @pytest.mark.parametrize("tol", [F(3, 2), F(1), F(0), F(-1, 2)])
    def test_tolerance_outside_0_1_rejected(self, tol):
        # every value is exactly -1/2, which tol = 3/2 used to count as
        # within tolerance of 1
        m = MeasureExpr.symmetric_pair(F(1, 3), F(1, 2))
        seq = SequenceSpec("explicit", values=(F(1), F(2), F(4), F(5)))
        with pytest.raises(ParameterError, match=r"outside \(0, 1\)"):
            run_test_sequence(m, seq, tol)

    def test_explicit_oscillation_undetermined(self, pair):
        seq = SequenceSpec("explicit", values=(F(1, 2), F(1), F(3, 2), F(2)))
        v = run_test_sequence(pair, seq)
        assert v.conclusion is Conclusion.UNDETERMINED


class TestClassifyCompletion:
    def test_single_pair_not_hausdorff(self, pair):
        cc = classify_completion(pair)
        assert cc.kind is CompletionKind.NOT_HAUSDORFF
        assert cc.canonical_generator == 1

    def test_two_generator_compact_atomic(self):
        m = MeasureExpr.symmetric_pair(F(1, 2), F(1, 2)).plus(
            MeasureExpr.symmetric_pair(F(1, 3), F(1, 2)))
        cc = classify_completion(m)
        assert cc.kind is CompletionKind.COMPACT_ATOMIC
        assert cc.dual_generators == (F(1, 3), F(1, 2))
        assert cc.canonical_generator == F(1, 6)

    def test_factorial_family_non_locally_compact(self, factorial_measure):
        cc = classify_completion(factorial_measure)
        assert cc.kind is CompletionKind.NON_LOCALLY_COMPACT
        assert cc.witness.lam == 1
        assert cc.witness_verdict.conclusion is Conclusion.CONVERGES_TO_1

    def test_scaled_factorial_witness(self, factorial_measure):
        scaled = scale_measure(factorial_measure, F(2, 5))
        cc = classify_completion(scaled)
        assert cc.kind is CompletionKind.NON_LOCALLY_COMPACT
        assert cc.witness.lam == F(2, 5)

    def test_lebesgue_usual(self, lebesgue, pair):
        assert classify_completion(lebesgue).kind is \
            CompletionKind.USUAL_TOPOLOGY_REAL
        assert classify_completion(lebesgue.plus(pair)).kind is \
            CompletionKind.USUAL_TOPOLOGY_REAL

    def test_geometric_usual(self, geometric, half_pair):
        assert classify_completion(geometric).kind is \
            CompletionKind.USUAL_TOPOLOGY_REAL
        assert classify_completion(geometric.plus(half_pair)).kind is \
            CompletionKind.USUAL_TOPOLOGY_REAL

    def test_zero_atom_only(self):
        m = MeasureExpr(atoms=((F(0), F(1)),))
        cc = classify_completion(m)
        assert cc.kind is CompletionKind.NOT_HAUSDORFF
        assert cc.canonical_generator == 0

    def test_outside_catalog(self):
        other = MeasureExpr.bernoulli_geometric(5)
        with pytest.raises(UndeterminedError):
            classify_completion(other)
        incompatible = MeasureExpr.bernoulli_factorial(3).plus(
            MeasureExpr.symmetric_pair(F(1, 5), F(1, 2)))
        with pytest.raises(UndeterminedError):
            classify_completion(incompatible)

    def test_explicit_expands_to_atoms(self):
        from tau3.measures import CoefficientSequence
        m = MeasureExpr(bernoulli=CoefficientSequence(
            "explicit", values=(F(1, 2), F(1, 4))))
        cc = classify_completion(m)
        assert cc.kind in (CompletionKind.NOT_HAUSDORFF,
                           CompletionKind.COMPACT_ATOMIC)

    def test_explicit_beyond_the_atom_budget_undetermined(self):
        # 2**13 atoms exceed the budget; only that refusal is caught
        m = MeasureExpr(bernoulli=CoefficientSequence(
            "explicit", values=tuple(F(1, 2 ** k) for k in range(1, 14))))
        with pytest.raises(UndeterminedError) as exc:
            classify_completion(m)
        assert "depth 13" in exc.value.reason

    def test_explicit_expansion_passes_other_errors_on(self, monkeypatch):
        def broken(m):
            raise RuntimeError("not a budget refusal")

        monkeypatch.setattr(topology, "support_lattice", broken)
        m = MeasureExpr(bernoulli=CoefficientSequence(
            "explicit", values=(F(1, 2), F(1, 4))))
        with pytest.raises(RuntimeError, match="not a budget refusal"):
            classify_completion(m)

    def test_trace_is_present(self, factorial_measure):
        cc = classify_completion(factorial_measure)
        assert cc.trace
        assert any("witness" in line for line in cc.trace)
