"""Grid oracle: discretization, convolution, transforms, agreement suite."""

import math
import random
from fractions import Fraction

import pytest

from tau3 import oracle
from tau3.errors import (NotPointwiseEvaluable, ParameterError, RangeError,
                         SnapError, StepMismatch)
from tau3.measures import (CoefficientSequence, MeasureExpr, bernoulli_partial,
                           convolve_atoms, lattice_measure, normalize,
                           plan_mass)
from tau3.oracle import (GridMeasure, _finest_step, _random_atom_measure,
                         discretize, grid_convolve, grid_ft, oracle_suite)

F = Fraction


class TestDiscretize:
    def test_pair_on_half_grid(self, half_pair):
        g = discretize(half_pair, F(1, 2))
        assert g.step == F(1, 2)
        assert g.cells == {-2: 0.5, 2: 0.5}

    def test_triadic_snapping(self, geometric):
        g = discretize(geometric, F(1, 3 ** 9), bernoulli_depth=8)
        assert len(g.cells) == 256 and all(g.cells.values())
        assert abs(g.mass - 1.0) < 1e-12

    def test_mass_conserved(self):
        m = MeasureExpr.symmetric_pair(F(5, 4), F(3, 8)).plus(
            MeasureExpr.symmetric_pair(F(1, 2), F(1, 8)))
        g = discretize(m, F(1, 8))
        assert abs(g.mass - float(plan_mass(m))) < 1e-12

    def test_strict_snap_rejects(self, half_pair):
        with pytest.raises(SnapError):
            discretize(MeasureExpr.symmetric_pair(F(1, 3)), F(1, 2))
        g = discretize(MeasureExpr.symmetric_pair(F(1, 3)), F(1, 2),
                       strict_snap=False)
        assert abs(g.mass - 1.0) < 1e-12

    def test_lebesgue_rejected(self, lebesgue):
        with pytest.raises(NotPointwiseEvaluable):
            discretize(lebesgue, F(1, 2))

    @pytest.mark.parametrize("step", [0, F(-1, 2)])
    def test_step_must_be_positive(self, geometric, monkeypatch, step):
        # refused before the partial expansion is built
        monkeypatch.setattr(oracle, "bernoulli_lattice", None)
        with pytest.raises(ParameterError,
                           match=f"grid step must be positive, got {step}$"):
            discretize(geometric, step, bernoulli_depth=12)

    def test_depth_must_be_positive_with_a_two_point_part(self, geometric,
                                                          half_pair):
        with pytest.raises(ParameterError,
                           match="bernoulli depth must be at least 1, got 0$"):
            discretize(geometric, F(1, 9), bernoulli_depth=0)
        # an atomic measure has no expansion, so its depth is never read
        g = discretize(half_pair, F(1, 2), bernoulli_depth=0)
        assert g.cells == {-2: 0.5, 2: 0.5}

    def test_empty_measure_is_an_empty_grid(self):
        g = discretize(MeasureExpr(), F(1, 3))
        assert g.step == F(1, 3)
        assert g.cells == {} and g.mass == 0.0
        assert grid_ft(g, 1e30) == 0.0


class TestGridConvolve:
    def test_pair_square(self, half_pair):
        g = discretize(half_pair, F(1, 2))
        c = grid_convolve(g, g)
        assert c.cells == {-4: 0.25, 0: 0.5, 4: 0.25}

    def test_step_mismatch(self, half_pair):
        a = discretize(half_pair, F(1, 2))
        b = discretize(half_pair, F(1, 4))
        with pytest.raises(StepMismatch):
            grid_convolve(a, b)

    def test_identity_element(self, half_pair):
        delta0 = discretize(MeasureExpr(atoms=((F(0), F(1)),)), F(1, 2))
        g = discretize(half_pair, F(1, 2))
        c = grid_convolve(g, delta0)
        assert c.cells == g.cells

    def test_six_fold_square_matches_twelve_direct(self):
        # square of the depth-6 expansion against the full 12-factor
        # signed-sum expansion, on the grid within 1e-9
        seq = CoefficientSequence("geometric", 3)
        b6 = bernoulli_partial(seq, 6)
        g6 = discretize(b6, F(1, 3 ** 7))
        squared = grid_convolve(g6, g6)
        direct = convolve_atoms(b6, b6)
        g12 = discretize(direct, F(1, 3 ** 7))
        assert g12.cells.keys() == squared.cells.keys()
        assert max(abs(w - squared.cells[i])
                   for i, w in g12.cells.items()) < 1e-9
        # the factorial family admits the same check in exact arithmetic
        fact6 = bernoulli_partial(CoefficientSequence("factorial", 3), 6)
        sq = convolve_atoms(fact6, fact6)
        assert plan_mass(sq) == 1

    def test_mass_multiplicative(self, half_pair, geometric):
        a = discretize(half_pair, F(1, 9))
        b = discretize(geometric, F(1, 9), bernoulli_depth=2)
        c = grid_convolve(a, b)
        assert abs(c.mass - a.mass * b.mass) < 1e-9


class TestGridFt:
    def test_delta_zero(self):
        g = discretize(MeasureExpr(atoms=((F(0), F(1)),)), F(1, 2))
        for t in (0.0, 1.7, -55.3):
            assert grid_ft(g, t) == 1.0

    def test_matches_cosine_product(self, geometric):
        g = discretize(geometric, F(1, 3 ** 13), bernoulli_depth=12)
        for t in (-100 + 5 * k for k in range(41)):
            direct = 1.0
            for k in range(1, 13):
                direct *= math.cos(2 * math.pi * t / 3 ** k)
            assert abs(grid_ft(g, float(t)) - direct) < 1e-10

    def test_convolution_theorem(self, half_pair, geometric):
        a = discretize(half_pair, F(1, 9))
        b = discretize(geometric, F(1, 9), bernoulli_depth=2)
        c = grid_convolve(a, b)
        for t in (0.3, 1.9, 7.5):
            lhs = grid_ft(c, t)
            rhs = grid_ft(a, t) * grid_ft(b, t)
            assert abs(lhs - rhs) < 1e-9

    def test_range_guard(self):
        g = GridMeasure(F(1), {0: 1.0, 1: 1.0, 2: 1.0})
        with pytest.raises(RangeError):
            grid_ft(g, 1e30)

    def test_nan_t_is_rejected(self, half_pair):
        g = discretize(half_pair, F(1, 2))
        with pytest.raises(ParameterError, match="t must be finite, got nan$"):
            grid_ft(g, float("nan"))

    @pytest.mark.parametrize("t", [math.inf, -math.inf])
    def test_infinite_t_is_rejected_on_a_delta_at_zero(self, t):
        # the extent is 0, so |t| * extent is nan and passes the guard
        delta0 = discretize(MeasureExpr(atoms=((F(0), F(1)),)), F(1, 2))
        with pytest.raises(ParameterError, match="t must be finite"):
            grid_ft(delta0, t)

    def test_cosines_only_at_occupied_cells(self, monkeypatch):
        # zero-weight margins at both dense ends, two occupied cells
        cells = {-200_000: 0.0, -199_993: 0.25, -110_000: 0.75, -100_000: 0.0}
        g = GridMeasure(F(1, 4), cells)
        args = []
        cos = math.cos

        def counted(x):
            args.append(x)
            return cos(x)

        monkeypatch.setattr(math, "cos", counted)
        x = [-199_993 / 4, -110_000 / 4]
        want = 0.25 * cos(math.pi * x[0]) + 0.75 * cos(math.pi * x[1])
        assert abs(grid_ft(g, 0.5) - want) < 1e-12
        assert len(args) == 2


class TestOracleSuite:
    def test_small_deterministic_run(self):
        r1 = oracle_suite(cases=60, seed=5)
        r2 = oracle_suite(cases=60, seed=5)
        assert r1.ok, r1.failures[:4]
        assert r1.failures == r2.failures
        assert r1.containment_checked == 60
        assert r1.convolution_checked > 0

    @pytest.mark.parametrize("skew", ["weights", "points"])
    def test_delta_convolution_mismatch_is_reported(self, monkeypatch, skew):
        # the same number of cells at other weights or other points: the
        # exact check compares every cell and reports the largest difference
        real = oracle.convolve_atoms

        def skewed(a, b):
            den, total, pairs = real(a, b)._lattice
            if skew == "weights":
                return lattice_measure(den, total, {p: 2 * w for p, w in pairs})
            return lattice_measure(den, total, {2 * p: w for p, w in pairs})

        monkeypatch.setattr(oracle, "convolve_atoms", skewed)
        report = oracle_suite(cases=30, seed=5)
        assert report.atom_exact_checked > 0
        assert len(report.failures) == report.atom_exact_checked
        for failure in report.failures:
            assert "delta convolution mismatch, max diff " in failure
            assert float(failure.rpartition(" ")[2]) > 0


def fraction_atom_measure(rng, max_atoms=12, dyadic=False):
    """The atomic case generator in Fraction arithmetic, atoms merged by
    the constructor: the reference for the integer-lattice one."""
    atoms = {}
    denoms = (1, 2, 4, 8) if dyadic else (1, 2, 3, 4, 6, 9, 27)
    for _ in range(rng.randint(1, max_atoms)):
        p = Fraction(rng.randint(0, 24), rng.choice(denoms))
        w = Fraction(rng.randint(1, 8),
                     rng.choice((2, 4, 8)) if dyadic else rng.randint(1, 8))
        atoms[p] = atoms.get(p, 0) + w
        if p != 0:
            atoms[-p] = atoms.get(-p, 0) + w
    return normalize(MeasureExpr(atoms=tuple(atoms.items())))


class TestCaseGenerator:
    @pytest.mark.parametrize("max_atoms, dyadic", [(12, False), (6, True)])
    def test_draws_the_fraction_generator_cases(self, max_atoms, dyadic):
        for seed in range(200):
            ref, rng = random.Random(seed), random.Random(seed)
            want = fraction_atom_measure(ref, max_atoms, dyadic)
            got = _random_atom_measure(rng, max_atoms, dyadic)
            assert got.atoms == want.atoms, seed
            assert normalize(got) is got
            # the same draws, so every later case of a suite is the same
            assert rng.getstate() == ref.getstate()

    def test_finest_step_is_the_lcm_of_the_coefficient_denominators(self):
        rng = random.Random(3)
        for _ in range(50):
            values = sorted({F(rng.randint(1, 40), rng.randint(1, 40))
                             for _ in range(rng.randint(1, 8))}, reverse=True)
            seq = CoefficientSequence("explicit", values=values,
                                      scale=F(rng.randint(1, 9),
                                              rng.randint(1, 9)))
            den = 1
            for v in values:
                den = math.lcm(den, (v * seq.scale).denominator)
            assert _finest_step(seq) == F(1, den)
