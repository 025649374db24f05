"""Soundness of the certified interval kernels against mpmath."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from tau3 import topology
from tau3.errors import ParameterError, PrecisionSettingError
from tau3.fourier import ft_point
from tau3.intervals import (KERNEL_MAX_BITS, IntervalValue, _cos_series,
                            cos2pi, cos2pi_interval, exp_neg, log1m,
                            precision_bits, quadratic_cos_threshold,
                            two_pi_bounds)
from tau3.invariants import FactorSpec, distinguish
from tau3.measures import MeasureExpr

mp.mp.dps = 90


def contains_mp(iv: IntervalValue, value) -> bool:
    # pad by the reference precision: enclosures are tighter than mpmath's
    # approximation of the truth
    with mp.workdps(80):
        pad = mp.mpf(10) ** -70
        lo = mp.mpf(iv.lo.numerator) / iv.lo.denominator
        hi = mp.mpf(iv.hi.numerator) / iv.hi.denominator
        return lo - pad <= value <= hi + pad


class TestCosine:
    def test_exact_rational_points(self):
        exact = {
            Fraction(0): 1, Fraction(1, 2): -1, Fraction(1, 4): 0,
            Fraction(3, 4): 0, Fraction(1, 3): Fraction(-1, 2),
            Fraction(2, 3): Fraction(-1, 2), Fraction(1, 6): Fraction(1, 2),
            Fraction(5, 6): Fraction(1, 2),
        }
        for q, val in exact.items():
            iv = cos2pi(q)
            assert iv.exact and iv.lo == val
            # periodicity and evenness reach the same table entries
            assert cos2pi(q + 7).lo == val
            assert cos2pi(-q).lo == val

    def test_random_rationals_sound_and_tight(self):
        rng = random.Random(11)
        for _ in range(250):
            q = Fraction(rng.randint(-10 ** 9, 10 ** 9),
                         rng.randint(1, 10 ** 6))
            iv = cos2pi(q)
            with mp.workdps(90):
                truth = mp.cos(2 * mp.pi * (mp.mpf(q.numerator)
                                            / q.denominator))
            assert contains_mp(iv, truth), q
            assert iv.width <= Fraction(1, 1 << 200)

    def test_series_error_fits_in_the_guard_bits(self):
        # the series error e grows with the argument, largest at r/q = 1/4,
        # and with the working scale; the guard is constant on each
        # bit-length band of the precision, so e is largest for its guard at
        # the top of a band
        for bits in (64, 127, 255, 511, 1023, 2047, 4095, 4096,
                     KERNEL_MAX_BITS):
            _, e, g = _cos_series(1, 4, bits)
            assert e < 1 << (g - 4), bits

    def test_series_beyond_its_table_raises(self):
        # twice the table's precision needs about 550 terms, not 308: the
        # series raises rather than return a short sum
        with pytest.raises(ParameterError,
                           match="bits=8800 needs more than 308 terms"):
            _cos_series(1, 4, 2 * KERNEL_MAX_BITS)

    def test_requested_bits_control_width(self):
        q = Fraction(1, 7)
        assert cos2pi(q, 128).width <= Fraction(1, 1 << 100)
        assert cos2pi(q, 384).width <= Fraction(1, 1 << 350)

    def test_interval_cosine_contains_samples(self):
        rng = random.Random(12)
        for _ in range(120):
            a = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
            b = a + Fraction(rng.randint(0, 300), 100)
            iv = cos2pi_interval(a, b)
            for j in range(5):
                x = a + (b - a) * Fraction(j, 4)
                pt = cos2pi(x)
                assert iv.lo <= pt.hi and pt.lo <= iv.hi

    def test_interval_cosine_hits_extrema(self):
        iv = cos2pi_interval(Fraction(-1, 10), Fraction(1, 10))
        assert iv.hi == 1
        iv = cos2pi_interval(Fraction(2, 5), Fraction(3, 5))
        assert iv.lo == -1
        assert cos2pi_interval(0, 2).lo == -1
        assert cos2pi_interval(0, 2).hi == 1


class TestLogExp:
    def test_log1m_sound(self):
        rng = random.Random(13)
        for _ in range(120):
            y = Fraction(rng.randint(1, 9000), 10 ** 4)
            if y > Fraction(15, 16):
                continue
            iv = log1m(y)
            with mp.workdps(90):
                truth = mp.log(1 - mp.mpf(y.numerator) / y.denominator)
            assert contains_mp(iv, truth), y
            assert iv.width <= Fraction(1, 1 << 180)

    def test_log1m_domain(self):
        with pytest.raises(ValueError):
            log1m(Fraction(99, 100))
        assert log1m(0).exact

    def test_exp_neg_sound(self):
        rng = random.Random(14)
        for _ in range(120):
            s = Fraction(rng.randint(0, 40 * 10 ** 4), 10 ** 4)
            iv = exp_neg(s)
            with mp.workdps(90):
                truth = mp.exp(-mp.mpf(s.numerator) / s.denominator)
            assert contains_mp(iv, truth), s
        assert exp_neg(0).exact and exp_neg(0).lo == 1

    def test_exp_neg_tiny_argument_tight(self):
        s = Fraction(1, 10 ** 40)
        iv = exp_neg(s)
        assert iv.lo >= 1 - Fraction(2, 10 ** 40)
        assert iv.hi <= 1


class TestIntervalValue:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            IntervalValue(Fraction(1), Fraction(0))

    def test_arithmetic_encloses(self):
        a = IntervalValue(Fraction(-1, 3), Fraction(1, 2))
        b = IntervalValue(Fraction(2), Fraction(3))
        c = a * b
        for xa in (a.lo, a.hi):
            for xb in (b.lo, b.hi):
                assert c.contains(xa * xb)
        d = a + b - b
        assert d.contains(a.lo) and d.contains(a.hi)

    def test_round_out_is_outward(self):
        a = IntervalValue(Fraction(1, 3), Fraction(2, 3))
        r = a.round_out(16)
        assert r.lo <= a.lo <= a.hi <= r.hi
        assert r.lo.denominator <= 1 << 16

    def test_scale_and_clamp(self):
        a = IntervalValue(Fraction(-2), Fraction(3))
        assert a.scale(Fraction(-1, 2)).lo == Fraction(-3, 2)
        c = a.clamp(-1, 1)
        assert (c.lo, c.hi) == (Fraction(-1), Fraction(1))

    def test_exact_point(self):
        p = IntervalValue.point(Fraction(5, 7))
        assert p.exact and p.width == 0 and p.mag_hi() == Fraction(5, 7)


class TestQuadraticBound:
    def test_certified_on_default_range(self):
        assert quadratic_cos_threshold() == Fraction(1, 8)

    def test_bound_actually_holds_numerically(self):
        omega = quadratic_cos_threshold()
        for j in range(1, 200):
            x = omega * j / 200
            lhs = mp.cos(2 * mp.pi * mp.mpf(x.numerator) / x.denominator)
            assert lhs >= 1 - 49 * float(x) ** 2 - 1e-30


class TestTwoPi:
    def test_bounds_are_the_floor_pair(self):
        with mp.workprec(4200):
            two_pi = 2 * mp.pi
            for s in range(64, 4097):
                f = int(mp.floor(two_pi * mp.mpf(2) ** s))
                assert two_pi_bounds(s) == (f, f + 1), s

    def test_cos2pi_encloses_and_narrows_at_high_precision(self):
        widths = []
        with mp.workprec(4400):
            truth = mp.cos(2 * mp.pi / 7)
            for bits in (512, 1024, 4096):
                iv = cos2pi(Fraction(1, 7), bits)
                assert mp.mpf(iv.lo.numerator) / iv.lo.denominator <= truth
                assert truth <= mp.mpf(iv.hi.numerator) / iv.hi.denominator
                widths.append(iv.width)
        assert widths[0] > widths[1] > widths[2]
        assert widths[0] < Fraction(1, 1 << 500)
        assert widths[2] < Fraction(1, 1 << 4000)


def test_precision_env(monkeypatch):
    monkeypatch.setenv("TAU3_PRECISION", "fast")
    assert precision_bits() == 128
    monkeypatch.setenv("TAU3_PRECISION", "312")
    assert precision_bits() == 312
    monkeypatch.setenv("TAU3_PRECISION", "high")
    assert precision_bits() == 512
    for edge in ("64", "4096"):
        monkeypatch.setenv("TAU3_PRECISION", edge)
        assert precision_bits() == int(edge)
    for bad in ("banana", "32", "63", "4097", "5000", "", "12.5"):
        monkeypatch.setenv("TAU3_PRECISION", bad)
        with pytest.raises(PrecisionSettingError, match="TAU3_PRECISION"):
            precision_bits()
    monkeypatch.delenv("TAU3_PRECISION")
    assert precision_bits() == 256


def entry_points_at(bits):
    """Calls of four entry points that take ``bits``, at that precision."""
    pair = MeasureExpr.symmetric_pair(Fraction(1, 3))
    other = FactorSpec("B", MeasureExpr.symmetric_pair(Fraction(1, 5)))
    seq = topology.SequenceSpec(family="explicit",
                                values=(Fraction(1), Fraction(2)))
    return {"ft_point": lambda: ft_point(pair, Fraction(1, 7), bits=bits),
            "cos2pi": lambda: cos2pi(Fraction(1, 7), bits),
            "test_sequence": lambda: topology.test_sequence(pair, seq,
                                                            bits=bits),
            "distinguish": lambda: distinguish(FactorSpec("A", pair), other,
                                               bits=bits)}


@pytest.mark.parametrize("bits", (0, 8, 63, 4097, -3))
def test_explicit_bits_outside_the_range_are_rejected(bits):
    # 0 used to fall back to TAU3_PRECISION and 8 or 5000 to run as asked
    with pytest.raises(ParameterError, match=r"outside \[64, 4096\]"):
        precision_bits(bits)
    for name, call in entry_points_at(bits).items():
        with pytest.raises(ParameterError, match=r"outside \[64, 4096\]"):
            call()
            pytest.fail(f"{name} accepted bits={bits}")


@pytest.mark.parametrize("bits", (64, 4096))
def test_explicit_bits_at_the_ends_of_the_range_are_accepted(bits,
                                                             monkeypatch):
    monkeypatch.setenv("TAU3_PRECISION", "banana")  # never read
    assert precision_bits(bits) == bits
    for call in entry_points_at(bits).values():
        call()
    assert cos2pi(Fraction(1, 7), bits).width <= Fraction(2, 1 << bits)
