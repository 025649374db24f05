"""Certified transform evaluation: argument reduction, tails, enclosures."""

import fractions
import random
import sys
import tracemalloc
from fractions import Fraction
from math import factorial
from unittest import mock

import mpmath as mp
import pytest

from tau3 import fourier
from tau3.errors import (NotPointwiseEvaluable, ParameterError,
                         TailNotCertified, UnsupportedArgument)
from tau3.fourier import (ExactRational, ReducedExact, ReducedSmall,
                          ScaledPower, arg_reduce, choose_cutoff, ft_point,
                          tail_bound)
from tau3.intervals import KERNEL_MAX_BITS, MAX_BITS
from tau3.measures import (CoefficientSequence, MeasureExpr,
                           bernoulli_partial, convolve_atoms, normalize,
                           scale_measure)

F = Fraction
mp.mp.dps = 60

FACT = CoefficientSequence("factorial", 3)
GEO = CoefficientSequence("geometric", 3)


def mp_of(fr: Fraction):
    return mp.mpf(fr.numerator) / fr.denominator


def contains(iv, value, pad=None) -> bool:
    # default padding sits at the reference precision, far above the
    # enclosure widths under test
    if pad is None:
        pad = mp.mpf(10) ** -50
    return (mp_of(iv.lo) - pad <= value <= mp_of(iv.hi) + pad)


class TestArgReduce:
    def test_integer_argument_head(self):
        # factors k <= n at t = 3^(n!) have integer arguments
        for n in (3, 5):
            t = ScaledPower(F(1), 3, factorial(n))
            for k in range(1, n + 1):
                r = arg_reduce(FACT.term(k), t)
                assert isinstance(r, ReducedExact) and F(r.num, r.den) == 0

    def test_plain_rationals(self):
        r = arg_reduce(F(1, 3), ExactRational(F(3, 4)))
        assert isinstance(r, ReducedExact)
        assert F(r.num, r.den) == F(1, 4) and r.is_value

    def test_beyond_exponent_is_unexpanded(self):
        t = ScaledPower(F(1), 3, factorial(5))
        # within the materialization budget the value itself, 3**-600
        r = arg_reduce(FACT.term(6), t)
        assert isinstance(r, ReducedExact) and r.is_value
        assert F(r.num, r.den) == F(1, 3 ** (factorial(6) - factorial(5)))
        # beyond it, 3**-40200 unexpanded
        r = arg_reduce(FACT.term(8), t)
        assert isinstance(r, ReducedSmall)
        assert (r.base, r.neg_exp) == (3, factorial(8) - factorial(5))
        # 1/q is the least power of two >= 3**-40200: q <= 3**40200 < 2q
        one, q = r.dyadic_upper(-100000)
        assert one == 1 and q <= 3 ** 40200 < 2 * q

    def test_huge_exponents_never_materialize(self):
        t = ScaledPower(F(1), 3, factorial(8))
        r = arg_reduce(FACT.term(9), t)
        assert isinstance(r, ReducedSmall)
        # 3**-322560 < 2**-100001, settled without expanding the power
        assert r.dyadic_upper(-100001) == (1, 1 << 100001)

    def test_dyadic_upper_at_the_boundary_of_the_short_test(self):
        # 1 - 39 * (131.bit_length() - 1) = -272 is not below the floor, so
        # the power is expanded: 131**-39 < 2**-274, clamped to the floor
        r = ReducedSmall(1, 1, 131, 39)
        assert r.dyadic_upper(-272) == (1, 1 << 272)
        assert r.dyadic_upper(-300) == (1, 1 << 274)
        assert 1 << 274 <= 131 ** 39 < 1 << 275

    def test_fractional_via_modular_exponentiation(self):
        # (2/5) * 3^4 = 162/5: fractional part 2/5
        r = arg_reduce(F(1), ScaledPower(F(2, 5), 3, 4))
        assert isinstance(r, ReducedExact) and F(r.num, r.den) == F(2, 5)
        # same through a coefficient with matching base
        r = arg_reduce(GEO.term(2), ScaledPower(F(2, 5), 3, 6))
        assert F(r.num, r.den) == (F(2, 5) * 81) % 1

    def test_mixed_bases(self):
        seq2 = CoefficientSequence("geometric", 2)
        r = arg_reduce(seq2.term(3), ScaledPower(F(1), 3, 5))
        assert isinstance(r, ReducedExact)
        assert F(r.num, r.den) == (F(1, 8) * 243) % 1
        big2 = CoefficientSequence("factorial", 2)
        with pytest.raises(UnsupportedArgument):
            arg_reduce(big2.term(9), ScaledPower(F(1), 3, factorial(9)))

    def test_negative_arguments_fold(self):
        r = arg_reduce(F(1, 3), ExactRational(F(-3, 4)))
        assert F(r.num, r.den) == F(1, 4)


class TestHugeExponents:
    """(1/3) * 3**(n!) over the base-3 factorial measure: factor k = n is
    cos(2*pi/3) = -1/2 and every factor beyond it is held unexpanded."""

    @staticmethod
    def evaluate(n, bits):
        return ft_point(MeasureExpr.bernoulli_factorial(3),
                        ScaledPower(F(1, 3), 3, factorial(n)), bits=bits)

    @pytest.mark.parametrize("n", (8, 9))
    @pytest.mark.parametrize("bits", (128, 256, 384))
    def test_enclosures_as_recorded(self, n, bits):
        # [-1/2, -1/2 + 2**-(bits-4)] was recorded when the tail bound still
        # built 2**e in full, under the four-chain cosine kernel, and
        # [-1/2, -1/2 + 15 * 2**-bits] under the log-space tail; the
        # fixed-point tail product's enclosure lies inside both
        iv = self.evaluate(n, bits)
        assert F(-1, 2) <= iv.lo <= iv.hi <= F(-1, 2) + F(15, 1 << bits)
        assert (iv.lo, iv.hi, iv.exact) == (
            F(-1, 2), F(-1, 2) + F(2, 1 << bits), False)

    @pytest.mark.parametrize("n", range(10, 21))
    def test_memory_does_not_grow_with_the_exponent(self, n):
        for bits in (128, 256, 384):
            tracemalloc.start()
            try:
                iv = self.evaluate(n, bits)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert iv.contains(F(-1, 2))
            assert iv.width <= F(1, 1 << (bits - 4))
            assert peak < 1 << 20


class TestTailBound:
    def test_zero_argument(self):
        assert tail_bound(GEO, 4, ExactRational(F(0))).exact

    def test_factorial_tail_certificate(self):
        # lower bound for the product over k > 5 at t = 3^(5!)
        tb = tail_bound(FACT, 5, ScaledPower(F(1), 3, factorial(5)))
        assert tb.hi == 1
        assert tb.lo >= 1 - F(1, 10 ** 50)

    def test_agrees_with_direct_product_oracle(self):
        # choose the cutoff so the next reduced argument is below 1e-3
        t = ExactRational(F(1))
        cutoff = 7      # 3^-7 < 1e-3
        tb = tail_bound(GEO, cutoff, t)
        prod = F(1)
        for k in range(cutoff + 1, cutoff + 61):
            x = F(1, 3 ** k)
            prod *= 1 - 49 * x * x
        assert tb.lo <= prod
        assert prod - tb.lo <= F(1, 10 ** 9)

    def test_unexpanded_factor_with_a_long_mantissa(self):
        # factor 8193 is exactly 1/1024 but held unexpanded: a lower bound
        # on log2(12) off by 0.0016 bits per unit of neg_exp refused it
        seq = CoefficientSequence("geometric", 12)
        tb = tail_bound(seq, 8192, F(12 ** 8193, 1024), 64)
        assert tb.hi == 1 and 1 - tb.lo < F(1, 1000)

    def test_not_certified_when_arguments_stay_large(self):
        # the first factor reduces to 1/3, above the certified threshold
        with pytest.raises(TailNotCertified):
            tail_bound(GEO, 0, ExactRational(F(1)))

    def test_explicit_tail_is_direct_product(self):
        seq = CoefficientSequence("explicit", values=(F(1, 2), F(1, 4),
                                                      F(1, 8)))
        tb = tail_bound(seq, 3, ExactRational(F(7, 3)))
        assert tb.exact and tb.lo == 1
        tb2 = tail_bound(seq, 2, ExactRational(F(1)))
        truth = mp.cos(2 * mp.pi / 8)
        assert contains(tb2, truth)

    def test_explicit_tail_keeps_exact_products_exact(self):
        # c_k * t = 200 - k + 1/3 reduces to 1/3 for all 90 factors,
        # so the product is (-1/2)**90; the tail holds 85 of them, more
        # than the 64 bits of the grid, and stays exact
        seq = CoefficientSequence("explicit", values=[
            F(3 * (200 - k) + 1, 3000) for k in range(90)])
        tb = tail_bound(seq, 5, ExactRational(F(1000)), bits=64)
        assert tb.exact and tb.lo == -F(1, 2 ** 85)
        iv = ft_point(MeasureExpr(bernoulli=seq), 1000, tail_cutoff=5,
                      bits=64)
        assert iv.exact and iv.lo == F(1, 2 ** 90)
        # rounding each exact product onto 2**-64 gave [0, 2**-64]
        assert 0 < iv.lo < F(1, 2 ** 64)


class TestChooseCutoff:
    def test_geometric_moderate(self):
        k = choose_cutoff(GEO, ExactRational(F(10)))
        assert 3 <= k <= 40
        tb = tail_bound(GEO, k, ExactRational(F(10)))
        assert 1 - tb.lo < F(1, 10 ** 25)

    def test_explicit_is_full_length(self):
        seq = CoefficientSequence("explicit", values=(F(1, 2), F(1, 4)))
        assert choose_cutoff(seq, ExactRational(F(3))) == 2


@pytest.mark.parametrize("m", [
    MeasureExpr.bernoulli_geometric(3), MeasureExpr.bernoulli_geometric(20),
    MeasureExpr.bernoulli_factorial(3),
    MeasureExpr(bernoulli=CoefficientSequence("explicit",
                                              values=(F(1, 2), F(1, 5))))])
def test_negative_cutoff_raises(m):
    # one check at the entry of each, before any factor is reduced
    with mock.patch.object(fourier, "_reduce", side_effect=AssertionError):
        with pytest.raises(ParameterError, match="tail cutoff -1 is negative"):
            ft_point(m, F(1, 3), tail_cutoff=-1)
        with pytest.raises(ParameterError, match="tail cutoff -1 is negative"):
            tail_bound(m.bernoulli, -1, F(1, 3))


class TestOneReductionPerFactor:
    """``ft_point`` reduces each c_k * t at most once: one reader gives the
    cutoff, the head and the tail.  A factorial head takes the reductions of
    the cutoff walk and the tail goes on from there.  The geometric cutoff
    reduces nothing in the value regime c_k * t = p / (q * b**(k - e)),
    which it steps through with one integer per index, and the tail reads
    that regime without reducing either; a geometric chain head reduces
    only its exact prefix, its block tops and the index that ends the
    prefix."""

    @pytest.mark.parametrize("m", [
        MeasureExpr.bernoulli_geometric(3), MeasureExpr.bernoulli_factorial(3),
        MeasureExpr(bernoulli=CoefficientSequence(
            "explicit", values=(F(1, 2), F(1, 5), F(1, 7))))],
        ids=["geometric", "factorial", "explicit"])
    def test_one_reader_per_call(self, m):
        with mock.patch.object(fourier, "_terms", wraps=fourier._terms) as \
                terms, mock.patch.object(fourier, "tail_bound",
                                         side_effect=AssertionError):
            ft_point(m, F(7, 5))
        assert terms.call_count == 1

    @staticmethod
    def reduced_exponents(m, t, tail_cutoff, bits=None) -> list:
        """The exponents of the c_k that ``ft_point`` reduces, in order."""
        exponents, reduce = [], fourier._reduce

        def counting(fold, c_base, c_exp):
            exponents.append(c_exp)
            return reduce(fold, c_base, c_exp)

        with mock.patch.object(fourier, "_reduce", counting):
            ft_point(m, t, tail_cutoff=tail_cutoff, bits=bits)
        return exponents

    @pytest.mark.parametrize("m, t", [
        (MeasureExpr.bernoulli_geometric(3).plus(
            MeasureExpr.symmetric_pair(F(1, 3), F(1, 2))), F(10)),
        (MeasureExpr.bernoulli_geometric(3).plus(
            MeasureExpr.symmetric_pair(1, F(1, 4))), F(7, 5)),
        (MeasureExpr.bernoulli_geometric(3).plus(
            MeasureExpr.symmetric_pair(F(2, 9), 1)),
         ScaledPower(F(1, 3), 3, 40)),
        (MeasureExpr.bernoulli_factorial(3), ScaledPower(F(1), 3, 120)),
        (MeasureExpr.bernoulli_factorial(3), ScaledPower(F(1, 3), 3, 24)),
        (MeasureExpr.bernoulli_factorial(3), F(5, 2)),
    ], ids=["geo-atoms-10", "geo-atoms-7/5", "geo-atoms-power",
            "fact-5!", "fact-third-4!", "fact-5/2"])
    def test_each_index_is_reduced_once(self, m, t):
        terms = self.reduced_exponents(m, t, None)
        seq = normalize(m).bernoulli
        cutoff = choose_cutoff(seq, t)
        if seq.kind == "factorial":
            # the calls are c_1 .. c_K in order, K the tail's last index
            assert len(terms) > cutoff
            assert terms == [seq.exponent(k)
                             for k in range(1, len(terms) + 1)]
            return
        assert len(set(terms)) == len(terms)
        _, j = fourier._niven_prefix(arg_reduce(seq.term(k), t)
                                     for k in range(1, cutoff + 1))
        head = [k for k in terms if k <= cutoff]
        block = fourier.CHAIN_BLOCK + 1
        assert len(head) <= j + -(-(cutoff - j) // block) + 1

    @pytest.mark.parametrize("m, t, tail_cutoff", [
        (MeasureExpr.bernoulli_factorial(3),
         ScaledPower(F(1, 5), 3, factorial(5)), None),
        (MeasureExpr.bernoulli_factorial(3), F(7, 5), None),
        (MeasureExpr.bernoulli_geometric(13), F(7, 5), 30),
        (MeasureExpr(bernoulli=CoefficientSequence(
            "explicit", values=(F(1, 2), F(1, 5), F(1, 7), F(1, 11)))),
         F(7, 5), 2),
    ], ids=["fact-5!", "fact-7/5", "geo13-factor-loop", "explicit-cut"])
    def test_no_reduction_repeats(self, m, t, tail_cutoff):
        # whole argument tuples: an explicit list reduces (None, 0) at
        # every index, so its exponents alone would repeat
        with mock.patch.object(fourier, "_reduce",
                               wraps=fourier._reduce) as reduce:
            ft_point(m, t, tail_cutoff=tail_cutoff)
        calls = [c.args for c in reduce.call_args_list]
        assert calls and len(set(calls)) == len(calls)

    def test_explicit_reader_ends_at_its_list(self):
        # a cutoff beyond the list cuts nothing: the head is the whole list
        # and the tail the empty product
        seq = CoefficientSequence("explicit", values=(F(1, 2), F(1, 5),
                                                      F(1, 7)))
        terms = fourier._terms(seq, ExactRational(F(7, 5)))
        assert terms.head(5, 64) == terms.head(3, 64)
        assert terms.tail(5, 64) == (1, 1, 0)

    def test_a_long_head_reads_its_block_tops(self):
        # 3,000 head factors: 178 reductions, the factor ending the (empty)
        # exact prefix and the 177 block tops; the tail is in the value
        # regime
        terms = self.reduced_exponents(MeasureExpr.bernoulli_geometric(3),
                                       F(37, 11), 3000, bits=256)
        assert len(set(terms)) == len(terms) <= 180

    @staticmethod
    def fraction_constructions(f, *args, **kwargs) -> int:
        """How many ``Fraction`` objects f(*args, **kwargs) builds."""
        made = 0

        def profile(frame, event, arg):
            nonlocal made
            code = frame.f_code
            if (event == "call" and code.co_filename == fractions.__file__
                    and code.co_name in ("__new__", "_from_coprime_ints")):
                made += 1

        sys.setprofile(profile)
        try:
            f(*args, **kwargs)
        finally:
            sys.setprofile(None)
        return made

    def test_no_fraction_per_factor(self):
        # 10 or 60 head factors, and a tail from there: the reductions, the
        # products and the tail are integers, so the count is per call only
        m = normalize(MeasureExpr.bernoulli_geometric(3))
        ft_point(m, F(7, 5))        # fills the atom plan and kernel caches
        assert (self.fraction_constructions(ft_point, m, F(7, 5),
                                            tail_cutoff=10)
                == self.fraction_constructions(ft_point, m, F(7, 5),
                                               tail_cutoff=60))

    @pytest.mark.parametrize("t", [F(7, 5), F(-37, 11),
                                   ScaledPower(F(2, 3), 3, 20)])
    def test_only_the_two_ends_are_fractions(self, t):
        # the argument is kept, |c * t| and the mass are integer pairs
        m = MeasureExpr.bernoulli_geometric(3).plus(
            MeasureExpr.symmetric_pair(F(1, 3), F(1, 4)))
        ft_point(m, t)              # fills the atom plan and kernel caches
        assert self.fraction_constructions(ft_point, m, t) == 2


class TestGeometricChain:
    """A geometric head makes one kernel call per block of CHAIN_BLOCK + 1
    factors, all at one working precision, whatever its length."""

    @staticmethod
    def kernel_precisions(monkeypatch, *args, **kwargs):
        seen, kernel = [], fourier.cos2pi_fixed

        def recording(p, q, bits):
            seen.append(bits)
            return kernel(p, q, bits)

        monkeypatch.setattr(fourier, "cos2pi_fixed", recording)
        iv = ft_point(*args, **kwargs)
        monkeypatch.undo()
        return iv, seen

    @pytest.mark.parametrize("cutoff", [2, 17, 18, 30, 300])
    def test_precision_is_bounded_for_any_head(self, monkeypatch, cutoff):
        m = MeasureExpr.bernoulli_geometric(3)
        iv, seen = self.kernel_precisions(monkeypatch, m, F(37, 11),
                                          tail_cutoff=cutoff, bits=256)
        w = 256 + fourier.CHAIN_BLOCK * 4 + fourier.CHAIN_GUARD
        assert seen == [w] * -(-cutoff // (fourier.CHAIN_BLOCK + 1))
        if cutoff == 300:       # the tail is negligible there
            assert iv.width <= F(1, 1 << 250)

    def test_kernel_serves_every_chain_precision(self):
        for b in range(2, fourier.CHAIN_MAX_BASE + 1):
            w = fourier._chain_product([], 0, b, MAX_BITS)[2]
            assert w <= KERNEL_MAX_BITS, b

    def test_exact_prefix_is_one_integer(self):
        # c_k * t = 2**(70-k)/3: the first 71 factors are exact
        seq, t = CoefficientSequence("geometric", 2), F(2 ** 70, 3)
        terms = fourier._terms(seq, ExactRational(t))
        lo, hi, s = terms.head(71, 64)
        assert lo == hi and s == 71 and F(lo, 1 << s) == F(1, 1 << 71)
        lo, hi, s = terms.head(75, 64)
        old_lo, old_hi, old_s = fourier._factor_product(terms.reduced(75), 64)
        assert lo < hi
        assert F(old_lo, 1 << old_s) <= F(lo, 1 << s) <= F(hi, 1 << s)
        assert F(hi, 1 << s) <= F(old_hi, 1 << old_s)

    def test_refuses_what_the_factor_loop_refuses(self):
        # c_k * t = 8**(m - k): factors 1 .. m-1 are exact integers, and m
        # is the first beyond the materialization budget, unexpanded with a
        # value of 1; factor m + 1, the chain's only block top, is
        # unexpanded too but small (log2(8) is exact, so both bounds are
        # tight)
        b = 8
        m = fourier.MATERIALIZE_BITS // b.bit_length() + 1
        terms = fourier._terms(CoefficientSequence("geometric", b),
                               ExactRational(F(b) ** m))
        factors = terms.reduced(m + 1)
        assert all(isinstance(r, ReducedSmall) for r in factors[m - 1:])
        assert fourier._unexpanded_upper(factors[m], 64)
        for product, args in ((fourier._factor_product, (factors, 64)),
                              (terms.head, (m + 1, 64))):
            with pytest.raises(TailNotCertified, match="too large"):
                product(*args)


class TestAtomSum:
    def test_one_kernel_call_per_distinct_angle(self, monkeypatch):
        # at t = 1 the angles k/7 fold to 0, 1/7, 2/7 and 3/7
        atoms = tuple(a for k in range(1, 71)
                      for a in ((F(k, 7), F(1)), (F(-k, 7), F(1))))
        kernel = mock.Mock(wraps=fourier.cos2pi_fixed)
        monkeypatch.setattr(fourier, "cos2pi_fixed", kernel)
        iv = fourier.atom_part(MeasureExpr(atoms=atoms), F(1), 128)
        assert kernel.call_count == 4
        # ten full turns of the seventh roots of unity sum to 0
        assert iv.lo < 0 < iv.hi and iv.width <= F(1, 1 << 110)


class TestFtPoint:
    def test_mass_at_zero(self):
        m = MeasureExpr.symmetric_pair(1, F(1, 2))
        iv = ft_point(m, F(0))
        assert iv.exact and iv.lo == 1
        m2 = MeasureExpr.bernoulli_geometric(3).plus(m)
        assert ft_point(m2, F(0)).lo == 2

    def test_exact_zero_factor(self):
        # the first geometric factor at t=3/4 is the cosine of a right angle
        iv = ft_point(MeasureExpr.bernoulli_geometric(3), F(3, 4))
        assert iv.lo == 0 and iv.hi == 0
        assert iv.exact
        # plus atoms at +-4/9, where cos(2*pi/3) = -1/2: the sum is the
        # value itself, not rounded out onto 2**-256
        m = MeasureExpr.bernoulli_geometric(3).plus(
            MeasureExpr.symmetric_pair(F(4, 9), F(1, 3)))
        iv = ft_point(m, F(3, 4), bits=256)
        assert iv.exact and iv.lo == F(-1, 3)

    def test_factorial_huge_argument_near_one(self):
        iv = ft_point(MeasureExpr.bernoulli_factorial(3),
                      ScaledPower(F(1), 3, factorial(5)))
        assert iv.hi <= 1
        assert iv.lo >= 1 - F(1, 10 ** 50)

    def test_factorial_third_scaling(self):
        for n in (2, 3, 4):
            iv = ft_point(MeasureExpr.bernoulli_factorial(3),
                          ScaledPower(F(1, 3), 3, factorial(n)))
            eps = F(1, 10 ** 9)
            assert -F(1, 2) - eps <= iv.lo <= iv.hi <= F(1, 2) + eps
            if n >= 3:
                # the factor at k = n pins the value near -1/2
                assert iv.hi <= -F(1, 2) + F(1, 10 ** 6)

    def test_lebesgue_rejected(self):
        with pytest.raises(NotPointwiseEvaluable):
            ft_point(MeasureExpr.lebesgue_measure(), F(1))

    def test_atoms_match_cosines(self):
        m = MeasureExpr.symmetric_pair(F(5, 7), F(1, 2))
        t = F(13, 11)
        iv = ft_point(m, t)
        truth = mp.cos(2 * mp.pi * mp_of(F(5, 7)) * mp_of(t))
        assert contains(iv, truth)


class TestSoundnessAgainstOracle:
    def _truth(self, expr, t):
        expr = normalize(expr)
        total = mp.mpf(0)
        for p, w in expr.atoms:
            total += mp_of(w) * mp.cos(2 * mp.pi * mp_of(p) * mp_of(t))
        if expr.bernoulli is not None:
            prod = mp.mpf(1)
            seq = expr.bernoulli
            depth = seq.length or 40
            for k in range(1, depth + 1):
                prod *= mp.cos(2 * mp.pi * mp_of(seq.c(k)) * mp_of(t))
            total += prod
        return total

    def test_thousand_random_arguments(self):
        rng = random.Random(77)
        exprs = [
            MeasureExpr(bernoulli=CoefficientSequence(
                "explicit", values=tuple(F(1, 2 ** (j + 1))
                                         for j in range(12)))),
            bernoulli_partial(GEO, 8),
            MeasureExpr.symmetric_pair(F(2, 3), F(1, 2)).plus(
                MeasureExpr.symmetric_pair(F(5, 2), F(1, 4))),
        ]
        checked = 0
        for i in range(1000):
            expr = exprs[i % len(exprs)]
            t = F(rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 100))
            if abs(t) > 100:
                t = t % 100
            iv = ft_point(expr, t, bits=128)
            assert contains(iv, self._truth(expr, t), pad=mp.mpf(2) ** -40)
            checked += 1
        assert checked == 1000

    def test_magnitude_never_exceeds_mass(self):
        rng = random.Random(78)
        m = bernoulli_partial(GEO, 6)
        for _ in range(100):
            t = F(rng.randint(-500, 500), rng.randint(1, 30))
            iv = ft_point(m, t)
            assert iv.lo >= -1 and iv.hi <= 1


class TestEvenness:
    def test_symmetric_transform_is_even(self):
        rng = random.Random(79)
        m = MeasureExpr.symmetric_pair(F(3, 5), F(1, 2)).plus(
            MeasureExpr.bernoulli_geometric(3))
        for _ in range(50):
            t = F(rng.randint(1, 200), rng.randint(1, 20))
            a = ft_point(m, t)
            b = ft_point(m, -t)
            assert a.intersects(b)
            assert a.width == b.width


class TestScalingLaw:
    def test_five_hundred_cases(self):
        rng = random.Random(80)
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
            assert lhs.intersects(rhs), (e.describe(), s, t)


class TestProductRule:
    def test_exact_at_cosine_rational_points(self):
        # both factors reduce to exact table cosines at t = 1/4 over
        # integer atoms: transform values are exact rationals
        a = MeasureExpr.symmetric_pair(1, F(1, 2))
        b = MeasureExpr.symmetric_pair(2, F(1, 2))
        t = F(1, 4)
        fa, fb = ft_point(a, t), ft_point(b, t)
        assert fa.exact and fb.exact
        fc = ft_point(convolve_atoms(a, b), t)
        assert fc.exact and fc.lo == fa.lo * fb.lo

    def test_interval_case(self):
        rng = random.Random(81)
        a = bernoulli_partial(GEO, 5)
        b = MeasureExpr.symmetric_pair(F(2, 7), F(1, 2))
        conv = convolve_atoms(a, b)
        for _ in range(40):
            t = F(rng.randint(-100, 100), rng.randint(1, 10))
            lhs = ft_point(conv, t)
            rhs = ft_point(a, t) * ft_point(b, t)
            assert lhs.intersects(rhs)
