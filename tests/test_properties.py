"""Property tests: the cosine kernel, atomic convolution, the transform
and its tail, measure construction, the window route of ``test_sequence``, the
integer-lattice expansions behind the grid oracle and the laws of the
measure-class algebra, checked on generated inputs against mpmath, against
naive ``Fraction`` references (the log-space tail, the per-index window
evaluation and the former atom plan among them) and against each other."""

import inspect
import math
import os
import textwrap
from fractions import Fraction
from itertools import count, islice
from typing import NamedTuple
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tau3.class_algebra import (LEBESGUE_CLASS, ClassExpr, RelationKind,
                                SingularTag, Support, atom_union, convolve,
                                relation, series_class)
from tau3.errors import (BudgetExceeded, RangeError, SnapError,
                         SymmetryViolation, TailNotCertified,
                         UndeterminedError, UnsupportedArgument)
from tau3.fourier import (CHAIN_MAX_BASE, MATERIALIZE_BITS, TAIL_CUTOFF_CAP,
                          TAIL_WIDTH_TARGET, ExactRational, ReducedExact,
                          ReducedSmall, ScaledPower, _chebyshev,
                          _factor_product, _terms, arg_reduce,
                          as_argument, atom_part, choose_cutoff, ft_point,
                          tail_bound)
from tau3.intervals import (_EXACT_COS_TWELFTHS, KERNEL_MAX_BITS, MAX_BITS,
                            MIN_BITS, PRECISION_PROFILES,
                            QUADRATIC_COS_COEFF, IntervalValue, _cos_series,
                            cos2pi, cos2pi_fixed, cos2pi_interval, exp_neg,
                            log1m, niven_twice, quadratic_cos_threshold,
                            two_pi_bounds)
from tau3.invariants import FactorSpec, distinguish, s_bounds
from tau3.measures import (CoeffTerm, CoefficientSequence, MeasureExpr,
                           atom_plan, bernoulli_lattice, bernoulli_partial,
                           convolve_atoms, lattice_measure, normalize,
                           plan_mass, scale_measure)
from tau3.oracle import FLOAT_SAFETY, GridMeasure, discretize, grid_ft
from tau3 import fourier, topology
from tau3.topology import (WINDOW_THRESHOLD, Conclusion, ConvergenceVerdict,
                           SequenceSpec, cached_window_scan,
                           classify_completion, window_product)

F = Fraction

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, database=None)

small_rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 6))
points = st.builds(F, st.integers(0, 12), st.integers(1, 6))
weights = st.builds(F, st.integers(1, 5), st.integers(1, 4))


@st.composite
def symmetric_atomic(draw):
    """Up to six mirrored pairs with small rational points and weights."""
    atoms = []
    for p, w in draw(st.lists(st.tuples(points, weights),
                              min_size=1, max_size=6)):
        atoms += [(p, w), (-p, w)]
    return normalize(MeasureExpr(atoms=tuple(atoms)))


def mp_value(x: Fraction):
    return mp.mpf(x.numerator) / x.denominator


def encloses(iv, truth, digits):
    """iv contains truth, up to mpmath rounding at ``digits`` digits."""
    pad = mp.mpf(10) ** (10 - digits)
    return mp_value(iv.lo) - pad <= truth <= mp_value(iv.hi) + pad


def cos_truth(x: Fraction):
    return mp.cos(2 * mp.pi * mp_value(x))


KERNEL_BITS = (64, 96, 128, 256, 384, 512, 1024, 4096)
NIVEN_DENOMINATORS = {1, 2, 3, 4, 6}


def digits_for(bits):
    """mpmath digits that resolve 2**-bits after reducing |p/q| <= 1e9."""
    return bits * 30103 // 100000 + 40


# p/q with |p/q| <= 10**9, and next to 1/4 (mod 1/2), where the folded
# series argument approaches its largest value, pi/2
cosine_arguments = st.one_of(
    st.tuples(st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6)),
    st.builds(lambda c, d, q: (c * q + d, 4 * q), st.integers(-2, 2),
              st.integers(-3, 3), st.integers(1, 10 ** 12)))


@PROPERTY_SETTINGS
@given(cosine_arguments, st.sampled_from(KERNEL_BITS))
def test_cos2pi_encloses_the_true_cosine(pq, bits):
    x = F(*pq)
    iv = cos2pi(x, bits)
    with mp.workdps(digits_for(bits)):
        assert encloses(iv, cos_truth(x), digits_for(bits))
    assert iv.width <= F(2, 1 << bits)


# 0 < r/q <= 1/4, the folded arguments the series sees, and next to 1/4
folded_arguments = st.one_of(
    st.integers(4, 10 ** 12).flatmap(
        lambda q: st.tuples(st.integers(1, q // 4), st.just(q))),
    st.builds(lambda d, q: (q - d, 4 * q), st.integers(0, 3),
              st.integers(4, 10 ** 12)))


@PROPERTY_SETTINGS
@given(folded_arguments, st.sampled_from(KERNEL_BITS))
def test_cos_series_error_is_below_its_bound(rq, bits):
    # the a-priori bound at the working scale: once the guard bits are
    # rounded away outward, too small an e would rarely show
    r, q = rq
    s, e, g = _cos_series(r, q, bits)
    with mp.workprec(bits + g + 40):
        truth = mp.cos(2 * mp.pi * r / q) * mp.mpf(2) ** (bits + g)
        assert abs(s - truth) < e


def one_term_cos_series(r, q, bits):
    """``_cos_series`` as one term per loop pass: the divisor (2n-1)*2n and
    the sign of each term computed in the pass."""
    g = bits.bit_length() + 4
    w = bits + g
    x = -(-r * two_pi_bounds(w)[1] // q)
    x2 = x * x >> w
    t = s = 1 << w
    for n in count(1):
        t = (t * x2 >> w) // ((2 * n - 1) * 2 * n)
        if not t:
            return s, 4 * n + 8, g
        s = s - t if n & 1 else s + t


#: the working precision of a geometric chain of the largest base (12) at
#: MAX_BITS, the highest any caller asks of the kernel
CHAIN_BITS = fourier._chain_product([], 0, CHAIN_MAX_BASE, MAX_BITS)[2]


@settings(max_examples=80, deadline=None, database=None)
@given(folded_arguments, st.integers(MIN_BITS, KERNEL_MAX_BITS))
@example((1, 4), 4096)
@example((1, 4), CHAIN_BITS)
@example((1, 4), KERNEL_MAX_BITS)
@example((3, 13), 4096)
@example((10 ** 12 - 1, 4 * 10 ** 12), CHAIN_BITS)
def test_cos_series_equals_the_one_term_loop(rq, bits):
    # both parities of the first zero term occur: the two exits of a pass
    assert _cos_series(*rq, bits) == one_term_cos_series(*rq, bits)


@PROPERTY_SETTINGS
@given(st.integers(-10 ** 6, 10 ** 6),
       st.one_of(st.integers(1, 12), st.integers(1, 10 ** 6)),
       st.integers(1, 50), st.sampled_from(KERNEL_BITS))
def test_cos2pi_exact_exactly_at_niven_points(p, q, k, bits):
    x = F(p, q)
    iv = cos2pi(x, bits)
    assert iv.exact == (x.denominator in NIVEN_DENOMINATORS)
    if iv.exact:
        with mp.workdps(40):
            assert abs(mp_value(iv.lo) - cos_truth(x)) < mp.mpf(10) ** -30
    # the kernel takes p/q in any terms and gives the same integers
    assert cos2pi_fixed(k * p, k * q, bits) == cos2pi_fixed(p, q, bits)


@PROPERTY_SETTINGS
@given(st.integers(-4000, 4000), st.integers(1, 10 ** 4),
       st.integers(0, 3000), st.integers(1, 10 ** 4),
       st.sampled_from(KERNEL_BITS))
def test_cos2pi_interval_encloses_the_range(p, q, dp, dq, bits):
    a = F(p, q)
    b = a + F(dp, dq)
    iv = cos2pi_interval(a, b, bits)
    with mp.workdps(digits_for(bits)):
        for j in range(9):
            x = a + (b - a) * F(j, 8)
            assert encloses(iv, cos_truth(x), digits_for(bits)), x
    # cos(2*pi*x) is 1 at the integers and -1 at the half-integers; an end
    # that is neither has denominator below 2e8, so |cos| < 1 - 4e-16 there
    # and its enclosure stays strictly inside [-1, 1] from 64 bits on
    half_turns = range(-((-2 * a.numerator) // a.denominator),
                       2 * b.numerator // b.denominator + 1)
    assert (iv.hi == 1) == any(k % 2 == 0 for k in half_turns)
    assert (iv.lo == -1) == any(k % 2 == 1 for k in half_turns)


def single_cos_series(u, s):
    """Both ends of cos(u/2**s), one argument per series loop, each term
    divided in one step by (2j-1)(2j) << s."""
    one = 1 << s
    uu = u * u
    u2_lo, u2_hi = uu >> s, -(-uu // one)
    t_lo = t_hi = s_lo = s_hi = one
    sign, j = -1, 1
    while True:
        d = (2 * j - 1) * (2 * j) << s
        t_lo, t_hi = (t_lo * u2_lo) // d, -(-(t_hi * u2_hi) // d)
        if sign < 0:
            s_lo, s_hi = s_lo - t_hi, s_hi - t_lo
        else:
            s_lo, s_hi = s_lo + t_lo, s_hi + t_hi
        if t_hi <= 2 and j >= 2:
            return s_lo - t_hi - 2, s_hi + t_hi + 2
        sign = -sign
        j += 1


def two_call_cos2pi(p, q, bits):
    """The four-chain kernel that the one floored chain replaced: one
    ``single_cos_series`` call per end, each carrying a floored and a
    ceiled chain, at scale 2**bits."""
    r = p % q
    if 12 * r % q == 0 and 12 * r // q in _EXACT_COS_TWELFTHS:
        v = _EXACT_COS_TWELFTHS[12 * r // q] << (bits - 1)
        return v, v, True
    if 2 * r > q:
        r = q - r
    neg = 4 * r > q
    if neg:
        r, q = q - 2 * r, 2 * q
    tp_lo, tp_hi = two_pi_bounds(bits)
    one = 1 << bits
    lo = max(single_cos_series(-(-r * tp_hi // q), bits)[0], -one)
    hi = min(single_cos_series(r * tp_lo // q, bits)[1], one)
    return (-hi, -lo, False) if neg else (lo, hi, False)


# p/q with |p| <= 10**12; next to 0, 1/4 and 1/2; the exact twelfths
kernel_arguments = st.one_of(
    st.tuples(st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 12)),
    st.builds(lambda c, d, q: (c * q + d, 4 * q), st.integers(-2, 2),
              st.integers(-3, 3), st.integers(1, 10 ** 12)),
    st.builds(lambda k, m: (k * m, 12 * m), st.integers(-24, 24),
              st.integers(1, 10 ** 6)))


@settings(max_examples=300, deadline=None, database=None)
@given(kernel_arguments, st.sampled_from((64, 96, 128, 256, 384, 512, 1024)))
def test_cos2pi_fixed_lies_inside_the_two_call_series(pq, bits):
    lo, hi = cos2pi_fixed(*pq, bits)
    old_lo, old_hi, old_exact = two_call_cos2pi(*pq, bits)
    assert old_lo <= lo <= hi <= old_hi
    assert hi - lo <= 2
    assert (lo == hi) == old_exact


@PROPERTY_SETTINGS
@given(st.integers(0, 1 << 2100), st.integers(0, 1100), st.integers(1, 10 ** 4))
def test_shift_then_divide_equals_one_division(x, s, k):
    # the kernels' series terms: floor and ceiling of x / (k * 2**s)
    assert (x >> s) // k == x // (k << s)
    assert -((-x >> s) // k) == -(-x // (k << s))


@pytest.mark.parametrize("profile", sorted(PRECISION_PROFILES))
@PROPERTY_SETTINGS
@given(m=symmetric_atomic(), t=small_rationals)
def test_ft_point_encloses_the_truth_under_each_profile(profile, m, t):
    bits = PRECISION_PROFILES[profile]
    with mock.patch.dict(os.environ, {"TAU3_PRECISION": profile}):
        iv = ft_point(m, t)
    with mp.workdps(digits_for(bits)):
        assert encloses(iv, transform_truth(m, t), digits_for(bits))
    # the profile's precision shows in the width
    assert iv.width <= plan_mass(m) * F(1, 1 << (bits - 16))


def evaluate_or_refuse(m, t):
    """ft_point(m, t), or the type of the certification failure it raised."""
    try:
        return ft_point(m, t)
    except TailNotCertified:
        return TailNotCertified


@pytest.mark.parametrize("profile", sorted(PRECISION_PROFILES))
@PROPERTY_SETTINGS
@given(kind=st.sampled_from(("geometric", "factorial")),
       lam=st.sampled_from((F(1), F(1, 2), F(3, 8), F(7, 8))),
       s=st.builds(F, st.integers(1, 30), st.integers(1, 9)),
       e=st.one_of(st.integers(0, 40),
                   st.sampled_from([math.factorial(n) for n in range(3, 7)])))
def test_scaled_power_equals_its_rational_value(profile, kind, lam, s, e):
    # equality, not containment: a one-sided [cos(2*pi*v), 1] for a
    # materializable unexpanded reduction contains the value too
    m = scale_measure(MeasureExpr(bernoulli=CoefficientSequence(kind, 3)),
                      lam)
    with mock.patch.dict(os.environ, {"TAU3_PRECISION": profile}):
        assert (evaluate_or_refuse(m, ScaledPower(s, 3, e))
                == evaluate_or_refuse(m, s * 3 ** e))


@st.composite
def atoms_with_repeats(draw):
    """Mirrored pairs, some drawn twice so they merge, and maybe an atom at
    0, in any order and unnormalized."""
    pairs = draw(st.lists(st.tuples(points, weights), min_size=1, max_size=6))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    atoms = [a for p, w in pairs for a in ((p, w), (-p, w))]
    if draw(st.booleans()):
        atoms.append((F(0), draw(weights)))
    return MeasureExpr(atoms=tuple(draw(st.permutations(atoms))))


def naive_atom_sum(m: MeasureExpr, t: Fraction, bits: int):
    """(lo, hi, exact) of sum_a w_a * cos2pi(|a| * t mod 1), per raw atom."""
    lo = hi = F(0)
    exact = True
    for p, w in m.atoms:
        iv = cos2pi(abs(p) * t % 1, bits)
        lo, hi, exact = lo + w * iv.lo, hi + w * iv.hi, exact and iv.exact
    return lo, hi, exact


scaled_powers = st.builds(
    lambda s, b, e: (ScaledPower(s, b, e), s * b ** e),
    st.builds(F, st.integers(1, 40), st.integers(1, 12)),
    st.integers(2, 5), st.integers(0, 30))


@pytest.mark.parametrize("profile", sorted(PRECISION_PROFILES))
@PROPERTY_SETTINGS
@given(m=atoms_with_repeats(),
       arg=st.one_of(small_rationals.map(lambda t: (t, t)), scaled_powers))
def test_atom_part_equals_the_naive_fraction_sum(profile, m, arg):
    bits = PRECISION_PROFILES[profile]
    t, value = arg
    iv = atom_part(m, t, bits)
    assert (iv.lo, iv.hi, iv.exact) == naive_atom_sum(m, value, bits)


@st.composite
def atoms_sharing_angles(draw):
    """Mirrored pairs at k/d with small d, so that at a small-denominator t
    many pairs share an angle or its reflection; k = 0 puts an atom at 0."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 24), st.integers(1, 12),
                                    weights), min_size=1, max_size=12))
    return MeasureExpr(atoms=tuple(a for k, d, w in pairs
                                   for a in ((F(k, d), w), (F(-k, d), w))))


def per_pair_atom_sum(m: MeasureExpr, t, bits: int):
    """The integer atom sum with one kernel call per pair of the atom plan,
    at the angle p * s * b**e mod 1 over the denominator of p * s."""
    den, pairs = atom_plan(m)
    s, b, e = ((t.scale, t.base, t.exponent) if isinstance(t, ScaledPower)
               else (abs(t), 1, 0))
    lo = hi = 0
    for pn, pd, v in pairs:
        q = pd * s.denominator
        k_lo, k_hi = cos2pi_fixed(pn * s.numerator * pow(b, e, q), q, bits)
        lo, hi = lo + v * k_lo, hi + v * k_hi
    return lo, hi, den << bits


def one_third(k):
    return MeasureExpr(atoms=((F(k, 3), F(1)), (F(-k, 3), F(1))))


@pytest.mark.parametrize("bits", (64, 256))
@PROPERTY_SETTINGS
@given(m=atoms_sharing_angles(),
       t=st.one_of(small_rationals,
                   st.builds(ScaledPower,
                             st.builds(F, st.integers(1, 40),
                                       st.integers(1, 12)),
                             st.integers(2, 5),
                             st.one_of(st.integers(0, 30),
                                       st.just(math.factorial(8))))))
@example(m=one_third(1).plus(one_third(2)), t=F(1))   # Niven, 1/3 and 2/3
@example(m=MeasureExpr(atoms=((F(1, 5), F(1)), (F(-1, 5), F(1)),
                              (F(3, 10), F(2)), (F(-3, 10), F(2)))),
         t=F(2))                          # 2/5 and 3/5: one non-Niven angle
@example(m=MeasureExpr(atoms=((F(0), F(1)), (F(2, 7), F(1)),
                              (F(-2, 7), F(1)))),
         t=ScaledPower(F(1, 5), 3, math.factorial(8)))   # unexpanded n!
def test_atom_sum_equals_the_per_pair_loop(bits, m, t):
    m = normalize(m)
    assert (fourier._atom_sum(m, as_argument(t), bits)
            == per_pair_atom_sum(m, t, bits))


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(st.integers(0, 12), weights), min_size=1,
                max_size=6),
       st.integers(-30, 30), st.sampled_from(sorted(NIVEN_DENOMINATORS)),
       st.sampled_from(sorted(PRECISION_PROFILES.values())))
def test_atom_part_exact_at_niven_points(pairs, j, d, bits):
    # integer atoms at t = j/d: every cosine is one of 0, +-1/2, +-1
    m = MeasureExpr(atoms=tuple(a for p, w in pairs
                                for a in ((F(p), w), (F(-p), w))))
    iv = atom_part(m, F(j, d), bits)
    assert iv.exact
    assert (iv.lo, iv.hi, iv.exact) == naive_atom_sum(m, F(j, d), bits)


def transform_truth(m: MeasureExpr, t: Fraction):
    return mp.fsum(mp.mpf(w.numerator) / w.denominator
                   * mp.cos(2 * mp.pi * mp.mpf(p.numerator) / p.denominator
                            * mp.mpf(t.numerator) / t.denominator)
                   for p, w in m.atoms)


@PROPERTY_SETTINGS
@given(symmetric_atomic(), symmetric_atomic(), small_rationals)
def test_convolution_theorem_on_atomic_measures(a, b, t):
    conv = convolve_atoms(a, b)
    iv = ft_point(conv, t, bits=128)
    with mp.workdps(60):
        truth = transform_truth(conv, t)
        pad = mp.mpf(10) ** -50
        assert (mp.mpf(iv.lo.numerator) / iv.lo.denominator - pad <= truth
                <= mp.mpf(iv.hi.numerator) / iv.hi.denominator + pad)
    assert iv.intersects(ft_point(a, t, bits=128) * ft_point(b, t, bits=128))


@PROPERTY_SETTINGS
@given(symmetric_atomic(), st.booleans(),
       st.builds(F, st.integers(1, 6), st.integers(1, 6)))
def test_normalize_idempotent(m, lebesgue, scale):
    once = scale_measure(MeasureExpr(atoms=m.atoms, lebesgue=lebesgue), scale)
    assert normalize(once) is once
    assert MeasureExpr(once.atoms, once.lebesgue, once.bernoulli) == once


@st.composite
def mostly_mirrored(draw):
    """Mirrored pairs plus a few unmatched atoms, in any order."""
    atoms = []
    for p, w in draw(st.lists(st.tuples(points, weights), max_size=4)):
        atoms += [(p, w), (-p, w)]
    atoms += draw(st.lists(st.tuples(small_rationals, weights), max_size=2))
    return draw(st.permutations(atoms))


@PROPERTY_SETTINGS
@given(mostly_mirrored())
def test_normalize_rejects_exactly_the_lopsided(atoms):
    merged: dict[Fraction, Fraction] = {}
    for p, w in atoms:
        merged[p] = merged.get(p, F(0)) + w
    lopsided = any(merged.get(-p) != w for p, w in merged.items())
    if lopsided:
        with pytest.raises(SymmetryViolation):
            MeasureExpr(atoms=tuple(atoms))
    else:
        assert MeasureExpr(atoms=tuple(atoms)).atoms == tuple(
            sorted(merged.items()))


# -- the integer lattice against naive Fraction references ------------------

def naive_partial(seq, n):
    """prod_{k<=n} (delta at +c_k and -c_k, 1/2 each), one Fraction at a time."""
    atoms = {F(0): F(1)}
    for k in range(1, n + 1):
        c = seq.c(k)
        nxt: dict[Fraction, Fraction] = {}
        for p, w in atoms.items():
            for q in (p + c, p - c):
                nxt[q] = nxt.get(q, F(0)) + w / 2
        atoms = nxt
    return tuple(sorted(atoms.items()))


def naive_convolve(a, b):
    """The double loop over atom pairs, merged through a Fraction dict."""
    acc: dict[Fraction, Fraction] = {}
    for pa, wa in a.atoms:
        for pb, wb in b.atoms:
            acc[pa + pb] = acc.get(pa + pb, F(0)) + wa * wb
    return tuple(sorted((p, w) for p, w in acc.items() if w != 0))


def fraction_route(expr, step, depth, strict_snap):
    """Grid of ``discretize`` by Fraction division p / step, per atom."""
    expr = normalize(expr)
    pairs = [(p, float(w)) for p, w in expr.atoms]
    if expr.bernoulli is not None:
        if expr.bernoulli.length is not None:
            depth = min(depth, expr.bernoulli.length)
        pairs = [(p, float(w)) for p, w in naive_partial(expr.bernoulli,
                                                         depth)] + pairs
    cells = {}
    for p, w in pairs:
        q = p / step
        if q.denominator != 1 and strict_snap:
            raise SnapError(f"atom at {p} is off the grid of step {step}")
        i = round(q)
        cells[i] = cells.get(i, 0.0) + w
    return cells


positive = st.builds(F, st.integers(1, 60), st.integers(1, 16))


@st.composite
def explicit_sequences(draw, max_len=10):
    values = draw(st.lists(positive, min_size=1, max_size=max_len,
                           unique=True))
    return CoefficientSequence("explicit", values=sorted(values, reverse=True),
                               scale=draw(positive))


@st.composite
def sequences_with_depth(draw):
    """A factorial, geometric or explicit sequence and a depth in 1..10.

    Factorial depth stops at 7: c_k = base**(-k!) has about 10**6 digits at
    k = 10, far beyond what a naive reference expands in a test.
    """
    kind = draw(st.sampled_from(("factorial", "geometric", "explicit")))
    if kind == "explicit":
        seq = draw(explicit_sequences())
        return seq, draw(st.integers(1, seq.length))
    seq = CoefficientSequence(kind, draw(st.integers(2, 7)), draw(positive))
    return seq, draw(st.integers(1, 7 if kind == "factorial" else 10))


@PROPERTY_SETTINGS
@given(sequences_with_depth())
def test_bernoulli_partial_equals_the_naive_expansion(case):
    seq, n = case
    atoms = bernoulli_partial(seq, n).atoms
    assert atoms == naive_partial(seq, n)
    assert all(type(p) is Fraction and type(w) is Fraction for p, w in atoms)


class FractionExact(NamedTuple):
    """``ReducedExact`` with the fractional part as one ``Fraction``."""

    frac: Fraction
    is_value: bool = False


class FractionSmall(NamedTuple):
    """``ReducedSmall`` with the mantissa as one ``Fraction``."""

    mantissa: Fraction
    base: int
    neg_exp: int

    def bound(self, floor_exp: int) -> Fraction:
        """The least 2**e with e in [floor_exp, 0] and v <= 2**e, or 1 for v
        > 1, v = mantissa / base**neg_exp.  Past ``cap`` the power exceeds
        2**cap > mantissa * 2**-floor_exp, so a shorter one decides alike."""
        cap = self.mantissa.numerator.bit_length() - floor_exp
        v = self.mantissa / F(self.base) ** min(self.neg_exp, cap)
        k = fraction_log2_floor(v)
        e = k if v == F(2) ** k else k + 1
        return F(2) ** max(floor_exp, min(e, 0))


def fraction_reduce(c, t):
    """``arg_reduce`` computed in ``Fraction``s: the fractional part of
    |c * t|, or its mantissa and negative exponent when unexpanded."""
    if not isinstance(c, CoeffTerm):
        c = CoeffTerm(F(c))
    t = as_argument(t)

    def frac_power(m, base, exponent):
        p, q = m.numerator, m.denominator
        return F((p * pow(base, exponent, q)) % q, q)

    def materializable(base, exponent):
        return exponent * base.bit_length() <= MATERIALIZE_BITS

    if isinstance(t, ExactRational):
        m = c.mantissa * abs(t.value)
        if c.base is None or c.neg_exp == 0:
            return FractionExact(m % 1, is_value=m < 1)
        if materializable(c.base, c.neg_exp):
            v = m / F(c.base) ** c.neg_exp
            return FractionExact(v % 1, is_value=v < 1)
        return FractionSmall(m, c.base, c.neg_exp)
    m = c.mantissa * t.scale
    if c.base is None or c.neg_exp == 0:
        if t.exponent == 0:
            return FractionExact(m % 1, is_value=m < 1)
        return FractionExact(frac_power(m, t.base, t.exponent))
    if c.base == t.base:
        d = t.exponent - c.neg_exp
        if d == 0:
            return FractionExact(m % 1, is_value=m < 1)
        if d > 0:
            return FractionExact(frac_power(m, t.base, d))
        if materializable(c.base, -d):
            v = m / F(c.base) ** -d
            return FractionExact(v % 1, is_value=v < 1)
        return FractionSmall(m, c.base, -d)
    if materializable(c.base, c.neg_exp):
        folded = m / F(c.base) ** c.neg_exp
        if materializable(t.base, t.exponent):
            v = folded * t.base ** t.exponent
            return FractionExact(v % 1, is_value=v < 1)
        return FractionExact(frac_power(folded, t.base, t.exponent))
    raise UnsupportedArgument(
        f"no common rational form for base {c.base} coefficient against "
        f"base {t.base} argument")


def same_reduction(new, old) -> bool:
    """The integer reduction ``new`` states what ``fraction_reduce`` does."""
    if isinstance(old, FractionExact):
        return (isinstance(new, ReducedExact) and new.is_value == old.is_value
                and F(new.num, new.den) == old.frac)
    return (isinstance(new, ReducedSmall)
            and (new.num, new.den) == old.mantissa.as_integer_ratio()
            and (new.base, new.neg_exp) == (old.base, old.neg_exp))


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 10 ** 40), st.integers(1, 10 ** 40),
       st.one_of(st.integers(2, 1000), st.integers(2, 40).map(lambda n: 1 << n),
                 st.integers(2, 10 ** 12)),
       st.one_of(st.integers(0, 40), st.integers(0, 3000)),
       st.integers(-600, -1))
@example(1, 1, 131, 39, -272)       # the short test's boundary, expanded
@example(1, 1, 131, 40, -272)       # one step past it, settled short
@example(10 ** 40, 1, 2, 0, -1)     # a value above 1
@example(1, 1, 2, 5, -600)          # a value that is a power of two
def test_dyadic_upper_is_the_least_power_of_two_above(num, den, base, neg_exp,
                                                       floor_exp):
    # both branches: the short test for values far below 2**floor_exp and
    # the exact comparison, against the Fraction reference
    num, den = F(num, den).as_integer_ratio()
    n, q = ReducedSmall(num, den, base, neg_exp).dyadic_upper(floor_exp)
    assert F(n, q) == FractionSmall(F(num, den), base, neg_exp).bound(floor_exp)


def reductions_until_refused(reduce_k, n):
    """[reduce_k(1), ..., reduce_k(n)], cut at the first refusal's message."""
    out = []
    for k in range(1, n + 1):
        try:
            out.append(reduce_k(k))
        except UnsupportedArgument as exc:
            return out, str(exc)
    return out, None


reduction_sequences = st.one_of(
    explicit_sequences(max_len=12),
    st.builds(CoefficientSequence, st.sampled_from(("geometric", "factorial")),
              st.integers(2, 7), positive))
reduction_arguments = st.one_of(
    st.builds(F, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 1000)),
    st.builds(ScaledPower, st.builds(F, st.integers(1, 30), st.integers(1, 9)),
              st.integers(2, 7),
              st.one_of(st.just(0), st.integers(0, 80), st.sampled_from(
                  [math.factorial(n) for n in range(3, 10)]))))


@settings(max_examples=200, deadline=None, database=None)
@given(reduction_sequences, reduction_arguments, st.integers(1, 12))
def test_integer_reduction_equals_the_fraction_reduction(seq, t, n):
    # every branch: exact with and without is_value (negative exponents
    # too), unexpanded beyond the materialization budget, refused mixed
    # bases; rational t of either sign, powers b**0 too
    n = min(n, seq.length or n)
    old, old_refusal = reductions_until_refused(
        lambda k: fraction_reduce(seq.term(k), t), n)
    # the reader of each kind, explicit lists included, read in index order
    reader = _terms(seq, as_argument(t))
    readers = [lambda k: arg_reduce(seq.term(k), t),
               lambda k: reader.reduced(k)[-1]]
    for new, refusal in (reductions_until_refused(read, n)
                         for read in readers):
        assert refusal == old_refusal
        assert len(new) == len(old)
        assert all(map(same_reduction, new, old))


def head_product(seq, n, t, bits):
    """``_factor_product`` of the first n reductions as an interval."""
    lo, hi, s = _factor_product(_terms(seq, as_argument(t)).reduced(n), bits)
    return IntervalValue(F(lo, 1 << s), F(hi, 1 << s))


def fraction_head(seq, n, t, bits):
    """The head product as ``Fraction`` intervals: each product clamped to
    [-1, 1] and rounded onto 2**-bits unless exact."""
    out = IntervalValue.point(1)
    for k in range(1, n + 1):
        r = fraction_reduce(seq.term(k), t)
        if isinstance(r, FractionExact):
            factor = cos2pi(r.frac, bits)
        else:
            v = r.bound(-(bits + 3))
            assert v <= F(1, 2)
            factor = IntervalValue(cos2pi(v, bits).lo, F(1))
        out = (out * factor).clamp(-1, 1)
        if not out.exact:
            out = out.round_out(bits)
    return out


# denominators 3, 4 and 6 put factors on exact cosines
head_arguments = st.one_of(
    st.builds(F, st.integers(1, 10 ** 6),
              st.sampled_from((1, 2, 3, 4, 6, 7, 12, 1000))),
    st.builds(ScaledPower, st.builds(F, st.integers(1, 30),
                                     st.integers(1, 9)),
              st.integers(2, 5), st.integers(0, 80)))


@PROPERTY_SETTINGS
@given(st.one_of(explicit_sequences(max_len=16).map(lambda s: (s, s.length)),
                 sequences_with_depth()),
       head_arguments, st.integers(64, 256), st.data())
def test_head_product_equals_the_fraction_loop(case, t, bits, data):
    seq, depth = case
    n = data.draw(st.integers(1, depth))
    assert (head_product(seq, n, t, bits)
            == fraction_head(seq, n, t, bits))


@pytest.mark.parametrize("n", [64, 69, 71, 75])
def test_head_product_keeps_long_exact_runs(n):
    # c_k * t = 2**(70-k)/3 reduces to 1/3 or 2/3 for k <= 70 and to 1/6
    # at k = 71, so the first 71 factors are exact: (-1/2)**70 * 1/2
    seq, t = CoefficientSequence("geometric", 2), F(2 ** 70, 3)
    iv = head_product(seq, n, t, 64)
    assert iv == fraction_head(seq, n, t, 64)
    if n <= 71:
        assert iv.exact and iv.lo == F((-1) ** min(n, 70), 2 ** n)


@pytest.mark.parametrize("bits", [64, 256])
def test_head_product_with_an_unexpanded_factor(bits):
    # factor 8 of 3**-k! against (1/3) * 3**(7!) is beyond the
    # materialization budget, so its cosine is the one-sided [cos(2*pi*v), 1]
    seq = CoefficientSequence("factorial", 3)
    t = ScaledPower(F(1, 3), 3, math.factorial(7))
    assert isinstance(arg_reduce(seq.term(8), t), ReducedSmall)
    assert (head_product(seq, 8, t, bits)
            == fraction_head(seq, 8, t, bits))


def fraction_log2_floor(x: Fraction) -> int:
    k = x.numerator.bit_length() - x.denominator.bit_length()
    return k if x >= F(2) ** k else k - 1


def fraction_term_bound(r, floor_exp):
    """(d, is_value, unexpanded) for a reduced factor, d a ``Fraction``."""
    if isinstance(r, FractionSmall):
        return r.bound(floor_exp), True, True
    d = min(r.frac, 1 - r.frac)
    return d, r.is_value and r.frac == d, False


def fraction_cutoff(seq, t) -> int:
    """``choose_cutoff`` for the infinite kinds at t != 0, deciding with
    ``Fraction`` comparisons."""
    omega = quadratic_cos_threshold()
    target = TAIL_WIDTH_TARGET * seq.base * seq.base
    floor_exp = min(fraction_log2_floor(omega),
                    fraction_log2_floor(target / 200) // 2)
    small = False
    for k in range(1, TAIL_CUTOFF_CAP + 1):
        d, is_value, _ = fraction_term_bound(fraction_reduce(seq.term(k), t),
                                             floor_exp)
        small = d <= omega
        if small and is_value and 200 * d * d <= target:
            return k
    if not small:
        raise TailNotCertified(f"no certified tail start within the first "
                               f"{TAIL_CUTOFF_CAP} factors")
    return TAIL_CUTOFF_CAP


def log_space_tail(seq, cutoff, t, bits) -> IntervalValue:
    """``tail_bound`` for the infinite kinds at t != 0 as a sum of
    ``log1m`` enclosures in ``Fraction``s, closed with ``exp_neg`` and a
    slack of 4 ulps per rounded step."""
    # values shrink by >= base once they are values, unless t is a power of
    # another base beyond the materialization budget
    if (isinstance(t, ScaledPower) and t.base != seq.base
            and t.exponent * t.base.bit_length() > MATERIALIZE_BITS):
        raise TailNotCertified(
            "tail decay is only certified for the structured families")
    omega = quadratic_cos_threshold()
    base = seq.base
    log_lo = F(0)
    ulp = F(1, 1 << bits)
    y_close = min(F(1, 1 << (bits // 2)), TAIL_WIDTH_TARGET / 16)
    geom = F(base * base, base * base - 1)
    floor_exp = min(fraction_log2_floor(omega / 2),
                    fraction_log2_floor(y_close / QUADRATIC_COS_COEFF) // 2,
                    fraction_log2_floor(ulp / (QUADRATIC_COS_COEFF * geom))
                    // 2)
    slack_terms = 0
    k = cutoff
    guard = 64 + bits // 2
    while True:
        k += 1
        if k - cutoff > guard:
            raise TailNotCertified(
                f"tail arguments after index {cutoff} do not certifiably "
                f"decay within {guard} consecutive factors")
        d, is_value, unexpanded = fraction_term_bound(
            fraction_reduce(seq.term(k), t), floor_exp)
        if unexpanded and d > omega / 2:
            raise TailNotCertified(
                f"cannot certify factor {k} below threshold {omega}/2")
        if d > omega:
            raise TailNotCertified(
                f"factor {k} reduces to {d}, above threshold {omega}")
        if d != 0:
            y = QUADRATIC_COS_COEFF * d * d
            if is_value and d <= omega / 2 and y <= y_close:
                total = y * geom
                if total > ulp:
                    log_lo -= 2 * total
                slack_terms += 2
                break
            if y <= ulp:
                log_lo -= 2 * y        # log(1-y) >= -2y for 0 <= y <= 1/2
            else:
                log_lo += log1m(y, bits).lo
    log_lo -= F(4 * (slack_terms + 4), 1 << bits)
    return IntervalValue(min(exp_neg(-log_lo, bits).lo, F(1)), F(1))


def outcome(f, *args):
    """f(*args), or the type and message of the refusal it raised."""
    try:
        return f(*args)
    except (TailNotCertified, UnsupportedArgument) as exc:
        return type(exc), str(exc)


tail_sequences = st.builds(
    CoefficientSequence, st.sampled_from(("geometric", "factorial")),
    st.integers(2, 7), st.sampled_from((F(1), F(1, 3), F(5, 2))))
scaled_powers = st.builds(
    ScaledPower, st.builds(F, st.integers(1, 30), st.integers(1, 9)),
    st.integers(2, 7),
    st.one_of(st.integers(0, 80),
              st.sampled_from([math.factorial(n) for n in range(3, 10)])))
tail_arguments = st.one_of(
    st.builds(F, st.integers(1, 10 ** 6), st.integers(1, 1000)),
    scaled_powers)


@settings(max_examples=150, deadline=None, database=None)
@given(tail_sequences, tail_arguments, st.integers(0, 12),
       st.integers(64, 512))
def test_tail_product_lies_inside_the_log_space_tail(seq, t, cutoff, bits):
    new = outcome(tail_bound, seq, cutoff, t, bits)
    old = outcome(log_space_tail, seq, cutoff, t, bits)
    if isinstance(old, IntervalValue):
        assert isinstance(new, IntervalValue)
        assert old.lo <= new.lo <= new.hi == old.hi == 1
    else:
        assert new == old


# every branch of the geometric cutoff loop: the factor-loop bases 13-16,
# exponents past the cap (a head that never reaches its value regime, and
# the refusal at 3**100), and arguments of another base, within the
# materialization budget and beyond it (an empty value regime)
cutoff_sequences = st.one_of(tail_sequences, st.builds(
    CoefficientSequence, st.just("geometric"), st.integers(13, 16),
    st.sampled_from((F(1), F(1, 3), F(5, 2)))))
cutoff_arguments = st.one_of(tail_arguments, st.builds(
    ScaledPower, st.builds(F, st.integers(1, 30), st.integers(1, 9)),
    st.integers(2, 16), st.integers(0, 120)), st.builds(
    ScaledPower, st.builds(F, st.integers(1, 30), st.integers(1, 9)),
    st.just(3), st.integers(81, 120)), st.builds(
    ScaledPower, st.builds(F, st.integers(1, 30), st.integers(1, 9)),
    st.integers(2, 7), st.integers(40000, 40100)))


@settings(max_examples=300, deadline=None, database=None)
@given(cutoff_sequences, cutoff_arguments)
def test_choose_cutoff_equals_the_fraction_decisions(seq, t):
    assert outcome(choose_cutoff, seq, t) == outcome(fraction_cutoff, seq, t)


def true_tail_lower(seq, cutoff, value_at, bits):
    """mpmath lower bound on prod_{k > cutoff} cos(2*pi*v_k), v_k =
    value_at(k) exact: factors up to the first v_k < 2**-(bits+64), then
    1 - 2*pi**2 * sum v_j**2 for the rest, whose values shrink by >= base."""
    with mp.workprec(2 * bits + 160):
        prod = mp.mpf(1)
        k = cutoff + 1
        while True:
            v = value_at(k)
            if v < F(1, 1 << (bits + 64)):
                break
            prod *= mp.cos(2 * mp.pi * mp_value(v % 1))
            k += 1
        rest = 20 * mp_value(v) ** 2 * seq.base ** 2 / (seq.base ** 2 - 1)
        return prod * (1 - rest) - mp.mpf(2) ** -(2 * bits + 100)


@st.composite
def tails_with_exact_values(draw):
    """(seq, t, value_at): geometric sequences at rational t, factorial ones
    at materializable powers of their own base."""
    seq = draw(tail_sequences)
    if seq.kind == "geometric":
        t = draw(st.builds(F, st.integers(1, 10 ** 6), st.integers(1, 1000)))
        return seq, t, lambda k: seq.c(k) * t
    b, s = seq.base, draw(st.builds(F, st.integers(1, 30), st.integers(1, 9)))
    e = draw(st.one_of(st.integers(0, 80), st.sampled_from(
        [math.factorial(n) for n in range(3, 8)])))

    def value_at(k):
        # past 2**-600, return that upper bound instead of b**(e - k!)
        d, m = math.factorial(k) - e, seq.scale * s
        if d * (b.bit_length() - 1) > m.numerator.bit_length() + 600:
            return F(1, 1 << 600)
        return m * F(b) ** -d

    return seq, ScaledPower(s, b, e), value_at


@settings(max_examples=150, deadline=None, database=None)
@given(tails_with_exact_values(), st.integers(0, 12),
       st.sampled_from((64, 128, 256)))
def test_tail_product_lies_below_the_true_tail(case, cutoff, bits):
    seq, t, value_at = case
    try:
        tb = tail_bound(seq, cutoff, t, bits)
    except TailNotCertified:
        return
    with mp.workprec(2 * bits + 160):
        assert mp_value(tb.lo) <= true_tail_lower(seq, cutoff, value_at, bits)


def fraction_ft_point(m, t, tail_cutoff, bits) -> IntervalValue:
    """``ft_point`` composed in ``Fraction`` intervals: the atom sum plus
    the head times the tail, clamped to [-1, 1] unless exact, then to
    +-mass and rounded out onto 2**-bits unless exact."""
    m, t = normalize(m), as_argument(t)
    mass = plan_mass(m)
    if isinstance(t, ExactRational) and t.value == 0:
        return IntervalValue.point(mass)
    out = atom_part(m, t, bits)
    seq = m.bernoulli
    if seq is not None:
        cutoff = choose_cutoff(seq, t) if tail_cutoff is None else tail_cutoff
        part = (fraction_head(seq, min(cutoff, seq.length or cutoff), t, bits)
                * tail_bound(seq, cutoff, t, bits))
        out = out + (part if part.exact else part.clamp(-1, 1))
    out = out.clamp(-mass, mass)
    return out if out.exact else out.round_out(bits)


@st.composite
def transform_measures(draw):
    """Atoms alone, or a geometric, factorial or explicit two-point part
    with or without atoms."""
    kind = draw(st.sampled_from(("atomic", "geometric", "factorial",
                                 "explicit")))
    atoms = draw(symmetric_atomic())
    if kind == "atomic":
        return atoms
    seq = (draw(explicit_sequences()) if kind == "explicit" else
           CoefficientSequence(kind, draw(st.integers(2, 7)),
                               draw(st.sampled_from((F(1), F(1, 3), F(5, 2))))))
    m = MeasureExpr(bernoulli=seq)
    return m.plus(atoms) if draw(st.booleans()) else m


@settings(max_examples=150, deadline=None, database=None)
@given(transform_measures(), st.one_of(st.just(F(0)), tail_arguments),
       st.one_of(st.none(), st.integers(0, 12)), st.integers(64, 512))
def test_ft_point_equals_the_fraction_composition(m, t, tail_cutoff, bits):
    # a geometric head is one Chebyshev chain at a higher working precision
    # and is rounded once, so it only has to lie inside the factor loop's
    new = outcome(ft_point, m, t, tail_cutoff, bits)
    old = outcome(fraction_ft_point, m, t, tail_cutoff, bits)
    if not isinstance(old, IntervalValue):
        assert new == old
    elif m.bernoulli is not None and m.bernoulli.kind == "geometric":
        assert old.lo <= new.lo <= new.hi <= old.hi
        assert new.exact == old.exact
    else:
        assert (new.lo, new.hi, new.exact) == (old.lo, old.hi, old.exact)


@st.composite
def powers_with_their_rationals(draw):
    """(m, ScaledPower(s, a, e), s * a**e) for a measure of base b: a
    geometric one with e <= 40, or a factorial one with e = n!, n <= 5; the
    argument's base a is b or, half the time, another base up to 16."""
    kind = draw(st.sampled_from(("geometric", "factorial")))
    b = draw(st.integers(2, 7))
    m = MeasureExpr(bernoulli=CoefficientSequence(
        kind, b, draw(st.sampled_from((F(1), F(1, 3), F(5, 2))))))
    a = draw(st.one_of(st.just(b), st.integers(2, 16)))
    e = draw(st.integers(0, 40) if kind == "geometric" else
             st.sampled_from([math.factorial(n) for n in range(1, 6)]))
    s = draw(st.builds(F, st.integers(1, 40), st.integers(1, 60)))
    return m, ScaledPower(s, a, e), s * a ** e


@settings(max_examples=150, deadline=None, database=None)
@given(powers_with_their_rationals(), st.one_of(st.none(), st.integers(0, 12)),
       st.integers(64, 512))
def test_scaled_power_and_the_same_rational_agree(case, tail_cutoff, bits):
    # one reduced form: the same enclosure, or the same refusal; a factorial
    # factor of another base than the argument's can be beyond any common
    # rational form (c_8 = b**-(8!) is), which the rational never is
    m, power, rational = case
    new = outcome(ft_point, m, power, tail_cutoff, bits)
    assume(not (isinstance(new, tuple) and new[0] is UnsupportedArgument))
    assert new == outcome(ft_point, m, rational, tail_cutoff, bits)


chain_sequences = st.builds(
    CoefficientSequence, st.just("geometric"),
    st.integers(2, CHAIN_MAX_BASE),
    st.sampled_from((F(1), F(1, 3), F(5, 2))))
chain_arguments = st.one_of(
    st.builds(F, st.integers(1, 10 ** 6), st.integers(1, 1000)),
    st.builds(ScaledPower, st.builds(F, st.integers(1, 30), st.integers(1, 9)),
              st.integers(2, 7), st.integers(0, 80)))
# up to 300 head factors, so a chain runs through many kernel restarts
chain_cutoffs = st.one_of(st.none(), st.integers(0, 300))


def geometric_values(seq, t):
    """c_k * |t| for k = 1, 2, ..., exactly."""
    v = seq.scale * (t if isinstance(t, Fraction)
                     else t.scale * t.base ** t.exponent)
    return (v / seq.base ** k for k in count(1))


def geometric_head(seq, t, tail_cutoff):
    """(terms, n): the reader ``ft_point`` takes the head from for this
    cutoff, and the head length."""
    terms = _terms(seq, as_argument(t))
    return terms, terms.cutoff() if tail_cutoff is None else tail_cutoff


def chain_encloses_head(seq, t, tail_cutoff, bits) -> bool:
    """The geometric reader's integer head enclosure at scale 2**s contains
    the mpmath product of its cosines, worked 64 bits beyond s."""
    terms, n = geometric_head(seq, t, tail_cutoff)
    lo, hi, s = terms.head(n, bits)
    with mp.workprec(s + 64):
        truth = mp.ldexp(mp.fprod(
            cos_truth(v % 1)
            for v in islice(geometric_values(seq, t), n)), s)
        pad = mp.mpf(2) ** -16
        return lo - pad <= truth <= hi + pad


def geometric_truth(seq, t, bits):
    """prod_k cos(2*pi*c_k*t) in mpmath, up to the first value below
    2**-(bits/2 + 64): the factors left out lower it by under 2**-(bits+120)
    as their values shrink by at least the base."""
    small = F(1, 1 << (bits // 2 + 64))
    prod = mp.mpf(1)
    for v in geometric_values(seq, t):
        if v < small:
            return prod
        prod *= cos_truth(v % 1)


@settings(max_examples=100, deadline=None, database=None)
@given(chain_sequences, chain_arguments, chain_cutoffs, st.integers(64, 1024))
def test_geometric_chain_encloses_the_truth(seq, t, tail_cutoff, bits):
    m = MeasureExpr(bernoulli=seq)
    new = outcome(ft_point, m, t, tail_cutoff, bits)
    old = outcome(fraction_ft_point, m, t, tail_cutoff, bits)
    if not isinstance(old, IntervalValue):
        assert new == old
        return
    assert old.lo <= new.lo <= new.hi <= old.hi
    assert new.exact == old.exact
    assert chain_encloses_head(seq, t, tail_cutoff, bits)
    with mp.workdps(digits_for(bits)):
        assert encloses(new, geometric_truth(seq, t, bits), digits_for(bits))


# the head's last factors lie next to 1, where |T_b'| reaches b**2
NEAR_ONE_HEADS = [(CoefficientSequence("geometric", 3), F(1, 7), 300, 64),
                  (CoefficientSequence("geometric", 3), F(37, 11), None, 128),
                  (CoefficientSequence("geometric", 2, F(1, 3)), F(5, 3), 100,
                   256),
                  (CoefficientSequence("geometric", 7, F(5, 2)),
                   ScaledPower(F(4, 3), 7, 20), None, 512)]


def test_chain_with_radius_growth_b_misses_the_truth(monkeypatch):
    # the same chain with the Markov factor b**2 replaced by b
    source = textwrap.dedent(inspect.getsource(fourier._chain_product))
    assert source.count("bb * r + b") == 1
    scope = {}
    exec(source.replace("bb * r + b", "b * r + b"), vars(fourier), scope)
    assert all(chain_encloses_head(*case) for case in NEAR_ONE_HEADS)
    monkeypatch.setattr(fourier, "_chain_product", scope["_chain_product"])
    assert not all(chain_encloses_head(*case) for case in NEAR_ONE_HEADS)


def horner_chain_product(tops, n, b, bits):
    """The former ``_chain_product``: every Chebyshev step a full Horner
    loop over ``_chebyshev(b, w)``, clamped by ``max`` and ``min``."""
    w = (bits + fourier.CHAIN_BLOCK * (b * b - 1).bit_length()
         + fourier.CHAIN_GUARD)
    one, bb = 1 << w, b * b
    horner = _chebyshev(b, w)
    p_mid, p_rad = one, 0
    for r, top in zip(tops, range(n - 1, -1, -(fourier.CHAIN_BLOCK + 1))):
        lo, hi = fourier._cos_of_reduced(r, w)
        m, r = (lo + hi) >> 1, (hi - lo + 1) >> 1
        for step in range(min(fourier.CHAIN_BLOCK, top) + 1):
            if step:
                h = 0
                for c in horner:
                    h = (h * m >> w) + c
                m, r = max(-one, min(h, one)), bb * r + b
            p_mid, p_rad = (p_mid * m >> w,
                            (abs(p_mid) * r + abs(m) * p_rad + p_rad * r
                             >> w) + 2)
    return p_mid, p_rad, w


@st.composite
def chain_blocks(draw):
    """(tops, n, b, bits): the block tops of an n-factor head of base b,
    each exact (Niven points among them, where the kernel is exact) or
    unexpanded (values above 1/2 among them, which refuse)."""
    b = draw(st.integers(2, CHAIN_MAX_BASE))
    n = draw(st.integers(1, 300))
    tops = []
    for _ in range(n - 1, -1, -(fourier.CHAIN_BLOCK + 1)):
        if draw(st.integers(0, 3)):
            den = draw(st.one_of(st.sampled_from((1, 2, 3, 4, 6, 12)),
                                 st.integers(1, 10 ** 30)))
            tops.append(ReducedExact(draw(st.integers(0, den - 1)), den))
        else:
            num, den = F(draw(st.integers(1, 10 ** 6)),
                         draw(st.integers(1, 10 ** 6))).as_integer_ratio()
            tops.append(ReducedSmall(num, den, draw(st.integers(2, 12)),
                                     draw(st.integers(1, 40000))))
    return tops, n, b, draw(st.integers(64, 1024))


@settings(max_examples=150, deadline=None, database=None)
@given(chain_blocks())
def test_chain_product_equals_the_horner_loop(case):
    # the known first Horner steps, the skipped zero coefficients and the
    # comparison clamp change no integer, and no refusal
    assert (outcome(fourier._chain_product, *case)
            == outcome(horner_chain_product, *case))


def walk_geometric_cutoff(terms):
    """The former ``_GeometricTerms.cutoff``: one multiplication per index
    from max(lo, 1), with no jump."""
    (o_n, o_d), (t_n, t_d), _ = fourier._cutoff_constants(terms.base)
    p, q, lo, end = terms.regime
    k = max(lo, 1)
    den = q * terms.base ** (k - lo)
    p_omega, p_target = p * o_d, 200 * p * p * t_d
    while k < min(end, TAIL_CUTOFF_CAP + 1):
        if p_omega <= o_n * den and p_target <= t_n * den * den:
            return k
        den *= terms.base
        k += 1
    return terms._cutoff_walk(min(k, TAIL_CUTOFF_CAP))


# regimes (p, q, lo, end) with lo, end and the cap in every order: lo <
# cap < end for rational t and bases up to 12; cap < lo for powers of the
# own base past the cap; end <= cap + 1 for bases of 405 bits and more;
# lo = end for powers of another base beyond the materialization budget
jump_sequences = st.builds(
    CoefficientSequence, st.just("geometric"),
    st.one_of(st.integers(2, CHAIN_MAX_BASE),
              st.sampled_from((2, 4, 8)),
              st.integers(1 << 404, 1 << 420)),
    st.one_of(st.sampled_from((F(1), F(1, 3), F(5, 2))),
              st.builds(F, st.integers(1, 10 ** 9), st.integers(1, 10 ** 9))))


@st.composite
def jump_cases(draw):
    """(seq, t): a rational t of either sign, or a power of the own base,
    of another base or of another base beyond the budget."""
    seq = draw(jump_sequences)
    kind = draw(st.sampled_from(("rational", "own", "other", "beyond")))
    s = draw(st.builds(F, st.integers(1, 10 ** 12), st.integers(1, 10 ** 6)))
    if kind == "rational":
        return seq, draw(st.one_of(st.just(s), st.just(-s),
                                   st.builds(F, st.integers(1, 1 << 200),
                                             st.integers(1, 1 << 64))))
    if kind == "own":
        return seq, ScaledPower(s, seq.base, draw(st.integers(0, 120)))
    e = draw(st.integers(0, 40) if kind == "other" else
             st.integers(40000, 40100))
    return seq, ScaledPower(s, draw(st.integers(2, 16)), e)


@settings(max_examples=300, deadline=None, database=None)
@given(jump_cases())
# the first pass lies exactly at the jump's target: its bound is tight
@example((CoefficientSequence("geometric", 2), F(263293, 31)))
@example((CoefficientSequence("geometric", 8), F(52711, 3)))
def test_cutoff_jump_equals_the_per_index_walk(case):
    seq, t = case
    t = as_argument(t)
    assert (outcome(lambda: _terms(seq, t).cutoff())
            == outcome(lambda: walk_geometric_cutoff(_terms(seq, t))))


def fraction_fold(c, t):
    """The former ``_fold``: |c * t| and c * scale as ``Fraction``s."""
    if isinstance(t, ExactRational):
        return (*abs(c * t.value).as_integer_ratio(), 1, 0)
    return (*(c * t.scale).as_integer_ratio(), t.base, t.exponent)


@settings(max_examples=200, deadline=None, database=None)
@given(st.one_of(st.integers(-10 ** 12, 10 ** 12),
                 st.builds(F, st.integers(-10 ** 30, 10 ** 30),
                           st.integers(1, 10 ** 30))),
       st.one_of(st.just(F(0)), st.just(0),
                 st.builds(F, st.integers(-10 ** 30, -1),
                           st.integers(1, 10 ** 30)),
                 st.integers(-10 ** 6, -1),
                 st.builds(F, st.integers(1, 10 ** 30),
                           st.integers(1, 10 ** 30)),
                 st.builds(ScaledPower,
                           st.builds(F, st.integers(1, 10 ** 30),
                                     st.integers(1, 10 ** 30)),
                           st.integers(2, 16), st.integers(0, 10 ** 6))))
def test_integer_fold_equals_the_fraction_fold(c, t):
    arg = as_argument(t)
    if isinstance(t, F):            # a Fraction argument is kept, not copied
        assert arg.value is t
    new = fourier._fold(c, arg)
    assert new == fraction_fold(c, arg)
    assert all(type(x) is int for x in new)


@pytest.mark.parametrize("b", range(2, 13))
def test_chebyshev_table_maps_cos_2pi_x_to_cos_2pi_bx(b):
    coefficients = _chebyshev(b)          # highest degree first
    assert len(coefficients) == b + 1 and coefficients[0] == 1 << (b - 1)
    assert _chebyshev(b, 40) == tuple(c << 40 for c in coefficients)
    with mp.workdps(60):
        for x in (F(1, 7), F(2, 9), F(5, 13), F(1, 1000), F(3, 8), F(1, 2)):
            assert abs(mp.polyval(coefficients, cos_truth(x))
                       - cos_truth(b * x)) < mp.mpf(10) ** -50
    # exactly at the Niven points, the values the exact prefix relies on
    for p, q in ((0, 1), (1, 2), (1, 3), (1, 4), (1, 6), (5, 6), (3, 4)):
        x = F(niven_twice(p, q), 2)
        assert (sum(c * x ** i for i, c in enumerate(reversed(coefficients)))
                == F(niven_twice(b * p, q), 2))


@pytest.mark.parametrize("base", [CHAIN_MAX_BASE + 1, 1000, 10 ** 6])
def test_large_bases_keep_the_factor_loop(monkeypatch, base):
    # a chain step is a degree-b Horner evaluation over a table built in
    # O(b**2): above CHAIN_MAX_BASE the head is the factor loop, unchanged
    monkeypatch.setattr(fourier, "_chain_product", None)
    m = MeasureExpr.symmetric_pair(1, F(1, 2)).plus(
        MeasureExpr.bernoulli_geometric(base))
    for t in (F(37, 11), ScaledPower(F(1, 7), base, 30)):
        for tail_cutoff in (None, 2, 40):
            for bits in (64, 256):
                new = outcome(ft_point, m, t, tail_cutoff, bits)
                old = outcome(fraction_ft_point, m, t, tail_cutoff, bits)
                if isinstance(old, IntervalValue):
                    new, old = ((v.lo, v.hi, v.exact) for v in (new, old))
                else:       # only a short head before 30 powers of the base
                    assert isinstance(t, ScaledPower) and tail_cutoff == 2
                assert new == old


def parent_power_exceeds(m, base, exponent, bound) -> bool:
    """Exact test m * base**exponent > bound, by bit lengths first."""
    lhs_bits = m.numerator.bit_length() - m.denominator.bit_length() + exponent
    rhs_bits = bound.numerator.bit_length() - bound.denominator.bit_length()
    if lhs_bits > rhs_bits + 64:
        return True
    if exponent * base.bit_length() > 1 << 20:
        return False
    return m * F(base) ** exponent > bound


def parent_window_position(u_scale, base, exponent) -> int:
    """j such that base**j < u_scale * base**exponent <= base**(j+1)."""
    r = 0
    while F(base) ** (r + 1) < u_scale:
        r += 1
    while F(base) ** r >= u_scale:
        r -= 1
    return exponent + r


def parent_window_ft(expr, t, u_scale, exponent, base, mass, bits):
    """Per-index enclosure: the transform below the window, else the exact
    atoms plus the window product evaluated at this index."""
    j = parent_window_position(u_scale, base, exponent)
    if j < 1:
        iv = ft_point(expr, t, bits=bits)
        return iv.scale(1 / mass) if mass != 1 else iv
    c = u_scale * F(base) ** (exponent - j)
    mag = window_product(c, bits).mag_hi()
    out = (atom_part(expr, t, bits) + IntervalValue(-mag, mag)).scale(
        1 / mass)
    return out.clamp(-1, 1).round_out(bits)


def parent_conclude_generic(per_n, tol) -> ConvergenceVerdict:
    """The verdict from the enclosures alone: one scan per pattern, each
    over suffixes of at least two indices."""
    indices = [n for n, _, _ in per_n]
    for i in indices:
        window = [iv for n, _, iv in per_n if n >= i]
        if len(window) < 2:
            break
        if all(iv.lo >= 1 - tol for iv in window) and all(
                b.lo >= a.lo for a, b in zip(window, window[1:])):
            return ConvergenceVerdict(
                per_n, Conclusion.CONVERGES_TO_1, from_index=i,
                claim=(f"certified lower bounds exceed 1-{tol} and are "
                       f"non-decreasing for tested n >= {i}"))
    for i in indices:
        window = [iv for n, _, iv in per_n if n >= i]
        if len(window) < 2:
            break
        worst = max(iv.hi for iv in window)
        if worst <= 1 - tol:
            return ConvergenceVerdict(
                per_n, Conclusion.BOUNDED_AWAY_FROM_1, gap=1 - worst,
                from_index=i,
                claim=(f"certified upper bounds stay below {float(worst):.6g}"
                       f" for tested n >= {i} (tested horizon only)"))
    return ConvergenceVerdict(
        per_n, Conclusion.UNDETERMINED,
        reason="no certified pattern at the requested tolerance",
        claim="enclosures neither approach 1 nor stay uniformly below it")


def parent_window_route(expr, seq, tol, bits) -> ConvergenceVerdict:
    """The window route with the window located and evaluated per index."""
    expr = normalize(expr)
    mass = plan_mass(expr)
    scan = cached_window_scan()
    u_scale = expr.bernoulli.scale * seq.lam
    per_n, start = [], None
    for n in seq.indices():
        exp_n = seq.exponent(n)
        if start is None and parent_power_exceeds(
                u_scale, seq.base, exp_n, F(WINDOW_THRESHOLD)):
            start = n
        per_n.append((n, seq.describe(n), parent_window_ft(
            expr, seq.argument(n), u_scale, exp_n, seq.base, mass, bits)))
    per_n = tuple(per_n)
    if start is None:
        return parent_conclude_generic(per_n, tol)
    gap = min([(1 - scan.sup.hi) / mass]
              + [1 - iv.hi for n, _, iv in per_n if n >= start])
    if gap <= 0:
        return parent_conclude_generic(per_n, tol)
    return ConvergenceVerdict(
        per_n, Conclusion.BOUNDED_AWAY_FROM_1, gap=gap, from_index=start,
        beyond_horizon=True,
        claim=(f"window arguments exceed {WINDOW_THRESHOLD} from n={start} "
               f"on, and the certified window supremum "
               f"{float(scan.sup.hi):.9g} keeps every later enclosure below "
               f"1 - {float(gap):.6g}"))


def verdict_fields(v: ConvergenceVerdict) -> tuple:
    return (tuple((n, d, iv.lo, iv.hi, iv.exact) for n, d, iv in v.per_n),
            v.conclusion, v.gap, v.from_index, v.reason, v.beyond_horizon,
            v.claim)


@st.composite
def window_cases(draw):
    """A base-3 geometric measure, with or without atoms, and a base-3
    factorial or geometric sequence whose scale runs from below 1/3 to
    above 9."""
    m = MeasureExpr(bernoulli=CoefficientSequence(
        "geometric", 3, draw(st.sampled_from((F(1), F(1, 3), F(5, 2),
                                              F(2, 7), F(9))))))
    if draw(st.booleans()):
        m = m.plus(draw(symmetric_atomic()))
    family = draw(st.sampled_from(("geometric", "factorial")))
    n_min = draw(st.integers(1, 4))
    n_max = n_min + draw(st.integers(0, 4))
    seq = SequenceSpec(family, lam=draw(st.builds(F, st.integers(1, 400),
                                                  st.integers(1, 90))),
                       base=3, n_min=n_min,
                       n_max=min(n_max, 6) if family == "factorial" else n_max)
    return m, seq


@settings(max_examples=80, deadline=None, database=None)
@given(window_cases(), st.sampled_from((F(1, 10 ** 6), F(1, 10), F(1, 2))),
       st.sampled_from((128, 256)))
def test_window_route_equals_the_per_index_evaluation(case, tol, bits):
    m, seq = case
    assert (verdict_fields(topology.test_sequence(m, seq, tol, bits))
            == verdict_fields(parent_window_route(m, seq, tol, bits)))


def window_truth(c):
    """cos(2*pi*c) * cos(2*pi*c/3) * cos(2*pi*c/9) in mpmath."""
    return mp.fprod(mp.cos(2 * mp.pi * c / d) for d in (1, 3, 9))


@st.composite
def window_boxes(draw):
    """(p, e) for a dyadic box [m - h, m + h] inside [1, 3], m = p/2**e
    with p odd, h = 2**-e, from the scan's first boxes (e = 4) to e = 30."""
    e = draw(st.integers(4, 30))
    return (1 << e) + 1 + 2 * draw(st.integers(0, (1 << e) - 1)), e


@settings(max_examples=200, deadline=None, database=None)
@given(window_boxes())
def test_box_bound_covers_the_window_product_on_its_box(box):
    p, e = box
    bits = topology.WINDOW_SCAN_BITS
    lo, hi, bound = topology._box_bound(p, e, bits)
    one = 1 << 3 * bits
    with mp.workdps(40):
        m, h = mp.mpf(p) / 2 ** e, mp.mpf(2) ** -e
        assert lo <= window_truth(m) * one <= hi
        # 65 evenly spaced points, both ends included
        peak = max(abs(window_truth(m + h * k / 32)) for k in range(-32, 33))
        assert peak * one <= bound


# the window product by product to sum: f(c) is a quarter of the sum of
# cos(2*pi*w*c) over these w, so |f''| <= (2*pi)**2 * sum(w**2)/4, which
# is the 91*(2*pi)**2/81 that bounds the scan's second-order term
WINDOW_FREQUENCIES = (F(13, 9), F(11, 9), F(7, 9), F(5, 9))


@PROPERTY_SETTINGS
@given(st.builds(F, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4)))
def test_window_product_is_a_quarter_sum_of_four_cosines(c):
    assert sum(w * w for w in WINDOW_FREQUENCIES) / 4 == F(91, 81)
    with mp.workdps(40):
        x = mp_value(c)
        quarter = mp.fsum(mp.cos(2 * mp.pi * mp_value(w) * x)
                          for w in WINDOW_FREQUENCIES) / 4
        assert abs(window_truth(x) - quarter) < mp.mpf(10) ** -30


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(points, weights), max_size=6),
       st.sampled_from((None, "geometric", "factorial")), weights)
def test_plan_mass_equals_the_fraction_sum(pairs, kind, scale):
    # empty lists give the zero measure; points include 0
    atoms = [a for p, w in pairs for a in ((p, w), (-p, w))]
    bern = CoefficientSequence(kind, 3) if kind else None
    m = scale_measure(MeasureExpr(atoms=tuple(atoms), bernoulli=bern), scale)
    total = sum((w for _, w in atoms), F(0)) + (bern is not None)
    assert plan_mass(m) == plan_mass(normalize(m)) == total


def test_plan_mass_on_the_zero_measure_an_atom_at_0_and_a_two_point_part():
    zero = MeasureExpr()
    assert plan_mass(zero) == 0
    assert ft_point(zero, F(1, 3)) == IntervalValue.point(0)
    assert plan_mass(MeasureExpr(atoms=((F(0), F(2, 3)),))) == F(2, 3)
    m = MeasureExpr(atoms=((F(0), F(1, 5)), (F(-1), F(1, 7)), (F(1), F(1, 7))),
                    bernoulli=CoefficientSequence("geometric", 3))
    assert plan_mass(m) == F(1, 5) + F(2, 7) + 1


def test_plan_mass_refuses_a_lebesgue_component():
    for m in (MeasureExpr.lebesgue_measure(),
              MeasureExpr.lebesgue_measure().plus(
                  MeasureExpr.symmetric_pair(1))):
        with pytest.raises(ValueError, match="infinite-mass measure"):
            plan_mass(m)


signed_weights = st.builds(F, st.integers(-2, 5), st.integers(1, 4))


@st.composite
def raw_atomic(draw):
    """Unmerged atom lists: repeated points, zero and negative weights."""
    return tuple(draw(st.lists(st.tuples(small_rationals, signed_weights),
                               max_size=6)))


@st.composite
def mirrored_atomic(draw):
    """Measures built from unmerged mirrored atom lists: repeated points
    and zero weights, which the constructor merges and drops."""
    atoms = [(p, abs(w)) for p, w in draw(raw_atomic())]
    return MeasureExpr(atoms=tuple(atoms + [(-p, w) for p, w in atoms]))


@PROPERTY_SETTINGS
@given(mirrored_atomic(), mirrored_atomic())
def test_convolve_atoms_equals_the_naive_double_loop(a, b):
    assert convolve_atoms(a, b).atoms == naive_convolve(a, b)


@st.composite
def lattice_atomic(draw, den):
    """A canonical measure on the lattice p/den, weights over 8 or 840."""
    half = draw(st.dictionaries(st.integers(0, 3 * den), st.integers(1, 8),
                                min_size=1, max_size=6))
    counts = {}
    for p, w in half.items():
        counts[p] = counts[-p] = w
    return lattice_measure(den, draw(st.sampled_from((8, 840))), counts)


@PROPERTY_SETTINGS
@given(lattice_atomic(108), lattice_atomic(8), mirrored_atomic())
def test_convolve_atoms_across_point_denominators(a, b, raw):
    # the oracle's two lattices, 108 and 8, and a lattice against a
    # measure built from unmerged atoms
    conv = convolve_atoms(a, b)
    assert normalize(conv) is conv
    assert conv.atoms == naive_convolve(a, b)
    assert convolve_atoms(b, a) == conv
    assert convolve_atoms(a, raw).atoms == naive_convolve(a, raw)


def test_convolve_atoms_drops_zero_weights_and_rejects_negative_ones():
    # the constructor drops zero weights and refuses negative ones, so
    # neither reaches the convolution
    a = MeasureExpr(atoms=((F(-1), F(1)), (F(1), F(1))))
    zero = MeasureExpr(atoms=((F(0), F(0)), (F(1, 2), F(1, 3)),
                              (F(-1, 2), F(1, 3))))
    assert zero.atoms == ((F(-1, 2), F(1, 3)), (F(1, 2), F(1, 3)))
    assert convolve_atoms(a, zero).atoms == (
        (F(-3, 2), F(1, 3)), (F(-1, 2), F(1, 3)), (F(1, 2), F(1, 3)),
        (F(3, 2), F(1, 3)))
    with pytest.raises(ValueError, match=r"negative atom weight -1/2 at 2"):
        MeasureExpr(atoms=((F(2), F(-1, 2)), (F(-2), F(-1, 2))))


@PROPERTY_SETTINGS
@given(st.integers(1, 12), st.integers(1, 24),
       st.dictionaries(st.integers(0, 40), st.integers(1, 60), max_size=8))
def test_lattice_measure_equals_normalize(den, total, half):
    counts = {}
    for p, w in half.items():
        counts[p] = counts[-p] = w
    got = lattice_measure(den, total, counts)
    want = normalize(MeasureExpr(atoms=tuple(
        (F(p, den), F(w, total)) for p, w in counts.items())))
    assert got.atoms == want.atoms
    assert all(type(p) is F and type(w) is F for p, w in got.atoms)
    assert not got.lebesgue and got.bernoulli is None
    assert normalize(got) is got


@pytest.mark.parametrize("counts", [
    {1: 2}, {-1: 2, 1: 3}, {0: 0}, {-2: 0, 0: 1, 2: 0}, {-1: -1, 1: -1}])
def test_lattice_measure_rejects_asymmetric_or_non_positive_weights(counts):
    with pytest.raises(SymmetryViolation,
                       match="is not positive with a mirror of equal weight"):
        lattice_measure(3, 4, counts)


def fraction_atom_plan(expr):
    """The former ``atom_plan``: the atoms at p >= 0 as Fractions, twice
    the weight off 0, over the lcm of the weight denominators."""
    pairs = [(p, w if p == 0 else 2 * w) for p, w in normalize(expr).atoms
             if p >= 0]
    den = math.lcm(*(v.denominator for _, v in pairs))
    return den, tuple((p.numerator, p.denominator,
                       v.numerator * (den // v.denominator))
                      for p, v in pairs)


@PROPERTY_SETTINGS
@given(st.integers(1, 12), st.integers(1, 6), st.integers(1, 24),
       st.integers(1, 6),
       st.dictionaries(st.integers(1, 40), st.integers(1, 60), max_size=8),
       st.one_of(st.none(), st.integers(1, 60)))
@example(1, 1, 1, 1, {}, None)      # the zero measure: D = 1, no pairs
@example(4, 3, 6, 5, {2: 3}, 1)     # den 12 and total 30, neither minimal
def test_atom_plan_equals_the_fraction_reference(den, k, total, j, half,
                                                 at_zero):
    # points p*k/(den*k) and weights w*j/(total*j): the lattice is not in
    # lowest terms, yet the plan is the one the Fraction atoms give
    counts = {} if at_zero is None else {0: at_zero * j}
    for p, w in half.items():
        counts[p * k] = counts[-p * k] = w * j
    m = lattice_measure(den * k, total * j, counts)
    plan = atom_plan(m)
    assert m._atoms is None
    assert plan == fraction_atom_plan(m)


def fraction_normalize(atoms, lebesgue, bernoulli, s):
    """The former ``normalize`` of ``atoms`` scaled by s: a merge through a
    dict keyed by Fraction points, then a mirror check over Fractions.  A
    negative weight is reported at its point as written, since construction
    comes before scaling."""
    acc: dict[Fraction, Fraction] = {}
    for p, w in atoms:
        if w.numerator < 0:
            raise ValueError(f"negative atom weight {w} at {p}")
        p = p / s if s != 1 else p
        acc[p] = acc[p] + w if p in acc else w
    atoms = tuple(sorted((p, w) for p, w in acc.items() if w))
    table = dict(atoms)
    for p, w in atoms:
        if table.get(-p) != w:
            raise SymmetryViolation(f"atom at {p} of weight {w} lacks a "
                                    f"mirror of equal weight at {-p}")
    bern = bernoulli.rescaled(F(1) / s) if bernoulli else None
    return atoms, lebesgue, bern


@PROPERTY_SETTINGS
@given(raw_atomic(), st.booleans(),
       st.builds(F, st.integers(1, 6), st.integers(1, 6)), st.booleans(),
       st.sampled_from([None, CoefficientSequence("geometric", 3),
                        CoefficientSequence("explicit",
                                            values=(F(1, 2), F(1, 7)))]))
@example(((F(1, 2), F(1, 3)), (F(0), F(0))), True, F(3, 2), True, None)
@example(((F(1), F(1)), (F(-1), F(2))), False, F(2), False,
         CoefficientSequence("geometric", 3))
@example(((F(1), F(1)), (F(2), F(-1, 2))), True, F(5, 3), False, None)
def test_normalize_equals_the_fraction_merge(raw, mirror, scale, lebesgue,
                                             bern):
    """On raw atom lists, mirrored or not, construction then
    ``scale_measure`` agrees with the Fraction merge: the same canonical
    measure, the same ValueError message for a negative weight, or a
    SymmetryViolation on both sides."""
    atoms = raw + tuple((-p, w) for p, w in raw if mirror)

    def build():
        return scale_measure(MeasureExpr(atoms, lebesgue, bern), scale)

    try:
        want = fraction_normalize(atoms, lebesgue, bern, scale)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            build()
        assert str(got.value) == str(exc)
    except SymmetryViolation:
        with pytest.raises(SymmetryViolation):
            build()
    else:
        got = build()
        assert normalize(got) is got
        assert (got.atoms, got.lebesgue, got.bernoulli) == want
        assert all(type(p) is F and type(w) is F for p, w in got.atoms)


@st.composite
def grid_cases(draw):
    """A measure, a step, a depth and a snapping mode for ``discretize``.

    Some atoms sit exactly half-way between grid points, so rounding ties
    occur whenever snapping is not strict.
    """
    step = draw(st.builds(F, st.integers(1, 6), st.integers(1, 24)))
    atoms = []
    for p, w in draw(st.lists(st.tuples(points, weights), max_size=4)):
        atoms += [(p, w), (-p, w)]
    for k, w in draw(st.lists(st.tuples(st.integers(0, 6), weights),
                              max_size=3)):
        p = (k + F(1, 2)) * step
        atoms += [(p, w), (-p, w)]
    bern = draw(st.one_of(
        st.none(), explicit_sequences(max_len=8),
        st.builds(CoefficientSequence, st.just("geometric"),
                  st.integers(2, 4), positive)))
    if bern is not None and draw(st.booleans()):
        # the sequence's own finest grid: every partial atom lands on it
        step = F(1, 1)
        for k in range(1, (bern.length or 8) + 1):
            step = F(1, math.lcm(step.denominator, bern.c(k).denominator))
    expr = MeasureExpr(atoms=tuple(atoms), bernoulli=bern)
    return expr, step, draw(st.integers(1, 8)), draw(st.booleans())


@PROPERTY_SETTINGS
@given(grid_cases())
def test_discretize_equals_the_fraction_division_route(case):
    expr, step, depth, strict_snap = case
    try:
        cells = fraction_route(expr, step, depth, strict_snap)
    except SnapError as exc:
        with pytest.raises(SnapError) as got:
            discretize(expr, step, bernoulli_depth=depth,
                       strict_snap=strict_snap)
        assert str(got.value) == str(exc)
        return
    g = discretize(expr, step, bernoulli_depth=depth, strict_snap=strict_snap)
    assert g.step == step
    assert g.cells == cells


def test_discretize_rounds_half_way_atoms_to_even():
    # 1/2 and 3/2 of a step: ties to 0 and 2, mirrored to 0 and -2
    step = F(2, 3)
    m = MeasureExpr(atoms=((F(1, 3), F(1)), (F(-1, 3), F(1)),
                           (F(1), F(1)), (F(-1), F(1))))
    g = discretize(m, step, strict_snap=False)
    assert g.cells == {-2: 1.0, 0: 2.0, 2: 1.0}
    with pytest.raises(SnapError):
        discretize(m, step)


def test_discretize_keeps_the_atom_budget():
    m = MeasureExpr(bernoulli=CoefficientSequence("geometric", 3))
    with pytest.raises(BudgetExceeded):
        discretize(m, F(1, 3 ** 13), bernoulli_depth=13)


def dense_ft(g, t):
    """``grid_ft`` over every cell from the lowest stored index to the
    highest, absent ones as zeros: extent from the dense ends, one fsum."""
    lo, hi = min(g.cells), max(g.cells)
    if abs(t) * max(abs(float(g.step) * j) for j in (lo, hi)) > FLOAT_SAFETY:
        raise RangeError("beyond the float safety bound")
    a = 2.0 * math.pi * float(g.step) * t
    return math.fsum(g.cells.get(j, 0.0) * math.cos(a * j)
                     for j in range(lo, hi + 1))


@st.composite
def sparse_grids(draw):
    """A grid with zero margins and interior zeros, and a float argument."""
    cells = draw(st.lists(st.one_of(st.just(0.0), st.floats(-8, 8)),
                          min_size=1, max_size=30))
    weights = ([0.0] * draw(st.integers(0, 20)) + cells
               + [0.0] * draw(st.integers(0, 20)))
    origin = draw(st.builds(F, st.integers(-400, 400), st.integers(1, 8)))
    step = draw(st.builds(F, st.integers(1, 12), st.integers(1, 16)))
    lo = math.floor(origin / step)
    # t moderate, large, or just past or just inside the guard at one end
    end = draw(st.sampled_from((lo, lo + len(weights) - 1)))
    edge = FLOAT_SAFETY / (float(step) * max(1, abs(end)))
    near = st.sampled_from((1 - 2 ** -20, 1 + 2 ** -20, -1 - 2 ** -20))
    t = draw(st.one_of(st.floats(-100, 100), st.floats(-2.0 ** 18, 2.0 ** 18),
                       near.map(lambda u: u * edge)))
    return GridMeasure(step, {lo + j: w for j, w in enumerate(weights)}), t


@PROPERTY_SETTINGS
@given(sparse_grids())
@example((GridMeasure(F(1), {-3: 0.0, 0: 1.0}), 2.0 ** 19))
@example((GridMeasure(F(1), {0: 1.0, 3: 0.0}), -(2.0 ** 19)))
def test_grid_ft_equals_the_dense_sum(case):
    g, t = case
    try:
        want = dense_ft(g, t)
    except RangeError:
        with pytest.raises(RangeError):
            grid_ft(g, t)
        return
    assert abs(grid_ft(g, t) - want) <= 1e-12 * math.fsum(
        map(abs, g.cells.values()))


def test_grid_ft_guards_the_dense_extent():
    # only the zero margin puts |t| * extent = 3 * 2**19 past 2**20, at
    # either end of the grid
    for margin in (3, -3):
        g = GridMeasure(F(1), {0: 1, margin: 0})
        assert grid_ft(GridMeasure(F(1), {0: 1}), 2.0 ** 19) == 1.0
        with pytest.raises(RangeError):
            grid_ft(g, 2.0 ** 19)


# ---------------------------------------------------------------------------
# Measure-class algebra laws
# ---------------------------------------------------------------------------

families = st.sampled_from((
    CoefficientSequence("geometric", 3), CoefficientSequence("geometric", 2),
    CoefficientSequence("geometric", 3, F(1, 3)),
    CoefficientSequence("factorial", 3)))
supports = st.one_of(
    st.lists(small_rationals, min_size=1, max_size=4).map(Support.finite),
    st.builds(Support.lattice, st.builds(F, st.integers(1, 4),
                                         st.integers(1, 3)),
              st.lists(small_rationals, min_size=1, max_size=3)))


@st.composite
def singular_tags(draw):
    """A one-family tag: open (a convolution power), closed or opaque."""
    seq, power = draw(families), draw(st.integers(1, 3))
    translates = draw(st.one_of(st.just(Support.finite([0])), supports))
    form = draw(st.sampled_from(("open", "closed", "opaque")))
    if form == "opaque":
        names = draw(st.lists(st.sampled_from(("3^-k", "2^-k", "3^-k!")),
                              min_size=1, max_size=3))
        return SingularTag(opaque=tuple(sorted(names)), translates=translates)
    return SingularTag(((seq.key(), power),), closed=form == "closed",
                       translates=translates)


@st.composite
def classes(draw):
    """Atoms, Lebesgue and singular tags in any mix, the null class
    included; sometimes closed under series, for mixed-product tags."""
    c = ClassExpr(atoms=draw(st.none() | supports),
                  ac_lebesgue=draw(st.booleans()),
                  tags=tuple(draw(st.lists(singular_tags(), max_size=2)))
                  ).canonical()
    return series_class(c) if draw(st.booleans()) else c


@st.composite
def related_pairs(draw):
    """(a, b) with b often built from a, so relations other than Unknown
    come up."""
    a = draw(classes())
    b = draw(st.one_of(classes(), st.just(a), st.just(series_class(a)),
                       classes().map(lambda c: convolve(a, c))))
    return a, b


@PROPERTY_SETTINGS
@given(classes(), classes())
def test_class_convolution_commutes(a, b):
    assert convolve(a, b) == convolve(b, a)


@PROPERTY_SETTINGS
@given(classes(), classes(), classes())
def test_class_convolution_associates(a, b, c):
    assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))


@PROPERTY_SETTINGS
@given(classes())
def test_lebesgue_class_absorbs(c):
    out = convolve(c, LEBESGUE_CLASS)
    assert convolve(LEBESGUE_CLASS, c) == out
    if c == ClassExpr():
        # the null class is the zero measure: it absorbs Lebesgue instead
        assert out == ClassExpr()
    else:
        assert out == LEBESGUE_CLASS
        assert "axiom:LebesgueAbsorption" in out.provenance
        assert relation(out, LEBESGUE_CLASS).kind is RelationKind.EQUIVALENT


SWAPPED = {RelationKind.FIRST_AC_SECOND: RelationKind.SECOND_AC_FIRST,
           RelationKind.SECOND_AC_FIRST: RelationKind.FIRST_AC_SECOND}


@PROPERTY_SETTINGS
@given(related_pairs())
def test_relation_agrees_both_ways(pair):
    a, b = pair
    ab, ba = relation(a, b), relation(b, a)
    if ab.kind in SWAPPED:
        assert ba.kind is SWAPPED[ab.kind]
    else:
        assert ba.kind is ab.kind
        assert set(ba.trace) == set(ab.trace)


# ---------------------------------------------------------------------------
# Integer supports against the former Fraction supports
# ---------------------------------------------------------------------------

def _fraction_gcd(values):
    den = math.lcm(*(v.denominator for v in values))
    return F(math.gcd(*(v.numerator * (den // v.denominator)
                        for v in values)), den)


class FractionSupport(NamedTuple):
    """The former ``Support``: Fraction points, and a kind that every
    operation branches on."""

    kind: str
    points: tuple = ()
    generator: Fraction = F(0)
    residues: tuple = (F(0),)

    @staticmethod
    def finite(points):
        return FractionSupport("finite", tuple(sorted(set(map(F, points)))))

    @staticmethod
    def lattice(generator, residues=(F(0),)):
        g = F(generator)
        rs = {F(r) % g for r in residues}
        m = next((m for m in range(len(rs), 1, -1) if len(rs) % m == 0
                  and all((r + g / m) % g in rs for r in rs)), 1)
        g /= m
        return FractionSupport("lattice", generator=g,
                               residues=tuple(sorted({r % g for r in rs})))

    @staticmethod
    def group_generated(points):
        pts = [F(p) for p in points if p != 0]
        if not pts:
            return FractionSupport.finite([0])
        return FractionSupport.lattice(_fraction_gcd(pts))

    def group(self):
        return FractionSupport.group_generated(
            self.points if self.kind == "finite"
            else (self.generator, *self.residues))

    def members_include(self, x):
        if self.kind == "finite":
            return x in self.points
        return (x % self.generator) in self.residues

    def subset_of(self, other):
        if self.kind == "finite":
            return all(other.members_include(p) for p in self.points)
        if other.kind == "finite":
            return False
        g = self.generator
        steps = other.generator / _fraction_gcd([g, other.generator])
        return steps <= len(other.residues) and all(
            other.members_include(r + j * g)
            for r in self.residues for j in range(int(steps)))

    def intersects(self, other):
        if self.kind == "finite":
            return any(other.members_include(p) for p in self.points)
        if other.kind == "finite":
            return other.intersects(self)
        g = _fraction_gcd([self.generator, other.generator])
        return any((ra - rb) % g == 0
                   for ra in self.residues for rb in other.residues)

    def sumset(self, other):
        if self.kind == "finite" and other.kind == "finite":
            return FractionSupport.finite([a + b for a in self.points
                                           for b in other.points])
        if self.kind == "finite":
            return other.sumset(self)
        if other.kind == "finite":
            return FractionSupport.lattice(
                self.generator,
                [r + p for r in self.residues for p in other.points])
        g = _fraction_gcd([self.generator, other.generator])
        return FractionSupport.lattice(g, [ra + rb for ra in self.residues
                                           for rb in other.residues])

    def union(self, other):
        a, b = self, other
        if a.kind == b.kind == "finite":
            return FractionSupport.finite(a.points + b.points)
        if a.subset_of(b):
            return b
        if b.subset_of(a):
            return a
        if a.kind == b.kind == "lattice":
            return FractionSupport.lattice(
                _fraction_gcd([a.generator, b.generator]),
                a.residues + b.residues)
        fin, lat = (a, b) if a.kind == "finite" else (b, a)
        return FractionSupport.lattice(
            lat.generator,
            lat.residues + tuple(p % lat.generator for p in fin.points))

    def describe(self):
        if self.kind == "finite":
            return "{" + ",".join(map(str, self.points)) + "}"
        g = str(self.generator)
        if self.residues == (F(0),):
            return f"lattice({g})"
        return f"lattice({g};+{{{','.join(map(str, self.residues))}}})"

    def sort_key(self):
        return (self.kind, self.points, self.generator, self.residues)


support_rationals = st.builds(F, st.integers(-30, 30),
                              st.sampled_from((1, 2, 3, 4, 6, 9, 12)))


@st.composite
def support_pairs(draw):
    """(integer Support, FractionSupport) for one drawn set: a finite set,
    or a lattice whose residues are sometimes whole cosets of a finer
    period, so the period search has work to do."""
    if draw(st.booleans()):
        pts = draw(st.lists(support_rationals, min_size=1, max_size=6))
        return Support.finite(pts), FractionSupport.finite(pts)
    g = draw(st.builds(F, st.integers(1, 6), st.sampled_from((1, 2, 3, 4))))
    rs = draw(st.lists(support_rationals, min_size=1, max_size=3))
    m = draw(st.sampled_from((1, 1, 2, 3)))
    rs = [r + k * g / m for r in rs for k in range(m)]
    return Support.lattice(g, rs), FractionSupport.lattice(g, rs)


def same_support(new, old):
    """``new`` is the one integer form of the set ``old`` names."""
    rebuilt = (Support.finite(old.points) if old.kind == "finite"
               else Support.lattice(old.generator, old.residues))
    return new == rebuilt and new.describe() == old.describe() \
        and new.points == old.points and new.generator == old.generator


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(support_pairs(), support_pairs(), st.lists(support_rationals,
                                                  max_size=6))
def test_integer_supports_agree_with_fraction_supports(a, b, probes):
    (na, oa), (nb, ob) = a, b
    assert same_support(na, oa) and same_support(nb, ob)
    assert same_support(na.group(), oa.group())
    for x in probes + list(oa.points + ob.points + oa.residues
                           + ob.residues) + [oa.generator / 2]:
        assert na.members_include(x) == oa.members_include(x)
    assert na.subset_of(nb) == oa.subset_of(ob)
    assert nb.subset_of(na) == ob.subset_of(oa)
    assert na.intersects(nb) == oa.intersects(ob)
    assert same_support(na.sumset(nb), oa.sumset(ob))
    assert same_support(atom_union(na, nb), oa.union(ob))
    assert (na.sort_key() < nb.sort_key()) == (oa.sort_key() < ob.sort_key())
    assert (na.sort_key() == nb.sort_key()) == (na == nb) == (oa == ob)


# -- verdicts that do not depend on how an atomic measure is written --------

explicit_values = st.builds(F, st.integers(1, 12), st.integers(1, 12))


@st.composite
def explicit_measures(draw):
    """Up to two mirrored atom pairs plus an explicit two-point part of 1-6
    values, some of them scaled."""
    values = sorted(draw(st.sets(explicit_values, min_size=1, max_size=6)),
                    reverse=True)
    seq = CoefficientSequence("explicit", values=values,
                              scale=draw(st.sampled_from((1, F(1, 2),
                                                          F(2, 3)))))
    atoms = []
    for p, w in draw(st.lists(st.tuples(points, weights), max_size=2)):
        atoms += [(p, w), (-p, w)]
    return MeasureExpr(atoms=tuple(atoms), bernoulli=seq)


def expanded(m: MeasureExpr) -> MeasureExpr:
    """``m`` with its explicit part written as the atoms of its full
    ``bernoulli_lattice`` expansion, added to its own atoms."""
    seq = m.bernoulli
    n = len(seq.values)
    den, counts = bernoulli_lattice(seq, n)
    return MeasureExpr(atoms=m.atoms + tuple(
        (F(p, den), F(w, 1 << n)) for p, w in counts.items()))


def tau_lines(cert) -> tuple[list[str], list[Fraction]]:
    """The TAU section of a certificate, whose INPUTS differ by form, with
    its cross-test gaps apart: they rest on enclosures of the atom sum or
    of the two-point product, whose widths differ."""
    lines = cert.to_text().splitlines()
    lines = lines[lines.index("TAU") + 1:lines.index("S-BOUNDS")]
    gaps = [F(line.rsplit(" gap=", 1)[1]) for line in lines
            if " gap=" in line]
    return [line.split(" gap=")[0] for line in lines], gaps


def completion_or_refusal(m: MeasureExpr):
    try:
        return classify_completion(m, bits=128)
    except UndeterminedError as exc:
        return exc.reason


@PROPERTY_SETTINGS
@given(explicit_measures(),
       st.one_of(explicit_measures(), symmetric_atomic().filter(
           lambda m: any(p for p, _ in m.atoms))),
       st.lists(small_rationals, min_size=1, max_size=3))
@example(MeasureExpr(bernoulli=CoefficientSequence("explicit",
                                                   values=(F(1, 2),))),
         MeasureExpr(bernoulli=CoefficientSequence("explicit",
                                                   values=(F(1, 3),))),
         [F(1, 3)])          # Undetermined while the witness read .atoms
def test_an_explicit_part_and_its_expansion_are_one_measure(m, other, ts):
    """Metamorphic: writing an explicit two-point part as the atoms of its
    expansion changes neither the transform nor any class, completion,
    bracket or verdict computed from the measure."""
    e = expanded(m)
    assert plan_mass(e) == plan_mass(m)
    for t in ts:
        assert ft_point(e, t, bits=128).intersects(ft_point(m, t, bits=128))
    assert completion_or_refusal(e) == completion_or_refusal(m)
    assert s_bounds(FactorSpec("A", e)) == s_bounds(FactorSpec("A", m))
    b = FactorSpec("B", other)
    got = distinguish(FactorSpec("A", e), b, bits=128)
    want = distinguish(FactorSpec("A", m), b, bits=128)
    assert got.verdict == want.verdict
    (got_lines, got_gaps), (want_lines, want_gaps) = map(tau_lines,
                                                         (got, want))
    assert got_lines == want_lines and len(got_gaps) == len(want_gaps)
    assert all(abs(g - w) < F(1, 2 ** 100)
               for g, w in zip(got_gaps, want_gaps))
