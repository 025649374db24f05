"""Certified evaluation of Fourier transforms of symmetric measures.

For a symmetric probability measure the transform is real:

    FT(t) = sum_a w_a * cos(2*pi*a*t)          (atomic part)
          * / +  prod_k cos(2*pi*c_k*t)        (infinite two-point part)

The interesting arguments have the shape t = lam * base**e with e as large as
720! worth of digits, so arguments are reduced without ever materializing the
huge powers: fractional parts come from modular exponentiation, and magnitudes
of tiny products are kept in mantissa/exponent form.  Every reduction is
integer-only: |scale * t| is folded into one integer pair per call by one gcd,
each factor costs at most one ``pow(base, d, q)``, and a call builds no
``Fraction`` but its result.  ``_reduce`` alone decides whether a reduction is
expanded: within the materialization budget it is an exact fraction, so a
``ScaledPower`` argument and the same rational give the same enclosure; beyond
it only a magnitude bound is kept.

Infinite products are split into an exactly evaluated head and a certified
tail.  ``_terms`` gives one reader of the factors c_k * t per sequence kind,
and ``ft_point`` takes the cutoff, the head and the tail from one reader.
Every reader is a dict from k to the reduction of c_k * t that lives for the
call, so no c_k * t is reduced twice in one call.  The geometric reader reads
factor k by its index: for k >= e it is exactly p / (q * b**(k - e)), with t =
p/q * b**e a rational (e = 0) or a power of the sequence's own base (a power of
another base within the budget is folded into p).  Its cutoff is one integer
loop over that value regime, one multiplication per index and no reduction past
a jump by bit lengths, and its tail walk steps through the regime alike and
reduces only outside it.  An explicit list's head is the whole list unless cut,
and its tail the finite rest.  Every head starts from one exact prefix, the
leading factors whose cosine is 0, +-1/2 or +-1, multiplied as one integer over
2**j.  After it, a head is one integer factor loop on
``intervals.product_fixed``, floored onto 2**-bits, except a geometric head of
base b <= CHAIN_MAX_BASE: c_(k-1) * t = b * c_k * t, so factor k-1 is
T_b(factor k), and one Chebyshev chain reads one factor, and makes one
``cos2pi_fixed`` call, per block of CHAIN_BLOCK + 1, with Chebyshev steps in
between (a step is a degree-b Horner evaluation from m << (b - 1) on, so larger
bases keep the factor loop).  An infinite tail uses cos(2*pi*x) >= 1 - 49*x**2
(certified on [0, omega] by ``intervals``) in one floored integer product at
scale 2**bits; its upper bound is 1.  ``ft_point`` adds the atom sum and head
times tail as integers over one denominator, and clamps and rounds once.  No
flag records exactness: equal integer ends give the point itself.  The atom sum
makes one ``cos2pi_fixed`` call per distinct angle: pairs whose p * t mod 1
folds to the same value add their integer weights first, which gives the same
integers as one call per pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import count
from math import gcd
from typing import Iterable, Iterator, Optional, Union

from .errors import (NotPointwiseEvaluable, ParameterError, TailNotCertified,
                     UnsupportedArgument, Value)
from .intervals import (QUADRATIC_COS_COEFF, IntervalValue, Rational,
                        cos2pi_fixed, niven_twice, precision_bits,
                        product_fixed, quadratic_cos_threshold)
from .measures import (FACTORIAL, GEOMETRIC, CoeffTerm,
                       CoefficientSequence, MeasureExpr, atom_plan, plan_mass)

#: beyond this many bits ``_reduce`` does not expand a power of the base;
#: ``ReducedSmall.dyadic_upper`` expands one only to compare it exactly
MATERIALIZE_BITS = 1 << 15

#: certified tail width target and head-length cap of ``choose_cutoff``
TAIL_WIDTH_TARGET = Fraction(1, 10 ** 30)
TAIL_CUTOFF_CAP = 80


class ExactRational(Value):
    """Argument t given as an exact rational."""

    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        object.__setattr__(self, "value", value if type(value) is Fraction
                           else Fraction(value))


class ScaledPower(Value):
    """Argument t = scale * base**exponent; the exponent may be huge."""

    __slots__ = ("scale", "base", "exponent")

    def __init__(self, scale: Fraction, base: int, exponent: int):
        scale = Fraction(scale)
        if scale <= 0:
            raise ValueError("scaled-power arguments need a positive scale")
        if base < 2 or exponent < 0:
            raise ValueError("need base >= 2 and non-negative exponent")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


ArgumentSpec = Union[ExactRational, ScaledPower]


def as_argument(t) -> ArgumentSpec:
    return (t if isinstance(t, (ExactRational, ScaledPower))
            else ExactRational(t))


class ReducedExact(Value):
    """Fractional part of |c*t|, exactly: num/den, 0 <= num < den, integers
    not necessarily in lowest terms.

    ``is_value`` is set when the product itself lies in [0, 1), i.e. the
    fractional part is the whole value; magnitude-decay arguments are only
    valid in that case.
    """

    __slots__ = ("num", "den", "is_value")

    def __init__(self, num: int, den: int, is_value: bool = False):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "is_value", is_value)


class ReducedSmall(Value):
    """|c*t| = num/den * base**(-neg_exp), held unexpanded; num/den is the
    mantissa in lowest terms.

    base**neg_exp is beyond the materialization budget, so ``_reduce``
    does not expand it.  ``dyadic_upper`` alone reads the value, and it
    expands the power only where that has at most 2 * (M - floor_exp)
    bits, M = num.bit_length() - den.bit_length() + 1.
    """

    __slots__ = ("num", "den", "base", "neg_exp")

    def __init__(self, num: int, den: int, base: int, neg_exp: int):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "neg_exp", neg_exp)

    def dyadic_upper(self, floor_exp: int) -> tuple[int, int]:
        """(1, 2**-e) for the least e in [floor_exp, 0] with v <= 2**e, or
        e = 0 for v > 1: callers' tests treat values below 2**floor_exp
        alike, and all values >= 1.

        num/den < 2**M and base >= 2**(base.bit_length() - 1), so v <
        2**floor_exp when M - neg_exp * (base.bit_length() - 1) < floor_exp.
        Otherwise neg_exp * (base.bit_length() - 1) <= M - floor_exp, and
        base**neg_exp has at most twice that many bits: v is compared with
        powers of two exactly, 2**(e - 2) < v < 2**e from the bit lengths
        and one step down when v <= 2**(e - 1).
        """
        num, den = self.num, self.den
        m = num.bit_length() - den.bit_length() + 1
        if m - self.neg_exp * (self.base.bit_length() - 1) < floor_exp:
            return 1, 1 << -floor_exp
        den *= self.base ** self.neg_exp
        e = num.bit_length() - den.bit_length() + 1
        if _at_most(num, den, (1 << max(e - 1, 0), 1 << max(1 - e, 0))):
            e -= 1
        return 1, 1 << -max(floor_exp, min(e, 0))


Reduced = Union[ReducedExact, ReducedSmall]


def _materializable(base: int, exponent: int) -> bool:
    return exponent * base.bit_length() <= MATERIALIZE_BITS


def _fold(c: Rational, t: ArgumentSpec) -> tuple[int, int, int, int]:
    """(p, q, b, e) with |c * t| = p/q * b**e, p/q in lowest terms by one
    gcd of the integer products; b = 1 and e = 0 for a rational t."""
    (c_n, c_d), rational = c.as_integer_ratio(), isinstance(t, ExactRational)
    t_n, t_d = (t.value if rational else t.scale).as_integer_ratio()
    p, q = abs(c_n * t_n) if rational else c_n * t_n, c_d * t_d
    g = gcd(p, q)
    return p // g, q // g, *((1, 0) if rational else (t.base, t.exponent))


def _reduce(fold: tuple[int, int, int, int], c_base: Optional[int],
            c_exp: int) -> Reduced:
    """Reduce p/q * b**e * c_base**(-c_exp) modulo 1, (p, q, b, e) = fold.

    The one reduction of every factor, and the one place that decides whether
    it is expanded: a ``ReducedSmall`` only when a power of the base is
    beyond ``_materializable``.  ``_GeometricTerms`` reads the values it
    gives in a geometric sequence's value regime without calling it.
    ``c_base`` is None for a plain rational coefficient (then c_exp = 0).
    """
    p, q, b, e = fold
    if c_exp == 0 or c_base == b:
        d = e - c_exp
        if d < 0:
            if not _materializable(b, -d):
                return ReducedSmall(p, q, b, -d)
            # the value p / (q * b**-d) itself
            q, d = q * b ** -d, 0
    elif _materializable(c_base, c_exp):
        q, d = q * c_base ** c_exp, e
        if _materializable(b, e):
            # the value p * b**e / q itself
            p, d = p * b ** e, 0
    elif b == 1:
        return ReducedSmall(p, q, c_base, c_exp)
    else:
        raise UnsupportedArgument(
            f"no common rational form for base {c_base} coefficient against "
            f"base {b} argument")
    # the fractional part of p * b**d / q, where pow reduces b**d mod q
    return ReducedExact(p * pow(b, d, q) % q, q, d == 0 and p < q)


def arg_reduce(c, t: ArgumentSpec) -> Reduced:
    """Reduce |c * t| modulo 1 without expanding huge powers.

    ``c`` is a CoeffTerm (mantissa * base**-e) or a plain rational.  Returns
    the exact fractional part whenever the product has a representable
    denominator, otherwise a mantissa/exponent magnitude bound.  Mixed bases
    are supported only while one side stays representable.
    """
    if not isinstance(c, CoeffTerm):
        c = CoeffTerm(Fraction(c))
    return _reduce(_fold(c.mantissa, as_argument(t)), c.base, c.neg_exp)


def _at_most(n: int, q: int, x: tuple[int, int]) -> bool:
    """n/q <= x_num/x_den for integers n >= 0, q > 0, by
    cross-multiplication; x = (x_num, x_den) with x_den > 0."""
    x_num, x_den = x
    return n * x_den <= x_num * q


def _log2_floor(x: Fraction) -> int:
    """floor(log2(x)) for a rational x > 0, where 2**(k-1) < x < 2**(k+1)."""
    k = x.numerator.bit_length() - x.denominator.bit_length()
    return (k if _at_most(1 << max(k, 0), 1 << max(-k, 0),
                          x.as_integer_ratio()) else k - 1)


def _unexpanded_upper(r: ReducedSmall, bits: int) -> tuple[int, int]:
    """``dyadic_upper`` of an unexpanded reduction, for the one-sided
    cosine [cos(2*pi*v), 1]; raises TailNotCertified when v > 1/2, at any
    ``bits``."""
    # the kernel reads v only via ceil(2*pi*2**bits * v), which is 1 for
    # all v <= 2**-(bits+3)
    n, q = r.dyadic_upper(-(bits + 3))
    if 2 * n > q:
        raise TailNotCertified(
            "unexpanded argument too large to bound the cosine near 1")
    return n, q


def _cos_of_reduced(r: Reduced, bits: int) -> tuple[int, int]:
    """``cos2pi_fixed``'s (lo, hi) at the reduced argument."""
    if isinstance(r, ReducedExact):
        return cos2pi_fixed(r.num, r.den, bits)
    # x <= v: cos(2*pi*x) lies in [cos(2*pi*v), 1]
    return cos2pi_fixed(*_unexpanded_upper(r, bits), bits)[0], 1 << bits


def _niven_prefix(factors: Iterable[Reduced]) -> tuple[int, int]:
    """(num, j): the first j reductions r have cos(2*pi*r) in {0, +-1/2,
    +-1} (``niven_twice``), and their product is num/2**j, exactly.  An
    unexpanded reduction ends the prefix; none after it is taken."""
    num, j = 1, 0
    for r in factors:
        twice = (niven_twice(r.num, r.den) if isinstance(r, ReducedExact)
                 else None)
        if twice is None:
            break
        num, j = num * twice, j + 1
    return num, j


def _factor_product(factors: list, bits: int) -> tuple[int, int, int]:
    """(lo, hi, s): the product of cos(2*pi*r) over the reductions r lies
    in [lo/2**s, hi/2**s].

    It starts from the exact ``_niven_prefix``, so (-1/2)**j stays exact
    for any j; each later product is floored and ceiled onto 2**-bits.
    """
    num, s = _niven_prefix(factors)
    lo = hi = num
    for r in factors[s:]:
        lo, hi = product_fixed(((lo, hi), _cos_of_reduced(r, bits)),
                               1 << (s + bits))
        lo, hi, s = lo >> s, -(-hi >> s), bits
    return lo, hi, s


# ---------------------------------------------------------------------------
# Geometric heads: one kernel call per block and a Chebyshev chain
# ---------------------------------------------------------------------------

#: Chebyshev steps after each kernel call of a geometric head
CHAIN_BLOCK = 16
#: guard bits of the chain's working precision (_chain_product)
CHAIN_GUARD = 16
#: largest base whose head is a chain: a chain step costs b products at
#: w bits, and from base 16 on the factor loop is faster for rational t
CHAIN_MAX_BASE = 12


@cache
def _chebyshev(b: int, w: int = 0) -> tuple[int, ...]:
    """(c_b, ..., c_0) * 2**w, highest first for Horner's rule: the integer
    coefficients of the Chebyshev polynomial T_b(x) = sum c_i * x**i, for
    which T_b(cos u) = cos(b*u)."""
    prev, cur = (1,), (1, 0)
    for _ in range(b - 1):
        # T_(n+1) = 2x * T_n - T_(n-1)
        prev, cur = cur, tuple(2 * a - c for a, c in
                               zip((*cur, 0), (0, 0, *prev)))
    return tuple(c << w for c in cur)


def _chain_product(tops: list, n: int, b: int,
                   bits: int) -> tuple[int, int, int]:
    """(mid, rad, w): the product of cos(2*pi*r) over the reductions r of n
    consecutive geometric factors lies in [mid - rad, mid + rad] / 2**w;
    ``tops`` holds the reductions of the last factor and of every
    (CHAIN_BLOCK + 1)-th one before it, the only ones read.

    Factor k-1 is T_b(factor k), as c_(k-1)*t = b * c_k*t.  From the last
    factor down, each block of CHAIN_BLOCK + 1 factors makes one kernel
    call at w = bits + CHAIN_BLOCK * ceil(log2 b**2) + CHAIN_GUARD, then
    CHAIN_BLOCK Chebyshev steps in integer midpoint-radius form (m, r) at
    scale 2**w.  A step clamps T_b(m) to [-2**w, 2**w] and sets r to
    b**2 * r + b: by Markov's inequality |T_b'| <= b**2 on [-1, 1], where
    the true factor and the clamped m lie, and Horner's rule with b floored
    products, each multiplied after by |m| <= 2**w, is off by less than b.
    So within a block r <= 2 * b**(2 * CHAIN_BLOCK), below
    2**(w - bits - CHAIN_GUARD + 1), and w does not grow with the head.
    The product of (P, R) and (m, r) is P*m >> w with radius
    ((|P|*r + |m|*R + R*r) >> w) + 2, which covers both floors.
    """
    w = bits + CHAIN_BLOCK * (b * b - 1).bit_length() + CHAIN_GUARD
    one, bb, rest = 1 << w, b * b, _chebyshev(b, w)[2:]
    p_mid, p_rad = one, 0
    for r, top in zip(tops, range(n - 1, -1, -(CHAIN_BLOCK + 1))):
        lo, hi = _cos_of_reduced(r, w)
        m, r = (lo + hi) >> 1, (hi - lo + 1) >> 1
        for step in range(min(CHAIN_BLOCK, top) + 1):
            if step:
                h = m << (b - 1)    # c_b * m: Horner's first two steps
                for c in rest:      # adding nothing for c = 0
                    h = (h * m >> w) + c if c else h * m >> w
                m, r = one if h > one else -one if h < -one else h, bb * r + b
            p_mid, p_rad = (p_mid * m >> w,
                            (abs(p_mid) * r + abs(m) * p_rad + p_rad * r
                             >> w) + 2)
    return p_mid, p_rad, w


# ---------------------------------------------------------------------------
# Term readers: the cutoff, head and tail walks of each sequence kind
# ---------------------------------------------------------------------------

def _tail_term_bound(r: Reduced, floor_exp: int) -> tuple[int, int, bool, bool]:
    """Distance-to-integer bound d = n/q, n and q integers, for a factor r.

    Returns (n, q, is_value, unexpanded).  ``is_value`` marks bounds on the
    argument *value* itself (not merely its distance to the nearest
    integer); only those license the geometric remainder estimate, because
    |c_{k+j} * t| = |c_k * t| / base**(...) holds for values, not for
    fractional parts.  An unexpanded reduction bounds the value, by a power
    of two clamped to [2**floor_exp, 1].
    """
    if isinstance(r, ReducedSmall):
        return *r.dyadic_upper(floor_exp), True, True
    p, q = r.num, r.den
    return min(p, q - p), q, r.is_value and 2 * p <= q, False


@cache
def _tail_constants(base: int, bits: int) -> tuple[tuple[int, int],
                                                   tuple[int, int], int]:
    """(omega, y_close, floor_exp) of ``_Terms.tail``, the two
    thresholds as integer pairs (numerator, denominator)."""
    omega = quadratic_cos_threshold()
    bb = base * base
    y_close = min(Fraction(1, 1 << (bits // 2)), TAIL_WIDTH_TARGET / 16)
    # every value <= 2**floor_exp closes the tail below, deficit under ulp
    floor_exp = min(_log2_floor(omega / 2),
                    _log2_floor(y_close / QUADRATIC_COS_COEFF) // 2,
                    _log2_floor(Fraction(bb - 1, QUADRATIC_COS_COEFF * bb
                                         << bits)) // 2)
    return omega.as_integer_ratio(), y_close.as_integer_ratio(), floor_exp


@cache
def _cutoff_constants(base: int) -> tuple[tuple[int, int], tuple[int, int],
                                          int]:
    """(omega, target, floor_exp) of the cutoff walk, the two thresholds as
    integer pairs (numerator, denominator)."""
    omega = quadratic_cos_threshold()
    target = TAIL_WIDTH_TARGET * base * base
    # every value <= 2**floor_exp passes both tests of the walk
    floor_exp = min(_log2_floor(omega), _log2_floor(target / 200) // 2)
    return omega.as_integer_ratio(), target.as_integer_ratio(), floor_exp


def _terms(seq: CoefficientSequence, t: ArgumentSpec):
    """The reader of the factors c_k * t of ``seq`` for one call, the one
    place that reads the kind: ``cutoff()`` for ``choose_cutoff``, ``head(n,
    bits)`` -> (lo, hi, s) as ``_factor_product`` of factors 1 .. n,
    ``tail(cutoff, bits)`` -> (lo, hi, s) of the factors after the cutoff at
    t != 0, and ``reduced(n, start)``.  ``ft_point`` reads its head and its
    tail from one reader."""
    if seq.kind == GEOMETRIC:
        return _GeometricTerms(seq, t)
    if seq.kind == FACTORIAL:
        return _Terms(seq, t)
    return _ExplicitTerms(seq, t)


class _Terms(dict):
    """The base of every reader, and the factorial reader itself: a dict
    from k to ``_reduce`` of c_k * t that lives for one call, filled on
    first read by ``__missing__``, so no index is reduced twice.

    Its cutoff walk and its tail read ``bounds(floor_exp, start)``, the
    ``_tail_term_bound`` of factors start, start + 1, ...  The factorial
    cutoff is the whole walk; the geometric cutoff runs only its last
    steps, from the cap or from the end of the value regime.
    """

    __slots__ = ("seq", "base", "fold")

    def __init__(self, seq: CoefficientSequence, t: ArgumentSpec):
        self.seq, self.base, self.fold = seq, seq.base, _fold(seq.scale, t)

    def __missing__(self, k: int) -> Reduced:
        r = self[k] = _reduce(self.fold, self.base, self.seq.exponent(k))
        return r

    def reduced(self, n: int, start: int = 0) -> list:
        """The reductions of factors start + 1 .. n, n clamped to the length
        of a finite list."""
        n = min(n, self.seq.length or n)
        return [self[k] for k in range(start + 1, n + 1)]

    def head(self, n: int, bits: int) -> tuple[int, int, int]:
        return _factor_product(self.reduced(n), bits)

    def cutoff(self) -> int:
        return self._cutoff_walk(1)

    def bounds(self, floor_exp: int, start: int = 1) -> Iterator[tuple]:
        return (_tail_term_bound(self[k], floor_exp) for k in count(start))

    def _cutoff_walk(self, start: int) -> int:
        """The cutoff the walk over factors 1 .. TAIL_CUTOFF_CAP picks, when
        no factor before ``start`` passes its tests."""
        omega, target, floor_exp = _cutoff_constants(self.base)
        small = False
        for k, (n, q, is_value, _) in zip(range(start, TAIL_CUTOFF_CAP + 1),
                                          self.bounds(floor_exp, start)):
            small = _at_most(n, q, omega)
            # conclude only from value-form terms: those certify the decay of
            # everything beyond; estimated remaining width ~ 200 * (d/base)^2
            if small and is_value and _at_most(200 * n * n, q * q, target):
                return k
        if not small:
            raise TailNotCertified(f"no certified tail start within the first "
                                   f"{TAIL_CUTOFF_CAP} factors")
        return TAIL_CUTOFF_CAP

    def tail(self, cutoff: int, bits: int) -> tuple[int, int, int]:
        # decay: t rational, a power of the own base, or one within budget
        _, _, b, e = self.fold
        if b != self.base and not _materializable(b, e):
            raise TailNotCertified(
                "tail decay is only certified for the structured families")
        omega, y_close, floor_exp = _tail_constants(self.base, bits)
        bb = self.base * self.base
        one = lo = 1 << bits
        guard = 64 + bits // 2
        for k, (n, q, is_value, unexpanded) in zip(
                range(cutoff + 1, cutoff + guard + 1),
                self.bounds(floor_exp, cutoff + 1)):
            if unexpanded and not _at_most(2 * n, q, omega):
                raise TailNotCertified(
                    f"cannot certify factor {k} below threshold "
                    f"{Fraction(*omega)}/2")
            if not _at_most(n, q, omega):
                raise TailNotCertified(f"factor {k} reduces to "
                                       f"{Fraction(n, q)}, above threshold "
                                       f"{Fraction(*omega)}")
            y_n, y_d = QUADRATIC_COS_COEFF * n * n, q * q
            # factors 2**bits - ceil(y * 2**bits); the last has y = y_k * geom
            if (is_value and _at_most(2 * n, q, omega)
                    and _at_most(y_n, y_d, y_close)):
                lo = (lo * (one + (-y_n * bb << bits) // (y_d * (bb - 1)))
                      >> bits)
                return lo, one, bits
            lo = lo * (one + (-y_n << bits) // y_d) >> bits
        raise TailNotCertified(
            f"tail arguments after index {cutoff} do not certifiably "
            f"decay within {guard} consecutive factors")


class _GeometricTerms(_Terms):
    """The geometric reader.

    ``regime`` is (p, q, lo, end): for lo <= k < end the reduction of c_k *
    t is the value p / (q * base**(k - lo)) itself, which ``cutoff`` and
    ``bounds`` read without reducing; ``end`` is the first index ``_reduce``
    leaves unexpanded or refuses, and lo = end when no index has that form.
    """

    __slots__ = ("regime",)

    def __init__(self, seq: CoefficientSequence, t: ArgumentSpec):
        super().__init__(seq, t)
        p, q, b, e = self.fold
        # the first k with base**k beyond _materializable
        end = MATERIALIZE_BITS // self.base.bit_length() + 1
        self.regime = ((p, q, e, e + end) if b == self.base else
                       (p * b ** e, q, 0, end) if _materializable(b, e)
                       else (p, q, end, end))

    def cutoff(self) -> int:
        """The walk's cutoff by one integer loop over the value regime.

        For lo <= k < end factor k is the value p / den, den = q * base**(k
        - lo), so the walk's three tests (a value, at most omega, and 200 *
        (p/den)**2 at most the target) hold exactly when p/den <= omega and
        200 * (p/den)**2 <= target: omega <= 1/2, and from den >= 2p on the
        distance to the integers is p/den itself.  No other index passes
        before ``end``: below lo ``_reduce`` marks nothing as a value.  So
        the loop skips every j with 2**(len(t_n) + 2 * len(q) + 2 * j *
        ceil(log2 base)) at most p_target, where the second test fails at k =
        lo + j, then steps den by one multiplication per index; without a pass
        up to the cap the walk's answer is its read at the cap alone, also for
        an empty regime.  The walk goes on from ``end`` itself only when that
        comes first, for bases of 410 bits or more.
        """
        (o_n, o_d), (t_n, t_d), _ = _cutoff_constants(self.base)
        p, q, lo, end = self.regime
        p_omega, p_target = p * o_d, 200 * p * p * t_d
        fail = ((p_target.bit_length() - t_n.bit_length() - 2 * q.bit_length()
                 - 1) // (2 * (self.base - 1).bit_length()))
        k = max(lo, 1, min(lo + fail + 1, end, TAIL_CUTOFF_CAP + 1))
        den = q * self.base ** (k - lo)
        while k < min(end, TAIL_CUTOFF_CAP + 1):
            if p_omega <= o_n * den and p_target <= t_n * den * den:
                return k
            den *= self.base
            k += 1
        return self._cutoff_walk(min(k, TAIL_CUTOFF_CAP))

    def bounds(self, floor_exp: int, start: int = 1) -> Iterator[tuple]:
        """One multiplication by the base per index in the value regime."""
        p, q, lo, end = self.regime
        den = q * self.base ** max(start - lo, 0)   # at k = max(start, lo)
        for k in count(start):
            if lo <= k < end:
                num = p % den
                yield (min(num, den - num), den, p < den and 2 * num <= den,
                       False)
                den *= self.base
            else:
                yield _tail_term_bound(self[k], floor_exp)

    def head(self, n: int, bits: int) -> tuple[int, int, int]:
        """The factor loop above CHAIN_MAX_BASE, else the ``_niven_prefix``
        (T_b maps the cosines 0, +-1/2 and +-1 to themselves) and one
        ``_chain_product``, reducing only the prefix, the block tops and the
        first unexpanded factor: unexpanded values fall as k grows, so the
        first refuses if any does, as ``_factor_product`` would."""
        if self.base > CHAIN_MAX_BASE:
            return super().head(n, bits)
        num, j = _niven_prefix(self[k] for k in range(1, n + 1))
        tops = [self[k] for k in range(n, j, -(CHAIN_BLOCK + 1))]
        *_, first = self.regime          # the first unexpanded index
        if j < first <= n and isinstance(self[first], ReducedSmall):
            _unexpanded_upper(self[first], bits)
        if j == n or num == 0:
            return num, num, j
        mid, rad, w = _chain_product(tops, n - j, self.base, bits)
        lo, hi = sorted((num * (mid - rad), num * (mid + rad)))
        return lo, hi, j + w


class _ExplicitTerms(_Terms):
    """The reader of a finite list: its cutoff is the whole list, and its
    tail the product of the factors after the cutoff."""

    __slots__ = ()

    def __missing__(self, k: int) -> Reduced:
        p, q, b, e = self.fold
        v = self.seq.values[k - 1]
        r = self[k] = _reduce((p * v.numerator, q * v.denominator, b, e),
                              None, 0)
        return r

    def cutoff(self) -> int:
        return self.seq.length

    def tail(self, cutoff: int, bits: int) -> tuple[int, int, int]:
        return _factor_product(self.reduced(self.seq.length, cutoff), bits)


def tail_bound(seq: CoefficientSequence, cutoff: int, t,
               bits: Optional[int] = None) -> IntervalValue:
    """Certified enclosure of prod_{k > cutoff} cos(2*pi*c_k*t).

    Every infinite tail argument must reduce to a distance d_k <= omega =
    1/8 from the integers; there cos(2*pi*d_k) >= 1 - y_k, y_k = 49*d_k**2
    (certified by ``intervals``), and 1 - y_k >= 15/64 > 0.  The lower end
    is an integer at scale 2**bits, times 2**bits - ceil(y_k * 2**bits) per
    term, floored; ceilings and floors only lower it.  A value-form term k
    with d_k <= omega/2 and y_k <= y_close closes the tail: the values
    beyond shrink by >= 1/base per step, so sum_{j>=k} y_j <= y_k * geom,
    geom = base**2/(base**2 - 1), and as each y_j lies in [0, 1], prod (1 -
    y_j) >= 1 - sum y_j (Weierstrass), so one factor 1 - y_k * geom > 0
    stands for them all.  The upper bound is 1.  Raises TailNotCertified
    when the arguments are not eventually small.
    """
    bits = precision_bits(bits)
    if cutoff < 0:
        raise ParameterError(f"tail cutoff {cutoff} is negative")
    t = as_argument(t)
    if isinstance(t, ExactRational) and t.value == 0:
        return IntervalValue.point(1)
    lo, hi, s = _terms(seq, t).tail(cutoff, bits)
    return IntervalValue(Fraction(lo, 1 << s), Fraction(hi, 1 << s))


def choose_cutoff(seq: CoefficientSequence, t) -> int:
    """Smallest head length whose certified tail width is below the target.

    Returns ``TAIL_CUTOFF_CAP`` if the target is never reached within it;
    the result is then still sound, only wider.  Raises TailNotCertified
    when no tail start exists at the cap.
    """
    return _terms(seq, as_argument(t)).cutoff()


# ---------------------------------------------------------------------------
# Pointwise transform
# ---------------------------------------------------------------------------

def _atom_sum(expr: MeasureExpr, t: ArgumentSpec,
              bits: int) -> tuple[int, int, int]:
    """(lo, hi, D * 2**bits): integer ends of the atom sum over D * 2**bits,
    one kernel call per distinct angle of the atom pairs +-p of the
    ``atom_plan``.

    ``cos2pi_fixed(r, q, bits)`` reads only the value of r/q mod 1 up to
    reflection: ``niven_twice``, its fold into [0, 1/4] and the series'
    x = ceil(r*tp_hi/q) all do.  So pairs whose p*t mod 1 folds to the same
    min(r, q - r)/q in lowest terms share one call, and as the weights v
    are integers, sum(v_i * k) = (sum v_i) * k gives the same ends exactly.
    """
    den, pairs = atom_plan(expr)
    sn, sd, b, e = _fold(1, t)
    weights = {}
    for pn, pd, v in pairs:
        # p*t mod 1 over the denominator pd*sd, where pow reduces b**e
        q = pd * sd
        r = pn * sn * pow(b, e, q) % q
        if 2 * r > q:
            r = q - r
        g = gcd(r, q)
        key = r // g, q // g
        weights[key] = weights.get(key, 0) + v
    lo = hi = 0
    for (r, q), v in weights.items():
        k_lo, k_hi = cos2pi_fixed(r, q, bits)
        lo, hi = lo + v * k_lo, hi + v * k_hi
    return lo, hi, den << bits


def atom_part(expr: MeasureExpr, t: ArgumentSpec, bits: int) -> IntervalValue:
    """Enclosure of sum_a w_a * cos(2*pi*a*t) over the atoms of ``expr``."""
    lo, hi, den = _atom_sum(expr, as_argument(t), bits)
    return IntervalValue(Fraction(lo, den), Fraction(hi, den))


def _bernoulli_part(seq: CoefficientSequence, t: ArgumentSpec,
                    tail_cutoff: Optional[int],
                    bits: int) -> tuple[int, int, int]:
    """(lo, hi, den): the head product times the tail (``tail_bound``'s
    enclosure), clamped to [-1, 1], over den; both come from one reader, so
    each c_k * t is reduced at most once."""
    terms = _terms(seq, t)
    n = terms.cutoff() if tail_cutoff is None else tail_cutoff
    h_lo, h_hi, s = terms.head(n, bits)
    t_lo, t_hi, u = terms.tail(n, bits)
    den = 1 << (s + u)
    return (*product_fixed(((h_lo, h_hi), (t_lo, t_hi)), den), den)


def ft_point(expr: MeasureExpr, t, tail_cutoff: Optional[int] = None,
             bits: Optional[int] = None) -> IntervalValue:
    """Certified enclosure of the Fourier transform of ``expr`` at ``t``.

    The measure must have finite mass (no Lebesgue component).  Raises
    ParameterError for a negative ``tail_cutoff``.
    """
    bits = precision_bits(bits)
    if tail_cutoff is not None and tail_cutoff < 0:
        raise ParameterError(f"tail cutoff {tail_cutoff} is negative")
    t = as_argument(t)
    if expr.lebesgue:
        raise NotPointwiseEvaluable(
            "the Lebesgue component has no pointwise transform")
    mass = plan_mass(expr)
    if isinstance(t, ExactRational) and t.value == 0:
        return IntervalValue.point(mass)
    lo, hi, den = _atom_sum(expr, t, bits)
    if expr.bernoulli is not None:
        b_lo, b_hi, b_den = _bernoulli_part(expr.bernoulli, t, tail_cutoff,
                                            bits)
        lo, hi = lo * b_den + b_lo * den, hi * b_den + b_hi * den
        den *= b_den
    if lo == hi:        # a certified point is the value itself
        return IntervalValue.point(Fraction(lo, den))
    # floor and ceiling are monotone, so rounding the ends and +-mass onto
    # 2**-bits first and clamping after gives the same grid points
    m, m_den = mass.as_integer_ratio()
    lo = max((lo << bits) // den, (-m << bits) // m_den)
    hi = min(-((-hi << bits) // den), -((-m << bits) // m_den))
    return IntervalValue(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits))
