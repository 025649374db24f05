"""Certified interval arithmetic over exact rational endpoints.

Every value of interest is carried as an ``IntervalValue`` with ``Fraction``
endpoints.  Ring operations (+, -, *) on rationals are exact, so no rounding
happens there; width is introduced only by the transcendental kernels below,
which evaluate in fixed-point integer arithmetic with directed rounding:

    cos2pi(q)            enclosure of cos(2*pi*q) for rational q
    cos2pi_interval(a,b) enclosure of {cos(2*pi*x) : a <= x <= b}
    log1m(y)             enclosure of log(1 - y), 0 <= y <= 15/16
    exp_neg(s)           enclosure of exp(-s), s >= 0

There is one cosine kernel, ``cos2pi_fixed``, whose ends are integers at
scale 2**bits, and one product of such enclosures, ``product_fixed``;
``cos2pi`` and ``cos2pi_interval`` convert the kernel's output to
``Fraction`` endpoints.  Callers that stay on the integer grid use them
directly: the window scan in ``topology``, which also takes its bound on
2*pi from ``two_pi_bounds``, and the two-point products of ``fourier``,
tail included.  ``log1m`` and ``exp_neg`` serve no transform;
the benchmark tracer and the tests' log-space reference tail use them.

Soundness contract: the true value always lies inside the returned interval.
``log1m`` and ``exp_neg`` run floored and ceiled series chains with one ulp of
slack per step.  The cosine runs one floored Taylor chain with guard bits and
an a-priori error bound (_cos_series), so its ends are at most 2 ulps apart;
the chain takes two terms per pass from one table of divisors, sized for
every scale up to KERNEL_MAX_BITS.
A term x / (j * 2**s) is floored (ceiled) as (x >> s) // j, equal for x >= 0.

No flag records exactness: an enclosure of width zero is the value itself,
so ``IntervalValue.exact`` is ``lo == hi``.  The cosine kernel returns
lo == hi exactly at the rational points where the cosine of a rational
multiple of 2*pi is itself rational; by Niven's theorem these are the
fractions with denominator 1, 2, 3, 4 or 6.  Elsewhere its hi > lo.

The working precision (bits of fixed-point scale) is the ``bits`` argument
of each entry point, or else comes from the ``TAU3_PRECISION`` environment
variable: one of the profile names ``fast``, ``default``, ``high``, or an
explicit bit count in [64, 4096]; any other value raises
PrecisionSettingError, and a ``bits`` argument outside that range
ParameterError (``precision_bits`` resolves both).  2*pi is bracketed at any
precision by Machin's formula in integer arithmetic.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cache
from itertools import count
from math import log2
from typing import Union

from .errors import ParameterError, PrecisionSettingError, Value

Rational = Union[Fraction, int]

PRECISION_PROFILES = {"fast": 128, "default": 256, "high": 512}
MIN_BITS, MAX_BITS = 64, 4096


def precision_bits(bits: int | None = None) -> int:
    """Working precision in bits: ``bits`` when given, else TAU3_PRECISION
    (profile name or int).

    An explicit count outside [MIN_BITS, MAX_BITS], 0 included, raises
    ParameterError; a TAU3_PRECISION value other than a profile name or a
    count in that range raises PrecisionSettingError.
    """
    if bits is not None:
        if not MIN_BITS <= bits <= MAX_BITS:
            raise ParameterError(f"bits={bits} outside [{MIN_BITS}, "
                                 f"{MAX_BITS}]")
        return bits
    raw = os.environ.get("TAU3_PRECISION", "default").strip().lower()
    if raw in PRECISION_PROFILES:
        return PRECISION_PROFILES[raw]
    try:
        bits = int(raw)
    except ValueError:
        bits = None
    if bits is None or not MIN_BITS <= bits <= MAX_BITS:
        raise PrecisionSettingError(
            f"TAU3_PRECISION={raw!r}: expected one of "
            f"{', '.join(PRECISION_PROFILES)} or a bit count in "
            f"[{MIN_BITS}, {MAX_BITS}]")
    return bits


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _floor_scaled(x: Fraction, s: int) -> int:
    return (x.numerator << s) // x.denominator


def _ceil_scaled(x: Fraction, s: int) -> int:
    return _ceil_div(x.numerator << s, x.denominator)


def _arctan_inv_bounds(x: int, s: int) -> tuple[int, int]:
    """Integers bracketing 2**s * arctan(1/x) for an integer x >= 5."""
    xx = x * x
    p = (1 << s) // x          # 2**s / x**(2k+1), floored: off by < 2
    total, k = 0, 0
    while p:
        term = p // (2 * k + 1)
        total += -term if k & 1 else term
        p //= xx
        k += 1
    # each term is off by < 3; the omitted alternating tail is below 2
    err = 3 * k + 2
    return total - err, total + err


@cache
def two_pi_bounds(s: int) -> tuple[int, int]:
    """(floor(2*pi*2**s), floor(2*pi*2**s) + 1), by Machin's formula.

    pi/4 = 4*arctan(1/5) - arctan(1/239), bracketed with g guard bits;
    2*pi is irrational, so once both brackets share their top bits the
    floor is decided.
    """
    g = s.bit_length() + 8
    while True:
        a_lo, a_hi = _arctan_inv_bounds(5, s + g)
        b_lo, b_hi = _arctan_inv_bounds(239, s + g)
        lo, hi = 8 * (4 * a_lo - b_hi) >> g, 8 * (4 * a_hi - b_lo) >> g
        if lo == hi:
            break
        g += 16
    return lo, lo + 1


class IntervalValue(Value):
    """Closed interval [lo, hi] guaranteed to contain the true value.

    An enclosure of width zero is the value itself, so ``exact`` is
    ``lo == hi``.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @staticmethod
    def point(x: Rational) -> "IntervalValue":
        x = Fraction(x)
        return IntervalValue(x, x)

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Rational) -> bool:
        return self.lo <= x <= self.hi

    def intersects(self, other: "IntervalValue") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def mag_hi(self) -> Fraction:
        """Upper bound on |value|."""
        return max(abs(self.lo), abs(self.hi))

    def __add__(self, other):
        other = _coerce(other)
        return IntervalValue(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return IntervalValue(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        cands = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        return IntervalValue(min(cands), max(cands))

    __rmul__ = __mul__

    def scale(self, c: Rational) -> "IntervalValue":
        c = Fraction(c)
        if c >= 0:
            return IntervalValue(self.lo * c, self.hi * c)
        return IntervalValue(self.hi * c, self.lo * c)

    def clamp(self, lo: Rational, hi: Rational) -> "IntervalValue":
        """Intersect with [lo, hi], which must be a known outer bound."""
        return IntervalValue(max(self.lo, Fraction(lo)),
                             min(self.hi, Fraction(hi)))

    def round_out(self, bits: int) -> "IntervalValue":
        """Round endpoints outward onto the dyadic grid 2**-bits.

        Keeps denominators bounded after long products; a point stays a
        point only when it lies on the grid.
        """
        return IntervalValue(Fraction(_floor_scaled(self.lo, bits), 1 << bits),
                             Fraction(_ceil_scaled(self.hi, bits), 1 << bits))

    def __repr__(self):
        if self.exact:
            return f"IntervalValue({self.lo!s}, exact)"
        return f"IntervalValue([{float(self.lo)!r}, {float(self.hi)!r}])"


def _coerce(x) -> IntervalValue:
    if isinstance(x, IntervalValue):
        return x
    return IntervalValue.point(x)


# 2*cos(2*pi*k/12) for the k in 0..11 where it is an integer.  By Niven's
# theorem these are all the rationals x at which cos(2*pi*x) is rational.
_EXACT_COS_TWELFTHS = {0: 2, 2: 1, 3: 0, 4: -1, 6: -2, 8: -1, 9: 0, 10: 1}


#: highest scale the cosine kernel serves, above MAX_BITS plus the extra
#: bits of a geometric chain, 16 * ceil(log2 b**2) + 16 = 144 at its largest
#: base 12 (``fourier._chain_product``; tested)
KERNEL_MAX_BITS = 4400


def _series_divisors(bits: int) -> tuple[tuple[int, int, int], ...]:
    """(e, k_j, k_(j+1)) for j = 1, 3, 5, ...: the divisors k_j = (2j-1)*2j
    of ``_cos_series`` in (subtracted, added) pairs, with its error bound
    e = 4j + 8 for a chain whose first zero term is t_j (e + 4 for t_(j+1)).

    At scale w = bits + g every term obeys t_j <= T_j < 2**w * (5/2)**j /
    (2j)!, so the table runs to the first pair after which the log2 of that
    bound is below 0: the chain stops within it for every ``bits`` up to the
    given one.  The log2 is summed in floats; were the table ever a pair
    short, ``_cos_series`` would raise, not return a short sum."""
    table, log2_t = [], bits + bits.bit_length() + 4
    while log2_t >= 0:
        j = 2 * len(table) + 1
        k_sub, k_add = (2 * j - 1) * 2 * j, (2 * j + 1) * (2 * j + 2)
        table.append((4 * j + 8, k_sub, k_add))
        log2_t += log2(6.25 / (k_sub * k_add))
    return tuple(table)


_COS_DIVISORS = _series_divisors(KERNEL_MAX_BITS)


def _cos_series(r: int, q: int, bits: int) -> tuple[int, int, int]:
    """(s, e, g): |s - 2**w * cos(2*pi*r/q)| < e at scale w = bits + g, for
    0 < r/q <= 1/4, from one floored Taylor chain at the upper argument; the
    g guard bits keep e < 2**(g-4) at every precision up to KERNEL_MAX_BITS
    (tested).  The chain takes two terms per pass, with the divisors of
    ``_COS_DIVISORS``; a ``bits`` beyond what that table covers raises
    ParameterError, never a short sum.

    U = 2*pi*r/q * 2**w is below x = ceil(r*tp_hi/q), tp_hi > 2*pi*2**w, by
    less than r/q + 1; cos is 1-Lipschitz, so 2**w * cos(x/2**w) is within 2
    of the true value, and as r/q <= 1/4, v = (x/2**w)**2 < 5/2.  With
    X2 = x*x >> w and k_j = (2j-1)*2j, t_0 = 2**w and t_j = ((t_(j-1)*X2)
    >> w) // k_j, the floor of t_(j-1)*X2 / (k_j*2**w), against the exact
    T_j = 2**w * v**j / (2j)!.  As 0 <= X2 <= x*x/2**w, by induction
    0 <= t_j <= T_j; as X2 > x*x/2**w - 1, d_j = T_j - t_j obeys
    d_j < 1 + d_(j-1)*v/k_j + T_(j-1)/(k_j*2**w), with T_(j-1)/2**w <= 5/4.
    So d_1 < 3/2, and for j >= 2, d_(j-1) < 4 gives d_j < 1 + 10/12 + 5/48
    < 2: every floored term is low by less than 4.  The chain stops at its
    first zero term t_n; s, the alternating sum of t_0 ... t_(n-1), is off
    by less than 4(n-1).  From j = 2 on T_j/T_(j-1) = v/k_j < 1, so the
    omitted alternating tail is at most T_n = d_n < 4.  With the argument,
    the error is < 4n + 2 < 4n + 8 = e."""
    g = bits.bit_length() + 4
    w = bits + g
    x = _ceil_div(r * two_pi_bounds(w)[1], q)
    x2 = x * x >> w
    t = s = 1 << w
    for e, k_sub, k_add in _COS_DIVISORS:
        t = (t * x2 >> w) // k_sub
        if not t:
            return s, e, g
        s -= t
        t = (t * x2 >> w) // k_add
        if not t:
            return s, e + 4, g
        s += t
    raise ParameterError(f"the cosine series at bits={bits} needs more than "
                         f"{2 * len(_COS_DIVISORS)} terms")


def niven_twice(p: int, q: int) -> int | None:
    """2*cos(2*pi*p/q) when cos(2*pi*p/q) is rational, else None; q > 0.

    The result is then one of -2, -1, 0, 1, 2: p/q in lowest terms has
    denominator 1, 2, 3, 4 or 6.
    """
    r = p % q
    return _EXACT_COS_TWELFTHS.get(12 * r // q) if 12 * r % q == 0 else None


def cos2pi_fixed(p: int, q: int, bits: int) -> tuple[int, int]:
    """Enclosure (lo, hi) of 2**bits * cos(2*pi*p/q) for q > 0.

    lo and hi are integers at most 2 apart; p/q need not be in lowest
    terms.  lo == hi, the value itself, exactly when the reduced
    denominator of p/q is 1, 2, 3, 4 or 6; otherwise hi > lo.
    """
    twice = niven_twice(p, q)
    if twice is not None:
        v = twice << (bits - 1)
        return v, v
    r = p % q
    # fold r/q into [0, 1/4], where cos(2*pi*x) is decreasing
    if 2 * r > q:
        r = q - r
    neg = 4 * r > q
    if neg:
        r, q = q - 2 * r, 2 * q          # 1/2 - r/q
    s, e, g = _cos_series(r, q, bits)
    lo, hi = (s - e) >> g, min(-(-(s + e) >> g), 1 << bits)
    return (-hi, -lo) if neg else (lo, hi)


def product_fixed(factors, one: int) -> tuple[int, int]:
    """Exact interval product of integer (lo, hi) factors, clamped to
    [-one, one]; ``one`` is 1 at the product of the factors' scales."""
    (lo, hi), *rest = factors
    for f_lo, f_hi in rest:
        cands = (lo * f_lo, lo * f_hi, hi * f_lo, hi * f_hi)
        lo, hi = min(cands), max(cands)
    return max(lo, -one), min(hi, one)


def cos2pi(q: Rational, bits: int | None = None) -> IntervalValue:
    """Certified enclosure of cos(2*pi*q) for rational q."""
    bits = precision_bits(bits)
    q = Fraction(q)
    lo, hi = cos2pi_fixed(q.numerator, q.denominator, bits)
    den = 1 << bits
    return IntervalValue(Fraction(lo, den), Fraction(hi, den))


def cos2pi_interval(a: Rational, b: Rational,
                    bits: int | None = None) -> IntervalValue:
    """Enclosure of the range of cos(2*pi*x) over the interval [a, b]."""
    bits = precision_bits(bits)
    a, b = Fraction(a), Fraction(b)
    if a > b:
        raise ValueError("interval endpoints out of order")
    va = cos2pi_fixed(a.numerator, a.denominator, bits)
    vb = cos2pi_fixed(b.numerator, b.denominator, bits)
    # the integers k in [2a, 2b] are the half-turns x = k/2 in [a, b]: the
    # range reaches 1 at an even k, -1 at an odd k, else the ends bound it
    k_min, k_max = -(-2 * a // 1), 2 * b // 1
    den = 1 << bits
    lo = -den if (k_min | 1) <= k_max else min(va[0], vb[0])      # an odd k
    hi = den if k_min + (k_min & 1) <= k_max else max(va[1], vb[1])  # even
    return IntervalValue(Fraction(lo, den), Fraction(hi, den))


LOG1M_DOMAIN_MAX = Fraction(15, 16)


def log1m(y: Rational, bits: int | None = None) -> IntervalValue:
    """Certified enclosure of log(1 - y) for rational 0 <= y <= 15/16.

    Series -sum_{j>=1} y^j / j with the tail after J terms bounded by
    y^(J+1) / ((J+1)(1-y)).
    """
    bits = precision_bits(bits)
    y = Fraction(y)
    if y == 0:
        return IntervalValue.point(0)
    if not 0 < y <= LOG1M_DOMAIN_MAX:
        raise ValueError(f"log1m argument {y} outside [0, {LOG1M_DOMAIN_MAX}]")
    one = 1 << bits
    y_lo, y_hi = _floor_scaled(y, bits), _ceil_scaled(y, bits)
    t_lo, t_hi = y_lo, y_hi
    s_lo, s_hi = y_lo, y_hi
    j = 1
    # ceil rounding has a fixed point near t ~ 1/(1-y) <= 16 ulp; exit
    # above it, the remainder bound absorbs what is left
    while t_hi > 64:
        j += 1
        t_lo, t_hi = (t_lo * y_lo) >> bits, _ceil_div(t_hi * y_hi, one)
        s_lo, s_hi = s_lo + t_lo // j, s_hi + _ceil_div(t_hi, j)
    # remainder of the omitted tail, evaluated with the upper endpoint
    rem = _ceil_div(t_hi * y_hi, (one - y_hi) * (j + 1))
    den = 1 << bits
    return IntervalValue(Fraction(-(s_hi + rem + 2 * j + 4), den),
                         Fraction(-s_lo, den))


def exp_neg(s: Rational, bits: int | None = None) -> IntervalValue:
    """Certified enclosure of exp(-s) for rational s >= 0."""
    bits = precision_bits(bits)
    s = Fraction(s)
    if s < 0:
        raise ValueError("exp_neg expects a non-negative argument")
    if s == 0:
        return IntervalValue.point(1)
    halvings = 0
    while s > Fraction(1, 2):
        s /= 2
        halvings += 1
    one = 1 << bits
    v_lo, v_hi = _floor_scaled(s, bits), _ceil_scaled(s, bits)
    # alternating series for exp(-v), v in (0, 1/2]: terms strictly decrease
    t_lo, t_hi = one, one
    r_lo, r_hi = one, one
    for j in count(1):
        t_lo, t_hi = (t_lo * v_lo >> bits) // j, -((-t_hi * v_hi >> bits) // j)
        if j & 1:
            r_lo, r_hi = r_lo - t_hi, r_hi - t_lo
        else:
            r_lo, r_hi = r_lo + t_lo, r_hi + t_hi
        if t_hi <= 2:
            r_lo, r_hi = r_lo - t_hi - 2, r_hi + t_hi + 2
            break
    r_lo = max(r_lo, 0)
    for _ in range(halvings):
        r_lo, r_hi = (r_lo * r_lo) >> bits, _ceil_div(r_hi * r_hi, one)
    den = 1 << bits
    return IntervalValue(Fraction(r_lo, den), Fraction(min(r_hi, den), den))


# ---------------------------------------------------------------------------
# Quadratic lower bound for the cosine near zero.
#
# The tail estimates rely on cos(2*pi*x) >= 1 - 49*x**2 holding on [0, omega].
# Since 1 - cos(u) <= u**2 / 2 for all u (alternating series),
# cos(2*pi*x) >= 1 - 2*pi^2*x^2 everywhere, and 2*pi^2 < 49 is one rational
# comparison against the certified upper bound of 2*pi.  The check runs
# once per process.
# ---------------------------------------------------------------------------

QUADRATIC_COS_COEFF = 49


@cache
def quadratic_cos_threshold() -> Fraction:
    """Largest argument magnitude at which the 1 - 49*x**2 bound is used;
    certifies it first by checking 2*pi^2 < 49."""
    _, tp_hi = two_pi_bounds(64)
    if Fraction(tp_hi * tp_hi, 2 << 128) > QUADRATIC_COS_COEFF:
        raise ValueError("cannot certify 2*pi^2 < 49")
    return Fraction(1, 8)
