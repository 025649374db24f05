"""Independent mpmath references for Fourier transforms of catalog measures.

Nothing here imports tau3.  A measure is described by ``Desc``: a
symmetric atom list plus at most one two-point-convolution sequence whose
coefficients are ``scale * 3**-k!`` (factorial), ``scale * 3**-k``
(geometric) or ``scale * values[k-1]`` (explicit).  An argument is
``(s, e)`` for ``t = s * 3**e``; a rational argument has ``e = 0``.

Fractional parts of huge products come from exact modular powers, so
``3**(8!)`` is never expanded.  Each reference comes with its own error
bound: rounding of every cosine at the working precision (``bits + 64``)
plus a bound on the product factors left out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, log2

import mpmath

#: beyond this exponent a negative power of 3 is formed in mpmath, not exactly
EXACT_EXPONENT_MAX = 4000
GUARD_BITS = 64
#: certified window supremum of the default 1500-split scan, frozen by the
#: acceptance tests; every scan the benchmark sees must match it within 1e-6
FROZEN_WINDOW_SUP = 0.508017853124695


@dataclass(frozen=True)
class Desc:
    atoms: tuple[tuple[Fraction, Fraction], ...] = ()
    kind: str | None = None          # "factorial", "geometric", "explicit"
    scale: Fraction = Fraction(1)
    values: tuple[Fraction, ...] = ()

    @property
    def mass(self) -> Fraction:
        return sum((w for _, w in self.atoms), Fraction(0)) + (
            1 if self.kind else 0)


def _mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _reduced(m: Fraction, d: int):
    """Fractional part of m * 3**d, and the product itself if d < 0."""
    p, q = m.numerator, m.denominator
    if d >= 0:
        return _mpf(Fraction((p * pow(3, d, q)) % q, q)), None
    if -d <= EXACT_EXPONENT_MAX:
        v = m / Fraction(3) ** (-d)
        return _mpf(v % 1), _mpf(v)
    v = mpmath.mpf(p) / q * mpmath.power(3, d)
    return v, v


def ft_reference(desc: Desc, s: Fraction, e: int, bits: int,
                 per_mass: bool = False):
    """(value, error bound) of the transform at t = s * 3**e, as mpf.

    With ``per_mass`` both are divided by the total mass of the measure.
    """
    prec = bits + GUARD_BITS
    with mpmath.workprec(prec):
        two_pi = 2 * mpmath.pi
        ulp = mpmath.ldexp(1, 6 - prec)        # 64 units per cosine
        mass = max(1, float(desc.mass))
        terms = 0
        total = mpmath.mpf(0)
        for p, w in desc.atoms:
            if p == 0:
                total += _mpf(w)
                continue
            frac, _ = _reduced(abs(p) * s, e)
            total += _mpf(w) * mpmath.cos(two_pi * frac)
            terms += 1
        scale = _mpf(1 / desc.mass) if per_mass else mpmath.mpf(1)
        if desc.kind is None:
            return total * scale, ulp * (terms + 1) * mass * scale

        prod = mpmath.mpf(1)
        tail_err = mpmath.mpf(0)
        if desc.kind == "explicit":
            for v in desc.values:
                frac, _ = _reduced(desc.scale * v * s, e)
                prod *= mpmath.cos(two_pi * frac)
                terms += 1
        else:
            small = mpmath.ldexp(1, -(prec // 2 + 4))
            k = 0
            while True:
                k += 1
                neg = factorial(k) if desc.kind == "factorial" else k
                frac, value = _reduced(desc.scale * s, e - neg)
                if value is not None and value < small:
                    # later values shrink by >= 1/3 per step, so the factors
                    # left out multiply to >= 1 - 2 pi^2 value^2 * 9/8
                    tail_err = 23 * value * value
                    break
                prod *= mpmath.cos(two_pi * frac)
                terms += 1
        return ((total + prod) * scale,
                (ulp * (terms + 1) * mass + tail_err) * scale)


def encloses(lo: Fraction, hi: Fraction, ref, err, bits: int) -> bool:
    """True when [lo, hi] meets [ref - err, ref + err].

    The endpoints are converted at the reference precision, so a few units
    of its last place are added on each side for the conversion.
    """
    prec = bits + GUARD_BITS
    with mpmath.workprec(prec):
        slack = err + mpmath.ldexp(1, 8 - prec)
        return _mpf(lo) <= ref + slack and ref - slack <= _mpf(hi)


def bits_lost(width: Fraction, bits: int) -> float:
    """min(bits, max(0, bits + log2(width))); an exact result loses none."""
    if width == 0:
        return 0.0
    return min(bits, max(0.0, bits + log2(width.numerator)
                         - log2(width.denominator)))
