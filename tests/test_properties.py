"""Property tests: the cosine kernel, atomic convolution, the transform and
``normalize``, checked on generated inputs against mpmath and against each
other."""

import os
from fractions import Fraction
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tau3.errors import SymmetryViolation
from tau3.fourier import ft_point
from tau3.intervals import (PRECISION_PROFILES, cos2pi, cos2pi_fixed,
                            cos2pi_interval)
from tau3.measures import MeasureExpr, convolve_atoms, normalize

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


KERNEL_BITS = (64, 96, 128, 256, 512, 1024)
NIVEN_DENOMINATORS = {1, 2, 3, 4, 6}


def digits_for(bits):
    """mpmath digits that resolve 2**-bits after reducing |p/q| <= 1e9."""
    return bits * 30103 // 100000 + 40


@PROPERTY_SETTINGS
@given(st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6),
       st.sampled_from(KERNEL_BITS))
def test_cos2pi_encloses_the_true_cosine(p, q, bits):
    x = F(p, q)
    iv = cos2pi(x, bits)
    with mp.workdps(digits_for(bits)):
        assert encloses(iv, cos_truth(x), digits_for(bits))


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
    assert iv.width <= m.mass() * F(1, 1 << (bits - 16))


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
    e = MeasureExpr(atoms=m.atoms, lebesgue=lebesgue, scale=scale)
    once = normalize(e)
    assert normalize(once) == once


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
    e = MeasureExpr(atoms=tuple(atoms))
    if lopsided:
        with pytest.raises(SymmetryViolation):
            normalize(e)
    else:
        assert normalize(e).atoms == tuple(sorted(merged.items()))
