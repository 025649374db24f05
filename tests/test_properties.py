"""Property tests: atomic convolution, the transform and ``normalize``,
checked on generated measures against mpmath and against each other."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tau3.errors import SymmetryViolation
from tau3.fourier import ft_point
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
