"""Brute-force numerical cross-checks on uniform grids.

Everything here is plain floating point and the standard library on
purpose: the grid oracle is the independent, low-tech counterpart that
certified results are validated against.  A grid is a dict from a cell
index to its float weight, holding the occupied cells only.
``discretize`` reads a measure's atoms as integers off its lattice,
``grid_convolve`` is the direct double loop over occupied cells and
``grid_ft`` one ``math.fsum`` over them.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional

from .errors import (NotPointwiseEvaluable, ParameterError, RangeError,
                     SnapError, StepMismatch, Value)
from .fourier import ft_point
from .measures import (CoefficientSequence, MeasureExpr, bernoulli_lattice,
                       check_atom_budget, coefficient_lattice, convolve_atoms,
                       lattice_measure)

#: |t| * extent cap: cos arguments stay below 2*pi*2**20, where floats
#: lie 2**-30 (about 1e-9) apart
FLOAT_SAFETY = float(1 << 20)


class GridMeasure(Value):
    """Finite measure on the grid step * i: ``cells`` maps an index i to
    the float weight at i * step, for the cells given only."""

    __slots__ = ("step", "cells")

    def __init__(self, step: Fraction, cells: dict[int, float]):
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "cells", dict(cells))
        if step <= 0:
            raise ValueError("grid step must be positive")

    @property
    def mass(self) -> float:
        return math.fsum(self.cells.values())


def discretize(expr: MeasureExpr, step, bernoulli_depth: int = 8,
               strict_snap: bool = True) -> GridMeasure:
    """Sample a finite-mass symbolic measure onto a uniform grid.

    The atoms are read as integers off the measure's lattice; the
    two-point-convolution part is replaced by its depth-fold partial
    expansion, read off ``bernoulli_lattice``.  Atoms must land on grid
    points when ``strict_snap`` is set; otherwise they snap to the nearest
    point, ties to even.  Each cell adds its weights in input order, the
    two-point points and then the ascending atoms; the two-point weights
    are k/2**depth, so their sums are exact in any order, and mass is
    preserved up to float summation (well within 1e-12).  Raises
    ParameterError for a step <= 0, or a depth < 1 with a two-point part.
    """
    step = step if type(step) is Fraction else Fraction(step)
    if step <= 0:
        raise ParameterError(f"grid step must be positive, got {step}")
    if expr.bernoulli is not None and bernoulli_depth < 1:
        raise ParameterError(
            f"bernoulli depth must be at least 1, got {bernoulli_depth}")
    if expr.lebesgue:
        raise NotPointwiseEvaluable(
            "the Lebesgue component cannot be discretized without a window")
    # runs (den, total, [(p, w)]): points p/den, weights w/total
    runs = []
    if expr.bernoulli is not None:
        depth = min(bernoulli_depth, expr.bernoulli.length or bernoulli_depth)
        den, counts = bernoulli_lattice(expr.bernoulli, depth)
        runs.append((den, 1 << depth, counts.items()))
    runs.append(expr._lattice)
    num, dnm = step.numerator, step.denominator
    cells: dict[int, float] = {}
    get = cells.get
    for den, total, pairs in runs:
        # int / int rounds correctly: each weight is float(w/total)
        d = den * num  # p/den = (i + r/d) * step
        q, r = divmod(dnm, d)
        if not r:  # the whole run lies on the grid
            for p, w in pairs:
                i = p * q
                cells[i] = get(i, 0.0) + w / total
            continue
        for p, w in pairs:
            i, r = divmod(p * dnm, d)
            if r:
                if strict_snap:  # name the lowest point off the grid
                    p = min(p for p, _ in pairs if p * dnm % d)
                    raise SnapError(f"atom at {Fraction(p, den)} is off the "
                                    f"grid of step {step}")
                if 2 * r > d or (2 * r == d and i % 2):  # round half to even
                    i += 1
            cells[i] = get(i, 0.0) + w / total
    return GridMeasure(step, cells)


def grid_convolve(a: GridMeasure, b: GridMeasure) -> GridMeasure:
    """Convolution of two grid measures with equal steps (direct sum)."""
    if a.step != b.step:
        raise StepMismatch(f"steps differ: {a.step} vs {b.step}")
    cells: dict[int, float] = {}
    get = cells.get
    for i, v in a.cells.items():
        for j, w in b.cells.items():
            k = i + j
            cells[k] = get(k, 0.0) + v * w
    return GridMeasure(a.step, cells)


def grid_ft(g: GridMeasure, t: float) -> float:
    """Direct transform value sum_i w_i * cos(2*pi*i*step*t) at a finite
    float t, summed over occupied cells; the extent guard reads the lowest
    and highest stored index, zero-weight cells included."""
    t = float(t)
    if not math.isfinite(t):
        raise ParameterError(f"t must be finite, got {t}")
    cells = g.cells
    h = float(g.step)
    extent = h * max(-min(cells), max(cells)) if cells else 0.0
    if abs(t) * extent > FLOAT_SAFETY:
        raise RangeError(
            f"|t|*extent = {abs(t) * extent:.3g} exceeds the float "
            f"safety bound {FLOAT_SAFETY:.3g}")
    a, cos = 2.0 * math.pi * h * t, math.cos
    return math.fsum([w * cos(a * i) for i, w in cells.items() if w])


# ---------------------------------------------------------------------------
# Randomized agreement suite (used by tests and the oracle-check command)
# ---------------------------------------------------------------------------

class OracleReport(Value):
    __slots__ = ("cases", "containment_checked", "convolution_checked",
                 "atom_exact_checked", "failures")

    def __init__(self, cases: int, containment_checked: int,
                 convolution_checked: int, atom_exact_checked: int,
                 failures: tuple[str, ...]):
        object.__setattr__(self, "cases", cases)
        object.__setattr__(self, "containment_checked", containment_checked)
        object.__setattr__(self, "convolution_checked", convolution_checked)
        object.__setattr__(self, "atom_exact_checked", atom_exact_checked)
        object.__setattr__(self, "failures", failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def _random_atom_measure(rng, max_atoms: int = 12,
                         dyadic: bool = False) -> MeasureExpr:
    denoms = (1, 2, 4, 8) if dyadic else (1, 2, 3, 4, 6, 9, 27)
    pden, wden = (8, 8) if dyadic else (108, 840)  # lcms of the denominators
    counts = {}
    for _ in range(rng.randint(1, max_atoms)):
        p = rng.randint(0, 24) * (pden // rng.choice(denoms))
        w = rng.randint(1, 8) * (wden // (rng.choice((2, 4, 8)) if dyadic
                                          else rng.randint(1, 8)))
        counts[p] = counts.get(p, 0) + w
        if p:
            counts[-p] = counts.get(-p, 0) + w
    return lattice_measure(pden, wden, counts)


def _random_truncated_bernoulli(rng, max_depth: int = 12) -> MeasureExpr:
    # dyadic coefficients keep the commensurate grid step coarse: the
    # finest step is 2**-(k0+depth)
    depth = rng.randint(2, max_depth)
    k0 = rng.randint(0, 2)
    num = rng.choice((1, 3))
    values = tuple(Fraction(num, 1 << (k0 + j + 2)) for j in range(depth))
    return MeasureExpr(bernoulli=CoefficientSequence(
        "explicit", values=values, scale=Fraction(1, rng.choice((1, 2)))))


def oracle_suite(cases: int = 1000, seed: int = 20240, depth: int = 12,
                 bits: Optional[int] = None) -> OracleReport:
    """Randomized cross-validation of grids against certified evaluation.

    Per case: a random atomic or truncated-convolution measure, a random
    rational argument |t| <= 100; checks the float transform lies inside
    the certified interval (inflated by float slack), the convolution
    theorem on grids, and exact agreement of delta-atom convolution with
    the symbolic one.  Raises ParameterError unless cases >= 1 and
    depth >= 2, and BudgetExceeded unless 2**depth atoms fit the default
    atom budget.
    """
    if cases < 1:
        raise ParameterError(f"cases must be at least 1, got {cases}")
    if depth < 2:
        raise ParameterError(f"depth must be at least 2, got {depth}")
    check_atom_budget(depth)
    rng = random.Random(seed)
    contained = convolved = atom_exact = 0
    failures = []
    slack = 1e-9
    for i in range(cases):
        mode = i % 3
        if mode == 0:
            expr = _random_atom_measure(rng)
            step = Fraction(1, 108)
        elif mode == 1:
            expr = _random_truncated_bernoulli(rng, depth)
            step = None
        else:
            expr = _random_atom_measure(rng, max_atoms=6, dyadic=True)
            step = Fraction(1, 16)
        t = Fraction(rng.randint(-10000, 10000), rng.randint(1, 100))
        if abs(t) > 100:
            t = t % 100

        iv = ft_point(expr, t, bits=bits)
        if step is None:
            # evaluate the truncated convolution directly at full depth
            seq = expr.bernoulli
            g = discretize(expr, _finest_step(seq),
                           bernoulli_depth=len(seq.values))
        else:
            g = discretize(expr, step)
        try:
            val = grid_ft(g, float(t))
        except RangeError:
            continue
        contained += 1
        if not (float(iv.lo) - slack <= val <= float(iv.hi) + slack):
            failures.append(
                f"case {i}: grid value {val!r} outside "
                f"[{float(iv.lo)!r}, {float(iv.hi)!r}] at t={t}")

        if mode == 2:
            other = _random_atom_measure(rng, max_atoms=6, dyadic=True)
            gb = discretize(other, step)
            conv = grid_convolve(g, gb)
            lhs = grid_ft(conv, float(t))
            rhs = val * grid_ft(gb, float(t))
            convolved += 1
            if abs(lhs - rhs) > 1e-9 * max(1.0, abs(rhs)):
                failures.append(
                    f"case {i}: convolution theorem off by {abs(lhs-rhs)!r}")
            gs = discretize(convolve_atoms(expr, other), step)
            atom_exact += 1
            if gs.cells != conv.cells:
                diff = max(abs(gs.cells.get(k, 0.0) - conv.cells.get(k, 0.0))
                           for k in gs.cells.keys() | conv.cells.keys())
                failures.append(
                    f"case {i}: delta convolution mismatch, max diff "
                    f"{diff!r}")
    return OracleReport(cases, contained, convolved, atom_exact,
                        tuple(failures))


def _finest_step(seq) -> Fraction:
    return Fraction(1, coefficient_lattice(seq, len(seq.values))[0])
