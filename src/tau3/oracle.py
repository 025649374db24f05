"""Brute-force numerical cross-checks on uniform grids.

Everything here is plain floating point on purpose: the grid oracle is the
independent, low-tech counterpart that certified results are validated
against.  Grid convolution is the direct O(n*m) sum.  ``discretize``
reads a measure's atoms as integers off its lattice into one ``bincount``,
and ``grid_ft`` takes cosines at occupied cells only.

numpy is imported inside the functions that use it, not at module level,
so ``import tau3`` and every command but ``oracle-check`` start without
it; the first grid built loads it once for the process.  The ``np.ndarray``
annotations are never evaluated (``from __future__ import annotations``).
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
                       check_atom_budget, convolve_atoms, lattice_measure)

#: |t| * extent cap keeping cos arguments accurate to ~1e-12
FLOAT_SAFETY = float(1 << 20)


class GridMeasure(Value):
    """Finite measure sampled on origin + step * k, weights as floats."""

    __slots__ = ("origin", "step", "weights")

    def __init__(self, origin: Fraction, step: Fraction, weights: np.ndarray):
        import numpy as np
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "weights",
                           np.asarray(weights, dtype=np.float64))
        if step <= 0:
            raise ValueError("grid step must be positive")

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    def trimmed(self) -> "GridMeasure":
        """Drop zero-weight margins (canonical form for comparisons)."""
        nz = self.weights.nonzero()[0]
        if len(nz) == 0:
            return GridMeasure(Fraction(0), self.step, [0.0])
        lo, hi = int(nz[0]), int(nz[-1])
        return GridMeasure(self.origin + self.step * lo, self.step,
                           self.weights[lo:hi + 1].copy())


def discretize(expr: MeasureExpr, step, bernoulli_depth: int = 8,
               strict_snap: bool = True) -> GridMeasure:
    """Sample a finite-mass symbolic measure onto a uniform grid.

    The atoms are read as integers off the measure's lattice; the
    two-point-convolution part is replaced by its depth-fold partial
    expansion, read off ``bernoulli_lattice``.  Atoms must land on grid
    points when ``strict_snap`` is set; otherwise they snap to the nearest
    point, ties to even.  One ``np.bincount`` adds each cell's weights in
    input order, the ascending two-point points and then the atoms; mass
    is preserved up to float summation (well within 1e-12).  Raises
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
    # runs (den, total, [(p, w)]): points p/den ascending, weights w/total
    runs = []
    if expr.bernoulli is not None:
        depth = min(bernoulli_depth, expr.bernoulli.length or bernoulli_depth)
        den, counts = bernoulli_lattice(expr.bernoulli, depth)
        runs.append((den, 1 << depth, sorted(counts.items())))
    runs.append(expr._lattice)
    num, dnm = step.numerator, step.denominator
    index, weight = [], []
    for den, total, pairs in runs:
        # int / int rounds correctly: each weight is float(w/total)
        weight += [w / total for _, w in pairs]
        d = den * num  # p/den = (i + r/d) * step
        q, r = divmod(dnm, d)
        if not r:  # the whole run lies on the grid
            index += [p * q for p, _ in pairs]
            continue
        for p, _ in pairs:
            i, r = divmod(p * dnm, d)
            if r:
                if strict_snap:
                    raise SnapError(f"atom at {Fraction(p, den)} is off the "
                                    f"grid of step {step}")
                if 2 * r > d or (2 * r == d and i % 2):  # round half to even
                    i += 1
            index.append(i)
    if not index:
        return GridMeasure(Fraction(0), step, [0.0])
    import numpy as np
    lo = min(index)
    return GridMeasure(step * lo, step, np.bincount(np.subtract(index, lo),
                                                    weights=weight))


def grid_convolve(a: GridMeasure, b: GridMeasure) -> GridMeasure:
    """Convolution of two grid measures with equal steps (direct sum)."""
    import numpy as np
    if a.step != b.step:
        raise StepMismatch(f"steps differ: {a.step} vs {b.step}")
    return GridMeasure(a.origin + b.origin, a.step,
                       np.convolve(a.weights, b.weights))


def grid_ft(g: GridMeasure, t: float) -> float:
    """Direct transform value sum_j w_j * cos(2*pi*x_j*t) at a float t,
    summed over occupied cells; the extent guard reads the dense ends."""
    import numpy as np
    t = float(t)
    n = len(g.weights)
    x0, h = np.float64(g.origin), np.float64(g.step)
    extent = max(abs(x0), abs(x0 + h * (n - 1))) if n else 0.0
    if abs(t) * extent > FLOAT_SAFETY:
        raise RangeError(
            f"|t|*extent = {abs(t) * extent:.3g} exceeds the float "
            f"safety bound {FLOAT_SAFETY:.3g}")
    k = g.weights.nonzero()[0]
    return float(np.sum(g.weights[k]
                        * np.cos(2.0 * math.pi * (x0 + h * k) * t)))


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
    # dyadic coefficients keep the commensurate grid step coarse enough
    # for dense arrays: the finest step is 2**-(k0+depth)
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
    import numpy as np
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
            if not np.array_equal(gs.trimmed().weights,
                                  conv.trimmed().weights):
                diff = np.abs(gs.trimmed().weights - conv.trimmed().weights)
                failures.append(
                    f"case {i}: delta convolution mismatch, max diff "
                    f"{diff.max()!r}")
    return OracleReport(cases, contained, convolved, atom_exact,
                        tuple(failures))


def _finest_step(seq) -> Fraction:
    return Fraction(1, math.lcm(*(seq.c(k).denominator
                                  for k in range(1, len(seq.values) + 1))))
