"""Convergence verdicts and completion classification for measure topologies.

The topology induced by a symmetric probability measure makes a sequence
t_n converge to zero exactly when the transform values FT(t_n) tend to 1.
``test_sequence`` certifies such convergence questions for the catalog
families; ``classify_completion`` names the completion of the line in that
topology for catalog measures.

Sequences of the shape lam * base**(n!) against the matching factorial
two-point convolution admit uniform single-factor bounds; the base-3
geometric convolution admits a three-factor window bound whose supremum
over one period is certified once by branch-and-bound and cached.  The
branch-and-bound bounds each box to second order from the window product
and its derivative at the midpoint, in integer fixed point on the
``cos2pi_fixed`` kernel with products by ``intervals.product_fixed``, and
an a-priori bound on the second derivative.

Verdicts are honest finite computations: a ConvergesTo1 or BoundedAwayFrom1
conclusion records the index it starts from and whether the reasoning
extends beyond the tested horizon (a family-level bound) or covers only the
tested indices.
"""

from __future__ import annotations

import heapq
from enum import Enum
from fractions import Fraction
from functools import cache
from math import factorial, gcd
from typing import Optional

from .errors import (BudgetExceeded, NotPointwiseEvaluable, ParameterError,
                     TailNotCertified, UndeterminedError,
                     UnsupportedArgument, Value)
from .intervals import (IntervalValue, cos2pi, cos2pi_fixed, precision_bits,
                        product_fixed, two_pi_bounds)
from .fourier import (ArgumentSpec, ExactRational, ScaledPower, atom_part,
                      ft_point)
from .measures import (EXPLICIT, FACTORIAL, GEOMETRIC, MeasureExpr,
                       plan_mass, support_lattice)

DEFAULT_TOLERANCE = Fraction(1, 10 ** 6)
#: split cap of ``f_gap_scan``, whose stop rule ends it after 62 splits
SCAN_SPLIT_CAP = 1500
WINDOW_THRESHOLD = 9
WINDOW_SCAN_BITS = 96


class SequenceSpec(Value):
    """Family of test arguments t_n; strictly increasing by construction.

    family "factorial": t_n = lam * base**(n!)
    family "geometric": t_n = lam * base**n
    family "explicit":  the given strictly increasing positive rationals,
                        indexed from 1
    """

    __slots__ = ("family", "lam", "base", "n_min", "n_max", "values")

    def __init__(self, family: str, lam: Fraction = Fraction(1),
                 base: int = 3, n_min: int = 1, n_max: int = 1,
                 values: tuple[Fraction, ...] = ()):
        lam = Fraction(lam)
        values = tuple(Fraction(v) for v in values)
        if family in (FACTORIAL, GEOMETRIC):
            if lam <= 0:
                raise ValueError("sequence scale must be positive")
            if base < 2:
                raise ValueError("sequence base must be at least 2")
            if n_min < 1 or n_min > n_max:
                raise ValueError("need 1 <= n_min <= n_max")
        elif family == EXPLICIT:
            if not values:
                raise ValueError("explicit sequence must be non-empty")
            if any(v <= 0 for v in values):
                raise ValueError("explicit sequence terms must be positive")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ValueError("sequence terms must be strictly increasing")
            n_min, n_max = 1, len(values)
        else:
            raise ValueError(f"unknown sequence family {family!r}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "n_min", n_min)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "values", values)

    def indices(self) -> range:
        return range(self.n_min, self.n_max + 1)

    def exponent(self, n: int) -> int:
        return factorial(n) if self.family == FACTORIAL else n

    def argument(self, n: int) -> ArgumentSpec:
        if self.family == EXPLICIT:
            return ExactRational(self.values[n - 1])
        return ScaledPower(self.lam, self.base, self.exponent(n))

    def describe(self, n: int) -> str:
        if self.family == EXPLICIT:
            return str(self.values[n - 1])
        sym = f"{n}!" if self.family == FACTORIAL else str(n)
        if self.lam == 1:
            return f"{self.base}^{sym}"
        return f"({self.lam})*{self.base}^{sym}"

    def family_describe(self) -> str:
        if self.family == EXPLICIT:
            return "explicit[" + ",".join(str(v) for v in self.values) + "]"
        sym = "n!" if self.family == FACTORIAL else "n"
        return (f"t_n=({self.lam})*{self.base}^{sym}, "
                f"n={self.n_min}..{self.n_max}")


class Conclusion(Enum):
    CONVERGES_TO_1 = "ConvergesTo1"
    BOUNDED_AWAY_FROM_1 = "BoundedAwayFrom1"
    UNDETERMINED = "Undetermined"


class ConvergenceVerdict(Value):
    """Per-index certified enclosures plus the drawn conclusion."""

    __slots__ = ("per_n", "conclusion", "gap", "from_index", "reason",
                 "beyond_horizon", "claim")

    def __init__(self, per_n: tuple[tuple[int, str, IntervalValue], ...],
                 conclusion: Conclusion, gap: Optional[Fraction] = None,
                 from_index: Optional[int] = None,
                 reason: Optional[str] = None, beyond_horizon: bool = False,
                 claim: str = ""):
        if conclusion is Conclusion.BOUNDED_AWAY_FROM_1:
            if gap is None or gap <= 0:
                raise ValueError("bounded-away verdicts need a positive gap")
            start = from_index if from_index is not None else -10**9
            for n, _, iv in per_n:
                if n >= start and iv.hi > 1 - gap:
                    raise ValueError(
                        f"per-index enclosure at n={n} violates the gap")
        object.__setattr__(self, "per_n", per_n)
        object.__setattr__(self, "conclusion", conclusion)
        object.__setattr__(self, "gap", gap)
        object.__setattr__(self, "from_index", from_index)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "beyond_horizon", beyond_horizon)
        object.__setattr__(self, "claim", claim)


def _normalized_ft(expr: MeasureExpr, t, mass: Fraction,
                   bits: int) -> IntervalValue:
    iv = ft_point(expr, t, bits=bits)
    return iv.scale(Fraction(1) / mass) if mass != 1 else iv


# ---------------------------------------------------------------------------
# Three-factor window bound for the base-3 geometric family
# ---------------------------------------------------------------------------

# The window factors are cos(2*pi*c/d) for these divisors d.
_WINDOW_DIVISORS = (1, 3, 9)


def _window_point(p: int, q: int, bits: int) -> tuple:
    """Kernel enclosures of the window factors at c = p/q, scale 2**bits."""
    return tuple(cos2pi_fixed(p, d * q, bits) for d in _WINDOW_DIVISORS)


def window_product(c: Fraction, bits: Optional[int] = None) -> IntervalValue:
    """Enclosure of cos(2*pi*c) * cos(2*pi*c/3) * cos(2*pi*c/9)."""
    bits = precision_bits(bits)
    factors = _window_point(*Fraction(c).as_integer_ratio(), bits)
    one = 1 << 3 * bits
    lo, hi = product_fixed(factors, one)
    return IntervalValue(Fraction(lo, one), Fraction(hi, one))


def _box_bound(p: int, e: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, bound) at scale 2**(3*bits): [lo, hi] encloses the window
    product f at m = p/2**e, and bound >= |f| on [m - h, m + h], h = 2**-e.

    By Taylor's theorem |f(x)| <= |f(m)| + |f'(m)|*h + M*h**2/2 there when
    M >= sup |f''|.  By product to sum f(c) is 1/4 of the
    sum of cos(2*pi*w*c) over w in {13, 11, 7, 5}/9, so M = 91*(2*pi)**2/81
    serves, as 13**2 + 11**2 + 7**2 + 5**2 = 4*91.  f'(m) is -(2*pi/9) times
    the sum over d of (9/d) * sin(2*pi*m/d) * the other two factors, and
    sin(2*pi*m/d) = cos(2*pi*(4p - d*q)/(4*d*q)) for q = 2**e.  Products
    are exact (``product_fixed``); the terms in 2*pi are rounded up.
    """
    q, one = 1 << e, 1 << 3 * bits
    cos = _window_point(p, q, bits)
    lo, hi = product_fixed(cos, one)
    d_lo = d_hi = 0
    for i, d in enumerate(_WINDOW_DIVISORS):
        sin = cos2pi_fixed(4 * p - d * q, 4 * d * q, bits)
        t_lo, t_hi = product_fixed((sin, *cos[:i], *cos[i + 1:]), one)
        d_lo, d_hi = d_lo + 9 // d * t_lo, d_hi + 9 // d * t_hi
    tp = two_pi_bounds(bits)[1]                   # > 2*pi * 2**bits
    # ceilings of |f'(m)|*h = (2*pi/9)*|sum|*2**-e and of M*h**2/2
    first = -(-max(-d_lo, d_hi) * tp // (9 << (bits + e)))
    second = -(-(91 * tp * tp << bits) // (162 << 2 * e))
    return lo, hi, max(-lo, hi) + first + second


class WindowScan(Value):
    """Certified supremum of |window_product| over the period (1, 3]:
    ``sup`` encloses it, ``peak`` is the subinterval attaining the upper
    bound and ``splits`` the splits the scan made before it stopped."""

    __slots__ = ("sup", "peak", "splits")

    def __init__(self, sup: IntervalValue, peak: tuple[Fraction, Fraction],
                 splits: int):
        object.__setattr__(self, "sup", sup)
        object.__setattr__(self, "peak", peak)
        object.__setattr__(self, "splits", splits)

    @property
    def gap(self) -> Fraction:
        """Certified distance of the supremum below 1."""
        return 1 - self.sup.hi


def f_gap_scan() -> WindowScan:
    """Branch-and-bound upper bound for sup of |window_product| on (1, 3].

    Each box is bounded from its midpoint alone, to second order
    (``_box_bound``, the centered form of R. E. Moore's *Interval
    Analysis*), in integer fixed point at ``WINDOW_SCAN_BITS``.  From 16
    boxes on [1, 3], the box with the largest bound is split until that
    bound is within 2**-48 of the best lower bound on |f| at a midpoint,
    after 62 splits, or at the ``SCAN_SPLIT_CAP``.  Bounds and the stop
    test are exact integers.  Raises UndeterminedError if the bound stays
    at or above 1.
    """
    bits = WINDOW_SCAN_BITS
    one = 1 << 3 * bits
    boxes = []
    best_lo = 0

    def push(p: int, e: int):
        nonlocal best_lo
        lo, hi, bound = _box_bound(p, e, bits)
        best_lo = max(best_lo, lo, -hi)
        heapq.heappush(boxes, (-bound, p, e))

    for p in range(17, 48, 2):                # midpoints (16 + 2i + 1)/16
        push(p, 4)
    splits = 0
    while splits < SCAN_SPLIT_CAP:
        neg_bound, p, e = boxes[0]
        if (-neg_bound - best_lo) << 48 <= one:   # within 2**-48 of best_lo
            break
        heapq.heappop(boxes)
        push(2 * p - 1, e + 1)
        push(2 * p + 1, e + 1)
        splits += 1
    neg_bound, p, e = boxes[0]
    peak = (Fraction(p - 1, 1 << e), Fraction(p + 1, 1 << e))
    sup_hi = Fraction(-((neg_bound << 64) // one), 1 << 64)
    if sup_hi >= 1:
        raise UndeterminedError(
            f"window supremum not certified below 1 after {splits} splits")
    return WindowScan(IntervalValue(min(Fraction(best_lo, one), sup_hi),
                                    sup_hi),
                      peak, splits)


@cache
def cached_window_scan() -> WindowScan:
    """The window scan, certified once per process."""
    return f_gap_scan()


# ---------------------------------------------------------------------------
# Sequence testing
# ---------------------------------------------------------------------------

def _is_power_of(q: int, base: int) -> bool:
    while q % base == 0:
        q //= base
    return q == 1


def _atoms_witness_compatible(expr: MeasureExpr, lam: Fraction,
                              base: int) -> bool:
    """Each atom a has denominator(a * lam) a power of the base, so the atom
    factors are exactly 1 for large n along t_n = lam * base**(n!)."""
    return all(_is_power_of((Fraction(p) * lam).denominator, base)
               for p, _ in expr.atoms if p != 0)


def _suffix_start(per_n, holds, min_len: int) -> Optional[int]:
    """First index from which the enclosures, at least ``min_len`` of them,
    satisfy ``holds``; None if no such suffix does."""
    ivs = [iv for _, _, iv in per_n]
    return next((per_n[i][0] for i in range(len(ivs) - min_len + 1)
                 if holds(ivs[i:])), None)


def _rises_to_1(tol: Fraction):
    """Suffix test: lower bounds at least 1 - tol and non-decreasing."""
    return lambda ivs: (all(iv.lo >= 1 - tol for iv in ivs)
                        and all(b.lo >= a.lo for a, b in zip(ivs, ivs[1:])))


def _per_index(seq: SequenceSpec, value):
    """(per_n, refusal): (n, description, value(n)) for the indices of the
    sequence before the first whose evaluation is refused, and that refusal
    as "<Exception>: <message>", or None when no index is refused."""
    per_n = []
    for n in seq.indices():
        try:
            iv = value(n)
        except (TailNotCertified, UnsupportedArgument) as exc:
            return tuple(per_n), f"{type(exc).__name__}: {exc}"
        per_n.append((n, seq.describe(n), iv))
    return tuple(per_n), None


def _refused(per_n, refusal: str) -> ConvergenceVerdict:
    """The Undetermined verdict on the enclosures before a refused index."""
    return ConvergenceVerdict(
        per_n, Conclusion.UNDETERMINED, reason=refusal,
        claim="evaluation failed before a conclusion was reached")


def _conclude_generic(per_n, tol: Fraction) -> ConvergenceVerdict:
    # a finite-horizon pattern needs at least two indices of evidence
    start = _suffix_start(per_n, _rises_to_1(tol), 2)
    if start is not None:
        return ConvergenceVerdict(
            per_n, Conclusion.CONVERGES_TO_1, from_index=start,
            claim=(f"certified lower bounds exceed 1-{tol} and are "
                   f"non-decreasing for tested n >= {start}"))
    start = _suffix_start(
        per_n, lambda ivs: max(iv.hi for iv in ivs) <= 1 - tol, 2)
    if start is not None:
        worst = max(iv.hi for n, _, iv in per_n if n >= start)
        return ConvergenceVerdict(
            per_n, Conclusion.BOUNDED_AWAY_FROM_1, gap=1 - worst,
            from_index=start,
            claim=(f"certified upper bounds stay below {float(worst):.6g}"
                   f" for tested n >= {start} (tested horizon only)"))
    return ConvergenceVerdict(
        per_n, Conclusion.UNDETERMINED,
        reason="no certified pattern at the requested tolerance",
        claim="enclosures neither approach 1 nor stay uniformly below it")


def test_sequence(expr: MeasureExpr, seq: SequenceSpec, tol=DEFAULT_TOLERANCE,
                  bits: Optional[int] = None) -> ConvergenceVerdict:
    """Certified convergence verdict for FT(t_n) -> 1 along the sequence.

    The measure must have finite mass; enclosures are normalized to total
    mass 1.  Family-level reasoning (uniform single-factor bounds, window
    bounds) is applied for the structured catalog pairs, otherwise the
    verdict is drawn from the per-index enclosures alone.  On every route
    an index whose evaluation is refused ends the enclosures, and its
    reason names the refusal; the verdict is Undetermined unless a uniform
    single-factor bound holds without them.  Raises ParameterError unless
    0 < tol < 1.
    """
    bits = precision_bits(bits)
    tol = Fraction(tol)
    if not 0 < tol < 1:
        raise ParameterError(f"tolerance {tol} outside (0, 1)")
    if expr.lebesgue:
        raise NotPointwiseEvaluable(
            "sequence testing needs a finite-mass measure")
    mass = plan_mass(expr)
    if mass <= 0:
        raise ParameterError("measure has no mass")

    bern = expr.bernoulli
    if (bern is not None and bern.kind == FACTORIAL
            and seq.family == FACTORIAL and bern.base == seq.base):
        return _test_factorial_matched(expr, seq, tol, mass, bits)
    if (bern is not None and bern.kind == GEOMETRIC and bern.base == 3
            and seq.family in (FACTORIAL, GEOMETRIC) and seq.base == 3):
        # the three-factor window bound positions arguments in base 3;
        # other bases go through the generic per-index route
        return _test_window_bounded(expr, seq, tol, mass, bits)

    per_n, refusal = _per_index(
        seq, lambda n: _normalized_ft(expr, seq.argument(n), mass, bits))
    if refusal is not None:
        return _refused(per_n, refusal)
    return _conclude_generic(per_n, tol)


def _test_factorial_matched(expr, seq, tol, mass, bits) -> ConvergenceVerdict:
    """Measure and sequence share the factorial family and base.

    The factor at k = n has constant argument m = scale * lam for every n,
    which yields either a uniform single-factor bound (fractional m away
    from 0 and 1/2) or, for integer m with compatible atoms, a certified
    convergence claim whose tail bound improves monotonically in n.  The
    uniform bound holds at every n, evaluated or not, so there a refused
    index only ends the enclosures; elsewhere it ends in Undetermined.
    """
    bern = expr.bernoulli
    m = bern.scale * seq.lam
    frac = m % 1

    per_n, refusal = _per_index(
        seq, lambda n: _normalized_ft(expr, seq.argument(n), mass, bits))
    if frac not in (0, Fraction(1, 2)):
        if refusal is not None:
            refusal = f"per-n ends at n={seq.n_min + len(per_n)}: {refusal}"
        bmag = cos2pi(frac, bits).mag_hi()
        # the analytic uniform gap, additionally clipped by the per-index
        # enclosures so one rounding ulp can never violate the verdict
        # contract
        gap = min([(1 - bmag) / mass] + [1 - iv.hi for _, _, iv in per_n])
        if gap <= 0:
            return ConvergenceVerdict(
                per_n, Conclusion.UNDETERMINED,
                reason="single-factor bound not separated from 1",
                claim="factor enclosure too wide")
        return ConvergenceVerdict(
            per_n, Conclusion.BOUNDED_AWAY_FROM_1, gap=gap,
            from_index=seq.n_min, reason=refusal, beyond_horizon=True,
            claim=(f"|FT(t_n)| <= (atoms + |cos(2*pi*{frac})|)/mass "
                   f"uniformly in n via the factor k = n; certified gap "
                   f"{float(gap):.6g}"))
    if refusal is not None:
        return _refused(per_n, refusal)

    if frac == 0:
        if not _atoms_witness_compatible(expr, seq.lam, seq.base):
            return _conclude_generic(per_n, tol)
        start = _suffix_start(per_n, _rises_to_1(tol), 1)
        if start is None:
            return ConvergenceVerdict(
                per_n, Conclusion.UNDETERMINED,
                reason=f"certified bounds do not reach 1-{tol} "
                       f"within the tested range",
                claim="matched family but tolerance not met on the horizon")
        probe = _normalized_ft(expr, seq.argument(seq.n_max + 1), mass, bits)
        beyond = probe.lo >= per_n[-1][2].lo
        return ConvergenceVerdict(
            per_n, Conclusion.CONVERGES_TO_1, from_index=start,
            beyond_horizon=beyond,
            claim=(f"argument of factor k=n is the integer {m} for every n; "
                   f"certified tail lower bounds are non-decreasing from "
                   f"n={start} and the closing-term exponent n*n! grows "
                   f"strictly, so the bound improves beyond the horizon"))

    return ConvergenceVerdict(
        per_n, Conclusion.UNDETERMINED,
        reason="half-integer factor ratio: the single-factor bound "
               "degenerates to |cos(pi)| = 1",
        claim="no verdict at the degenerate ratio 1/2")


def _test_window_bounded(expr, seq, tol, mass, bits) -> ConvergenceVerdict:
    """Base-3 geometric part: three-factor window bound beyond t > 9/scale.

    The window argument is u_n = scale * t_n = c * 3**j_n with
    3**r < scale * lam <= 3**(r+1), j_n = exponent(n) + r and
    c = scale * lam * 3**-r in (1, 3].  The bound uses factor indices
    j_n, j_n + 1, j_n + 2 and needs j_n >= 1; c is the same for every n, so
    one window product serves every such index.  u_n > WINDOW_THRESHOLD
    exactly when j_n >= 2.
    """
    scan = cached_window_scan()
    u_scale = expr.bernoulli.scale * seq.lam
    r = 0
    while Fraction(3) ** (r + 1) < u_scale:
        r += 1
    while Fraction(3) ** r >= u_scale:
        r -= 1
    mag = (window_product(u_scale / Fraction(3) ** r, bits).mag_hi()
           if seq.exponent(seq.n_max) + r >= 1 else None)

    def value(n: int) -> IntervalValue:
        t = seq.argument(n)
        if seq.exponent(n) + r < 1:
            return _normalized_ft(expr, t, mass, bits)
        out = (atom_part(expr, t, bits) + IntervalValue(-mag, mag)).scale(
            Fraction(1) / mass)
        return out.clamp(-1, 1).round_out(bits)

    per_n, refusal = _per_index(seq, value)
    if refusal is not None:
        return _refused(per_n, refusal)
    start = next((n for n in seq.indices() if seq.exponent(n) + r >= 2),
                 None)
    if start is None:
        return _conclude_generic(per_n, tol)
    gap_family = (1 - scan.sup.hi) / mass
    tested = [iv.hi for n, _, iv in per_n if n >= start]
    gap = min([gap_family] + [1 - h for h in tested])
    if gap <= 0:
        return _conclude_generic(per_n, tol)
    return ConvergenceVerdict(
        per_n, Conclusion.BOUNDED_AWAY_FROM_1, gap=gap, from_index=start,
        beyond_horizon=True,
        claim=(f"window arguments exceed {WINDOW_THRESHOLD} from n={start} "
               f"on, and the certified window supremum "
               f"{float(scan.sup.hi):.9g} keeps every later enclosure below "
               f"1 - {float(gap):.6g}"))


# ---------------------------------------------------------------------------
# Completion classification
# ---------------------------------------------------------------------------

class CompletionKind(Enum):
    USUAL_TOPOLOGY_REAL = "UsualTopologyReal"
    COMPACT_ATOMIC = "CompactAtomic"
    NON_LOCALLY_COMPACT = "NonLocallyCompact"
    NOT_HAUSDORFF = "NotHausdorff"


class CompletionClass(Value):
    """Classification of the completion of the line in the measure topology."""

    __slots__ = ("kind", "dual_generators", "canonical_generator", "witness",
                 "witness_verdict", "trace")
    _uncompared = ("witness_verdict", "trace")

    def __init__(self, kind: CompletionKind,
                 dual_generators: tuple[Fraction, ...] = (),
                 canonical_generator: Optional[Fraction] = None,
                 witness: Optional[SequenceSpec] = None,
                 witness_verdict: Optional[ConvergenceVerdict] = None,
                 trace: tuple[str, ...] = ()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "dual_generators", dual_generators)
        object.__setattr__(self, "canonical_generator", canonical_generator)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "witness_verdict", witness_verdict)
        object.__setattr__(self, "trace", trace)

    def tau_key(self) -> tuple:
        """Canonical data deciding equality of the induced topologies."""
        if self.kind in (CompletionKind.NOT_HAUSDORFF,
                         CompletionKind.COMPACT_ATOMIC):
            return ("atomic", self.canonical_generator)
        if self.kind is CompletionKind.NON_LOCALLY_COMPACT:
            w = self.witness
            return ("factorial-family", w.base, w.lam)
        return ("usual",)

    def describe(self) -> str:
        out = self.kind.value
        if self.kind is CompletionKind.NOT_HAUSDORFF:
            out += f"(cyclic generator {self.canonical_generator})"
        elif self.kind is CompletionKind.COMPACT_ATOMIC:
            gens = ",".join(str(g) for g in self.dual_generators)
            out += (f"(dual generated by {{{gens}}}, "
                    f"canonical generator {self.canonical_generator})")
        elif self.kind is CompletionKind.NON_LOCALLY_COMPACT:
            out += f"(witness {self.witness.family_describe()})"
        return out


def classify_completion(expr: MeasureExpr,
                        bits: Optional[int] = None) -> CompletionClass:
    """Catalog-based classification; raises UndeterminedError outside it.

    Catalog: purely atomic rational measures; measures containing a
    Lebesgue summand; base-3 geometric two-point convolutions (plus atoms);
    base-3 factorial two-point convolutions (plus compatible atoms); all
    with rational scalings.
    """
    bits = precision_bits(bits)
    if expr.is_zero:
        raise UndeterminedError("the zero measure induces no topology")

    if expr.lebesgue:
        return CompletionClass(
            kind=CompletionKind.USUAL_TOPOLOGY_REAL,
            trace=(
                "Lebesgue summand: multiplication by characters is strongly "
                "continuous on its L2 space exactly for the usual topology",
                "a summand with the usual topology forces the sum's topology "
                "to be usual (it is always at most usual)",
            ))

    bern = expr.bernoulli
    if bern is not None and bern.kind == GEOMETRIC and bern.base == 3:
        scan = cached_window_scan()
        return CompletionClass(
            kind=CompletionKind.USUAL_TOPOLOGY_REAL,
            trace=(
                f"three-factor window bound: |FT(t)| <= {float(scan.sup.hi):.9g}"
                f" < 1 once scale*t > {WINDOW_THRESHOLD}, so no unbounded "
                f"sequence converges",
                "FT = 1 at a bounded cluster point forces every two-point "
                "factor argument to be an integer, hence the point is 0",
                "atom summands only strengthen the topology, which is "
                "always at most usual",
            ))

    if bern is not None and bern.kind == FACTORIAL and bern.base == 3:
        lam = Fraction(1) / bern.scale
        if not _atoms_witness_compatible(expr, lam, bern.base):
            raise UndeterminedError(
                "factorial family with incompatible atom denominators is "
                "outside the catalog")
        witness = SequenceSpec(FACTORIAL, lam=lam, base=bern.base,
                               n_min=3, n_max=6)
        verdict = test_sequence(expr, witness, DEFAULT_TOLERANCE, bits)
        if verdict.conclusion is not Conclusion.CONVERGES_TO_1:
            raise UndeterminedError(
                "witness sequence for the factorial family did not certify "
                f"convergence: {verdict.reason}")
        return CompletionClass(
            kind=CompletionKind.NON_LOCALLY_COMPACT,
            witness=witness, witness_verdict=verdict,
            trace=(
                "witness t_n = ({})*3^(n!) converges to 0 in the measure "
                "topology (certified enclosures)".format(lam),
                "the witness diverges in the usual topology (t_n is "
                "unbounded), so the topology is not the usual one",
                "square-summable two-point convolutions are non-atomic, so "
                "the completion is not compact; hence not locally compact",
            ))

    if bern is not None and bern.kind != EXPLICIT:
        raise UndeterminedError(
            f"two-point convolution family {bern.describe()} is outside "
            f"the classification catalog")

    # atomic, an explicit two-point part expanded to its atoms
    try:
        den, nums = support_lattice(expr)
    except BudgetExceeded as exc:
        raise UndeterminedError(
            f"explicit convolution not expandable: {exc}") from None
    nums = sorted({abs(p) for p in nums} - {0})
    if not nums:
        return CompletionClass(
            kind=CompletionKind.NOT_HAUSDORFF,
            canonical_generator=Fraction(0),
            trace=("support is {0}: every character is trivial on it, the "
                   "topology is indiscrete",))
    magnitudes = [Fraction(p, den) for p in nums]
    g = Fraction(gcd(*nums), den)
    if g == magnitudes[0]:  # g divides every magnitude
        return CompletionClass(
            kind=CompletionKind.NOT_HAUSDORFF,
            canonical_generator=g,
            dual_generators=tuple(magnitudes),
            trace=(f"support lies in the cyclic group generated by its own "
                   f"atom {g}",
                   "characters trivial on that cyclic group witness the "
                   "failure of the Hausdorff property",))
    return CompletionClass(
        kind=CompletionKind.COMPACT_ATOMIC,
        canonical_generator=g,
        dual_generators=tuple(magnitudes),
        trace=(f"atomic support needs several generators: {magnitudes}; "
               f"its group closure is generated by {g}",
               "atomic spectral support makes the completion compact, "
               "dual to the discrete group generated by the support",))
