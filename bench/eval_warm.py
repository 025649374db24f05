"""eval-warm: a script asking the library for many certified enclosures.

One warm process evaluates a fixed list of seeded ops on a pool of ten
measures, each reused across many arguments.  Nine in ten ops are
``ft_point`` calls; the rest are ``test_sequence`` calls on criterion-2
pairs and on geometric families.  Op counts per measure, argument kind and
precision are fixed, and the seed draws the values inside each stratum, so
the amount of work barely depends on the seed.

Known defect, kept on purpose: a geometric measure at a ``ScaledPower``
argument whose scale exceeds 3/2 raises ``TailNotCertified``, while the
same number written as a rational evaluates.  ``arg_reduce`` returns
``ReducedSmall`` for every negative combined exponent and
``_cos_of_reduced`` refuses values above 1/2.  Those ops count as
Undetermined and as all bits lost.

Known defect, shown but not in the op list: ``cos2pi`` is unsound above
about 416 bits, because the 2*pi literal is rounded up and used as a lower
bound.  The ops stay at or below 384 bits, the precision the literal is
documented for, and ``known_defects`` probes one 512-bit enclosure against
mpmath in every run, so the defect is reported without failing the run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from math import factorial

# calls go through the module attributes, where the tracer binds its wrappers
import mpmath

from tau3 import fourier, intervals, topology
from tau3.errors import TailNotCertified
from tau3.fourier import ScaledPower
from tau3.measures import CoefficientSequence, MeasureExpr, scale_measure
from tau3.topology import Conclusion, SequenceSpec

from reference import Desc, bits_lost, encloses, ft_reference

NAME = "eval-warm"
SEES_ENCLOSURES = True
SMOKE_OPS = 30
#: the 2*pi literal in tau3.intervals is documented for enclosures up to 384
#: bits; above about 416 bits cos2pi is unsound (see known_defects below)
BITS = (128, 256, 384)
DEFECT_PROBE_BITS = 512
#: criterion-2 scales k/8, without the degenerate 1/2
GRID = tuple(F(k, 8) for k in range(1, 9) if k != 4)
#: 3**(n!) stays materializable up to n = 7; n = 8 takes the unexpanded path
UNEXPANDED_MIN_N = 8
GEOMETRIC_SCALES = (F(1), F(1, 2), F(2, 3), F(4, 3))
#: scales above 3/2 that hit the ScaledPower defect described above
DEFECT_SCALES = (F(5, 3), F(7, 3), F(8, 3))
ATOM_DENOMS = (1, 2, 3, 4, 5, 7, 8, 9, 27)


@dataclass
class Measure:
    mid: int
    label: str
    expr: MeasureExpr
    desc: Desc


@dataclass
class Op:
    measure: Measure
    bits: int
    kind: str                      # argument kind, or "sequence"
    s: F = F(1)                    # ft ops: t = s * 3**e
    e: int = 0
    seq: SequenceSpec | None = None
    expect_converges: bool | None = None   # sequence ops on criterion-2 pairs
    refs: dict | None = None       # ft: {0: ref}; sequence: {n: ref}


def _rational(rng) -> tuple[F, int]:
    return F(rng.randint(1, 10 ** 4), rng.randint(2, 97)), 0


def _exponent(rng, i: int) -> int:
    """An exponent in 1..40, stratified by i so each list spans the range."""
    low = 1 + 8 * (i % 5)
    return rng.randint(low, low + 7)


def _pool(rng) -> list[Measure]:
    pool = []

    def add(label, expr, desc):
        pool.append(Measure(len(pool), label, expr, desc))

    for n in (16, 64, 256):
        mags: set[F] = set()
        while len(mags) < n // 2:
            mags.add(F(rng.randint(1, 600), rng.choice(ATOM_DENOMS)))
        atoms = []
        for p in sorted(mags):
            w = F(rng.randint(1, 3), n)
            atoms += [(-p, w), (p, w)]
        add(f"atomic{n}", MeasureExpr(atoms=tuple(atoms)),
            Desc(atoms=tuple(atoms)))
    # 1/8 has no smaller grid scale for the criterion-2 pairs below
    for lam in rng.sample(GRID[1:], 3):
        add(f"factorial(lambda={lam})",
            scale_measure(MeasureExpr.bernoulli_factorial(3), lam),
            Desc(kind="factorial", scale=1 / lam))
    for pairs in (((F(1), F(1, 2)),),
                  ((F(1, 3), F(1, 4)), (F(rng.randint(2, 5)), F(1, 4)))):
        expr = MeasureExpr.bernoulli_geometric(3)
        atoms = []
        for p, w in pairs:
            expr = expr.plus(MeasureExpr.symmetric_pair(p, w))
            atoms += [(-p, w), (p, w)]
        add(f"geometric+{len(atoms)}atoms", expr,
            Desc(atoms=tuple(atoms), kind="geometric"))
    for length in (8, 12):
        values = tuple(F(1, (1 << j) + rng.randint(0, 1 << (j - 1)))
                       for j in range(1, length + 1))
        add(f"explicit{length}",
            MeasureExpr(bernoulli=CoefficientSequence("explicit",
                                                      values=values)),
            Desc(kind="explicit", values=values))
    return pool


def build_ops(seed: int, smoke: bool = False) -> list[Op]:
    """The fixed op list of one pass; the same seed gives the same list."""
    rng = random.Random(f"{NAME}/{seed}")
    pool = _pool(rng)
    atomic, fact, geo, expl = pool[0:3], pool[3:6], pool[6:8], pool[8:10]
    ops: list[Op] = []

    def bits_of(i):
        return BITS[i % len(BITS)]

    # counts per stratum put the median op inside the dense 4-9 ms block of
    # geometric and mid-size atomic ops, so op_p50_ms does not hinge on a few
    # ops at the edge between two cost clusters
    for m in atomic:
        for i in range(30):
            if i < 18:
                s, e = _rational(rng)
                ops.append(Op(m, bits_of(i), "rational", s, e))
            else:
                ops.append(Op(m, bits_of(i), "power", F(1), _exponent(rng, i)))
    for m in fact:
        lam = 1 / m.desc.scale
        for i in range(20):
            if i < 15:
                n = 4 + i % 5
                nu = lam if i % 2 == 0 else rng.choice(GRID)
                kind = ("factorial_power_unexpanded" if n >= UNEXPANDED_MIN_N
                        else "factorial_power")
                ops.append(Op(m, bits_of(i // 5), kind, nu, factorial(n)))
            else:
                s, e = _rational(rng)
                ops.append(Op(m, bits_of(i), "rational", s, e))
    for m in geo:
        for i in range(50):
            if i < 25:
                scales = DEFECT_SCALES if i % 3 == 2 else GEOMETRIC_SCALES
                ops.append(Op(m, bits_of(i), "power", rng.choice(scales),
                              2 + _exponent(rng, i)))
            else:
                s, e = _rational(rng)
                ops.append(Op(m, bits_of(i), "rational", s, e))
    for m in expl:
        for i in range(10):
            if i < 6:
                s, e = _rational(rng)
                ops.append(Op(m, bits_of(i), "rational", s, e))
            else:
                ops.append(Op(m, bits_of(i), "power", F(1),
                              rng.randint(1, 12)))
    for i in range(15):
        # criterion 2 takes nu <= lambda; there ConvergesTo1 iff nu == lambda
        m = fact[i % 3]
        lam = 1 / m.desc.scale
        nu = lam if i % 3 == 0 else rng.choice([g for g in GRID if g < lam])
        ops.append(Op(m, bits_of(i), "sequence",
                      seq=SequenceSpec("factorial", lam=nu, base=3,
                                       n_min=3, n_max=6),
                      expect_converges=nu == lam))
    for i in range(15):
        m = geo[rng.randrange(2)]
        lam = (F(1), F(1, 2), F(2, 5), F(4, 3), F(7, 9))[i % 5]
        ops.append(Op(m, bits_of(i), "sequence",
                      seq=SequenceSpec("geometric", lam=lam, base=3,
                                       n_min=2, n_max=6)))
    rng.shuffle(ops)
    if smoke:
        ops = ops[:SMOKE_OPS]
    for op in ops:
        op.refs = _references(op)
    return ops


def _references(op: Op) -> dict:
    desc = op.measure.desc
    if op.seq is None:
        return {0: ft_reference(desc, op.s, op.e, op.bits)}
    # sequence verdicts carry enclosures of the transform over the mass
    return {n: ft_reference(desc, op.seq.lam,
                            factorial(n) if op.seq.family == "factorial" else n,
                            op.bits, per_mass=True)
            for n in op.seq.indices()}


def warm_up() -> float:
    """The window scan the sequence ops rely on; returns its supremum."""
    return float(topology.cached_window_scan().sup.hi)


def run_op(op: Op):
    """Run one op; returns the raw result or the Undetermined exception."""
    if op.seq is not None:
        return topology.test_sequence(op.measure.expr, op.seq, bits=op.bits)
    try:
        return fourier.ft_point(op.measure.expr, ScaledPower(op.s, 3, op.e)
                                if op.e else op.s, bits=op.bits)
    except TailNotCertified as exc:
        return exc


def check(op: Op, result) -> tuple[str, float, str]:
    """(status, bits lost, detail): status is ok, undetermined or failed."""
    if isinstance(result, TailNotCertified):
        return "undetermined", op.bits, "TailNotCertified"
    if isinstance(result, Exception):
        return "failed", 0.0, f"{type(result).__name__}: {result}"
    if op.seq is None:
        ref, err = op.refs[0]
        if not encloses(result.lo, result.hi, ref, err, op.bits):
            return "failed", 0.0, f"enclosure misses reference {ref}"
        return "ok", bits_lost(result.width, op.bits), ""
    for n, _, iv in result.per_n:
        ref, err = op.refs[n]
        if not encloses(iv.lo, iv.hi, ref, err, op.bits):
            return "failed", 0.0, f"n={n} enclosure misses reference {ref}"
    converges = result.conclusion is Conclusion.CONVERGES_TO_1
    if op.expect_converges is None:
        # geometric measures induce the usual topology: t_n -> inf never
        # converges to 0 there
        wrong = converges
    else:
        wrong = (converges != op.expect_converges
                 and result.conclusion is not Conclusion.UNDETERMINED)
    if wrong:
        return "failed", 0.0, f"verdict {result.conclusion.value} contradicts the rule"
    if result.conclusion is Conclusion.UNDETERMINED:
        return "undetermined", op.bits, result.reason or ""
    return "ok", 0.0, ""


def known_defects() -> dict:
    """Probes of defects kept out of the op list; True means still present."""
    q = F(1, 7)
    iv = intervals.cos2pi(q, DEFECT_PROBE_BITS)
    with mpmath.workprec(DEFECT_PROBE_BITS + 64):
        true = mpmath.cos(2 * mpmath.pi * q.numerator / q.denominator)
        misses = not (mpmath.mpf(iv.lo.numerator) / iv.lo.denominator <= true
                      <= mpmath.mpf(iv.hi.numerator) / iv.hi.denominator)
    return {f"cos2pi_{DEFECT_PROBE_BITS}_bits_misses_true_value": misses}


def properties(ops: list[Op]) -> dict:
    kinds: dict[str, int] = {}
    precision: dict[str, int] = {}
    defect = 0
    for op in ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
        precision[str(op.bits)] = precision.get(str(op.bits), 0) + 1
        if (op.kind == "power" and op.measure.desc.kind == "geometric"
                and op.s > F(3, 2)):
            defect += 1
    n = len(ops)
    return {
        "ops_per_pass": n,
        "measures": len({op.measure.mid for op in ops}),
        "measure_reuse_share": 1 - len({op.measure.mid for op in ops}) / n,
        "precision_mix": precision,
        "argument_kinds": kinds,
        "unexpanded_share": kinds.get("factorial_power_unexpanded", 0) / n,
        "sequence_share": kinds.get("sequence", 0) / n,
        "geometric_scaled_power_defect_ops": defect,
    }
