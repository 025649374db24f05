"""Symbolic symmetric measures on the additive real line.

A ``MeasureExpr`` is a sum of a finite symmetric atom list, an optional
Lebesgue component and an optional infinite two-point-convolution
descriptor.  Convolution powers are handled at the class level (see
``class_algebra``); finite atomic measures convolve exactly with
``convolve_atoms``.  Everything lives on the additive line: multiplicative
statements about the positive half-line are mapped through the logarithm,
so the multiplicative unit corresponds to an atom at 0.

Every measure is canonical from construction: it holds its atoms as one
integer lattice ``(den, total, ((p, w), ...))``, points p/den and weights
w/total sorted by p, which only ``lattice_measure``, the one builder and the
one symmetry check, sets.  The constructor merges its atoms onto that
lattice and returns through it; ``scale_measure`` is the one scaling path.
``atoms``, the exact rational pairs, is built from the lattice when first
read.  All values are immutable.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Optional

from .errors import (BudgetExceeded, SpecFormatError, SymmetryViolation,
                     Value)

DEFAULT_ATOM_BUDGET = 4096

FACTORIAL = "factorial"
GEOMETRIC = "geometric"
EXPLICIT = "explicit"


def parse_rational(text) -> Fraction:
    """Parse "p/q" / integer / decimal strings into an exact Fraction."""
    if isinstance(text, bool):
        raise SpecFormatError(f"expected a rational, got boolean {text}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if isinstance(text, float):
        raise SpecFormatError(
            f"float {text!r} rejected: rationals must be given as 'p/q' strings")
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFormatError(f"cannot parse rational {text!r}: {exc}") from None


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


class CoeffTerm(Value):
    """One coefficient c_k in mantissa * base**(-neg_exp) form.

    ``base`` is None for plain rationals (explicit lists, already-folded
    terms); then neg_exp is 0 and the value is just the mantissa.
    """

    __slots__ = ("mantissa", "base", "neg_exp")

    def __init__(self, mantissa: Fraction, base: Optional[int] = None,
                 neg_exp: int = 0):
        object.__setattr__(self, "mantissa", mantissa)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "neg_exp", neg_exp)

    def value(self) -> Fraction:
        if self.base is None or self.neg_exp == 0:
            return self.mantissa
        return self.mantissa / Fraction(self.base) ** self.neg_exp


class CoefficientSequence(Value):
    """Generator of the coefficients c_k of an infinite two-point convolution.

    kind "factorial": c_k = scale * base**(-k!)
    kind "geometric": c_k = scale * base**(-k)
    kind "explicit":  c_k = scale * values[k-1], finite list

    Coefficients must be strictly positive and strictly decreasing; for the
    infinite kinds with base >= 2 the square-summability needed for the
    limit measure to exist is automatic.
    """

    __slots__ = ("kind", "base", "scale", "values")

    def __init__(self, kind: str, base: Optional[int] = None,
                 scale: Fraction = Fraction(1),
                 values: tuple[Fraction, ...] = ()):
        scale = _exact(scale)
        if scale <= 0:
            raise ValueError("coefficient scale must be positive")
        if kind in (FACTORIAL, GEOMETRIC):
            if base is None or base < 2:
                raise ValueError(f"{kind} sequence needs an integer base >= 2")
            if values:
                raise ValueError(f"{kind} sequence takes no explicit values")
        elif kind == EXPLICIT:
            values = tuple(map(_exact, values))
            if not values:
                raise ValueError("explicit sequence must be non-empty")
            if any(v <= 0 for v in values):
                raise ValueError("explicit coefficients must be positive")
            if any(b >= a for a, b in zip(values, values[1:])):
                raise ValueError("explicit coefficients must be strictly decreasing")
            base = None
        else:
            raise ValueError(f"unknown sequence kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "values", values)

    @property
    def length(self) -> Optional[int]:
        """Number of coefficients, or None for the infinite kinds."""
        return len(self.values) if self.kind == EXPLICIT else None

    def exponent(self, k: int) -> int:
        if self.kind == FACTORIAL:
            return factorial(k)
        if self.kind == GEOMETRIC:
            return k
        raise ValueError("explicit sequences have no exponent form")

    def term(self, k: int) -> CoeffTerm:
        if k < 1:
            raise ValueError("coefficient index starts at 1")
        if self.kind == EXPLICIT:
            if k > len(self.values):
                raise IndexError(f"coefficient index {k} beyond explicit list")
            return CoeffTerm(self.scale * self.values[k - 1])
        return CoeffTerm(self.scale, self.base, self.exponent(k))

    def c(self, k: int) -> Fraction:
        return self.term(k).value()

    def rescaled(self, factor: Fraction) -> "CoefficientSequence":
        return CoefficientSequence(self.kind, self.base, self.scale * factor,
                                   self.values)

    def key(self) -> tuple:
        return (self.kind, self.base, self.scale, self.values)

    def describe(self) -> str:
        if self.kind == EXPLICIT:
            body = ",".join(format_rational(v) for v in self.values)
            head = f"explicit({body})"
        else:
            sym = "k!" if self.kind == FACTORIAL else "k"
            head = f"{self.base}^-{sym}"
        if self.scale != 1:
            return f"{format_rational(self.scale)}*{head}"
        return head


def _exact(x) -> Fraction:
    """x as a Fraction; a Fraction passes through without the abc checks."""
    return x if type(x) is Fraction else Fraction(x)


class MeasureExpr(Value):
    """Symbolic symmetric measure; see the module docstring.  The private
    slots: the canonical lattice and caches of atoms, atom_plan and mass."""

    __slots__ = ("_atoms", "lebesgue", "bernoulli", "_lattice", "_atom_plan",
                 "_mass")
    _fields = ("atoms", "lebesgue", "bernoulli")

    def __new__(cls, atoms: tuple[tuple[Fraction, Fraction], ...] = (),
                lebesgue: bool = False,
                bernoulli: Optional[CoefficientSequence] = None):
        """Merge the atoms as integer counts on one lattice, dropping zero
        weights; raise ValueError at the first negative weight, and return
        through ``lattice_measure``, the one symmetry check."""
        atoms = [(_exact(p), _exact(w)) for p, w in atoms]
        den, points = on_lattice([p for p, _ in atoms])
        total, weights = on_lattice([w for _, w in atoms])
        counts: dict[int, int] = {}
        for p, w in zip(points, weights):
            if w < 0:
                raise ValueError(f"negative atom weight {Fraction(w, total)} "
                                 f"at {Fraction(p, den)}")
            if w:
                counts[p] = counts.get(p, 0) + w
        return lattice_measure(den, total, counts, lebesgue, bernoulli)

    @property
    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        if self._atoms is None:
            den, total, pairs = self._lattice
            object.__setattr__(self, "_atoms", tuple(
                (Fraction(p, den), Fraction(w, total)) for p, w in pairs))
        return self._atoms

    # -- structure helpers -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return (not self._lattice[2] and not self.lebesgue
                and self.bernoulli is None)

    def describe(self) -> str:
        parts = []
        for p, w in self.atoms:
            parts.append(f"atom({format_rational(p)},{format_rational(w)})")
        if self.lebesgue:
            parts.append("lebesgue")
        if self.bernoulli is not None:
            parts.append(f"bernoulli[{self.bernoulli.describe()}]")
        return " + ".join(parts) if parts else "zero"

    # -- constructors -------------------------------------------------------

    @staticmethod
    def symmetric_pair(point, weight=Fraction(1, 2)) -> "MeasureExpr":
        p, w = Fraction(point), Fraction(weight)
        if p == 0:
            return MeasureExpr(atoms=((p, 2 * w),))
        return MeasureExpr(atoms=((-p, w), (p, w)))

    @staticmethod
    def lebesgue_measure() -> "MeasureExpr":
        return MeasureExpr(lebesgue=True)

    @staticmethod
    def bernoulli_factorial(base: int = 3, scale=Fraction(1)) -> "MeasureExpr":
        return MeasureExpr(bernoulli=CoefficientSequence(FACTORIAL, base,
                                                         Fraction(scale)))

    @staticmethod
    def bernoulli_geometric(base: int = 3, scale=Fraction(1)) -> "MeasureExpr":
        return MeasureExpr(bernoulli=CoefficientSequence(GEOMETRIC, base,
                                                         Fraction(scale)))

    def plus(self, other: "MeasureExpr") -> "MeasureExpr":
        """Componentwise sum of two measures, each symmetric on its own."""
        if self.bernoulli is not None and other.bernoulli is not None:
            raise ValueError("at most one infinite-convolution summand")
        return MeasureExpr(atoms=self.atoms + other.atoms,
                           lebesgue=self.lebesgue or other.lebesgue,
                           bernoulli=self.bernoulli or other.bernoulli)


def normalize(expr: MeasureExpr) -> MeasureExpr:
    """The identity: every ``MeasureExpr`` is canonical from construction.
    Kept by name for callers outside the package."""
    return expr


def atom_plan(expr: MeasureExpr) -> tuple[int, tuple]:
    """The atom sum of ``expr`` as integers, cached with the mass on expr.

    (D, pairs): one (p.numerator, p.denominator, v) per atom at p >= 0, the
    atoms at +-p adding v/D * cos(2*pi*p*t); v/D is twice the weight at p,
    or the weight itself at 0.
    """
    plan = getattr(expr, "_atom_plan", None)
    if plan is None:
        den, total, pairs = expr._lattice
        pairs = [(p, w if p == 0 else 2 * w) for p, w in pairs if p >= 0]
        g = gcd(total, *(v for _, v in pairs))  # D: lowest terms of v/total
        plan = total // g, tuple((p // (h := gcd(p, den)), den // h, v // g)
                                 for p, v in pairs)
        object.__setattr__(expr, "_mass", Fraction(sum(v for *_, v in plan[1])
                           + (expr.bernoulli is not None) * plan[0], plan[0]))
        object.__setattr__(expr, "_atom_plan", plan)
    return plan


def plan_mass(expr: MeasureExpr) -> Fraction:
    """Total mass of ``expr``: plan weights over D, +1 for a two-point part.
    Raises ValueError for a Lebesgue component, whose mass is infinite."""
    if expr.lebesgue:
        raise ValueError("infinite-mass measure")
    atom_plan(expr)
    return expr._mass


def scale_measure(expr: MeasureExpr, s) -> MeasureExpr:
    """Rescale: the result assigns to a set X the mass of s*X.

    Atoms at a move to a/s, p/den to p*s.denominator/(den*s.numerator) on
    the lattice; coefficient sequences divide their scale by s; the
    Lebesgue component is invariant as a class.
    """
    s = Fraction(s)
    if s <= 0:
        raise ValueError("scaling factor must be positive")
    if s == 1:
        return expr
    den, total, pairs = expr._lattice
    bern = expr.bernoulli.rescaled(1 / s) if expr.bernoulli else None
    return lattice_measure(den * s.numerator, total,
                           {p * s.denominator: w for p, w in pairs},
                           expr.lebesgue, bern)


def on_lattice(values) -> tuple[int, list[int]]:
    """(den, [v * den]): rationals as integers over their common denominator."""
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def convolve_atoms(a: MeasureExpr, b: MeasureExpr) -> MeasureExpr:
    """Exact convolution of two finite atomic measures.

    Runs on one integer lattice: points over the lcm of the two point
    denominators, weights over the product of the two weight totals, in
    lowest terms.
    """
    if any(m.lebesgue or m.bernoulli for m in (a, b)):
        raise ValueError("convolve_atoms takes purely atomic measures")
    (da, ta, pa), (db, tb, pb) = a._lattice, b._lattice
    den = lcm(da, db)
    pb = [(q * (den // db), u) for q, u in pb]
    acc: dict[int, int] = {}
    for p, v in pa:
        p *= den // da
        for q, u in pb:
            acc[p + q] = acc.get(p + q, 0) + v * u
    g = gcd(ta * tb, *acc.values())  # the total in lowest terms
    return lattice_measure(den, ta * tb // g,
                           {p: w // g for p, w in acc.items()})


def support_lattice(m: MeasureExpr) -> tuple[int, list[int]]:
    """(den, nums): the atom points of ``m`` as p/den, then, for an
    explicit two-point part, the points of its full expansion.  Raises
    BudgetExceeded when that expansion is too large."""
    den, _, pairs = m._lattice
    nums = [p for p, _ in pairs]
    seq = m.bernoulli
    if seq is not None and seq.kind == EXPLICIT:
        bden, counts = bernoulli_lattice(seq, len(seq.values))
        d = lcm(den, bden)
        nums = [p * (d // den) for p in nums] + [q * (d // bden)
                                                  for q in counts]
        den = d
    return den, nums


def check_atom_budget(n: int, atom_budget: int = DEFAULT_ATOM_BUDGET) -> None:
    """Raise BudgetExceeded unless 2**n atoms fit in the budget."""
    # bit_length keeps a huge n from building 2**n just to compare it
    if atom_budget < 1 or n >= atom_budget.bit_length():
        raise BudgetExceeded(f"depth {n}: 2**{n} atoms exceed budget "
                             f"{atom_budget}")


def coefficient_lattice(seq: CoefficientSequence, n: int) -> tuple[int, list]:
    """(den, steps): c_k = steps[k - 1] / den for k = 1 .. n, by one integer
    pass over the scale and the values or the powers of the base."""
    m, d = seq.scale.as_integer_ratio()
    pairs = ([(m * v.numerator, d * v.denominator) for v in seq.values[:n]]
             if seq.kind == EXPLICIT else
             [(m, d * seq.base ** seq.exponent(k)) for k in range(1, n + 1)])
    den = lcm(*(q // gcd(p, q) for p, q in pairs))  # in lowest terms
    return den, [p * den // q for p, q in pairs]


def bernoulli_lattice(seq: CoefficientSequence, n: int,
                      atom_budget: int = DEFAULT_ATOM_BUDGET
                      ) -> tuple[int, dict[int, int]]:
    """The n-fold partial convolution of the two-point factors, in integers.

    Returns (den, counts): the expansion has an atom at p/den of weight
    counts[p] / 2**n.  den is the lcm of the denominators of c_1..c_n, so
    each factor adds and subtracts the integer c_k * den.
    """
    if n < 1:
        raise ValueError("depth must be at least 1")
    if seq.length is not None and n > seq.length:
        raise IndexError(f"depth {n} beyond explicit list of {seq.length}")
    check_atom_budget(n, atom_budget)
    den, steps = coefficient_lattice(seq, n)
    counts = {0: 1}
    for c in steps:
        nxt: dict[int, int] = {}
        get = nxt.get
        for p, w in counts.items():
            nxt[p + c] = get(p + c, 0) + w
            nxt[p - c] = get(p - c, 0) + w
        counts = nxt
    return den, counts


def bernoulli_partial(seq: CoefficientSequence, n: int,
                      atom_budget: int = DEFAULT_ATOM_BUDGET) -> MeasureExpr:
    """Atoms of the n-fold partial convolution of the two-point factors.

    Expands prod_{k<=n} (delta at +c_k and -c_k, weight 1/2 each) on the
    integer lattice of ``bernoulli_lattice``; duplicate sums are merged.
    Total mass is exactly 1 and the support is symmetric.
    """
    den, counts = bernoulli_lattice(seq, n, atom_budget)
    return lattice_measure(den, 1 << n, counts)


def lattice_measure(den: int, total: int, counts: dict, lebesgue=False,
                    bernoulli=None) -> MeasureExpr:
    """The canonical measure with an atom at p/den of weight w/total per
    item p: w of ``counts``, and the given Lebesgue flag and two-point part.

    The one symmetry check: raises SymmetryViolation unless every w is
    positive and equal to the weight at -p.
    """
    for p, w in counts.items():
        if w <= 0 or counts.get(-p) != w:
            raise SymmetryViolation(
                f"atom at {Fraction(p, den)} of weight {Fraction(w, total)} "
                f"is not positive with a mirror of equal weight")
    out = object.__new__(MeasureExpr)
    object.__setattr__(out, "_atoms", None)  # built from the lattice on read
    object.__setattr__(out, "lebesgue", lebesgue)
    object.__setattr__(out, "bernoulli", bernoulli)
    object.__setattr__(out, "_lattice", (den, total,
                                         tuple(sorted(counts.items()))))
    return out


# ---------------------------------------------------------------------------
# Measure specification documents (JSON with bit-exact "p/q" rationals)
# ---------------------------------------------------------------------------

_SPEC_KEYS = {"atoms", "lebesgue", "bernoulli", "scale"}
_BERN_KINDS = {FACTORIAL, GEOMETRIC, EXPLICIT}


def _spec_list(doc: dict, key: str) -> list:
    entries = doc.get(key, [])
    if not isinstance(entries, (list, tuple)):
        raise SpecFormatError(f"'{key}' must be a list")
    return entries


def measure_from_dict(doc: dict) -> MeasureExpr:
    if not isinstance(doc, dict):
        raise SpecFormatError("measure spec must be a JSON object")
    unknown = set(doc) - _SPEC_KEYS
    if unknown:
        raise SpecFormatError(f"unknown spec fields: {sorted(unknown)}")
    atoms = []
    for entry in _spec_list(doc, "atoms"):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise SpecFormatError(f"atom entry {entry!r} is not [point, weight]")
        atoms.append((parse_rational(entry[0]), parse_rational(entry[1])))
    lebesgue = doc.get("lebesgue", False)
    if not isinstance(lebesgue, bool):
        raise SpecFormatError("'lebesgue' must be a boolean")
    bern = None
    bdoc = doc.get("bernoulli")
    if bdoc is not None:
        if not isinstance(bdoc, dict) or "kind" not in bdoc:
            raise SpecFormatError("'bernoulli' must be an object with a 'kind'")
        kind = bdoc["kind"]
        if not isinstance(kind, str) or kind not in _BERN_KINDS:
            raise SpecFormatError(f"unknown bernoulli kind {kind!r}")
        extra = set(bdoc) - {"kind", "scale",
                             "values" if kind == EXPLICIT else "base"}
        if extra:
            raise SpecFormatError(f"unknown {kind} bernoulli fields: "
                                  f"{sorted(extra)}")
        scale = parse_rational(bdoc.get("scale", 1))
        try:
            if kind == EXPLICIT:
                values = tuple(parse_rational(v)
                               for v in _spec_list(bdoc, "values"))
                bern = CoefficientSequence(EXPLICIT, scale=scale, values=values)
            else:
                base = bdoc.get("base", 3)
                if not isinstance(base, int):
                    raise SpecFormatError("'base' must be an integer")
                bern = CoefficientSequence(kind, base=base, scale=scale)
        except ValueError as exc:
            raise SpecFormatError(f"bad bernoulli descriptor: {exc}") from None
    scale = parse_rational(doc.get("scale", 1))
    try:
        return scale_measure(MeasureExpr(atoms, lebesgue, bern), scale)
    except (ValueError, SymmetryViolation) as exc:
        raise SpecFormatError(f"invalid measure: {exc}") from None


def measure_to_dict(expr: MeasureExpr) -> dict:
    doc: dict = {
        "atoms": [[format_rational(p), format_rational(w)]
                  for p, w in expr.atoms],
        "lebesgue": expr.lebesgue,
        "bernoulli": None,
        "scale": "1",
    }
    if expr.bernoulli is not None:
        b = expr.bernoulli
        bdoc = {"kind": b.kind, "scale": format_rational(b.scale)}
        if b.kind == EXPLICIT:
            bdoc["values"] = [format_rational(v) for v in b.values]
        else:
            bdoc["base"] = b.base
        doc["bernoulli"] = bdoc
    return doc


def parse_measure_spec(text: str) -> MeasureExpr:
    """Parse a measure specification document; diagnostics carry line/column."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"malformed document: {exc.msg}",
                              line=exc.lineno, column=exc.colno) from None
    return measure_from_dict(doc)


def load_measure_spec(path) -> MeasureExpr:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_measure_spec(fh.read())


def dump_measure_spec(expr: MeasureExpr) -> str:
    return json.dumps(measure_to_dict(expr), indent=2, sort_keys=True) + "\n"
