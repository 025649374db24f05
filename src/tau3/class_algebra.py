"""Symbolic calculus of measure classes (absolute-continuity types).

A ``ClassExpr`` names the class of a symmetric measure by three kinds of
components: a countable atomic support (finite set or rational lattice with
coset offsets), a full-Lebesgue flag, and a list of named singular tags
(two-point-convolution families, their convolution powers, translates, and
opaque mixed products).  Weights never matter here: classes only remember
where mass can live.

Relations between classes (equivalent, absolutely continuous, disjoint) are
decided by a closure-rule table over those components.  Every Disjoint or
Equivalent conclusion carries the names of the axioms it consumed; facts
that the engine does not derive (singularity of the base-3 family's powers,
absorption under the regular representation, core free-entropy bounds) live
in an explicit axiom table that users may override, and Unknown is a
first-class outcome whenever no rule applies.
"""

from __future__ import annotations

import hashlib
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Union

from .errors import SpecFormatError, Value
from .measures import (EXPLICIT, GEOMETRIC, CoefficientSequence,
                       MeasureExpr, format_rational, on_lattice, parse_rational,
                       support_lattice)

# ---------------------------------------------------------------------------
# Countable supports: finite sets and rational lattices with offsets
# ---------------------------------------------------------------------------

def _classes(residues, period: int) -> set:
    """The residues modulo period, or the points themselves at period 0."""
    return {r % period for r in residues} if period else set(residues)


class Support(Value):
    """Countable subset of the line: the points (r + k*period)/den for r in
    ``residues`` and every integer k.

    period 0 is a finite set and period > 0 a lattice, its residues in
    [0, period).  den is the least common denominator and period the
    smallest period, so each set has one form.
    """

    __slots__ = ("den", "period", "residues")

    def __init__(self, den: int, period: int, residues):
        rs = _classes(residues, period)
        if period:
            # the periods are (period/m)Z for the largest m that maps rs
            # onto itself
            period //= next((m for m in range(len(rs), 1, -1)
                             if len(rs) % m == period % m == 0 and all(
                                 (r + period // m) % period in rs
                                 for r in rs)), 1)
            rs = _classes(rs, period)
        g = gcd(den, period, *rs)
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "period", period // g)
        object.__setattr__(self, "residues", tuple(sorted(r // g
                                                          for r in rs)))

    @staticmethod
    def finite(points) -> "Support":
        den, nums = on_lattice([Fraction(p) for p in points])
        return Support(den, 0, nums)

    @staticmethod
    def lattice(generator, residues=(0,)) -> "Support":
        if generator <= 0:
            raise ValueError("lattice generator must be positive")
        den, (period, *rs) = on_lattice([Fraction(generator),
                                         *map(Fraction, residues)])
        return Support(den, period, rs)

    @property
    def points(self) -> tuple[Fraction, ...]:
        """The members of a finite set, () for a lattice."""
        return () if self.period else tuple(
            Fraction(r, self.den) for r in self.residues)

    @property
    def generator(self) -> Fraction:
        """The smallest period, 0 for a finite set."""
        return Fraction(self.period, self.den)

    def _with(self, other: "Support"):
        """(den, (period, residues) of self, of other), both over the lcm
        den of the two denominators."""
        den = lcm(self.den, other.den)
        return den, *((s.period * (den // s.den),
                       [r * (den // s.den) for r in s.residues])
                      for s in (self, other))

    def group(self) -> "Support":
        """The group the set generates: (gcd of its points)Z, or {0}."""
        return Support(self.den, gcd(self.period, *self.residues), (0,))

    def members_include(self, x: Fraction) -> bool:
        n, rest = divmod(x.numerator * self.den, x.denominator)
        return not rest and (n % self.period if self.period
                             else n) in self.residues

    def subset_of(self, other: "Support") -> bool:
        _, (pa, ra), (pb, rb) = self._with(other)
        # r + j*pa for j < steps are the distinct classes of r + pa*Z
        # modulo pb
        steps = pb // gcd(pa, pb) if pa else 1
        if pa and (not pb or steps > len(rb)):
            return False
        rb = set(rb)
        return all(((r + j * pa) % pb if pb else r) in rb
                   for r in ra for j in range(steps))

    def intersects(self, other: "Support") -> bool:
        _, (pa, ra), (pb, rb) = self._with(other)
        p = gcd(pa, pb)
        return not _classes(ra, p).isdisjoint(_classes(rb, p))

    def sumset(self, other: "Support") -> "Support":
        den, (pa, ra), (pb, rb) = self._with(other)
        return Support(den, gcd(pa, pb), [x + y for x in ra for y in rb])

    def describe(self) -> str:
        pts = ",".join(format_rational(Fraction(r, self.den))
                       for r in self.residues)
        if not self.period:
            return "{" + pts + "}"
        g = format_rational(self.generator)
        return (f"lattice({g})" if self.residues == (0,)
                else f"lattice({g};+{{{pts}}})")

    def sort_key(self):
        # orders as (kind, points, generator, residues) did with Fraction
        # members: finite sets first, by their points
        return (self.period > 0, self.generator,
                tuple(Fraction(r, self.den) for r in self.residues))


#: the support {0}: an untranslated tag, the unit of the sumset
ORIGIN = Support.finite([0])


# ---------------------------------------------------------------------------
# Singular tags
# ---------------------------------------------------------------------------

class SingularTag(Value):
    """Named singular-continuous class, translated along a support.

    ``components`` is the multiset of primitive two-point-convolution
    families with their convolution powers, as sorted (key, power) pairs;
    a plain family is a single pair with power 1.  Component multisets
    merge under convolution (powers add per key), which keeps the tag
    calculus commutative and associative.

    ``closed`` marks the union over n >= 1 of the n-fold convolution
    powers of the component product (the series closure); convolving a
    closed tag with anything yields an ``opaque`` tag, a flat multiset of
    constituent names supporting equality only.
    """

    __slots__ = ("components", "closed", "opaque", "translates")

    def __init__(self, components: tuple[tuple[tuple, int], ...] = (),
                 closed: bool = False, opaque: tuple[str, ...] = (),
                 translates: Support = ORIGIN):
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "closed", closed)
        object.__setattr__(self, "opaque", opaque)
        object.__setattr__(self, "translates", translates)

    @staticmethod
    def of(seq: CoefficientSequence, power: int = 1,
           translates: Optional[Support] = None) -> "SingularTag":
        return SingularTag(((seq.key(), power),),
                           translates=translates or ORIGIN)

    def is_opaque(self) -> bool:
        return bool(self.opaque)

    def constituent_names(self) -> tuple[str, ...]:
        """Flat multiset of primitive factors, for opaque composition.

        Open tags dissolve into one name per power unit so that merging
        stays associative; closed tags are atomic constituents.
        """
        if self.is_opaque():
            return self.opaque
        if self.closed:
            body = "*".join(f"{CoefficientSequence(*k).describe()}^{p}"
                            for k, p in self.components)
            return (f"series({body})",)
        return tuple(sorted(CoefficientSequence(*k).describe()
                            for k, p in self.components for _ in range(p)))

    def single_key(self) -> Optional[tuple]:
        if not self.is_opaque() and len(self.components) == 1:
            return self.components[0][0]
        return None

    def describe(self) -> str:
        if self.is_opaque():
            body = "opaque[" + " (*) ".join(self.opaque) + "]"
        else:
            body = "*".join(f"bern[{CoefficientSequence(*k).describe()}]^{p}"
                            for k, p in self.components)
            if self.closed:
                body = f"series({body})"
        return f"{body} @ {self.translates.describe()}"

    def sort_key(self):
        return (self.opaque, str(self.components), self.closed,
                self.translates.sort_key())

    def is_base3_geometric(self) -> bool:
        """All mass comes from powers of one base-3 geometric family."""
        key = self.single_key()
        return key is not None and key[0] == GEOMETRIC and key[1] == 3


# ---------------------------------------------------------------------------
# Axiom table
# ---------------------------------------------------------------------------

class Axiom(Value):
    __slots__ = ("name", "statement", "anchor")

    def __init__(self, name: str, statement: str, anchor: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "statement", statement)
        object.__setattr__(self, "anchor", anchor)


DEFAULT_AXIOMS_TEXT = """\
# Axiom table: name | statement | anchor
# Lines starting with '#' are comments; fields are separated by ' | '.
SingularPowers | The base-3 geometric two-point convolution, every finite convolution power of it, and all rational scalings and countable translates of those, are singular with respect to Lebesgue measure. | Haagerup's lacunary example; Taylor-Johnson measures in Graham-McGehee, Essays in Commutative Harmonic Analysis
LebesgueAbsorption | Convolving any finite-mass measure with a Lebesgue-class measure yields a Lebesgue-class measure. | absorption of the regular representation of the line under tensor products
AtomsVsLebesgue | Countable sets are Lebesgue-null, so atomic classes and the Lebesgue class are disjoint. | standard measure theory
BernoulliNonAtomic | Infinite two-point convolutions with square-summable coefficients, and their convolutions with other measures, are non-atomic; they are disjoint from every countable atomic class. | Jessen-Wintner purity; Graham-McGehee, Essays in Commutative Harmonic Analysis
R-CORE | If the spectral measure contains a Lebesgue summand, the associated core is the infinite free-group factor amplified by all bounded operators, its free entropy dimension exceeds 1, and the weight-intersection invariant equals the Lebesgue class. | free-probability core structure of quasi-free factors; Voiculescu's free entropy dimension estimates
R-EXACT | If the spectral measure is exactly Lebesgue plus a unit atom at 0 (log scale), the state-intersection invariant is exactly the class of that measure. | state-form refinement of the core free-entropy argument
W-IN-LAMBDA | The weight-intersection invariant is always contained in the Lebesgue class. | tensor absorption by the regular representation
TauBarFromFullCore | When the core is full, the weight-uniform topology invariant equals the topology of the core's completion group. | central-sequence analysis of full type II cores
"""


class AxiomTable:
    """Ordered, hashable collection of named axioms."""

    def __init__(self, axioms: list[Axiom]):
        self._axioms = {a.name: a for a in axioms}
        if len(self._axioms) != len(axioms):
            raise SpecFormatError("duplicate axiom names in table")

    @staticmethod
    def parse(text: str) -> "AxiomTable":
        axioms = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(" | ")]
            if len(parts) != 3:
                raise SpecFormatError(
                    "axiom lines need 'name | statement | anchor'",
                    line=lineno, column=1)
            axioms.append(Axiom(*parts))
        return AxiomTable(axioms)

    @staticmethod
    def default() -> "AxiomTable":
        return AxiomTable.parse(DEFAULT_AXIOMS_TEXT)

    @staticmethod
    def load(path) -> "AxiomTable":
        with open(path, "r", encoding="utf-8") as fh:
            return AxiomTable.parse(fh.read())

    def has(self, name: str) -> bool:
        return name in self._axioms

    def get(self, name: str) -> Axiom:
        return self._axioms[name]

    def names(self) -> tuple[str, ...]:
        return tuple(self._axioms)

    def serialize(self) -> str:
        return "".join(f"{a.name} | {a.statement} | {a.anchor}\n"
                       for a in self._axioms.values())

    def table_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Class expressions
# ---------------------------------------------------------------------------

class ClassExpr(Value):
    """Measure class: atomic support + Lebesgue flag + singular tags."""

    __slots__ = ("atoms", "ac_lebesgue", "tags", "provenance")
    _uncompared = ("provenance",)

    def __init__(self, atoms: Optional[Support] = None,
                 ac_lebesgue: bool = False,
                 tags: tuple[SingularTag, ...] = (),
                 provenance: tuple[str, ...] = ()):
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "ac_lebesgue", ac_lebesgue)
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "provenance", provenance)

    def canonical(self) -> "ClassExpr":
        return self.replace(tags=tuple(sorted(set(self.tags),
                                              key=SingularTag.sort_key)))

    def with_note(self, *notes: str) -> "ClassExpr":
        return self.replace(provenance=self.provenance + notes)

    def describe(self) -> str:
        parts = []
        if self.atoms is not None:
            parts.append(f"atoms{self.atoms.describe()}")
        if self.ac_lebesgue:
            parts.append("lebesgue")
        parts.extend(t.describe() for t in self.tags)
        return " + ".join(parts) if parts else "null"


LEBESGUE_CLASS = ClassExpr(ac_lebesgue=True,
                           provenance=("class of the Lebesgue measure",))


def class_of(m: Union[MeasureExpr, ClassExpr]) -> ClassExpr:
    """Measure class of a symbolic measure; weights are forgotten."""
    if isinstance(m, ClassExpr):
        return m.canonical()
    den, nums = support_lattice(m)
    atoms = Support(den, 0, nums) if nums else None
    tags: tuple[SingularTag, ...] = ()
    if m.bernoulli is not None and m.bernoulli.kind != EXPLICIT:
        tags = (SingularTag.of(m.bernoulli),)
    return ClassExpr(atoms=atoms, ac_lebesgue=m.lebesgue, tags=tags,
                     provenance=(f"class of {m.describe()}",)).canonical()


def atom_union(a: Support, b: Support) -> Support:
    """A ``Support`` containing both a and b; a lattice if either is one."""
    if a.subset_of(b):
        return b
    if b.subset_of(a):
        return a
    den, (pa, ra), (pb, rb) = a._with(b)
    return Support(den, gcd(pa, pb), ra + rb)


# ---------------------------------------------------------------------------
# Convolution of classes
# ---------------------------------------------------------------------------

def _convolve_tag_pair(ta: SingularTag, tb: SingularTag) -> SingularTag:
    translates = ta.translates.sumset(tb.translates)
    if not (ta.is_opaque() or tb.is_opaque() or ta.closed or tb.closed):
        merged: dict[tuple, int] = {}
        for key, p in ta.components + tb.components:
            merged[key] = merged.get(key, 0) + p
        components = tuple(sorted(merged.items(), key=lambda kp: str(kp)))
        return SingularTag(components, translates=translates)
    names = tuple(sorted(ta.constituent_names() + tb.constituent_names()))
    return SingularTag(opaque=names, translates=translates)


def convolve(a: Union[MeasureExpr, ClassExpr],
             b: Union[MeasureExpr, ClassExpr]) -> ClassExpr:
    """Class of the convolution: componentwise with absorption rules."""
    ca, cb = class_of(a), class_of(b)
    trace = []
    atoms = None
    leb = False
    tags: list[SingularTag] = []

    finite_a = ca.atoms is not None or ca.tags
    finite_b = cb.atoms is not None or cb.tags
    if (ca.ac_lebesgue and (finite_b or cb.ac_lebesgue)) or \
       (cb.ac_lebesgue and (finite_a or ca.ac_lebesgue)):
        leb = True
        trace.append("axiom:LebesgueAbsorption")

    if ca.atoms is not None and cb.atoms is not None:
        atoms = ca.atoms.sumset(cb.atoms)
        trace.append("rule:AtomSumset")
    for ta in ca.tags:
        if cb.atoms is not None:
            tags.append(ta.replace(translates=ta.translates.sumset(cb.atoms)))
            trace.append("rule:TagTranslation")
    for tb in cb.tags:
        if ca.atoms is not None:
            tags.append(tb.replace(translates=tb.translates.sumset(ca.atoms)))
            trace.append("rule:TagTranslation")
    for ta in ca.tags:
        for tb in cb.tags:
            tags.append(_convolve_tag_pair(ta, tb))
            trace.append("rule:TagOpaque" if tags[-1].is_opaque()
                         else "rule:TagPower")
    return ClassExpr(atoms=atoms, ac_lebesgue=leb, tags=tuple(tags),
                     provenance=ca.provenance + cb.provenance + tuple(trace)
                     ).canonical()


def series_class(a: Union[MeasureExpr, ClassExpr]) -> ClassExpr:
    """Class of the geometrically weighted sum of all convolution powers.

    The result is the absolute-continuity type of sum over n >= 1 of
    2**-n times the n-fold convolution power of ``a``: atomic support
    closes to the group its atoms generate, the Lebesgue flag survives
    whenever any power acquires it, and the singular families accumulate
    every power, translated along the atomic group.
    """
    c = class_of(a)
    trace = ["rule:SeriesClosure"]
    # the union of the n-fold sumsets of a lattice g*Z + residues is the
    # group generated by g and the residues
    group = None if c.atoms is None else c.atoms.group()
    leb = c.ac_lebesgue
    if leb:
        trace.append("axiom:LebesgueAbsorption")
    tags: list[SingularTag] = []
    base_tags = list(c.tags)
    if base_tags and leb:
        # powers pairing a singular factor with a Lebesgue factor are
        # absorbed; the purely singular powers remain
        trace.append("rule:MixedPowersAbsorbed")
    for t in base_tags:
        translates = t.translates if group is None \
            else t.translates.sumset(group)
        if t.is_opaque():
            tags.append(SingularTag(
                opaque=tuple(sorted(("series-closure",) + t.opaque)),
                translates=translates))
        else:
            tags.append(SingularTag(t.components, closed=True,
                                    translates=translates))
    if len(base_tags) > 1:
        # cross products of distinct singular summands: kept opaque
        names = tuple(sorted(n for t in base_tags
                             for n in t.constituent_names()))
        translates = ORIGIN if group is None else group
        tags.append(SingularTag(opaque=("mixed-products",) + names,
                                translates=translates))
    return ClassExpr(atoms=group, ac_lebesgue=leb, tags=tuple(tags),
                     provenance=c.provenance + tuple(trace)).canonical()


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------

class RelationKind(Enum):
    EQUIVALENT = "Equivalent"
    FIRST_AC_SECOND = "FirstAbsContSecond"
    SECOND_AC_FIRST = "SecondAbsContFirst"
    DISJOINT = "Disjoint"
    UNKNOWN = "Unknown"


class Relation(Value):
    __slots__ = ("kind", "trace")

    def __init__(self, kind: RelationKind, trace: tuple[str, ...] = ()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "trace", trace)

    def describe(self) -> str:
        rules = ", ".join(self.trace) if self.trace else "-"
        return f"{self.kind.value} [{rules}]"


def _tag_dominated(ta: SingularTag, tb: SingularTag) -> bool:
    """Every measure in tag a's class also lies in tag b's class."""
    if ta.translates != tb.translates and \
            not ta.translates.subset_of(tb.translates):
        return False
    if ta.is_opaque() or tb.is_opaque():
        return ta.opaque == tb.opaque and ta.components == tb.components \
            and ta.closed == tb.closed
    if tb.closed and not ta.closed:
        # a must be exactly an n-fold power of b's component product
        pa, pb = dict(ta.components), dict(tb.components)
        if set(pa) != set(pb):
            return False
        ratios = set()
        for key in pb:
            if pa[key] % pb[key] != 0:
                return False
            ratios.add(pa[key] // pb[key])
        return len(ratios) == 1 and ratios.pop() >= 1
    return ta.components == tb.components and ta.closed == tb.closed


def _component_ac(kind_a: str, comp_a, b: ClassExpr) -> Optional[str]:
    """Rule name if component (kind_a, comp_a) is dominated inside b."""
    if kind_a == "atoms":
        if b.atoms is not None and comp_a.subset_of(b.atoms):
            return "rule:AtomSupportInclusion"
        return None
    if kind_a == "leb":
        return "rule:LebesgueReflexive" if b.ac_lebesgue else None
    for tb in b.tags:
        if _tag_dominated(comp_a, tb):
            return "rule:TagInclusion"
    return None


def _components(c: ClassExpr):
    if c.atoms is not None:
        yield ("atoms", c.atoms)
    if c.ac_lebesgue:
        yield ("leb", None)
    for t in c.tags:
        yield ("tag", t)


def _pair_disjoint(ka, a, kb, b, table: AxiomTable) -> Optional[str]:
    """Axiom/rule name certifying disjointness of two components, or None."""
    if ka > kb:
        return _pair_disjoint(kb, b, ka, a, table)
    if ka == "atoms" and kb == "atoms":
        return None if a.intersects(b) else "rule:DisjointSupports"
    if ka == "atoms" and kb == "leb":
        return "axiom:AtomsVsLebesgue" if table.has("AtomsVsLebesgue") else None
    if ka == "atoms" and kb == "tag":
        return ("axiom:BernoulliNonAtomic"
                if table.has("BernoulliNonAtomic") else None)
    if ka == "leb" and kb == "leb":
        return None
    if ka == "leb" and kb == "tag":
        if b.is_base3_geometric() and table.has("SingularPowers"):
            return "axiom:SingularPowers"
        return None
    # tag vs tag: no disjointness axiom is available
    return None


def _inclusion_rules(a: ClassExpr, b: ClassExpr) -> Optional[list[str]]:
    """The rule names by which every component of a lies in b, or None."""
    rules = []
    for kind, comp in _components(a):
        rule = _component_ac(kind, comp, b)
        if rule is None:
            return None
        rules.append(rule)
    return rules


def relation(a: Union[MeasureExpr, ClassExpr], b: Union[MeasureExpr, ClassExpr],
             table: Optional[AxiomTable] = None) -> Relation:
    """Componentwise relation of two classes under the axiom table."""
    table = table or AxiomTable.default()
    ca, cb = class_of(a).canonical(), class_of(b).canonical()
    if ca == cb:
        return Relation(RelationKind.EQUIVALENT, ("rule:CanonicalEquality",))

    trace_ab, trace_ba = _inclusion_rules(ca, cb), _inclusion_rules(cb, ca)
    if trace_ab is not None and trace_ba is not None:
        return Relation(RelationKind.EQUIVALENT,
                        tuple(dict.fromkeys(trace_ab + trace_ba)))
    if trace_ab is not None:
        return Relation(RelationKind.FIRST_AC_SECOND,
                        tuple(dict.fromkeys(trace_ab)))
    if trace_ba is not None:
        return Relation(RelationKind.SECOND_AC_FIRST,
                        tuple(dict.fromkeys(trace_ba)))

    rules: list[str] = []
    for ka, compa in _components(ca):
        for kb, compb in _components(cb):
            rule = _pair_disjoint(ka, compa, kb, compb, table)
            if rule is None:
                return Relation(RelationKind.UNKNOWN, ())
            rules.append(rule)
    if not rules:
        return Relation(RelationKind.UNKNOWN, ())
    return Relation(RelationKind.DISJOINT, tuple(dict.fromkeys(rules)))


# ---------------------------------------------------------------------------
# Canonical text form (used by certificates; parse + serialize)
# ---------------------------------------------------------------------------

def class_to_text(c: ClassExpr) -> str:
    return c.canonical().describe()


def _parse_support(text: str) -> Support:
    text = text.strip()
    if text.startswith("{"):
        body = text[1:-1]
        return Support.finite([parse_rational(p)
                               for p in body.split(",") if p])
    if text.startswith("lattice("):
        body = text[len("lattice("):-1]
        if ";+{" in body:
            gen, rest = body.split(";+{")
            residues = [parse_rational(r) for r in rest[:-1].split(",") if r]
            return Support.lattice(parse_rational(gen), residues)
        return Support.lattice(parse_rational(body))
    raise SpecFormatError(f"cannot parse support {text!r}")


def _parse_seq_key(head: str) -> tuple:
    scale = Fraction(1)
    if "*" in head and not head.startswith("explicit"):
        s, head = head.split("*", 1)
        scale = parse_rational(s)
    if head.endswith("^-k!"):
        return CoefficientSequence("factorial", int(head[:-4]), scale).key()
    if head.endswith("^-k"):
        return CoefficientSequence("geometric", int(head[:-3]), scale).key()
    raise SpecFormatError(f"cannot parse tag family {head!r}")


def _parse_tag(text: str) -> SingularTag:
    text = text.strip()
    if text.startswith("opaque["):
        raise SpecFormatError("opaque tags cannot be round-tripped from text")
    body, translates = text.rsplit(" @ ", 1)
    closed = False
    if body.startswith("series(") and body.endswith(")"):
        closed = True
        body = body[len("series("):-1]
    components = []
    for part in body.split("*bern["):
        part = part.removeprefix("bern[")
        head, power = part.rsplit("]^", 1)
        components.append((_parse_seq_key(head), int(power)))
    return SingularTag(tuple(sorted(components, key=lambda kp: str(kp))),
                       closed=closed,
                       translates=_parse_support(translates))


def class_from_text(text: str) -> ClassExpr:
    text = text.strip()
    if text == "null":
        return ClassExpr()
    atoms = None
    leb = False
    tags = []
    for part in text.split(" + "):
        part = part.strip()
        if part == "lebesgue":
            leb = True
        elif part.startswith("atoms"):
            atoms = _parse_support(part[len("atoms"):])
        else:
            tags.append(_parse_tag(part))
    return ClassExpr(atoms=atoms, ac_lebesgue=leb, tags=tuple(tags)).canonical()
