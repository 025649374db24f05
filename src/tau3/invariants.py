"""Invariant descriptors and non-isomorphism certificates for factors
specified by the spectral measure of their defining one-parameter group.

For a factor specification the engine computes:

  * the topology descriptor of the spectral measure (catalog-based), with
    witness sequences where the topology is not the usual one;
  * bounds for the state-intersection invariant: an upper bound given by
    the geometrically weighted series of convolution powers of the
    spectral measure (augmented with a unit atom at 0, the state
    normalization on the log scale), and a lower bound equal to the
    Lebesgue class whenever the core rule fires;
  * the weight-intersection value when known exactly, checked against the
    global containment in the Lebesgue class.

``distinguish`` compares two specifications and emits a Certificate whose
text form is deterministic, diffable, and replayable: the replayer
re-executes every recorded relation and reproduces the verdict from the
recorded inputs.
"""

from __future__ import annotations

import json
from enum import Enum
from fractions import Fraction
from typing import Optional

from .errors import SpecFormatError, UndeterminedError, Value
from .class_algebra import (ORIGIN, AxiomTable, ClassExpr, LEBESGUE_CLASS,
                            Relation, RelationKind, atom_union,
                            class_from_text, class_of, class_to_text,
                            relation, series_class)
from .intervals import precision_bits
from .measures import (EXPLICIT, MeasureExpr, measure_from_dict,
                       measure_to_dict, support_lattice)
from .topology import (CompletionClass, CompletionKind, Conclusion,
                       ConvergenceVerdict, SequenceSpec, classify_completion,
                       test_sequence)

CERT_HEADER = "CERTIFICATE-V1"

NOTATION_NOTE = ("the state-intersection invariant is identified with the "
                 "series-class collection computed here; only containment "
                 "and disjointness are asserted, never the exact value")


class FactorSpec(Value):
    """A factor given by the symmetric spectral measure of its defining
    orthogonal one-parameter group (additive log scale).  The label is one
    non-empty line that does not end in whitespace, as a certificate's
    ``label:`` line reads it back."""

    __slots__ = ("label", "spectral_measure")

    def __init__(self, label: str, spectral_measure: MeasureExpr):
        if len(label.splitlines()) != 1 or label != label.rstrip():
            raise ValueError(f"label {label!r} must be one non-empty line "
                             f"that does not end in whitespace")
        m = spectral_measure
        if m.is_zero:
            raise ValueError("spectral measure must be nontrivial")
        if not m.lebesgue and m.bernoulli is None \
                and all(p == 0 for p, _ in m.atoms):
            raise ValueError("spectral measure supported at 0 only defines "
                             "no nontrivial group action")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "spectral_measure", m)


class TauDescriptor(Value):
    __slots__ = ("completion", "reason")

    def __init__(self, completion: Optional[CompletionClass],
                 reason: Optional[str] = None):
        object.__setattr__(self, "completion", completion)
        object.__setattr__(self, "reason", reason)

    @property
    def determined(self) -> bool:
        return self.completion is not None

    def tau_key(self):
        return self.completion.tau_key() if self.determined else None

    def describe(self) -> str:
        if not self.determined:
            return f"Undetermined({self.reason})"
        return self.completion.describe()


class SBounds(Value):
    """Bracket for the state-intersection invariant plus the exact
    weight-intersection value when the core rule applies."""

    __slots__ = ("lower", "upper", "w_exact", "tau_bar", "rules")

    def __init__(self, lower: Optional[ClassExpr], upper: ClassExpr,
                 w_exact: Optional[ClassExpr], tau_bar: Optional[str],
                 rules: tuple[str, ...]):
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "w_exact", w_exact)
        object.__setattr__(self, "tau_bar", tau_bar)
        object.__setattr__(self, "rules", rules)


class Verdict(Enum):
    NOT_ISOMORPHIC = "NotIsomorphic"
    INDISTINGUISHABLE = "Indistinguishable"
    UNDETERMINED = "Undetermined"


def tau_descriptor(spec: FactorSpec,
                   bits: Optional[int] = None) -> TauDescriptor:
    """Topology descriptor of the factor: the spectral measure's completion
    class, witnesses attached."""
    bits = precision_bits(bits)
    try:
        return TauDescriptor(classify_completion(spec.spectral_measure, bits))
    except UndeterminedError as exc:
        return TauDescriptor(None, reason=str(exc))


def _augment_with_unit(c: ClassExpr) -> ClassExpr:
    atoms = ORIGIN if c.atoms is None else atom_union(c.atoms, ORIGIN)
    return c.replace(atoms=atoms)


def _is_exact_lebesgue_plus_unit(m: MeasureExpr) -> bool:
    return (m.lebesgue and m.bernoulli is None
            and m.atoms == ((Fraction(0), Fraction(1)),))


def s_bounds(spec: FactorSpec,
             table: Optional[AxiomTable] = None) -> SBounds:
    """Invariant bracket for the factor.

    upper: always the series class of the unit-augmented spectral measure.
    lower: the Lebesgue class exactly when the core rule fires (spectral
    measure carries a Lebesgue summand); absent otherwise.
    """
    table = table or AxiomTable.default()
    m = spec.spectral_measure
    rules: list[str] = []
    cls = class_of(m)
    aug = _augment_with_unit(cls)
    upper = series_class(aug).with_note("series of unit-augmented measure")
    rules.append("rule:SeriesUpperBound")

    lower = None
    w_exact = None
    tau_bar = None
    if cls.ac_lebesgue and table.has("R-CORE"):
        lower = LEBESGUE_CLASS
        w_exact = LEBESGUE_CLASS
        rules.append("axiom:R-CORE")
        if table.has("W-IN-LAMBDA"):
            rules.append("axiom:W-IN-LAMBDA")
        if table.has("TauBarFromFullCore"):
            tau_bar = "usual topology of the line"
            rules.append("axiom:TauBarFromFullCore")
    if _is_exact_lebesgue_plus_unit(m) and table.has("R-EXACT"):
        lower = cls
        upper = cls.with_note("exact value by the state-form core rule")
        rules.append("axiom:R-EXACT")

    if w_exact is not None:
        check = relation(w_exact, LEBESGUE_CLASS, table)
        if check.kind not in (RelationKind.EQUIVALENT,
                              RelationKind.FIRST_AC_SECOND):
            raise RuntimeError(
                "engine invariant violated: a weight-intersection value "
                "escaped the Lebesgue class")
    return SBounds(lower, upper, w_exact, tau_bar, tuple(rules))


# ---------------------------------------------------------------------------
# Witness construction for topology separations
# ---------------------------------------------------------------------------

def _atomic_progression_witness(gen_conv: Fraction, other: MeasureExpr
                                ) -> Optional[SequenceSpec]:
    """Sequence converging in the topology of an atomic measure with group
    generator ``gen_conv`` while staying bounded away under ``other``.

    Picks a support point b of ``other`` (an explicit two-point part's
    expansion included) outside the first group and an arithmetic
    progression t = (c + j*q)/g on which b*t keeps a fixed non-integer
    fractional part.
    """
    if gen_conv == 0:
        return None
    den, nums = support_lattice(other)
    for p_pt in sorted(nums):
        if p_pt == 0:
            continue
        r = Fraction(abs(p_pt), den) / gen_conv
        if r.denominator == 1:
            continue
        q = r.denominator
        values = [Fraction(1 + j * q, 1) / gen_conv for j in range(4)]
        return SequenceSpec(EXPLICIT, values=tuple(values))
    return None


class CrossTest(Value):
    __slots__ = ("name", "verdict")

    def __init__(self, name: str, verdict: ConvergenceVerdict):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "verdict", verdict)

    def describe(self) -> str:
        extra = ""
        if self.verdict.gap is not None:
            extra = f" gap={self.verdict.gap}"
        return f"{self.name}: {self.verdict.conclusion.value}{extra}"


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

class RelationRecord(Value):
    __slots__ = ("name", "rel")

    def __init__(self, name: str, rel: Relation):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "rel", rel)

    def describe(self) -> str:
        return f"{self.name}: {self.rel.describe()}"


class Certificate(Value):
    """Everything a replay checks; ``axioms`` holds the cited table rows
    as (name, statement, anchor)."""

    __slots__ = ("label_a", "label_b", "measure_a", "measure_b", "tau_a",
                 "tau_b", "sb_a", "sb_b", "relations", "cross_tests",
                 "verdict", "reason", "table_hash", "axioms", "notes")

    def __init__(self, label_a: str, label_b: str, measure_a: dict,
                 measure_b: dict, tau_a: TauDescriptor, tau_b: TauDescriptor,
                 sb_a: SBounds, sb_b: SBounds,
                 relations: tuple[RelationRecord, ...],
                 cross_tests: tuple[CrossTest, ...], verdict: Verdict,
                 reason: str, table_hash: str,
                 axioms: tuple[tuple[str, str, str], ...],
                 notes: tuple[str, ...] = (NOTATION_NOTE,)):
        for name, value in zip(self.__slots__, (
                label_a, label_b, measure_a, measure_b, tau_a, tau_b, sb_a,
                sb_b, relations, cross_tests, verdict, reason, table_hash,
                axioms, notes)):
            object.__setattr__(self, name, value)

    def cited_rules(self) -> tuple[str, ...]:
        out: list[str] = []
        for sb in (self.sb_a, self.sb_b):
            out.extend(sb.rules)
        for rec in self.relations:
            out.extend(rec.rel.trace)
        return tuple(dict.fromkeys(out))

    def to_text(self) -> str:
        lines = [CERT_HEADER, f"AXIOM-TABLE-HASH: {self.table_hash}"]
        lines.append("INPUTS")
        for side, label, doc in (("A", self.label_a, self.measure_a),
                                 ("B", self.label_b, self.measure_b)):
            lines.append(f"  {side}.label: {label}")
            lines.append(f"  {side}.measure: "
                         + json.dumps(doc, sort_keys=True))
        lines.append("TAU")
        for side, tau in (("A", self.tau_a), ("B", self.tau_b)):
            lines.append(f"  {side}: {tau.describe()}")
            if tau.determined:
                for step in tau.completion.trace:
                    lines.append(f"  {side}.trace: {step}")
        for ct in self.cross_tests:
            lines.append(f"  cross: {ct.describe()}")
        lines.append("S-BOUNDS")
        for side, sb in (("A", self.sb_a), ("B", self.sb_b)):
            lower = class_to_text(sb.lower) if sb.lower is not None else "-"
            w = class_to_text(sb.w_exact) if sb.w_exact is not None else "-"
            lines.append(f"  {side}.w-exact: {w}")
            lines.append(f"  {side}.lower: {lower}")
            lines.append(f"  {side}.upper: {class_to_text(sb.upper)}")
            lines.append(f"  {side}.tau-bar: {sb.tau_bar or '-'}")
            lines.append(f"  {side}.rules: {', '.join(sb.rules) or '-'}")
        lines.append("RELATIONS")
        for rec in self.relations:
            lines.append(f"  {rec.describe()}")
        lines.append("VERDICT")
        lines.append(f"  {self.verdict.value}")
        lines.append(f"  reason: {self.reason}")
        lines.append("AXIOMS")
        for name, statement, anchor in self.axioms:
            lines.append(f"  {name} | {statement} | {anchor}")
        lines.append("NOTES")
        for note in self.notes:
            lines.append(f"  - {note}")
        lines.append("END")
        return "\n".join(lines) + "\n"


def _cited_axioms(cert_rules, table: AxiomTable):
    names = []
    for rule in cert_rules:
        if rule.startswith("axiom:"):
            name = rule[len("axiom:"):]
            if table.has(name) and name not in names:
                names.append(name)
    return tuple((n, table.get(n).statement, table.get(n).anchor)
                 for n in names)


# ---------------------------------------------------------------------------
# The comparison engine
# ---------------------------------------------------------------------------

def _tau_separation(a: FactorSpec, b: FactorSpec, tau_a: TauDescriptor,
                    tau_b: TauDescriptor, bits: int
                    ) -> tuple[Optional[str], list[CrossTest]]:
    """Certified topology separation, or None; cross tests are recorded."""
    tests: list[CrossTest] = []
    if not (tau_a.determined and tau_b.determined):
        return None, tests
    ka, kb = tau_a.tau_key(), tau_b.tau_key()
    if ka == kb:
        return None, tests
    ca, cb = tau_a.completion, tau_b.completion

    # a non-usual certificate on one side against usual on the other:
    # the witness converges in its own topology and diverges in the usual
    for x, cx in ((ca, cb), (cb, ca)):
        if (x.kind is CompletionKind.NON_LOCALLY_COMPACT
                and cx.kind is CompletionKind.USUAL_TOPOLOGY_REAL):
            return ("witness sequence converges in the non-locally-compact "
                    "side but diverges in the usual topology of the other "
                    "side"), tests

    if (ca.kind is CompletionKind.NON_LOCALLY_COMPACT
            and cb.kind is CompletionKind.NON_LOCALLY_COMPACT):
        # cross-test each witness under the other measure
        va = test_sequence(a.spectral_measure, cb.witness, bits=bits)
        tests.append(CrossTest(f"witness({b.label}) under {a.label}", va))
        vb = test_sequence(b.spectral_measure, ca.witness, bits=bits)
        tests.append(CrossTest(f"witness({a.label}) under {b.label}", vb))
        if va.conclusion is Conclusion.BOUNDED_AWAY_FROM_1 or \
           vb.conclusion is Conclusion.BOUNDED_AWAY_FROM_1:
            return ("a witness sequence converges on one side and is "
                    "certifiably bounded away on the other"), tests
        return None, tests

    atomic_kinds = (CompletionKind.NOT_HAUSDORFF,
                    CompletionKind.COMPACT_ATOMIC)
    if ca.kind in atomic_kinds and cb.kind in atomic_kinds:
        # generators differ (keys differ); build a progression witness
        for (x, spec_x, y, spec_y) in ((ca, a, cb, b), (cb, b, ca, a)):
            seq = _atomic_progression_witness(
                x.canonical_generator, spec_y.spectral_measure)
            if seq is None:
                continue
            vx = test_sequence(spec_x.spectral_measure, seq, bits=bits)
            vy = test_sequence(spec_y.spectral_measure, seq,
                               tol=Fraction(1, 10 ** 9), bits=bits)
            tests.append(CrossTest(
                f"progression under {spec_x.label}", vx))
            tests.append(CrossTest(
                f"progression under {spec_y.label}", vy))
            if (vx.conclusion is Conclusion.CONVERGES_TO_1
                    and vy.conclusion is Conclusion.BOUNDED_AWAY_FROM_1):
                return ("an arithmetic progression converges on one atomic "
                        "side and is bounded away on the other"), tests
        return None, tests

    if ca.kind in atomic_kinds or cb.kind in atomic_kinds:
        x, spec_x, y, spec_y = ((ca, a, cb, b)
                                if ca.kind in atomic_kinds else (cb, b, ca, a))
        g = x.canonical_generator
        if g and g != 0:
            values = tuple(Fraction(j, 1) / g for j in range(1, 5))
            seq = SequenceSpec(EXPLICIT, values=values)
            vx = test_sequence(spec_x.spectral_measure, seq, bits=bits)
            tests.append(CrossTest(f"lattice sequence under {spec_x.label}",
                                   vx))
            if vx.conclusion is Conclusion.CONVERGES_TO_1 and \
                    y.kind is CompletionKind.USUAL_TOPOLOGY_REAL:
                return ("the lattice sequence converges on the atomic side "
                        "and diverges in the usual topology of the other "
                        "side"), tests
            if y.kind is CompletionKind.NON_LOCALLY_COMPACT:
                vy = test_sequence(spec_y.spectral_measure, seq,
                                   tol=Fraction(1, 10 ** 9), bits=bits)
                tests.append(CrossTest(
                    f"lattice sequence under {spec_y.label}", vy))
                if (vx.conclusion is Conclusion.CONVERGES_TO_1
                        and vy.conclusion is Conclusion.BOUNDED_AWAY_FROM_1):
                    return ("the lattice sequence converges on the atomic "
                            "side and is bounded away on the other"), tests
    return None, tests


def distinguish(a: FactorSpec, b: FactorSpec,
                table: Optional[AxiomTable] = None,
                bits: Optional[int] = None) -> Certificate:
    """Compare two factor specifications and emit a certificate.

    NotIsomorphic requires either a certified topology separation or a
    disjointness/strict-containment between one side's invariant lower
    bound and the other side's upper bound.  Indistinguishable means all
    computed descriptors agree; Undetermined covers everything else.
    """
    table = table or AxiomTable.default()
    bits = precision_bits(bits)
    tau_a, tau_b = tau_descriptor(a, bits), tau_descriptor(b, bits)
    sb_a, sb_b = s_bounds(a, table), s_bounds(b, table)

    relations: list[RelationRecord] = []
    separations: list[str] = []

    def check_bracket(side_from: str, lower: Optional[ClassExpr],
                      side_to: str, upper: ClassExpr):
        if lower is None:
            return
        rel = relation(lower, upper, table)
        relations.append(RelationRecord(
            f"s-lower({side_from}) vs s-upper({side_to})", rel))
        if rel.kind is RelationKind.DISJOINT:
            separations.append(
                f"s-lower({side_from}) is disjoint from s-upper({side_to})")
        elif rel.kind is RelationKind.SECOND_AC_FIRST:
            separations.append(
                f"s-lower({side_from}) strictly exceeds s-upper({side_to})")

    check_bracket("A", sb_a.lower, "B", sb_b.upper)
    check_bracket("B", sb_b.lower, "A", sb_a.upper)
    uppers = relation(sb_a.upper, sb_b.upper, table)
    relations.append(RelationRecord("s-upper(A) vs s-upper(B)", uppers))

    tau_sep, tests = _tau_separation(a, b, tau_a, tau_b, bits)
    if tau_sep is not None:
        separations.append(f"tau separation: {tau_sep}")

    if separations:
        verdict = Verdict.NOT_ISOMORPHIC
        reason = "; ".join(separations)
    elif not (tau_a.determined and tau_b.determined):
        verdict = Verdict.UNDETERMINED
        reason = "a topology descriptor is undetermined: " + \
            (tau_a.reason or tau_b.reason or "")
    else:
        tau_equal = tau_a.tau_key() == tau_b.tau_key()
        lowers_equal = (sb_a.lower is None) == (sb_b.lower is None) and (
            sb_a.lower is None
            or relation(sb_a.lower, sb_b.lower, table).kind
            is RelationKind.EQUIVALENT)
        if tau_equal and lowers_equal and uppers.kind is RelationKind.EQUIVALENT:
            verdict = Verdict.INDISTINGUISHABLE
            reason = ("all computed descriptors agree and no separating "
                      "relation was found")
        else:
            verdict = Verdict.UNDETERMINED
            reason = ("descriptors neither agree nor separate under the "
                      "available axioms")

    cert = Certificate(
        label_a=a.label, label_b=b.label,
        measure_a=measure_to_dict(a.spectral_measure),
        measure_b=measure_to_dict(b.spectral_measure),
        tau_a=tau_a, tau_b=tau_b, sb_a=sb_a, sb_b=sb_b,
        relations=tuple(relations), cross_tests=tuple(tests),
        verdict=verdict, reason=reason,
        table_hash=table.table_hash(),
        axioms=(), notes=(NOTATION_NOTE,))
    cert = cert.replace(axioms=_cited_axioms(cert.cited_rules(), table))
    return cert


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

class ReplayReport(Value):
    __slots__ = ("ok", "notes")

    def __init__(self, ok: bool, notes: tuple[str, ...]):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "notes", notes)


def _parse_certificate(text: str) -> dict:
    lines = text.splitlines()
    if not lines or lines[0] != CERT_HEADER:
        raise SpecFormatError("not a certificate document", line=1, column=1)
    out: dict = {"relations": [], "sbounds": {}, "inputs": {}}
    section = None
    for raw in lines[1:]:
        if raw.startswith("AXIOM-TABLE-HASH: "):
            out["hash"] = raw.split(": ", 1)[1]
            continue
        if raw in ("INPUTS", "TAU", "S-BOUNDS", "RELATIONS", "VERDICT",
                   "AXIOMS", "NOTES", "END"):
            section = raw
            continue
        body = raw.strip()
        if section == "INPUTS":
            key, val = body.split(": ", 1)
            out["inputs"][key] = val
        elif section == "S-BOUNDS" and ": " in body:
            key, val = body.split(": ", 1)
            out["sbounds"][key] = val
        elif section == "RELATIONS":
            name, rest = body.split(": ", 1)
            kind = rest.split(" [", 1)[0]
            out["relations"].append((name, kind))
    return out


def replay_certificate(text: str,
                       table: Optional[AxiomTable] = None) -> ReplayReport:
    """Re-execute a certificate from its recorded inputs.

    Rebuilds both factor specifications, recomputes descriptors, bounds and
    relations with the same axiom table, and checks that the regenerated
    certificate is byte-identical and every recorded relation reproduces.
    """
    table = table or AxiomTable.default()
    notes: list[str] = []
    try:
        parsed = _parse_certificate(text)
        if parsed.get("hash") != table.table_hash():
            notes.append("axiom table hash differs from the recorded one")
            return ReplayReport(False, tuple(notes))
        spec_a = FactorSpec(parsed["inputs"]["A.label"],
                            measure_from_dict(
                                json.loads(parsed["inputs"]["A.measure"])))
        spec_b = FactorSpec(parsed["inputs"]["B.label"],
                            measure_from_dict(
                                json.loads(parsed["inputs"]["B.measure"])))
        regen = distinguish(spec_a, spec_b, table)
        if regen.to_text() != text:
            notes.append("regenerated certificate differs from the record")
            return ReplayReport(False, tuple(notes))
        # independently re-execute the recorded relations from the
        # serialized class expressions
        parsed_classes = {}
        for key, val in parsed["sbounds"].items():
            side, kind = key.split(".")
            if kind in ("lower", "upper") and val != "-":
                try:
                    parsed_classes[f"s-{kind}({side})"] = class_from_text(val)
                except SpecFormatError:
                    notes.append(f"{key}: not re-parseable, skipped")
        for name, kind in parsed["relations"]:
            left, right = name.split(" vs ")
            if left in parsed_classes and right in parsed_classes:
                redone = relation(parsed_classes[left],
                                  parsed_classes[right], table)
                if redone.kind.value != kind:
                    notes.append(
                        f"relation {name} replayed to {redone.kind.value}, "
                        f"recorded {kind}")
                    return ReplayReport(False, tuple(notes))
                notes.append(f"relation {name}: reproduced {kind}")
        notes.append(f"verdict reproduced: {regen.verdict.value}")
        return ReplayReport(True, tuple(notes))
    except (KeyError, ValueError, SpecFormatError) as exc:
        notes.append(f"replay failed: {exc}")
        return ReplayReport(False, tuple(notes))
