"""Class-layer corpus: every recorded class, relation and certificate must
stay the same.

``class_corpus.txt`` holds one seeded case per line, ``<case> => <outcome>``.
A case names one op of ``class_algebra``, ``topology`` or ``invariants`` and
its inputs; the outcome is the exact text the op produces, or the refusal's
type and message (``!Type: message``):

    class_of <measure>              class_to_text(class_of(m))
    classify <measure>              classify_completion: describe() | trace
    relation <table> <x> <y>        kind [trace]
    convolve <x> <y>                class_to_text(convolve(x, y))
    series <measure>                class_to_text(series_class(m))
    s_bounds <measure>              w-exact | lower | upper | tau-bar | rules
    distinguish <measure> <measure> the certificate's text (as a JSON string),
                                    then replay on it and on a copy with one
                                    byte edited

A measure is ``+``-joined parts ``geometric(b,s)``, ``factorial(b,s)``,
``explicit(v1,v2,...)``, ``atoms(p:w,...)`` (atoms at +-p of weight w each;
p = 0 puts weight 2w at 0) and ``lebesgue``, optionally followed by ``@s``
for ``scale_measure(m, s)``.  An operand x or y is a
measure or ``series[<measure>]``; the table is ``default`` or ``no-singular``
(``golden/specs/axioms_no_singular.txt``).  An outcome longer than 8,000
characters is recorded as ``#sha256:<32 hex digits> (<length> bytes)``.

To rebuild the file after a deliberate change, run
``PYTHONPATH=src python tests/test_class_corpus.py`` and review the diff.
It refuses to write when the case list changes, and prints every line that
changed.
"""

import hashlib
import json
import random
import re
import sys
from fractions import Fraction as F
from pathlib import Path

from tau3.class_algebra import (AxiomTable, class_of, class_to_text,
                                convolve, relation, series_class)
from tau3.errors import Tau3Error
from tau3.invariants import (FactorSpec, distinguish, replay_certificate,
                             s_bounds)
from tau3.measures import CoefficientSequence, MeasureExpr, scale_measure
from tau3.topology import classify_completion

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "class_corpus.txt"
TABLES = {"default": AxiomTable.default(),
          "no-singular": AxiomTable.load(
              HERE / "golden" / "specs" / "axioms_no_singular.txt")}
SEED = 3011
#: how many cases of each op ``generate`` draws
COUNTS = {"class_of": 140, "classify": 120, "relation": 220, "convolve": 100,
          "series": 100, "s_bounds": 100, "distinguish": 24}
TRAILING = re.compile(r"^(\w+)\((.*)\)$")
#: an outcome longer than this is recorded by its digest
LONGEST = 8000


def explicit_pair(n: int) -> tuple[str, str]:
    """The lists 1/(2^k + 1) and 1/(2^k + 3), k = 1..n: with n = 12 their
    expansions are 4,096 distinct points each."""
    return tuple("explicit(" + ",".join(f"1/{2 ** k + c}"
                                         for k in range(1, n + 1)) + ")"
                 for c in (1, 3))


# ---------------------------------------------------------------------------
# Reading and running cases
# ---------------------------------------------------------------------------

def parse_part(text: str) -> MeasureExpr:
    if text == "lebesgue":
        return MeasureExpr.lebesgue_measure()
    kind, args = TRAILING.match(text).groups()
    if kind == "atoms":
        m = MeasureExpr()
        for pair in args.split(","):
            p, w = pair.split(":")
            m = m.plus(MeasureExpr.symmetric_pair(F(p), F(w)))
        return m
    args = args.split(",")
    if kind == "explicit":
        seq = CoefficientSequence(kind, values=tuple(map(F, args)))
    else:
        seq = CoefficientSequence(kind, int(args[0]), F(args[1]))
    return MeasureExpr(bernoulli=seq)


def parse_measure(text: str) -> MeasureExpr:
    body, _, scale = text.partition("@")
    m = MeasureExpr()
    for part in body.split("+"):
        m = m.plus(parse_part(part))
    return scale_measure(m, F(scale)) if scale else m


def parse_operand(text: str):
    if text.startswith("series["):
        return series_class(parse_measure(text[len("series["):-1]))
    return parse_measure(text)


def opt_class(c) -> str:
    return "-" if c is None else class_to_text(c)


def edited(text: str, rng: random.Random) -> str:
    """``text`` with one byte past the TAU header flipped, so the replay
    parses the recorded inputs and must catch the change itself."""
    start = text.index("\nTAU\n") + 5
    while True:
        i = rng.randrange(start, len(text))
        if text[i] != "\n":
            return text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]


def replay(text: str) -> str:
    report = replay_certificate(text)
    return ("ok" if report.ok else "fail") + ":" + " / ".join(report.notes)


def run(case: str) -> str:
    """The outcome of one case, as the corpus records it."""
    op, *args = case.split()
    try:
        if op == "class_of":
            return class_to_text(class_of(parse_measure(args[0])))
        if op == "classify":
            cc = classify_completion(parse_measure(args[0]))
            return " | ".join((cc.describe(),) + cc.trace)
        if op == "relation":
            table, x, y = args
            return relation(parse_operand(x), parse_operand(y),
                            TABLES[table]).describe()
        if op == "convolve":
            return class_to_text(convolve(*map(parse_operand, args)))
        if op == "series":
            return class_to_text(series_class(parse_measure(args[0])))
        if op == "s_bounds":
            sb = s_bounds(FactorSpec("M", parse_measure(args[0])))
            return " | ".join((opt_class(sb.w_exact), opt_class(sb.lower),
                               opt_class(sb.upper), sb.tau_bar or "-",
                               ", ".join(sb.rules) or "-"))
        a, b = map(parse_measure, args)
        text = distinguish(FactorSpec("A", a), FactorSpec("B", b)).to_text()
        copy = edited(text, random.Random(case))
        return (f"{json.dumps(text)} replay={replay(text)} "
                f"edited={replay(copy)}")
    except Tau3Error as exc:
        return f"!{type(exc).__name__}: {exc}"


def as_recorded(outcome: str) -> str:
    """``outcome``, or ``#sha256:<digest> (<length> bytes)`` if too long."""
    if len(outcome) <= LONGEST:
        return outcome
    digest = hashlib.sha256(outcome.encode()).hexdigest()[:32]
    return f"#sha256:{digest} ({len(outcome)} bytes)"


def read_corpus() -> list[tuple[str, str]]:
    return [tuple(line.split(" => ", 1))
            for line in CORPUS.read_text().splitlines()]


def first_difference(old: str, new: str) -> str:
    i = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
             min(len(old), len(new)))
    return (f"from byte {i}:\n  recorded ...{old[max(i - 40, 0):i + 80]}\n"
            f"  now      ...{new[max(i - 40, 0):i + 80]}")


def test_every_case_has_its_recorded_outcome():
    changed = [f"{case[:200]}\n  {first_difference(old, new)}"
               for case, old in read_corpus()
               if (new := as_recorded(run(case))) != old]
    assert not changed, (f"{len(changed)} cases differ; the first:\n"
                         + "\n".join(changed[:5]))


# ---------------------------------------------------------------------------
# Drawing the cases
# ---------------------------------------------------------------------------

def draw_scale(rng) -> F:
    return rng.choice((F(1), F(1), F(1, 3), F(5, 2), F(2), F(1, 2),
                       F(rng.randint(1, 30), rng.randint(1, 9))))


#: atom point denominators, all at most 27
ATOM_DENS = (1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 24, 27)


def draw_atoms(rng, zero=True) -> str:
    pairs = [f"{F(rng.randint(1, 60), rng.choice(ATOM_DENS))}:"
             f"{F(1, rng.choice((2, 4, 8, 16)))}"
             for _ in range(rng.randint(1, 4))]
    if zero and rng.random() < 0.3:
        pairs.insert(0, f"0:{F(1, rng.choice((2, 4, 8)))}")
    return "atoms(" + ",".join(pairs) + ")"


def draw_explicit(rng, length: int) -> str:
    dens = sorted(rng.sample(range(2, 14 + length), length))
    return "explicit(" + ",".join(
        str(F(rng.randint(1, 2), d) if i == 0 else F(1, d))
        for i, d in enumerate(dens)) + ")"


def draw_measure(rng, wide=False) -> str:
    """A seeded measure; ``wide`` allows explicit lists of up to 12 values."""
    kind = rng.choices(("atoms", "explicit", "geometric", "factorial",
                        "lebesgue"), (30, 20, 22, 18, 10))[0]
    if kind == "atoms":
        m = draw_atoms(rng)
    elif kind == "explicit":
        m = draw_explicit(rng, rng.randint(7, 12) if wide and
                          rng.random() < 0.1 else rng.randint(1, 6))
        if rng.random() < 0.3:
            m += "+" + draw_atoms(rng)
    elif kind == "lebesgue":
        m = rng.choice(("lebesgue", "lebesgue+atoms(0:1/2)",
                        "lebesgue+" + draw_atoms(rng)))
    else:
        base = rng.choice((2, 3, 3, 4, 5, 6, 7))
        scale = F(1) if rng.random() < 0.5 else draw_scale(rng)
        m = f"{kind}({base},{scale})"
        if rng.random() < 0.4:
            m += "+" + draw_atoms(rng, zero=kind != "factorial")
    if rng.random() < 0.2:
        m += f"@{draw_scale(rng)}"
    return m


def related(rng, m: str) -> str:
    """A measure sharing some structure with ``m``, so relations land on
    every kind, not only Unknown."""
    roll = rng.random()
    if roll < 0.2:
        return m
    if roll < 0.4:
        return f"{m.partition('@')[0]}@{draw_scale(rng)}"
    if roll < 0.6:
        base = m.partition("@")[0]
        return base + "+" + draw_atoms(rng) if "atoms" not in base else base
    return draw_measure(rng)


def draw_operand(rng, m: str) -> str:
    return f"series[{m}]" if rng.random() < 0.3 else m


def nontrivial(rng) -> str:
    """A measure that defines a factor: not supported at 0 only."""
    while True:
        m = draw_measure(rng)
        if m not in ("atoms(0:1/2)", "atoms(0:1/4)", "atoms(0:1/8)"):
            return m


def draw_case(rng, op: str) -> str:
    if op in ("class_of", "classify", "series"):
        return f"{op} {draw_measure(rng, wide=True)}"
    if op == "s_bounds":
        return f"s_bounds {nontrivial(rng)}"
    if op == "convolve":
        a = draw_measure(rng)
        if rng.random() < 0.25:
            # atoms at half the points of a: a coset of the group of a
            return f"convolve series[{a}] {a.partition('@')[0]}@2"
        return (f"convolve {draw_operand(rng, a)} "
                f"{draw_operand(rng, related(rng, a))}")
    if op == "distinguish":
        a = nontrivial(rng)
        b = related(rng, a)
        if b == a and rng.random() >= 0.3:
            b = nontrivial(rng)
        return f"distinguish {a} {b}"
    a = draw_measure(rng)
    b = related(rng, a)
    return (f"relation {rng.choice(tuple(TABLES))} {draw_operand(rng, a)} "
            f"{draw_operand(rng, b)}")


def generate() -> list[str]:
    """The seeded case list, with the 4,096-point explicit pair."""
    rng = random.Random(SEED)
    cases = [draw_case(rng, op) for op, n in COUNTS.items()
             for _ in range(n)]
    wa, wb = explicit_pair(12)
    # relating two finite supports scans one against the other, so the
    # finite pair is cut to nine values (512 points each)
    na, nb = explicit_pair(9)
    cases += [f"class_of {wa}", f"classify {wb}", f"series {wa}",
              f"relation default {wa} series[{wa}]",
              f"relation no-singular series[{wa}] {wb}",
              f"relation default {na} {nb}", f"distinguish {wa} {wb}"]
    return cases


# ---------------------------------------------------------------------------
# Regeneration
# ---------------------------------------------------------------------------

def regenerate() -> None:
    cases = generate()
    recorded = read_corpus() if CORPUS.exists() else []
    old = dict(recorded)
    if recorded and [case for case, _ in recorded] != cases:
        sys.exit("the case list changed: review generate() and delete "
                 f"{CORPUS.name} to record it afresh")
    lines = []
    for case in cases:
        new = as_recorded(run(case))
        if case in old and new != old[case]:
            print(f"changed: {case[:200]}\n  "
                  f"{first_difference(old[case], new)}")
        lines.append(f"{case} => {new}\n")
    CORPUS.write_text("".join(lines))
    print(f"wrote {len(lines)} cases to {CORPUS.name}")


if __name__ == "__main__":
    regenerate()
