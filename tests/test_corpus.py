"""Differential corpus: every recorded transform output must stay the same.

``corpus.txt`` holds one seeded case per line, ``<case> => <outcome>``.  A
case names one op of ``fourier`` or ``topology`` and its inputs; the
outcome is the exact enclosure (``[lo,hi]``, or ``[x]`` for a point), the
head length, the verdict with its per-index enclosures, or the refusal's
type and message (``!Type: message``).  A dyadic end n/2**s is written
``n/2^s``.  Cases are written so the test needs no random generator:

    ft_point <measure> <t> <cutoff or -> <bits>
    tail_bound <sequence> <t> <cutoff> <bits>
    choose_cutoff <sequence> <t>
    head <sequence> <t> <n> <bits>
    window_product <c> <bits>
    test_sequence <measure> <family> <bits>

A measure is ``+``-joined parts ``geometric(b,s)``, ``factorial(b,s)``,
``explicit(v1,v2,...)`` and ``atoms(p:w,...)`` (atoms at +-p of weight w
each); a sequence is one of the first three.  An argument is a rational or
``s*b^e`` (``s*b^n!`` for e = n!).  A family is ``factorial(lam,b,lo..hi)``,
``geometric(lam,b,lo..hi)`` or ``explicit(v1,...)``.

To rebuild the file after a deliberate change, run
``PYTHONPATH=src python tests/test_corpus.py`` and review the diff.  It
refuses to write when an enclosure is not inside the recorded one, when a
recorded value becomes a refusal, or when the case list changes; it prints
every line that changed.
"""

import random
import re
import sys
from fractions import Fraction as F
from math import factorial
from pathlib import Path

from tau3 import fourier, topology
from tau3.errors import Tau3Error
from tau3.fourier import (ScaledPower, as_argument, choose_cutoff, ft_point,
                          tail_bound)
from tau3.intervals import IntervalValue
from tau3.measures import CoefficientSequence, MeasureExpr
from tau3.topology import SequenceSpec, window_product

CORPUS = Path(__file__).resolve().parent / "corpus.txt"
SEED = 2108
#: how many cases of each op ``generate`` draws
COUNTS = {"ft_point": 800, "tail_bound": 250, "choose_cutoff": 250,
          "window_product": 60, "test_sequence": 100, "head": 150}
BITS = (64, 64, 96, 128, 128, 192, 256, 256, 384, 512, 768, 1024)
TRAILING = re.compile(r"^(\w+)\((.*)\)$")


# ---------------------------------------------------------------------------
# Reading and writing cases
# ---------------------------------------------------------------------------

def rational(text: str) -> F:
    num, _, den = text.partition("/")
    return (F(int(num), 1 << int(den[2:])) if den.startswith("2^")
            else F(text))


def fmt(x: F) -> str:
    """A rational, n/2^s when its denominator is a power of two > 1."""
    d = x.denominator
    return (f"{x.numerator}/2^{d.bit_length() - 1}"
            if d > 1 and d & (d - 1) == 0 else str(x))


def parse_argument(text: str):
    if "*" not in text:
        return F(text)
    scale, _, power = text.partition("*")
    base, _, exp = power.partition("^")
    e = factorial(int(exp[:-1])) if exp.endswith("!") else int(exp)
    return ScaledPower(F(scale), int(base), e)


def parse_sequence(text: str) -> CoefficientSequence:
    kind, args = TRAILING.match(text).groups()
    args = args.split(",")
    if kind == "explicit":
        return CoefficientSequence(kind, values=tuple(map(F, args)))
    return CoefficientSequence(kind, int(args[0]), F(args[1]))


def parse_measure(text: str) -> MeasureExpr:
    m = MeasureExpr()
    for part in text.split("+"):
        kind, args = TRAILING.match(part).groups()
        if kind == "atoms":
            for pair in args.split(","):
                p, w = pair.split(":")
                m = m.plus(MeasureExpr.symmetric_pair(F(p), F(w)))
        else:
            m = m.plus(MeasureExpr(bernoulli=parse_sequence(part)))
    return m


def parse_family(text: str) -> SequenceSpec:
    family, args = TRAILING.match(text).groups()
    args = args.split(",")
    if family == "explicit":
        return SequenceSpec(family, values=tuple(map(F, args)))
    lo, hi = map(int, args[2].split(".."))
    return SequenceSpec(family, F(args[0]), int(args[1]), lo, hi)


def interval(iv) -> str:
    return f"[{fmt(iv.lo)}]" if iv.exact else f"[{fmt(iv.lo)},{fmt(iv.hi)}]"


def verdict(v) -> str:
    per = ",".join(f"{n}:{interval(iv)}" for n, _, iv in v.per_n)
    gap = "-" if v.gap is None else fmt(v.gap)
    start = "-" if v.from_index is None else v.from_index
    text = (f"{v.conclusion.value} from={start} gap={gap} "
            f"beyond={int(v.beyond_horizon)} per={per}")
    return text if v.reason is None else f"{text} reason={v.reason}"


def head(seq: CoefficientSequence, t, n: int, bits: int) -> str:
    """The first n factors as ``ft_point``'s head takes them, unrounded:
    a geometric chain shows its working radius here."""
    lo, hi, s = fourier._terms(seq, as_argument(t)).head(n, bits)
    return interval(IntervalValue(F(lo, 1 << s), F(hi, 1 << s)))


def run(case: str) -> str:
    """The outcome of one case, as the corpus records it."""
    op, *args = case.split()
    try:
        if op == "ft_point":
            m, t, cutoff, bits = args
            return interval(ft_point(parse_measure(m), parse_argument(t),
                                     None if cutoff == "-" else int(cutoff),
                                     int(bits)))
        if op == "tail_bound":
            seq, t, cutoff, bits = args
            return interval(tail_bound(parse_sequence(seq), int(cutoff),
                                       parse_argument(t), int(bits)))
        if op == "choose_cutoff":
            seq, t = args
            return str(choose_cutoff(parse_sequence(seq), parse_argument(t)))
        if op == "head":
            seq, t, n, bits = args
            return head(parse_sequence(seq), parse_argument(t), int(n),
                        int(bits))
        if op == "window_product":
            c, bits = args
            return interval(window_product(F(c), int(bits)))
        m, family, bits = args
        return verdict(topology.test_sequence(
            parse_measure(m), parse_family(family), bits=int(bits)))
    except Tau3Error as exc:
        return f"!{type(exc).__name__}: {exc}"


def read_corpus() -> list[tuple[str, str]]:
    return [tuple(line.split(" => ", 1))
            for line in CORPUS.read_text().splitlines()]


def test_every_case_has_its_recorded_outcome():
    changed = [f"{case}\n  recorded {old}\n  now      {new}"
               for case, old in read_corpus()
               if (new := run(case)) != old]
    assert not changed, (f"{len(changed)} cases differ; the first:\n"
                         + "\n".join(changed[:5]))


# ---------------------------------------------------------------------------
# Drawing the cases
# ---------------------------------------------------------------------------

def draw_rational(rng, signed=False) -> F:
    # denominators 3, 4, 6 and 12 put factors on exact cosines
    den = rng.choice((1, 2, 3, 4, 6, 7, 11, 12, 1000,
                      rng.randint(1, 10 ** 4)))
    x = F(rng.randint(1, 10 ** rng.randint(1, 8)), den)
    return -x if signed and rng.random() < 0.2 else x


def draw_scale(rng) -> F:
    return rng.choice((F(1), F(1), F(1, 3), F(5, 2),
                       F(rng.randint(1, 30), rng.randint(1, 9))))


def draw_sequence(rng, kind: str) -> str:
    if kind == "explicit":
        dens = sorted(rng.sample(range(2, 4000), rng.randint(1, 12)))
        return "explicit(" + ",".join(
            str(F(rng.randint(1, 3), d) if i == 0 else F(1, d))
            for i, d in enumerate(dens)) + ")"
    base = rng.randint(2, 16) if kind == "geometric" else rng.randint(2, 7)
    return f"{kind}({base},{draw_scale(rng)})"


def draw_atoms(rng) -> str:
    return "atoms(" + ",".join(
        f"{F(rng.randint(1, 600), rng.choice((1, 2, 3, 4, 5, 8, 9, 27)))}:"
        f"{F(1, rng.choice((2, 4, 8, 16)))}"
        for _ in range(rng.randint(1, 4))) + ")"


def base_of(seq: str) -> int:
    """The base of a drawn geometric or factorial sequence, else 0."""
    return (0 if seq.startswith("explicit")
            else int(seq.split("(")[1].split(",")[0]))


def draw_measure(rng) -> tuple[str, int]:
    """(measure, base of its sequence or 0)."""
    kind = rng.choices(("geometric", "factorial", "explicit", "atoms"),
                       (45, 25, 15, 15))[0]
    if kind == "atoms":
        return draw_atoms(rng), 0
    seq = draw_sequence(rng, kind)
    base = base_of(seq)
    return (seq + "+" + draw_atoms(rng) if rng.random() < 0.4 else seq), base


def draw_argument(rng, base: int, factorial_kind: bool) -> str:
    """A rational, or s*b^e of the sequence's base or another one, with e in
    0..120 or n!; t = 0 now and then."""
    roll = rng.random()
    if roll < 0.03:
        return "0"
    if roll < 0.45 or base == 0 and roll < 0.7:
        return str(draw_rational(rng, signed=True))
    b = base if base and roll < 0.78 else rng.randint(2, 16)
    if factorial_kind and rng.random() < 0.6:
        e = f"{rng.randint(1, 8)}!"
    else:
        e = str(rng.choice((rng.randint(0, 40), rng.randint(0, 120))))
    return f"{F(rng.randint(1, 30), rng.randint(1, 9))}*{b}^{e}"


def draw_cutoff(rng, none=True) -> str:
    roll = rng.random()
    if none and roll < 0.5:
        return "-"
    return str(rng.randint(0, 12) if roll < 0.8 else rng.randint(0, 300))


def draw_case(rng, op: str) -> str:
    if op == "window_product":
        return (f"window_product {draw_rational(rng)} "
                f"{rng.choice((64, 96, 128, 256))}")
    if op == "test_sequence":
        return draw_sequence_case(rng)
    if op == "ft_point":
        m, base = draw_measure(rng)
        factorial_kind = "factorial(" in m
        return (f"ft_point {m} {draw_argument(rng, base, factorial_kind)} "
                f"{draw_cutoff(rng)} {rng.choice(BITS)}")
    seq = draw_sequence(rng, rng.choices(
        ("geometric", "factorial", "explicit"), (55, 35, 10))[0])
    t = draw_argument(rng, base_of(seq), seq.startswith("factorial"))
    if op == "choose_cutoff":
        return f"choose_cutoff {seq} {t}"
    return f"{op} {seq} {t} {draw_cutoff(rng, none=False)} {rng.choice(BITS)}"


def draw_sequence_case(rng) -> str:
    """Factorial-matched pairs, the base-3 window route and generic ones."""
    bits = rng.choice((64, 96, 128))
    route = rng.randrange(4)
    lam = F(rng.randint(1, 8), 8)
    if route == 0:
        b = rng.randint(2, 5)
        m = f"factorial({b},{F(rng.randint(1, 3), rng.choice((1, 2, 3)))})"
        lo = rng.randint(1, 4)
        lam = rng.choice((lam, F(rng.randint(1, 3))))
        family = f"factorial({lam},{b},{lo}..{rng.randint(lo, 5)})"
    elif route == 1:
        m = f"geometric(3,{draw_scale(rng)})"
        lo = rng.randint(1, 30)
        family = (f"{rng.choice(('geometric', 'factorial'))}("
                  f"{lam},3,{lo}..{lo + rng.randint(0, 3)})")
        if family.startswith("factorial"):
            family = f"factorial({lam},3,1..{rng.randint(1, 4)})"
    elif route == 2:
        m, base = draw_measure(rng)
        lo = rng.randint(1, 40)
        family = (f"geometric({lam},{base or rng.randint(2, 7)},"
                  f"{lo}..{lo + rng.randint(0, 3)})")
    else:
        m, _ = draw_measure(rng)
        family = "explicit(" + ",".join(
            str(v) for v in sorted({draw_rational(rng)
                                    for _ in range(rng.randint(1, 4))})) + ")"
    if rng.random() < 0.3 and "atoms" not in m:
        m += "+" + draw_atoms(rng)
    return f"test_sequence {m} {family} {bits}"


def generate() -> list[str]:
    """The seeded case list, with a few heads of 3,000 factors."""
    rng = random.Random(SEED)
    cases = [draw_case(rng, op) for op, n in COUNTS.items()
             for _ in range(n)]
    cases += ["ft_point geometric(3,1) 37/11 3000 256",
              "ft_point geometric(2,1/3)+atoms(1/3:1/4) 5/3 3000 128",
              "ft_point geometric(12,5/2) 1/3*12^40 3000 64",
              "ft_point geometric(16,1) 37/11 3000 64",
              "ft_point factorial(3,1) 7/5 3000 64",
              "tail_bound geometric(3,1) 37/11 3000 256",
              "tail_bound factorial(2,1) 1*2^6! 3000 64"]
    return cases


# ---------------------------------------------------------------------------
# Regeneration
# ---------------------------------------------------------------------------

ENCLOSURE = re.compile(r"\[([-\d/^]+)(?:,([-\d/^]+))?\]")


def loosened(case: str, old: str, new: str) -> list[str]:
    """Why ``new`` may not replace ``old``: a refusal where a value was, or
    an enclosure not inside the recorded one."""
    if new.startswith("!") and not old.startswith("!"):
        return [f"{case}: {old} became {new}"]
    problems = []
    for a, b in zip(ENCLOSURE.findall(old), ENCLOSURE.findall(new)):
        a_lo, b_lo = rational(a[0]), rational(b[0])
        a_hi, b_hi = rational(a[1] or a[0]), rational(b[1] or b[0])
        if not a_lo <= b_lo <= b_hi <= a_hi:
            problems.append(f"{case}: {fmt(b_lo)}..{fmt(b_hi)} is not "
                            f"inside {fmt(a_lo)}..{fmt(a_hi)}")
    return problems


def test_regeneration_refuses_a_wider_enclosure_or_a_new_refusal():
    old = "[1/4,3/4]"
    assert loosened("c", old, "[1/3,2/3]") == []
    assert loosened("c", old, "[1/2]") == []
    assert loosened("c", old, "[1/5,2/3]") == ["c: 1/5..2/3 is not inside "
                                               "1/2^2..3/2^2"]
    assert loosened("c", old, "!TailNotCertified: x") == [
        f"c: {old} became !TailNotCertified: x"]
    assert loosened("c", "!TailNotCertified: x", old) == []
    assert loosened("c", "[1/2^2,3/2^2]", "[5/2^4,11/2^4]") == []
    assert loosened("c", "ok from=- per=1:[1/2^3]", "ok from=- per=1:[0]") == [
        "c: 0..0 is not inside 1/2^3..1/2^3"]


def regenerate() -> None:
    cases = generate()
    recorded = read_corpus() if CORPUS.exists() else []
    old = dict(recorded)
    if recorded and [case for case, _ in recorded] != cases:
        sys.exit("the case list changed: review generate() and delete "
                 f"{CORPUS.name} to record it afresh")
    lines, problems = [], []
    for case in cases:
        new = run(case)
        if case in old and new != old[case]:
            problems += loosened(case, old[case], new)
            print(f"changed: {case}\n  was {old[case]}\n  now {new}")
        lines.append(f"{case} => {new}\n")
    if problems:
        sys.exit("refusing to write:\n" + "\n".join(problems))
    CORPUS.write_text("".join(lines))
    print(f"wrote {len(lines)} cases to {CORPUS.name}")


if __name__ == "__main__":
    regenerate()
