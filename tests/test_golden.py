"""Golden corpus: CLI reports and certificates must stay byte-identical.

Each case runs ``tau3.cli.main`` in-process (so the cached window scan is
shared) in a scratch directory holding copies of ``golden/specs`` (measure
specs and one axiom table), with ``TAU3_PRECISION`` pinned to the default
profile, and compares the exit code, stdout and the ``--out`` file against
``golden/expected``.

To rebuild the expected files after a deliberate change of a report, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.  It
refuses to write anything when a changed line widens a ``value`` interval
beyond the old one, drops a value's `` exact`` suffix, makes a gap smaller,
prints a larger window supremum, or carries fewer values or gaps than the
old line (see ``loosened_lines``).
"""

import io
import os
import re
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction as F
from itertools import zip_longest
from pathlib import Path

import pytest

from tau3.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SPECS = GOLDEN / "specs"
EXPECTED = GOLDEN / "expected"
PRECISION = "default"

#: name -> (argv, exit code); every case writes its report to out.txt
CASES = {
    "distinguish_m1_m2": (["distinguish", "--a", "m1.json", "--b", "m2.json",
                           "--label-a", "M1", "--label-b", "M2"], 0),
    "distinguish_g1_g2": (["distinguish", "--a", "g1.json", "--b", "g2.json",
                           "--label-a", "G1", "--label-b", "G2"], 0),
    "eval_factorial_6": (["eval", "--measure", "g1.json",
                          "--t-power", "1,3,6!"], 0),
    # a 300-factor geometric head: a chain reading only some of its factors
    "eval_geometric_cutoff_300": (["eval", "--measure", "geometric.json",
                                   "--t", "37/11", "--cutoff", "300"], 0),
    "converge_3_8_at_3_8": (["converge", "--measure", "fact_3_8.json",
                             "--family", "factorial", "--lambda", "3/8",
                             "--n", "3..6"], 0),
    "converge_7_8_at_1_4": (["converge", "--measure", "fact_7_8.json",
                             "--family", "factorial", "--lambda", "1/4",
                             "--n", "3..6"], 0),
    "converge_1_at_5_8": (["converge", "--measure", "g1.json",
                           "--family", "factorial", "--lambda", "5/8",
                           "--n", "3..6"], 0),
    # window route: n=1 is below the window, n=2 a window bound outside
    # the gap, n >= 3 past WINDOW_THRESHOLD
    "converge_m2_geometric": (["converge", "--measure", "m2.json",
                               "--family", "geometric", "--lambda", "1/2",
                               "--n", "1..6"], 0),
    "classify_lebesgue": (["classify", "--measure", "lebesgue.json"], 0),
    "classify_geometric": (["classify", "--measure", "geometric.json"], 0),
    "classify_factorial": (["classify", "--measure", "g1.json"], 0),
    "classify_cyclic": (["classify", "--measure", "cyclic.json"], 0),
    "classify_compact": (["classify", "--measure", "compact.json"], 0),
    "classop_convolve": (["class-op", "--op", "convolve", "--a", "m2.json",
                          "--b", "cyclic.json"], 0),
    "classop_series": (["class-op", "--op", "series", "--a", "m2.json"], 0),
    "classop_relation": (["class-op", "--op", "relation", "--a", "m2.json",
                          "--b", "lebesgue.json"], 0),
    # exits other than 0, the explicit route, --axioms and oracle-check
    "eval_geometric_undetermined": (["eval", "--measure", "geometric.json",
                                     "--t-power", "1,3,100"], 2),
    "classify_geometric_base2": (["classify", "--measure",
                                  "geometric_base2.json"], 2),
    "converge_cyclic_points": (["converge", "--measure", "cyclic.json",
                                "--points", "1,2,3,4"], 0),
    "classop_relation_axioms": (["class-op", "--op", "relation",
                                 "--a", "m2.json", "--b", "lebesgue.json",
                                 "--axioms", "axioms_no_singular.txt"], 2),
    "oracle_check_30": (["oracle-check", "--cases", "30", "--seed", "7",
                         "--depth", "10"], 0),
}


def run_case(argv, workdir: Path) -> tuple[int, bytes, bytes]:
    """Exit code, stdout bytes and --out bytes of one CLI run in workdir."""
    for spec in SPECS.iterdir():
        shutil.copy(spec, workdir)
    out = workdir / "out.txt"
    buf = io.StringIO()
    cwd = Path.cwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(buf):
            code = main(argv + ["--out", out.name])
    finally:
        os.chdir(cwd)
    return code, buf.getvalue().encode(), out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path, monkeypatch):
    monkeypatch.setenv("TAU3_PRECISION", PRECISION)
    argv, expected_code = CASES[name]
    code, stdout, report = run_case(argv, tmp_path)
    assert code == expected_code
    assert stdout == (EXPECTED / f"{name}.stdout").read_bytes()
    assert report == (EXPECTED / f"{name}.out").read_bytes()


#: "value: [lo, hi]" and "value=[lo, hi]" enclosures with their " exact"
#: suffix, if any; "gap: g" and "gap=g"
VALUE = re.compile(r"value[:=] ?\[([-\d/]+), ([-\d/]+)\](?: ~\[[^]]*\])?"
                   r"( exact)?")
GAP = re.compile(r"gap[:=] ?([-\d/]+)")
#: the window supremum in "|FT(t)| <= s" and "certified window supremum s"
SUP = re.compile(r"(?:\|FT\(t\)\| <=|certified window supremum) ([\d.]+)")


def loosened_lines(name: str, old: str, new: str) -> list[str]:
    """'name:line: ...' for each line of ``new`` that differs from the line
    of ``old`` at the same place and has a ``value`` interval not inside the
    old one or without the old one's `` exact``, a gap smaller than the old
    one, a window supremum larger than the old one, or fewer values or gaps
    than the old line (a line missing from ``new`` has none)."""
    problems = []
    for i, (a, b) in enumerate(zip_longest(old.splitlines(),
                                           new.splitlines(), fillvalue=""), 1):
        if a == b:
            continue
        for what, pattern in (("value", VALUE), ("gap", GAP)):
            n_a, n_b = len(pattern.findall(a)), len(pattern.findall(b))
            if n_b < n_a:
                problems.append(f"{name}:{i}: {n_b} {what}s in place of "
                                f"{n_a}")
        for (a_lo, a_hi, a_exact), (b_lo, b_hi, b_exact) in zip(
                VALUE.findall(a), VALUE.findall(b)):
            if not F(a_lo) <= F(b_lo) <= F(b_hi) <= F(a_hi):
                problems.append(f"{name}:{i}: value [{b_lo}, {b_hi}] is not "
                                f"inside [{a_lo}, {a_hi}]")
            if a_exact and not b_exact:
                problems.append(f"{name}:{i}: value [{b_lo}, {b_hi}] drops "
                                f"the exact suffix")
        for a_gap, b_gap in zip(GAP.findall(a), GAP.findall(b)):
            if F(b_gap) < F(a_gap):
                problems.append(f"{name}:{i}: gap {b_gap} is smaller than "
                                f"{a_gap}")
        for a_sup, b_sup in zip(SUP.findall(a), SUP.findall(b)):
            if F(b_sup) > F(a_sup):
                problems.append(f"{name}:{i}: window supremum {b_sup} is "
                                f"larger than {a_sup}")
    return problems


def test_regeneration_refuses_a_widened_value_or_a_smaller_gap():
    old = "status: evaluated\nvalue: [1/4, 3/4] ~[0.25, 0.75]\ngap: 1/2 ~0.5\n"
    inside = old.replace("[1/4, 3/4]", "[1/3, 2/3]")
    assert loosened_lines("x.out", old, inside) == []
    assert loosened_lines("x.out", old, inside.replace("1/3", "1/5")) == [
        "x.out:2: value [1/5, 2/3] is not inside [1/4, 3/4]"]
    per_n = "  n=3 t=3^3! value=[-1/2, 1/2] ~[-0.5, 0.5]"
    assert loosened_lines("y.out", per_n, per_n.replace("1/2]", "3/4]")) == [
        "y.out:1: value [-1/2, 3/4] is not inside [-1/2, 1/2]"]
    point = "  n=1 t=1 value=[1, 1] ~[1.0, 1.0] exact"
    assert loosened_lines("w.out", point, point[:-len(" exact")]) == [
        "w.out:1: value [1, 1] drops the exact suffix"]
    assert loosened_lines("w.out", point[:-len(" exact")], point) == []
    smaller = old.replace("gap: 1/2", "gap: 1/3")
    larger = old.replace("gap: 1/2", "gap: 2/3")
    assert loosened_lines("x.out", old, smaller) == [
        "x.out:3: gap 1/3 is smaller than 1/2"]
    assert loosened_lines("x.out", old, larger) == []
    undetermined = "status: Undetermined\nreason: r\n"
    assert loosened_lines("x.out", old, undetermined) == [
        "x.out:2: 0 values in place of 1", "x.out:3: 0 gaps in place of 1"]
    assert loosened_lines("x.out", old, old.replace("gap: 1/2 ~0.5\n",
                                                    "")) == [
        "x.out:3: 0 gaps in place of 1"]
    for line in ("justification: three-factor window bound: |FT(t)| <= {} "
                 "< 1 once scale*t > 9",
                 "claim: the certified window supremum {} keeps every later "
                 "enclosure below 1 - 0.163994"):
        was = line.format("0.508017853")
        assert loosened_lines("z.out", was, line.format("0.508017586")) == []
        assert loosened_lines("z.out", was, line.format("0.508018")) == [
            "z.out:1: window supremum 0.508018 is larger than 0.508017853"]


def regenerate() -> None:
    os.environ["TAU3_PRECISION"] = PRECISION
    EXPECTED.mkdir(exist_ok=True)
    outputs, problems = {}, []
    for name, (argv, expected_code) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, report = run_case(argv, Path(tmp))
        if code != expected_code:
            sys.exit(f"{name}: exit code {code}, expected {expected_code}")
        for path, data in ((EXPECTED / f"{name}.stdout", stdout),
                           (EXPECTED / f"{name}.out", report)):
            outputs[path] = data
            if path.exists():
                problems += loosened_lines(path.name, path.read_text(),
                                           data.decode())
    if problems:
        sys.exit("refusing to write:\n" + "\n".join(problems))
    for path, data in outputs.items():
        path.write_bytes(data)
        print(f"wrote {path.name}")


if __name__ == "__main__":
    regenerate()
