"""Golden corpus: CLI reports and certificates must stay byte-identical.

Each case runs ``tau3.cli.main`` in-process (so the cached window scan is
shared) in a scratch directory holding copies of ``golden/specs``, with
``TAU3_PRECISION`` pinned to the default profile, and compares the exit
code, stdout and the ``--out`` file against ``golden/expected``.

To rebuild the expected files after a deliberate change of a report, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import io
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
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
    "converge_3_8_at_3_8": (["converge", "--measure", "fact_3_8.json",
                             "--family", "factorial", "--lambda", "3/8",
                             "--n", "3..6"], 0),
    "converge_7_8_at_1_4": (["converge", "--measure", "fact_7_8.json",
                             "--family", "factorial", "--lambda", "1/4",
                             "--n", "3..6"], 0),
    "converge_1_at_5_8": (["converge", "--measure", "g1.json",
                           "--family", "factorial", "--lambda", "5/8",
                           "--n", "3..6"], 0),
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


def regenerate() -> None:
    os.environ["TAU3_PRECISION"] = PRECISION
    EXPECTED.mkdir(exist_ok=True)
    for name, (argv, expected_code) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, report = run_case(argv, Path(tmp))
        if code != expected_code:
            sys.exit(f"{name}: exit code {code}, expected {expected_code}")
        (EXPECTED / f"{name}.stdout").write_bytes(stdout)
        (EXPECTED / f"{name}.out").write_bytes(report)
        print(f"wrote {name}")


if __name__ == "__main__":
    regenerate()
