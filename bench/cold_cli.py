"""cold-cli: a researcher running one ``tau3`` command at a time.

Each op is one CLI invocation in a fresh interpreter, run one at a time,
over a fixed corpus of 15 invocations.  Three of them (classify on the
geometric measure, distinguish M1/M2, converge on a geometric family) pay
the window scan in every process; the rest take a few tenths of a second,
most of it interpreter start and ``import tau3``.  The seed only picks
parameters that do not change the amount of work: the atoms of the two
atomic measures, the scale of the geometric family and the oracle-check
seed.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction as F
from math import factorial
from pathlib import Path

from reference import (FROZEN_WINDOW_SUP, Desc, bits_lost, encloses,
                       ft_reference)

NAME = "cold-cli"
BITS = 256                     # the CLI's default precision profile
SHIM = Path(__file__).resolve().parent / "cli_shim.py"
CHILD_TIMEOUT_S = 170

FACTORIAL = {"bernoulli": {"kind": "factorial", "base": 3, "scale": "1"}}
GEOMETRIC = {"bernoulli": {"kind": "geometric", "base": 3, "scale": "1"}}


@dataclass
class Op:
    command: str
    argv: list[str]
    expect: dict = field(default_factory=dict)
    arg_kind: str | None = None        # eval ops only


def _atoms(pairs):
    return [[str(s * p), str(w)] for p, w in pairs for s in (-1, 1)]


def build_ops(seed: int, run_dir: Path, smoke: bool = False) -> list[Op]:
    """Write the corpus's spec files into run_dir and return the invocations."""
    rng = random.Random(f"{NAME}/{seed}")
    g = F(1, rng.choice((2, 3, 4, 6)))
    a, b = rng.sample((2, 3, 5, 7), 2)
    lam = rng.choice((F(1), F(1, 2), F(2, 5), F(4, 3)))
    specs = {
        "geometric.json": GEOMETRIC,
        "factorial.json": FACTORIAL,
        "factorial-g2.json": {"bernoulli": {"kind": "factorial", "base": 3,
                                            "scale": "4/3"}},
        "m1.json": {"atoms": _atoms([(F(1), F(1))]), "lebesgue": True},
        "m2.json": dict(GEOMETRIC, atoms=_atoms([(F(1), F(1))])),
        "cyclic.json": {"atoms": _atoms([(g, F(1, 4)), (2 * g, F(1, 8)),
                                         (3 * g, F(1, 8))])},
        "compact.json": {"atoms": _atoms([(F(1, a), F(1, 4)),
                                          (F(1, b), F(1, 4))])},
    }
    run_dir.mkdir(parents=True, exist_ok=True)
    for name, doc in specs.items():
        (run_dir / name).write_text(json.dumps(doc), encoding="utf-8")

    fac = Desc(kind="factorial")
    geo = Desc(kind="geometric")
    ops = [
        Op("classify", ["classify", "--measure", "geometric.json"],
           {"completion": "UsualTopologyReal", "scan": True}),
        Op("classify", ["classify", "--measure", "factorial.json"],
           {"completion": "NonLocallyCompact"}),
        Op("classify", ["classify", "--measure", "m1.json"],
           {"completion": "UsualTopologyReal"}),
        Op("classify", ["classify", "--measure", "cyclic.json"],
           {"completion": f"NotHausdorff(cyclic generator {g})"}),
        Op("classify", ["classify", "--measure", "compact.json"],
           {"completion": "CompactAtomic(",
            "contains": f"canonical generator {F(1, a * b)}"}),
        Op("distinguish", ["distinguish", "--a", "m1.json", "--b", "m2.json",
                           "--label-a", "M1", "--label-b", "M2"],
           {"verdict": "NotIsomorphic"}),
        Op("distinguish", ["distinguish", "--a", "factorial.json",
                           "--b", "factorial-g2.json",
                           "--label-a", "G1", "--label-b", "G2"],
           {"verdict": "NotIsomorphic"}),
        Op("eval", ["eval", "--measure", "factorial.json",
                    "--t-power", "1,3,6!"],
           {"ref": (fac, F(1), factorial(6))}, "factorial_power"),
        Op("eval", ["eval", "--measure", "factorial.json",
                    "--t-power", "1/3,3,8!"],
           {"ref": (fac, F(1, 3), factorial(8))},
           "factorial_power_unexpanded"),
        Op("eval", ["eval", "--measure", "geometric.json", "--t", "37/11"],
           {"ref": (geo, F(37, 11), 0)}, "rational"),
        Op("converge", ["converge", "--measure", "factorial.json",
                        "--family", "factorial", "--lambda", "1",
                        "--n", "3..6"],
           {"conclusion": "ConvergesTo1",
            "per_n": (fac, F(1), factorial)}),
        Op("converge", ["converge", "--measure", "geometric.json",
                        "--family", "geometric", "--lambda", str(lam),
                        "--n", "2..6"],
           {"conclusion": "BoundedAwayFrom1", "scan": True,
            "per_n": (geo, lam, lambda n: n)}),
        Op("class-op", ["class-op", "--op", "series", "--a", "m2.json"],
           {"class": "series(bern[3^-k]"}),
        Op("class-op", ["class-op", "--op", "relation", "--a", "geometric.json",
                        "--b", "m1.json"],
           {"relation": "Disjoint"}),
        Op("oracle-check", ["oracle-check", "--cases", "30", "--seed",
                            str(rng.randint(1, 10 ** 6)), "--depth", "10"],
           {"oracle": 30}),
    ]
    for op in ops:
        if "ref" in op.expect:
            desc, s, e = op.expect["ref"]
            op.expect["ref"] = ft_reference(desc, s, e, BITS)
        if "per_n" in op.expect:
            desc, s, exponent = op.expect["per_n"]
            op.expect["per_n"] = {n: ft_reference(desc, s, exponent(n), BITS)
                                  for n in range(2, 7)}
    # smoke keeps one fast invocation per subcommand
    return [ops[i] for i in (1, 6, 7, 10, 13, 14)] if smoke else ops


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TAU3_PRECISION", None)       # the default profile, 256 bits
    env.pop("TAU3_BENCH_SPANS", None)
    return env


def run_op(op: Op, run_dir: Path, env: dict, spans_path: Path | None = None):
    """Run one invocation in a fresh interpreter; returns (result, wall_s)."""
    if spans_path is not None:
        env = dict(env, TAU3_BENCH_SPANS=str(spans_path))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(SHIM), *op.argv], cwd=run_dir,
                          env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return proc, time.perf_counter() - t0


_INTERVAL = re.compile(r"\[(-?\d+(?:/\d+)?), (-?\d+(?:/\d+)?)\]")
_SUP = re.compile(r"(?:\|FT\(t\)\| <=|window supremum) ([0-9.]+)")


def _field(stdout: str, key: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith(key + ": "):
            return line[len(key) + 2:]
    return None


def check(op: Op, proc) -> tuple[str, float, str]:
    """(status, bits lost, detail) from the exit code and the report text."""
    out, want = proc.stdout, op.expect
    if proc.returncode == 2:
        return "undetermined", BITS, "exit code 2"
    if proc.returncode != 0:
        return "failed", 0.0, f"exit code {proc.returncode}: {proc.stderr[-300:]}"
    if "scan" in want:
        sups = [float(x) for x in _SUP.findall(out)]
        if not sups or any(abs(s - FROZEN_WINDOW_SUP) > 1e-6 for s in sups):
            return "failed", 0.0, f"window supremum {sups} is not the frozen one"
    if "completion" in want:
        got = _field(out, "completion") or ""
        if not got.startswith(want["completion"]) or \
                want.get("contains", "") not in got:
            return "failed", 0.0, f"completion {got!r}"
    if "verdict" in want:
        if _field(out, "verdict") != want["verdict"] or \
                _field(out, "replay") != "ok":
            return "failed", 0.0, (f"verdict {_field(out, 'verdict')!r}, "
                                   f"replay {_field(out, 'replay')!r}")
    if "class" in want and want["class"] not in (_field(out, "class") or ""):
        return "failed", 0.0, f"class {_field(out, 'class')!r}"
    if "relation" in want and _field(out, "relation") != want["relation"]:
        return "failed", 0.0, f"relation {_field(out, 'relation')!r}"
    if "oracle" in want and (_field(out, "cases") != str(want["oracle"])
                             or _field(out, "failures") != "0"):
        return "failed", 0.0, "oracle-check report is not ok"
    if "conclusion" in want and _field(out, "conclusion") != want["conclusion"]:
        return "failed", 0.0, f"conclusion {_field(out, 'conclusion')!r}"
    if "per_n" in want:
        for line in out.splitlines():
            m = re.match(r"\s+n=(\d+) ", line)
            if m:
                lo, hi = (F(x) for x in _INTERVAL.search(line).groups())
                ref, err = want["per_n"][int(m.group(1))]
                if not encloses(lo, hi, ref, err, BITS):
                    return "failed", 0.0, f"{line.strip()} misses {ref}"
    if "ref" in want:
        value = _field(out, "value")
        if value is None:
            return "failed", 0.0, "no value in the eval report"
        lo, hi = (F(x) for x in _INTERVAL.search(value).groups())
        ref, err = want["ref"]
        if not encloses(lo, hi, ref, err, BITS):
            return "failed", 0.0, f"enclosure {value} misses {ref}"
        return "ok", bits_lost(hi - lo, BITS), ""
    return "ok", 0.0, ""


def properties(ops: list[Op]) -> dict:
    commands: dict[str, int] = {}
    kinds: dict[str, int] = {}
    for op in ops:
        commands[op.command] = commands.get(op.command, 0) + 1
        if op.arg_kind:
            kinds[op.arg_kind] = kinds.get(op.arg_kind, 0) + 1
    return {
        "ops_per_pass": len(ops),
        "measure_reuse_share": 0.0,
        "precision_mix": {str(BITS): len(ops)},
        "commands": commands,
        "scan_paying_ops": sum(1 for op in ops if op.expect.get("scan")),
        "argument_kinds": kinds,
        "unexpanded_share": kinds.get("factorial_power_unexpanded", 0) / len(ops),
    }
