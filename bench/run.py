"""tau3 benchmark: closed-loop workloads with one caller and one op in flight.

Usage (from the root of a checkout):

    python3 bench/run.py --workload eval-warm --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30
    python3 bench/run.py --workload cold-cli --seed 1 --seconds 1 --trace 1 --smoke

Workloads: eval-warm, cold-cli, oracle-sweep (see bench/README.md).  With
``--trace 0`` a run repeats the workload's op list for about ``--seconds``
and reports the end-to-end metrics; with ``--trace 1`` it runs the list once
untraced and twice with span wrappers bound into tau3, reports the
per-layer metrics, and checks that the two traced passes agree.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a table of every metric
and a JSON report with provenance and the workload's input properties.
``--workload all`` runs each workload in its own process and prints them
together.  ``--smoke`` shrinks every op list to a few ops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from calibration import (NOMINAL_SLICE_S, NOMINAL_SPAWN_S, slowdowns,
                         time_slices, time_spawn)
from reference import FROZEN_WINDOW_SUP
from tracer import (END, NAME, NOTE, OP, PARENT, START, Tracer, call_counts,
                    layer_metrics)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("eval-warm", "cold-cli", "oracle-sweep")
#: fresh interpreters timed for setup_s; the eval-warm one pays the scan
SETUP_PROBES = {"eval-warm": 5, "cold-cli": 5, "oracle-sweep": 5}
MIN_PASSES = 2
#: p95 is reported only with at least ten samples beyond it
P95_MIN_OPS = 200

#: every end-to-end metric and its unit, lower is better for all; README.md
#: defines them, and BENCHMARK.json names those every workload reports
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
              "op_p95_ms": "ms", "fail_ratio": "1", "undetermined_ratio": "1",
              "bits_lost_mean": "bits", "peak_rss_mb": "MB"}


class BenchmarkError(Exception):
    """The benchmark itself cannot produce a trustworthy result."""


@dataclass(frozen=True)
class _Calibration:
    """How ops are calibrated (see calibration.py): the task timed after
    each op, its nominal time, and how many ops on each side set an op's
    slowdown."""

    measure: Callable[[], float]
    nominal: float
    window: int


IN_PROCESS_CAL = _Calibration(lambda: time_slices(1)[0], NOMINAL_SLICE_S, 5)
#: a CLI op lasts long enough that only its direct neighbours count
CLI_CAL = _Calibration(time_spawn, NOMINAL_SPAWN_S, 1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="a few ops per workload, to check the harness")
    args = p.parse_args(argv)
    try:
        contract = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (SRC / "tau3" / "__init__.py").is_file():
            raise BenchmarkError(f"no tau3 package under {SRC}")
        if args.workload == "all":
            return _run_all(args)
        report = run_workload(args)
    except (BenchmarkError, OSError, ValueError) as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 1
    key = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in contract[key]:
        if m["name"] not in report["metrics"]:
            sys.stderr.write(f"benchmark error: metric {m['name']} missing\n")
            return 1
        metrics[m["name"]] = {"value": report["metrics"][m["name"]],
                              "unit": m["unit"]}
    _print_table(report, contract[key] if args.trace else None)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1, sort_keys=True))
    # op latencies go to the file only; they would swamp the terminal
    del report["latencies_s"]
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


def _run_all(args) -> int:
    """Run each workload in its own process and print all of them."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchmarkError(f"{workload} exited with {proc.returncode}: "
                                 f"{proc.stderr[-500:]}")
        print("\n".join(line for line in lines[:-1]
                        if not line.startswith('{"report"')))
        results[workload] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_workload(args) -> dict:
    os.environ.pop("TAU3_PRECISION", None)
    setups, sups = [], []
    if not args.trace:
        setups, sups = _setup_probes(
            args.workload, 1 if args.smoke else SETUP_PROBES[args.workload])
    sys.path.insert(0, str(SRC))
    if args.workload == "cold-cli":
        run = _ColdCli(args)
    else:
        run = _InProcess(args)
    try:
        report = run.trace() if args.trace else run.measure()
    finally:
        run.close()
    checks = report.setdefault("checks", {})
    if sups:
        checks["window_sup_in_setup"] = all(
            abs(s - FROZEN_WINDOW_SUP) <= 1e-6 for s in sups)
    report["correct"] = report["failed"] == 0 and all(checks.values())
    if setups:
        report["metrics"]["setup_s"] = statistics.median(
            raw / slow for raw, slow in setups)
        report["raw"]["setup_s"] = statistics.median(raw for raw, _ in setups)
        report["setup_samples"] = setups
    report["provenance"] = _provenance(args)
    return report


def _setup_probes(workload: str, count: int):
    """(raw set-up seconds, slowdown) per fresh interpreter, and the window
    suprema the probes' scans returned."""
    setups, sups = [], []
    for _ in range(count):
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"),
                               workload], capture_output=True, text=True,
                              timeout=170)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {proc.stderr[-500:]}")
        out = json.loads(proc.stdout.splitlines()[-1])
        if out["window_sup"] is not None:
            # the window scan is seconds of integer and Fraction work,
            # calibrated by the slices the probe timed around it
            slow = statistics.median(out["slices"]) / NOMINAL_SLICE_S
        else:
            # the rest is a fresh interpreter's start-up, calibrated like one
            slow = statistics.median(
                time_spawn() for _ in range(3)) / NOMINAL_SPAWN_S
        setups.append((out["setup_s"], slow))
        if out["window_sup"] is not None:
            sups.append(out["window_sup"])
    return setups, sups


@dataclass
class _Pass:
    """Raw op latencies, the calibration slice time after each op, outcomes."""

    latencies: list
    slices: list
    outcomes: list

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def _run_pass(ops, run_op, check, cal=IN_PROCESS_CAL, on_op=None) -> _Pass:
    """Run ops one at a time, timing the calibration task after each."""
    latencies, slices, results = [], [], []
    clock = time.perf_counter
    for i, op in enumerate(ops):
        if on_op is not None:
            on_op(i)
        start = clock()
        try:
            result = run_op(op)
        except Exception as exc:   # any unexpected exception is a wrong result
            result = exc
        latencies.append(clock() - start)
        slices.append(cal.measure())
        results.append(result)
    return _Pass(latencies, slices,
                 [check(op, r) for op, r in zip(ops, results)])


def _timed_passes(ops_for, run_op, check, args, cal=IN_PROCESS_CAL):
    """Repeat passes until the next one would end after ``args.seconds``."""
    passes = []
    started = time.perf_counter()
    while True:
        p = _run_pass(ops_for(len(passes)), run_op, check, cal)
        passes.append(p)
        elapsed = time.perf_counter() - started
        if args.smoke or (len(passes) >= MIN_PASSES
                          and elapsed + p.wall > args.seconds):
            return _summary(passes, cal)


def _ratios(outcomes) -> dict:
    """The deterministic metrics of (status, bits lost, detail) outcomes."""
    n = len(outcomes)
    kept = [lost for status, lost, _ in outcomes if status != "failed"]
    return {
        "fail_ratio": sum(o[0] == "failed" for o in outcomes) / n,
        "undetermined_ratio": sum(o[0] == "undetermined" for o in outcomes) / n,
        "bits_lost_mean": sum(kept) / len(kept) if kept else 0.0,
    }


def _timings(walls, latencies) -> dict:
    out = {"wall_s": statistics.median(walls),
           "op_p50_ms": statistics.median(latencies) * 1e3}
    if len(latencies) >= P95_MIN_OPS:
        out["op_p95_ms"] = statistics.quantiles(latencies, n=20)[-1] * 1e3
    return out


def _summary(passes, cal) -> dict:
    """Metrics over passes; timings are divided by the local slowdown."""
    raw_lat, nominal_lat, nominal_walls, slows = [], [], [], []
    for p in passes:
        slow = slowdowns(p.slices, cal.nominal, cal.window)
        nominal = [t / f for t, f in zip(p.latencies, slow)]
        raw_lat += p.latencies
        nominal_lat += nominal
        nominal_walls.append(sum(nominal))
        slows += slow
    outcomes = [o for p in passes for o in p.outcomes]
    failed = [o for o in outcomes if o[0] == "failed"]
    return {
        "metrics": {**_timings(nominal_walls, nominal_lat), **_ratios(outcomes)},
        "raw": _timings([p.wall for p in passes], raw_lat),
        "slowdown_median": statistics.median(slows),
        "latencies_s": raw_lat,
        "attempted": len(outcomes),
        "failed": len(failed),
        "passes": len(passes),
        "pass_walls_s": [p.wall for p in passes],
        "pass_walls_nominal_s": nominal_walls,
        "op_samples": len(raw_lat),
        "failures": sorted({o[2] for o in failed})[:20],
    }


def _trace_report(untraced, traced, again, a_spans, b_spans, metrics,
                  cal, setup_spans=()) -> dict:
    """Report of a traced run: one untraced pass, then two traced ones.

    ``a_spans`` and ``b_spans`` are the spans of the two traced passes; they
    must make the same calls and give the same deterministic metrics.  Every
    window scan among them and ``setup_spans`` must give the frozen supremum.
    """
    counts_a, counts_b = call_counts(a_spans), call_counts(b_spans)
    ratios_a, ratios_b = _ratios(traced.outcomes), _ratios(again.outcomes)
    if counts_a != counts_b or ratios_a != ratios_b:
        diff = {k: (counts_a.get(k), counts_b.get(k))
                for k in set(counts_a) | set(counts_b)
                if counts_a.get(k) != counts_b.get(k)}
        raise BenchmarkError(f"two traced passes of the same ops disagree: "
                             f"calls {diff}, {ratios_a} vs {ratios_b}")
    sups = [s[NOTE] for s in [*setup_spans, *a_spans, *b_spans]
            if s[NAME] == "topology.f_gap_scan"]
    report = _summary([untraced, traced, again], cal)
    report["metrics"].update(metrics)
    report["metrics"]["trace.overhead_s"] = traced.wall - untraced.wall
    report["checks"] = {"traced_scans_match_frozen_sup": all(
        isinstance(v, float) and abs(v - FROZEN_WINDOW_SUP) <= 1e-6
        for v in sups)}
    return report


class _InProcess:
    """eval-warm and oracle-sweep: tau3 runs inside this process."""

    def __init__(self, args):
        self.args = args
        if args.workload == "eval-warm":
            import eval_warm as wl
            ops = wl.build_ops(args.seed, args.smoke)
            self.ops_for = lambda i: ops
        else:
            import oracle_sweep as wl
            self.ops_for = lambda i: wl.build_ops(args.seed, i, args.smoke)
        self.wl = wl

    def _warm_up(self):
        warm_up = getattr(self.wl, "warm_up", None)
        return warm_up() if warm_up else None

    def measure(self) -> dict:
        sup = self._warm_up()
        report = _timed_passes(self.ops_for, self.wl.run_op, self.wl.check,
                               self.args)
        if not self.wl.SEES_ENCLOSURES:
            del report["metrics"]["bits_lost_mean"]
        report["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        report["inputs"] = self.wl.properties(self.ops_for(0))
        self._probe_defects(report)
        if sup is not None:
            report["checks"] = {
                "window_sup_warm": abs(sup - FROZEN_WINDOW_SUP) <= 1e-6}
        return report

    def trace(self) -> dict:
        tracer = Tracer()
        tracer.install()
        tracer.op = "setup"
        self._warm_up()
        tracer.uninstall()
        ops = self.ops_for(0)
        untraced = _run_pass(ops, self.wl.run_op, self.wl.check)

        def set_op(i):
            tracer.op = i

        tracer.install()
        try:
            start_a = len(tracer.spans)
            traced = _run_pass(ops, self.wl.run_op, self.wl.check,
                               on_op=set_op)
            start_b = len(tracer.spans)
            again = _run_pass(ops, self.wl.run_op, self.wl.check,
                              on_op=set_op)
        finally:
            tracer.uninstall()
        spans, b_spans = tracer.spans[:start_b], tracer.spans[start_b:]
        if any(s[NAME] == "topology.f_gap_scan" and s[OP] != "setup"
               for s in spans + b_spans):
            raise BenchmarkError("layer map broken: the window scan ran "
                                 "during the timed ops")
        if self.args.workload == "eval-warm" and any(
                s[NAME] == "measures.bernoulli_partial" for s in spans + b_spans):
            raise BenchmarkError("layer map broken: eval-warm expanded a "
                                 "two-point convolution")
        _write_spans(self.args, spans)
        report = _trace_report(untraced, traced, again, spans[start_a:],
                               b_spans, layer_metrics(spans),
                               IN_PROCESS_CAL, spans[:start_a])
        report["checks"]["layer_map"] = True
        report["inputs"] = self.wl.properties(ops)
        self._probe_defects(report)
        return report

    def _probe_defects(self, report):
        """Defects kept out of the op list are reported, not counted."""
        probe = getattr(self.wl, "known_defects", None)
        if probe is not None:
            report["known_defects"] = probe()

    def close(self):
        pass


class _ColdCli:
    """cold-cli: every op is a fresh tau3 process."""

    def __init__(self, args):
        import cold_cli
        self.args = args
        self.wl = cold_cli
        self.run_dir = OUT / f"cold-cli-{os.getpid()}"
        self.ops = cold_cli.build_ops(args.seed, self.run_dir, args.smoke)
        self.env = cold_cli.child_env()

    def _run_op(self, op):
        return self.wl.run_op(op, self.run_dir, self.env)[0]

    def _pass(self, run_op):
        return _run_pass(self.ops, run_op, self.wl.check, CLI_CAL)

    def measure(self) -> dict:
        report = _timed_passes(lambda i: self.ops, self._run_op,
                               self.wl.check, self.args, CLI_CAL)
        report["metrics"].pop("op_p95_ms", None)      # too few ops per run
        report["raw"].pop("op_p95_ms", None)
        report["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
        report["inputs"] = self.wl.properties(self.ops)
        return report

    def _traced_pass(self, tag):
        """One pass with every child writing its spans; spans are merged
        with the op id set and parent indices shifted into the merged list."""
        spans_dir = self.run_dir / f"spans-{tag}"
        spans_dir.mkdir(parents=True, exist_ok=True)
        merged, children = [], []

        def run_op(op):
            path = spans_dir / f"op{len(children)}.json"
            proc, wall = self.wl.run_op(op, self.run_dir, self.env, path)
            spans = json.loads(path.read_text())
            main_s = 0.0
            for s in spans:
                s[OP] = len(children)
                if s[PARENT] >= 0:
                    s[PARENT] += len(merged)
                if s[NAME] == "cli.main":
                    main_s = s[END] - s[START]
            merged.extend(spans)
            children.append((op.command, wall, main_s))
            return proc

        return self._pass(run_op), merged, children

    def trace(self) -> dict:
        untraced = self._pass(self._run_op)
        traced, spans, children = self._traced_pass("a")
        again, b_spans, _ = self._traced_pass("b")
        _write_spans(self.args, spans)
        report = _trace_report(untraced, traced, again, spans, b_spans,
                               layer_metrics(spans, children), CLI_CAL)
        report["inputs"] = self.wl.properties(self.ops)
        return report

    def close(self):
        shutil.rmtree(self.run_dir, ignore_errors=True)


def _write_spans(args, spans) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "op", "bits", "note"],
        "spans": spans}))


# ---------------------------------------------------------------------------
# Provenance and printing
# ---------------------------------------------------------------------------

def _provenance(args) -> dict:
    sources = sorted((SRC / "tau3").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    try:
        # never look above the checkout for a repository
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def _print_table(report, per_layer=None) -> None:
    prov = report["provenance"]
    print(f"== {prov['workload']}  seed {prov['seed']}  trace {prov['trace']}"
          f"  passes {report['passes']}  op samples {report['op_samples']}"
          f"  attempted {report['attempted']}  failed {report['failed']}"
          f"  correct {report['correct']}")
    rows = ([(m["name"], m["unit"], m["better"]) for m in per_layer]
            if per_layer else
            [(name, unit, "lower") for name, unit in END_TO_END.items()])
    for name, unit, better in rows:
        value = report["metrics"].get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        raw = report.get("raw", {}).get(name)
        note = "" if per_layer or raw is None else f"  (raw {raw:.6g})"
        print(f"  {name:40s} {shown:>14s} {unit:6s} {better} is better{note}")
    if not per_layer:
        print(f"  median slowdown against the nominal speed: "
              f"{report['slowdown_median']:.3f}")
    for name, present in report.get("known_defects", {}).items():
        print(f"  known defect, not counted: {name} = {present}")
    for failure in report["failures"]:
        print(f"  wrong: {failure}")


if __name__ == "__main__":
    sys.exit(main())
