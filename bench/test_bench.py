"""Smoke test of the benchmark harness.

Run with ``python3 -m pytest bench/test_bench.py``.  Each workload runs in
smoke mode (a few ops) with tracing off and on; the last line of output must
follow the result format and name exactly the metrics of BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_smoke_result_line(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    if result["correct"]:
        assert result["failed"] == 0
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert result["correct"], proc.stdout[-2000:]
    report = json.loads(proc.stdout.splitlines()[-2])["report"]
    if workload == "eval-warm":
        # the 512-bit cos2pi probe is reported in every eval-warm run
        assert isinstance(
            report["known_defects"]["cos2pi_512_bits_misses_true_value"], bool)
    assert report["provenance"]["src_lines"] > 0
    assert report["inputs"]["ops_per_pass"] >= 1
    if trace:
        assert report["checks"]["traced_scans_match_frozen_sup"]
        if workload != "cold-cli":
            assert report["checks"]["layer_map"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("oracle-sweep", 0, cwd=tmp_path, bench=tmp_path / "bench")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
