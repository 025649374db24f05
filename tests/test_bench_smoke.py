"""Tier-1 smoke run of the benchmark harness, so it cannot rot.

The eval-warm workload builds its measures through ``MeasureExpr``,
``scale_measure`` and ``plus``; oracle-sweep runs ``oracle_suite``.  The
full timed runs stay outside the test suite (see ``bench/README.md``).
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["oracle-sweep", "eval-warm"])
def test_bench_smoke(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", "0",
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]


def test_traced_functions_resolve():
    # the traced pass (--trace 1) looks each name up with getattr; the
    # smoke runs above use --trace 0, so a renamed function shows only here
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED"
                          for t in node.targets))
    for layer, names in traced.items():
        module = importlib.import_module(f"tau3.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
