"""oracle-sweep: the randomized grid-vs-certified agreement suite, in blocks.

Each op is one ``oracle_suite`` call on a block of three cases, one of each
of its modes (atomic, truncated two-point convolution, dyadic atomic with a
convolution check), seeded from the workload seed.  Every pass draws new
blocks, so every measure is fresh and evaluated once: a per-measure cache
gets no reuse here.

Depth 10 instead of the command line's 12: the truncated convolution of a
case costs about 2**depth, so at depth 12 the handful of deepest cases a
seed draws would set much of a pass's time.
"""

from __future__ import annotations

import random

# called through the module attribute, where the tracer binds its wrapper
from tau3 import oracle

NAME = "oracle-sweep"
SEES_ENCLOSURES = False
OPS_PER_PASS = 300
SMOKE_OPS = 5
CASES_PER_OP = 3
DEPTH = 10
BITS = 256


def build_ops(seed: int, pass_index: int, smoke: bool = False) -> list[int]:
    """Suite seeds of one pass; pass_index draws a fresh list per pass."""
    rng = random.Random(f"{NAME}/{seed}/{pass_index}")
    return [rng.getrandbits(48)
            for _ in range(SMOKE_OPS if smoke else OPS_PER_PASS)]


def run_op(suite_seed: int):
    return oracle.oracle_suite(cases=CASES_PER_OP, seed=suite_seed,
                               depth=DEPTH, bits=BITS)


def check(suite_seed: int, report) -> tuple[str, float, str]:
    if isinstance(report, Exception):
        return "failed", 0.0, f"{type(report).__name__}: {report}"
    if not report.ok or report.cases != CASES_PER_OP:
        return "failed", 0.0, f"seed {suite_seed}: {report.failures[:2]}"
    return "ok", 0.0, ""


def properties(ops: list[int]) -> dict:
    return {
        "ops_per_pass": len(ops),
        "cases_per_op": CASES_PER_OP,
        "depth": DEPTH,
        "measure_reuse_share": 0.0,
        "precision_mix": {str(BITS): len(ops)},
        "argument_kinds": {"rational": len(ops) * CASES_PER_OP},
        "unexpanded_share": 0.0,
    }
