"""Time the set-up tau3 pays in a fresh interpreter before its first op.

Usage: python3 bench/setup_probe.py <workload>

Prints one JSON object: ``setup_s`` is ``import tau3`` plus the workload's
warm-up (the window scan for eval-warm), ``window_sup`` the certified
window supremum when the scan ran, and ``slices`` calibration slice times
taken just before and just after the timed set-up (see calibration.py).
"""

import json
import sys
import time
from pathlib import Path

from calibration import time_slices

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: slices timed on each side of the set-up; 300 take about 25 ms
SLICES = 300


def main() -> int:
    workload = sys.argv[1]
    before = time_slices(SLICES)
    t0 = time.perf_counter()
    import tau3
    sup = None
    if workload == "eval-warm":
        sup = float(tau3.topology.cached_window_scan().sup.hi)
    setup = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup, "window_sup": sup,
                      "slices": before + time_slices(SLICES)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
