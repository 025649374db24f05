"""Machine-speed calibration for timings taken on a shared machine.

On a shared 2-CPU container the same Python code runs up to about 1.5x
slower in phases lasting seconds to minutes, set by other tenants' load.
Two sets of ten runs can then differ by more than any change worth
measuring.  So the benchmark times a fixed calibration task right after
every op and divides each op's time by the local slowdown: the median
calibration time of nearby ops over the task's nominal time.  Timing
metrics are therefore seconds at the nominal speed; the raw times are
reported next to them.

Two tasks, matched to the work they correct.  In-process ops are followed
by a *slice*: fixed-point series and ``Fraction`` arithmetic, the kind of
work tau3's kernels do.  CLI ops and the fresh interpreters that time the
set-up are whole processes, mostly interpreter start and imports, so they
are followed by a *spawn*: a fresh interpreter that imports numpy and the
standard modules ``import tau3`` loads.  Slow phases hit module loading far
harder than a bare ``python3 -c pass``, which barely moves while an import
of numpy slows by half.  Neither task touches tau3.  Over ten runs of each workload, normalized wall and median
op times spread by 1-6% of their median where the raw ones spread by
11-30%.
"""

import subprocess
import sys
import time
from fractions import Fraction

#: task times at the nominal speed (the fast phase of a shared 2-CPU x86
#: container, Python 3.11); they only scale the normalized timings
NOMINAL_SLICE_S = 75e-6
NOMINAL_SPAWN_S = 0.15

#: what ``import tau3`` loads besides tau3 itself
SPAWN_CODE = ("import argparse, dataclasses, enum, fractions, hashlib, "
              "heapq, json, typing; import numpy")


def calibration_slice() -> Fraction:
    """A fixed piece of work: a 256-bit cosine series plus Fraction sums."""
    s = 256
    one = 1 << s
    u = one * 7 // 10
    term, acc = one, one
    for j in range(1, 30):
        term = term * u // ((2 * j - 1) * (2 * j) << s)
        acc += -term if j % 2 else term
    x = Fraction(0)
    for i in range(1, 25):
        x += Fraction(acc % (1 << 64) + i, (i * 37) | 1)
    return x


def time_slices(count: int) -> list[float]:
    """Times of ``count`` calibration slices, in seconds.

    One untimed slice runs first, so the timed ones find their code and data
    in cache whatever the op before them left there; otherwise a program
    change that uses more cache would also slow the slices and hide itself.
    """
    calibration_slice()
    out = []
    clock = time.perf_counter
    for _ in range(count):
        start = clock()
        calibration_slice()
        out.append(clock() - start)
    return out


def time_spawn() -> float:
    """Time of one interpreter start, imports and exit, in seconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_CODE], check=True)
    return time.perf_counter() - start


def slowdowns(times: list[float], nominal: float, window: int) -> list[float]:
    """Per-op slowdown: median calibration time of the ops within +-window
    of the op, over the nominal time."""
    from statistics import median

    return [median(times[max(0, i - window):i + window + 1]) / nominal
            for i in range(len(times))]
