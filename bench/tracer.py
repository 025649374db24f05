"""Span tracing around calls into tau3's public functions.

The tracer binds a timing wrapper on every ``tau3`` module that holds one of
the functions in ``TRACED``, so calls between layers are seen as well as the
benchmark's own calls: ``topology`` reaches ``cos2pi`` and ``ft_point``
through its own module globals, and ``oracle_suite`` imports ``ft_point``
inside the function body.  Wrappers pass arguments, results and exceptions
through unchanged.

A span is ``[name, start, end, parent, op, bits, note]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``op`` the id of the
benchmark op being run, ``bits`` the resolved precision argument of a kernel
call, and ``note`` the exception type a call raised or, for ``f_gap_scan``,
the certified window supremum it returned.  Spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: layer -> public functions timed in that layer
TRACED = {
    "intervals": ("cos2pi", "cos2pi_interval", "log1m", "exp_neg"),
    "measures": ("normalize", "bernoulli_partial", "load_measure_spec"),
    "fourier": ("ft_point", "arg_reduce", "choose_cutoff", "tail_bound"),
    "topology": ("f_gap_scan", "cached_window_scan", "test_sequence",
                 "classify_completion", "window_product"),
    "class_algebra": ("relation", "series_class", "convolve"),
    "invariants": ("distinguish", "replay_certificate"),
    "oracle": ("oracle_suite", "discretize", "grid_ft", "grid_convolve"),
    "cli": ("main",),
}

#: kernel -> position of its ``bits`` argument
KERNEL_BITS_ARG = {"intervals.cos2pi": 1, "intervals.cos2pi_interval": 2,
                   "intervals.log1m": 1, "intervals.exp_neg": 1}
KERNEL_BITS = (96, 128, 256, 384)

CLI_COMMANDS = ("classify", "distinguish", "eval", "converge", "class-op",
                "oracle-check")

NAME, START, END, PARENT, OP, BITS, NOTE = range(7)


class Tracer:
    """Collects spans from wrappers bound into the loaded tau3 modules."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._bound: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Bind wrappers on every loaded tau3 module holding a traced function."""
        if self._bound:
            return
        from tau3.intervals import precision_bits
        homes = {layer: importlib.import_module(f"tau3.{layer}")
                 for layer in TRACED}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "tau3" or key.startswith("tau3."))]
        for layer, names in TRACED.items():
            home = homes[layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original, precision_bits)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._bound.append((module, attr, original))

    def uninstall(self) -> None:
        """Restore the original functions everywhere they were rebound."""
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        self._bound.clear()

    def _wrap(self, name, fn, precision_bits):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        bits_pos = KERNEL_BITS_ARG.get(name)
        scan = name == "topology.f_gap_scan"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bits = None
            if bits_pos is not None:
                bits = (args[bits_pos] if len(args) > bits_pos
                        else kwargs.get("bits")) or precision_bits()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    bits, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[NOTE] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if scan:
                span[NOTE] = float(result.sup.hi)
            return result

        return traced


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover, per span."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def call_counts(spans) -> dict[str, int]:
    """Calls per traced function."""
    counts: dict[str, int] = {}
    for s in spans:
        counts[s[NAME]] = counts.get(s[NAME], 0) + 1
    return counts


def layer_metrics(spans, cli_children=()) -> dict[str, float]:
    """Per-layer metrics from spans.

    ``cli_children`` holds one ``(command, child_wall_s, main_span_s)`` per
    CLI child process; the cli metrics are means over those processes.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    kernel_ms = {b: 0.0 for b in KERNEL_BITS}
    tail_failed = 0
    for s, st in zip(spans, selfs):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + st * 1e3
        if s[BITS] in kernel_ms:
            kernel_ms[s[BITS]] += st * 1e3
        if name == "fourier.tail_bound" and s[NOTE] == "TailNotCertified":
            tail_failed += 1

    m: dict[str, float] = {}

    def both(name):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_ms"] = self_ms.get(name, 0.0)

    for fname in ("cos2pi", "cos2pi_interval", "log1m", "exp_neg"):
        both(f"intervals.{fname}")
    for b in KERNEL_BITS:
        m[f"intervals.kernels.b{b}.self_ms"] = kernel_ms[b]
    both("measures.normalize")
    both("measures.bernoulli_partial")
    m["measures.load_measure_spec.self_ms"] = self_ms.get(
        "measures.load_measure_spec", 0.0)
    for fname in ("ft_point", "arg_reduce", "choose_cutoff", "tail_bound"):
        both(f"fourier.{fname}")
    m["fourier.tail_bound.failed"] = tail_failed
    for fname in ("f_gap_scan", "test_sequence", "classify_completion"):
        both(f"topology.{fname}")
    m["topology.window_product.calls"] = calls.get("topology.window_product", 0)
    lookups = calls.get("topology.cached_window_scan", 0)
    m["topology.window_scan.hit_ratio"] = (
        1 - calls.get("topology.f_gap_scan", 0) / lookups if lookups else 0.0)
    both("class_algebra.relation")
    m["class_algebra.series_class.self_ms"] = self_ms.get(
        "class_algebra.series_class", 0.0)
    m["class_algebra.convolve.self_ms"] = self_ms.get(
        "class_algebra.convolve", 0.0)
    both("invariants.distinguish")
    both("invariants.replay_certificate")
    m["oracle.oracle_suite.self_ms"] = self_ms.get("oracle.oracle_suite", 0.0)
    both("oracle.discretize")
    both("oracle.grid_ft")
    m["oracle.grid_convolve.self_ms"] = self_ms.get("oracle.grid_convolve", 0.0)

    n = len(cli_children)
    m["cli.startup_ms"] = (sum(w - s for _, w, s in cli_children) * 1e3 / n
                           if n else 0.0)
    m["cli.main.self_ms"] = self_ms.get("cli.main", 0.0)
    for cmd in CLI_COMMANDS:
        walls = [w for c, w, _ in cli_children if c == cmd]
        m[f"cli.{cmd}.wall_ms"] = (sum(walls) * 1e3 / len(walls)
                                   if walls else 0.0)
    return m
