"""Kept mutants: known mistakes that the tests must keep catching.

Each mutant names a module under ``src/tau3``, an anchor text that occurs
exactly once in it, the replacement that makes the mistake, the tests that
must fail under it and its origin, the commit whose tests first killed it.
Run as a script from the repository root:

    python tests/mutants.py

For each mutant it copies ``src/`` into a temporary directory, applies the
mutant there, runs only the named tests with ``PYTHONPATH`` on the copy and
reads which of them failed.  It prints one line per mutant and exits 1 if
any mutant survives, that is, if one of its named tests passes.
``tests/test_mutants.py`` checks, in well under a second, that every
anchor occurs exactly once in its module and that every named test exists.

A change that moves an anchor re-anchors or retires that mutant in the same
change and says so in ``CHANGES.md``.  A mutant that survives is a finding:
strengthen the test, and keep the mutant.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    module: str         # file name under src/tau3
    anchor: str         # exact text, found once in the module
    replacement: str
    kills: tuple        # test ids that must fail, as pytest prints them
    origin: str


MUTANTS = (
    Mutant("lattice-measure-without-positivity", "measures.py",
           "        if w <= 0 or counts.get(-p) != w:\n",
           "        if counts.get(-p) != w:\n",
           ("tests/test_properties.py::"
            "test_lattice_measure_rejects_asymmetric_or_non_positive_weights",),
           "fa90401: lattice_measure, the one builder"),
    Mutant("zero-weights-kept", "measures.py",
           "            if w:\n"
           "                counts[p] = counts.get(p, 0) + w\n",
           "            counts[p] = counts.get(p, 0) + w\n",
           ("tests/test_measures.py::TestNormalize::test_zero_weights_dropped",
            "tests/test_properties.py::"
            "test_convolve_atoms_drops_zero_weights_and_rejects_negative_ones"),
           "f863837: normalize through lattice_measure"),
    Mutant("negative-weight-check-dropped", "measures.py",
           "            if w < 0:\n",
           "            if False:\n",
           ("tests/test_properties.py::"
            "test_convolve_atoms_drops_zero_weights_and_rejects_negative_ones",
            "tests/test_properties.py::"
            "test_normalize_equals_the_fraction_merge"),
           "f863837: normalize through lattice_measure"),
    Mutant("scale-without-point-multiplier", "measures.py",
           "{p * s.denominator: w for p, w in pairs}",
           "{p: w for p, w in pairs}",
           ("tests/test_measures.py::TestScaleMeasure::test_round_trip",
            "tests/test_properties.py::"
            "test_normalize_equals_the_fraction_merge"),
           "f863837: normalize through lattice_measure"),
    Mutant("atom-plan-without-point-gcd", "measures.py",
           "(p // (h := gcd(p, den)), den // h, v // g)",
           "(p, den, v // g)",
           ("tests/test_measures.py::TestAtomPlan::"
            "test_pairs_carry_twice_the_weight_over_one_denominator",
            "tests/test_properties.py::"
            "test_atom_plan_equals_the_fraction_reference"),
           "fff1f8e: canonical atoms on one integer lattice"),
    Mutant("eager-atoms-in-lattice-measure", "measures.py",
           'object.__setattr__(out, "_atoms", None)',
           'object.__setattr__(out, "_atoms", tuple(\n'
           '        (Fraction(p, den), Fraction(w, total))\n'
           '        for p, w in sorted(counts.items())))',
           ("tests/test_layering.py::"
            "test_integer_paths_leave_the_fraction_atoms_unbuilt",
            "tests/test_values.py::"
            "test_lazily_built_atoms_behave_like_constructed_ones",
            "tests/test_properties.py::"
            "test_atom_plan_equals_the_fraction_reference"),
           "fff1f8e: canonical atoms on one integer lattice"),
    Mutant("discretize-reads-fraction-atoms", "oracle.py",
           "    runs.append(expr._lattice)\n",
           "    den, total, _ = expr._lattice\n"
           "    runs.append((den, total, [(int(p * den), int(w * total))\n"
           "                              for p, w in expr.atoms]))\n",
           ("tests/test_layering.py::test_oracle_reads_no_fraction_atoms",
            "tests/test_layering.py::"
            "test_integer_paths_leave_the_fraction_atoms_unbuilt"),
           "fff1f8e: canonical atoms on one integer lattice"),
    Mutant("convolution-total-unreduced", "measures.py",
           "    g = gcd(ta * tb, *acc.values())",
           "    g = 1",
           ("tests/test_measures.py::TestNormalize::"
            "test_convolution_totals_stay_in_lowest_terms",),
           "9c0aa95: convolution totals in lowest terms"),
    Mutant("witness-reads-atoms", "invariants.py",
           "    den, nums = support_lattice(other)\n",
           "    den, nums = 1, [p for p, _ in other.atoms]\n",
           ("tests/test_properties.py::"
            "test_an_explicit_part_and_its_expansion_are_one_measure",
            "tests/test_class_corpus.py::"
            "test_every_case_has_its_recorded_outcome"),
           "7368310: the progression witness reads the whole support"),
    Mutant("grid-extent-from-the-highest-index", "oracle.py",
           "extent = h * max(-min(cells), max(cells)) if cells else 0.0",
           "extent = h * abs(max(cells)) if cells else 0.0",
           ("tests/test_properties.py::test_grid_ft_guards_the_dense_extent",
            "tests/test_properties.py::test_grid_ft_equals_the_dense_sum"),
           "3611b02: sparse dict grids"),
    Mutant("snap-ties-round-up", "oracle.py",
           "if 2 * r > d or (2 * r == d and i % 2):  # round half to even",
           "if 2 * r >= d:  # round half up",
           ("tests/test_properties.py::"
            "test_discretize_rounds_half_way_atoms_to_even",
            "tests/test_properties.py::"
            "test_discretize_equals_the_fraction_division_route"),
           "8ae7bca: integer-lattice partial convolutions"),
    Mutant("case-weights-over-420", "oracle.py",
           "pden, wden = (8, 8) if dyadic else (108, 840)",
           "pden, wden = (8, 8) if dyadic else (108, 420)",
           ("tests/test_oracle.py::TestCaseGenerator::"
            "test_draws_the_fraction_generator_cases",),
           "fa90401: the case generator on integer lattices"),
    Mutant("delta-check-compares-cell-counts", "oracle.py",
           "            if gs.cells != conv.cells:\n",
           "            if len(gs.cells) != len(conv.cells):\n",
           ("tests/test_oracle.py::TestOracleSuite::"
            "test_delta_convolution_mismatch_is_reported",),
           "cf442bb: the exact check's mismatch test"),
    Mutant("chain-radius-growth-b", "fourier.py",
           "bb * r + b",
           "b * r + b",
           ("tests/test_corpus.py::test_every_case_has_its_recorded_outcome",
            "tests/test_properties.py::"
            "test_chain_product_equals_the_horner_loop"),
           "6871f47: the chain step's Horner start, b**2 radius growth"),
    Mutant("chain-step-without-plus-b", "fourier.py",
           "bb * r + b",
           "bb * r",
           ("tests/test_corpus.py::test_every_case_has_its_recorded_outcome",
            "tests/test_properties.py::"
            "test_chain_product_equals_the_horner_loop"),
           "6871f47: the chain step's Horner start, + b for the floors"),
    Mutant("chain-leading-shift-by-b", "fourier.py",
           "h = m << (b - 1)",
           "h = m << b",
           ("tests/test_corpus.py::test_every_case_has_its_recorded_outcome",
            "tests/test_golden.py::test_golden",
            "tests/test_properties.py::"
            "test_chain_product_equals_the_horner_loop"),
           "6871f47: the chain step's Horner start"),
    Mutant("cutoff-jump-one-index-too-long", "fourier.py",
           "min(lo + fail + 1, end",
           "min(lo + fail + 2, end",
           ("tests/test_corpus.py::test_every_case_has_its_recorded_outcome",
            "tests/test_properties.py::"
            "test_cutoff_jump_equals_the_per_index_walk"),
           "6871f47: the geometric cutoff's bit-length jump"),
    Mutant("prefix-run-one-factor-too-long", "fourier.py",
           "max(min(n, lo - a), 0)",
           "max(min(n, lo - a + 1), 0)",
           ("tests/test_corpus.py::test_every_case_has_its_recorded_outcome",
            "tests/test_golden.py::test_golden",
            "tests/test_properties.py::"
            "test_geometric_prefix_equals_the_per_index_prefix"),
           "9831ae3: the geometric prefix's run in one step"),
    Mutant("prefix-run-one-gcd-step", "fourier.py",
           "while (g := gcd(r, b)) > 1:",
           "if (g := gcd(r, b)) > 1:",
           ("tests/test_corpus.py::test_every_case_has_its_recorded_outcome",
            "tests/test_properties.py::"
            "test_geometric_prefix_equals_the_per_index_prefix"),
           "9831ae3: the geometric prefix's run in one step"),
    Mutant("tail-closing-without-geom", "fourier.py",
           "(-y_n * bb << bits) // (y_d * (bb - 1))",
           "(-y_n << bits) // y_d",
           ("tests/test_corpus.py::test_every_case_has_its_recorded_outcome",
            "tests/test_fourier.py::TestTailBound::"
            "test_agrees_with_direct_product_oracle"),
           "781a9d5: the fixed-point tail's closing Weierstrass factor"),
    Mutant("machin-floor-one-low", "intervals.py",
           "    return lo, lo + 1\n",
           "    return lo - 1, lo\n",
           ("tests/test_intervals.py::TestTwoPi::"
            "test_bounds_are_the_floor_pair",),
           "93511fe: the floor pair of 2*pi"),
    Mutant("window-second-derivative-90", "topology.py",
           "91 * tp * tp",
           "90 * tp * tp",
           ("tests/test_topology.py::TestWindowBound::"
            "test_scan_result_is_pinned",
            "tests/test_golden.py::test_golden"),
           "4c617c1: the window box bound to second order"),
    Mutant("niven-prefix-skips-instead-of-stopping", "fourier.py",
           "        if twice is None:\n            break\n",
           "        if twice is None:\n            continue\n",
           ("tests/test_fourier.py::TestOneReductionPerFactor::"
            "test_an_own_base_power_reads_its_prefix_in_one_step",
            "tests/test_properties.py::"
            "test_ft_point_equals_the_fraction_composition"),
           "9831ae3: the exact prefix ends at its first miss"),
)


def failed_tests(output: str) -> set:
    """Test ids of the FAILED lines of pytest's short summary, without
    their parameter ids."""
    return {re.sub(r"\[.*$", "", line.split()[1])
            for line in output.splitlines() if line.startswith("FAILED ")}


def run(mutant: Mutant, scratch: Path) -> tuple[bool, str]:
    """(killed, detail): apply ``mutant`` to a copy of src/ and run its
    tests against the copy."""
    src = scratch / mutant.name / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "tau3" / mutant.module
    text = path.read_text()
    if text.count(mutant.anchor) != 1:
        return False, "anchor not found exactly once"
    path.write_text(text.replace(mutant.anchor, mutant.replacement))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         *mutant.kills], cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        return False, f"pytest exited {proc.returncode}"
    survivors = [t for t in mutant.kills if t not in failed_tests(proc.stdout)]
    return not survivors, ("survived " + ", ".join(survivors) if survivors
                           else f"killed by {len(mutant.kills)} tests")


def main() -> int:
    start = time.perf_counter()
    survived = 0
    with tempfile.TemporaryDirectory(prefix="tau3-mutants-") as scratch:
        for mutant in MUTANTS:
            killed, detail = run(mutant, Path(scratch))
            survived += not killed
            print(f"{'ok  ' if killed else 'FAIL'} {mutant.name}: {detail}",
                  flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
