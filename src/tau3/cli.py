"""Command-line front end.

Subcommands: eval, converge, classify, class-op, distinguish, oracle-check.

``COMMANDS`` declares each subcommand once: its handler, its help text and
its flags with their ``add_argument`` keywords; ``--out`` and ``--axioms``
are added to every subcommand.  ``main`` runs one pipeline for all of them:
check that ``--out`` can be written, load the axiom table, call the handler
(which returns its RESULT lines and exit code, and for ``distinguish`` the
certificate), build the header, and write the report to stdout and
``--out``.  The header's ``flags:`` line lists every flag the subcommand
declares that has a value, defaults included, sorted by name, so results
are reproducible; reports are deterministic structured text
(byte-identical for identical inputs and flags).  Exit codes: 0 for a
definitive result, 2 for Undetermined, 1 for input or usage errors,
unreadable or unwritable paths included.

Exact parameters (measure scales, sequence scales, arguments) are accepted
as "p/q" strings only; tolerances may use decimal or scientific notation
and are converted exactly.

All measures live on the additive line: statements about the positive
multiplicative half-line are mapped through the logarithm, so the
multiplicative unit is the atom at 0 here.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import factorial

from . import __version__
from .errors import (SpecFormatError, Tau3Error, TailNotCertified,
                     UndeterminedError)
from .class_algebra import AxiomTable, class_to_text, convolve, relation, \
    series_class, RelationKind
from .fourier import ScaledPower, ft_point
from .intervals import precision_bits
from .invariants import FactorSpec, Verdict, distinguish, replay_certificate
from .measures import format_rational, load_measure_spec, parse_rational
from .oracle import oracle_suite
from .topology import (Conclusion, SequenceSpec, classify_completion,
                       test_sequence)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDETERMINED = 2


def _interval_text(iv) -> str:
    return (f"[{format_rational(iv.lo)}, {format_rational(iv.hi)}]"
            f" ~[{float(iv.lo)!r}, {float(iv.hi)!r}]"
            + (" exact" if iv.exact else ""))


def _parse_int(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SpecFormatError(
            f"{flag} expects integers, got {text.strip()!r}") from None


def _parse_exponent(text: str) -> int:
    text = text.strip()
    if text.endswith("!"):
        return factorial(_parse_int(text[:-1], "--t-power"))
    return _parse_int(text, "--t-power")


def _parse_argument(args) -> object:
    if args.t is not None and args.t_power is not None:
        raise SpecFormatError("give either --t or --t-power, not both")
    if args.t is not None:
        return parse_rational(args.t)
    if args.t_power is not None:
        parts = args.t_power.split(",")
        if len(parts) != 3:
            raise SpecFormatError("--t-power expects 'scale,base,exponent'")
        try:
            return ScaledPower(parse_rational(parts[0]),
                               _parse_int(parts[1], "--t-power"),
                               _parse_exponent(parts[2]))
        except ValueError as exc:  # out of range: factorial or ScaledPower
            raise SpecFormatError(f"--t-power: {exc}") from None
    raise SpecFormatError("an argument is required: --t or --t-power")


# ---------------------------------------------------------------------------
# Subcommands: each returns its RESULT lines and exit code, and
# ``distinguish`` also the certificate that ``--out`` receives.
# ---------------------------------------------------------------------------

def _cmd_eval(args, table):
    expr = load_measure_spec(args.measure)
    t = _parse_argument(args)
    try:
        iv = ft_point(expr, t, tail_cutoff=args.cutoff)
    except TailNotCertified as exc:
        return ["status: Undetermined", f"reason: {exc}"], EXIT_UNDETERMINED
    lines = ["status: evaluated", f"value: {_interval_text(iv)}",
             f"width: {format_rational(iv.width)} ~{float(iv.width)!r}"]
    return lines, EXIT_OK


def _build_sequence(args) -> SequenceSpec:
    if args.points and (args.family is not None or args.n is not None):
        raise SpecFormatError("give either --points or --family and --n, "
                              "not both")
    if args.points:
        values = tuple(parse_rational(p) for p in args.points.split(","))
        fields = {"family": "explicit", "values": values}
    elif not args.family:
        raise SpecFormatError("either --family or --points is required")
    elif ".." not in (args.n or ""):
        raise SpecFormatError("--n expects a range like 3..6")
    else:
        lo, hi = args.n.split("..", 1)
        fields = {"family": args.family, "lam": parse_rational(args.lam),
                  "base": args.base, "n_min": _parse_int(lo, "--n"),
                  "n_max": _parse_int(hi, "--n")}
    try:
        return SequenceSpec(**fields)
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from None


def _cmd_converge(args, table):
    expr = load_measure_spec(args.measure)
    seq = _build_sequence(args)
    verdict = test_sequence(expr, seq, parse_rational(args.tol))
    lines = [f"sequence: {seq.family_describe()}",
             f"conclusion: {verdict.conclusion.value}"]
    if verdict.gap is not None:
        lines.append(f"gap: {format_rational(verdict.gap)}"
                     f" ~{float(verdict.gap)!r}")
    if verdict.from_index is not None:
        lines.append(f"from-index: {verdict.from_index}")
    lines.append(f"beyond-horizon: {str(verdict.beyond_horizon).lower()}")
    if verdict.reason:
        lines.append(f"reason: {verdict.reason}")
    lines.append(f"claim: {verdict.claim}")
    lines.append("per-n:")
    for n, desc, iv in verdict.per_n:
        lines.append(f"  n={n} t={desc} value={_interval_text(iv)}")
    return lines, (EXIT_OK if verdict.conclusion is not Conclusion.UNDETERMINED
                   else EXIT_UNDETERMINED)


def _cmd_classify(args, table):
    expr = load_measure_spec(args.measure)
    try:
        cc = classify_completion(expr)
    except UndeterminedError as exc:
        return (["completion: Undetermined", f"reason: {exc.reason}"],
                EXIT_UNDETERMINED)
    lines = [f"completion: {cc.describe()}"]
    lines += [f"justification: {step}" for step in cc.trace]
    if cc.witness_verdict is not None:
        lines.append("witness-per-n:")
        for n, desc, iv in cc.witness_verdict.per_n:
            lines.append(f"  n={n} t={desc} value={_interval_text(iv)}")
    return lines, EXIT_OK


def _cmd_class_op(args, table):
    a = load_measure_spec(args.a)
    if args.op == "series":
        return [f"class: {class_to_text(series_class(a))}"], EXIT_OK
    if not args.b:
        raise SpecFormatError(f"--b is required for op {args.op}")
    b = load_measure_spec(args.b)
    if args.op == "convolve":
        return [f"class: {class_to_text(convolve(a, b))}"], EXIT_OK
    rel = relation(a, b, table)
    lines = [f"relation: {rel.kind.value}",
             f"rules: {', '.join(rel.trace) or '-'}"]
    return lines, (EXIT_OK if rel.kind is not RelationKind.UNKNOWN
                   else EXIT_UNDETERMINED)


def _cmd_distinguish(args, table):
    a, b = load_measure_spec(args.a), load_measure_spec(args.b)
    try:
        spec_a = FactorSpec(args.label_a, a)
        spec_b = FactorSpec(args.label_b, b)
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from None
    cert = distinguish(spec_a, spec_b, table)
    text = cert.to_text()
    replay = replay_certificate(text, table)
    lines = [f"verdict: {cert.verdict.value}", f"reason: {cert.reason}",
             f"replay: {'ok' if replay.ok else 'FAILED'}"]
    code = (EXIT_ERROR if not replay.ok
            else EXIT_UNDETERMINED if cert.verdict is Verdict.UNDETERMINED
            else EXIT_OK)
    return lines, code, text


def _cmd_oracle_check(args, table):
    report = oracle_suite(cases=args.cases, seed=args.seed, depth=args.depth)
    lines = [f"cases: {report.cases}",
             f"containment-checked: {report.containment_checked}",
             f"convolution-checked: {report.convolution_checked}",
             f"atom-exact-checked: {report.atom_exact_checked}",
             f"failures: {len(report.failures)}"]
    lines += [f"  fail: {f}" for f in report.failures[:20]]
    return lines, EXIT_OK if report.ok else EXIT_ERROR


# ---------------------------------------------------------------------------
# The one table of subcommands and the one pipeline
# ---------------------------------------------------------------------------

MEASURE_FLAG = {"measure": {"required": True}}

#: command -> (handler, help, flag -> ``add_argument`` keywords)
COMMANDS = {
    "eval": (_cmd_eval, "certified transform value at one point", {
        **MEASURE_FLAG,
        "t": {"help": "exact rational 'p/q'; a negative one as --t=-p/q"},
        "t-power": {"help": "huge argument 'scale,base,exponent' (exponent "
                            "may be 'n!')"},
        "cutoff": {"type": int,
                   "help": "head length before the certified tail"}}),
    "converge": (_cmd_converge, "certified sequence convergence test", {
        **MEASURE_FLAG,
        "family": {"choices": ["factorial", "geometric"]},
        "lambda": {"dest": "lam", "default": "1",
                   "help": "sequence scale as 'p/q'"},
        "base": {"type": int, "default": 3},
        "n": {"help": "index range like 3..6"},
        "points": {"help": "explicit rationals 't1,t2,...'"},
        "tol": {"default": "1e-6"}}),
    "classify": (_cmd_classify, "completion class of the topology",
                 MEASURE_FLAG),
    "class-op": (_cmd_class_op, "measure-class algebra operations", {
        "op": {"required": True,
               "choices": ["convolve", "series", "relation"]},
        "a": {"required": True},
        "b": {}}),
    "distinguish": (_cmd_distinguish, "compare two factor specifications", {
        "a": {"required": True},
        "b": {"required": True},
        "label-a": {"default": "A"},
        "label-b": {"default": "B"}}),
    "oracle-check": (_cmd_oracle_check,
                     "randomized grid-vs-certified agreement suite", {
                         "cases": {"type": int, "default": 1000},
                         "seed": {"type": int, "default": 20240},
                         "depth": {"type": int, "default": 12}}),
}

#: flags every subcommand takes
COMMON_FLAGS = {
    "out": {"help": "write the machine-readable report here"},
    "axioms": {"help": "axiom table overriding the default"},
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tau3",
        description="Certified measure-topology evaluation, measure-class "
                    "algebra, and factor-invariant certificates.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for flag, keywords in {**flags, **COMMON_FLAGS}.items():
            sp.add_argument(f"--{flag}", **keywords)
    return p


def _check_out(path) -> None:
    """Fail on an ``--out`` path that cannot be written before any work is
    done: open it for appending, which keeps an existing file's bytes, and
    remove the file again if this call made it (the target, for a dangling
    symbolic link).  An empty path is unset, as in ``_write_report``."""
    if not path:
        return
    existed = os.path.exists(path)
    open(path, "a", encoding="utf-8").close()
    if not existed:
        os.remove(os.path.realpath(path))


def _write_report(args, table: AxiomTable, lines: list[str],
                  certificate: str = "") -> None:
    """Header, RESULT lines and certificate to stdout; the report, or the
    certificate when there is one, to ``--out``."""
    flags = {**COMMANDS[args.command][2], **COMMON_FLAGS}
    values = ((flag, getattr(args, keywords.get("dest",
                                                flag.replace("-", "_"))))
              for flag, keywords in sorted(flags.items()))
    echo = " ".join(f"{flag}={value}" for flag, value in values
                    if value is not None)
    report = "\n".join([
        "TAU3-REPORT",
        f"version: {__version__}",
        f"command: {args.command}",
        f"flags: {echo}",
        f"axiom-table: {table.table_hash()}",
        f"precision: {precision_bits()}",
        "RESULT", *lines,
        *(["certificate follows", ""] if certificate else ["END"])]) + "\n"
    # opened first: an --out path that cannot be written prints no report
    fh = open(args.out, "w", encoding="utf-8") if args.out else None
    sys.stdout.write(report + certificate)
    if fh is not None:
        with fh:
            fh.write(certificate or report)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse's usage errors exit 2, not 1
        return EXIT_ERROR if exc.code == 2 else exc.code
    try:
        _check_out(args.out)
        table = (AxiomTable.load(args.axioms) if args.axioms
                 else AxiomTable.default())
        lines, code, *certificate = COMMANDS[args.command][0](args, table)
        _write_report(args, table, lines, *certificate)
        return code
    except (SpecFormatError, OSError) as exc:   # OSError: a path
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except UndeterminedError as exc:
        sys.stderr.write(f"undetermined: {exc.reason}\n")
        return EXIT_UNDETERMINED
    except Tau3Error as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
