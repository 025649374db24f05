"""Command-line front end.

Subcommands: eval, converge, classify, class-op, distinguish, oracle-check.

Every run echoes its flag set in the output header so results are
reproducible; machine-readable reports are deterministic structured text
(byte-identical for identical inputs and flags).  Exit codes: 0 for a
definitive result, 2 for Undetermined, 1 for input or usage errors.

Exact parameters (measure scales, sequence scales, arguments) are accepted
as "p/q" strings only; tolerances may use decimal or scientific notation
and are converted exactly.

All measures live on the additive line: statements about the positive
multiplicative half-line are mapped through the logarithm, so the
multiplicative unit is the atom at 0 here.
"""

from __future__ import annotations

import argparse
import sys
from math import factorial

from . import __version__
from .errors import (SpecFormatError, Tau3Error, TailNotCertified,
                     UndeterminedError)
from .class_algebra import AxiomTable, class_to_text, convolve, relation, \
    series_class, RelationKind
from .fourier import ExactRational, ScaledPower, ft_point
from .intervals import precision_bits
from .invariants import FactorSpec, Verdict, distinguish, replay_certificate
from .measures import format_rational, load_measure_spec, parse_rational
from .oracle import oracle_suite
from .topology import (Conclusion, SequenceSpec, classify_completion,
                       test_sequence)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDETERMINED = 2


_FLAG_ATTRS = {"lambda": "lam"}


def _flag_echo(args: argparse.Namespace, names: list[str]) -> str:
    parts = []
    for name in sorted(names):
        attr = _FLAG_ATTRS.get(name, name.replace("-", "_"))
        val = getattr(args, attr, None)
        if val is not None:
            parts.append(f"{name}={val}")
    return " ".join(parts)


def _report_header(command: str, echo: str, table: AxiomTable) -> list[str]:
    return [
        "TAU3-REPORT",
        f"version: {__version__}",
        f"command: {command}",
        f"flags: {echo}",
        f"axiom-table: {table.table_hash()}",
        f"precision: {precision_bits()}",
    ]


def _emit(lines: list[str], out_path) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


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
        return ExactRational(parse_rational(args.t))
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


def _load_axioms(args) -> AxiomTable:
    if getattr(args, "axioms", None):
        return AxiomTable.load(args.axioms)
    return AxiomTable.default()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    table = _load_axioms(args)
    expr = load_measure_spec(args.measure)
    t = _parse_argument(args)
    if args.cutoff is not None and args.cutoff < 0:
        raise SpecFormatError(f"--cutoff must be at least 0, got {args.cutoff}")
    lines = _report_header("eval", _flag_echo(
        args, ["measure", "t", "t-power", "cutoff", "axioms", "out"]), table)
    try:
        iv = ft_point(expr, t, tail_cutoff=args.cutoff)
    except TailNotCertified as exc:
        lines += ["RESULT", "status: Undetermined",
                  f"reason: {exc}", "END"]
        _emit(lines, args.out)
        return EXIT_UNDETERMINED
    lines += ["RESULT", "status: evaluated",
              f"value: {_interval_text(iv)}",
              f"width: {format_rational(iv.width)} ~{float(iv.width)!r}",
              "END"]
    _emit(lines, args.out)
    return EXIT_OK


def _build_sequence(args) -> SequenceSpec:
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


def _cmd_converge(args) -> int:
    table = _load_axioms(args)
    expr = load_measure_spec(args.measure)
    seq = _build_sequence(args)
    tol = parse_rational(args.tol)
    verdict = test_sequence(expr, seq, tol)
    lines = _report_header("converge", _flag_echo(
        args, ["measure", "family", "lambda", "base", "n", "points",
               "tol", "axioms", "out"]), table)
    lines += ["RESULT",
              f"sequence: {seq.family_describe()}",
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
    lines.append("END")
    _emit(lines, args.out)
    return (EXIT_OK if verdict.conclusion is not Conclusion.UNDETERMINED
            else EXIT_UNDETERMINED)


def _cmd_classify(args) -> int:
    table = _load_axioms(args)
    expr = load_measure_spec(args.measure)
    lines = _report_header("classify", _flag_echo(
        args, ["measure", "axioms", "out"]), table)
    try:
        cc = classify_completion(expr)
    except UndeterminedError as exc:
        lines += ["RESULT", "completion: Undetermined",
                  f"reason: {exc.reason}", "END"]
        _emit(lines, args.out)
        return EXIT_UNDETERMINED
    lines += ["RESULT", f"completion: {cc.describe()}"]
    for step in cc.trace:
        lines.append(f"justification: {step}")
    if cc.witness_verdict is not None:
        lines.append("witness-per-n:")
        for n, desc, iv in cc.witness_verdict.per_n:
            lines.append(f"  n={n} t={desc} value={_interval_text(iv)}")
    lines.append("END")
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_class_op(args) -> int:
    table = _load_axioms(args)
    a = load_measure_spec(args.a)
    lines = _report_header("class-op", _flag_echo(
        args, ["op", "a", "b", "axioms", "out"]), table)
    if args.op == "series":
        result = series_class(a)
        lines += ["RESULT", f"class: {class_to_text(result)}", "END"]
        _emit(lines, args.out)
        return EXIT_OK
    if not args.b:
        raise SpecFormatError(f"--b is required for op {args.op}")
    b = load_measure_spec(args.b)
    if args.op == "convolve":
        result = convolve(a, b)
        lines += ["RESULT", f"class: {class_to_text(result)}", "END"]
        _emit(lines, args.out)
        return EXIT_OK
    rel = relation(a, b, table)
    lines += ["RESULT", f"relation: {rel.kind.value}",
              f"rules: {', '.join(rel.trace) or '-'}", "END"]
    _emit(lines, args.out)
    return (EXIT_OK if rel.kind is not RelationKind.UNKNOWN
            else EXIT_UNDETERMINED)


def _cmd_distinguish(args) -> int:
    table = _load_axioms(args)
    a, b = load_measure_spec(args.a), load_measure_spec(args.b)
    try:
        spec_a = FactorSpec(args.label_a, a)
        spec_b = FactorSpec(args.label_b, b)
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from None
    cert = distinguish(spec_a, spec_b, table)
    replay = replay_certificate(cert.to_text(), table)
    header = _report_header("distinguish", _flag_echo(
        args, ["a", "b", "label-a", "label-b", "axioms", "out"]), table)
    summary = header + [
        "RESULT",
        f"verdict: {cert.verdict.value}",
        f"reason: {cert.reason}",
        f"replay: {'ok' if replay.ok else 'FAILED'}",
        "certificate follows",
        "",
    ]
    sys.stdout.write("\n".join(summary) + "\n")
    sys.stdout.write(cert.to_text())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(cert.to_text())
    if not replay.ok:
        return EXIT_ERROR
    return (EXIT_OK if cert.verdict is not Verdict.UNDETERMINED
            else EXIT_UNDETERMINED)


def _cmd_oracle_check(args) -> int:
    table = _load_axioms(args)
    report = oracle_suite(cases=args.cases, seed=args.seed, depth=args.depth)
    lines = _report_header("oracle-check", _flag_echo(
        args, ["cases", "seed", "depth", "axioms", "out"]), table)
    lines += ["RESULT",
              f"cases: {report.cases}",
              f"containment-checked: {report.containment_checked}",
              f"convolution-checked: {report.convolution_checked}",
              f"atom-exact-checked: {report.atom_exact_checked}",
              f"failures: {len(report.failures)}"]
    for f in report.failures[:20]:
        lines.append(f"  fail: {f}")
    lines.append("END")
    _emit(lines, args.out)
    return EXIT_OK if report.ok else EXIT_ERROR


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tau3",
        description="Certified measure-topology evaluation, measure-class "
                    "algebra, and factor-invariant certificates.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--out", help="write the machine-readable report here")
        sp.add_argument("--axioms", help="axiom table overriding the default")

    sp = sub.add_parser("eval", help="certified transform value at one point")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--t", help="exact rational argument 'p/q'")
    sp.add_argument("--t-power", dest="t_power",
                    help="huge argument 'scale,base,exponent' (exponent "
                         "may be 'n!')")
    sp.add_argument("--cutoff", type=int, default=None,
                    help="head length before the certified tail")
    add_common(sp)
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("converge", help="certified sequence convergence test")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--family", choices=["factorial", "geometric"])
    sp.add_argument("--lambda", dest="lam", default="1",
                    help="sequence scale as 'p/q'")
    sp.add_argument("--base", type=int, default=3)
    sp.add_argument("--n", help="index range like 3..6")
    sp.add_argument("--points", help="explicit rationals 't1,t2,...'")
    sp.add_argument("--tol", default="1e-6")
    add_common(sp)
    sp.set_defaults(func=_cmd_converge)

    sp = sub.add_parser("classify", help="completion class of the topology")
    sp.add_argument("--measure", required=True)
    add_common(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("class-op", help="measure-class algebra operations")
    sp.add_argument("--op", required=True,
                    choices=["convolve", "series", "relation"])
    sp.add_argument("--a", required=True)
    sp.add_argument("--b")
    add_common(sp)
    sp.set_defaults(func=_cmd_class_op)

    sp = sub.add_parser("distinguish",
                        help="compare two factor specifications")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--label-a", dest="label_a", default="A")
    sp.add_argument("--label-b", dest="label_b", default="B")
    add_common(sp)
    sp.set_defaults(func=_cmd_distinguish)

    sp = sub.add_parser("oracle-check",
                        help="randomized grid-vs-certified agreement suite")
    sp.add_argument("--cases", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=20240)
    sp.add_argument("--depth", type=int, default=12)
    add_common(sp)
    sp.set_defaults(func=_cmd_oracle_check)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecFormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except UndeterminedError as exc:
        sys.stderr.write(f"undetermined: {exc.reason}\n")
        return EXIT_UNDETERMINED
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except Tau3Error as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
