"""Command-line behavior: exit codes, determinism, diagnostics."""

import json
import os
import subprocess
import sys

import pytest

M1 = {"atoms": [["1", "1"], ["-1", "1"]], "lebesgue": True,
      "bernoulli": None, "scale": "1"}
M2 = {"atoms": [["1", "1"], ["-1", "1"]], "lebesgue": False,
      "bernoulli": {"kind": "geometric", "base": 3, "scale": "1"},
      "scale": "1"}
FACT = {"atoms": [], "lebesgue": False,
        "bernoulli": {"kind": "factorial", "base": 3, "scale": "1"},
        "scale": "1"}
EXPL = {"atoms": [], "lebesgue": False,
        "bernoulli": {"kind": "explicit", "values": ["1/2", "1/4"],
                      "scale": "1"},
        "scale": "1"}


def run_cli(*argv, env=None):
    proc = subprocess.run([sys.executable, "-m", "tau3.cli", *argv],
                          capture_output=True, text=True, timeout=240,
                          env=env)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def specs(tmp_path):
    paths = {}
    for name, doc in (("m1", M1), ("m2", M2), ("fact", FACT),
                      ("expl", EXPL)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


class TestEval:
    def test_value_at_zero(self, specs):
        code, out, _ = run_cli("eval", "--measure", specs["expl"], "--t", "0")
        assert code == 0
        assert "value: [1, 1]" in out
        assert "exact" in out

    def test_certified_zero_is_exact(self, tmp_path):
        # the first geometric factor at t = 3/4 is cos(pi/2) = 0
        spec = tmp_path / "geometric.json"
        spec.write_text(json.dumps({**M2, "atoms": []}))
        code, out, _ = run_cli("eval", "--measure", str(spec), "--t", "3/4")
        assert code == 0
        assert "value: [0, 0] ~[0.0, 0.0] exact\n" in out

    def test_huge_power_argument(self, specs):
        code, out, _ = run_cli("eval", "--measure", specs["fact"],
                               "--t-power", "1,3,5!")
        assert code == 0
        assert "status: evaluated" in out

    def test_factorial_power_beyond_materialization(self, specs):
        # 3**(20!) has about 3.9e18 bits; it is reduced, never built
        code, out, _ = run_cli("eval", "--measure", specs["fact"],
                               "--t-power", "1/3,3,20!")
        assert code == 0
        assert "status: evaluated" in out

    def test_geometric_head_of_300_factors(self, specs):
        # the chain restarts from a fresh kernel call every block, so its
        # working precision does not grow with the head
        code, out, _ = run_cli("eval", "--measure", specs["m2"],
                               "--t", "37/11", "--cutoff", "300")
        assert code == 0
        assert "status: evaluated" in out

    def test_power_argument_evaluates_as_its_rational(self, tmp_path):
        # 3**5 = 243: the tail starts at factor 7, which reduces to 1/9
        # exactly (below the threshold 1/8) for both arguments
        spec = tmp_path / "geometric.json"
        spec.write_text(json.dumps({**M2, "atoms": []}))
        values = []
        for arg in (("--t-power", "1,3,5"), ("--t", "243")):
            code, out, _ = run_cli("eval", "--measure", str(spec), *arg,
                                   "--cutoff", "6")
            assert code == 0
            values.append([line for line in out.splitlines()
                           if line.startswith("value:")])
        assert len(values[0]) == 1 and values[0] == values[1]

    def test_power_of_another_base_evaluates_as_its_rational(self, tmp_path):
        # (1/7) * 2**10 = 1024/7 against a base-3 measure: each factor is
        # the value 1024/(7 * 3**k) itself, so the tail closes as it does
        # for the rational
        spec = tmp_path / "geometric.json"
        spec.write_text(json.dumps({**M2, "atoms": []}))
        values = []
        for arg in (("--t-power", "1/7,2,10"), ("--t", "1024/7")):
            code, out, _ = run_cli("eval", "--measure", str(spec), *arg)
            assert code == 0
            values.append([line for line in out.splitlines()
                           if line.startswith("value:")])
        assert len(values[0]) == 1 and values[0] == values[1]

    def test_geometric_base_of_a_million(self, tmp_path):
        # a base this large keeps the factor loop: a chain step would be a
        # degree-10**6 Chebyshev polynomial
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps(
            {**M2, "bernoulli": {"kind": "geometric", "base": 10 ** 6,
                                 "scale": "1"}}))
        code, out, _ = run_cli("eval", "--measure", str(spec),
                               "--t", "37/11")
        assert code == 0
        assert "~[-0.3097214681139005, -0.3097214681139005]" in out

    def test_malformed_spec_diagnostics(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"atoms": [[,]]}')
        code, _, err = run_cli("eval", "--measure", str(bad), "--t", "0")
        assert code == 1
        assert "line 1" in err and "column" in err

    def test_float_parameters_rejected(self, specs):
        code, _, err = run_cli("eval", "--measure", specs["expl"],
                               "--t", "0.5e1x")
        assert code == 1


class TestConverge:
    def test_factorial_family_converges(self, specs):
        code, out, _ = run_cli(
            "converge", "--measure", specs["fact"], "--family", "factorial",
            "--lambda", "1", "--n", "3..6", "--tol", "1e-6")
        assert code == 0
        assert "conclusion: ConvergesTo1" in out

    def test_bounded_away_exit(self, specs):
        code, out, _ = run_cli(
            "converge", "--measure", specs["fact"], "--family", "factorial",
            "--lambda", "1/3", "--n", "3..6")
        assert code == 0
        assert "conclusion: BoundedAwayFrom1" in out
        assert "gap: 1/2" in out

    def test_undetermined_exit(self, specs):
        code, out, _ = run_cli(
            "converge", "--measure", specs["fact"], "--family", "factorial",
            "--lambda", "1/2", "--n", "3..6")
        assert code == 2
        assert "conclusion: Undetermined" in out

    def test_refused_evaluation_keeps_the_uniform_bound(self, spec_writer):
        # the matched factorial route concludes from the factor k = n alone
        # and reports where the refusal ended the enclosures
        spec = spec_writer("fact_8_3.json", dict(
            FACT, bernoulli={"kind": "factorial", "base": 3, "scale": "8/3"}))
        code, out, err = run_cli(
            "converge", "--measure", spec, "--family", "factorial",
            "--lambda", "1/5", "--n", "80..81")
        assert (code, err) == (0, "")
        assert "conclusion: BoundedAwayFrom1" in out
        assert "beyond-horizon: true" in out
        assert ("reason: per-n ends at n=80: TailNotCertified: no certified "
                "tail start within the first 80 factors") in out
        assert out.endswith("per-n:\nEND\n")

    def test_explicit_points(self, specs, tmp_path):
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({
            "atoms": [["1", "1/2"], ["-1", "1/2"]], "lebesgue": False,
            "bernoulli": None, "scale": "1"}))
        code, out, _ = run_cli("converge", "--measure", str(pair),
                               "--points", "1,2,3,4")
        assert code == 0
        assert "conclusion: ConvergesTo1" in out

    def test_report_determinism(self, specs, tmp_path):
        p = tmp_path / "rep.txt"
        args = ("converge", "--measure", specs["fact"], "--family",
                "factorial", "--lambda", "1", "--n", "3..5",
                "--out", str(p))
        run_cli(*args)
        first = p.read_bytes()
        run_cli(*args)
        assert p.read_bytes() == first


class TestClassify:
    def test_usual(self, specs):
        code, out, _ = run_cli("classify", "--measure", specs["m2"])
        assert code == 0
        assert "completion: UsualTopologyReal" in out

    def test_undetermined(self, tmp_path):
        p = tmp_path / "odd.json"
        p.write_text(json.dumps({
            "atoms": [], "lebesgue": False,
            "bernoulli": {"kind": "geometric", "base": 7, "scale": "1"},
            "scale": "1"}))
        code, out, _ = run_cli("classify", "--measure", str(p))
        assert code == 2
        assert "Undetermined" in out


class TestClassOp:
    def test_series(self, specs):
        code, out, _ = run_cli("class-op", "--op", "series",
                               "--a", specs["m2"])
        assert code == 0
        assert "series(bern[3^-k]^1)" in out

    def test_relation_disjoint(self, specs, tmp_path):
        leb = tmp_path / "leb.json"
        leb.write_text(json.dumps({"atoms": [], "lebesgue": True,
                                   "bernoulli": None, "scale": "1"}))
        code, out, _ = run_cli("class-op", "--op", "relation",
                               "--a", specs["m2"], "--b", str(leb))
        assert code == 0
        assert "relation: Disjoint" in out
        assert "SingularPowers" in out

    def test_convolve(self, specs, tmp_path):
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({
            "atoms": [["1", "1/2"], ["-1", "1/2"]], "lebesgue": False,
            "bernoulli": None, "scale": "1"}))
        code, out, _ = run_cli("class-op", "--op", "convolve",
                               "--a", str(pair), "--b", str(pair))
        assert code == 0
        assert "atoms{-2,0,2}" in out

    def test_relation_unknown_exit(self, specs):
        code, out, _ = run_cli("class-op", "--op", "relation",
                               "--a", specs["fact"], "--b", specs["m2"])
        assert code == 2
        assert "relation: Unknown" in out


class TestDistinguish:
    def test_certificate_file(self, specs, tmp_path):
        cert_path = tmp_path / "cert.txt"
        code, out, _ = run_cli(
            "distinguish", "--a", specs["m1"], "--b", specs["m2"],
            "--label-a", "M1", "--label-b", "M2", "--out", str(cert_path))
        assert code == 0
        assert "verdict: NotIsomorphic" in out
        assert "replay: ok" in out
        text = cert_path.read_text()
        assert text.startswith("CERTIFICATE-V1")
        assert "SingularPowers" in text and "R-CORE" in text

    def test_determinism(self, specs, tmp_path):
        outs = []
        for i in (1, 2):
            p = tmp_path / f"cert{i}.txt"
            run_cli("distinguish", "--a", specs["m1"], "--b", specs["m2"],
                    "--out", str(p))
            outs.append(p.read_bytes())
        assert outs[0] == outs[1]

    def test_axiom_override_changes_hash_and_verdict(self, specs, tmp_path):
        table = tmp_path / "axioms.txt"
        table.write_text(
            "AtomsVsLebesgue | countable sets are null | standard\n")
        p = tmp_path / "cert.txt"
        code, out, _ = run_cli(
            "distinguish", "--a", specs["m1"], "--b", specs["m2"],
            "--axioms", str(table), "--out", str(p))
        assert code == 2
        assert "verdict: Undetermined" in out
        default_code, default_out, _ = run_cli(
            "distinguish", "--a", specs["m1"], "--b", specs["m2"])
        line = [ln for ln in default_out.splitlines()
                if ln.startswith("axiom-table:")][0]
        line2 = [ln for ln in out.splitlines()
                 if ln.startswith("axiom-table:")][0]
        assert line != line2


class TestOracleCheck:
    def test_small_run(self, tmp_path):
        report = tmp_path / "report.txt"
        code, out, _ = run_cli("oracle-check", "--cases", "30",
                               "--seed", "9", "--out", str(report))
        assert code == 0
        assert "failures: 0" in out
        assert report.read_text() == out

    @pytest.mark.parametrize("argv, name", [
        (("--depth", "1"), "depth"),
        (("--depth", "0"), "depth"),
        (("--depth", "13"), "depth 13"),
        (("--cases", "-5"), "cases"),
        (("--cases", "0"), "cases"),
    ])
    def test_bad_parameter_rejected(self, argv, name):
        code, out, err = run_cli("oracle-check", "--cases", "3", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and name in err, err
        assert "Traceback" not in err


class TestErrors:
    LOPSIDED = {"atoms": [["1", "1"], ["-1", "2"]]}

    def test_lopsided_weights_rejected_by_every_command(self, specs,
                                                        tmp_path):
        bad = tmp_path / "lopsided.json"
        bad.write_text(json.dumps(self.LOPSIDED))
        for argv in (("classify", "--measure", str(bad)),
                     ("class-op", "--op", "series", "--a", str(bad)),
                     ("eval", "--measure", str(bad), "--t", "1/3"),
                     ("distinguish", "--a", str(bad), "--b", specs["m2"])):
            code, out, err = run_cli(*argv)
            assert code == 1, argv
            assert out == "", argv
            assert err.startswith("error: invalid measure:"), (argv, err)

    @pytest.mark.parametrize("doc", [
        {"atoms": 5},
        {"atoms": None},
        {"bernoulli": {"kind": "explicit", "values": 5}},
        {"bernoulli": {"kind": ["x"]}},
    ])
    def test_malformed_spec_is_one_error_line(self, tmp_path, doc):
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli("classify", "--measure", str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith("error: "), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bernoulli, field", [
        ({"kind": "geometric", "bas": 5}, "bas"),
        ({"kind": "explicit", "values": ["1/2"], "base": 3}, "base"),
        ({"kind": "geometric", "base": 3, "values": ["1/2"]}, "values"),
        ({"kind": "factorial", "base": 3, "values": ["1/2"]}, "values"),
    ])
    def test_unknown_bernoulli_field_is_one_error_line(self, tmp_path,
                                                       bernoulli, field):
        bad = tmp_path / "extra.json"
        bad.write_text(json.dumps({"bernoulli": bernoulli}))
        code, out, err = run_cli("classify", "--measure", str(bad))
        assert code == 1
        assert out == ""
        assert err == (f"error: unknown {bernoulli['kind']} bernoulli "
                       f"fields: ['{field}']\n"), err

    def test_library_error_names_its_type(self):
        leb = os.path.join(os.path.dirname(__file__), "golden", "specs",
                           "lebesgue.json")
        code, out, err = run_cli("eval", "--measure", leb, "--t", "1/3")
        assert code == 1
        assert out == ""
        assert err.startswith("error: NotPointwiseEvaluable:")


class TestFileErrors:
    """A path that cannot be read or written is an input error: one line,
    exit 1, no report.  A directory, and a path under a regular file."""

    @pytest.mark.parametrize("flag", ["--measure", "--axioms", "--out"])
    @pytest.mark.parametrize("where", ["directory", "under-a-file"])
    def test_exits_with_one_error_line(self, specs, tmp_path, flag, where):
        blocker = tmp_path / "regular.txt"
        blocker.write_text("not a directory\n")
        path = tmp_path if where == "directory" else blocker / "x.json"
        # a repeated --measure replaces the first one
        code, out, err = run_cli("eval", "--measure", specs["fact"],
                                 "--t", "1/3", flag, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert blocker.read_text() == "not a directory\n"

    def test_out_is_checked_before_the_command_runs(self, tmp_path):
        # the measure is missing too: the --out error comes first
        missing = tmp_path / "missing.json"
        code, out, err = run_cli("eval", "--measure", str(missing),
                                 "--t", "1/3", "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Is a directory" in err and "missing.json" not in err

    def test_out_is_untouched_when_the_command_fails(self, tmp_path):
        missing = tmp_path / "missing.json"
        kept, fresh = tmp_path / "kept.txt", tmp_path / "fresh.txt"
        kept.write_text("earlier report\n")
        for path in (kept, fresh):
            code, out, err = run_cli("eval", "--measure", str(missing),
                                     "--t", "1/3", "--out", str(path))
            assert code == 1 and out == "" and "missing.json" in err
        assert kept.read_text() == "earlier report\n"
        assert not fresh.exists()

    def test_dangling_out_link_makes_no_target(self, tmp_path):
        link, target = tmp_path / "link.txt", tmp_path / "target.txt"
        link.symlink_to(target)
        code, out, err = run_cli("eval", "--measure",
                                 str(tmp_path / "missing.json"), "--t", "1/3",
                                 "--out", str(link))
        assert code == 1 and out == "" and "missing.json" in err
        assert link.is_symlink() and not target.exists()

    def test_empty_out_is_unset(self, specs):
        code, out, err = run_cli("eval", "--measure", specs["expl"],
                                 "--t", "0", "--out", "")
        assert code == 0 and err == ""
        assert "value: [1, 1]" in out


class TestMalformedArguments:
    """Bad numbers in flags are input errors: one line, exit 1."""

    @pytest.mark.parametrize("argv", [
        ("eval", "--t-power", "1,x,3"),
        ("eval", "--t-power", "1,3,abc!"),
        ("eval", "--t-power", "1,3,-2"),
        ("eval", "--t-power", "1,3,-2!"),
        ("eval", "--t", "1/3", "--cutoff", "-5"),
        ("converge", "--family", "factorial", "--n", "a..6"),
        ("converge", "--family", "factorial", "--n", "6..3"),
        ("converge", "--family", "geometric", "--base", "1", "--n", "2..4"),
        ("converge", "--points", "1,1/2"),
    ], ids=" ".join)
    def test_exits_with_one_error_line(self, specs, argv):
        command, *flags = argv
        code, out, err = run_cli(command, "--measure", specs["fact"], *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error: "), err
        assert "Traceback" not in err

    def test_negative_cutoff_is_the_library_message(self, specs):
        code, out, err = run_cli("eval", "--measure", specs["fact"],
                                 "--t", "1/3", "--cutoff", "-5")
        assert (code, out) == (1, "")
        assert err == "error: ParameterError: tail cutoff -5 is negative\n"


class TestUsageErrors:
    """argparse's usage errors exit 1, as every input error, not 2, the
    Undetermined code; --help and --version exit 0."""

    @pytest.mark.parametrize("argv, message", [
        (("eval",), "the following arguments are required: --measure"),
        (("eval", "--measure", "{expl}", "--bogus"),
         "unrecognized arguments: --bogus"),
        (("oracle-check", "--cases", "x"),
         "argument --cases: invalid int value: 'x'"),
        # argparse reads -37/11 as a flag: write --t=-37/11
        (("eval", "--measure", "{expl}", "--t", "-37/11"),
         "argument --t: expected one argument"),
    ], ids=["no-measure", "unknown-flag", "non-integer-cases",
            "negative-rational-as-a-flag"])
    def test_exits_1_with_usage(self, specs, argv, message):
        code, out, err = run_cli(*(a.format(**specs) for a in argv))
        assert (code, out) == (1, "")
        assert err.startswith("usage: tau3") and message in err, err

    @pytest.mark.parametrize("argv", [("--help",), ("--version",),
                                      ("eval", "--help")])
    def test_help_and_version_exit_0(self, argv):
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "") and out

    def test_negative_rationals_evaluate(self, specs):
        # FT is even: -37/11 gives the value at 37/11; --t -3 is a number
        values = []
        for argv in (("--t=-37/11",), ("--t", "37/11"), ("--t", "-3"),
                     ("--t", "3")):
            code, out, _ = run_cli("eval", "--measure", specs["expl"], *argv)
            assert code == 0
            values.append(out.split("value: ")[1].splitlines()[0])
        assert values[0] == values[1] and values[2] == values[3]


@pytest.mark.parametrize("tol", ["3/2", "1", "0", "-1/2"])
def test_converge_rejects_a_tolerance_outside_0_1(tmp_path, tol):
    # every value is exactly -1/2; --tol 3/2 used to conclude ConvergesTo1
    spec = tmp_path / "thirds.json"
    spec.write_text(json.dumps({"atoms": [["1/3", "1/2"], ["-1/3", "1/2"]]}))
    code, out, err = run_cli("converge", "--measure", str(spec),
                             "--points", "1,2,4,5", f"--tol={tol}")
    assert code == 1
    assert out == ""
    assert err == f"error: ParameterError: tolerance {tol} outside (0, 1)\n"


class TestDegenerateMeasures:
    """Measures without mass, or with all of it at 0, are input errors."""

    @pytest.mark.parametrize("name, doc, argv, message", [
        ("zero", {"atoms": []},
         ("converge", "--measure", "{}", "--family", "geometric",
          "--n", "1..3"),
         "error: ParameterError: measure has no mass"),
        ("zero", {"atoms": []},
         ("distinguish", "--a", "{}", "--b", "{m2}"),
         "error: spectral measure must be nontrivial"),
        ("at0", {"atoms": [["0", "1"]]},
         ("distinguish", "--a", "{m2}", "--b", "{}"),
         "error: spectral measure supported at 0 only defines no "
         "nontrivial group action"),
    ], ids=["converge-zero", "distinguish-zero", "distinguish-atom-at-0"])
    def test_exits_with_one_error_line(self, specs, tmp_path, name, doc,
                                       argv, message):
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps(doc))
        argv = [a.format(spec, m2=specs["m2"]) for a in argv]
        code, out, err = run_cli(*argv)
        assert code == 1
        assert out == ""
        assert err == message + "\n"


def test_eval_of_the_zero_measure_is_exactly_zero(tmp_path):
    spec = tmp_path / "zero.json"
    spec.write_text(json.dumps({"atoms": []}))
    for t in ("0", "1/3"):
        code, out, _ = run_cli("eval", "--measure", str(spec), "--t", t)
        assert code == 0
        assert "value: [0, 0] ~[0.0, 0.0] exact\n" in out


IMPORT_FOOTPRINT = """
import sys
before = set(sys.modules)
import tau3, tau3.cli
loaded = set(sys.modules) - before
assert not loaded & {"dataclasses", "inspect"}, sorted(loaded)
spec = sys.argv[1]
assert tau3.cli.main(["eval", "--measure", spec, "--t", "1/3"]) == 0
assert tau3.cli.main(["classify", "--measure", spec]) == 0
assert tau3.cli.main(["oracle-check", "--cases", "3", "--depth", "4"]) == 0
foreign = sorted(m for m in set(sys.modules) - before if m.partition(".")[0]
                 not in {"tau3", *sys.stdlib_module_names})
assert not foreign, foreign[:5]
assert "numpy" not in sys.modules
"""


def test_no_command_loads_a_third_party_module():
    """``import tau3`` and the ``eval``, ``classify`` and ``oracle-check``
    commands load nothing outside the standard library, numpy included;
    the import loads neither ``dataclasses`` nor ``inspect``."""
    geometric = os.path.join(os.path.dirname(__file__), "golden", "specs",
                             "geometric.json")
    proc = subprocess.run([sys.executable, "-c", IMPORT_FOOTPRINT, geometric],
                          capture_output=True, text=True, timeout=240)
    assert proc.returncode == 0, proc.stderr


class TestPrecisionSetting:
    def test_bad_precision_fails_loudly(self, specs):
        env = dict(os.environ, TAU3_PRECISION="banana")
        code, out, err = run_cli("eval", "--measure", specs["expl"],
                                 "--t", "1/3", env=env)
        assert code == 1
        assert out == ""
        assert "PrecisionSettingError" in err and "TAU3_PRECISION" in err


class TestReportHeader:
    def test_flags_echoed(self, specs):
        _, out, _ = run_cli("classify", "--measure", specs["m2"])
        assert "command: classify" in out
        assert f"flags: measure={specs['m2']}" in out
        assert "precision: " in out

    def test_lambda_flag_echoed(self, specs):
        _, out, _ = run_cli("converge", "--measure", specs["fact"],
                            "--family", "factorial", "--lambda", "2/3",
                            "--n", "3..4")
        header = [ln for ln in out.splitlines()
                  if ln.startswith("flags:")][0]
        assert "lambda=2/3" in header

    def test_classify_witness_lines(self, specs):
        code, out, _ = run_cli("classify", "--measure", specs["fact"])
        assert code == 0
        assert "completion: NonLocallyCompact" in out
        assert "witness-per-n:" in out
