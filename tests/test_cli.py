"""Command-line interface: output formats, exit codes, determinism, schema
conformance."""

import argparse
import io
import json
import math
import warnings
from contextlib import redirect_stdout, redirect_stderr
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from ellded.cli import _emit, build_parser, main
from ellded.qseries import SlowNomeWarning

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schema"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _subparsers(parser):
    """The subparsers of `parser`, by name."""
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _load_schema(name):
    with open(SCHEMA_DIR / name) as fh:
        return json.load(fh)


EVAL_SCHEMA = _load_schema("eval_record.schema.json")
VERIFY_SCHEMA = _load_schema("verify_record.schema.json")


class TestEvalOutputs:
    def test_bernoulli(self):
        code, out, _ = run_cli(["eval", "bernoulli", "-k", "12"])
        assert code == 0
        rec = json.loads(out)
        assert rec["value"] == "-691/2730"

    def test_apostol_sum(self):
        code, out, _ = run_cli(
            ["eval", "apostol-sum", "-k", "3", "-q", "1", "-p", "3"])
        assert code == 0
        assert json.loads(out)["value"] == "-1/81"

    def test_elliptic_sum_empty(self):
        code, out, _ = run_cli(
            ["eval", "elliptic-sum", "-n", "1", "-p", "1", "-q", "5",
             "--tau", "2i"])
        assert code == 0
        val = json.loads(out)["value"]
        assert val["re"] == 0.0 and val["im"] == 0.0

    @pytest.mark.parametrize("route", ["zeta_derivative", "bernoulli_product"])
    @pytest.mark.parametrize("tau", ["0.3+1.1i", "0.2+0.3i"])
    def test_elliptic_sum_empty_exact_zero(self, route, tau):
        # the empty sum's zero through the route's reduction and constant,
        # on F and off it, as the CI console-script step checks it
        code, out, _ = run_cli(
            ["eval", "elliptic-sum", "-n", "2", "-p", "1", "-q", "3",
             "--tau", tau, "--route", route])
        assert code == 0
        assert json.dumps(json.loads(out)["value"], sort_keys=True) == \
            '{"err": 0.0, "im": 0.0, "re": -0.0}'

    def test_eisenstein_value(self):
        code, out, _ = run_cli(
            ["eval", "eisenstein", "-n", "2", "--tau", "40i"])
        assert code == 0
        val = json.loads(out)["value"]
        import math
        assert abs(val["re"] - math.pi**4 / 45) < 1e-10
        assert abs(val["im"]) < 1e-12

    def test_g_poly_serialization(self):
        code, out, _ = run_cli(["eval", "g-poly", "-w", "2"])
        assert code == 0
        items = json.loads(out)["value"]
        by_exp = {(it["i"], it["j"]): it["coeff"] for it in items}
        assert by_exp[(-1, -1)] == "1/240"

    def test_eval_records_match_schema(self):
        argvs = [
            ["eval", "bernoulli", "-k", "4"],
            ["eval", "g-poly", "-w", "4"],
            ["eval", "eisenstein", "-n", "1", "--tau", "1i", "--kind", "deriv"],
            ["eval", "elliptic-bernoulli", "-m", "3", "--x", "0.2",
             "--y", "0.3", "--tau", "1.1i"],
            ["eval", "zeta-w", "--z", "0.21+0.11i", "--tau", "1i"],
            ["eval", "elliptic-sum", "-n", "1", "-p", "3", "-q", "2",
             "--tau", "1i"],
            ["eval", "reciprocity-rhs", "-n", "1", "-p", "3", "-q", "2",
             "--tau", "1i"],
            ["eval", "generating", "--which", "d", "-p", "3", "-q", "2",
             "--x", "0.01", "--tau", "1i"],
            ["eval", "period-data", "-n", "2"],
        ]
        for argv in argvs:
            code, out, _ = run_cli(argv)
            assert code == 0, argv
            jsonschema.validate(json.loads(out), EVAL_SCHEMA)

    def test_machide_eval(self):
        code, out, _ = run_cli(
            ["eval", "machide", "-m", "1", "-n", "1",
             "--vec-a", "1,1", "--vec-b", "3,3", "--vec-c", "2,2",
             "--vec-x", "0.013,0", "--vec-y", "0.021,0", "--vec-z=-0.014,0",
             "--tau", "1i"])
        assert code == 0
        jsonschema.validate(json.loads(out), EVAL_SCHEMA)


class TestVerifyExitCodes:
    def test_pass(self):
        code, out, _ = run_cli(
            ["verify", "thm11", "-n", "1", "-p", "3", "-q", "2",
             "--tau", "1i"])
        assert code == 0
        for line in out.strip().splitlines():
            rec = json.loads(line)
            jsonschema.validate(rec, VERIFY_SCHEMA)
            assert rec["pass"] is True

    def test_fail_with_tight_tol(self):
        code, out, _ = run_cli(
            ["verify", "eq73", "-n", "1", "--tau", "0.3+1.0i",
             "--tol", "1e-30"])
        assert code == 1
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert any(not r["pass"] for r in recs)

    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "thm11", "-n", "1", "-p", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "apostol-reciprocity", "--w-max", "1"],
        ["verify", "apostol-reciprocity", "--pq-max", "0"],
        ["verify", "eq73", "-n", "1", "--tau", "1i", "--max-terms", "0"],
        ["eval", "bernoulli", "-k", "2", "--max-terms", "0"],
        ["eval", "eisenstein", "-n", "1", "--tau", "1i", "--max-terms", "-5"],
        ["verify", "basis-rank", "-w", "10", "--num-tau", "-3"],
        ["verify", "basis-rank", "-w", "10", "--num-tau", "two"],
        ["eval", "zeta-w", "--z", "0.1+0.2i", "--order", "-1", "--tau", "0+1i"],
        # each subcommand's own least -k, -m, -n
        ["eval", "eisenstein", "-n", "0", "--tau", "1i"],
        ["eval", "period-data", "-n", "0"],
        ["verify", "eq73", "-n", "0", "--tau", "1i"],
        ["verify", "thm11", "-n", "0", "-p", "3", "-q", "2", "--tau", "1i"],
        ["eval", "elliptic-sum", "-n", "0", "-p", "3", "-q", "2", "--tau", "1i"],
        ["eval", "bernoulli", "-k", "-1"],
        ["eval", "apostol-sum", "-k", "0", "-q", "2", "-p", "3"],
        ["eval", "elliptic-bernoulli", "-m", "-1", "--x", "0.1", "--y", "0.2",
         "--tau", "1i"],
        ["eval", "machide", "-m", "-1", "-n", "0", "--vec-a", "1,1", "--vec-b", "1,1",
         "--vec-c", "2,2", "--vec-x", "0.1,0", "--vec-y", "0.2,0", "--vec-z", "0.3,0",
         "--tau", "1i"],
    ])
    def test_out_of_range_count_is_usage_error(self, argv):
        # before, these ran nothing (exit 0), hit a domain error (exit 3) or
        # reported rank 0 for a negative sample
        out = io.StringIO()
        with pytest.raises(SystemExit) as exc, redirect_stdout(out), \
                redirect_stderr(io.StringIO()):
            main(argv)
        assert exc.value.code == 2 and out.getvalue() == ""

    @pytest.mark.parametrize("argv", [
        ["eval", "bernoulli", "-k", "4", "--seed", "3"],
        ["eval", "bernoulli", "-k", "4", "--tol", "1e-6"],
        ["eval", "bernoulli", "-k", "4", "--max-terms", "5"],
        ["eval", "period-data", "-n", "1", "--max-terms", "5"],
        ["eval", "eisenstein", "-n", "1", "--tau", "1i", "--tol", "1e-6"],
        ["eval", "eisenstein", "-n", "1", "--tau", "1i", "--seed", "1"],
        ["verify", "thm11", "-n", "1", "-p", "3", "-q", "2", "--tau", "1i", "--seed", "1"],
        ["verify", "apostol-reciprocity", "--w-max", "2", "--max-terms", "5"],
    ])
    def test_flag_the_subcommand_never_reads_is_usage_error(self, argv):
        # before, each was accepted and silently ignored
        out = io.StringIO()
        with pytest.raises(SystemExit) as exc, redirect_stdout(out), \
                redirect_stderr(io.StringIO()):
            main(argv)
        assert exc.value.code == 2 and out.getvalue() == ""

    def test_each_subcommand_takes_the_common_flags_it_reads(self):
        # --format everywhere, --tol on verify, --seed on basis-rank, and
        # --max-terms where a q-series runs: 48 settable values, from 84
        root = build_parser()
        total = 0
        for mode, subs in _subparsers(root).items():
            for name, parser in _subparsers(subs).items():
                flags = {o for a in parser._actions for o in a.option_strings}
                common = flags & {"--tol", "--seed", "--format", "--max-terms"}
                want = {"--format"} | ({"--tol"} if mode == "verify" else set())
                if name == "basis-rank":
                    want.add("--seed")
                if "--tau" in flags or name in ("limit", "basis-rank"):
                    want.add("--max-terms")
                assert common == want, (mode, name)
                total += len(common)
        assert total == 48

    def test_least_counts_accepted(self):
        code, out, _ = run_cli(
            ["verify", "apostol-reciprocity", "--w-max", "2", "--pq-max", "1"])
        assert code == 0 and len(out.splitlines()) == 1
        for argv in (["eval", "bernoulli", "-k", "0"],
                     ["eval", "apostol-sum", "-k", "1", "-q", "2", "-p", "3"],
                     ["eval", "elliptic-bernoulli", "-m", "0", "--x", "0.1", "--y", "0.2",
                      "--tau", "1i"],
                     ["eval", "machide", "-m", "0", "-n", "0", "--vec-a", "1,1",
                      "--vec-b", "1,1", "--vec-c", "2,2", "--vec-x", "0.1,0",
                      "--vec-y", "0.2,0", "--vec-z", "0.3,0", "--tau", "1i"],
                     ["eval", "period-data", "-n", "1"]):
            assert run_cli(argv)[0] == 0, argv
        # the parity of w is a domain error, not a count
        code, _, err = run_cli(["eval", "g-poly", "-w", "3"])
        assert code == 3 and "even" in err
        # one term is a valid cap; the series just does not converge in it
        code, _, err = run_cli(
            ["eval", "eisenstein", "-n", "1", "--tau", "1i", "--max-terms", "1"])
        assert code == 3 and "max_terms=1" in err

    def test_bad_tol_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "eq73", "-n", "1", "--tau", "1i",
                     "--tol", "0.5"])
        assert exc.value.code == 2

    def test_domain_error(self):
        code, _, err = run_cli(
            ["verify", "thm11", "-n", "1", "-p", "4", "-q", "2",
             "--tau", "1i"])
        assert code == 3
        assert "error:" in err

    def test_pair_outside_u_rejected_before_tau(self):
        # the pair is checked first, so the slow tau warns of nothing
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["eval", "reciprocity-rhs", "-n", "2", "-p", "3",
                                      "-q", "-2", "--tau", "0.1+0.08i"])
        assert (code, out, caught) == (3, "", [])
        assert err.splitlines() == ["error: (3, -2) is not in U (need q >= 1)"]

    def test_lower_half_plane_rejected(self):
        code, _, _ = run_cli(
            ["eval", "eisenstein", "-n", "1", "--tau=-1i"])
        assert code == 3

    def test_b0_checks_tau(self):
        # B_0 = 1 runs no series, but its tau is checked as every other
        # command's is
        code, out, err = run_cli(["eval", "elliptic-bernoulli", "-m", "0", "--x", "0.3",
                                  "--y", "0.2", "--tau", "0.1+0.01i"])
        assert code == 3 and out == ""
        assert "below the accepted bound" in err

    @pytest.mark.parametrize("argv", [
        ["eval", "eisenstein", "-n", "60", "--tau", "0.2+0.11i"],
        ["eval", "eisenstein", "-n", "200", "--tau", "0.2+1.1i"],
    ])
    def test_overflow_is_domain_error(self, argv):
        # sigma_119(k) past the float range; (2 pi i)^400 likewise
        code, out, err = run_cli(argv)
        assert code == 3 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv, n", [
        (["eval", "eisenstein", "-n", "100", "--tau", "0+1i"], 100),
        (["eval", "eisenstein", "-n", "86", "--tau", "0+5i", "--kind", "deriv"], 86),
        (["eval", "reciprocity-rhs", "-n", "100", "-p", "3", "-q", "2", "--tau", "0+1i"], 86),
        (["verify", "basis-rank", "-w", "200", "--num-tau", "4"], 101),
    ])
    def test_eisenstein_overflow_names_the_series(self, argv, n):
        # one error line naming the q-series, where it was int's "int too
        # large to convert to float"
        code, out, err = run_cli(argv)
        assert (code, out) == (3, "")
        assert err.splitlines() == [
            f"error: Eisenstein q-series (n={n}) leaves the floating-point range"]

    @pytest.mark.parametrize("argv", [
        ["eval", "eisenstein", "-n", "2", "--tau", "nan+1i"],
        ["eval", "elliptic-bernoulli", "-m", "2", "--x", "0.1", "--y", "nan", "--tau", "1i"],
        ["eval", "generating", "--which", "d", "-p", "3", "-q", "2", "--x", "nan",
         "--tau", "0.1+1i"],
        ["verify", "lemma32", "-p", "3", "-q", "2", "--s", "nan", "--tau", "0.3+1.1i"],
        ["verify", "lemma32", "-p", "3", "-q", "2", "--t", "inf", "--tau", "0.3+1.1i"],
    ])
    def test_non_finite_is_domain_error(self, argv):
        # --max-terms 10 makes an input that slips through fail fast
        code, out, err = run_cli(argv + ["--max-terms", "10"])
        assert code == 3 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("tau", ["inf+1i", "nan+1i", "0.3+infi", "-inf+1I"])
    def test_non_finite_tau_literal_is_domain_error(self, tau):
        # only the imaginary unit is mapped, so the i of "inf" stays a
        # letter: each is a tau that TauPoint rejects (exit 3), not a
        # literal that cannot be parsed (exit 2)
        code, out, err = run_cli(["eval", "eisenstein", "-n", "1", f"--tau={tau}"])
        assert (code, out) == (3, "")
        assert err.splitlines() == [f"error: tau must be finite, got {complex(tau[:-1] + 'j')}"]

    def test_generating_r_near_zero_is_domain_error(self):
        # p x, q x and x are lattice-checked: no err of Infinity in the JSON
        code, out, err = run_cli(["eval", "generating", "--which", "r", "-p", "2", "-q", "1",
                                  "--x", "1e-100", "--tau", "0.1+1i"])
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_lemma32_cap_is_domain_error(self):
        # three terms are too few near the real axis; the console-script
        # check in CI runs the same command
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowNomeWarning)
            code, out, err = run_cli(["verify", "lemma32", "-p", "3", "-q", "2",
                                      "--tau", "0.3+0.06i", "--max-terms", "3"])
        assert (code, out) == (3, "")
        assert err.splitlines() == ["error: theta series hit max_terms=3"]

    def test_lattice_point_z_is_domain_error(self):
        code, out, err = run_cli(["eval", "zeta-w", "--z", "0", "--tau", "0.3+1.1i"])
        assert (code, out) == (3, "")
        assert err.splitlines() == ["error: zeta pole: z = 0j is on the lattice"]

    @pytest.mark.parametrize("argv, name", [
        (["eval", "elliptic-bernoulli", "-m", "186", "--x", "0.1", "--y", "0.2"], "B_186"),
        (["eval", "zeta-w", "--z", "0.3", "--order", "151"], "pe^(150)"),
        (["eval", "elliptic-sum", "-n", "93", "-p", "5", "-q", "3",
          "--route", "bernoulli_product"], "B_187"),
        (["eval", "zeta-w", "--z", "1e-10", "--order", "41"], "pe^(40)"),
        (["eval", "elliptic-sum", "-n", "70", "-p", "23", "-q", "3"], "pe^(139)"),
    ])
    def test_value_beyond_binary64_is_domain_error(self, argv, name):
        # no NaN or Infinity in the JSON, no run on to max_terms, and no
        # RuntimeWarning on the way, which the test config makes an error
        code, out, err = run_cli(argv + ["--tau", "0.3+1.1i"])
        assert (code, out) == (3, "")
        assert err.splitlines() == [f"error: {name} leaves the floating-point range"]

    @pytest.mark.parametrize("argv", [
        ["eval", "elliptic-sum", "-n", "60", "-p", "3", "-q", "2", "--tau", "0.3+0.06i"],
        ["eval", "elliptic-sum", "-n", "75", "-p", "23", "-q", "12", "--tau", "0.3+1.1i",
         "--route", "bernoulli_product"],
        ["eval", "reciprocity-rhs", "-n", "80", "-p", "23", "-q", "12", "--tau", "0.3+0.06i"],
        ["eval", "machide", "-m", "160", "-n", "160", "--vec-a", "1,1", "--vec-b", "3,3",
         "--vec-c", "2,2", "--vec-x", "0.013,0", "--vec-y", "0.021,0", "--vec-z=-0.014,0",
         "--tau", "1i"],
        ["verify", "three-term", "-n", "67", "-p", "29", "-q", "30", "--tau", "0+0.3i"],
    ])
    def test_sum_beyond_binary64_is_domain_error(self, argv):
        # a sum of finite kernel values that leaves binary64 raises where
        # its ComplexVal is built: no NaN or Infinity in the JSON
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowNomeWarning)
            code, out, err = run_cli(argv)
        assert (code, out) == (3, "")
        assert err.splitlines() == ["error: a value leaves the floating-point range"]

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    @pytest.mark.parametrize("argv", [
        ["eval", "elliptic-sum", "-n", "1", "-p", "3", "-q", "2"],
        ["eval", "elliptic-sum", "-n", "1", "-p", "3", "-q", "2", "--route", "bernoulli_product"],
        ["eval", "generating", "--which", "d", "-p", "3", "-q", "2", "--x", "0.01"],
        ["eval", "generating", "--which", "r", "-p", "3", "-q", "2", "--x", "0.01"],
        ["eval", "machide", "-m", "1", "-n", "1", "--vec-a", "1,1", "--vec-b", "1,1",
         "--vec-c", "1,1", "--vec-x", "0.1,0", "--vec-y", "0.2,0", "--vec-z", "0.3,0"],
    ])
    def test_infinite_err_is_domain_error(self, argv, fmt):
        # at tau = 1e300 + i, tau' = i exactly and the values are right, but
        # the error of tau' makes the factor errs overflow: no Infinity in
        # any format, and no RuntimeWarning on the way, which the test
        # config makes an error
        code, out, err = run_cli(argv + ["--tau", "1e300+1i", "--format", fmt])
        assert (code, out) == (3, "")
        assert err.splitlines() == ["error: a value or err in the output is not finite"]

    @pytest.mark.parametrize("argv, codes", [
        (["verify", "thm11", "-n", "1", "-p", "3", "-q", "2"], {0}),
        # these still fail off F at large Re tau (ROADMAP item 18)
        (["verify", "thm13", "-p", "3", "-q", "2"], {0, 1}),
        (["verify", "prop31", "-p", "3", "-q", "2"], {0, 1}),
        (["verify", "lemma32", "-p", "3", "-q", "2"], {0, 1}),
    ])
    def test_verify_at_huge_re_tau_writes_no_warning(self, argv, codes):
        # a verify record carries residuals, not errs, so an err that
        # overflows leaves it finite and reportable
        code, out, err = run_cli(argv + ["--tau", "1e300+1i"])
        assert code in codes and out and err == ""

    def test_zeta_at_huge_re_tau_writes_one_error_line(self):
        # the err of E_2 z in zeta = b + E_2 z overflows at tau' = i, as
        # both factors carry the error of tau': one error line, and no
        # numpy warning before it
        code, out, err = run_cli(["eval", "zeta-w", "--z", "0.3+0.1i", "--tau", "1e300+1i"])
        assert (code, out) == (3, "")
        assert err.splitlines() == ["error: zeta leaves the floating-point range"]

    @pytest.mark.parametrize("argv, line", [
        (["eval", "zeta-w", "--z", "0.3+1e10i"], "error: points must be finite"),
        (["eval", "elliptic-bernoulli", "-m", "1", "--x", "0.3", "--y", "1e10"],
         "error: B_1 leaves the floating-point range"),
    ], ids=["zeta-w", "elliptic-bernoulli"])
    def test_frame_map_at_huge_re_tau_writes_one_error_line(self, argv, line):
        # y Re tau in the decomposition of z, and b y in the frame's map of
        # the point, overflow at tau = 1e300 + i: one error line, and no
        # numpy warning before it, which the test config makes an error
        code, out, err = run_cli(argv + ["--tau", "1e300+1i"])
        assert (code, out) == (3, "")
        assert err.splitlines() == [line]

    def test_unplaceable_z_is_not_a_pole(self):
        # at tau = 1e290 + i, x = 0.3 - 1e300 rounds to an integer, and the
        # decomposition keeps no digit of x's fraction: z cannot be placed
        # against the lattice, which is not a pole
        code, out, err = run_cli(["eval", "zeta-w", "--z", "0.3+1e10i", "--tau", "1e290+1i"])
        assert (code, out) == (3, "")
        assert err.splitlines() == [
            "error: z = (0.3+10000000000j) cannot be placed against the lattice of "
            "tau = (1e+290+1j): its coordinates keep no digit of their fractions"]
        # true poles keep their message, far out on the real axis too
        code, _, err = run_cli(["eval", "zeta-w", "--z", "100000", "--tau", "1i"])
        assert code == 3
        assert err.splitlines() == ["error: zeta pole: z = (100000+0j) is on the lattice"]

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_emit_writes_nothing_when_a_record_is_not_finite(self, fmt, bad):
        # every record is serialised before any is written
        out = io.StringIO()
        with pytest.raises(ValueError, match="^a value or err in the output is not finite$"):
            _emit([{"value": 1.0}, {"value": {"err": bad}}], fmt, out)
        assert out.getvalue() == ""


class TestVerifyFamilies:
    @pytest.mark.parametrize("argv", [
        ["verify", "apostol-reciprocity", "--w-max", "4", "--pq-max", "6"],
        ["verify", "thm13", "-p", "3", "-q", "2", "--tau", "1i"],
        ["verify", "prop31", "-p", "3", "-q", "2", "--tau", "1i"],
        ["verify", "lemma32", "-p", "3", "-q", "2", "--tau", "1i"],
        ["verify", "eq73", "-n", "2", "--tau", "1i"],
        ["verify", "three-term", "-n", "1", "-p", "2", "-q", "1",
         "--tau", "1i"],
        ["verify", "eq64", "-w", "4", "--tau", "0.2+1.2i"],
        ["verify", "basis-rank", "-w", "10", "--num-tau", "4", "--seed", "7"],
        ["verify", "limit", "-n", "1", "-p", "3", "-q", "1"],
        ["verify", "thm13", "-p", "13", "-q", "8", "--tau", "0.2+0.11i"],
    ])
    def test_all_pass_and_validate(self, argv):
        code, out, _ = run_cli(argv)
        assert code == 0, argv
        for line in out.strip().splitlines():
            rec = json.loads(line)
            jsonschema.validate(rec, VERIFY_SCHEMA)
            assert rec["pass"] is True

    @pytest.mark.parametrize("p, q", [(47, 3), (50, 49), (61, 17)])
    def test_thm13_x_scaled_into_window(self, p, q):
        # from max(p, q) = 46 on, 0.011 lies outside the window
        # |x| < h = 1/(2 max(p, q)), and the three x are h (0.24, 0.56, 0.88)
        code, out, _ = run_cli(["verify", "thm13", "-p", str(p), "-q", str(q),
                                "--tau", "0.3+1.1i"])
        assert code == 0
        h = 1 / (2 * max(p, q))
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert recs[0]["params"]["x"] == [v * (h / 0.0125) for v in (0.003, 0.007, 0.011)]
        assert max(recs[0]["params"]["x"]) < h
        assert all(rec["pass"] for rec in recs)

    @pytest.mark.parametrize("tau", ["0+130i", "0+1000i"])
    @pytest.mark.parametrize("family", ["thm13", "prop31", "lemma32"])
    def test_shifted_symbols_at_large_im_tau(self, family, tau):
        # at Im tau = 130 in F, e(-+y tau) leaves binary64 from y ~ 0.87 on;
        # the theta rows of the shifted symbols hold no factor above 1
        code, out, _ = run_cli(["verify", family, "-p", "23", "-q", "12", "--tau", tau])
        assert code == 0
        assert all(json.loads(line)["pass"] for line in out.strip().splitlines())

    def test_generating_d_at_large_im_tau_against_mpmath(self):
        """D^-(23, 12; 0.003) at tau = 130i against its sum over every
        division point at 30 digits, each B_1 = y - theta_1'/(2i theta_1)
        by `mpmath.jtheta`."""
        mp = pytest.importorskip("mpmath")
        p, q, x = 23, 12, 0.003
        code, out, _ = run_cli(["eval", "generating", "--which", "d", "-p", str(p), "-q", str(q),
                                "--x", str(x), "--tau", "0+130i"])
        assert code == 0
        value = json.loads(out)["value"]
        with mp.workdps(30):
            tau, x = mp.mpc(0, 130), mp.mpf(x)
            nome = mp.exp(1j * mp.pi * tau)

            def b1(u, v):
                v -= mp.floor(v)
                z = mp.pi * (u - v * tau)
                return v - mp.jtheta(1, z, nome, 1) / (2j * mp.jtheta(1, z, nome))

            ref = mp.fsum(b1(mp.mpf(lam) / p - x, -mp.mpf(mu) / p)
                          * b1(mp.mpf(q * lam) / p, -mp.mpf(q * mu) / p)
                          for lam in range(p) for mu in range(p) if (lam, mu) != (0, 0)) / p
            got = complex(value["re"], value["im"])
            assert abs(got - complex(ref)) <= value["err"] <= 1e-9

    def test_basis_rank_reports_rank(self):
        code, out, _ = run_cli(
            ["verify", "basis-rank", "-w", "14", "--num-tau", "5",
             "--seed", "3"])
        assert code == 0
        rec = json.loads(out)
        assert rec["rank"] == 2 and rec["expected_rank"] == 2

    def test_basis_rank_of_no_sample_fails_the_check(self):
        code, out, _ = run_cli(
            ["verify", "basis-rank", "-w", "10", "--num-tau", "0"])
        assert code == 1
        rec = json.loads(out)
        assert rec["rank"] == 0 and rec["expected_rank"] == 2
        assert rec["pass"] is False


class TestFormats:
    def test_csv(self):
        code, out, _ = run_cli(
            ["verify", "three-term", "-n", "1", "-p", "2", "-q", "1",
             "--tau", "1i", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",") == sorted(lines[0].split(","))
        assert "check" in lines[0]
        assert len(lines) == 2

    def test_pretty(self):
        code, out, _ = run_cli(
            ["eval", "bernoulli", "-k", "2", "--format", "pretty"])
        assert code == 0
        assert 'value="1/6"' in out


class TestToleranceResolution:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("ELLDED_TOL", "1e-30")
        code, _, _ = run_cli(
            ["verify", "eq73", "-n", "1", "--tau", "0.3+1.0i"])
        assert code == 1

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("ELLDED_TOL", "1e-30")
        code, _, _ = run_cli(
            ["verify", "eq73", "-n", "1", "--tau", "0.3+1.0i",
             "--tol", "1e-6"])
        assert code == 0

    @pytest.mark.parametrize("value", ["5", "abc"])
    def test_invalid_env_is_usage_error(self, monkeypatch, value):
        monkeypatch.setenv("ELLDED_TOL", value)
        code, out, err = run_cli(["verify", "eq73", "-n", "1", "--tau", "1i"])
        assert code == 2 and out == ""
        assert err.startswith("error: ELLDED_TOL")
        # --tol is taken first, and eval never reads the variable
        code, _, _ = run_cli(["verify", "eq73", "-n", "1", "--tau", "1i",
                              "--tol", "1e-6"])
        assert code == 0
        code, _, _ = run_cli(["eval", "bernoulli", "-k", "2"])
        assert code == 0


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["verify", "thm11", "-n", "1", "-p", "3", "-q", "2", "--tau", "1i"],
        ["verify", "basis-rank", "-w", "10", "--num-tau", "4", "--seed", "7"],
        ["eval", "elliptic-sum", "-n", "2", "-p", "5", "-q", "3",
         "--tau", "0.3+1.1i"],
    ])
    def test_repeat_runs_byte_identical(self, argv):
        _, out1, _ = run_cli(argv)
        _, out2, _ = run_cli(argv)
        assert out1 == out2
