"""Command-line interface: output formats, exit codes, determinism, schema
conformance."""

import io
import json
import warnings
from contextlib import redirect_stdout, redirect_stderr
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from ellded.cli import main

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schema"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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

    def test_lattice_point_z_is_domain_error(self):
        code, out, err = run_cli(["eval", "zeta-w", "--z", "0", "--tau", "0.3+1.1i"])
        assert (code, out) == (3, "")
        assert err.splitlines() == ["error: zeta pole: z = 0j is on the lattice"]


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
