"""The verification sweep script: per-family report fields."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_verification.py"
_spec = importlib.util.spec_from_file_location("run_verification", SCRIPT)
run_verification = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_verification)


def test_fast_sweep_fields():
    report = run_verification.run_sweep(run_verification.SweepConfig(fast=True))
    assert report["all_pass"]
    families = report["families"]
    for stats in families.values():
        assert stats["elapsed_s"] >= 0
    assert sum(s["elapsed_s"] for s in families.values()) <= report["elapsed_s"] + 0.1
    exact = families["apostol-reciprocity"]
    assert exact["nonzero_exact"] == 0 and "worst_residual" not in exact
    assert "worst_residual_over_tol" not in exact
    for family, stats in families.items():
        if family != "apostol-reciprocity":
            assert "nonzero_exact" not in stats
            assert 0 <= stats["worst_residual"] < 1e-6
            # every family passed, so every margin is below 1
            assert 0 <= stats["worst_residual_over_tol"] < 1


def test_worst_margin_is_over_each_records_own_tol(monkeypatch, tmp_path, capsys):
    # the largest residual is not the worst margin: its tol is looser
    records = [{"residual": 4e-9, "tol": 1e-8, "pass": True},
               {"residual": 6e-8, "tol": 1e-6, "pass": True},
               {"residual": 0.0, "tol": 1e-9, "pass": True}]

    def fake_cli(argv):
        for rec in records:
            print(json.dumps(rec))
        return 0

    monkeypatch.setattr(run_verification, "cli_main", fake_cli)
    monkeypatch.setattr(run_verification, "command_grid", lambda cfg: [("thm11", [])])
    out = tmp_path / "report.json"
    assert run_verification.main(["--out", str(out)]) == 0
    stats = json.loads(out.read_text())["families"]["thm11"]
    assert stats["worst_residual"] == 6e-8
    assert stats["worst_residual_over_tol"] == 4e-9 / 1e-8
    assert "residual/tol=0.4" in capsys.readouterr().out


def test_nonzero_exact_residual_is_counted(monkeypatch):
    residuals = ["0/1", "-1/9", "3/4"]

    def fake_cli(argv):
        for r in residuals:
            print(json.dumps({"residual": r, "pass": r == "0/1"}))
        return 1

    monkeypatch.setattr(run_verification, "cli_main", fake_cli)
    monkeypatch.setattr(run_verification, "command_grid",
                        lambda cfg: [("apostol-reciprocity", [])])
    report = run_verification.run_sweep(run_verification.SweepConfig())
    stats = report["families"]["apostol-reciprocity"]
    assert stats["nonzero_exact"] == 2 and stats["failed"] == 2
    assert "worst_residual" not in stats
    assert not report["all_pass"]


def _exit_without_records(code):
    def fake_cli(argv):
        if code == 2:
            raise SystemExit(2)  # as argparse does on a usage error
        return code
    return fake_cli


@pytest.mark.parametrize("code", [0, 2, 3])
def test_error_exit_or_no_records_fails(monkeypatch, tmp_path, capsys, code):
    monkeypatch.setattr(run_verification, "cli_main", _exit_without_records(code))
    monkeypatch.setattr(run_verification, "command_grid",
                        lambda cfg: [("eq73", []), ("apostol-reciprocity", [])])
    out = tmp_path / "report.json"
    assert run_verification.main(["--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert not report["all_pass"]
    for stats in report["families"].values():
        assert stats["checks"] == 0 and stats["failed"] == 1
        assert stats.get("exit_codes", []) == ([code] if code else [])
    assert "no records" in capsys.readouterr().out
