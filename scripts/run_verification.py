#!/usr/bin/env python3
"""Run the full verification battery and write a JSON report.

Drives every `ellded verify` family over a representative parameter grid and
collects per family: pass/fail counts, wall time, and either the worst
floating-point residual with the worst margin residual/tol (the tol each
record carries) or, for exact families, the number of nonzero exact
residuals.  Intended as the one-shot reproduction script for the identity
checks.

Usage:
    python3 scripts/run_verification.py [--out report.json] [--seed 7] [--fast]
"""

import argparse
import io
import json
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass

from ellded.cli import main as cli_main


#: the tau and coprime pairs that the float families run at
TAUS = ("0+1i", "0.3+1.1i")
PAIRS = ((3, 2), (5, 3))


@dataclass
class SweepConfig:
    seed: int = 7
    fast: bool = False
    out: str = "verification_report.json"


def command_grid(cfg: SweepConfig):
    """Yield (family, argv) for every check invocation in the sweep."""
    pq_max = 12 if cfg.fast else 30
    yield "apostol-reciprocity", [
        "verify", "apostol-reciprocity", "--w-max", "10", "--pq-max", str(pq_max)]
    for tau in TAUS:
        for p, q in PAIRS:
            for n in (1, 2):
                yield "thm11", ["verify", "thm11", "-n", str(n), "-p", str(p),
                                "-q", str(q), "--tau", tau]
            yield "thm13", ["verify", "thm13", "-p", str(p), "-q", str(q),
                            "--tau", tau]
            yield "prop31", ["verify", "prop31", "-p", str(p), "-q", str(q),
                             "--tau", tau]
        for n in (1, 2, 3):
            yield "eq73", ["verify", "eq73", "-n", str(n), "--tau", tau]
        for n, p, q in ((1, 2, 1), (2, 3, 2)):
            yield "three-term", ["verify", "three-term", "-n", str(n),
                                 "-p", str(p), "-q", str(q), "--tau", tau]
    # near the real axis: Im tau = 0.06 is the smallest the benchmark's
    # division sums use; the zeta route and R run at tau reduced to the
    # fundamental domain
    for tau in ("0.2+0.11i", "0.3+0.06i"):
        for p, q in PAIRS:
            for n in (1, 2):
                yield "thm11", ["verify", "thm11", "-n", str(n), "-p", str(p),
                                "-q", str(q), "--tau", tau]
            yield "thm13", ["verify", "thm13", "-p", str(p), "-q", str(q),
                            "--tau", tau]
    # at the edge of the closed F, where the zeta route and R run at tau
    # itself, and at its T-translate, where they run at tau' = tau - 1
    for tau in ("0.5+1.1i", "1.5+1.1i"):
        for p, q in PAIRS:
            for n in (1, 2):
                yield "thm11", ["verify", "thm11", "-n", str(n), "-p", str(p),
                                "-q", str(q), "--tau", tau]
    for p, q in PAIRS:
        yield "lemma32", ["verify", "lemma32", "-p", str(p), "-q", str(q),
                          "--tau", "0+1i"]
    for w in (2, 4, 6, 8, 12):
        for tau in TAUS:
            yield "eq64", ["verify", "eq64", "-w", str(w), "--tau", tau]
    for w in range(2, 16, 2):
        yield "basis-rank", ["verify", "basis-rank", "-w", str(w),
                             "--num-tau", "4", "--seed", str(cfg.seed)]
    for n, p, q in ((1, 3, 1), (1, 5, 3), (2, 5, 2)):
        yield "limit", ["verify", "limit", "-n", str(n), "-p", str(p),
                        "-q", str(q)]


def run_sweep(cfg: SweepConfig) -> dict:
    families: dict = {}
    t0 = time.time()
    for family, argv in command_grid(cfg):
        buf = io.StringIO()
        t_cmd = time.perf_counter()
        with redirect_stdout(buf):
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
        stats = families.setdefault(
            family, {"checks": 0, "failed": 0, "elapsed_s": 0.0})
        stats["elapsed_s"] += time.perf_counter() - t_cmd
        for line in buf.getvalue().splitlines():
            rec = json.loads(line)
            stats["checks"] += 1
            if not rec["pass"]:
                stats["failed"] += 1
            r = rec["residual"]
            if isinstance(r, str):  # exact rational residual "num/den"
                stats["nonzero_exact"] = (stats.get("nonzero_exact", 0)
                                          + (not r.startswith("0/")))
            else:
                stats["worst_residual"] = max(stats.get("worst_residual", 0.0),
                                              float(r))
                stats["worst_residual_over_tol"] = max(
                    stats.get("worst_residual_over_tol", 0.0), float(r) / rec["tol"])
        if code not in (0, 1) or not buf.getvalue():
            # an error exit or a command that checked nothing fails the sweep
            stats["failed"] += 1
        if code != 0:
            stats["exit_codes"] = stats.get("exit_codes", []) + [code]
    for stats in families.values():
        stats["elapsed_s"] = round(stats["elapsed_s"], 2)
    return {
        "seed": cfg.seed,
        "fast": cfg.fast,
        "elapsed_s": round(time.time() - t0, 2),
        "families": families,
        "all_pass": all(s["failed"] == 0 for s in families.values()),
    }


def parse_args(argv=None) -> SweepConfig:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="verification_report.json")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--fast", action="store_true",
                    help="smaller exact-reciprocity grid")
    ns = ap.parse_args(argv)
    return SweepConfig(seed=ns.seed, fast=ns.fast, out=ns.out)


def main(argv=None) -> int:
    cfg = parse_args(argv)
    report = run_sweep(cfg)
    with open(cfg.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for family, stats in sorted(report["families"].items()):
        if "nonzero_exact" in stats:
            margin = f"nonzero_exact={stats['nonzero_exact']}"
        elif "worst_residual" in stats:
            margin = (f"worst_residual={stats['worst_residual']:.3e} "
                      f"residual/tol={stats['worst_residual_over_tol']:.3g}")
        else:
            margin = f"no records, exit codes {stats.get('exit_codes')}"
        print(f"{family:22s} checks={stats['checks']:5d} "
              f"failed={stats['failed']:3d} "
              f"elapsed={stats['elapsed_s']:6.2f}s {margin}")
    print(f"elapsed {report['elapsed_s']}s -> {cfg.out}")
    return 0 if report["all_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
