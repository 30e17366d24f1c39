#!/usr/bin/env python3
"""Benchmark of the ellded package: seeded op lists run in a closed loop.

One process, one thread: the loop makes a library call, waits for it, checks
its output by the package's own pass rules and makes the next.  A run is
`workloads.ROUNDS` rounds whose op lists come from `--workload`, `--seed` and
`--seconds` alone, so two commits given the same arguments do identical work.

    python3 perfbench/run.py --workload division-sums --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

With `--trace 0` the result carries the end-to-end metrics, measured with
tracing off and read at the nominal machine speed (see speed.py).  With
`--trace 1` round 0 runs once untraced and once traced, and the result
carries the per-layer metrics.  The last line of standard output is the
result as one JSON object; the lines before it are the environment stamp and
a readable report.  Metric names and units are those declared in
BENCHMARK.json at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings

from speed import SpeedTrack, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: fresh processes whose set-up time is measured per run; the median is reported
SETUP_PROBES = 7


def _import_package():
    """Import ellded from this checkout's source tree, and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import ellded
    except ImportError as exc:
        sys.exit(f"error: cannot import ellded from {SRC}: {exc}")
    if not os.path.abspath(ellded.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: ellded was imported from {ellded.__file__}, not {SRC}")


def _declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ([m["name"] for m in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(load_at_start) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "loadavg_at_start": [round(x, 2) for x in load_at_start]}


def measure_setup(workload: str):
    """Median set-up time of fresh processes that import ellded and warm up:
    (seconds at the nominal machine speed, wall-clock seconds)."""
    probe = os.path.join(HERE, "setup_probe.py")
    nominal, wall = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, probe, workload], capture_output=True,
                             text=True, timeout=120, check=True, cwd=ROOT)
        n, w = out.stdout.split()
        nominal.append(float(n))
        wall.append(float(w))
    return statistics.median(nominal), statistics.median(wall)


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


class Pass:
    """The outcome of one pass over the op list."""

    def __init__(self, ops):
        self.ops = ops
        self.latencies = []
        self.slowdowns = []  # per op: machine slowdown around it (speed.py)
        self.checks = []     # per op: list of workloads.Check
        self.errors = []     # per op: None or "ExcType: message"
        self.wall_s = 0.0
        self.reference_s = 0.0
        self.slow_nome_warnings = 0

    def passed(self, i: int) -> bool:
        return self.errors[i] is None and all(c.passed for c in self.checks[i])

    @property
    def failed(self) -> int:
        return sum(not self.passed(i) for i in range(len(self.ops)))

    @property
    def nominal_latencies(self):
        """Latencies at the nominal machine speed."""
        return [t / s for t, s in zip(self.latencies, self.slowdowns)]

    def verdicts(self):
        return [(e, [(c.family, c.passed) for c in cs])
                for e, cs in zip(self.errors, self.checks)]


def run_pass(ops, tracer=None) -> Pass:
    from ellded.qseries import SlowNomeWarning
    from workloads import run_op

    res = Pass(ops)
    track = SpeedTrack()
    intervals = []
    clock = time.perf_counter
    with warnings.catch_warnings(record=True) as caught:
        # recorded, not silenced: every slow-nome warning is counted
        warnings.simplefilter("always", SlowNomeWarning)
        start = clock()
        track.sample()
        for i, op in enumerate(ops):
            track.maybe_sample()
            span = tracer.begin_op(i) if tracer else None
            t0 = clock()
            try:
                checks, error = run_op(op), None
            except Exception as exc:  # an exception is a failed op
                checks, error = [], f"{type(exc).__name__}: {exc}"
            t1 = clock()
            if tracer:
                tracer.end(span)
            intervals.append((t0, t1))
            res.checks.append(checks)
            res.errors.append(error)
            res.slow_nome_warnings += sum(
                issubclass(w.category, SlowNomeWarning) for w in caught)
            caught.clear()
        track.sample()
        res.wall_s = clock() - start
    res.latencies = [t1 - t0 for t0, t1 in intervals]
    res.slowdowns = [track.slowdown(t0, t1) for t0, t1 in intervals]
    res.reference_s = track.total_s
    return res


# ---------------------------------------------------------------------------
# Verdicts, margins and known failures
# ---------------------------------------------------------------------------


def _finite(x: float) -> float:
    return x if math.isfinite(x) else sys.float_info.max


def family_margins(res: Pass) -> dict:
    """Per check family: checks, failures, worst residual/tol and worst
    residual/err.  The exact family reports its count of nonzero residuals
    instead, so that an exact residual stays exact."""
    from workloads import KINDS

    fams = {}
    for kind in sorted({op.kind for op in res.ops}):
        for fam in KINDS[kind][1]:
            fams[fam] = {"checks": 0, "failed": 0, "nonzero_residuals": 0,
                         "worst_residual_over_tol": 0.0,
                         "worst_residual_over_err": 0.0}
    for op, checks, error in zip(res.ops, res.checks, res.errors):
        if error is not None:
            for fam in KINDS[op.kind][1]:
                fams[fam]["checks"] += 1
                fams[fam]["failed"] += 1
        for c in checks:
            f = fams[c.family]
            f["checks"] += 1
            f["failed"] += not c.passed
            if c.tol is None:
                f["nonzero_residuals"] += c.residual != 0
                continue
            if c.tol:
                f["worst_residual_over_tol"] = max(
                    f["worst_residual_over_tol"],
                    _finite(c.residual / c.tol))
            if c.err:
                f["worst_residual_over_err"] = max(f["worst_residual_over_err"],
                                                   _finite(c.residual / c.err))
    return fams


def classify_failures(res: Pass):
    """Each failure goes to the first known-failure cell that explains it.
    Returns (count per cell, descriptions of the unexplained failures)."""
    from workloads import KNOWN_FAILURES

    per_cell = {k.cell: 0 for k in KNOWN_FAILURES}
    unexplained = []
    for op, checks, error in zip(res.ops, res.checks, res.errors):
        bad = [c for c in checks if not c.passed]
        if error is None and not bad:
            continue
        for known in KNOWN_FAILURES:
            if known.explains(op, bad, error):
                per_cell[known.cell] += 1
                break
        else:
            why = error or "; ".join(
                f"{c.family} residual {float(c.residual):.3g} tol {c.tol} err {c.err}"
                for c in bad)
            unexplained.append(f"{op}: {why}")
    return per_cell, unexplained


def _merge(passes) -> Pass:
    out = Pass([op for p in passes for op in p.ops])
    for p in passes:
        out.latencies += p.latencies
        out.slowdowns += p.slowdowns
        out.checks += p.checks
        out.errors += p.errors
        out.wall_s += p.wall_s
        out.reference_s += p.reference_s
        out.slow_nome_warnings += p.slow_nome_warnings
    return out


def _timings(rounds, latencies_of):
    """(ops per second, p50, p90): throughput is the median over the rounds,
    so that one round slowed by other load on the machine moves it little;
    the percentiles are taken over the ops of all rounds together, which pins
    them down more tightly than a median of per-round percentiles."""
    lats = [latencies_of(r) for r in rounds]
    q = statistics.quantiles([t for r in lats for t in r], n=10)
    return statistics.median(len(r) / sum(r) for r in lats), q[4], q[8]


def end_to_end(rounds, setup_s: float) -> dict:
    """End-to-end metrics, timings at the nominal machine speed."""
    ops_per_s, p50, p90 = _timings(rounds, lambda r: r.nominal_latencies)
    allr = _merge(rounds)
    attempted = len(allr.ops)
    return {
        "ops_per_s": ops_per_s,
        "op_latency_p50_ms": 1e3 * p50,
        "op_latency_p90_ms": 1e3 * p90,
        "pass_ratio": (attempted - allr.failed) / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def wall_clock(rounds, setup_wall_s: float) -> str:
    """The same timings on the wall clock, unscaled, for the report."""
    ops_per_s, p50, p90 = _timings(rounds, lambda r: r.latencies)
    slow = median(x for r in rounds for x in r.slowdowns)
    return (f"wall clock: ops_per_s {ops_per_s:.4g}, p50 {1e3 * p50:.4g} ms, "
            f"p90 {1e3 * p90:.4g} ms, setup {setup_wall_s:.4g} s; "
            f"median machine slowdown {slow:.3f}")


def traced_round(ops, workload: str, problems: list):
    """Run one round untraced, then traced; returns the traced pass and the
    per-layer span and tracing metrics."""
    import spans

    plain = run_pass(ops)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    if traced.verdicts() != plain.verdicts():
        problems.append("traced and untraced passes gave different verdicts")
    metrics = spans.layer_metrics(tracer, traced.slow_nome_warnings)
    _, self_s = tracer.self_times()
    # the reference slices are the benchmark's own time too
    accounted = (sum(self_s.values()) + traced.reference_s) / traced.wall_s
    metrics.update({
        "trace.spans": len(tracer.span_start),
        "trace.ops_per_s_untraced": len(ops) / sum(plain.nominal_latencies),
        "trace.ops_per_s_traced": len(ops) / sum(traced.nominal_latencies),
        "trace.overhead_ratio": sum(traced.nominal_latencies) / sum(plain.nominal_latencies),
        "trace.accounted_ratio": accounted,
        "trace.bench_self_s": self_s.get(spans.OP_SPAN, 0.0),
        "machine.slowdown": median(traced.slowdowns),
    })
    if not 0.9 <= accounted <= 1.0 + 1e-9:
        problems.append(f"spans account for {accounted:.3f} of the traced wall time")
    qseries_calls = sum(v for k, v in metrics.items()
                        if k.startswith("qseries.") and k.endswith(".calls"))
    if workload == "exact-reciprocity" and qseries_calls:
        problems.append(f"{qseries_calls} qseries calls on exact-reciprocity")
    if workload != "exact-reciprocity" and metrics["exact.apostol_sum.calls"]:
        problems.append("exact.apostol_sum called outside exact-reciprocity")
    return traced, metrics


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def run_workload(args, e2e_units, layer_units) -> dict:
    load_at_start = os.getloadavg()
    _import_package()
    import workloads

    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, **environment(load_at_start)}
    print(json.dumps({"env": env}, sort_keys=True))

    count = workloads.op_count(args.workload, args.seconds)
    problems = workloads.self_check(args.workload, args.seed, count)
    setup_s, setup_wall_s = (None, None) if args.trace else measure_setup(args.workload)
    workloads.warm_up(args.workload)

    if args.trace:
        # the per-layer figures come from round 0 alone
        ops = workloads.generate(args.workload, args.seed, count)
        res, metrics = traced_round(ops, args.workload, problems)
        wall = None
    else:
        rounds = [run_pass(workloads.generate(args.workload, args.seed, count, r))
                  for r in range(workloads.ROUNDS)]
        res = _merge(rounds)
        metrics = end_to_end(rounds, setup_s)
        wall = wall_clock(rounds, setup_wall_s)

    fams = family_margins(res)
    per_cell, unexplained = classify_failures(res)
    problems += [f"unexplained failure: {u}" for u in unexplained]
    failed = res.failed
    attempted = len(res.ops)

    if args.trace:
        metrics["failed_ratio"] = failed / attempted
        for fam, f in fams.items():
            for key in ("failed", "nonzero_residuals", "worst_residual_over_tol",
                        "worst_residual_over_err"):
                metrics[f"checks.{fam}.{key}"] = f[key]
        units = layer_units
    else:
        units = e2e_units
    # metrics a workload does not exercise read 0
    metrics = {name: metrics.get(name, 0) for name in units}

    print(f"{args.workload}: {attempted} ops, {failed} failed, "
          f"{res.slow_nome_warnings} slow-nome warnings, {res.wall_s:.2f} s")
    print(f"  {'family':22s} {'checks':>6s} {'failed':>6s} "
          f"{'worst r/tol':>12s} {'worst r/err':>12s} {'nonzero':>7s}")
    for fam, f in fams.items():
        print(f"  {fam:22s} {f['checks']:6d} {f['failed']:6d} "
              f"{f['worst_residual_over_tol']:12.3e} "
              f"{f['worst_residual_over_err']:12.3e} {f['nonzero_residuals']:7d}")
    for cell, n in per_cell.items():
        if n:
            print(f"  known failure x{n}: {cell}")
    if wall:
        print(f"  {wall}")
    for p in problems:
        print(f"  PROBLEM: {p}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")

    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def run_all(args, names) -> dict:
    """Every workload in a fresh process of its own, then a combined result
    with metrics named <workload>.<metric>."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        out = subprocess.run(argv, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            sys.exit(f"error: workload {name} exited with code {out.returncode}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = v
    return total


def main(argv=None) -> int:
    workload_names, e2e_units, layer_units = _declared_metrics()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if args.workload == "all":
        result = run_all(args, workload_names)
    else:
        result = run_workload(args, e2e_units, layer_units)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
