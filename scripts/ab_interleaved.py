#!/usr/bin/env python3
"""Same-process A/B timing of two checkouts of ellded on a benchmark op list.

Both checkouts are loaded into one process, each as its own copy of the
`ellded` package together with its own `perfbench/workloads.py`.  One op list
is drawn from side A's generator; every op then runs on both sides back to
back, the side that goes first alternating from op to op and from repeat to
repeat, so that drift of the machine's speed falls on both sides alike.
Each repeat loads both sides afresh and warms them up as the benchmark
does, so that no repeat reads the records and q-sums an earlier one
cached; an op's time on a side is the minimum over the repeats.
Exceptions are caught and counted per side: an op that raises is fast and
would otherwise read as a gain.

    python3 scripts/ab_interleaved.py A_CHECKOUT B_CHECKOUT \\
        [--workload division-sums] [--seed 1855] [--ops N] [--repeats 3]

--ops defaults to the benchmark's ops per round for the workload
(`workloads.op_count` at BENCHMARK.json's run_seconds), so that the op mix
is the one a benchmark round runs.

Prints, per op kind and in total, each side's summed time, the ratio B/A
(below 1 where B is faster) and the gain A/B - 1; then each side's p50 and
p90 of the per-op times, as `perfbench/run.py` takes them
(`statistics.quantiles`, n=10), with their ratio B/A, and the op kinds of
each side's top decile, the ops at or above its p90; then the exceptions
of each side.  Running a checkout against itself (an A/A run) shows the
noise.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import statistics
import sys
import time
import warnings
from collections import Counter, defaultdict
from pathlib import Path
from types import ModuleType
from typing import Dict, List, NamedTuple, Sequence


def run_seconds() -> float:
    """The seconds of a benchmark run, which set its ops per round, from the
    BENCHMARK.json of the repository that holds this script."""
    path = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    return json.loads(path.read_text())["run_seconds"]


def _owned(name: str) -> bool:
    """Whether a module name belongs to one side's load."""
    return name in ("ellded", "workloads") or name.startswith("ellded.")


def load_side(root: Path) -> ModuleType:
    """The `perfbench/workloads` module of the checkout at root, bound to the
    `ellded` of its own `src/`.  The modules the process had under those
    names before are restored afterwards, so sides never share one."""
    saved = {name: sys.modules.pop(name) for name in list(sys.modules) if _owned(name)}
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    try:
        workloads = importlib.import_module("workloads")
        src = (root / "src").resolve()
        if not Path(sys.modules["ellded"].__file__).resolve().is_relative_to(src):
            raise ImportError(f"ellded was not imported from {src}")
        return workloads
    finally:
        del sys.path[:2]
        for name in [name for name in sys.modules if _owned(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


class SideResult(NamedTuple):
    #: per op, the minimum time over the repeats, in seconds
    times: List[float]
    #: (op index, exception type and message) of every op that raised
    errors: List[tuple]


def interleave(roots: Sequence[Path], workload: str, ops: Sequence,
               repeats: int) -> List[SideResult]:
    """Run every op on the side of every checkout root, `repeats` times,
    alternating which side goes first, each repeat on sides loaded afresh
    (`load_side`) and warmed up for the workload; returns per side the
    minimum time of each op and the ops that raised (on their first
    repeat)."""
    best = [[math.inf] * len(ops) for _ in roots]
    errors: List[List[tuple]] = [[] for _ in roots]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rep in range(repeats):
            sides = [load_side(root) for root in roots]
            for side in sides:
                side.warm_up(workload)
            for i, op in enumerate(ops):
                order = range(len(sides)) if (i + rep) % 2 == 0 else reversed(range(len(sides)))
                for s in order:
                    t0 = time.perf_counter()
                    try:
                        sides[s].run_op(op)
                    except Exception as exc:  # counted, never skipped
                        if rep == 0:
                            errors[s].append((i, f"{type(exc).__name__}: {exc}"))
                    best[s][i] = min(best[s][i], time.perf_counter() - t0)
    return [SideResult(t, e) for t, e in zip(best, errors)]


def kind_totals(ops: Sequence, result: SideResult) -> Dict[str, float]:
    """Summed time per op kind, and over all ops under "all"."""
    totals: Dict[str, float] = defaultdict(float)
    for op, t in zip(ops, result.times):
        totals[op.kind] += t
        totals["all"] += t
    return dict(totals)


class Latency(NamedTuple):
    #: the median and 90th percentile of the per-op times, in seconds
    p50: float
    p90: float
    #: ops per kind among those at or above p90, the top decile
    top: Dict[str, int]


def latency(ops: Sequence, result: SideResult) -> Latency:
    """p50 and p90 of a side's per-op minimum times, taken as
    `perfbench/run.py` takes its op latencies, and the kinds of the ops in
    its top decile."""
    q = statistics.quantiles(result.times, n=10)
    top = Counter(op.kind for op, t in zip(ops, result.times) if t >= q[8])
    return Latency(q[4], q[8], dict(top.most_common()))


def report(ops: Sequence, a: SideResult, b: SideResult) -> Dict[str, float]:
    """Print per-kind times, ratio B/A and gain A/B - 1, each side's p50,
    p90 and top-decile kinds, and each side's exceptions; returns the ratio
    per kind."""
    ta, tb = kind_totals(ops, a), kind_totals(ops, b)
    ratios = {}
    print(f"{'kind':<14}{'ops':>5}{'A s':>10}{'B s':>10}{'B/A':>8}{'gain':>9}")
    for kind in sorted(ta, key=lambda k: (k == "all", k)):
        count = len(ops) if kind == "all" else sum(op.kind == kind for op in ops)
        ratios[kind] = tb[kind] / ta[kind]
        print(f"{kind:<14}{count:>5}{ta[kind]:>10.4f}{tb[kind]:>10.4f}"
              f"{ratios[kind]:>8.4f}{ta[kind] / tb[kind] - 1:>+9.2%}")
    la, lb = latency(ops, a), latency(ops, b)
    for name in ("p50", "p90"):
        ta, tb = getattr(la, name), getattr(lb, name)
        print(f"{name + ' ms':<19}{1e3 * ta:>10.4f}{1e3 * tb:>10.4f}{tb / ta:>8.4f}"
              f"{ta / tb - 1:>+9.2%}")
    for name, lat in (("A", la), ("B", lb)):
        kinds = ", ".join(f"{kind} {count}" for kind, count in lat.top.items())
        print(f"top decile {name}: {kinds}")
    for name, side in (("A", a), ("B", b)):
        print(f"exceptions {name}: {len(side.errors)}")
        for i, msg in side.errors[:10]:
            print(f"  op {i} ({ops[i].kind}): {msg}")
    return ratios


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="checkout A (the reference)")
    ap.add_argument("b", type=Path, help="checkout B")
    ap.add_argument("--workload", default="division-sums")
    ap.add_argument("--seed", type=int, default=1855)
    ap.add_argument("--ops", type=int, default=None,
                    help="ops to run (default: the benchmark's ops per round)")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    roots = [args.a.resolve(), args.b.resolve()]
    generator = load_side(roots[0])
    count = generator.op_count(args.workload, run_seconds()) if args.ops is None else args.ops
    ops = generator.generate(args.workload, args.seed, count)
    a, b = interleave(roots, args.workload, ops, args.repeats)
    print(f"{args.workload}, seed {args.seed}: {len(ops)} ops, "
          f"minimum of {args.repeats} repeats; A = {args.a}, B = {args.b}")
    report(ops, a, b)
    return 0


if __name__ == "__main__":
    sys.exit(main())
