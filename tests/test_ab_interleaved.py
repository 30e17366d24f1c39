"""The same-process A/B harness `scripts/ab_interleaved.py`, run as an A/A
pair on a short op list."""

import importlib.util
import math
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("ab_interleaved",
                                               ROOT / "scripts" / "ab_interleaved.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_aa_run_on_ten_ops(capsys):
    """Two loads of one checkout are separate packages; ten division-sums
    ops run on both without an exception and give a finite ratio per kind."""
    sides = [ab.load_side(ROOT), ab.load_side(ROOT)]
    assert sides[0].qseries is not sides[1].qseries
    assert sides[0].symbols.TauPoint is sides[0].qseries.TauPoint
    ops = sides[0].generate("division-sums", 1, 10)
    assert len(ops) == 10
    a, b = ab.interleave([ROOT, ROOT], "division-sums", ops, repeats=1)
    ratios = ab.report(ops, a, b)
    assert a.errors == [] and b.errors == []
    assert all(t > 0 for t in a.times + b.times)
    assert set(ratios) == {op.kind for op in ops} | {"all"}
    assert all(math.isfinite(r) and r > 0 for r in ratios.values())
    assert "exceptions A: 0" in capsys.readouterr().out


def test_every_repeat_starts_cold(monkeypatch):
    """Each repeat runs on sides loaded afresh: the second repeat's sides
    build the identity records that the first repeat's built, as many as
    the first's did, where sides kept across repeats would read them all
    from the cache."""
    loaded = []
    load = ab.load_side

    def spy(root):
        loaded.append(load(root))
        return loaded[-1]

    monkeypatch.setattr(ab, "load_side", spy)
    ops = [op for op in load(ROOT).generate("eisenstein-identities", 1, 100)
           if op.kind in ("eq73", "eq64", "three-term")][:10]
    ab.interleave([ROOT, ROOT], "eisenstein-identities", ops, repeats=2)
    assert len(loaded) == 4 and len({id(side.identities) for side in loaded}) == 4
    misses = [side.identities._record.cache_info().misses for side in loaded]
    assert misses[0] > len(load(ROOT).WARM_UP["eisenstein-identities"]) and len(set(misses)) == 1


def test_ops_default_to_a_benchmark_round(capsys):
    # 25 s of eisenstein-identities is 1850 ops per round
    assert ab.main([str(ROOT), str(ROOT), "--workload", "eisenstein-identities",
                    "--seed", "1", "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert "eisenstein-identities, seed 1: 1850 ops" in out
    assert "exceptions A: 0" in out and "exceptions B: 0" in out


def test_latency_percentiles_and_top_decile(capsys):
    """Each side's p50 and p90 are the `perfbench/run.py` percentiles of its
    per-op times, and its top decile counts the kinds of the ops at or
    above its p90; the report prints both sides' percentiles, in ms, with
    their ratio B/A, and both sides' top-decile kinds."""
    ops = ab.load_side(ROOT).generate("division-sums", 1, 20)
    times = [1e-3 * (i + 1) for i in range(len(ops))]
    side = ab.SideResult(times, [])
    lat = ab.latency(ops, side)
    assert (lat.p50, lat.p90) == (pytest.approx(10.5e-3), pytest.approx(18.9e-3))
    assert lat.top == dict(Counter(op.kind for op in ops[-2:]))
    ab.report(ops, side, ab.SideResult([2 * t for t in times], []))
    out = capsys.readouterr().out
    assert "p90 ms                18.9000   37.8000  2.0000  -50.00%" in out
    assert "p50 ms                10.5000   21.0000  2.0000  -50.00%" in out
    kinds = ", ".join(f"{kind} {n}" for kind, n in lat.top.items())
    assert f"top decile A: {kinds}" in out and f"top decile B: {kinds}" in out
