"""The same-process A/B harness `scripts/ab_interleaved.py`, run as an A/A
pair on a short op list."""

import importlib.util
import math
from pathlib import Path

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
    a, b = ab.interleave(sides, ops, repeats=1)
    ratios = ab.report(ops, a, b)
    assert a.errors == [] and b.errors == []
    assert all(t > 0 for t in a.times + b.times)
    assert set(ratios) == {op.kind for op in ops} | {"all"}
    assert all(math.isfinite(r) and r > 0 for r in ratios.values())
    assert "exceptions A: 0" in capsys.readouterr().out
