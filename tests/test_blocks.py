"""Block evaluation of the division-point series: every kernel value, err,
stopping point and error bit-identical to a term-by-term run, whatever the
batch and wherever its blocks end."""

import hashlib

import numpy as np
import pytest

from ellded import qseries, symbols
from ellded.exact import CoprimePair
from ellded.qseries import (
    ComplexArray,
    ComplexVal,
    NonConvergenceError,
    SeriesPolicy,
    TauPoint,
    elliptic_bernoulli_points,
    weierstrass_p_deriv_points,
    weierstrass_zeta_points,
)
from ellded.symbols import Route

pytestmark = pytest.mark.filterwarnings("ignore::ellded.qseries.SlowNomeWarning")

PIN_TAUS = [0.0 + 1.5j, 0.3 + 1.1j, -0.45 + 0.3j, 0.2 + 0.11j, 0.3 + 0.06j]
#: the pinned tau in the fundamental domain, where the zeta and pe kernels
#: run unreduced; elsewhere their values are bounded against mpmath
#: (tests/test_reduction.py) instead of pinned
PIN_TAUS_IN_F = [0.0 + 1.5j, 0.3 + 1.1j]
#: negative x, y = 0 and y = 1 - 1e-13 (which B_m snaps to 0)
PIN_X = [-0.37, 0.21, -0.9, 0.13, 0.77, 0.5, -0.05]
PIN_Y = [0.0, 1 - 1e-13, 0.25, 0.5, -0.3, 0.9, 0.02]
PIN_PQ = [(2, 1), (3, 2), (7, 4), (13, 7), (23, 12)]

#: SHA-256 of `_pinned_reprs()`, the outputs that no tau reduction touches:
#: every B_m, the zeta and pe kernels and the zeta-route sums in F, the
#: Bernoulli route, the Machide residuals and the closed form of C(tau); as
#: computed with the division sums over one point per pair {P, -P}, zeta
#: from B_1, integer powers by multiplication and max_terms as the cap at
#: every tau (numpy 2.4.6, x86-64)
PINNED_SHA256 = "8c1b5eb3626ec1aa264ac02eb8890bdcacd53f4ce55ba3e660ed4f2290cf2b47"


def _reprs(v):
    """Exact reprs of a ComplexVal or of every element of a ComplexArray."""
    if isinstance(v, ComplexArray):
        return [repr(v[i]) for i in range(len(v))]
    return [repr(v)]


def _outcome(call):
    """Element reprs of a kernel result, or the error type, message and
    partial it raised."""
    try:
        return _reprs(call())
    except NonConvergenceError as e:
        return ["NonConvergenceError", str(e), repr(e.partial)]


def _pinned_reprs():
    """Reprs of the kernel and division-sum outputs that the pin covers."""
    out = []
    capped = SeriesPolicy(max_terms=3)
    for t in PIN_TAUS:
        tau = TauPoint(t)
        for m in range(8):
            out += _reprs(elliptic_bernoulli_points(m, PIN_X, PIN_Y, tau))
        out += _outcome(lambda: elliptic_bernoulli_points(3, PIN_X, PIN_Y, tau, capped))
        if t in PIN_TAUS_IN_F:
            zs = [x - y * t for x, y in zip(PIN_X, PIN_Y)]
            for k in range(8):
                out += _reprs(weierstrass_p_deriv_points(k, zs, tau))
            out += _reprs(weierstrass_zeta_points(zs, tau))
            out += _outcome(lambda: weierstrass_p_deriv_points(2, zs, tau, capped))
            out += _outcome(lambda: weierstrass_zeta_points(zs, tau, capped))
    # one point at a cap of 9 terms, at tau where the series stops near
    # j = 9: each call runs one block of 9 rows, cut by the cap
    edge = SeriesPolicy(max_terms=9)
    for t in (0.1 + 0.505j, -0.3 + 0.505j):
        tau = TauPoint(t)
        for x in np.linspace(-0.95, 0.95, 12):
            for y in (0.0, 0.05):
                for m in (1, 3):
                    out += _outcome(lambda: elliptic_bernoulli_points(m, [x], [y], tau, edge))
    for t in (0.3 + 1.1j, 0.3 + 0.06j):
        tau = TauPoint(t)
        routes = list(Route) if t in PIN_TAUS_IN_F else [Route.BERNOULLI_PRODUCT]
        for n in range(1, 4):
            for p, q in PIN_PQ:
                for route in routes:
                    out += _reprs(symbols.elliptic_apostol_sum(
                        n, CoprimePair(p, q), tau, route).value)
        pair = CoprimePair(5, 3)
        if t in PIN_TAUS_IN_F:
            out += _reprs(symbols.generating_D(pair, tau, 0.05))
            out += _reprs(symbols.generating_R(pair, tau, 0.05))
            out += _reprs(symbols.proposition31_residual(pair, 0.04, tau))
        out += _reprs(symbols.proposition31_constant_closed_form(pair, tau))
        for r in symbols.machide_reciprocity_residuals(CoprimePair(3, 2), 0.013, 0.007, tau):
            out += _reprs(r)
    return out


def test_pinned_bit_identity():
    reprs = _pinned_reprs()
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert digest == PINNED_SHA256


# ---------------------------------------------------------------------------
# Blocks against the term-by-term loop
# ---------------------------------------------------------------------------


def _series_by_term(start, start_rnd, terms, state, cap, small, streak, first, what,
                    rank=None):
    """`qseries._block_series` one term at a time, whatever its `first`
    block: the terms are asked for one j at a time and a column leaves the
    batch at the j it stops at.  The reference that the blocks must
    reproduce bit for bit."""
    n = len(start)
    out_s = np.empty(n, dtype=complex)
    out_c = np.empty(n, dtype=complex)
    out_j = np.empty(n)
    out_last = np.empty(n)
    out_rnd = np.empty(n)
    idx = np.arange(n)
    s, c, rnd = start + 0j, np.zeros(n, dtype=complex), start_rnd
    # the small terms in a row up to j, per column
    run = np.zeros(n, dtype=int)
    j = 0
    while idx.size and j < cap:
        j += 1
        term, last, r = (a[0] for a in terms(range(j, j + 1), *(a[None] for a in state)))
        s, c = qseries._kahan_add(s, c, term)
        rnd = rnd + r
        run = np.where(small(last, s), run + 1, 0)
        if j < 2:
            continue
        done = run >= streak
        if np.count_nonzero(done):
            k = idx[done]
            out_s[k], out_c[k], out_rnd[k] = s[done], c[done], rnd[done]
            out_j[k], out_last[k] = j, last[done]
            keep = ~done
            idx, s, c, rnd, run = idx[keep], s[keep], c[keep], rnd[keep], run[keep]
            state = tuple(a[keep] for a in state)
    if idx.size:
        first = 0 if rank is None else np.argmin(rank[idx])
        raise NonConvergenceError(f"{what(idx[first])} hit max_terms={cap}",
                                  ComplexVal(complex(s[first]), float("inf")))
    return out_s, out_c, out_j, out_last, out_rnd


@pytest.fixture
def stops(monkeypatch):
    """Records the j at which each point of every series run stopped."""
    seen = []
    run = qseries._block_series

    def spy(*args):
        out = run(*args)
        seen.append(out[2].tolist())
        return out

    monkeypatch.setattr(qseries, "_block_series", spy)
    return seen


def _kernels(points, tau, policy=qseries.DEFAULT_POLICY):
    """Calls of every batched kernel on the (x, y) points."""
    xs, ys = [x for x, _ in points], [y for _, y in points]
    zs = [x - y * tau.tau for x, y in points]
    calls = [lambda m=m: elliptic_bernoulli_points(m, xs, ys, tau, policy) for m in (1, 2, 5)]
    calls += [lambda k=k: weierstrass_p_deriv_points(k, zs, tau, policy) for k in (0, 1, 4)]
    return calls + [lambda: weierstrass_zeta_points(zs, tau, policy)]


@pytest.mark.parametrize("t", [0.0 + 1.5j, -0.45 + 0.7j, 0.2 + 0.11j, 0.3 + 0.06j])
@pytest.mark.parametrize("max_terms", [3, 8, 9, 10**6])
def test_blocks_match_term_by_term(monkeypatch, t, max_terms):
    """Values, errs and partials equal the term-by-term loop's, over a batch
    of 604 points, whose blocks hold at most BLOCK_ELEMENTS // 604 = 6 rows
    whatever the first block's size."""
    rng = np.random.default_rng(7)
    points = list(zip(rng.uniform(-1.0, 1.0, 600), rng.uniform(-0.5, 1.0, 600)))
    points += [(1e-7, 0.0), (0.3, 1e-9), (-0.2, 1 - 1e-13), (0.4, 0.5)]
    tau = TauPoint(t)
    policy = SeriesPolicy(max_terms=max_terms)
    calls = _kernels(points, tau, policy) + _kernels(points[-4:], tau, policy)
    blocks = [_outcome(call) for call in calls]
    monkeypatch.setattr(qseries, "_block_series", _series_by_term)
    assert [_outcome(call) for call in calls] == blocks


# ---------------------------------------------------------------------------
# Batches against one-point calls, at the block boundaries
# ---------------------------------------------------------------------------


def _assert_call_matches_points(batch, single):
    """A kernel's batch call equals its one-point calls: element by element
    if the batch converges, else the batch raises with the partial of its
    first point that raises alone."""
    alone = [_outcome(call) for call in single]
    got = _outcome(batch)
    failed = [o for o in alone if o[0] == "NonConvergenceError"]
    if failed:
        # a batch raises the first error its points meet, the series' cap
        # before E_2's, with the partial of the first point that raises it
        # alone
        same = [o for o in failed if o[1] == got[1]]
        assert same and got == same[0]
    else:
        assert got == [o[0] for o in alone]


def _assert_batch_matches_points(points, tau, policy=qseries.DEFAULT_POLICY):
    """Each kernel's batch result equals its one-point calls."""
    for batch, single in zip(_kernels(points, tau, policy),
                             zip(*(_kernels([pt], tau, policy) for pt in points))):
        _assert_call_matches_points(batch, single)


def test_stop_at_second_term(stops):
    """Near the pole at 0, pe stops at the first j its rule allows."""
    tau = TauPoint(0.1 + 1.5j)
    points = [(1e-3, 0.0), (0.3, -0.2), (1e-2, 0.0)]
    _assert_batch_matches_points(points, tau)
    assert 2.0 in sum(stops, [])


@pytest.mark.parametrize("t", [0.1 + 0.565j, 0.1 + 0.62j])
def test_stop_at_block_edges(stops, passes, t):
    """Points of one batch stop on the first block's last row and on the
    next block's first row: B_1 at Im tau = 0.565 and B_2 at 0.62, where
    the series stop at j = 8 or 9, over a batch so wide that its first
    block holds BLOCK_ELEMENTS // 512 = 8 rows, fewer than `_points_rows`
    sizes it to."""
    tau, m = TauPoint(t), {0.565: 1, 0.62: 2}[t.imag]
    rng = np.random.default_rng(5)
    xs, ys = rng.uniform(-1.0, 1.0, 512), rng.uniform(0.0, 1.0, 512)
    batch = elliptic_bernoulli_points(m, xs, ys, tau)
    (_, rows, _), = passes
    run, = stops
    assert rows[0] == qseries.BLOCK_ELEMENTS // len(xs) == 8 and len(rows) == 2
    assert {rows[0], rows[0] + 1} <= set(run)
    for i in range(len(xs)):
        assert batch[i] == elliptic_bernoulli_points(m, xs[i:i + 1], ys[i:i + 1], tau)[0]


def test_mixed_batch_at_small_im_tau(stops):
    """Points that stop after a few terms share a batch with points that
    run on for many: B_1 next to the lattice point -tau, where its sum is
    large (pe and zeta run at the reduced tau, where every point stops
    after a few terms)."""
    tau = TauPoint(0.3 + 0.06j)
    points = [(1e-7, 0.0), (1e-3, 0.0), (0.3, 1e-9), (0.2, 0.5), (-0.4, 0.49),
              (1e-7, 1 - 1e-9), (0.25, 1 - 1e-11), (0.0, 1 - 2e-12)]
    _assert_batch_matches_points(points, tau)
    mixed = [run for run in stops if len(run) == len(points)]
    assert any(min(run) <= 8 and max(run) > 24 for run in mixed)


@pytest.mark.parametrize("m", [1, 3])
def test_one_row_last_block_of_one_point(monkeypatch, m):
    """A batch of 512 points, whose blocks BLOCK_ELEMENTS cuts to 8 rows,
    at a cap of 9 terms: 511 points of B_1 stop within the first block and
    the slow last point, of B_1 or B_3, runs on into a last block of one
    row and one point, where a product that broadcasts a 1-D array against
    a 2-D one can round differently.  There B_1 stops on the cap and B_3
    fails; either way the slow point's result equals its one-point call's,
    which runs one block of 9 rows."""
    blocks = []
    run = qseries._block_series

    def spy(start, start_rnd, terms, *rest):
        def counted(js, *cols):
            blocks.append((len(js), cols[0].shape[1]))
            return terms(js, *cols)

        return run(start, start_rnd, counted, *rest)

    monkeypatch.setattr(qseries, "_block_series", spy)
    tau, policy = TauPoint(0.1 + 0.6j), SeriesPolicy(max_terms=9)
    rng = np.random.default_rng(5)
    xs = [*rng.uniform(-1.0, 1.0, 511), 0.3]
    ys = [*rng.uniform(0.0, 0.3, 511), 0.97]
    batch = _outcome(lambda: elliptic_bernoulli_points([1] * 511 + [m], xs, ys, tau, policy))
    assert blocks == [(8, 512), (1, 1)]
    blocks.clear()
    alone = _outcome(lambda: elliptic_bernoulli_points(m, xs[-1:], ys[-1:], tau, policy))
    assert blocks == [(9, 1)]
    if m == 1:
        assert batch[-1] == alone[0]
    else:
        assert alone[0] == "NonConvergenceError" and batch == alone


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_term_caps_near_first_block(passes, offset):
    """Caps just below, at and just above each kernel's first block, the
    rows `_points_rows` sizes it to from |q| and the largest order."""
    points = [(0.3, 0.0), (1e-3, 0.0), (-0.45, 0.3), (0.1, 0.8)]
    for t in (0.1 + 0.565j, 0.1 + 0.505j, 0.1 + 1.5j):
        tau = TauPoint(t)
        for i, call in enumerate(_kernels(points, tau)):
            passes.clear()
            call()
            (_, rows, _), = passes
            policy = SeriesPolicy(max_terms=rows[0] + offset)
            _assert_call_matches_points(_kernels(points, tau, policy)[i],
                                        [_kernels([pt], tau, policy)[i] for pt in points])


def test_single_point_and_empty_batch():
    tau = TauPoint(0.2 + 0.3j)
    _assert_batch_matches_points([(0.3, 0.4)], tau)
    for call in _kernels([], tau):
        out = call()
        assert len(out) == 0 and out.value.shape == out.err.shape == (0,)


# ---------------------------------------------------------------------------
# The pe numerators
# ---------------------------------------------------------------------------


def _phi_poly_recurrence(k):
    """P_k by the list recurrence the cached `_phi_poly` replaced."""
    polys = [[0, 1]]
    while len(polys) <= k:
        kk = len(polys) - 1
        p = polys[-1]
        dp = [i * c for i, c in enumerate(p)][1:] or [0]
        a = dp + [0]
        for i, c in enumerate(dp):
            a[i + 1] -= c
        b = [(kk + 2) * c for c in p] + [0] * (len(a) - len(p))
        polys.append([0] + [ai + bi for ai, bi in zip(a, b)])
    return polys[k]


def test_phi_poly_matches_recurrence():
    qseries._phi_poly.cache_clear()
    for k in (40, *range(41)):
        assert qseries._phi_poly(k) == tuple(_phi_poly_recurrence(k))
    assert qseries._phi_poly.cache_info().currsize == 41


# ---------------------------------------------------------------------------
# Passes per symbol and the block rule
# ---------------------------------------------------------------------------


@pytest.fixture
def passes(monkeypatch):
    """Records, for every `_block_series` pass, its columns, the rows of
    each block it ran and the last j any column stopped at."""
    seen = []
    run = qseries._block_series

    def spy(start, start_rnd, terms, *rest):
        rows = []

        def counted(js, *cols):
            rows.append(len(js))
            return terms(js, *cols)

        out = run(start, start_rnd, counted, *rest)
        seen.append((len(start), rows, int(out[2].max(initial=0))))
        return out

    monkeypatch.setattr(qseries, "_block_series", spy)
    return seen


def test_one_bernoulli_pass_per_symbol(passes):
    """The Machide triple takes its eleven B_m factors from one pass; a
    Prop. 3.1 residual its B_1 and B_2 from one and pe from another; the
    Bernoulli route both factors from one."""
    tau = TauPoint(0.3 + 1.1j)
    symbols.machide_reciprocity_residuals(CoprimePair(5, 3), 0.013, 0.007, tau)
    assert len(passes) == 1
    passes.clear()
    symbols.proposition31_residual(CoprimePair(5, 3), 0.04, tau)
    assert len(passes) == 2
    passes.clear()
    symbols.elliptic_apostol_sum(2, CoprimePair(5, 3), tau, Route.BERNOULLI_PRODUCT)
    assert len(passes) == 1


def test_narrow_tail_grows_from_the_rows_it_ran(passes):
    """In the merged Prop. 3.1 batch at (23, 17) and Im tau = 0.06, the
    B_1 division sums, three factors per pair {P, -P}, run in blocks of
    three rows (BLOCK_ELEMENTS // columns, far below the first block that
    |q| calls for) and stop by j = 76, and B_2 at (23 s, 0), (17 s, 0)
    runs on to j = 87: the two columns left grow from three rows again,
    and each pass runs under 2 j + its first block's rows in all."""
    symbols.proposition31_residual(CoprimePair(23, 17), 0.3 / 46, TauPoint(0.2 + 0.06j))
    columns, rows, last = passes[0]
    assert columns == 3 * (23**2 - 1) // 2 + 3 * (17**2 - 1) // 2 + 4
    assert rows[0] == 3 and last == 87
    for columns, rows, last in passes:
        assert sum(rows) < 2 * last + rows[0]


@pytest.mark.parametrize("t", [0.3 + 1.1j, 0.0 + 1.5j, -0.5 + 0.87j, 0.45 + 0.9j])
def test_passes_in_F_run_one_block(passes, t):
    """At tau in F, every B_1 or pe pass of at most 64 points, those of
    the zeta route, D^-(x) and R^-(x), runs exactly one block, of at most
    its largest stopping j + 2 rows."""
    tau = TauPoint(t)
    for p, q in PIN_PQ + [(5, 3), (8, 3), (11, 4)]:
        pair = CoprimePair(p, q)
        for n in (1, 2, 3):
            symbols.elliptic_apostol_sum(n, pair, tau, Route.ZETA_DERIVATIVE)
        x = 0.3 / (2 * p)
        symbols.generating_D(pair, tau, x)
        symbols.generating_R(pair, tau, x)
    small = [(rows, last) for columns, rows, last in passes if columns <= 64]
    assert len(small) > 50
    for rows, last in small:
        assert len(rows) == 1 and rows[0] <= last + 2
