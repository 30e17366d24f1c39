"""Block evaluation of the division-point series: every kernel value, err,
stopping point and error bit-identical to a term-by-term run, whatever the
batch and wherever its blocks end."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from held_reference import bernoulli_points_at

pytestmark = pytest.mark.filterwarnings("ignore::ellded.qseries.SlowNomeWarning")

PIN_TAUS = [0.0 + 1.5j, 0.3 + 1.1j, -0.45 + 0.3j, 0.2 + 0.11j, 0.3 + 0.06j]
#: the pinned tau in the fundamental domain, where the zeta and pe kernels
#: run unreduced; elsewhere their values are bounded against mpmath
#: (tests/test_reduction.py) instead of pinned
PIN_TAUS_IN_F = [0.0 + 1.5j, 0.3 + 1.1j]
#: negative x, y = 0 and y = 1 - 1e-13 (which the frame snaps to 1)
PIN_X = [-0.37, 0.21, -0.9, 0.13, 0.77, 0.5, -0.05]
PIN_Y = [0.0, 1 - 1e-13, 0.25, 0.5, -0.3, 0.9, 0.02]
PIN_PQ = [(2, 1), (3, 2), (7, 4), (13, 7), (23, 12)]

#: SHA-256 of `_pinned_reprs()`: every B_m, the zeta and pe kernels and
#: the zeta-route sums in F, the Bernoulli route, the Machide residuals and
#: the closed form of C(tau), and B_m at a cap of 9 terms, both the series
#: held at tau and the kernel; as computed with the division sums over one
#: point per pair {P, -P}, zeta from B_1, integer powers by multiplication,
#: max_terms as the cap at every tau, and the zeta route in F summed at the correctly rounded
#: x = lam/p, y = -mu/p of each division point, the path it takes off F,
#: the zeta and pe kernels in F charging the rounding of their
#: decomposition z = x - y tau, and generating_D and generating_R summed
#: at the coordinates x and y of their points, B_m off F at tau' in F
#: times m^-m, and the Bernoulli route summed as a whole, at tau' off F,
#: charging the rounding of its coordinates, D^-(x) as a sum of B_1
#: products, and R^-(x) and the Prop. 3.1 residual by the heat identity,
#: each leaving tau' once as a sum of weight 2, and the Machide residuals
#: and the closed form of C(tau), from one theta pass of B_1 and B_2, and
#: each route from one series pass over the half division points, the
#: zeta route's bracket from the pe family's order -1, the factor at q P
#: or q* P read back through the integer table of (p, q) or (p, q*)
#: (numpy 2.4.6, x86-64)
PINNED_SHA256 = "f77a0e60a3dcff26c7a1a4cd88332e5a6df857a34c32f339835e3ef6a53eb1ad"


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
    # one point at a cap of 9 terms, at tau where the series held at tau
    # stops near j = 9: each call runs one block of 9 rows, cut by the cap;
    # and the kernel under the same cap, which runs at tau'
    edge = SeriesPolicy(max_terms=9)
    for t in (0.1 + 0.505j, -0.3 + 0.505j):
        tau = TauPoint(t)
        for x in np.linspace(-0.95, 0.95, 12):
            for y in (0.0, 0.05):
                for m in (1, 3):
                    out += _outcome(lambda: _held_points(m, [x], [y], tau, edge))
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


#: (kernel, its orders): the Lambert B_m series and the pe family
TWO_ORDER_KERNELS = [(qseries._bernoulli_series, range(1, 8)),
                     (qseries._p_deriv_series, range(-1, 8))]


@pytest.mark.parametrize("dtau", [0.0, 2.0**-50])
@pytest.mark.parametrize("t", [0.3 + 1.1j, 0.2 + 0.3j])
@pytest.mark.parametrize("width", [0, 1, 7, 264, 1300])
def test_two_order_rows_equal_one_order_calls(t, width, dtau):
    """Each row of a two-order pass equals the one-order pass of its order
    bit for bit, value and err, in either order of the two: every pair of
    Lambert orders 1 to 7 and of pe orders -1 to 7, at widths 0 to 1300,
    on F and held off F, at the caller's record and at one of dtau =
    2^-50, as a tau' carries."""
    rng = np.random.default_rng(width)
    x, y = rng.uniform(-1.0, 1.0, width), rng.uniform(-1.0, 1.0, width)
    at = qseries._checked(TauPoint(t), qseries.DEFAULT_POLICY)._replace(dtau=dtau)
    arg_err = (np.full(width, 2.0**-53), 2.0**-53 * np.abs(y))
    for kernel, orders in TWO_ORDER_KERNELS:
        alone = {k: kernel((k,), x, y, at, arg_err) for k in orders}
        for ks in itertools.permutations(orders, 2):
            both = kernel(ks, x, y, at, arg_err)
            assert both.value.shape == both.err.shape == (2, width)
            for row, k in enumerate(ks):
                assert both.value[row].tobytes() == alone[k].value[0].tobytes(), (ks, k)
                assert both.err[row].tobytes() == alone[k].err[0].tobytes(), (ks, k)


# ---------------------------------------------------------------------------
# Blocks against the term-by-term loop
# ---------------------------------------------------------------------------


def _series_by_term(start, start_rnd, terms, cap, first, what):
    """`qseries._block_series` one term at a time, whatever its `first`
    block: the terms are asked for one j at a time and a column leaves the
    batch at the j >= 2 it stops at, a kernel's orders one after another
    as its columns.  The reference that the blocks must reproduce bit for
    bit."""
    shape = start.shape
    n = start.size
    start, start_rnd = start.reshape(n), start_rnd.reshape(n)
    out_s = np.empty(n, dtype=complex)
    out_c = np.empty(n, dtype=complex)
    out_j = np.empty(n)
    out_last = np.empty(n)
    out_rnd = np.empty(n)
    idx = np.arange(n)
    s, c, rnd = start + 0j, np.zeros(n, dtype=complex), start_rnd
    j = 0
    while idx.size and j < cap:
        j += 1
        term, last, r = (a[0][idx] for a in terms(range(j, j + 1)))
        s, c = qseries._kahan_add(s, c, term)
        rnd = rnd + r
        if j < 2:
            continue
        done = ~(last > qseries.TOL * np.maximum(np.abs(s), 1.0))
        if np.count_nonzero(done):
            k = idx[done]
            out_s[k], out_c[k], out_rnd[k] = s[done], c[done], rnd[done]
            out_j[k], out_last[k] = j, last[done]
            keep = ~done
            idx, s, c, rnd = idx[keep], s[keep], c[keep], rnd[keep]
    if idx.size:
        raise NonConvergenceError(f"{what} hit max_terms={cap}",
                                  ComplexVal(complex(s[0]), float("inf")))
    return tuple(a.reshape(shape) for a in (out_s, out_c, out_j, out_last, out_rnd))


@pytest.fixture
def stops(monkeypatch):
    """Records the j at which each column of every series run stopped."""
    seen = []
    run = qseries._block_series

    def spy(*args):
        out = run(*args)
        seen.append(out[2].ravel().tolist())
        return out

    monkeypatch.setattr(qseries, "_block_series", spy)
    return seen


def _held_points(m, xs, ys, tau, policy=qseries.DEFAULT_POLICY):
    """B_m at tau itself, unreduced, as the kernel ran it before it took its
    points through `qseries._frame`: the long series a tau far from F asks
    for, which the tests of the block edges below need."""
    return bernoulli_points_at(m, xs, ys, qseries._checked(tau, policy))


def _kernels(points, tau, policy=qseries.DEFAULT_POLICY, bernoulli=elliptic_bernoulli_points):
    """Calls of every batched kernel on the (x, y) points, B_m by
    `bernoulli`."""
    xs, ys = [x for x, _ in points], [y for _, y in points]
    zs = [x - y * tau.tau for x, y in points]
    calls = [lambda m=m: bernoulli(m, xs, ys, tau, policy) for m in (1, 2, 5)]
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


def _assert_batch_matches_points(points, tau, policy=qseries.DEFAULT_POLICY,
                                 bernoulli=elliptic_bernoulli_points):
    """Each kernel's batch result equals its one-point calls."""
    for batch, single in zip(_kernels(points, tau, policy, bernoulli),
                             zip(*(_kernels([pt], tau, policy, bernoulli) for pt in points))):
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
    next block's first row: B_1 held at Im tau = 0.565 and B_2 at 0.62,
    where the series stop at j = 8 or 9, over a batch so wide that its
    first block holds BLOCK_ELEMENTS // 512 = 8 rows, fewer than
    `_points_rows` sizes it to."""
    tau, m = TauPoint(t), {0.565: 1, 0.62: 2}[t.imag]
    rng = np.random.default_rng(5)
    xs, ys = rng.uniform(-1.0, 1.0, 512), rng.uniform(0.0, 1.0, 512)
    batch = _held_points(m, xs, ys, tau)
    (_, rows, _), = passes
    run, = stops
    assert rows[0] == qseries.BLOCK_ELEMENTS // len(xs) == 8 and len(rows) == 2
    assert {rows[0], rows[0] + 1} <= set(run)
    for i in range(len(xs)):
        assert batch[i] == _held_points(m, xs[i:i + 1], ys[i:i + 1], tau)[0]


def test_mixed_batch_at_small_im_tau(stops):
    """Points that stop after a few terms share a batch with points that
    run on for many: B_1 held at tau next to the lattice point -tau, where
    its sum is large (pe and zeta run at the reduced tau, where every point
    stops after a few terms)."""
    tau = TauPoint(0.3 + 0.06j)
    points = [(1e-7, 0.0), (1e-3, 0.0), (0.3, 1e-9), (0.2, 0.5), (-0.4, 0.49),
              (1e-7, 1 - 1e-9), (0.25, 1 - 1e-11), (0.0, 1 - 2e-12)]
    _assert_batch_matches_points(points, tau, bernoulli=_held_points)
    mixed = [run for run in stops if len(run) == len(points)]
    assert any(min(run) <= 8 and max(run) > 24 for run in mixed)


@pytest.mark.parametrize("m", [1, 3])
def test_one_row_last_block_of_one_point(monkeypatch, m):
    """A batch of 512 points held at tau at a cap of 9 terms, 511 points of
    B_1 that stop within 8 rows and a slow last point, of B_1 or B_3.  Of
    B_1, the batch's blocks are cut by BLOCK_ELEMENTS to 8 rows, and the
    slow point runs on, with the points that stopped, into a last block of
    one row, where it stops on the cap.  Of B_3, it runs in a pass of its
    own, one block of 9 rows, and fails.  Either way the slow point's result
    equals its one-point call's, which runs one block of 9 rows."""
    blocks = []
    run = qseries._block_series

    def spy(start, start_rnd, terms, *rest):
        def counted(js):
            term, size, rnd = terms(js)
            blocks.append(term.shape)
            return term, size, rnd

        return run(start, start_rnd, counted, *rest)

    monkeypatch.setattr(qseries, "_block_series", spy)
    tau, policy = TauPoint(0.1 + 0.6j), SeriesPolicy(max_terms=9)
    rng = np.random.default_rng(5)
    xs = [*rng.uniform(-1.0, 1.0, 511), 0.3]
    ys = [*rng.uniform(0.0, 0.3, 511), 0.97]
    batch = _outcome(lambda: _held_points([1] * 511 + [m], xs, ys, tau, policy))
    assert blocks == ([(8, 512), (1, 512)] if m == 1 else [(8, 511), (9, 1)])
    blocks.clear()
    alone = _outcome(lambda: _held_points(m, xs[-1:], ys[-1:], tau, policy))
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


def _horner_from_zeros(coeffs, w):
    """Horner's rule seeded with zeros, as `_phi` ran it before it seeded
    each rule with the leading coefficient."""
    num = np.zeros_like(w)
    for c in reversed(coeffs):
        num = num * w + c
    return num


#: finite w near the unit circle, where the pe series' Phi_k(u q^j) and
#: Phi_k(q^j / u) sit, and at the edges: 0 and its signed zeros, |w| just
#: below 1 and w far outside it, as u at a large Im tau is
_EDGE_W = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
           1 - 2.0**-52, -(1 - 2.0**-52), complex(0.0, 1 - 2.0**-53),
           complex(math.cos(2.0), math.sin(2.0)), 1e-300 + 1e-310j, 1e154 - 3e153j]


@given(ws=st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                   min_size=1, max_size=40),
       near=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40),
       k=st.integers(-1, 14))
@example(ws=_EDGE_W, near=[0.0], k=0)
@example(ws=_EDGE_W, near=[-1.0, 1.0], k=5)
@settings(max_examples=150, deadline=None)
def test_horner_seed_matches_zeros_seed(ws, near, k):
    """`qseries._horner`, seeded with the leading coefficient, equals the
    rule seeded with zeros bit for bit over finite arguments: the complex
    rule at any finite w, w = 0 and its signed zeros, and w on and near the
    unit circle, 1-D and stacked 2-D as the pe blocks stack it, and the
    real rule at every finite |w|, for the numerators of Phi_k and of its
    bound.  (At |w| = inf the zeros give NaN and the seed inf: an err that
    is not finite either way, which the pass raises on alike.)"""
    circle = np.exp(1j * math.pi * np.array(near)) * (1 - 2.0**-40 * np.abs(near))
    # quiet, as in the pe pass: a large w overflows both rules alike
    with np.errstate(all="ignore"):
        stacked = circle[:, None] * np.array(ws)[None]
        # a product that leaves binary64 is no finite w
        stacked[~np.isfinite(stacked)] = 0.0
        _assert_horner_seeds_agree(k, [np.array(ws, dtype=complex), circle, stacked])


def _assert_horner_seeds_agree(k, ws):
    for w in ws:
        # |w| of a finite w may round to inf: the real rule is held to finite |w|
        r = np.abs(w)
        for coeffs in (qseries._phi_poly(k), qseries._phi_poly(k + 1)):
            for v in (w, r[np.isfinite(r)]):
                assert qseries._horner(coeffs, v).tobytes() == \
                    _horner_from_zeros(coeffs, v).tobytes(), (coeffs, v)


@pytest.mark.parametrize("ks", [(1,), (1, -1), (3, -1, 0)])
@pytest.mark.parametrize("t, width", [(0.3 + 1.1j, 24), (0.3 + 1.1j, 1300), (0.2 + 0.11j, 604)])
def test_pe_pass_evaluates_phi_once_per_block(monkeypatch, ks, t, width):
    """A pe pass of one to three orders calls `_phi` once per block: the
    start Phi_k(u) comes from the head block's call, as one more row beside
    the rows Phi_k(u q^j) and Phi_k(q^j / u).  On F at 24 points in one
    block, at 1300 points in blocks of 3 rows, and at 0.2 + 0.11i, held
    there, over 604 points in blocks of 6 rows."""
    calls, blocks = [], []
    phi, run = qseries._phi, qseries._block_series

    def phi_spy(orders, w):
        calls.append(w.shape[0])
        return phi(orders, w)

    def series_spy(start, start_rnd, terms, *rest):
        def counted(js):
            blocks.append(len(js))
            return terms(js)

        return run(start, start_rnd, counted, *rest)

    monkeypatch.setattr(qseries, "_phi", phi_spy)
    monkeypatch.setattr(qseries, "_block_series", series_spy)
    rng = np.random.default_rng(width)
    x, y = rng.uniform(-1.0, 1.0, width), rng.uniform(-0.45, 0.45, width)
    at = qseries._checked(TauPoint(t), qseries.DEFAULT_POLICY)
    qseries._p_deriv_series(ks, x, y, at, (np.zeros(width), np.zeros(width)))
    assert (len(blocks) == 1) == (width == 24)
    assert calls == [2 * blocks[0] + 1] + [2 * rows for rows in blocks[1:]]


# ---------------------------------------------------------------------------
# Passes per symbol and the block rule
# ---------------------------------------------------------------------------


@pytest.fixture
def passes(monkeypatch):
    """Records, for every `_block_series` pass, its points (the columns of
    each of its orders), the rows of each block it ran and the last j any
    column stopped at."""
    seen = []
    run = qseries._block_series

    def spy(start, start_rnd, terms, *rest):
        rows = []

        def counted(js, *cols):
            rows.append(len(js))
            return terms(js, *cols)

        out = run(start, start_rnd, counted, *rest)
        seen.append((start.shape[-1], rows, int(out[2].max(initial=0))))
        return out

    monkeypatch.setattr(qseries, "_block_series", spy)
    return seen


@pytest.fixture
def cold_records():
    """Empties the Theorem 1.3 records, so that a pin of passes counts the
    same passes whatever ran before it."""
    symbols._RECORDS.clear()


@pytest.fixture
def orders(monkeypatch):
    """Records every B_m pass (`qseries._bernoulli_series`): its orders and
    points."""
    seen = []
    run = qseries._bernoulli_series

    def spy(ms, x, *rest):
        seen.append((ms, len(x)))
        return run(ms, x, *rest)

    # symbols imports the function by name for the Bernoulli route
    monkeypatch.setattr(qseries, "_bernoulli_series", spy)
    monkeypatch.setattr(symbols, "_bernoulli_series", spy)
    return seen


@pytest.fixture
def thetas(monkeypatch):
    """Records the points of every theta pass (`qseries._theta_pass`)."""
    seen = []
    run = qseries._theta_pass

    def spy(x, *rest):
        seen.append(len(x))
        return run(x, *rest)

    # symbols imports the function by name for the shifted symbols
    monkeypatch.setattr(qseries, "_theta_pass", spy)
    monkeypatch.setattr(symbols, "_theta_pass", spy)
    return seen


def test_one_bernoulli_pass_per_symbol(passes, orders, thetas, cold_records):
    """A symbol runs one pass for its B_m.  The shifted symbols, which
    read B_1 and B_2 alone, run one theta pass and no B_m series: the
    Machide triple over its six point sets, a Prop. 3.1 residual over all
    its points, and D^-(p, q; x) the Theorem 1.3 record's pass, over the
    points of D^-(p, q; x) and D^-(q, p; x) and (px, qx, x); R^-(x) at
    that x reads the record and runs none, and alone at another x runs
    one over its three points.  A mixed-order kernel call runs one B_m
    pass per order >= 1, in ascending order, on F and off it, and the
    Bernoulli route B_1 and B_{2n+1} as one pass of two orders."""
    tau = TauPoint(0.3 + 1.1j)
    ms, points = [2, 5, 1, 0, 5], ([0.3, 0.2, 0.5, 0.1, 0.4], [0.1, 0.7, 0.2, 0.4, 0.6])
    for call, expected, theta in [
            (lambda: elliptic_bernoulli_points(ms, *points, tau),
             [((1,), 1), ((2,), 1), ((5,), 2)], []),
            (lambda: elliptic_bernoulli_points(ms, *points, TauPoint(0.3 + 0.06j)),
             [((1,), 1), ((2,), 1), ((5,), 2)], []),
            (lambda: symbols.machide_reciprocity_residuals(CoprimePair(5, 3), 0.013, 0.007, tau),
             [], [70]),
            (lambda: symbols.proposition31_residual(CoprimePair(5, 3), 0.04, tau),
             [], [3 * 12 + 3 * 4 + 3]),
            (lambda: symbols.generating_D(CoprimePair(5, 3), tau, 0.05), [], [3 * 12 + 3 * 4 + 3]),
            (lambda: symbols.generating_R(CoprimePair(5, 3), tau, 0.05), [], []),
            (lambda: symbols.generating_R(CoprimePair(5, 3), tau, 0.06), [], [3]),
            (lambda: symbols.elliptic_apostol_sum(2, CoprimePair(5, 3), tau,
                                                  Route.BERNOULLI_PRODUCT),
             [((1, 5), 12)], [])]:
        passes.clear()
        orders.clear()
        thetas.clear()
        call()
        assert orders == expected and thetas == theta
        assert all(type(m) is int for ms, _ in orders for m in ms)
        assert [columns for columns, _, _ in passes] == [n for _, n in orders]


#: the theta passes of each shifted symbol's call, at tau in F and off it
SHIFTED_PASSES = {"thm13": 3, "prop31": 1, "lemma32": 1, "sigma_log": 1, "closed_form": 1}


@pytest.mark.parametrize("t", [0.3 + 1.1j, 0.2 + 0.3j, 0.3 + 0.06j])
def test_passes_per_shifted_symbol_call(passes, thetas, cold_records, t):
    """A Theorem 1.3 op, D^-(p, q; x) + D^-(q, p; x) - R^-(x) at three x,
    runs 3 theta passes, one per x, whose record all three terms read; a
    Prop. 3.1 residual runs one, and so do the Machide triple of Lemma
    3.2, d(log sigma)/dtau and the closed form of C(tau), which read B_1
    and B_2 alone.  None runs a B_m or pe series."""
    tau, pair, swap = TauPoint(t), CoprimePair(5, 3), CoprimePair(3, 5)
    calls = {
        "thm13": lambda: [symbols.generating_D(pair, tau, x) + symbols.generating_D(swap, tau, x)
                          - symbols.generating_R(pair, tau, x) for x in (0.003, 0.007, 0.011)],
        "prop31": lambda: symbols.proposition31_residual(pair, 0.04, tau),
        "lemma32": lambda: symbols.machide_reciprocity_residuals(pair, 0.013, 0.007, tau),
        "sigma_log": lambda: qseries.sigma_log_tau_derivative(0.3 - 0.02j, tau),
        "closed_form": lambda: symbols.proposition31_constant_closed_form(pair, tau),
    }
    for kind, call in calls.items():
        passes.clear()
        thetas.clear()
        call()
        assert len(thetas) == SHIFTED_PASSES[kind] and passes == [], kind


#: a B_1 batch held at Im tau = 0.06: 1200 points next to the lattice point
#: -tau, whose series run long, and two in the cell, which stop early
WIDE_SLOW_BATCH = ([1e-7] * 1200 + [0.3, 0.2], [1 - 1e-9] * 1200 + [0.5, 0.9],
                   TauPoint(0.2 + 0.06j))


def test_wide_slow_batch_matches_term_by_term(monkeypatch):
    """Every column of the wide slow batch, the two that stop early among
    them, equals the term-by-term loop's, bit for bit."""
    blocks = _reprs(_held_points(1, *WIDE_SLOW_BATCH))
    monkeypatch.setattr(qseries, "_block_series", _series_by_term)
    assert _reprs(_held_points(1, *WIDE_SLOW_BATCH)) == blocks


def test_wide_slow_batch_runs_blocks_of_its_width(passes):
    """Every block of the wide slow batch, far below the first block that
    |q| calls for, runs BLOCK_ELEMENTS // 1202 = 3 rows, as the batch keeps
    its width to its last block."""
    _held_points(1, *WIDE_SLOW_BATCH)
    (columns, rows, last), = passes
    assert columns == 1202 and last > 64
    assert set(rows) == {qseries.BLOCK_ELEMENTS // columns} == {3}
    # the last block holds the last stop
    assert sum(rows) - 3 < last <= sum(rows)


@pytest.mark.parametrize("t", [0.3 + 1.1j, 0.0 + 1.5j, -0.5 + 0.87j, 0.45 + 0.9j])
def test_passes_in_F_run_one_block(passes, orders, thetas, cold_records, t):
    """At tau in F, every pass of at most 64 points runs exactly one block,
    of at most its largest stopping j + 2 rows: the one pe pass of the zeta
    route, of orders 2n - 1 and -1; and so does the one pass of the
    Bernoulli route, of orders 1 and 2n + 1, at pairs of at most 70 points.
    D^-(x), R^-(x), the Machide triple and Prop. 3.1 run theta passes, one
    per call or x."""
    tau = TauPoint(t)
    for p, q in PIN_PQ + [(5, 3), (8, 3), (11, 4)]:
        pair = CoprimePair(p, q)
        for n in (1, 2, 3):
            symbols.elliptic_apostol_sum(n, pair, tau, Route.ZETA_DERIVATIVE)
        x = 0.3 / (2 * p)
        symbols.generating_D(pair, tau, x)
        symbols.generating_R(pair, tau, x)
    small = [(rows, last) for columns, rows, last in passes if columns <= 64]
    # one zeta-route pass per call at the six pairs of at most 64 points
    assert len(small) == 6 * 3
    passes.clear()
    orders.clear()
    for p, q in [(2, 1), (3, 2), (7, 4), (5, 3), (8, 3), (11, 4)]:
        for n in (1, 2, 3):
            symbols.elliptic_apostol_sum(n, CoprimePair(p, q), tau, Route.BERNOULLI_PRODUCT)
    thetas.clear()
    symbols.machide_reciprocity_residuals(CoprimePair(5, 3), 0.013, 0.007, tau)
    symbols.proposition31_residual(CoprimePair(5, 3), 0.04, tau)
    # one B_m pass per route call, and one theta pass each for the
    # Machide triple and Prop. 3.1
    assert len(orders) == 6 * 3 and len(passes) == len(orders) and thetas == [70, 51]
    assert all(len(ms) == 2 and columns <= 70 for ms, columns in orders)
    for rows, last in small + [(rows, last) for _, rows, last in passes]:
        assert len(rows) == 1 and rows[0] <= last + 2


@pytest.fixture
def kernels(monkeypatch):
    """Records every call of a point-series kernel, where it is read by
    name in qseries or symbols: its name, its orders and its points."""
    seen = []
    for name in ("_p_deriv_series", "_bernoulli_series", "_b_series", "_theta_pass"):
        run = getattr(qseries, name)

        def spy(*args, run=run, name=name):
            orders = args[0] if name in ("_p_deriv_series", "_bernoulli_series") else None
            points = args[1] if orders is not None else args[0]
            seen.append((name, orders, len(points)))
            return run(*args)

        monkeypatch.setattr(qseries, name, spy)
        if hasattr(symbols, name):
            monkeypatch.setattr(symbols, name, spy)
    return seen


@pytest.mark.parametrize("t", [0.3 + 1.1j, 0.3 + 0.06j])
def test_routes_run_one_pass_of_disjoint_kernels(passes, kernels, t):
    """Each route of D^-_{2n} runs one series pass over the half points:
    the zeta route one pe pass of orders (2n - 1, -1), the Bernoulli route
    one Lambert B_m pass of orders (1, 2n + 1), and neither calls the
    other's kernel, the B_1 series of zeta (`_b_series`) or a theta pass;
    on F and at 0.3 + 0.06i, where both run at tau' in F."""
    tau = TauPoint(t)
    for p, q in [(7, 4), (23, 14), (8, 11)]:
        h = (p * p - 1 + (3 if p % 2 == 0 else 0)) // 2
        for n in (1, 3):
            for route, kernel, orders in [
                    (Route.ZETA_DERIVATIVE, "_p_deriv_series", (2 * n - 1, -1)),
                    (Route.BERNOULLI_PRODUCT, "_bernoulli_series", (1, 2 * n + 1))]:
                passes.clear()
                kernels.clear()
                symbols.elliptic_apostol_sum(n, CoprimePair(p, q), tau, route)
                assert kernels == [(kernel, orders, h)], (p, q, n, route)
                assert [columns for columns, _, _ in passes] == [h]


@pytest.mark.parametrize("t", [0.27 + 0.9j, 0.5 + 0.87j, 0.0 + 1.0j, 0.3 + 1.1j])
def test_two_order_first_block_holds_the_series(passes, t):
    """On F, at p = 23, whose half points are 264, and n = 3, each route's
    two-order pass runs one block, which holds every column's series: the
    block's rows are cut by BLOCK_ELEMENTS per order, 15 here, not by the
    528 columns of the two orders, which would cut it to 7."""
    assert qseries.BLOCK_ELEMENTS // 264 == 15
    for route in Route:
        passes.clear()
        symbols.elliptic_apostol_sum(3, CoprimePair(23, 14), TauPoint(t), route)
        (columns, rows, last), = passes
        assert columns == 264 and len(rows) == 1 and last <= rows[0] <= 15


#: D^-_{2n}(1, 3; tau) by route and n as the sums over the division points
#: of every p computed it, the empty sum through the route's reduction and
#: constant: signed zeros, err 0
EMPTY_SUMS = {
    0.3 + 1.1j: {"zeta_derivative": ["(-0+0j)", "(-0+0j)", "(-0+0j)"],
                 "bernoulli_product": ["0j", "(-0+0j)", "0j"]},
    0.2 + 0.3j: {"zeta_derivative": ["-0j", "(-0+0j)", "0j"],
                 "bernoulli_product": ["(-0+0j)", "(-0+0j)", "0j"]},
    0.1 + 0.06j: {"zeta_derivative": ["0j", "-0j", "-0j"],
                  "bernoulli_product": ["0j", "-0j", "(-0+0j)"]},
}


@pytest.fixture
def frames(monkeypatch):
    """Counts the `qseries._frame` calls, as symbols reads it by name."""
    seen = []
    run = qseries._frame

    def spy(*args):
        seen.append(len(args[0]))
        return run(*args)

    monkeypatch.setattr(qseries, "_frame", spy)
    monkeypatch.setattr(symbols, "_frame", spy)
    return seen


@pytest.mark.parametrize("t", sorted(EMPTY_SUMS, key=lambda t: -t.imag))
def test_empty_division_sum_runs_no_pass(passes, frames, t):
    """At p = 1 the division sums are empty: both routes and D^-(x) return
    their zero with err 0, its signed zeros as a sum over no points gave
    them, with no frame and no series pass, on F and off it."""
    tau = TauPoint(t)
    for route, reprs in EMPTY_SUMS[t].items():
        for n, want in zip((1, 2, 3), reprs):
            assert repr(symbols.elliptic_apostol_sum(n, CoprimePair(1, 3), tau, route).value) \
                == f"ComplexVal(value={want}, err=0.0)"
    assert repr(symbols.generating_D(CoprimePair(1, 3), tau, 0.2)) == \
        "ComplexVal(value=(-0+0j), err=0.0)"
    assert passes == [] and frames == []


# ---------------------------------------------------------------------------
# Several sums from one product and one segmented sum
# ---------------------------------------------------------------------------


def _sum_outcomes(call):
    """The reprs of a list of sums, or the error type and message raised."""
    try:
        return [repr(v) for v in call()]
    except (OverflowError, ValueError) as e:
        return [type(e).__name__, str(e)]


#: segments of factors a, b: ordinary ones, empty and single ones, one whose
#: products are finite but whose sum overflows inside `math.fsum`, and one
#: whose products leave binary64, so that its sum is not finite
_SEGMENTS = {
    "normal": lambda rng, n: (rng.normal(size=n) + 1j * rng.normal(size=n), rng.normal(size=n)),
    "empty": lambda rng, n: (np.zeros(0, dtype=complex), np.zeros(0)),
    "one": lambda rng, n: (np.array([0.3 - 2j]), np.array([-1.5])),
    "fsum_overflow": lambda rng, n: (np.full(3, 1.3e154 + 0j), np.full(3, 1.3e154)),
    "inf_product": lambda rng, n: (np.array([1e200 + 1j, 2.0]), np.array([1e200, 1.0])),
}


@pytest.mark.parametrize("order", [("normal", "empty", "one", "normal"),
                                   ("normal", "fsum_overflow", "inf_product"),
                                   ("one", "inf_product", "fsum_overflow", "normal")])
def test_segmented_sum_matches_one_sum_per_segment(order):
    """`qseries._fsums` over one product of joined factors equals `_fsum`
    of each segment's own product bit for bit, value and err; where a
    segment's sum leaves binary64, it raises what the first such segment's
    own sum raises."""
    rng = np.random.default_rng(len(order))
    pairs = []
    for name in order:
        (va, vb) = _SEGMENTS[name](rng, int(rng.integers(2, 300)))
        a = ComplexArray(va, 2.0**-52 * np.abs(va))
        b = ComplexArray(vb + 0j, rng.uniform(0.0, 1e-15, len(vb)))
        pairs.append((a, b))
    joined = symbols._joined([a for a, _ in pairs]) * symbols._joined([b for _, b in pairs])
    got = _sum_outcomes(lambda: qseries._fsums(joined, [len(a) for a, _ in pairs]))
    assert got == _sum_outcomes(lambda: [qseries._fsum(a * b) for a, b in pairs])
    if "fsum_overflow" in order:
        # the first segment that leaves binary64 names what went wrong
        first = "intermediate overflow" if order.index("fsum_overflow") < order.index(
            "inf_product") else "a value leaves"
        assert got[0] == "OverflowError" and got[1].startswith(first)
