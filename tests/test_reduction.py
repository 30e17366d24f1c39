"""tau reduced to the fundamental domain F for the zeta and pe kernels, the
zeta route of the elliptic sum and R^-_{2n}: the reduction, the err of the
reduced kernels, of the kernels in F near lattice points away from the
origin cell, of the E_2-free blocks, of both reduced routes of the
elliptic sum and of the reduced R against mpmath at tau itself, the charge
of an error of tau' in the err of the Eisenstein series there, the reduced
zeta route against the Bernoulli route held at tau and against the zeta
route held at tau, the Bernoulli route held at tau against the reduced
one, the weight-m law of B_m with both sides held at their own tau, and a
pin of the reduced values.  A route held at tau is the package's
`symbols._route_sum` at the caller's own record."""

import cmath
import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellded import qseries, symbols
from ellded.exact import CoprimePair
from ellded.qseries import (
    DEFAULT_POLICY,
    ComplexVal,
    NonConvergenceError,
    SeriesPolicy,
    SlowNomeWarning,
    TauPoint,
    eisenstein,
    weierstrass_p_deriv_points,
    weierstrass_zeta_points,
)
from ellded.symbols import Route
from held_reference import bernoulli_points_at
import test_qseries
from test_blocks import PIN_PQ
from test_cache import _grid_values

pytestmark = pytest.mark.filterwarnings("ignore::ellded.qseries.SlowNomeWarning")

#: the closed F, its corners and edges included
IN_F = [1j, 2j, 0.5 + 1j, -0.5 + 1j, 0.5 + math.sqrt(3) / 2 * 1j, 0.3 + 1.1j,
        -0.45 + 0.9j, -0.4 + math.sqrt(0.84) * 1j, 0.0 + 20j]
#: Im tau 0.3, 0.11, 0.06 and 0.05, Re tau = +-0.5, |tau| = 1 (below and
#: beyond |Re tau| = 1/2) and Re tau far outside [-1/2, 1/2]
OUTSIDE_F = [0.2 + 0.3j, -0.35 + 0.11j, 0.3 + 0.06j, 0.1 + 0.05j, 0.5 + 0.06j,
             -0.5 + 0.3j, -0.4 + 0.9165j, 0.6 + 0.8j, 1.7 + 0.3j,
             -0.5 + 0.05j, 0.45 + 0.8j]


def test_identity_on_closed_F():
    for t in IN_F:
        assert qseries._reduction(t) is None, t


@pytest.mark.parametrize("t", [0.16183442887534927 + 0.986817925268177j,
                               -0.25361880391490776 + 0.9673042449512829j,
                               -0.47962597155374764 + 0.8774730351475899j])
def test_reduction_ends_on_the_arc(t):
    # tau on the unit arc whose |tau| and |-1/tau| both round below 1:
    # Cohen's loop inverted it back and forth forever, and every kernel
    # call at it hung
    assert abs(t) < 1.0 and abs(-1.0 / t) < 1.0
    assert qseries._reduction(t) is None
    tau = TauPoint(t)
    assert len(weierstrass_zeta_points([0.3 - 0.2 * t], tau)) == 1
    assert len(qseries.elliptic_bernoulli_points(2, [0.3], [0.2], tau)) == 1


@pytest.mark.parametrize("t", OUTSIDE_F)
def test_reduced_tau_in_F_and_its_bounds(t):
    mp = pytest.importorskip("mpmath")
    red = qseries._reduction(t)
    a, b, c, d = red.a, red.b, red.c, red.d
    assert a * d - b * c == 1
    tp = red.tau
    assert abs(tp.real) <= 0.5 + 1e-12 and abs(tp) >= 1 - 1e-12
    with mp.workdps(40):
        tau = mp.mpc(t.real, t.imag)
        m = c * tau + d
        assert abs(red.m - m) <= red.m_err * 2.0**-53 * abs(red.m)
        assert abs(tp - (a * tau + b) / m) <= red.dtau
        # E_2(tau) = m^-2 E_2(tau') + 2 pi i c / m and the weights' bounds
        for w in (1, 2, 7):
            v = red.weight(w)
            assert abs(v.value - m ** -w) <= v.err
        shift = red.e2_shift()
        assert abs(shift.value - 2j * mp.pi * c / m) <= shift.err
    e2, e2r = eisenstein(1, TauPoint(t)), eisenstein(1, TauPoint(red.tau))
    law = e2r * red.weight(2) + red.e2_shift()
    assert abs(law.value - e2.value) <= law.err + e2.err


def test_caller_tau_checked_and_capped():
    # the caller's tau is checked, warned about and rejected as unreduced,
    # once per public call
    slow = TauPoint(0.08j)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SlowNomeWarning)
        weierstrass_zeta_points([0.3 + 0.01j], slow)
        weierstrass_p_deriv_points(0, [0.3 + 0.01j], slow)
        weierstrass_p_deriv_points(1, [0.3 + 0.01j], slow)
    assert sum(issubclass(w.category, SlowNomeWarning) for w in caught) == 3
    for call in (weierstrass_zeta_points, lambda z, t, p: weierstrass_p_deriv_points(2, z, t, p)):
        with pytest.raises(ValueError, match="below the accepted bound"):
            call([0.3 + 0.01j], slow, SeriesPolicy(min_im_tau=0.1))
        # no series stops before its second term
        with pytest.raises(NonConvergenceError) as info:
            call([0.3 + 0.01j, 0.1], TauPoint(0.2 + 0.3j), SeriesPolicy(max_terms=1))
        assert info.value.partial.err == float("inf")
    with pytest.raises(qseries.LatticePointError, match="zeta pole: z = "):
        weierstrass_zeta_points([0.3, 2 - 3 * slow.tau], slow)


# ---------------------------------------------------------------------------
# err against mpmath
# ---------------------------------------------------------------------------

#: (x, y) of z = x - y tau: division points, a half period (where the odd
#: derivatives of pe vanish), a point far outside the cell (as q z is in
#: the division sums) and one near the pole at 0
POINTS = [(3 / 7, 6 / 7), (-0.45, 0.3), (0.0, 0.5), (2.3, -1.7), (0.05, 0.0)]
ORDERS = tuple(range(8))


def _dps(t: complex) -> int:
    """The mpmath digits of the theta_1 references at tau = t: 50, and one
    more per unit of 1/Im tau.  Near a half period of a small Im tau their
    log-derivatives cancel ~1.2 digits per unit of 1/Im tau, ~25 at
    Im tau = 0.05, where 30 digits left pe'' at z = 1/2 wrong in its tenth
    digit, 7,755 times err off."""
    return 50 + math.ceil(1 / t.imag)


def _references(mp, zs, tau, orders=ORDERS):
    """zeta, pe^(k) for k in `orders` (ascending, from 0), b = zeta - E_2 z
    and pe + E_2 at each z of zs, as mpmath numbers, from theta_1 with nome
    e^{i pi tau} at the unreduced tau.  By
    sigma(z) = e^{E_2 z^2/2} theta_1(pi z) / (pi theta_1'(0)),
    b = pi (log theta_1)'(pi z), pe + E_2 = -pi^2 (log theta_1)''(pi z) and
    pe^(k) = -pi^(k+2) (log theta_1)^(k+2)(pi z) for k >= 1; the Taylor
    coefficients l_r of log theta_1(pi z + h) follow from theta_1's, a_r,
    by r l_r a_0 = r a_r - sum_{i<r} i l_i a_{r-i}."""
    nome = mp.exp(1j * mp.pi * tau)
    q = mp.exp(2j * mp.pi * tau)
    e2 = mp.pi**2 / 3 * (1 - 24 * mp.nsum(lambda n: n * q**n / (1 - q**n), [1, mp.inf]))
    top = orders[-1] + 2
    refs = []
    for z in zs:
        a = [mp.jtheta(1, mp.pi * z, nome, r) / mp.factorial(r) for r in range(top + 1)]
        log = [None]
        for r in range(1, top + 1):
            log.append((r * a[r] - sum(i * log[i] * a[r - i] for i in range(1, r))) / (r * a[0]))
        # the rth derivative of log theta_1 is r! l_r
        b = mp.pi * log[1]
        pe_e2 = -mp.pi**2 * 2 * log[2]
        out = {"zeta": b + e2 * z, "b": b, "pe+e2": pe_e2, 0: pe_e2 - e2}
        for k in orders[1:]:
            out[k] = -mp.pi ** (k + 2) * mp.factorial(k + 2) * log[k + 2]
        refs.append(out)
    return refs


#: (tau, points): POINTS at tau off F and on F, the half period 1/2 at
#: 0.05i, where the references cancel most, and a point in F 6e-4 from the
#: lattice point -5 tau, where zeta read 7.2 times its err while the
#: kernels took the x and y of the decomposition of z as exact on F
ERR_BOUND_CASES = ([(t, POINTS) for t in OUTSIDE_F + IN_F[:1] + IN_F[4:5]]
                   + [(0.05j, [(0.5, 0.0)]),
                      (-0.1166967753952336 + 1.8058395980904347j,
                       [(0.000606964196382398, 5.000119024394501)])])


@pytest.mark.parametrize("t, points", ERR_BOUND_CASES, ids=[str(t) for t, _ in ERR_BOUND_CASES])
def test_err_bounds_mpmath(t, points):
    mp = pytest.importorskip("mpmath")
    tau = TauPoint(t)
    zs = [x - y * t for x, y in points]
    got = {k: weierstrass_p_deriv_points(k, zs, tau) for k in ORDERS}
    got["zeta"] = weierstrass_zeta_points(zs, tau)
    with mp.workdps(_dps(t)):
        refs = _references(mp, [mp.mpc(z.real, z.imag) for z in zs], mp.mpc(t.real, t.imag))
    for i, (z, ref) in enumerate(zip(zs, refs)):
        for key, vals in got.items():
            v = vals[i]
            assert abs(v.value - ref[key]) <= v.err, (key, z, v, ref[key])


def _fails(oracle, *args) -> bool:
    """Whether the oracle test fails on the given arguments."""
    try:
        oracle(*args)
    except AssertionError:
        return True
    return False


def _a_tenth_of_err(monkeypatch, name):
    """`qseries.<name>` with the err of its every result scaled by 0.1."""
    run = getattr(qseries, name)

    def tenth(*args):
        v = run(*args)
        return type(v)(v.value, 0.1 * v.err)

    monkeypatch.setattr(qseries, name, tenth)


#: tau in the closed F: |Re tau| <= 1/2, |tau| >= 1, Im tau up to 1 above
#: the arc
_taus_in_F = st.builds(
    lambda re, up: complex(re, math.sqrt(1 - re * re) + up),
    st.floats(-0.5, 0.5), st.floats(0.0, 1.0),
).filter(lambda t: qseries._reduction(t) is None)

#: a point within 1e-4 to 1e-1 of the lattice point a + b tau, |a|, |b| <= 5,
#: as (a, b, distance, angle)
_near_lattice = st.tuples(st.integers(-5, 5), st.integers(-5, 5),
                          st.floats(math.log(1e-4), math.log(1e-1)).map(math.exp),
                          st.floats(0.0, 2 * math.pi))


@given(t=_taus_in_F, near=st.lists(_near_lattice, min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_kernels_near_lattice_err_in_F(t, near):
    # zeta and pe^(k), k = 0..3, on F near lattice points off the origin
    # cell, where the steep functions amplify the rounding of the
    # decomposition z = x - y tau, which err charges on F as off it
    mp = pytest.importorskip("mpmath")
    tau = TauPoint(t)
    zs = [a + b * t + r * cmath.exp(1j * angle) for a, b, r, angle in near]
    got = {k: weierstrass_p_deriv_points(k, zs, tau) for k in range(4)}
    got["zeta"] = weierstrass_zeta_points(zs, tau)
    with mp.workdps(_dps(t)):
        refs = _references(mp, [mp.mpc(z.real, z.imag) for z in zs], mp.mpc(t.real, t.imag),
                           (0, 1, 2, 3))
    for i, (z, ref) in enumerate(zip(zs, refs)):
        for key, vals in got.items():
            v = vals[i]
            assert abs(v.value - ref[key]) <= v.err, (key, z, v, ref[key])


@pytest.mark.parametrize("t", [0.3j, 0.3 + 0.06j, 1j, 0.2 + 1.1j])
def test_snapped_point_err_mpmath(t):
    # y = 1 - 1e-13 is snapped to 1 before the reduction, as the kernels
    # snap it at tau; the frame counts the shift in err, on F as well as
    # at a reduced tau
    mp = pytest.importorskip("mpmath")
    tau, z = TauPoint(t), 0.3 - (1 - 1e-13) * t
    got = {k: weierstrass_p_deriv_points(k, [z], tau)[0] for k in ORDERS}
    got["zeta"] = weierstrass_zeta_points([z], tau)[0]
    with mp.workdps(_dps(t)):
        ref = _references(mp, [mp.mpc(z.real, z.imag)], mp.mpc(t.real, t.imag))[0]
    for key, v in got.items():
        assert abs(v.value - ref[key]) <= v.err, (key, v, ref[key])


#: (tau, dtau, p): the cases of the pe^(-1) oracle, on F and held off F,
#: at tau itself, whose records move tau by dtau in eight directions, and
#: the p whose half division points join the grid
PE_MINUS_ONE_CASES = [(0.25 + 1.1j, 0.0, (2, 3, 4, 7, 12, 23)),
                      (0.5 + math.sqrt(3) / 2 * 1j, 2.0**-43, (23,)),
                      (-0.2 + 0.3j, 2.0**-43, (7, 12)),
                      (0.3 + 0.06j, 2.0**-40, (3,))]


@pytest.mark.parametrize("t, dtau, ps", PE_MINUS_ONE_CASES,
                         ids=[str(c[0]) for c in PE_MINUS_ONE_CASES])
def test_pe_minus_one_err_mpmath(t, dtau, ps):
    """Order -1 of the pe family (`qseries._p_deriv_series`), pe^(-1) =
    -(zeta - E_2 z), within its err of -b = -pi (log theta_1)'(pi z) by
    `mpmath.jtheta` at tau: at the kernel grid, at POINTS, and at the half
    division points x = lam/p, y = -mu/p of the zeta route, whose y below
    -1/2, 6/7 and -1.7 take the quasi-period step y -> y - rint(y); on F
    and held off F, from records of tau moved by dtau that carry it."""
    mp = pytest.importorskip("mpmath")
    grid = [*test_qseries.TestKernelErrAgainstMpmath.GRID, *POINTS]
    for p in ps:
        lam, mu, _ = symbols._half_division_points(p)
        grid += zip(lam / p, -mu / p)
    x, y = (np.array(c) for c in zip(*grid))
    with mp.workdps(_dps(t)):
        mt = mp.mpc(t.real, t.imag)
        refs = _references(mp, [mp.mpf(a) - mp.mpf(b) * mt for a, b in grid], mt, (0,))
    for j in range(8) if dtau else [0]:
        at = qseries._Checked(t + dtau * cmath.exp(1j * math.pi * j / 4),
                              DEFAULT_POLICY.tol, DEFAULT_POLICY.max_terms, dtau)
        v, = qseries._orders(qseries._p_deriv_series((-1,), x, y, at, (0 * x, 0 * y)))
        for i, ref in enumerate(refs):
            assert abs(v.value[i] + ref["b"]) <= v.err[i], (grid[i], t, j, v[i], -ref["b"])


@pytest.mark.parametrize("t", [0.3 + 1.1j, 0.2 + 0.3j, 0.3 + 0.06j])
def test_elliptic_apostol_sum_err_mpmath(t):
    # D^-_{2n}(p, q) by both routes against its defining sum over the
    # p-division points z = (lam + mu tau)/p of the theta_1 references,
    # 1/((2 pi i)^2 p (2n)!) sum zeta^(2n)(z) (b(q z) + 2 pi i q mu/p), with
    # zeta^(2n) = -pe^(2n-1); only the orders that n = 1, 2 need
    mp = pytest.importorskip("mpmath")
    tau = TauPoint(t)
    for p, q in [(2, 1), (3, 2), (5, 3)]:
        points = [(lam, mu) for lam in range(p) for mu in range(p) if (lam, mu) != (0, 0)]
        with mp.workdps(_dps(t)):
            mt = mp.mpc(t.real, t.imag)
            zs = [(lam + mu * mt) / p for lam, mu in points]
            pe = _references(mp, zs, mt, (0, 1, 3))
            bracket = [r["b"] + 2j * mp.pi * q * mu / p
                       for r, (_, mu) in zip(_references(mp, [q * z for z in zs], mt, (0,)), points)]
            refs = {n: -mp.fsum(r[2 * n - 1] * b for r, b in zip(pe, bracket))
                    / ((2j * mp.pi) ** 2 * p * mp.factorial(2 * n)) for n in (1, 2)}
        for n, ref in refs.items():
            for route in Route:
                d = symbols.elliptic_apostol_sum(n, CoprimePair(p, q), tau, route).value
                assert abs(d.value - ref) <= d.err, (n, p, q, route, d, ref)


# ---------------------------------------------------------------------------
# The reduced routes against the routes held at tau
# ---------------------------------------------------------------------------


def _bernoulli_route_held(n, pair, at):
    """D^-_{2n}(p, q; tau) by the Bernoulli route summed at the record `at`
    itself, unreduced, times the route's constant."""
    p = pair.p
    return symbols._route_sum(Route.BERNOULLI_PRODUCT, n, pair, at) * (
        -(qseries.TWO_PI_I ** (2 * n)) * p ** (2 * n - 1) / math.factorial(2 * n + 1))


@pytest.mark.parametrize("t", [0.3 + 0.06j, -0.5 + 0.05j])
def test_reduced_zeta_route_against_bernoulli_route(t):
    # the reduced zeta route against the Bernoulli route held at tau, whose
    # factors run at the caller's own record, unreduced
    tau = TauPoint(t)
    at = qseries._checked(tau, DEFAULT_POLICY)
    for n in range(1, 4):
        for p in (2, 3, 7, 13, 23):
            for q in {1, p - 1, (p + 1) // 2} - {0}:
                if math.gcd(p, q) != 1:
                    continue
                pair = CoprimePair(p, q)
                a = symbols.elliptic_apostol_sum(n, pair, tau, Route.ZETA_DERIVATIVE).value
                b = _bernoulli_route_held(n, pair, at)
                assert abs(a.value - b.value) <= a.err + b.err, (n, p, q, a, b)
                # the reduced route's err is the smaller one
                assert a.err < b.err


@pytest.mark.parametrize("t", [0.2 + 0.3j, -0.35 + 0.11j, 0.6 + 0.8j, 1.7 + 0.3j])
def test_zeta_route_held_at_tau(t):
    # the zeta route's sum at the caller's own record off F, unreduced,
    # against `elliptic_apostol_sum`, which sums it at tau' in F
    tau = TauPoint(t)
    at = qseries._checked(tau, DEFAULT_POLICY)
    for n in range(1, 4):
        for p, q in [(3, 2), (7, 4), (13, 7)]:
            pair = CoprimePair(p, q)
            held = symbols._route_sum(Route.ZETA_DERIVATIVE, n, pair, at) * (
                1.0 / ((qseries.TWO_PI_I**2).real * p * math.factorial(2 * n)))
            d = symbols.elliptic_apostol_sum(n, pair, tau).value
            assert abs(held.value - d.value) <= held.err + d.err, (n, p, q, held, d)


@pytest.mark.parametrize("t", [0.2 + 0.3j, -0.35 + 0.11j, 0.6 + 0.8j, 1.7 + 0.3j])
def test_bernoulli_route_held_at_tau(t):
    # the Bernoulli route with its B_m factors at the caller's own record
    # off F, unreduced, against `elliptic_apostol_sum`, whose factors run
    # at tau' in F, each times (c tau + d)^-m
    tau = TauPoint(t)
    at = qseries._checked(tau, DEFAULT_POLICY)
    for n in range(1, 4):
        for p, q in [(3, 2), (7, 4), (13, 7)]:
            pair = CoprimePair(p, q)
            held = _bernoulli_route_held(n, pair, at)
            d = symbols.elliptic_apostol_sum(n, pair, tau, Route.BERNOULLI_PRODUCT).value
            assert abs(held.value - d.value) <= held.err + d.err, (n, p, q, held, d)


def test_thm13_constant_with_e2_free_blocks():
    # Theorem 1.3's constant at a reduced tau: a reduced zeta or pe next to
    # E_2 at the caller's tau left a residual of ~1e-8 here
    pair, tau, x = CoprimePair(17, 11), TauPoint(-0.06 + 0.06j), 0.003
    v = (symbols.generating_D(pair, tau, x) + symbols.generating_D(CoprimePair(11, 17), tau, x)
         - symbols.generating_R(pair, tau, x) - symbols.expected_constant(pair, tau))
    assert abs(v.value) <= min(v.err, 1e-11)


# ---------------------------------------------------------------------------
# R^-_{2n} and the zeta route at tau reduced to F against mpmath at tau
# ---------------------------------------------------------------------------


def _mp_eisenstein(mp, k, tau, deriv=0):
    """E_{2k}(tau), or its deriv-th tau-derivative, in the package's
    normalisation
    -(2 pi i)^{2k} B_{2k}/(2k)! + (2 (2 pi i)^{2k}/(2k-1)!) sum sigma_{2k-1}(m) q^m,
    from its q-expansion summed in mpmath at tau itself, up to the m past
    which every term is below 1e-40 of the term bound m^{2k+2} |q|^m."""
    q = mp.exp(2j * mp.pi * tau)
    log_aq = float(mp.log(abs(q)))
    count = 10
    while (2 * k + 2) * math.log(count) + count * log_aq > math.log(1e-40):
        count += 1
    sigma = [0] * (count + 1)
    for d in range(1, count + 1):
        for m in range(d, count + 1, d):
            sigma[m] += d ** (2 * k - 1)
    terms, qm = [], mp.mpc(1)
    for m in range(1, count + 1):
        qm *= q
        terms.append(sigma[m] * qm * (2j * mp.pi * m) ** deriv)
    two_pi_i = 2j * mp.pi
    pref = 2 * two_pi_i ** (2 * k) / mp.factorial(2 * k - 1)
    if deriv:
        return pref * mp.fsum(terms)
    return -two_pi_i ** (2 * k) * mp.bernoulli(2 * k) / mp.factorial(2 * k) + pref * mp.fsum(terms)


@pytest.mark.parametrize("t", [1j, 0.5 + math.sqrt(3) / 2 * 1j, -0.3 + 1.1j, 2j])
def test_eisenstein_charge_of_dtau_mpmath(t):
    # E_2k and dE_2k/dtau at tau moved by delta in eight directions, from a
    # record whose dtau is delta, against mpmath at tau itself: the charge
    # of an error of tau' that R, zeta and pe at a reduced tau' read in the
    # err of each Eisenstein value, through the error of q (`_nome_err`)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        mt = mp.mpc(t.real, t.imag)
        refs = {(k, d): _mp_eisenstein(mp, k, mt, d) for k in range(1, 10) for d in (0, 1)}
    for delta in (1e-14, 1e-13, 1e-12):
        for j in range(8):
            at = qseries._Checked(t + delta * cmath.exp(1j * math.pi * j / 4),
                                  DEFAULT_POLICY.tol, DEFAULT_POLICY.max_terms, delta)
            for k in range(1, 10):
                got = qseries._eisenstein(k, at), qseries._eisenstein_tau_derivative(k, at)
                for d, v in enumerate(got):
                    assert abs(v.value - refs[k, d]) <= v.err, (k, d, delta, j, v, refs[k, d])


#: (series, oracle, arguments at which the oracle catches that series' err
#: scaled by 0.1): pe^(k) at 1j, where the oracle's worst ratio is above
#: 0.1 of err, and at the point 6e-4 from a lattice point in F that
#: `test_kernels_near_lattice_err_in_F` found; b = zeta - E_2 z at that
#: point, where zeta reads 0.24 of its err and 2.4 with b's scaled; both at
#: a snapped y; pe^(-1) on F, where it reads 0.2 of its err, and under a
#: moved tau; and E_2k against its q-expansion and under a moved tau
TENTH_OF_ERR_CASES = [
    ("_p_deriv_series", test_err_bounds_mpmath, (1j, POINTS)),
    ("_p_deriv_series", test_err_bounds_mpmath, ERR_BOUND_CASES[-1]),
    ("_p_deriv_series", test_snapped_point_err_mpmath, (0.3j,)),
    ("_b_series", test_err_bounds_mpmath, ERR_BOUND_CASES[-1]),
    ("_b_series", test_snapped_point_err_mpmath, (1j,)),
    ("_p_deriv_series", test_pe_minus_one_err_mpmath, PE_MINUS_ONE_CASES[0]),
    ("_p_deriv_series", test_pe_minus_one_err_mpmath, PE_MINUS_ONE_CASES[1]),
    ("_eisenstein", test_qseries.TestEisenstein().test_err_bounds_mpmath_reference,
     (0.3 + 1.1j,)),
    ("_eisenstein", test_eisenstein_charge_of_dtau_mpmath, (1j,)),
    ("_eisenstein", test_eisenstein_charge_of_dtau_mpmath, (2j,)),
]


@pytest.mark.parametrize("name, oracle, args", TENTH_OF_ERR_CASES)
def test_oracles_catch_a_tenth_of_err(monkeypatch, name, oracle, args):
    pytest.importorskip("mpmath")
    _a_tenth_of_err(monkeypatch, name)
    assert _fails(oracle, *args)


def _mp_reciprocity_rhs(mp, n, p, q, tau):
    """R^-_{2n}(p, q; tau) by the closed form of `reciprocity_rhs`, from the
    mpmath Eisenstein series at tau itself."""
    e = [None] + [_mp_eisenstein(mp, k, tau) for k in range(1, n + 2)]
    de = _mp_eisenstein(mp, n, tau, deriv=1)
    bracket = (mp.fsum(e[j] * e[n + 1 - j] * p ** (2 * j) * q ** (2 * n + 2 - 2 * j)
                       for j in range(1, n + 1))
               - e[n + 1] * (p ** (2 * n + 2) + q ** (2 * n + 2)) - (2 * n + 1) * e[n + 1])
    return (-bracket / ((2j * mp.pi) ** 2 * p * q)
            - (p ** (2 * n - 1) * q + p * q ** (2 * n - 1)) / (4j * mp.pi * n) * de)


@pytest.mark.parametrize("t", [0.2 + 0.3j, 0.3 + 0.06j, -0.5 + 0.05j])
def test_reciprocity_rhs_err_mpmath(t):
    # R at tau reduced to F, times m^-(2n+2), against its closed form at
    # tau itself; (1, 1) is where the closed form cancels to ~0
    mp = pytest.importorskip("mpmath")
    tau = TauPoint(t)
    with mp.workdps(40):
        mt = mp.mpc(t.real, t.imag)
        for n in range(1, 5):
            for p, q in [(1, 1), (3, 2), (5, 3), (13, 8)]:
                r = symbols.reciprocity_rhs(n, CoprimePair(p, q), tau)
                ref = _mp_reciprocity_rhs(mp, n, p, q, mt)
                assert abs(r.value - ref) <= r.err, (n, p, q, r, ref)


def _mp_zeta_route(mp, n, p, q, t):
    """D^-_{2n}(p, q; tau) by its defining sum over the p-division points at
    tau itself, from the theta_1 references (as in
    `test_elliptic_apostol_sum_err_mpmath`)."""
    points = [(lam, mu) for lam in range(p) for mu in range(p) if (lam, mu) != (0, 0)]
    zs = [(lam + mu * t) / p for lam, mu in points]
    pe = _references(mp, zs, t, (0, 2 * n - 1))
    bracket = [r["b"] + 2j * mp.pi * q * mu / p
               for r, (_, mu) in zip(_references(mp, [q * z for z in zs], t, (0,)), points)]
    return (-mp.fsum(r[2 * n - 1] * b for r, b in zip(pe, bracket))
            / ((2j * mp.pi) ** 2 * p * mp.factorial(2 * n)))


#: tau off F: Re tau in [-1, 1], Im tau log-uniform in [0.05, 0.9]
_taus_off_F = st.builds(
    complex, st.floats(-1.0, 1.0),
    st.floats(math.log(0.05), math.log(0.9)).map(math.exp),
).filter(lambda t: qseries._reduction(t) is not None)
_pairs = st.sampled_from([(1, 1), (2, 1), (3, 2), (4, 3), (5, 2), (5, 3)])


@given(t=_taus_off_F, n=st.integers(1, 4), pq=_pairs)
@settings(max_examples=25, deadline=None)
def test_reduced_reciprocity_rhs_err_random_tau(t, n, pq):
    mp = pytest.importorskip("mpmath")
    r = symbols.reciprocity_rhs(n, CoprimePair(*pq), TauPoint(t))
    with mp.workdps(40):
        ref = _mp_reciprocity_rhs(mp, n, *pq, mp.mpc(t.real, t.imag))
    assert abs(r.value - ref) <= r.err, (r, ref)


@given(t=_taus_off_F, n=st.integers(1, 2), pq=_pairs)
@settings(max_examples=10, deadline=None)
def test_reduced_zeta_route_err_random_tau(t, n, pq):
    mp = pytest.importorskip("mpmath")
    d = symbols.elliptic_apostol_sum(n, CoprimePair(*pq), TauPoint(t)).value
    with mp.workdps(_dps(t)):
        ref = _mp_zeta_route(mp, n, *pq, mp.mpc(t.real, t.imag))
    assert abs(d.value - ref) <= d.err, (d, ref)


@given(t=_taus_off_F, n=st.integers(1, 2), pq=_pairs)
@settings(max_examples=10, deadline=None)
def test_reduced_bernoulli_route_err_random_tau(t, n, pq):
    # the Bernoulli route, summed as a whole at tau' in F and times
    # m^-(2n+2), against the defining zeta sum at tau itself
    mp = pytest.importorskip("mpmath")
    d = symbols.elliptic_apostol_sum(n, CoprimePair(*pq), TauPoint(t), Route.BERNOULLI_PRODUCT).value
    with mp.workdps(_dps(t)):
        ref = _mp_zeta_route(mp, n, *pq, mp.mpc(t.real, t.imag))
    assert abs(d.value - ref) <= d.err, (d, ref)


#: (n, p, q, tau) off F where the reduced Bernoulli route reads its error
#: at about 0.17 of its err, so that a tenth of that err fails the oracle
BERNOULLI_ROUTE_TIGHT = [(1, 3, 1, 0.4154528436859902 + 0.2j),
                         (2, 4, 1, 0.2799461455233637 + 0.8j)]


@pytest.mark.parametrize("n, p, q, t", BERNOULLI_ROUTE_TIGHT)
def test_reduced_bernoulli_route_err_mpmath(n, p, q, t):
    mp = pytest.importorskip("mpmath")
    d = symbols.elliptic_apostol_sum(n, CoprimePair(p, q), TauPoint(t),
                                     Route.BERNOULLI_PRODUCT).value
    with mp.workdps(_dps(t)):
        ref = _mp_zeta_route(mp, n, p, q, mp.mpc(t.real, t.imag))
    assert abs(d.value - ref) <= d.err, (d, ref)


@pytest.mark.parametrize("case", BERNOULLI_ROUTE_TIGHT)
def test_bernoulli_route_oracle_catches_a_tenth_of_err(monkeypatch, case):
    """D^-_{2n} with its err scaled by 0.1 fails the oracle of the reduced
    Bernoulli route."""
    pytest.importorskip("mpmath")
    run = symbols.elliptic_apostol_sum

    def tenth(*args):
        r = run(*args)
        return dataclasses.replace(r, value=ComplexVal(r.value.value, 0.1 * r.value.err))

    monkeypatch.setattr(symbols, "elliptic_apostol_sum", tenth)
    assert _fails(test_reduced_bernoulli_route_err_mpmath, *case)


#: (x, y) of a point z = x - y tau off the lattice: x and y in [-2, 2], not
#: both within 0.05 of an integer
_points_off_lattice = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(
    lambda xy: max(abs(v - round(v)) for v in xy) > 0.05)


@given(t=_taus_off_F, xys=st.lists(_points_off_lattice, min_size=1, max_size=3))
@settings(max_examples=15, deadline=None)
def test_reduced_kernels_err_random_tau(t, xys):
    # zeta and pe^(k), k = 0..3, at tau reduced to F: zeta and pe read E_2
    # at tau', whose err carries the error of tau'
    mp = pytest.importorskip("mpmath")
    tau = TauPoint(t)
    zs = [x - y * t for x, y in xys]
    got = {k: weierstrass_p_deriv_points(k, zs, tau) for k in range(4)}
    got["zeta"] = weierstrass_zeta_points(zs, tau)
    with mp.workdps(_dps(t)):
        refs = _references(mp, [mp.mpc(z.real, z.imag) for z in zs], mp.mpc(t.real, t.imag),
                           (0, 1, 2, 3))
    for i, (z, ref) in enumerate(zip(zs, refs)):
        for key, vals in got.items():
            v = vals[i]
            assert abs(v.value - ref[key]) <= v.err, (key, z, v, ref[key])


# ---------------------------------------------------------------------------
# The laws of B_m, both sides held at their own tau
# ---------------------------------------------------------------------------

#: tau with Re tau in [-1, 1] and Im tau in [0.05, 1.5]
_taus = st.builds(complex, st.floats(-1.0, 1.0), st.floats(0.05, 1.5))


def _assert_agree(a, b, what):
    for i in range(len(a)):
        assert abs(a[i].value - b[i].value) <= a[i].err + b[i].err, (what, i, a[i], b[i])


@given(t=_taus.filter(lambda t: qseries._reduction(t) is not None), m=st.integers(1, 7),
       xys=st.lists(_points_off_lattice, min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_bernoulli_weight_law_held(t, m, xys):
    # B_m(x, y; tau) = (c tau + d)^-m B_m(a x + b y, c x + d y; gamma tau)
    # with gamma from `_reduction`, the law the kernel reduces by: each side from the
    # series at its own record, the caller's and that of tau', which
    # carries the error of tau'; x' and y' carry the rounding of their
    # integer products and sums
    at = qseries._checked(TauPoint(t), DEFAULT_POLICY)
    red = qseries._reduction(t)
    x, y = (np.array(v) for v in zip(*xys))
    xr, yr = red.a * x + red.b * y, red.c * x + red.d * y
    arg_err = (2.0**-53 * (np.abs(red.a * x) + np.abs(red.b * y) + np.abs(xr)),
               2.0**-53 * (np.abs(red.c * x) + np.abs(red.d * y) + np.abs(yr)))
    lhs = bernoulli_points_at(m, x, y, at)
    rhs = bernoulli_points_at(m, xr, yr, red.checked(at), arg_err) * red.weight(m)
    _assert_agree(lhs, rhs, (m, t, xys))


@given(t=_taus, m=st.integers(1, 7), xys=st.lists(_points_off_lattice, min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_bernoulli_translation_law_held(t, m, xys):
    # B_m(x, y; tau) = B_m(x + y, y; tau + 1), each side from the series at
    # its own record; tau + 1 and x + y are each rounded once
    t1 = t + 1
    at = qseries._checked(TauPoint(t), DEFAULT_POLICY)
    at1 = qseries._checked(TauPoint(t1), DEFAULT_POLICY)._replace(dtau=2.0**-53 * abs(t1.real))
    x, y = (np.array(v) for v in zip(*xys))
    lhs = bernoulli_points_at(m, x, y, at)
    rhs = bernoulli_points_at(m, x + y, y, at1, (2.0**-53 * np.abs(x + y), 0.0))
    _assert_agree(lhs, rhs, (m, t, xys))


# ---------------------------------------------------------------------------
# The values that run at tau reduced to F, pinned
# ---------------------------------------------------------------------------

#: SHA-256 of `_reduced_value_reprs()`: the values, not the errs, of what
#: runs at tau reduced to F, the `reduced` list of the cache grid (zeta,
#: pe and R^-_{2n} off F) and the zeta-route sums of the pinned pairs at
#: 0.3+0.06i, with the bracket from the pe family's order -1 at the half
#: division points; their errs are bounded against mpmath above instead
REDUCED_VALUES_SHA256 = "57954def8cf8d427be579389697ba0c9b2fbac89f74c3b183a671fd5ef9c76aa"


def _reduced_value_reprs():
    """repr of each value of the reduced outputs, element by element."""
    vals = _grid_values()[1]
    tau = TauPoint(0.3 + 0.06j)
    vals += [symbols.elliptic_apostol_sum(n, CoprimePair(p, q), tau).value
             for n in range(1, 4) for p, q in PIN_PQ]
    out = []
    for v in vals:
        out += [repr(complex(x)) for x in np.atleast_1d(v.value)]
    return out


def test_reduced_values_pinned():
    reprs = _reduced_value_reprs()
    assert len(reprs) == 3 * (8 * 3 + 2 * 2) + 3 * 5
    assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == REDUCED_VALUES_SHA256
