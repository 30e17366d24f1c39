"""tau reduced to the fundamental domain F for the zeta and pe kernels: the
reduction, the err of the reduced kernels and of the E_2-free blocks against
mpmath, and the reduced zeta route against the unreduced Bernoulli route."""

import math
import warnings

import pytest

from ellded import qseries, symbols
from ellded.exact import CoprimePair
from ellded.qseries import (
    DEFAULT_POLICY,
    NonConvergenceError,
    SeriesPolicy,
    SlowNomeWarning,
    TauPoint,
    eisenstein,
    weierstrass_p_deriv_points,
    weierstrass_zeta_points,
)
from ellded.symbols import Route

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


@pytest.mark.parametrize("t", OUTSIDE_F + IN_F[:1] + IN_F[4:5])
def test_err_bounds_mpmath(t):
    mp = pytest.importorskip("mpmath")
    tau = TauPoint(t)
    zs = [x - y * t for x, y in POINTS]
    got = {k: weierstrass_p_deriv_points(k, zs, tau) for k in ORDERS}
    got["zeta"] = weierstrass_zeta_points(zs, tau)
    at = qseries._checked(tau, DEFAULT_POLICY)
    got["b"] = qseries._zeta_block(zs, at)
    got["pe+e2"] = qseries._pe_blocks(zs, 0, at)[1]
    with mp.workdps(30):
        refs = _references(mp, [mp.mpc(z.real, z.imag) for z in zs], mp.mpc(t.real, t.imag))
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
    at = qseries._checked(tau, DEFAULT_POLICY)
    got["b"] = qseries._zeta_block([z], at)[0]
    got["pe+e2"] = qseries._pe_blocks([z], 0, at)[1][0]
    with mp.workdps(30):
        ref = _references(mp, [mp.mpc(z.real, z.imag)], mp.mpc(t.real, t.imag))[0]
    for key, v in got.items():
        assert abs(v.value - ref[key]) <= v.err, (key, v, ref[key])


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
        with mp.workdps(30):
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
# The reduced zeta route against the unreduced Bernoulli route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t", [0.3 + 0.06j, -0.5 + 0.05j])
def test_reduced_zeta_route_against_bernoulli_route(t):
    tau = TauPoint(t)
    for n in range(1, 4):
        for p in (2, 3, 7, 13, 23):
            for q in {1, p - 1, (p + 1) // 2} - {0}:
                if math.gcd(p, q) != 1:
                    continue
                pair = CoprimePair(p, q)
                a = symbols.elliptic_apostol_sum(n, pair, tau, Route.ZETA_DERIVATIVE).value
                b = symbols.elliptic_apostol_sum(n, pair, tau, Route.BERNOULLI_PRODUCT).value
                assert abs(a.value - b.value) <= a.err + b.err, (n, p, q, a, b)
                # the reduced route's err is the smaller one
                assert a.err < b.err


def test_thm13_constant_with_e2_free_blocks():
    # Theorem 1.3's constant at a reduced tau: a reduced zeta or pe next to
    # E_2 at the caller's tau left a residual of ~1e-8 here
    pair, tau, x = CoprimePair(17, 11), TauPoint(-0.06 + 0.06j), 0.003
    v = (symbols.generating_D(pair, tau, x) + symbols.generating_D(CoprimePair(11, 17), tau, x)
         - symbols.generating_R(pair, tau, x) - symbols.expected_constant(pair, tau))
    assert abs(v.value) <= min(v.err, 1e-11)
