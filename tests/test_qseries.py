"""q-series engine: Eisenstein series, Weierstrass functions, elliptic
Bernoulli functions and the lattice-sum oracles."""

import cmath
import copy
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellded import identities, qseries
from ellded.exact import CoprimePair, bernoulli_number
from ellded.identities import basis_rank
from ellded.qseries import (
    DEFAULT_POLICY,
    ComplexArray,
    ComplexVal,
    LatticePointError,
    NonConvergenceError,
    SeriesPolicy,
    SlowNomeWarning,
    TauPoint,
    eisenstein,
    eisenstein_normalized,
    eisenstein_tau_derivative,
    elliptic_bernoulli,
    elliptic_bernoulli_points,
    parse_tau,
    sigma_log_tau_derivative,
    weierstrass_p_deriv,
    weierstrass_p_deriv_points,
    weierstrass_zeta,
    weierstrass_zeta_deriv,
    weierstrass_zeta_points,
    zeta_odd,
)
from ellded.symbols import (
    MachideSpec,
    Route,
    elliptic_apostol_sum,
    expected_constant,
    generating_D,
    generating_R,
    machide_reciprocity_residuals,
    machide_sum,
    proposition31_constant_closed_form,
    proposition31_residual,
    reciprocity_rhs,
)

import loop_reference as ref
from held_reference import bernoulli_points_at
from lattice_reference import LatticeCutoff, kronecker_direct

TWO_PI_I = 2j * math.pi


class TestTauPoint:
    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValueError):
            TauPoint(1 - 1j)
        with pytest.raises(ValueError):
            TauPoint(0.5 + 0j)

    def test_nome(self):
        t = TauPoint(0.25 + 2j)
        assert abs(t.nome - cmath.exp(TWO_PI_I * (0.25 + 2j))) < 1e-15

    @pytest.mark.parametrize("tau", [complex(math.nan, 1), complex(math.inf, 1),
                                     complex(0, math.inf)])
    def test_non_finite_rejected(self, tau):
        with pytest.raises(ValueError, match="finite"):
            TauPoint(tau)

    def test_parse(self):
        assert parse_tau("0.3+1.1i").tau == 0.3 + 1.1j
        assert parse_tau("0+2i").tau == 2j
        with pytest.raises(ValueError):
            parse_tau("1.5")
        with pytest.raises(ValueError):
            parse_tau("abc+1i")

    @pytest.mark.parametrize("text, z", [
        ("0.3+1.1i", 0.3 + 1.1j), (" 0.3 + 1.1I ", 0.3 + 1.1j), ("-2i", -2j), ("0.5", 0.5),
        ("1e-3+2e1i", 0.001 + 20j), ("0.3+1.1j", 0.3 + 1.1j), ("inf+1i", complex(math.inf, 1)),
        ("1-infi", complex(1, -math.inf)), ("infinity+1i", complex(math.inf, 1))])
    def test_complex_literal_maps_only_the_unit(self, text, z):
        # the i of "inf" stays a letter
        assert qseries._parse_complex(text) == z

    def test_infinite_tau_literal_is_a_non_finite_tau(self):
        # not a literal that cannot be parsed
        with pytest.raises(ValueError, match="tau must be finite"):
            parse_tau("inf+1i")

    @pytest.mark.parametrize("text", ["abc+1i", "1+2", "1+i2", "", "1+2k"])
    def test_bad_complex_literal_rejected(self, text):
        with pytest.raises(ValueError, match="cannot parse complex number"):
            qseries._parse_complex(text)


def _mp_q_sums(mp, n, tau):
    """sum_k sigma_{2n-1}(k) q^k and its tau-derivative, 2 pi i k termwise,
    at mpmath's working precision, summed until a term is below 10^-(dps+5)
    of the sum."""
    q = mp.exp(2j * mp.pi * mp.mpc(tau.real, tau.imag))
    eps = mp.mpf(10) ** -(mp.mp.dps + 5)
    s, ds, qk, k = mp.mpf(0), mp.mpf(0), mp.mpf(1), 0
    while True:
        k += 1
        qk *= q
        term = sum(d ** (2 * n - 1) for d in range(1, k + 1) if k % d == 0) * qk
        s += term
        ds += 2j * mp.pi * k * term
        if k * abs(term) < eps * max(1, abs(s)):
            return s, ds


class TestEisenstein:
    def test_large_im_constant_term(self):
        # |q| ~ e^{-80 pi}; only the constant term 2 zeta(4) survives
        val = eisenstein(2, TauPoint(40j))
        assert abs(val.value - math.pi**4 / 45) < 1e-12

    def test_tau_shift_invariance(self):
        t1 = eisenstein(3, TauPoint(0.3 + 1.2j))
        t2 = eisenstein(3, TauPoint(1.3 + 1.2j))
        assert abs(t1.value - t2.value) <= 2 * (t1.err + t2.err) + 1e-13

    def test_weight6_vanishes_at_i(self):
        # modularity at the fixed point i forces E6(i) = -E6(i)
        assert abs(eisenstein(3, TauPoint(1j)).value) < 1e-10

    def test_normalized_constant(self):
        val = eisenstein_normalized(2, TauPoint(40j))
        assert abs(val.value - 1.0 / 240) < 1e-12

    def test_normalization_ratio(self):
        tau = TauPoint(0.17 + 0.93j)
        for n in (1, 2, 3):
            e = eisenstein(n, tau)
            g = eisenstein_normalized(n, tau)
            ratio = 2 * TWO_PI_I ** (2 * n) / math.factorial(2 * n - 1)
            assert abs(e.value - ratio * g.value) < 1e-9 * abs(e.value)

    @pytest.mark.parametrize("tau", [0.3 + 1.1j, 0.1 + 0.8j, -0.4 + 1.5j, 0.2 + 0.3j,
                                     -0.4 + 0.3j, 0.2 + 0.11j, 0.3 + 0.06j, -0.4 + 0.06j])
    def test_err_bounds_mpmath_reference(self, tau):
        # the q-expansion and its tau-derivative summed at 40 digits; err
        # must cover the final rounding of const + pref * s (of const + s for
        # G), and at small Im(tau) the rounding of the terms, which are far
        # larger than the sum and carry the error that q^k accumulates
        mpmath = pytest.importorskip("mpmath")
        with warnings.catch_warnings(), mpmath.workdps(40):
            warnings.simplefilter("ignore", SlowNomeWarning)
            for n in range(1, 9):
                s, ds = _mp_q_sums(mpmath, n, tau)
                pref = 2 * (2j * mpmath.pi) ** (2 * n) / mpmath.factorial(2 * n - 1)
                ref = 2 * mpmath.zeta(2 * n) + pref * s
                val = eisenstein(n, TauPoint(tau))
                assert abs(val.value - complex(ref)) <= val.err, (n, val, complex(ref))
                val = eisenstein_tau_derivative(n, TauPoint(tau))
                assert abs(val.value - complex(pref * ds)) <= val.err, (n, val, complex(pref * ds))
                b = bernoulli_number(2 * n)
                ref = -mpmath.mpf(b.numerator) / b.denominator / (4 * n) + s
                val = eisenstein_normalized(n, TauPoint(tau))
                assert abs(val.value - complex(ref)) <= val.err, (n, val, complex(ref))

    @given(n=st.integers(1, 8), re=st.floats(-0.5, 0.5),
           im=st.floats(math.log(0.06), math.log(1.5)).map(math.exp))
    @settings(max_examples=40, deadline=None)
    def test_err_bounds_mpmath_at_random_tau(self, n, re, im):
        """E_2n and dE_2n/dtau lie within err of their 30-digit sums at
        random tau, Im tau log-uniform down to 0.06."""
        mp = pytest.importorskip("mpmath")
        tau = complex(re, im)
        with warnings.catch_warnings(), mp.workdps(30):
            warnings.simplefilter("ignore", SlowNomeWarning)
            s, ds = _mp_q_sums(mp, n, tau)
            pref = 2 * (2j * mp.pi) ** (2 * n) / mp.factorial(2 * n - 1)
            for val, ref in ((eisenstein(n, TauPoint(tau)), 2 * mp.zeta(2 * n) + pref * s),
                             (eisenstein_tau_derivative(n, TauPoint(tau)), pref * ds)):
                assert abs(val.value - complex(ref)) <= val.err, (n, tau, val, complex(ref))

    def test_err_bound_honest(self):
        # tightening tol tenfold moves the value by less than the coarser err
        tau = TauPoint(0.1 + 0.8j)
        for n in (1, 2, 4):
            coarse = eisenstein(n, tau, SeriesPolicy(tol=1e-8))
            fine = eisenstein(n, tau, SeriesPolicy(tol=1e-9))
            assert abs(coarse.value - fine.value) <= coarse.err


class TestEisensteinTauDerivative:
    def test_vanishes_at_large_im(self):
        assert abs(eisenstein_tau_derivative(2, TauPoint(40j)).value) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_finite_difference(self, n):
        tau = 0.1 + 1.1j
        h = 1e-5 * max(1.0, abs(tau))
        d = eisenstein_tau_derivative(n, TauPoint(tau)).value
        fd = (eisenstein(n, TauPoint(tau + h)).value
              - eisenstein(n, TauPoint(tau - h)).value) / (2 * h)
        assert abs(d - fd) < 1e-6 * max(1.0, abs(d))

    def test_van_der_pol(self):
        tau = TauPoint(0.3 + 1.0j)
        de2 = eisenstein_tau_derivative(1, tau).value
        e2 = eisenstein(1, tau).value
        e4 = eisenstein(2, tau).value
        lhs = TWO_PI_I * de2
        rhs = -e2 * e2 + 5 * e4
        assert abs(lhs - rhs) < 1e-9 * abs(rhs)


class TestEllipticBernoulli:
    def test_odd_zero(self):
        for tau in (TauPoint(1j), TauPoint(0.2 + 1.3j)):
            assert abs(elliptic_bernoulli(1, 0.5, 0.0, tau).value) < 1e-12

    def test_lattice_rejected(self):
        with pytest.raises(LatticePointError):
            elliptic_bernoulli(1, 0.0, 0.0, TauPoint(1j))
        with pytest.raises(LatticePointError):
            elliptic_bernoulli(2, 1.0, 2.0, TauPoint(1j))

    def test_m0_is_one(self):
        assert elliptic_bernoulli(0, 0.3, 0.1, TauPoint(1j)).value == 1.0

    def test_b1_zeta_route(self):
        tau = TauPoint(0.2 + 1.3j)
        x, y = 0.3, 0.2
        b1 = elliptic_bernoulli(1, x, y, tau)
        z = x - y * tau.tau
        zeta = weierstrass_zeta(z, tau).value
        e2 = eisenstein(1, tau).value
        route = -(zeta - e2 * z) / TWO_PI_I + y
        assert abs(b1.value - route) < 1e-10

    def test_b2_sigma_route(self):
        # 2 pi i B_2(x, 0) = 2 d(log sigma)/dtau - E_2' x^2 - E_2 / (pi i),
        # with d(log sigma)/dtau built here from zeta and pe, as
        # sigma_log_tau_derivative reads B_2 itself
        tau = TauPoint(1.2j)
        x = 0.3
        b2 = elliptic_bernoulli(2, x, 0.0, tau)
        de2 = eisenstein_tau_derivative(1, tau).value
        e2 = eisenstein(1, tau).value
        b = weierstrass_zeta(x, tau).value - e2 * x
        pe = weierstrass_p_deriv(0, x, tau).value
        slt = (b * b - pe + 2 * e2) / (4j * math.pi) + de2 * x**2 / 2
        route = (2 * slt - de2 * x**2 - e2 / (1j * math.pi)) / TWO_PI_I
        assert abs(b2.value - route) < 1e-10

    def test_b3_kronecker_oracle(self):
        # B_k(x,y) = ((-1)^{k-1} k! / (2 pi i)^k) C_k(-x + y tau)
        tau = TauPoint(1j)
        x, y, k = 0.25, 0.4, 3
        b3 = elliptic_bernoulli(k, x, y, tau)
        ck = kronecker_direct(k, -x + y * tau.tau, tau, LatticeCutoff(400))
        route = (-1) ** (k - 1) * math.factorial(k) / TWO_PI_I**k * ck.value
        assert abs(b3.value - route) < 1e-8

    @given(
        x=st.floats(0.05, 0.95), y=st.floats(0.05, 0.95),
        m=st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_double_periodicity(self, x, y, m):
        tau = TauPoint(0.1 + 1.1j)
        base = elliptic_bernoulli(m, x, y, tau)
        sx = elliptic_bernoulli(m, x + 1, y, tau)
        assert abs(base.value - sx.value) <= 2 * (base.err + sx.err) + 1e-12
        if m == 1:
            sy = elliptic_bernoulli(m, x, y + 1, tau)
            assert abs(base.value - sy.value) <= 2 * (base.err + sy.err) + 1e-12

    def test_tau_shift(self):
        # the lattice of tau+1 equals the lattice of tau, with the division
        # point -x + y(tau+1) = -(x - y) + y tau
        a = elliptic_bernoulli(2, 0.3 - 0.4, 0.4, TauPoint(0.2 + 1.0j))
        b = elliptic_bernoulli(2, 0.3, 0.4, TauPoint(1.2 + 1.0j))
        assert abs(a.value - b.value) <= 2 * (a.err + b.err) + 1e-12
        # at y = 0 the function is literally tau -> tau+1 periodic
        c = elliptic_bernoulli(2, 0.3, 0.0, TauPoint(0.2 + 1.0j))
        d = elliptic_bernoulli(2, 0.3, 0.0, TauPoint(1.2 + 1.0j))
        assert abs(c.value - d.value) <= 2 * (c.err + d.err) + 1e-12


class TestWeierstrassZeta:
    def test_oddness(self):
        tau = TauPoint(1.1j)
        z = 0.3 + 0.2j
        a = weierstrass_zeta(z, tau)
        b = weierstrass_zeta(-z, tau)
        assert abs(a.value + b.value) < 1e-11

    def test_quasi_period_one(self):
        tau = TauPoint(0.3 + 1.2j)
        z = 0.21 + 0.13j
        diff = weierstrass_zeta(z + 1, tau).value - weierstrass_zeta(z, tau).value
        assert abs(diff - eisenstein(1, tau).value) < 1e-10

    def test_quasi_period_tau(self):
        tau = TauPoint(0.3 + 1.2j)
        z = 0.21 + 0.13j
        diff = weierstrass_zeta(z + tau.tau, tau).value - weierstrass_zeta(z, tau).value
        expected = eisenstein(1, tau).value * tau.tau - TWO_PI_I
        assert abs(diff - expected) < 1e-10

    def test_laurent_expansion_small_z(self):
        tau = TauPoint(1j)
        z = 0.05
        expansion = 1 / z - sum(
            eisenstein(n, tau).value * z ** (2 * n - 1) for n in range(2, 9)
        )
        assert abs(weierstrass_zeta(z, tau).value - expansion) < 1e-10

    def test_pole(self):
        with pytest.raises(LatticePointError):
            weierstrass_zeta(0, TauPoint(1j))
        with pytest.raises(LatticePointError):
            weierstrass_zeta(2 + 3j, TauPoint(1j))
        with pytest.raises(LatticePointError):
            weierstrass_zeta(1 + 1j, TauPoint(1j))


class TestWeierstrassP:
    def test_evenness(self):
        tau = TauPoint(0.2 + 1.1j)
        z = 0.31 + 0.17j
        a = weierstrass_p_deriv(0, z, tau)
        b = weierstrass_p_deriv(0, -z, tau)
        assert abs(a.value - b.value) < 1e-9

    def test_derivative_oddness(self):
        tau = TauPoint(0.2 + 1.1j)
        z = 0.31 + 0.17j
        a = weierstrass_p_deriv(1, z, tau)
        b = weierstrass_p_deriv(1, -z, tau)
        assert abs(a.value + b.value) < 1e-8

    def test_laurent_expansion_small_z(self):
        tau = TauPoint(1j)
        z = 0.05
        expansion = 1 / z**2 + sum(
            (2 * n - 1) * eisenstein(n, tau).value * z ** (2 * n - 2)
            for n in range(2, 9)
        )
        assert abs(weierstrass_p_deriv(0, z, tau).value - expansion) < 1e-9

    def test_zeta_deriv_link(self):
        tau = TauPoint(1.1j)
        z = 0.3 + 0.1j
        zd = weierstrass_zeta_deriv(1, z, tau)
        pe = weierstrass_p_deriv(0, z, tau)
        assert zd.value == -pe.value

    def test_zeta_first_derivative_finite_difference(self):
        tau = TauPoint(1.1j)
        z = 0.3 + 0.1j
        h = 1e-5
        fd = (weierstrass_zeta(z + h, tau).value
              - weierstrass_zeta(z - h, tau).value) / (2 * h)
        assert abs(weierstrass_zeta_deriv(1, z, tau).value - fd) < 1e-5

    def test_direct_lattice_oracle(self):
        # brute-force sum of the defining series of pe
        tau = TauPoint(0.1 + 1.2j)
        z = 0.37 + 0.21j
        R = 600
        ms = np.arange(-R, R + 1)
        M, N = np.meshgrid(ms, ms, indexing="ij")
        W = M * tau.tau + N
        mask = (M != 0) | (N != 0)
        Wm = np.where(mask, W, 1.0)
        terms = np.where(mask, 1.0 / (z - Wm) ** 2 - 1.0 / Wm**2, 0.0)
        oracle = 1.0 / z**2 + complex(terms.sum())
        val = weierstrass_p_deriv(0, z, tau).value
        assert abs(val - oracle) < 1e-6

    def test_pole(self):
        with pytest.raises(LatticePointError):
            weierstrass_p_deriv(0, 0, TauPoint(1j))


class TestKroneckerDirect:
    def test_rejects_low_weight(self):
        for k in (1, 2):
            with pytest.raises(ValueError):
                kronecker_direct(k, 0.3, TauPoint(1j), LatticeCutoff(50))

    def test_parity(self):
        tau = TauPoint(1j)
        z = 0.25 - 0.4j
        for k in (3, 4):
            a = kronecker_direct(k, z, tau, LatticeCutoff(60))
            b = kronecker_direct(k, -z, tau, LatticeCutoff(60))
            assert abs(a.value - (-1) ** k * b.value) <= a.err + b.err

    def test_self_convergence_rate(self):
        tau = TauPoint(1j)
        z = 0.25 - 0.4j
        v100 = kronecker_direct(3, z, tau, LatticeCutoff(100)).value
        v200 = kronecker_direct(3, z, tau, LatticeCutoff(200)).value
        v400 = kronecker_direct(3, z, tau, LatticeCutoff(400)).value
        d1 = abs(v200 - v100)
        d2 = abs(v400 - v200)
        # O(R^{-1}) per-step change would halve; allow generous slack
        assert d2 < 0.8 * d1


#: the tau at which every public call below warns
SLOW_TAU = TauPoint(0.1 + 0.08j)


def _grid_xy():
    return zip(*_division_grid(7))


def _grid_z(tau):
    return [x + y * tau.tau for x, y in _division_grid(7)]


_PAIR = CoprimePair(3, 2)
_SPEC = MachideSpec((1, 1), (1, 1), (1, 1), (0.5, 0.0), (0.5, 0.0), (0.3, 0.0), 2, 1)
#: every public function of qseries, symbols and identities that takes tau,
#: as call(tau, policy), with the SlowNomeWarnings it issues at SLOW_TAU: one
#: per call, and machide_sum one per distinct rescaled tau
PUBLIC_TAU_CALLS = {
    "eisenstein": (lambda t, pol: eisenstein(2, t, pol), 1),
    "eisenstein_normalized": (lambda t, pol: eisenstein_normalized(2, t, pol), 1),
    "eisenstein_tau_derivative": (lambda t, pol: eisenstein_tau_derivative(2, t, pol), 1),
    "elliptic_bernoulli": (lambda t, pol: elliptic_bernoulli(3, 0.3, 0.2, t, pol), 1),
    "elliptic_bernoulli_points": (
        lambda t, pol: elliptic_bernoulli_points(3, *_grid_xy(), t, pol), 1),
    # one pass per order of a mixed-order call
    "elliptic_bernoulli_points_mixed": (lambda t, pol: elliptic_bernoulli_points(
        [(0, 3, 1, 2)[i % 4] for i in range(48)], *_grid_xy(), t, pol), 1),
    "elliptic_bernoulli_points_b0": (
        lambda t, pol: elliptic_bernoulli_points(0, *_grid_xy(), t, pol), 1),
    # zeta and pe check the caller's tau once and run their series, E_2
    # included, at the reduced tau, which is never slow
    "weierstrass_zeta": (lambda t, pol: weierstrass_zeta(0.3 + 0.01j, t, pol), 1),
    "weierstrass_zeta_points": (lambda t, pol: weierstrass_zeta_points(_grid_z(t), t, pol), 1),
    "weierstrass_zeta_points_one": (
        lambda t, pol: weierstrass_zeta_points(_grid_z(t)[:1], t, pol), 1),
    "weierstrass_p_deriv": (lambda t, pol: weierstrass_p_deriv(0, 0.3 + 0.01j, t, pol), 1),
    "weierstrass_p_deriv_points": (
        lambda t, pol: weierstrass_p_deriv_points(3, _grid_z(t), t, pol), 1),
    "weierstrass_p_deriv_points_pe": (
        lambda t, pol: weierstrass_p_deriv_points(0, _grid_z(t), t, pol), 1),
    "weierstrass_zeta_deriv": (lambda t, pol: weierstrass_zeta_deriv(2, 0.3 + 0.01j, t, pol), 1),
    "sigma_log_tau_derivative": (
        lambda t, pol: sigma_log_tau_derivative(0.3 + 0.01j, t, pol), 1),
    "elliptic_apostol_sum_zeta": (
        lambda t, pol: elliptic_apostol_sum(1, CoprimePair(5, 3), t, policy=pol), 1),
    "elliptic_apostol_sum_bernoulli": (lambda t, pol: elliptic_apostol_sum(
        1, CoprimePair(5, 3), t, Route.BERNOULLI_PRODUCT, pol), 1),
    "reciprocity_rhs": (lambda t, pol: reciprocity_rhs(2, _PAIR, t, pol), 1),
    "generating_D": (lambda t, pol: generating_D(_PAIR, t, 0.05, pol), 1),
    "generating_R": (lambda t, pol: generating_R(_PAIR, t, 0.05, pol), 1),
    "expected_constant": (lambda t, pol: expected_constant(_PAIR, t, pol), 1),
    "machide_sum": (lambda t, pol: machide_sum(_SPEC, t, pol), 1),
    # factors at tau and at 3 tau / 4, both slow
    "machide_sum_two_taus": (lambda t, pol: machide_sum(
        dataclasses.replace(_SPEC, vec_b=(3, 4)), t, pol), 2),
    # factors at 2 tau, not slow, and at tau
    "machide_sum_one_slow": (lambda t, pol: machide_sum(
        dataclasses.replace(_SPEC, vec_a=(2, 1)), t, pol), 1),
    "machide_reciprocity_residuals": (
        lambda t, pol: machide_reciprocity_residuals(_PAIR, 0.013, 0.007, t, pol), 1),
    "proposition31_residual": (lambda t, pol: proposition31_residual(_PAIR, 0.05, t, pol), 1),
    "proposition31_constant_closed_form": (
        lambda t, pol: proposition31_constant_closed_form(_PAIR, t, pol), 1),
    "c_coefficients": (lambda t, pol: identities.c_coefficients(2, t, pol), 1),
    "verify_eq73": (lambda t, pol: identities.verify_eq73(2, 3, t, pol), 1),
    "coefficient_scale": (lambda t, pol: identities.coefficient_scale(2, t, pol), 1),
    "t_weighted": (lambda t, pol: identities.t_weighted(2, _PAIR, t, pol), 1),
    "verify_three_term": (lambda t, pol: identities.verify_three_term(2, _PAIR, t, pol), 1),
    "reciprocity_laurent": (lambda t, pol: identities.reciprocity_laurent(4, t, pol), 1),
    "verify_eq64_onedim": (lambda t, pol: identities.verify_eq64_onedim(4, t, pol), 1),
    "basis_rank": (lambda t, pol: basis_rank(4, [t], pol), 1),
}


class TestPolicyGuards:
    @pytest.mark.parametrize("name", PUBLIC_TAU_CALLS)
    def test_one_slow_nome_warning_per_call(self, name, monkeypatch):
        call, count = PUBLIC_TAU_CALLS[name]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", SlowNomeWarning)
            call(SLOW_TAU, DEFAULT_POLICY)
        assert sum(issubclass(w.category, SlowNomeWarning) for w in caught) == count
        # a rejected tau raises before any series runs, any Eisenstein
        # product is formed or any cache is read
        ran = []
        monkeypatch.setattr(qseries, "_block_series", lambda *args: ran.append(args))
        monkeypatch.setattr(qseries, "_eisenstein_q_sums", lambda *args: ran.append(args))
        caches = (qseries._eisenstein_q_sum, identities._record)
        before = [f.cache_info() for f in caches]
        with pytest.raises(ValueError, match="below the accepted bound 0.1"):
            call(SLOW_TAU, SeriesPolicy(min_im_tau=0.1))
        assert not ran and [f.cache_info() for f in caches] == before

    @pytest.mark.parametrize("call", [
        lambda tau: weierstrass_zeta_points([0.3, 1.0], tau),
        lambda tau: weierstrass_p_deriv_points(1, [0.0], tau),
        lambda tau: sigma_log_tau_derivative(tau.tau, tau),
        lambda tau: elliptic_bernoulli_points(2, [0.3, 0.0], [0.2, 0.0], tau),
        lambda tau: elliptic_bernoulli(0, 0.3, 0.2, tau),
    ], ids=["zeta", "pe", "sigma_log", "bernoulli", "bernoulli_b0"])
    def test_tau_checked_before_points(self, call):
        # a lattice point at a rejected tau reports the tau, and a call of
        # B_0 alone checks tau too
        with pytest.raises(ValueError, match="below the accepted bound"):
            call(TauPoint(0.1 + 0.01j))

    def test_small_im_rejected(self):
        with pytest.raises(ValueError):
            eisenstein(1, TauPoint(0.03j))

    def test_slow_nome_warns(self):
        with pytest.warns(SlowNomeWarning):
            eisenstein(1, TauPoint(0.08j))

    @pytest.mark.parametrize("call", [
        lambda tau: eisenstein(1, tau),
        lambda tau: weierstrass_zeta_points([0.3 + 0.01j], tau),
        lambda tau: weierstrass_p_deriv_points(0, [0.3 + 0.01j], tau),
        lambda tau: reciprocity_rhs(2, CoprimePair(3, 2), tau),
        lambda tau: basis_rank(4, [tau]),
        lambda tau: machide_sum(MachideSpec((1, 1), (1, 1), (1, 1), (0.1, 0.0), (0.2, 0.0),
                                            (0.3, 0.0), 1, 1), tau),
    ], ids=["eisenstein", "zeta", "pe", "reciprocity_rhs", "basis_rank", "machide_sum"])
    def test_slow_nome_warning_names_the_callers_line(self, call):
        # the first frame outside the package, however deep the warning is
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", SlowNomeWarning)
            call(TauPoint(0.1 + 0.08j))
        slow = [w for w in caught if issubclass(w.category, SlowNomeWarning)]
        assert slow and all(w.filename == __file__ for w in slow)

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            SeriesPolicy(tol=0)
        with pytest.raises(ValueError, match="tol must be > 0"):
            SeriesPolicy(tol=True)

    @pytest.mark.parametrize("max_terms", [2.5, 3.0, "3", True, False])
    def test_non_int_max_terms_rejected(self, max_terms):
        with pytest.raises(ValueError, match="max_terms must be an int"):
            SeriesPolicy(max_terms=max_terms)
        # an int beyond int64 stays a valid cap
        assert SeriesPolicy(max_terms=10**30).max_terms == 10**30

    @pytest.mark.parametrize("t", [0.3 + 0.3j, 0.3 + 0.06j])
    @pytest.mark.parametrize("call", [
        lambda tau, pol: elliptic_bernoulli_points(3, [0.2], [0.3], tau, pol),
        lambda tau, pol: weierstrass_zeta_points([0.2 - 0.3 * tau.tau], tau, pol),
        lambda tau, pol: weierstrass_p_deriv_points(2, [0.2 - 0.3 * tau.tau], tau, pol),
        lambda tau, pol: eisenstein(2, tau, pol),
        lambda tau, pol: eisenstein_tau_derivative(2, tau, pol),
        lambda tau, pol: basis_rank(4, [tau], pol),
    ], ids=["bernoulli", "zeta", "pe", "eisenstein", "eisenstein_tau_derivative",
            "basis_rank"])
    @pytest.mark.filterwarnings("ignore::ellded.qseries.SlowNomeWarning")
    def test_every_series_names_the_callers_cap(self, call, t):
        # max_terms caps every series at every tau, however slow its nome
        with pytest.raises(NonConvergenceError, match=r"max_terms=1$"):
            call(TauPoint(t), SeriesPolicy(max_terms=1))

    def test_nan_min_im_tau_rejected(self):
        # im < nan is always false: a nan bound would reject no tau
        with pytest.raises(ValueError, match="min_im_tau"):
            SeriesPolicy(min_im_tau=math.nan, max_terms=50)

    @pytest.mark.parametrize("x,y", [(0.1, math.nan), (math.nan, 0.2), (math.inf, 0.2),
                                     (0.1, -math.inf)])
    def test_non_finite_point_rejected(self, x, y):
        # rejected before any series runs; the cap of 10 terms makes a point
        # that slips through fail fast instead of running into the default cap
        policy = SeriesPolicy(max_terms=10)
        tau = TauPoint(0.1 + 1j)
        z = complex(x, y)
        for f in (lambda: elliptic_bernoulli(2, x, y, tau, policy),
                  lambda: elliptic_bernoulli_points(1, [0.3, x], [0.2, y], tau, policy),
                  lambda: weierstrass_zeta(z, tau, policy),
                  lambda: weierstrass_p_deriv(3, z, tau, policy)):
            with pytest.raises(ValueError, match="finite"):
                f()
        with pytest.raises(ValueError):
            SeriesPolicy(max_terms=0)

    @pytest.mark.filterwarnings("ignore::ellded.qseries.SlowNomeWarning")
    def test_bernoulli_where_nome_rounds_to_one(self):
        # Im tau = 1e-20 passes a min_im_tau of 0, but |q| rounds to 1: the
        # series cannot converge, and B_m names tau instead of dividing by
        # 1 - |q| = 0
        policy = SeriesPolicy(min_im_tau=0.0, max_terms=50)
        tau = TauPoint(0.1 + 1e-20j)
        assert abs(tau.nome) == 1.0
        for m in (1, [1, 3]):
            with pytest.raises(ValueError, match=r"\|q\| is too close to 1 at tau = \(0\.1\+1e-20j\)"):
                elliptic_bernoulli_points(m, [0.3, 0.4], [0.2, 0.5], tau, policy)
        with pytest.raises(ValueError, match=r"\|q\| is too close to 1"):
            elliptic_bernoulli(1, 0.3, 0.2, tau, policy)
        # B_0 runs no series, but its tau is checked as every other call's is
        with pytest.raises(ValueError, match=r"\|q\| is too close to 1 at tau = \(0\.1\+1e-20j\)"):
            elliptic_bernoulli(0, 0.3, 0.2, tau, policy)

    @pytest.mark.filterwarnings("ignore::ellded.qseries.SlowNomeWarning")
    @pytest.mark.parametrize("z", [0.3, 0.3 + 0.2j])
    def test_zeta_and_pe_where_nome_rounds_to_one(self, z):
        # the zeta and pe kernels raise as B_m does, before z is decomposed:
        # they returned a value that their err dwarfed, and at Im z != 0
        # y = -Im z / Im tau rounds to an integer, a false lattice point.
        # The tau check itself raises, so no record, and so no block of the
        # symbol layer, exists for such a tau
        policy = SeriesPolicy(min_im_tau=0.0, max_terms=50)
        tau = TauPoint(0.1 + 1e-20j)
        for call in (lambda: weierstrass_zeta(z, tau, policy),
                     lambda: weierstrass_zeta_points([z, 0.4], tau, policy),
                     lambda: weierstrass_p_deriv(0, z, tau, policy),
                     lambda: weierstrass_p_deriv(2, z, tau, policy),
                     lambda: weierstrass_p_deriv_points(1, [z, 0.4], tau, policy),
                     lambda: sigma_log_tau_derivative(z, tau, policy),
                     lambda: qseries._checked(tau, policy)):
            with pytest.raises(ValueError, match=r"\|q\| is too close to 1 at tau = \(0\.1\+1e-20j\)"):
                call()

    @pytest.mark.filterwarnings("error::ellded.qseries.SlowNomeWarning")
    @pytest.mark.parametrize("name", PUBLIC_TAU_CALLS)
    def test_every_call_rejects_a_nome_rounding_to_one(self, name, monkeypatch):
        # one check for every function, B_0 and the Eisenstein series among
        # them: it raises, with no warning, before any series runs, any
        # Eisenstein product is formed or any cache is read.  At 1e-17i |q|
        # is 1 - 2^-53, short of 1, but no series could sum the ~2.5e17
        # terms it needs to reach tol
        call, _ = PUBLIC_TAU_CALLS[name]
        ran = []
        monkeypatch.setattr(qseries, "_block_series", lambda *args: ran.append(args))
        monkeypatch.setattr(qseries, "_eisenstein_q_sums", lambda *args: ran.append(args))
        caches = (qseries._eisenstein_q_sum, identities._record)
        before = [f.cache_info() for f in caches]
        for tau in (0.1 + 1e-20j, 0.1 + 1e-17j):
            with pytest.raises(ValueError, match=r"^\|q\| is too close to 1 at tau = "):
                call(TauPoint(tau), SeriesPolicy(min_im_tau=0.0, max_terms=50))
        assert not ran and [f.cache_info() for f in caches] == before


#: calls whose B_m or pe^(k) leaves binary64, with the name the error gives
#: it; the last outside F, where a finite pe^(120) at the reduced tau
#: overflows in its weight
BEYOND_BINARY64 = [
    (lambda: elliptic_bernoulli(186, 0.1, 0.2, TauPoint(0.3 + 1.1j)), "B_186"),
    (lambda: weierstrass_zeta_deriv(151, 0.3, TauPoint(0.3 + 1.1j)), r"pe\^\(150\)"),
    (lambda: elliptic_apostol_sum(93, CoprimePair(5, 3), TauPoint(0.3 + 1.1j),
                                  Route.BERNOULLI_PRODUCT), "B_187"),
    (lambda: weierstrass_zeta_deriv(41, 1e-10, TauPoint(0.3 + 1.1j)), r"pe\^\(40\)"),
    (lambda: weierstrass_zeta_deriv(121, 0.3, TauPoint(0.3 + 0.06j)), r"pe\^\(120\)"),
    # finite at tau' = -1/tau, and beyond binary64 only once times tau^-145
    (lambda: elliptic_bernoulli(145, 0.1, 0.2, TauPoint(0.06j)), "B_145"),
]

#: Eisenstein calls whose q-series leaves binary64, with the n it names:
#: sigma in the scalar loop (n = 100 at tau = i), (2n)! at n = 86 and
#: B_{2n} at n = 135 where q is small, the first n of an identity's table
#: to overflow, and the largest n of basis_rank's product
EISENSTEIN_BEYOND_BINARY64 = [
    (lambda: eisenstein(100, TauPoint(1j)), 100),
    (lambda: eisenstein_normalized(100, TauPoint(1j)), 100),
    (lambda: eisenstein_tau_derivative(100, TauPoint(1j)), 100),
    (lambda: eisenstein(86, TauPoint(5j)), 86),
    (lambda: eisenstein_normalized(135, TauPoint(50j)), 135),
    (lambda: identities.c_coefficients(100, TauPoint(1j)), 86),
    (lambda: reciprocity_rhs(100, CoprimePair(3, 2), TauPoint(1j)), 86),
    (lambda: basis_rank(200, identities.random_taus(4, 0)), 101),
]


class TestBeyondBinary64:
    @pytest.mark.parametrize("call, name", BEYOND_BINARY64,
                             ids=["b186", "pe150", "bernoulli_route_n93", "pe40_near_pole",
                                  "pe120_reduced", "b145_reduced"])
    def test_raises_overflow_error_at_once(self, call, name, monkeypatch):
        """OverflowError naming the function, where the value or its err is
        not finite; a NaN term stops its series, which no longer runs on to
        max_terms."""
        stops = []
        run = qseries._block_series

        def spy(*args):
            out = run(*args)
            stops.append(int(out[2].max(initial=0)))
            return out

        monkeypatch.setattr(qseries, "_block_series", spy)
        # no RuntimeWarning on the way: under the test config's
        # error::RuntimeWarning one would raise in place of the OverflowError
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowNomeWarning)
            with pytest.raises(OverflowError, match=rf"^{name} leaves the floating-point range$"):
                call()
        assert stops and max(stops) < 64

    @pytest.mark.parametrize("call, n", EISENSTEIN_BEYOND_BINARY64,
                             ids=["e100", "g100", "de100", "e86_const", "g135_bernoulli",
                                  "c_coefficients100", "reciprocity_rhs100", "basis_rank200"])
    def test_eisenstein_names_its_overflow(self, call, n):
        """The Eisenstein q-series raises one OverflowError naming itself
        where sigma_{2n-1}(k), (2n)! or B_{2n} leaves binary64 as it meets a
        float, in place of int's "int too large to convert to float"."""
        with pytest.raises(OverflowError,
                           match=rf"^Eisenstein q-series \(n={n}\) leaves the floating-point range$"):
            call()

    def test_eisenstein_in_range_keeps_its_bits(self):
        # at tau = i the q-sum of E_160 stops before sigma_159(k) leaves
        # binary64, and each term rounds the int sigma as float(sigma) did
        tau = TauPoint(1j)
        assert eisenstein(80, tau) == ComplexVal(3.9999999999999876 - 3.9188697572715184e-14j,
                                                 3.289133714343814e-13)
        assert eisenstein_tau_derivative(80, tau) == ComplexVal(
            3.135095805817225e-12 + 320.00000000000006j, 4.0084429037823715e-11)

    def test_large_order_in_range_keeps_its_value(self):
        # B_160 at the same point stays within binary64, and its rows past
        # the stop, which overflow, raise no RuntimeWarning
        v = elliptic_bernoulli(160, 0.1, 0.2, TauPoint(0.3 + 1.1j))
        assert cmath.isfinite(v.value) and math.isfinite(v.err) and abs(v.value) > 1e156

    @pytest.mark.parametrize("call", [
        # the zeta route's sum overflows times m^-122; the Bernoulli route
        # returns a finite D here
        lambda: elliptic_apostol_sum(60, CoprimePair(3, 2), TauPoint(0.3 + 0.06j)),
        # the route constant's intermediate (2 pi i)^150 23^149 overflows, on F
        lambda: elliptic_apostol_sum(75, CoprimePair(23, 12), TauPoint(0.3 + 1.1j),
                                     Route.BERNOULLI_PRODUCT),
        lambda: reciprocity_rhs(80, CoprimePair(23, 12), TauPoint(0.3 + 0.06j)),
        lambda: identities.t_weighted(67, CoprimePair(59, 30), TauPoint(0.3j)),
        lambda: identities.verify_three_term(67, CoprimePair(29, 30), TauPoint(0.3j)),
        # a product of two large B_160 arrays
        lambda: machide_sum(MachideSpec((1, 1), (3, 3), (2, 2), (0.013, 0.0), (0.021, 0.0),
                                        (-0.014, 0.0), 160, 160), TauPoint(1j)),
    ], ids=["zeta_route_n60", "bernoulli_route_n75_on_f", "reciprocity_rhs_n80",
            "t_weighted_n67", "three_term_n67", "machide_160"])
    def test_symbol_beyond_binary64_raises(self, call):
        """A sum whose value leaves binary64 raises where its ComplexVal is
        built, with no RuntimeWarning on the way, in place of returning NaN
        or Infinity."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowNomeWarning)
            with pytest.raises(OverflowError,
                               match=r"^a value leaves the floating-point range$"):
                call()


class TestZetaOdd:
    def test_zeta3(self):
        assert abs(zeta_odd(1) - 1.2020569031595943) < 1e-12

    def test_range_and_monotone(self):
        vals = [zeta_odd(n) for n in range(1, 8)]
        assert all(1 < v < 1.21 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_repeatable_and_still_checked(self):
        assert zeta_odd(5, 1e-10) == zeta_odd(5, 1e-10)
        for _ in range(2):
            with pytest.raises(ValueError):
                zeta_odd(0)
            with pytest.raises(ValueError):
                zeta_odd(2, 0.0)
            # NaN passed `tol <= 0` and gave zeta(3) wrong from its 8th digit
            with pytest.raises(ValueError, match="tol must be > 0"):
                zeta_odd(1, float("nan"))

    def test_two_cutoffs_consistent(self):
        # independent direct sum with integral tail at a fixed cutoff
        s = 7
        K = 10**4
        direct = math.fsum(k**-s for k in range(1, K + 1)) + K ** (1 - s) / (s - 1)
        assert abs(zeta_odd(3) - direct) < 1e-13


# ---------------------------------------------------------------------------
# Batched kernels against the per-point loop reference
# ---------------------------------------------------------------------------

#: the Im(tau) strata of the division-sum workloads, down to slow convergence
KERNEL_IM_TAUS = (1.1, 0.3, 0.11, 0.06)


def _agree(batch: ComplexArray, reference: list) -> None:
    """Every kernel value agrees with its loop value within their combined err."""
    assert len(batch) == len(reference)
    for i, r in enumerate(reference):
        v = batch[i]
        assert isinstance(v.value, complex) and isinstance(v.err, float)
        assert abs(v.value - r.value) <= v.err + r.err, (i, v, r)


def _division_grid(p: int):
    """(lambda/p, mu/p) over the p-division residues other than (0, 0)."""
    return [(lam / p, mu / p) for lam in range(p) for mu in range(p)
            if (lam, mu) != (0, 0)]


def _tau_strategy():
    return st.builds(lambda re, im: TauPoint(complex(re, im)),
                     st.floats(-0.5, 0.5), st.sampled_from(KERNEL_IM_TAUS))


class TestBatchedKernels:
    @given(m=st.integers(0, 7), p=st.integers(2, 23), tau=_tau_strategy())
    @settings(max_examples=12, deadline=None)
    def test_elliptic_bernoulli_matches_loop(self, m, p, tau):
        """The batched series held at tau, as the loop sums it; the kernel
        reduces tau and is bounded against mpmath and the weight laws."""
        grid = _division_grid(p)
        # negative x, y = 0 and y just below 1, where the series snaps y to 0
        pts = grid + [(-x, y) for x, y in grid] + [(0.3, 1 - 1e-13), (-0.7, 0.0)]
        xs, ys = zip(*pts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowNomeWarning)
            batch = bernoulli_points_at(m, xs, ys, qseries._checked(tau, DEFAULT_POLICY))
            _agree(batch, [ref.elliptic_bernoulli(m, x, y, tau) for x, y in pts])

    @given(k=st.integers(0, 7), p=st.integers(2, 23), tau=_tau_strategy())
    @settings(max_examples=12, deadline=None)
    def test_p_deriv_matches_loop(self, k, p, tau):
        t = tau.tau
        zs = [x + y * t for x, y in _division_grid(p)]
        zs += [-z for z in zs] + [zs[0] + 1 + t, 0.3 - (1 - 1e-13) * t]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowNomeWarning)
            batch = weierstrass_p_deriv_points(k, zs, tau)
            _agree(batch, [ref.weierstrass_p_deriv(k, z, tau) for z in zs])

    @given(p=st.integers(2, 23), q=st.integers(-7, 7), tau=_tau_strategy())
    @settings(max_examples=12, deadline=None)
    def test_zeta_matches_loop(self, p, q, tau):
        t = tau.tau
        zs = [x + y * t for x, y in _division_grid(p)]
        # q z leaves the fundamental cell; the quasi-periods bring it back
        zs += [q * z + 0.5 / p for z in zs] + [0.3 - (1 - 1e-13) * t, 0.3 + 1e-13 * t]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowNomeWarning)
            batch = weierstrass_zeta_points(zs, tau)
            _agree(batch, [ref.weierstrass_zeta(z, tau) for z in zs])

    def test_scalar_functions_are_one_point_calls(self):
        tau = TauPoint(0.2 + 0.7j)
        assert elliptic_bernoulli(3, 0.3, 0.6, tau) == elliptic_bernoulli_points(
            3, [0.3], [0.6], tau)[0]
        assert weierstrass_zeta(0.3 + 0.2j, tau) == weierstrass_zeta_points(
            [0.3 + 0.2j], tau)[0]
        assert weierstrass_p_deriv(2, 0.3 + 0.2j, tau) == weierstrass_p_deriv_points(
            2, [0.3 + 0.2j], tau)[0]

    def test_points_are_independent(self):
        # a point's value does not depend on the batch it is evaluated in
        tau = TauPoint(0.1 + 0.3j)
        xs = np.linspace(0.05, 0.95, 17)
        ys = np.linspace(0.9, 0.1, 17)
        batch = elliptic_bernoulli_points(4, xs, ys, tau)
        for i in (0, 7, 16):
            assert batch[i] == elliptic_bernoulli_points(4, xs[i:i + 1], ys[i:i + 1], tau)[0]

    def test_lattice_point_anywhere_in_batch(self):
        tau = TauPoint(1.1j)
        with pytest.raises(LatticePointError):
            elliptic_bernoulli_points(2, [0.3, 2.0, 0.5], [0.1, -1.0, 0.2], tau)
        with pytest.raises(LatticePointError):
            weierstrass_zeta_points([0.3 + 0.1j, 1 + tau.tau], tau)
        with pytest.raises(LatticePointError):
            weierstrass_p_deriv_points(1, [0.3 + 0.1j, 0.2, -tau.tau], tau)

    def test_term_cap_anywhere_in_batch(self):
        # in F, where zeta and pe run unreduced: at a reduced tau they stop
        # within 3 terms (tests/test_reduction.py caps them there)
        tau = TauPoint(0.2 + 1.0j)
        policy = SeriesPolicy(max_terms=3)
        xs, ys = [0.3, 0.4], [0.2, 0.5]
        for call in (lambda: elliptic_bernoulli_points(2, xs, ys, tau, policy),
                     lambda: weierstrass_p_deriv_points(2, [0.3 + 0.1j, 0.1], tau, policy),
                     lambda: weierstrass_zeta_points([0.3 + 0.1j, 0.1], tau, policy)):
            with pytest.raises(NonConvergenceError) as info:
                call()
            assert isinstance(info.value.partial, ComplexVal)
            assert info.value.partial.err == float("inf")
        # the loop reference gives up at the same cap
        with pytest.raises(NonConvergenceError):
            ref.elliptic_bernoulli(2, 0.3, 0.2, tau, policy)

    @pytest.mark.parametrize("t", [0.3 + 1.1j, 0.3 + 0.06j])
    def test_mixed_orders_match_one_order_calls(self, t):
        """A call with an order per point, unsorted and with B_0 among them,
        equals the one-order calls of each order bit for bit."""
        tau = TauPoint(t)
        grid = _division_grid(7) + [(0.3, 1 - 1e-13), (-0.7, 0.0)]
        xs, ys = (np.array(a) for a in zip(*grid))
        orders = np.array([(3, 0, 1, 5, 2, 1, 0)[i % 7] for i in range(len(grid))])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowNomeWarning)
            mixed = elliptic_bernoulli_points(orders, xs, ys, tau)
            for k in np.unique(orders):
                on = orders == k
                alone = elliptic_bernoulli_points(int(k), xs[on], ys[on], tau)
                assert mixed.value[on].tobytes() == alone.value.tobytes()
                assert mixed.err[on].tobytes() == alone.err.tobytes()

    def test_mixed_orders_errors(self):
        """A lattice point is named with its own order; under a capped
        policy the error is that of the first point of the lowest order
        that fails alone, as the orders run one pass each, over their own
        points, in ascending order."""
        tau = TauPoint(1j)
        with pytest.raises(LatticePointError, match=r"^B_5\(2\.0, -1\.0"):
            elliptic_bernoulli_points([2, 5, 1], [0.3, 2.0, 0.5], [0.1, -1.0, 0.2], tau)
        with pytest.raises(ValueError, match="m must be >= 0"):
            elliptic_bernoulli_points([2, -1], [0.3, 0.4], [0.1, 0.2], tau)
        with pytest.raises(ValueError, match="aligned"):
            elliptic_bernoulli_points([2, 1, 1], [0.3, 0.4], [0.1, 0.2], tau)
        with pytest.raises(ValueError, match="aligned"):
            elliptic_bernoulli_points([2.0, 1.0], [0.3, 0.4], [0.1, 0.2], tau)
        # unsigned orders are taken as they are
        unsigned = elliptic_bernoulli_points(np.array([2, 1], dtype=np.uint64),
                                             [0.3, 0.4], [0.1, 0.2], tau)
        signed = elliptic_bernoulli_points([2, 1], [0.3, 0.4], [0.1, 0.2], tau)
        assert unsigned.value.tobytes() == signed.value.tobytes()
        assert unsigned.err.tobytes() == signed.err.tobytes()
        policy = SeriesPolicy(max_terms=5)
        # B_0, two points that converge within the cap, then two that do
        # not: B_3 ahead of a B_1, whose pass runs first
        orders, xs, ys = [0, 1, 2, 3, 1], [0.3, 0.5, 0.3, 0.4, 0.3], [0.2, 0.0, 0.2, 0.5, 0.9]
        alone = []
        for k, x, y in zip(orders, xs, ys):
            try:
                elliptic_bernoulli_points(k, [x], [y], tau, policy)
            except NonConvergenceError as e:
                alone.append(e)
        assert len(alone) == 2
        with pytest.raises(NonConvergenceError) as info:
            elliptic_bernoulli_points(orders, xs, ys, tau, policy)
        assert str(info.value) == str(alone[1])
        assert repr(info.value.partial) == repr(alone[1].partial)

    @pytest.mark.parametrize("x, y", [([0.1], [0.3, 0.4]), ([0.1, 0.2], [0.3])])
    def test_points_of_unequal_shape_rejected(self, x, y, monkeypatch):
        # before any series runs
        ran = []
        monkeypatch.setattr(qseries, "_block_series", lambda *args: ran.append(args))
        with pytest.raises(ValueError, match="x and y must have the same shape"):
            elliptic_bernoulli_points(2, x, y, TauPoint(0.3 + 1.1j))
        assert not ran

    @pytest.mark.parametrize("t", [0.3 + 1.1j, 0.3 + 0.3j])
    @pytest.mark.parametrize("call", [
        lambda tau: elliptic_bernoulli_points(2, 0.1, 0.3, tau),
        lambda tau: elliptic_bernoulli_points(0, 0.1, 0.3, tau),
        lambda tau: elliptic_bernoulli_points(2, [[0.1]], [[0.3]], tau),
        lambda tau: elliptic_bernoulli_points([[2, 1]], [[0.1, 0.2]], [[0.3, 0.4]], tau),
        lambda tau: elliptic_bernoulli_points(2, 1.0, 2.0, tau),
        lambda tau: weierstrass_zeta_points(0.3 + 0.1j, tau),
        lambda tau: weierstrass_zeta_points([[0.3 + 0.1j, 0.2]], tau),
        lambda tau: weierstrass_zeta_points(1 + tau.tau, tau),
        lambda tau: weierstrass_p_deriv_points(1, 0.3 + 0.1j, tau),
        lambda tau: weierstrass_p_deriv_points(1, [[0.3 + 0.1j], [0.2]], tau),
        lambda tau: weierstrass_p_deriv_points(0, [[0.3 + 0.1j, 2.0]], tau),
    ], ids=["b_0d", "b0_0d", "b_2d", "b_mixed_2d", "b_0d_lattice", "zeta_0d", "zeta_2d",
            "zeta_0d_lattice", "pe_0d", "pe_2d", "pe_2d_lattice"])
    def test_points_not_1d_rejected(self, call, t, monkeypatch):
        # a 0-d or 2-D batch raises ValueError before any series runs, on F
        # and at a reduced tau, a lattice point among them included
        ran = []
        monkeypatch.setattr(qseries, "_block_series", lambda *args: ran.append(args))
        with pytest.raises(ValueError, match=r"points must be a 1-D array, got shape \("):
            call(TauPoint(t))
        assert not ran

    @pytest.mark.parametrize("x, y, error", [
        ([0.3, 2.0], [0.1, 1.0 - 5e-13], LatticePointError),
        ([0.3, 5e-13], [0.1, -3.0], LatticePointError),
        ([0.3, math.nan], [0.1, 0.2], ValueError),
        ([[0.1, 0.2]], [[0.3]], ValueError),
    ])
    def test_rejections_keep_their_type(self, x, y, error):
        # the one point check rejects what the kernels rejected, as they did,
        # a point within the snap distance of the lattice included
        tau = TauPoint(0.3 + 1.1j)
        kernels = [lambda: elliptic_bernoulli_points(2, x, y, tau)]
        if np.ndim(x) == 1:
            z = np.array(x) - np.array(y) * tau.tau
            kernels += [lambda: weierstrass_zeta_points(z, tau),
                        lambda: weierstrass_p_deriv_points(1, z, tau)]
        for kernel in kernels:
            with pytest.raises(error) as info:
                kernel()
            assert type(info.value) is error


HUGE_RE_TAU = TauPoint(1e300 + 1j)


@pytest.mark.parametrize("call", [
    lambda t: eisenstein(2, t),
    lambda t: eisenstein_normalized(2, t),
    lambda t: eisenstein_tau_derivative(2, t),
    lambda t: elliptic_bernoulli(2, 0.3, 0.4, t),
    lambda t: elliptic_bernoulli(1, 0.3, 1e10, t),
    lambda t: weierstrass_zeta(0.3 + 0.1j, t),
    lambda t: weierstrass_zeta(0.3 + 1e10j, t),
    lambda t: weierstrass_p_deriv(1, 0.3 + 0.1j, t),
    lambda t: sigma_log_tau_derivative(0.3 + 0.1j, t),
    lambda t: elliptic_apostol_sum(1, CoprimePair(3, 2), t),
    lambda t: elliptic_apostol_sum(1, CoprimePair(3, 2), t, Route.BERNOULLI_PRODUCT),
    lambda t: reciprocity_rhs(1, CoprimePair(3, 2), t),
    lambda t: generating_D(CoprimePair(3, 2), t, 0.01),
    lambda t: generating_R(CoprimePair(3, 2), t, 0.01),
    lambda t: machide_sum(MachideSpec((1, 1), (1, 1), (1, 1), (0.1, 0.0), (0.2, 0.0),
                                      (0.3, 0.0), 1, 1), t),
    lambda t: machide_reciprocity_residuals(CoprimePair(3, 2), 0.01, 0.02, t),
    lambda t: proposition31_residual(CoprimePair(3, 2), 0.01, t),
    lambda t: proposition31_constant_closed_form(CoprimePair(3, 2), t),
    lambda t: expected_constant(CoprimePair(3, 2), t),
], ids=["eisenstein", "eisenstein_normalized", "eisenstein_tau_derivative",
        "elliptic_bernoulli", "elliptic_bernoulli_frame_overflow",
        "weierstrass_zeta", "weierstrass_zeta_decompose_overflow", "weierstrass_p_deriv",
        "sigma_log_tau_derivative", "zeta_route", "bernoulli_route", "reciprocity_rhs",
        "generating_D", "generating_R", "machide_sum", "machide_reciprocity_residuals",
        "proposition31_residual", "proposition31_constant_closed_form",
        "expected_constant"])
def test_huge_re_tau_returns_or_raises_with_no_warning(call):
    """At tau = 1e300 + i, whose tau' = i carries an error near 1e284, a
    kernel or symbol returns or raises OverflowError or ValueError, and
    never a numpy RuntimeWarning, which the test config makes an error:
    no caller sets numpy's error state, so its arithmetic must."""
    try:
        call(HUGE_RE_TAU)
    except (OverflowError, ValueError):
        pass


class TestComplexArray:
    """The elementwise arithmetic must match ComplexVal's bit for bit, so the
    err rules of the batched and scalar paths cannot drift apart."""

    finite = st.floats(-1e100, 1e100, allow_nan=False)
    errs = st.floats(0, 1e100, allow_nan=False)
    vals = st.builds(lambda re, im, e: ComplexVal(complex(re, im), e), finite, finite, errs)

    @staticmethod
    def _array(vs):
        return ComplexArray(np.array([v.value for v in vs], dtype=complex),
                            np.array([v.err for v in vs]))

    @staticmethod
    def _same(batch, expected):
        for i, e in enumerate(expected):
            got = batch[i]
            assert got.value == e.value and got.err == e.err, (i, got, e)

    @given(st.lists(st.tuples(vals, vals), min_size=1, max_size=20), finite, finite)
    @settings(max_examples=60, deadline=None)
    def test_mul_matches_complexval(self, pairs, re, im):
        a = self._array([u for u, _ in pairs])
        b = self._array([v for _, v in pairs])
        self._same(a * b, [u * v for u, v in pairs])
        self._same(a * pairs[0][1], [u * pairs[0][1] for u, _ in pairs])
        c = complex(re, im)
        self._same(a * c, [u * c for u, _ in pairs])
        self._same(a * re, [u * re for u, _ in pairs])
        plain = np.array([v.value for _, v in pairs])
        self._same(a * plain, [u * v.value for u, v in pairs])

    @given(st.lists(st.tuples(vals, vals), min_size=1, max_size=20), finite)
    @settings(max_examples=40, deadline=None)
    def test_add_sub_match_complexval(self, pairs, re):
        a = self._array([u for u, _ in pairs])
        b = self._array([v for _, v in pairs])
        self._same(a + b, [u + v for u, v in pairs])
        self._same(a - b, [u - v for u, v in pairs])
        self._same(-a, [-u for u, _ in pairs])
        self._same(a + re, [u + re for u, _ in pairs])
        self._same(a - pairs[0][1], [u - pairs[0][1] for u, _ in pairs])

    def test_overflow_is_inf_with_no_warning(self):
        # the test config makes a RuntimeWarning an error
        a = ComplexArray(np.array([1.5e308 + 0j]), np.array([1.5e308]))
        prod, total = a * a, a + a
        assert np.isinf(prod.value.real).all() and np.isinf(prod.err).all()
        assert np.isinf(total.value.real).all() and np.isinf(total.err).all()
        assert np.isinf((a - (-a)).err).all()

    def test_fsum_of_a_huge_value_has_err_inf(self):
        # |1.5e308 + 1.5e308i| overflows in the rounding bound, the value not
        v = qseries._fsum(ComplexArray(np.array([1.5e308 + 1.5e308j]), np.zeros(1)))
        assert v.value == 1.5e308 + 1.5e308j and v.err == math.inf

    def test_fsum_of_a_weighted_overflow_raises(self):
        a = ComplexArray(np.array([1.5e308 + 0j]), np.zeros(1))
        with pytest.raises(OverflowError, match=r"^a value leaves the floating-point range$"):
            qseries._fsum(qseries._weighted(a, np.array([2.0])))


class TestComplexVal:
    """ComplexVal behaves as the frozen dataclass it replaced."""

    @dataclasses.dataclass(frozen=True)
    class Frozen:
        value: complex
        err: float = 0.0

    finite = st.floats(-1e100, 1e100, allow_nan=False)
    errs = st.floats(0, 1e100, allow_nan=False)

    def test_repr_eq_hash_as_dataclass(self):
        v = ComplexVal(1.5 - 2j, 0.25)
        old = self.Frozen(1.5 - 2j, 0.25)
        assert repr(v) == repr(old).replace(type(old).__qualname__, "ComplexVal")
        assert repr(ComplexVal(3j)) == "ComplexVal(value=3j, err=0.0)"
        assert v == ComplexVal(1.5 - 2j, 0.25) and v != ComplexVal(1.5 - 2j, 0.5)
        assert hash(v) == hash((1.5 - 2j, 0.25))
        assert v != (1.5 - 2j, 0.25) and v != old
        assert len({v, ComplexVal(1.5 - 2j, 0.25)}) == 1

    def test_immutable_copy_pickle(self):
        v = ComplexVal(1 + 1j, 1e-9)
        for name in ("value", "err", "other"):
            with pytest.raises(AttributeError):
                setattr(v, name, 0.0)
        with pytest.raises(AttributeError):
            del v.err
        for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert type(w) is ComplexVal and repr(w) == repr(v)
        with pytest.raises(ValueError):
            ComplexVal(1j, -1e-300)

    @pytest.mark.parametrize("value", [complex("nan"), complex("inf"), complex(1.0, -math.inf),
                                       complex(0.0, math.nan)],
                             ids=["nan", "inf", "minus_inf_imag", "nan_imag"])
    def test_non_finite_value_raises(self, value):
        with pytest.raises(OverflowError, match=r"^a value leaves the floating-point range$"):
            ComplexVal(value)

    def test_infinite_err_accepted(self):
        # a NonConvergenceError partial carries err = inf
        v = ComplexVal(1.0, float("inf"))
        assert v.value == 1.0 and v.err == math.inf

    @given(finite, finite, errs, finite, finite, errs, finite)
    @settings(max_examples=60, deadline=None)
    def test_sub_is_add_of_negation(self, a, b, e, c, d, f, x):
        u, v = ComplexVal(complex(a, b), e), ComplexVal(complex(c, d), f)
        assert repr(u - v) == repr(u + (-v))
        assert repr(u - x) == repr(u + (-x))
        assert repr(u - complex(c, d)) == repr(u + (-complex(c, d)))


class TestKernelErrAgainstMpmath:
    """err of the batched B_m and pe^(k) bounds the actual error: each
    kernel's own series, reduction and closing terms summed at 30 digits."""

    TAUS = (0.25 + 1.1j, -0.2 + 0.3j, 0.3 + 0.06j)
    # 7-division points, one with y near 1 where e(-x) - e((1-y) tau) is
    # small, and a half period, where the odd derivatives of pe vanish and
    # the terms cancel; negative x is covered by the loop comparisons
    GRID = ((3 / 7, 6 / 7), (6 / 7, 1 / 7), (0.0, 0.5))

    @staticmethod
    def _e(mp, a):
        return mp.exp(2j * mp.pi * a)

    def _bernoulli(self, mp, m, x, y, tau):
        y = y - mp.floor(y)
        q, s, j = self._e(mp, tau), mp.mpc(0), 0
        # e((j - y) tau) and e((j + y) tau), stepped by q; at 30 digits the
        # products lose nothing a binary64 result could show
        w1, w2 = self._e(mp, -y * tau), self._e(mp, y * tau)
        while True:
            j += 1
            w1, w2 = w1 * q, w2 * q
            t1 = (y - j) ** (m - 1) * w1 / (self._e(mp, -x) - w1)
            t2 = (y + j) ** (m - 1) * w2 / (self._e(mp, x) - w2)
            s += t1 - t2
            if abs(t1) + abs(t2) < 1e-25 and j > 3:
                break
        v = self._e(mp, -x + y * tau)
        s += (y ** (m - 1) if m > 1 else 1) * v / (v - 1)
        poly = sum(math.comb(m, i) * mp.mpf(bernoulli_number(i).numerator)
                   / bernoulli_number(i).denominator * y ** (m - i) for i in range(m + 1))
        return m * s + poly

    def _pe(self, mp, k, z, tau):
        from ellded.qseries import _phi_poly

        def phi(w):
            num = mp.mpc(0)
            for c in reversed(_phi_poly(k)):
                num = num * w + c
            return num / (1 - w) ** (k + 2)

        y = -z.imag / tau.imag
        x = z.real + y * tau.real
        sign, y0 = 1, y - mp.nint(y)
        if y0 < 0:
            sign, x, y0 = (-1) ** k, -x, -y0
        u, q = self._e(mp, x - mp.floor(x) - y0 * tau), self._e(mp, tau)
        s, j, qj = phi(u), 0, mp.mpf(1)
        while True:
            j += 1
            qj *= q
            t = phi(u * qj) + (-1) ** k * phi(qj / u)
            s += t
            if abs(t) < 1e-25 * max(1, abs(s)) and j > 3:
                break
        val = sign * (2j * mp.pi) ** (k + 2) * s
        if k == 0:
            e2, n = mp.mpc(0), 0
            while abs(q) ** n * n * n > 1e-25 or n < 4:
                n += 1
                e2 += sum(d for d in range(1, n + 1) if n % d == 0) * q**n
            val -= mp.pi**2 / 3 - 8 * mp.pi**2 * e2
        return val

    @pytest.mark.parametrize("tau", TAUS)
    def test_elliptic_bernoulli(self, tau):
        mp = pytest.importorskip("mpmath")
        xs, ys = zip(*self.GRID)
        with mp.workdps(30), warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowNomeWarning)
            t = mp.mpc(tau.real, tau.imag)
            for m in range(1, 8):
                batch = elliptic_bernoulli_points(m, xs, ys, TauPoint(tau))
                for i, (x, y) in enumerate(self.GRID):
                    ref = complex(self._bernoulli(mp, m, mp.mpf(x), mp.mpf(y), t))
                    assert abs(batch[i].value - ref) <= batch[i].err, (m, x, y, batch[i], ref)

    def test_elliptic_bernoulli_catches_a_tenth_of_err(self, monkeypatch):
        """The grid catches an err ten times too loose: with the err of
        every B_m pass scaled by 0.1, `test_elliptic_bernoulli` fails, at
        0.25+1.1i at least, where its worst point reads 0.25 of err."""
        pytest.importorskip("mpmath")
        run = qseries._bernoulli_series

        def tenth(*args):
            b = run(*args)
            return ComplexArray(b.value, 0.1 * b.err)

        monkeypatch.setattr(qseries, "_bernoulli_series", tenth)
        failed = []
        for tau in self.TAUS:
            try:
                self.test_elliptic_bernoulli(tau)
            except AssertionError:
                failed.append(tau)
        assert 0.25 + 1.1j in failed

    @pytest.mark.parametrize("tau", [1j, 0.2 + 1.1j, 0.3 + 0.06j])
    def test_elliptic_bernoulli_snapped_y(self, tau):
        """A y within 1e-12 of an integer, which the kernel snaps to it, in
        F and outside: the shift counts in err for every order; near x = 0
        the closing term's y^(m-1) moves most."""
        mp = pytest.importorskip("mpmath")
        pts = ((0.3, 1 - 1e-13), (0.3, 1e-13), (-0.7, 2 - 1e-13), (0.05, 1 - 1e-13),
               # y just below 0 or near a negative integer
               (0.3, -1e-13), (0.3, -2 + 1e-13), (0.05, -1e-17), (-0.4, -3 - 5e-13))
        xs, ys = zip(*pts)
        with mp.workdps(30), warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowNomeWarning)
            t = mp.mpc(tau.real, tau.imag)
            for m in range(1, 8):
                batch = elliptic_bernoulli_points(m, xs, ys, TauPoint(tau))
                for i, (x, y) in enumerate(pts):
                    ref = complex(self._bernoulli(mp, m, mp.mpf(x), mp.mpf(y), t))
                    assert abs(batch[i].value - ref) <= batch[i].err, (m, x, y, batch[i], ref)

    @given(points=st.lists(
               st.tuples(st.integers(0, 7), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
               # off the lattice, as the kernel's check requires
               .filter(lambda p: max(abs(p[1] - round(p[1])), abs(p[2] - round(p[2]))) > 1e-12),
               min_size=1, max_size=5),
           re=st.floats(-0.5, 0.5), im=st.floats(0.05, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_elliptic_bernoulli_mixed_orders(self, points, re, im):
        """A batch of mixed orders at random points and tau: every point
        equals its one-order, one-point call bit for bit and lies within
        err of the 30-digit sum."""
        mp = pytest.importorskip("mpmath")
        orders, xs, ys = zip(*points)
        tau = TauPoint(complex(re, im))
        with mp.workdps(30), warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowNomeWarning)
            batch = elliptic_bernoulli_points(list(orders), xs, ys, tau)
            t = mp.mpc(re, im)
            for i, (m, x, y) in enumerate(points):
                assert repr(batch[i]) == repr(elliptic_bernoulli_points(m, [x], [y], tau)[0])
                ref = complex(self._bernoulli(mp, m, mp.mpf(x), mp.mpf(y), t)) if m else 1
                assert abs(batch[i].value - ref) <= batch[i].err, (m, x, y, tau, batch[i], ref)

    @pytest.mark.parametrize("tau", TAUS)
    def test_p_deriv(self, tau):
        mp = pytest.importorskip("mpmath")
        zs = [x + y * tau for x, y in self.GRID]
        with mp.workdps(30), warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowNomeWarning)
            t = mp.mpc(tau.real, tau.imag)
            for k in range(8):
                batch = weierstrass_p_deriv_points(k, zs, TauPoint(tau))
                for i, z in enumerate(zs):
                    ref = complex(self._pe(mp, k, mp.mpc(z.real, z.imag), t))
                    assert abs(batch[i].value - ref) <= batch[i].err, (k, z, batch[i], ref)


class TestThetaPassAgainstMpmath:
    """B_1, B_2 and pe = (2 pi i)^2 (B_1^2 - B_2) from the theta pass of
    the shifted symbols (`qseries._theta_pass`), within their err of two
    30-digit references: Kronecker's Lambert series of
    `TestKernelErrAgainstMpmath._bernoulli`, a formula of its own, and
    B_1 = y - theta_1'(pi z) / (2 i theta_1(pi z)) and pe = -E_2 - pi^2
    (log theta_1)''(pi z) by `mpmath.jtheta`.  The points are the grid and
    one 1e-9 from the lattice point 0, framed as the symbols frame theirs,
    at the grid's tau and at tau = 130i, where e(-y tau) leaves binary64."""

    TAUS = TestKernelErrAgainstMpmath.TAUS + (130j,)
    POINTS = TestKernelErrAgainstMpmath.GRID + ((1e-9, 0.0),)

    @staticmethod
    def _jtheta(mp, x, y, tau):
        y = y - mp.floor(y)
        nome, q, v = mp.exp(1j * mp.pi * tau), mp.exp(2j * mp.pi * tau), mp.pi * (x - y * tau)
        e2 = mp.pi**2 / 3 * (1 - 24 * mp.nsum(lambda n: n * q**n / (1 - q**n), [1, mp.inf]))
        th = [mp.jtheta(1, v, nome, k) for k in range(3)]
        b1 = y - th[1] / (2j * th[0])
        pe = -e2 - mp.pi**2 * (th[2] / th[0] - (th[1] / th[0]) ** 2)
        return b1, b1**2 + pe / (4 * mp.pi**2), pe

    @staticmethod
    def _lambert(mp, x, y, tau):
        b1, b2 = (TestKernelErrAgainstMpmath()._bernoulli(mp, m, x, y, tau) for m in (1, 2))
        return b1, b2, (2j * mp.pi) ** 2 * (b1**2 - b2)

    @staticmethod
    def _framed(t):
        at = qseries._checked(TauPoint(t), DEFAULT_POLICY)
        x, y = (np.array(c) for c in zip(*TestThetaPassAgainstMpmath.POINTS))
        f = qseries._frame(x, y, at, (np.zeros(len(x)), 0.0))
        return f.x, f.y, f.at, f.arg_err

    def _check(self, x, y, at, arg_err, err_scale=1.0):
        """The pass at the points, each value within err_scale times its
        err of both references; returns the errs."""
        mp = pytest.importorskip("mpmath")
        b1, b2 = qseries._theta_pass(x, y, at, arg_err)
        with mp.workdps(30):
            t = mp.mpc(at.tau.real, at.tau.imag)
            for i in range(len(x)):
                got = (b1[i], b2[i], (b1[i] * b1[i] - b2[i]) * TWO_PI_I**2)
                for ref in (self._jtheta, self._lambert):
                    refs = ref(mp, mp.mpf(x[i]), mp.mpf(y[i]), t)
                    for name, v, r in zip(("B_1", "B_2", "pe"), got, refs):
                        assert abs(v.value - complex(r)) <= err_scale * v.err, \
                            (name, ref.__name__, x[i], y[i], at.tau, v, complex(r))
        return b1.err, b2.err

    @pytest.mark.parametrize("t", TAUS)
    def test_framed_points(self, t):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowNomeWarning)
            self._check(*self._framed(t))

    def test_y_near_one_unsnapped(self):
        """At y = 1 - 1e-13, which a frame would snap to 1, the pass itself
        loses no digit: err <= 1e-14, where the Lambert kernel's is 6.5e-13
        at the snapped point."""
        at = qseries._checked(TauPoint(1j), DEFAULT_POLICY)
        errs = self._check(np.array([0.5]), np.array([1 - 1e-13]), at, (0.0, np.zeros(1)))
        assert max(errs[0][0], errs[1][0]) <= 1e-14

    def test_catches_a_tenth_of_err(self):
        """With err scaled by 0.1 the points fail at 0.25 + 1.1i, where
        B_2 next to the lattice point reads 0.27 of its err."""
        with pytest.raises(AssertionError):
            self._check(*self._framed(0.25 + 1.1j), err_scale=0.1)


#: a tau in F with a z 6e-4 from its lattice point -5 tau, as in
#: `tests/test_reduction.py::ERR_BOUND_CASES`, and z = 0.3 - y tau at
#: y = 1 - 1e-13, which the frame snaps to 1, on F and at 0.3 + 0.06i
_NEAR_TAU = -0.1166967753952336 + 1.8058395980904347j
SIGMA_LOG_NEAR_LATTICE_CASES = [(0.000606964196382398 - 5.000119024394501 * _NEAR_TAU, _NEAR_TAU)] + [
    (0.3 - (1 - 1e-13) * t, t) for t in (1j, 0.2 + 1.1j, 0.3 + 0.06j)]


class TestSigmaLogTauDerivativeAgainstMpmath:
    """d(log sigma)/dtau against the tau-derivative, taken by mpmath at 30
    digits, of log(theta_1(pi z) / (pi theta_1'(0))) + E_2 z^2 / 2, at z up
    to 0.45 (beyond the radius of the power series in z once Im tau <= 0.3)."""

    ZS = (0.13, 0.45, 0.3 - 0.02j, -0.4 + 0.03j)

    @staticmethod
    def _reference(mp, z, tau):
        def e2(t):
            q = mp.exp(2j * mp.pi * t)
            return mp.pi**2 / 3 * (1 - 24 * mp.nsum(lambda n: n * q**n / (1 - q**n), [1, mp.inf]))

        def log_sigma(t):
            nome = mp.exp(1j * mp.pi * t)
            theta = mp.jtheta(1, mp.pi * z, nome) / (mp.pi * mp.jtheta(1, 0, nome, 1))
            return mp.log(theta) + e2(t) * z**2 / 2

        return complex(mp.diff(log_sigma, tau))

    @pytest.mark.parametrize("tau", [0.25 + 1.1j, 0.2 + 0.3j, -0.1 + 0.11j, 0.3 + 0.06j])
    def test_err_bounds_reference(self, tau):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30), warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowNomeWarning)
            for z in self.ZS:
                v = sigma_log_tau_derivative(z, TauPoint(tau))
                ref = self._reference(mp, mp.mpc(z.real, z.imag), mp.mpc(tau.real, tau.imag))
                assert abs(v.value - ref) <= v.err <= 1e-6, (z, v, ref)

    @classmethod
    def _check(cls, z, tau, err_scale=1.0):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30), warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowNomeWarning)
            v = sigma_log_tau_derivative(z, TauPoint(tau))
            ref = cls._reference(mp, mp.mpc(z.real, z.imag), mp.mpc(tau.real, tau.imag))
        assert abs(v.value - ref) <= err_scale * v.err <= 1e-6, (z, tau, v, ref)

    @pytest.mark.parametrize("z, tau", SIGMA_LOG_NEAR_LATTICE_CASES,
                             ids=["near-lattice", "snap-1i", "snap-0.2+1.1i", "snap-0.3+0.06i"])
    def test_err_bounds_reference_near_the_lattice(self, z, tau):
        self._check(z, tau)

    def test_catches_a_tenth_of_err(self):
        # z = 0.45 at -0.1 + 0.11i reads 0.50 of its err
        self._check(0.45, -0.1 + 0.11j)
        with pytest.raises(AssertionError):
            self._check(0.45, -0.1 + 0.11j, 0.1)


#: (x, y, tau) at which the heat identity catches B_2's err scaled by 0.1:
#: off F just past Re tau = 1/2 and just inside the unit circle, and on F,
#: where the residual reads 0.27, 0.25 and 0.27 of the combined err, and
#: B_2's err is most of it
HEAT_TENTH_CASES = [
    (0.2901395790460032, 0.6633737623100991, 0.5014883939184078 + 0.880329706322305j),
    (-0.30551058135533904, -0.6666559107045804, 0.4881982041472184 + 0.8436483399807285j),
    (0.29223022281365674, -0.42842453045574513, 0.07024391329563207 + 1.0482175925429456j),
]

#: (x, y) in (-1, 1)^2 at least 1e-3 from every lattice point
_heat_points = st.tuples(st.floats(-0.999, 0.999), st.floats(-0.999, 0.999)).filter(
    lambda p: max(abs(p[0] - round(p[0])), abs(p[1] - round(p[1]))) > 1e-3)


class TestHeatIdentity:
    """B_2(x, y; tau) = B_1(x, y; tau)^2 - pe(x - y tau; tau) / (2 pi i)^2,
    the heat equation of theta_1 in Kronecker's form: three kernels on two
    series checking each other within their combined err, on F and off it.
    R^-(x) and Prop. 3.1 read pe at k = 0 through it, as B_1^2 - B_2."""

    @staticmethod
    def _residual(x, y, t, b2_scale=1.0):
        tau = TauPoint(t)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowNomeWarning)
            b1, b2 = (elliptic_bernoulli_points(m, [x], [y], tau)[0] for m in (1, 2))
            pe = weierstrass_p_deriv_points(0, [x - y * t], tau)[0]
        b2 = ComplexVal(b2.value, b2_scale * b2.err)
        return b2 - (b1 * b1 - pe * (1.0 / (TWO_PI_I**2).real))

    @given(point=_heat_points, re=st.floats(-1.5, 1.5), im=st.floats(0.06, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_within_combined_err(self, point, re, im):
        r = self._residual(*point, complex(re, im))
        assert abs(r.value) <= r.err, (point, re, im, r)

    @pytest.mark.parametrize("x, y, t", HEAT_TENTH_CASES)
    def test_catches_a_tenth_of_b2_err(self, x, y, t):
        r = self._residual(x, y, t)
        assert abs(r.value) <= r.err
        r = self._residual(x, y, t, 0.1)
        assert abs(r.value) > r.err, r
