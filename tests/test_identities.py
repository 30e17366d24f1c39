"""Period data, coefficient identities, the one-dimensional span identity and
the basis-rank demonstration."""

import math
import warnings
from fractions import Fraction

import pytest

from ellded import identities, qseries
from ellded.exact import CoprimePair, bernoulli_number, dim_data, g_poly
from ellded.qseries import SlowNomeWarning, TauPoint
from ellded.symbols import reciprocity_rhs
from ellded.identities import (
    _eq64_alpha,
    basis_rank,
    c_coefficients,
    coefficient_scale,
    eisenstein_period_data,
    random_taus,
    reciprocity_laurent,
    t_weighted,
    verify_eq64_onedim,
    verify_eq73,
    verify_three_term,
)

TWO_PI_I = 2j * math.pi
TAU_I = TauPoint(1j)
TAU_G = TauPoint(0.3 + 1.0j)


def _const_eisenstein(n: int) -> complex:
    """Large-Im(tau) limit of E_{2n}: the constant term 2 zeta(2n)."""
    return (-(TWO_PI_I ** (2 * n)) * float(bernoulli_number(2 * n))
            / math.factorial(2 * n))


class TestCoefficients:
    def test_boundary_values(self):
        for n in (1, 2, 3):
            cv = c_coefficients(n, TAU_G)
            e_top = cv.c[0]
            assert cv.c[n + 1].value == e_top.value
            # boundary coefficient is E_{2n+2}
            import ellded.qseries as qs
            direct = qs.eisenstein(n + 1, TAU_G)
            assert abs(e_top.value - direct.value) <= e_top.err + direct.err

    def test_symmetry_exact(self):
        for n in (1, 2, 3, 4):
            cv = c_coefficients(n, TAU_I)
            for j in range(n + 2):
                assert cv.c[j].value == cv.c[n + 1 - j].value

    def test_sum_matches_weighted_polynomial(self):
        n = 2
        cv = c_coefficients(n, TAU_I)
        total = sum(c.value for c in cv.c)
        t = t_weighted(n, CoprimePair(1, 1), TAU_I)
        assert abs(total - t.value) <= t.err + sum(c.err for c in cv.c)

    def test_expansion_at_sample_pair(self):
        n, p, q = 2, 3, 2
        cv = c_coefficients(n, TAU_G)
        poly = sum(c.value * p ** (2 * j) * q ** (2 * n + 2 - 2 * j)
                   for j, c in enumerate(cv.c))
        t = t_weighted(n, CoprimePair(p, q), TAU_G)
        assert abs(poly - t.value) < 1e-9 * coefficient_scale(n, TAU_G)

    def test_large_im_rational_limit(self):
        # every E collapses to its constant term
        tau = TauPoint(40j)
        for n in (1, 2):
            cv = c_coefficients(n, tau)
            e_top = _const_eisenstein(n + 1)
            for j in range(n + 2):
                if j == 0 or j == n + 1:
                    expected = e_top
                else:
                    expected = -(_const_eisenstein(j)
                                 * _const_eisenstein(n + 1 - j))
                assert abs(cv.c[j].value - expected) < 1e-8 * abs(expected)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            c_coefficients(0, TAU_I)


class TestCoefficientIdentity:
    def test_van_der_pol_case(self):
        r = verify_eq73(1, 1, TAU_G)
        assert abs(r.value) < 1e-9 * coefficient_scale(1, TAU_G)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_k_sweep(self, n):
        scale = coefficient_scale(n, TAU_I)
        for k in range(1, 2 * n + 3):
            r = verify_eq73(n, k, TAU_I)
            assert abs(r.value) < 1e-8 * scale

    def test_boundary_k(self):
        n = 2
        r = verify_eq73(n, 2 * n + 2, TauPoint(1.2j))
        assert abs(r.value) < 1e-9 * coefficient_scale(n, TauPoint(1.2j))

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            verify_eq73(1, 0, TAU_I)
        with pytest.raises(ValueError):
            verify_eq73(1, 5, TAU_I)

    @staticmethod
    def _eq73_loop(n, cs):
        """The residuals of eq73 by the double loop over k and i that formed
        them before their weights were tabled per n."""
        out = []
        for k in range(1, 2 * n + 3):
            lhs = qseries.ComplexVal(0j, 0.0)
            for i in range(n + 2):
                if 2 * i >= k - 1:
                    lhs = lhs + cs[i] * float(math.comb(2 * i, k - 1))
                if 2 * i <= k:
                    lhs = lhs + cs[i] * float(math.comb(2 * n + 2 - 2 * i, 2 * n + 2 - k))
            out.append(lhs - cs[k // 2])
        return tuple(out)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_weight_table_keeps_the_loop_bits(self, n):
        # the tabled weights run the loop's ComplexVal operations in its
        # order, so that every residual keeps its bits
        for tau in (TAU_G, TauPoint(-0.45 + 0.7j), TauPoint(0.2 + 0.3j)):
            cs = c_coefficients(n, tau).c
            assert ([repr(r) for r in identities._eq73_of(n, cs)]
                    == [repr(r) for r in self._eq73_loop(n, cs)])


class TestThreeTerm:
    @pytest.mark.parametrize("n,p,q,tau", [
        (1, 2, 1, TAU_I),
        (2, 3, 2, TauPoint(0.2 + 1.3j)),
        (1, 1, 1, TAU_I),
    ])
    def test_vanishes(self, n, p, q, tau):
        r = verify_three_term(n, CoprimePair(p, q), tau)
        assert abs(r.value) < 1e-8

    def test_requires_u(self):
        with pytest.raises(ValueError):
            verify_three_term(1, CoprimePair(2, -1), TAU_I)


class TestPeriodData:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_odd_period_equals_g_poly(self, n):
        pd = eisenstein_period_data(n)
        assert pd.odd_period == g_poly(2 * n)

    def test_odd_period_symmetric(self):
        pd = eisenstein_period_data(2)
        assert pd.odd_period == pd.odd_period.swap_vars()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_r2n_purely_imaginary(self, n):
        pd = eisenstein_period_data(n)
        assert abs(pd.r2n.real) < 1e-18
        assert pd.r2n.imag != 0

    def test_petersson_sign_follows_bernoulli(self):
        for n in (1, 2, 3):
            pd = eisenstein_period_data(n)
            b = bernoulli_number(2 * n + 2)
            assert (pd.petersson > 0) == (b > 0)


class TestOneDimSpan:
    @pytest.mark.parametrize("w,tau", [
        (2, TAU_I), (4, TauPoint(0.2 + 1.2j)), (6, TAU_G),
        (8, TauPoint(1.1j)), (12, TauPoint(0.1 + 1.1j)),
    ])
    def test_residual_small(self, w, tau):
        res = verify_eq64_onedim(w, tau)
        lhs, _ = reciprocity_laurent(w, tau)
        assert res.max_abs_coeff() < 1e-7 * lhs.max_abs_coeff()

    def test_alpha_is_the_period_ratio(self):
        # the exact alpha_w against the float scalar it replaced, built from
        # the period data, whose zeta(w+1) cancels
        assert [_eq64_alpha(w) for w in (2, 4, 6, 8, 12)] == [
            -240, 42, Fraction(-4, 3), Fraction(11, 840), Fraction(1, 9979200)]
        for w in range(2, 26, 2):
            pd = eisenstein_period_data(w // 2)
            ratio = (2j * math.pi**w / math.factorial(w)) * pd.r2n / pd.petersson
            exact = TWO_PI_I**w * float(_eq64_alpha(w))
            assert abs(exact - ratio) <= 1e-13 * abs(ratio), w

    def test_rejects_cuspidal_weight(self):
        with pytest.raises(ValueError):
            verify_eq64_onedim(10, TAU_I)

    @pytest.mark.parametrize("tau", [TauPoint(0.3 + 1.1j), TauPoint(-0.2 + 0.8j),
                                     TauPoint(0.2 + 0.3j), TauPoint(0.4 + 0.11j)])
    def test_laurent_matches_closed_form(self, tau):
        # the Laurent form, built from c_j at tau itself, against
        # reciprocity_rhs, which sums the Eisenstein products itself, at tau
        # reduced to F outside F: within the coefficients' err times
        # sum |p^i q^j| plus R's err
        for n in range(1, 7):
            poly, coeff_err = reciprocity_laurent(2 * n, tau)
            for p, q in [(1, 1), (2, 1), (3, 2), (5, 3), (21, 13), (2, 29)]:
                rhs = reciprocity_rhs(n, CoprimePair(p, q), tau)
                bound = coeff_err * sum(float(p) ** i * float(q) ** j for i, j in poly.coeffs)
                assert abs(poly.evaluate(p, q) - rhs.value) <= bound + rhs.err, (n, p, q)

    def test_laurent_support(self):
        # exponent pairs (2j-1, 2n+1-2j) for j = 0..n+1 plus the (-1,-1) term
        n = 3
        poly, _ = reciprocity_laurent(2 * n, TAU_G)
        expected = {(2 * j - 1, 2 * n + 1 - 2 * j) for j in range(n + 2)}
        expected.add((-1, -1))
        assert set(poly.coeffs) <= expected


class TestBasisRank:
    def test_examples(self):
        assert basis_rank(10, random_taus(4, seed=7)) == 2
        assert basis_rank(12, random_taus(3, seed=7)) == 1
        assert basis_rank(2, random_taus(1, seed=7)) == 1

    def test_empty_sample_has_rank_zero(self):
        for w in range(2, 42, 2):
            assert basis_rank(w, []) == 0

    def test_rejected_tau_raises_before_any_series(self, monkeypatch):
        # every tau is checked in order, each with its own warning, and the
        # first rejected one raises before a q-sum runs, the Eisenstein
        # product is formed or a cache is read
        taus = [TauPoint(0.1 + 0.09j), TauPoint(0.2 + 1.1j), TauPoint(0.3 + 0.08j),
                TauPoint(0.1 + 0.04j), TauPoint(0.2 + 0.07j)]
        ran = []
        monkeypatch.setattr(qseries, "_eisenstein_q_sums", lambda *args: ran.append(args))
        before = qseries._eisenstein_q_sum.cache_info()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", SlowNomeWarning)
            with pytest.raises(ValueError, match="Im\\(tau\\) = 0.04 below"):
                basis_rank(6, taus)
        assert [str(w.message).split(" gives")[0] for w in caught
                if issubclass(w.category, SlowNomeWarning)] == ["Im(tau) = 0.09",
                                                                "Im(tau) = 0.08"]
        assert not ran and qseries._eisenstein_q_sum.cache_info() == before

    @pytest.mark.parametrize("w", [2, 4, 6, 8, 10, 12, 14])
    def test_matches_dimension_and_never_exceeds(self, w):
        d, dim_m = dim_data(w)
        rank = basis_rank(w, random_taus(d + 3, seed=11))
        assert rank == dim_m
        rank_more = basis_rank(w, random_taus(d + 6, seed=13))
        assert rank_more <= dim_m

    def test_reproducible_sampling(self):
        a = [t.tau for t in random_taus(5, seed=3)]
        b = [t.tau for t in random_taus(5, seed=3)]
        assert a == b
        for t in random_taus(20, seed=5):
            assert -0.4 <= t.tau.real <= 0.4
            assert 0.8 <= t.tau.imag <= 1.5
