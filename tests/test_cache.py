"""The per-tau Eisenstein caches: values bit-identical cold and warm, and the
per-call contract (tau checks, warnings, errors) kept outside the caches."""

import hashlib
import warnings

import pytest

from ellded import identities, qseries, symbols
from ellded.exact import CoprimePair
from ellded.qseries import NonConvergenceError, SeriesPolicy, SlowNomeWarning, TauPoint

#: Re tau = +0.0 next to -0.0: the two hash equal, so the second reads the
#: first's cache entries
GRID_TAUS = [complex(0.0, 1.5), complex(-0.0, 1.5), 0.3 + 1.1j, -0.45 + 0.7j,
             0.2 + 0.3j, 0.1 + 0.11j]
GRID_PAIRS = [(3, 2), (5, 3), (7, 4)]
#: the grid's tau in the fundamental domain, where the zeta and pe kernels
#: run unreduced
GRID_TAUS_IN_F = [complex(0.0, 1.5), 0.3 + 1.1j]

#: SHA-256 of the pinned reprs of `_grid_reprs()`, every value that no tau
#: reduction touches, as computed with the unreduced kernels (whose whole
#: grid matched its value before the caches were added) and zeta as
#: b + E_2 z with b from B_1
GRID_SHA256 = "268d7a14fcbb13e3eb6e7351f3168004c9a64cb1f1b27bf056332c48695249f0"


def _clear_caches():
    qseries._eisenstein_q_sum.cache_clear()
    symbols._eisenstein_table.cache_clear()
    identities._c_coefficients_values.cache_clear()
    identities._eq73_residuals.cache_clear()
    identities._coefficient_scale.cache_clear()
    identities._laurent_terms.cache_clear()
    identities._eq64_residual.cache_clear()


#: the caches of `identities` behind one (n, tau) each
IDENTITY_CACHES = ("_c_coefficients_values", "_eq73_residuals", "_coefficient_scale",
                   "_laurent_terms", "_eq64_residual")
#: the weights with d_w = 0, where eq64 runs
EQ64_WEIGHTS = (2, 4, 6, 8, 12)


def _grid_reprs():
    """repr of every cached or cache-reading value over the grid: those
    that the pin covers, and the zeta and pe kernels at tau outside F,
    which read the caches at the reduced tau."""
    out, reduced = [], []
    for t in GRID_TAUS:
        tau = TauPoint(t)
        for n in range(1, 9):
            out += [qseries.eisenstein(n, tau), qseries.eisenstein_normalized(n, tau),
                    qseries.eisenstein_tau_derivative(n, tau),
                    symbols._eisenstein_table(n, qseries._checked(tau, qseries.DEFAULT_POLICY)),
                    identities.c_coefficients(n, tau),
                    identities.coefficient_scale(n, tau),
                    identities.reciprocity_laurent(2 * n, tau)]
            out += [identities.verify_eq73(n, k, tau) for k in range(1, 2 * n + 3)]
            for p, q in GRID_PAIRS:
                pair = CoprimePair(p, q)
                out += [symbols.reciprocity_rhs(n, pair, tau),
                        identities.t_weighted(n, pair, tau),
                        identities.verify_three_term(n, pair, tau)]
        kernels = [qseries.weierstrass_zeta_points([0.3 + 0.1j, 0.45 - 0.2j], tau),
                   qseries.weierstrass_p_deriv_points(0, [0.3 + 0.1j, 0.45 - 0.2j], tau)]
        if t in GRID_TAUS_IN_F:
            out += kernels
        else:
            reduced += kernels
        out.append(symbols.expected_constant(CoprimePair(5, 3), tau))
    out += [identities.basis_rank(w, identities.random_taus(6, 3)) for w in (2, 10, 22)]
    return [repr(v) for v in out], [repr(v) for v in reduced]


def _digest(reprs):
    return hashlib.sha256("\n".join(reprs).encode()).hexdigest()


def _warnings_of(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SlowNomeWarning)
        call()
    return sum(issubclass(w.category, SlowNomeWarning) for w in caught)


def test_cold_and_warm_values_bit_identical():
    _clear_caches()
    cold = _grid_reprs()
    warm = _grid_reprs()
    assert warm == cold
    assert _digest(cold[0]) == GRID_SHA256


def test_signed_zero_real_part_shares_entries():
    _clear_caches()
    plus, minus = TauPoint(complex(0.0, 1.5)), TauPoint(complex(-0.0, 1.5))
    assert plus == minus and hash(plus) == hash(minus)
    first = qseries.eisenstein(3, plus)
    misses = qseries._eisenstein_q_sum.cache_info().misses
    again = qseries.eisenstein(3, minus)
    assert qseries._eisenstein_q_sum.cache_info().misses == misses
    assert repr(again) == repr(first)


class TestCacheContract:
    slow = TauPoint(0.08j)

    def test_warnings_per_call(self):
        _clear_caches()
        assert _warnings_of(lambda: qseries.eisenstein(1, self.slow)) == 1
        assert _warnings_of(lambda: qseries.eisenstein(1, self.slow)) == 1
        pair = CoprimePair(3, 2)
        for _ in range(2):
            assert _warnings_of(lambda: symbols.reciprocity_rhs(2, pair, self.slow)) == 1
            assert _warnings_of(lambda: identities.verify_eq73(2, 3, self.slow)) == 1
        # the public calls that combine several Eisenstein values check tau
        # once, at 0.1+0.08i as at 0.08i
        for tau in (self.slow, TauPoint(0.1 + 0.08j)):
            for _ in range(2):
                assert _warnings_of(lambda: identities.verify_three_term(2, pair, tau)) == 1
                assert _warnings_of(lambda: identities.t_weighted(2, pair, tau)) == 1
                assert _warnings_of(lambda: identities.verify_eq64_onedim(4, tau)) == 1
                assert _warnings_of(lambda: identities.reciprocity_laurent(4, tau)) == 1
                assert _warnings_of(lambda: identities.coefficient_scale(2, tau)) == 1

    def test_eq73_table_built_once_per_n_tau(self):
        _clear_caches()
        tau = TauPoint(0.3 + 1.1j)
        for _ in range(2):
            for k in range(1, 9):
                identities.verify_eq73(3, k, tau)
        info = identities._eq73_residuals.cache_info()
        assert (info.misses, info.hits) == (1, 15)
        assert identities._c_coefficients_values.cache_info().misses == 1

    def test_eq64_built_once_per_w_tau(self):
        _clear_caches()
        taus = [TauPoint(0.3 + 1.1j), TauPoint(-0.2 + 0.9j), TauPoint(0.3 + 1.1j)]
        for _ in range(2):
            for w in EQ64_WEIGHTS:
                for tau in taus:
                    identities.verify_eq64_onedim(w, tau)
                    identities.reciprocity_laurent(w, tau)
                    identities.coefficient_scale(w // 2, tau)
        distinct = len(EQ64_WEIGHTS) * 2
        calls = 2 * len(EQ64_WEIGHTS) * len(taus)
        for name in ("_eq64_residual", "_coefficient_scale"):
            info = getattr(identities, name).cache_info()
            assert (name, info.misses, info.hits) == (name, distinct, calls - distinct)
        # each residual build and each reciprocity_laurent call reads the
        # Laurent coefficients, which are built once per (w, tau) as well
        info = identities._laurent_terms.cache_info()
        assert (info.misses, info.hits) == (distinct, calls)
        assert identities._c_coefficients_values.cache_info().misses == distinct

    def test_laurent_results_are_copies(self):
        _clear_caches()
        tau = TauPoint(0.3 + 1.1j)
        for w in EQ64_WEIGHTS:
            res = identities.verify_eq64_onedim(w, tau)
            poly, err = identities.reciprocity_laurent(w, tau)
            want = (repr(res), repr(poly), err)
            for p in (res, poly):
                p.coeffs[(-1, -1)] = 1.0
                p.coeffs[(99, 99)] = 2.0
                p.coeffs.pop((1, w - 1), None)
            res2 = identities.verify_eq64_onedim(w, tau)
            poly2, err2 = identities.reciprocity_laurent(w, tau)
            assert (repr(res2), repr(poly2), err2) == want

    @pytest.mark.parametrize("w", EQ64_WEIGHTS)
    @pytest.mark.parametrize("t", [0.3 + 1.1j, complex(0.0, 1.5), 0.2 + 0.3j, -0.45 + 0.7j])
    def test_cached_equal_uncached(self, w, t):
        # t in F, then outside F; cold, then warm
        n = w // 2
        at = qseries._checked(TauPoint(t), qseries.DEFAULT_POLICY)

        def uncached():
            terms, err = identities._laurent_terms.__wrapped__(n, at)
            return (repr(dict(identities._eq64_residual.__wrapped__(n, at))),
                    repr(dict(terms)), repr(err),
                    repr(identities._coefficient_scale.__wrapped__(n, at)))

        def public():
            poly, err = identities.reciprocity_laurent(w, TauPoint(t))
            return (repr(identities.verify_eq64_onedim(w, TauPoint(t)).coeffs),
                    repr(poly.coeffs), repr(err),
                    repr(identities.coefficient_scale(n, TauPoint(t))))

        _clear_caches()
        want = uncached()
        _clear_caches()
        assert public() == want
        assert public() == want
        assert uncached() == want

    def test_rejection_not_cached(self):
        _clear_caches()
        policy = SeriesPolicy(min_im_tau=0.1)
        for _ in range(2):
            with pytest.raises(ValueError, match="below the accepted bound"):
                qseries.eisenstein(2, self.slow, policy)
            with pytest.raises(ValueError, match="below the accepted bound"):
                symbols._eisenstein_table(2, qseries._checked(self.slow, policy))
            with pytest.raises(ValueError, match="below the accepted bound"):
                identities.verify_eq73(2, 1, self.slow, policy)

    def test_nonconvergence_not_cached(self):
        _clear_caches()
        policy = SeriesPolicy(max_terms=10)
        tau = TauPoint(0.1 + 0.2j)
        for _ in range(2):
            with pytest.raises(NonConvergenceError):
                qseries.eisenstein(3, tau, policy)
            with pytest.raises(NonConvergenceError):
                symbols.reciprocity_rhs(2, CoprimePair(3, 2), tau, policy)
            with pytest.raises(NonConvergenceError):
                identities.c_coefficients(2, tau, policy)
            with pytest.raises(NonConvergenceError):
                identities.verify_eq73(2, 1, tau, policy)
            with pytest.raises(NonConvergenceError):
                identities.verify_eq64_onedim(4, tau, policy)
            with pytest.raises(NonConvergenceError):
                identities.reciprocity_laurent(4, tau, policy)
            with pytest.raises(NonConvergenceError):
                identities.coefficient_scale(2, tau, policy)
        assert qseries._eisenstein_q_sum.cache_info().currsize == 0
        assert symbols._eisenstein_table.cache_info().currsize == 0
        for name in IDENTITY_CACHES:
            assert (name, getattr(identities, name).cache_info().currsize) == (name, 0)

    def test_bounded(self):
        _clear_caches()
        for i in range(5000):
            tau = TauPoint(complex(i * 1e-4, 1.2))
            symbols._eisenstein_table(1, qseries._checked(tau, qseries.DEFAULT_POLICY))
            identities.c_coefficients(1, tau)
            identities.verify_eq73(1, 1, tau)
            identities.verify_eq64_onedim(2, tau)
            identities.coefficient_scale(1, tau)
        for cached in (qseries._eisenstein_q_sum, symbols._eisenstein_table,
                       *(getattr(identities, name) for name in IDENTITY_CACHES)):
            info = cached.cache_info()
            assert info.maxsize is not None and info.misses >= 5000
            assert info.currsize <= info.maxsize
