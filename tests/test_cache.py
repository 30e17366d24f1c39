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
#: grid matched its value before the caches were added)
GRID_SHA256 = "4606af585ebd18b6566511883dcb1e9d4ed0b3865203065870dc9e1fb6b7126b"


def _clear_caches():
    qseries._eisenstein_q_sum.cache_clear()
    symbols._eisenstein_table_values.cache_clear()
    identities._c_coefficients_values.cache_clear()


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
                    symbols._eisenstein_table(n, tau, qseries.DEFAULT_POLICY),
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

    def test_rejection_not_cached(self):
        _clear_caches()
        policy = SeriesPolicy(min_im_tau=0.1)
        for _ in range(2):
            with pytest.raises(ValueError, match="below the accepted bound"):
                qseries.eisenstein(2, self.slow, policy)
            with pytest.raises(ValueError, match="below the accepted bound"):
                symbols._eisenstein_table(2, self.slow, policy)

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
        assert qseries._eisenstein_q_sum.cache_info().currsize == 0
        assert symbols._eisenstein_table_values.cache_info().currsize == 0
        assert identities._c_coefficients_values.cache_info().currsize == 0

    def test_bounded(self):
        _clear_caches()
        for i in range(5000):
            tau = TauPoint(complex(i * 1e-4, 1.2))
            symbols._eisenstein_table(1, tau, qseries.DEFAULT_POLICY)
            identities.c_coefficients(1, tau)
        for cached in (qseries._eisenstein_q_sum, symbols._eisenstein_table_values,
                       identities._c_coefficients_values):
            info = cached.cache_info()
            assert info.maxsize is not None and info.misses >= 5000
            assert info.currsize <= info.maxsize
