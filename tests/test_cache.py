"""The per-tau Eisenstein caches, the q-sums and the identities' one record
per (n, tau): values bit-identical cold and warm, and the per-call contract
(argument and tau checks, warnings, errors) kept outside the caches."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from ellded import exact, identities, qseries, symbols
from ellded.exact import CoprimePair
from ellded.qseries import NonConvergenceError, SeriesPolicy, SlowNomeWarning, TauPoint

#: Re tau = +0.0 next to -0.0: the two hash equal, so the second reads the
#: first's cache entries
GRID_TAUS = [complex(0.0, 1.5), complex(-0.0, 1.5), 0.3 + 1.1j, -0.45 + 0.7j,
             0.2 + 0.3j, 0.1 + 0.11j]
GRID_PAIRS = [(3, 2), (5, 3), (7, 4)]
#: the grid's tau in the fundamental domain, where the zeta and pe kernels
#: and reciprocity_rhs run unreduced
GRID_TAUS_IN_F = [complex(0.0, 1.5), 0.3 + 1.1j]

#: SHA-256 of the pinned reprs of `_grid_reprs()`, every value that no tau
#: reduction touches, as computed with the unreduced kernels (whose whole
#: grid matched its value before the caches were added), zeta as
#: b + E_2 z with b from B_1, and the kernels' err in F charging the
#: rounding of their decomposition z = x - y tau
GRID_SHA256 = "c95c4d34da95a052388380d09fe8d037f8ff2bf58e9e80d54d679f5cbddd7c24"


#: the per-tau tables of the point series, each of TAU_CACHE_SIZE entries
TAU_TABLES = (qseries._reduction, qseries._points_rows, qseries._nome,
              qseries._bernoulli_rows, qseries._pe_rows)


def _clear_caches():
    qseries._eisenstein_q_sum.cache_clear()
    identities._record.cache_clear()
    for table in TAU_TABLES:
        table.cache_clear()


#: the weights with d_w = 0, where eq64 runs
EQ64_WEIGHTS = (2, 4, 6, 8, 12)


def _grid_values():
    """Every cached or cache-reading value over the grid: those that the
    pin covers, and the zeta and pe kernels and reciprocity_rhs at tau
    outside F, which read the caches at the reduced tau."""
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
                rhs = symbols.reciprocity_rhs(n, pair, tau)
                (out if t in GRID_TAUS_IN_F else reduced).append(rhs)
                out += [identities.t_weighted(n, pair, tau),
                        identities.verify_three_term(n, pair, tau)]
        kernels = [qseries.weierstrass_zeta_points([0.3 + 0.1j, 0.45 - 0.2j], tau),
                   qseries.weierstrass_p_deriv_points(0, [0.3 + 0.1j, 0.45 - 0.2j], tau)]
        if t in GRID_TAUS_IN_F:
            out += kernels
        else:
            reduced += kernels
        out.append(symbols.expected_constant(CoprimePair(5, 3), tau))
    out += [identities.basis_rank(w, identities.random_taus(6, 3)) for w in (2, 10, 22)]
    return out, reduced


def _grid_reprs():
    """repr of every value of `_grid_values()`, in its two lists."""
    out, reduced = _grid_values()
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
        info = identities._record.cache_info()
        assert (info.misses, info.hits) == (1, 15)

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
        # the three calls of each round read one record per (w, tau)
        info = identities._record.cache_info()
        assert (info.misses, info.hits) == (distinct, 3 * calls - distinct)

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
            rec = identities._record.__wrapped__(n, at)
            return (repr(dict(rec.eq64)), repr(dict(rec.laurent)), repr(rec.laurent_err),
                    repr(rec.scale))

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
            # R runs at tau reduced to 4i, where 10 terms suffice; no q-sum
            # stops within 2
            with pytest.raises(NonConvergenceError):
                symbols.reciprocity_rhs(2, CoprimePair(3, 2), tau, SeriesPolicy(max_terms=2))
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
        assert identities._record.cache_info().currsize == 0

    def test_bounded(self):
        _clear_caches()
        for i in range(5000):
            tau = TauPoint(complex(i * 1e-4, 1.2))
            identities.c_coefficients(1, tau)
            identities.verify_eq73(1, 1, tau)
            identities.verify_eq64_onedim(2, tau)
            identities.coefficient_scale(1, tau)
        for cached in (qseries._eisenstein_q_sum, identities._record):
            info = cached.cache_info()
            assert info.maxsize is not None and info.misses >= 5000
            assert info.currsize <= info.maxsize


def test_one_record_per_n_tau():
    """Every identity check at one (n, tau) reads one record, built from the
    n + 2 q-sums of its Eisenstein table; a rejected tau or a
    NonConvergenceError leaves no record behind."""
    n, tau, pair = 2, TauPoint(0.3 + 1.1j), CoprimePair(3, 2)

    def checks():
        return [repr(v) for v in (
            identities.c_coefficients(n, tau),
            *(identities.verify_eq73(n, k, tau) for k in range(1, 2 * n + 3)),
            identities.coefficient_scale(n, tau),
            identities.reciprocity_laurent(2 * n, tau),
            identities.verify_eq64_onedim(2 * n, tau),
            identities.t_weighted(n, pair, tau),
            identities.verify_three_term(n, pair, tau))]

    def misses():
        return (identities._record.cache_info().misses,
                qseries._eisenstein_q_sum.cache_info().misses)

    _clear_caches()
    with pytest.raises(ValueError, match="below the accepted bound"):
        identities.verify_three_term(n, pair, TauPoint(0.08j), SeriesPolicy(min_im_tau=0.1))
    with pytest.raises(NonConvergenceError):
        identities.verify_three_term(n, pair, TauPoint(0.1 + 0.2j), SeriesPolicy(max_terms=10))
    assert identities._record.cache_info().currsize == 0
    _clear_caches()
    cold = checks()
    assert misses() == (1, n + 2)
    assert checks() == cold
    assert misses() == (1, n + 2)


@pytest.mark.parametrize("call", [symbols.reciprocity_rhs, identities.t_weighted])
def test_pair_outside_u_raises_before_tau(call):
    """A pair outside U raises before tau is checked: no SlowNomeWarning
    and no q-sum read."""
    before = qseries._eisenstein_q_sum.cache_info()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=r"\(3, -2\) is not in U"):
            call(2, CoprimePair(3, -2), TauPoint(0.08j))
    assert caught == []
    assert qseries._eisenstein_q_sum.cache_info() == before


ORDER_TAU = TauPoint(0.1 + 1.1j)
#: (call of an order v, an int order, one that is no int, the name the
#: error gives it) for every order a cache is keyed on or built from
NON_INT_ORDERS = [
    (lambda v: qseries.eisenstein(v, ORDER_TAU), 2, 2.0, "n"),
    (lambda v: qseries.eisenstein_tau_derivative(v, ORDER_TAU), 2, True, "n"),
    (lambda v: identities.verify_eq73(v, 1, ORDER_TAU), 2, 2.0, "n"),
    (lambda v: identities.verify_eq73(2, v, ORDER_TAU), 1, True, "k"),
    (lambda v: identities.verify_eq73(2, v, ORDER_TAU), 1, 1.0, "k"),
    (lambda v: identities.reciprocity_laurent(v, ORDER_TAU), 4, 4.0, "w"),
    (lambda v: identities.verify_eq64_onedim(v, ORDER_TAU), 4, 4.0, "w"),
    (lambda v: identities.basis_rank(v, identities.random_taus(4, 1)), 4, 4.0, "w"),
    (lambda v: symbols.elliptic_apostol_sum(v, CoprimePair(3, 2), ORDER_TAU), 2, 2.0, "n"),
    (lambda v: exact.apostol_sum(v, 3, 7), 4, 4.0, "k"),
    (lambda v: exact.apostol_sum(v, 3, 7), 3, True, "k"),
    (lambda v: qseries.weierstrass_p_deriv(v, 0.1 + 0.2j, ORDER_TAU), 1, 1.0, "k"),
    (lambda v: qseries.weierstrass_p_deriv(v, 0.1 + 0.2j, ORDER_TAU), 1, True, "k"),
    (lambda v: qseries.weierstrass_p_deriv_points(v, [0.1 + 0.2j], ORDER_TAU), 2, 2.0, "k"),
    (lambda v: qseries.weierstrass_zeta_deriv(v, 0.1 + 0.2j, ORDER_TAU), 2, 1.0, "j"),
    (lambda v: qseries.weierstrass_zeta_deriv(v, 0.1 + 0.2j, ORDER_TAU), 2, True, "j"),
]


def _sigma_tables_are_ints():
    return all(type(s) is int for ell in range(1, 8, 2) for count in (32, 64)
               for s in qseries._divisor_power_sums(ell, count))


@pytest.mark.parametrize("call, good, bad, name", NON_INT_ORDERS,
                         ids=["eisenstein", "dtau_bool", "eq73_n", "eq73_k_bool", "eq73_k",
                              "laurent", "eq64", "basis_rank", "elliptic_sum",
                              "apostol_k", "apostol_k_bool", "pe_deriv", "pe_deriv_bool",
                              "pe_deriv_points", "zeta_deriv", "zeta_deriv_bool"])
def test_non_int_order_rejected_before_the_caches(call, good, bad, name):
    """An order that is no int raises ValueError before any cache is read:
    cold, with no sigma table built, and warm, once its int twin has filled
    the caches, whose entry an equal float would read; every sigma table
    stays of ints."""
    _clear_caches()
    qseries._divisor_power_sums.cache.cache_clear()
    with pytest.raises(ValueError, match=rf"^{name} must be an int, got {bad!r}$"):
        call(bad)
    assert qseries._divisor_power_sums.cache.cache_info().currsize == 0
    want = repr(call(good))
    with pytest.raises(ValueError, match=rf"^{name} must be an int, got {bad!r}$"):
        call(bad)
    assert _sigma_tables_are_ints()
    # a numpy integer is an int, cold and warm
    _clear_caches()
    qseries._divisor_power_sums.cache.cache_clear()
    assert repr(call(np.int64(good))) == want == repr(call(good))
    assert _sigma_tables_are_ints()


# ---------------------------------------------------------------------------
# The per-tau tables of the point series
# ---------------------------------------------------------------------------

#: on F, just off it (one S step) and far off it
TABLE_TAUS = [0.3 + 1.1j, -0.45 + 0.7j, 0.2 + 0.3j]


def _division_calls(tau):
    """Every symbol over division points at tau: both routes at n = 1..3,
    D^-(x) and R^-(x), a Prop. 3.1 residual and the Machide triple, at two
    pairs."""
    calls = []
    for p, q in [(5, 3), (7, 4)]:
        pair = CoprimePair(p, q)
        calls += [lambda n=n, r=r, pair=pair: symbols.elliptic_apostol_sum(n, pair, tau, r).value
                  for n in (1, 2, 3) for r in symbols.Route]
        x = 0.3 / (2 * p)
        calls += [lambda pair=pair, x=x: symbols.generating_D(pair, tau, x),
                  lambda pair=pair, x=x: symbols.generating_R(pair, tau, x),
                  lambda pair=pair, x=x: symbols.proposition31_residual(pair, x, tau),
                  lambda pair=pair: symbols.machide_reciprocity_residuals(pair, 0.013, 0.007, tau)]
    return calls


@pytest.mark.parametrize("t", TABLE_TAUS)
def test_tau_tables_cold_and_warm_bit_identical(t):
    """Each symbol's value and err with every table cleared before it
    equal those of a run in which every table is warm, its own entries and
    those of the other symbols at tau, on F and off it."""
    calls = _division_calls(TauPoint(t))
    cold = []
    for call in calls:
        _clear_caches()
        cold.append(repr(call()))
    for call in calls:
        call()
    assert [repr(call()) for call in calls] == cold


def test_tau_tables_keyed_on_the_whole_record():
    """A record of tau' with dtau != 0 reads no entry of the caller's
    record of the same tau, in either order: its rows charge the error of
    tau, and its B_1 and pe values have the err of a cold run."""
    tau = TauPoint(0.3 + 1.1j)
    at = qseries._checked(tau, qseries.DEFAULT_POLICY)
    held = at._replace(dtau=2.0**-50)
    assert held.tau == at.tau and held != at
    xs, ys = np.array([0.1, 0.35, -0.2]), np.array([0.0, 0.25, 0.6])
    errs = (np.zeros(3), np.zeros(3))

    def values(record):
        return (repr(qseries._bernoulli_series((1,), xs, ys, record, errs)),
                repr(qseries._p_deriv_series((1,), xs, ys, record, errs)))

    _clear_caches()
    alone = values(held)
    _clear_caches()
    caller = values(at)
    assert values(held) == alone
    assert values(at) == caller
    assert alone != caller
    assert qseries._nome(held)[2] > qseries._nome(at)[2]
    rows, held_rows = qseries._bernoulli_rows(at, 4), qseries._bernoulli_rows(held, 4)
    assert (held_rows[0] == rows[0]).all() and (held_rows[2] > rows[2]).all()
    assert (qseries._pe_rows(held, 4)[1] > qseries._pe_rows(at, 4)[1]).all()


def test_tau_tables_small_and_bounded():
    """Each table holds at most TAU_CACHE_SIZE entries, a small constant,
    however many fresh tau the calls bring, and its arrays are read-only."""
    assert 1 <= qseries.TAU_CACHE_SIZE <= 16
    _clear_caches()
    pair = CoprimePair(5, 3)
    for i in range(3 * qseries.TAU_CACHE_SIZE):
        tau = TauPoint(complex(-0.5 + i / (3 * qseries.TAU_CACHE_SIZE), 0.3 + 0.02 * i))
        symbols.elliptic_apostol_sum(2, pair, tau, symbols.Route.BERNOULLI_PRODUCT)
        # the zeta route runs a pe pass, which R^-(x) no longer does
        symbols.elliptic_apostol_sum(2, pair, tau)
        symbols.generating_R(pair, tau, 0.03)
    for table in TAU_TABLES:
        info = table.cache_info()
        assert info.maxsize == qseries.TAU_CACHE_SIZE
        assert 0 < info.currsize <= qseries.TAU_CACHE_SIZE
    at = qseries._checked(TauPoint(0.3 + 1.1j), qseries.DEFAULT_POLICY)
    for a in qseries._bernoulli_rows(at, 5) + qseries._pe_rows(at, 5)[:2]:
        assert not a.flags.writeable


@pytest.mark.parametrize("dtau", [0.0, 2.0**-50])
def test_row_tables_are_prefixes(dtau):
    """A longer row table begins with the shorter one bit for bit, at a
    caller's record on F and at a record of dtau > 0, as a later block
    reads its rows as a slice of the table that ends with them; both are
    read-only."""
    at = qseries._checked(TauPoint(0.3 + 1.1j), qseries.DEFAULT_POLICY)._replace(dtau=dtau)
    _clear_caches()
    for table in (qseries._bernoulli_rows, qseries._pe_rows):
        short, long = table(at, 5), table(at, 9)
        assert len(short) == len(long)
        for a, b in zip(short, long):
            assert a.shape == (5, 1) and b.shape == (9, 1)
            assert b[:5].tobytes() == a.tobytes()
            assert not a.flags.writeable and not b.flags.writeable


def test_later_blocks_read_the_record_rows(monkeypatch):
    """A B_1 pass of 1200 points on F, whose blocks BLOCK_ELEMENTS cuts to
    3 rows, below the 5 that |q| calls for, reads its rows from the tables
    of 3 and 6 rows of its record and from no other row builder, and each
    of its points equals its one-point call."""
    tau = TauPoint(0.3 + 1.1j)
    rng = np.random.default_rng(3)
    xs, ys = rng.uniform(-1.0, 1.0, 1200), rng.uniform(0.0, 1.0, 1200)
    read = []
    for name in ("_bernoulli_rows", "_pe_rows"):
        def spy(at, rows, run=getattr(qseries, name), name=name):
            read.append((name, rows))
            return run(at, rows)

        monkeypatch.setattr(qseries, name, spy)
    batch = qseries.elliptic_bernoulli_points(1, xs, ys, tau)
    assert qseries.BLOCK_ELEMENTS // len(xs) == 3
    assert read == [("_bernoulli_rows", 3), ("_bernoulli_rows", 6)]
    for i in range(len(xs)):
        alone = qseries.elliptic_bernoulli_points(1, xs[i:i + 1], ys[i:i + 1], tau)
        assert repr(batch[i]) == repr(alone[0])


def test_empty_batch_asks_for_no_terms():
    asked = []
    out = qseries._block_series(np.zeros(0, dtype=complex), np.zeros(0),
                                lambda js: asked.append(js), 50, 1e-12, 5, "empty")
    assert asked == []
    assert [(a.shape, a.dtype.kind) for a in out] == [((0,), "c"), ((0,), "c"), ((0,), "i"),
                                                      ((0,), "f"), ((0,), "f")]


@pytest.mark.parametrize("im", [0.5, 0.3, 0.06])
def test_signed_zero_tau_shares_its_reduction(im):
    """Re tau = -0.0 reads the reduction that Re tau = +0.0 keeps, and it
    equals its own, bit for bit."""
    plus, minus = complex(0.0, im), complex(-0.0, im)
    _clear_caches()
    own = repr(qseries._reduction(minus))
    _clear_caches()
    assert repr(qseries._reduction(plus)) == own
    assert repr(qseries._reduction(minus)) == own
    assert qseries._reduction.cache_info().currsize == 1


def _fsum_of_numpy_scalars(*parts):
    """`symbols._fsum` with math.fsum over numpy scalars, as it read them
    before it handed it Python floats."""
    v = np.concatenate([np.atleast_1d(t.value) for t in parts])
    err = np.concatenate([np.atleast_1d(t.err) for t in parts])
    return qseries.ComplexVal(complex(math.fsum(v.real), math.fsum(v.imag)),
                              math.fsum(err) + 2.0**-52 * math.fsum(np.hypot(v.real, v.imag)))


def _outcome(call):
    try:
        return repr(call())
    except (ValueError, OverflowError) as e:
        return type(e).__name__, str(e)


@pytest.mark.parametrize("values", [
    [complex(-0.0, -0.0)],
    [complex(-0.0, -0.0), complex(-0.0, 0.0)],
    [complex(0.0, -0.0), complex(-0.0, -0.0), complex(-0.0, -0.0)],
    [1e308 + 1e-300j, 1e308 - 1e-300j, -1e308 + 0j, 1e-320 - 0.0j],
    [0.1 + 0.2j, 0.3 - 0.4j, 1e16 + 1j, -1e16 - 1j],
    [complex(math.inf, 0.0)],
    [complex(math.inf, 0.0), complex(-math.inf, 0.0)],
    [complex(0.0, math.nan)],
    [1e308 + 0j, 1e308 + 0j],
])
def test_fsum_reads_python_floats_to_the_same_sum(values):
    """`_fsum` over Python floats gives the bits numpy scalars gave, signed
    zeros included, and raises the same error on a value or sum that is not
    finite."""
    a = qseries.ComplexArray(np.array(values, dtype=complex), np.full(len(values), 0.5))
    b = qseries.ComplexVal(-0.0 + 0j, 0.0)
    for parts in [(a,), (a, b)]:
        assert _outcome(lambda: symbols._fsum(*parts)) == \
            _outcome(lambda: _fsum_of_numpy_scalars(*parts))


# ---------------------------------------------------------------------------
# The Theorem 1.3 records
# ---------------------------------------------------------------------------


def test_theorem13_caches_small_and_bounded():
    """The records of Theorem 1.3 hold at most THEOREM13_CACHE_SIZE
    entries, a small constant, however many fresh x and tau the calls
    bring."""
    n = symbols.THEOREM13_CACHE_SIZE
    assert 1 <= n <= 16
    symbols._RECORDS.clear()
    pair, swap = CoprimePair(5, 3), CoprimePair(3, 5)
    for i in range(3 * n):
        tau = TauPoint(complex(-0.5 + i / 50, 0.3 + 0.02 * i))
        for x in (0.01 + 0.001 * i, -0.02 - 0.001 * i):
            symbols.generating_D(pair, tau, x)
            symbols.generating_D(swap, tau, x)
            symbols.generating_R(pair, tau, x)
            assert 0 < len(symbols._RECORDS) <= n
    assert len(symbols._RECORDS) == n


#: calls that differ from D^-(5, 3; 0.05) under the default policy at
#: 0.3 + 1.1i in the tol or the cap of their record, or in tau
OTHER_RECORDS = [(SeriesPolicy(tol=1e-10), 0.3 + 1.1j), (SeriesPolicy(max_terms=50), 0.3 + 1.1j),
                 (qseries.DEFAULT_POLICY, -0.7 + 1.1j), (qseries.DEFAULT_POLICY, 0.3 + 0.9j)]


@pytest.mark.parametrize("policy, t", OTHER_RECORDS)
def test_theorem13_caches_keyed_on_the_record(monkeypatch, policy, t):
    """A call under another policy or at another tau reads no record that
    a call at the default record of tau left: it runs a pass over all its
    columns, and returns what it returns on emptied records."""
    pair, x = CoprimePair(5, 3), 0.05
    symbols._RECORDS.clear()
    cold = repr(symbols.generating_D(pair, TauPoint(t), x, policy))
    symbols._RECORDS.clear()
    symbols.generating_D(pair, TauPoint(0.3 + 1.1j), x)
    symbols.generating_D(pair, TauPoint(0.3 + 1.1j), 0.04)
    widths = []
    run = qseries._theta_pass

    def spy(x, *rest):
        widths.append(len(x))
        return run(x, *rest)

    monkeypatch.setattr(symbols, "_theta_pass", spy)
    assert repr(symbols.generating_D(pair, TauPoint(t), x, policy)) == cold
    # B_1 at P -+ x and qP of D^-(5, 3; x) and D^-(3, 5; x), and at (px, qx, x)
    assert widths == [3 * 12 + 3 * 4 + 3]
