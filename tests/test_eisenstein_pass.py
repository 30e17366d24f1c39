"""The Eisenstein product behind `basis_rank`: every q-sum has the scalar
loop's outcome and error message and lies within the loop's bound of
mpmath, and the matrix `basis_rank` decomposes, built from it without
touching the per-tau caches, equals `reciprocity_laurent`'s coefficients up
to rounding and has the same rank."""

import hashlib
import itertools
import math
import random
import warnings

import numpy as np
import pytest

from ellded import identities, qseries, symbols
from ellded.exact import dim_data
from ellded.qseries import NonConvergenceError, SeriesPolicy, SlowNomeWarning, TauPoint

IM_TAUS = [1.5, 1.1, 0.8, 0.3, 0.11, 0.06]
#: every (n, tau_deriv) column the product is checked on
COLUMNS = [(n, d) for n in range(1, 14) for d in (False, True)]
#: caps of 1 and 2 terms, under which the loop's three-term rule never
#: fires, and of 3 and 10, under which some columns stop and some fail
POLICIES = [qseries.DEFAULT_POLICY] + [SeriesPolicy(max_terms=cap) for cap in (1, 2, 3, 10)]
#: next to the zero q = -0.169 of the weight-8 q-sum sum_k sigma_3(k) q^k,
#: whose terms cancel there, so that the scalar loop runs 46 terms, past the
#: product's first count, and the product of that column alone doubles it
BOUNDARY_TAUS = [TauPoint(0.5 + 0.28284206059543j), TauPoint(0.5 + 0.28284206059543004j)]
#: the column whose sum vanishes at BOUNDARY_TAUS
BOUNDARY_COLUMN = (2, False)

#: the uncached scalar loop, whose outcome the product must have
scalar_q_sum = qseries._eisenstein_q_sum.__wrapped__


def _records(taus, policy):
    """The checked records of a sample, without their SlowNomeWarnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowNomeWarning)
        return [qseries._checked(tau, policy) for tau in taus]


def _assert_same_outcome(ats, cols):
    """The product returns where the scalar loop returns, every sum within
    the loop's bound of the loop's, and raises the loop's first error, first
    tau then first column, where it raises, with the same message and a
    partial that is the same sum of the first cap terms up to rounding."""
    try:
        expected = [[scalar_q_sum(n, at, d) for n, d in cols] for at in ats]
    except NonConvergenceError as ref:
        with pytest.raises(NonConvergenceError) as exc:
            qseries._eisenstein_q_sums(ats, cols)
        assert str(exc.value) == str(ref)
        assert exc.value.partial.err == ref.partial.err == float("inf")
        assert abs(exc.value.partial.value - ref.partial.value) <= 1e-12 * abs(ref.partial.value)
        return
    sums = qseries._eisenstein_q_sums(ats, cols)
    assert sums.shape == (len(ats), len(cols))
    for row, want in zip(sums, expected):
        for s, (ref, bound) in zip(row, want):
            assert abs(s - ref) <= bound, (s, ref, bound)


def _sample(rng, size):
    return [TauPoint(complex(rng.uniform(-0.5, 0.5), rng.choice(IM_TAUS)))
            for _ in range(size)]


@pytest.mark.parametrize("policy", POLICIES, ids=["default", "max1", "max2", "max3", "max10"])
@pytest.mark.parametrize("size", [1, 4, 10])
def test_pass_matches_scalar_loop(policy, size):
    rng = random.Random(size)
    samples = [[TauPoint(complex(0.2, im))] * size for im in IM_TAUS]
    samples += [_sample(rng, size) for _ in range(3)] + [BOUNDARY_TAUS]
    # q underflows to 0, so every term is 0 and small: under a cap below
    # three terms the loop still fails
    samples.append([TauPoint(0.1 + 200j)])
    for taus in samples:
        for cols in (COLUMNS, rng.sample(COLUMNS, 5), [COLUMNS[-1], COLUMNS[0]],
                     [BOUNDARY_COLUMN]):
            _assert_same_outcome(_records(taus, policy), cols)


def _divisor_power_sum(ell, k):
    """sigma_ell(k) by trial division over d <= sqrt(k)."""
    return sum(d**ell + ((k // d) ** ell if d * d != k else 0)
               for d in range(1, math.isqrt(k) + 1) if k % d == 0)


@pytest.mark.parametrize("ell", range(1, 48, 2))
def test_sigma_table_and_its_float_view(ell):
    table = qseries._divisor_power_sums(ell, 1024)
    assert table == tuple(_divisor_power_sum(ell, k) for k in range(1, 1025))
    assert all(type(s) is int for s in table)
    # a smaller power-of-two table is the same sieve's prefix
    assert qseries._divisor_power_sums(ell, 32) == table[:32]
    view = qseries._divisor_power_floats((ell, 1), 1024)
    assert view.shape == (1024, 2) and not view.flags.writeable
    assert view[:, 0].tolist() == [float(s) for s in table]


def test_sigma_tables_past_the_bound_are_not_cached():
    # a table of at most SIGMA_CACHE_TERMS terms is cached, a longer one is
    # built afresh and kept by no cache
    bound = qseries.SIGMA_CACHE_TERMS
    ints = qseries._divisor_power_sums.cache
    ints.cache_clear()
    assert qseries._divisor_power_sums(3, bound) is qseries._divisor_power_sums(3, bound)
    assert ints.cache_info().currsize == 1
    long = qseries._divisor_power_sums(3, 2 * bound)
    assert long[:bound] == qseries._divisor_power_sums(3, bound)
    assert [long[k - 1] for k in (bound + 1, 2 * bound)] == [
        _divisor_power_sum(3, k) for k in (bound + 1, 2 * bound)]
    assert qseries._divisor_power_sums(3, 2 * bound) is not long
    view = qseries._divisor_power_floats((3,), 2 * bound)
    assert view[:, 0].tolist() == [float(s) for s in long]
    assert ints.cache_info().currsize == 1


def test_float_view_ends_where_sigma_leaves_binary64():
    # sigma_201(k) fits binary64 up to k = 34 (34^201 < 2^1023), and the
    # view of every column ends there, at the largest ell's first overflow
    top = qseries._divisor_power_sums(201, 64)
    view = qseries._divisor_power_floats((3, 201), 64)
    assert view.shape == (34, 2)
    assert view[:, 1].tolist() == [float(s) for s in top[:34]]
    with pytest.raises(OverflowError):
        float(top[34])


def test_product_runs_on_the_float_view_it_holds(monkeypatch):
    # at w = 150 the first count, 123 terms, reaches past k = 110, from
    # which sigma_151(k) leaves binary64, but the sums end well before: the
    # product runs once on the 110 rows the view holds and returns the rank
    counts = _spy_products(monkeypatch)
    assert identities.basis_rank(150, identities.random_taus(4, 0)) == 4
    assert counts == [128]
    assert len(qseries._divisor_power_floats((151,), 128)) == 110


def _spy_products(monkeypatch):
    """The count of the sigma table that each product reads, one entry per
    product formed: every product builds its plan afresh, past the plan
    cache, so that each reads its table."""
    counts = []
    read = qseries._divisor_power_floats

    def spy(ells, count):
        counts.append(count)
        return read(ells, count)

    monkeypatch.setattr(qseries, "_divisor_power_floats", spy)
    monkeypatch.setattr(qseries, "_eisenstein_plan", qseries._eisenstein_plan.__wrapped__)
    return counts


def _loop_stop(n, at, tau_deriv):
    """The term after which the scalar loop stops at `at`."""
    for cap in itertools.count(1):
        try:
            scalar_q_sum(n, at._replace(cap=cap), tau_deriv)
            return cap
        except NonConvergenceError:
            pass


@pytest.mark.parametrize("w", range(2, 26, 2))
def test_one_product_over_the_random_tau_window(w, monkeypatch):
    # basis_rank's samples, Im tau in [0.8, 1.5], take one product at every
    # weight up to 24, the floor of the first count covering them
    counts = _spy_products(monkeypatch)
    for size in range(4, 11):
        for seed in range(5):
            counts.clear()
            identities.basis_rank(w, identities.random_taus(size, 100 * w + seed))
            assert counts == [qseries._FIRST_TERMS], (size, seed, counts)


def test_boundary_sample_runs_past_the_estimate(monkeypatch):
    # the loop runs the boundary column past the terms the product starts
    # from, so that the product doubles them, and its outcome in
    # test_pass_matches_scalar_loop is the doubled product's
    ats = _records(BOUNDARY_TAUS, qseries.DEFAULT_POLICY)
    counts = _spy_products(monkeypatch)
    qseries._eisenstein_q_sums(ats, [BOUNDARY_COLUMN])
    n, d = BOUNDARY_COLUMN
    assert len(counts) >= 2
    assert max(_loop_stop(n, at, d) for at in ats) > counts[0]


def test_pass_raises_first_failure_in_sample_order():
    # at max_terms = 3 every column of both tau fails after 3 terms: the
    # error is that of the first tau in the sample and its first column
    policy = SeriesPolicy(max_terms=3)
    slow, fast = TauPoint(0.1 + 0.08j), TauPoint(0.1 + 0.3j)
    cols = [(13, True), (1, False)]
    partials = []
    for taus in ([slow, fast], [fast, slow]):
        _assert_same_outcome(_records(taus, policy)[:1], cols[:1])
        with pytest.raises(NonConvergenceError) as exc:
            qseries._eisenstein_q_sums(_records(taus, policy), cols)
        with pytest.raises(NonConvergenceError) as first:
            qseries._eisenstein_q_sums(_records(taus, policy)[:1], cols[:1])
        assert str(exc.value).endswith("(n=13) hit max_terms=3")
        assert (str(exc.value), repr(exc.value.partial)) == (str(first.value),
                                                              repr(first.value.partial))
        partials.append(exc.value.partial.value)
    # the two tau's partials differ, so the error shows which tau came first
    assert abs(partials[0] - partials[1]) > 1e-3 * abs(partials[1])


def test_empty_sample_and_columns_and_huge_cap():
    policy = qseries.DEFAULT_POLICY
    assert qseries._eisenstein_q_sums([], COLUMNS).shape == (0, len(COLUMNS))
    assert qseries._eisenstein_q_sums(_records([TauPoint(1j)], policy), []).shape == (1, 0)
    # a cap beyond int64, which the scalar loop takes as a Python int
    _assert_same_outcome(_records([TauPoint(0.1 + 0.9j)], SeriesPolicy(max_terms=10**30)),
                         COLUMNS)


@pytest.mark.parametrize("re", [-0.45, 0.0, 0.3])
@pytest.mark.parametrize("im", IM_TAUS)
def test_sums_within_the_loop_bound_of_mpmath(re, im):
    """Each sum of the product lies within the scalar loop's bound of the
    q-sum summed at 30 digits, down to Im tau = 0.06, where the terms are
    far larger than the sums they cancel to."""
    mp = pytest.importorskip("mpmath")
    ats = _records([TauPoint(complex(re, im))], qseries.DEFAULT_POLICY)
    sums = qseries._eisenstein_q_sums(ats, COLUMNS)[0]
    with mp.workdps(30):
        q = mp.exp(2j * mp.pi * mp.mpc(re, im))
        for (n, d), s in zip(COLUMNS, sums):
            ref, qk, k = mp.mpc(0), mp.mpf(1), 0
            while True:
                k += 1
                qk *= q
                term = sum(e ** (2 * n - 1) for e in range(1, k + 1) if k % e == 0) * qk
                ref += 2j * mp.pi * k * term if d else term
                if k * abs(term) < mp.mpf(10) ** -28 * max(1, abs(ref)):
                    break
            bound = scalar_q_sum(n, ats[0], d)[1]
            assert abs(s - complex(ref)) <= bound, (n, d, s, complex(ref), bound)


def _cache_infos():
    return [f.cache_info() for f in (qseries._eisenstein_q_sum, identities._record)]


def _slow_warnings(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SlowNomeWarning)
        call()
    return sum(issubclass(w.category, SlowNomeWarning) for w in caught)


def _assert_rows_match(matrix, laurents):
    """Each row of the matrix is the coefficients of its (polynomial, err)
    pair, in the sorted order of its support, within that err."""
    assert matrix.shape == (len(laurents), len(laurents[0][0].coeffs))
    for row, (p, err) in zip(matrix, laurents):
        want = np.array([p.coeffs[e] for e in sorted(p.coeffs)])
        assert np.abs(row - want).max() <= err, (row, want, err)


@pytest.mark.parametrize("w", [2, 10, 24])
def test_basis_rank_tables_equal_the_cached_tables(w):
    """The matrix basis_rank decomposes, built from one product that leaves
    the caches alone, equals what the cached Eisenstein tables give within
    their err, down to Im tau = 0.09."""
    n = w // 2
    taus = identities.random_taus(7, w) + [TauPoint(0.3 + 0.09j), TauPoint(-0.2 + 0.3j)]
    before = _cache_infos()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowNomeWarning)
        ats = _records(taus, qseries.DEFAULT_POLICY)
        matrix = identities._rank_matrix(n, ats)
        assert _cache_infos() == before
        cached = [identities._laurent_of(identities._coefficients_of(
            n, symbols._eisenstein_table(n, at))) for at in ats]
    _assert_rows_match(matrix, cached)


@pytest.mark.parametrize("w", range(2, 42, 2))
def test_basis_rank_leaves_the_caches_and_warnings_unchanged(w):
    taus = identities.random_taus(6, 3) + [TauPoint(0.25 + 0.1j)]
    before = _cache_infos()
    assert _slow_warnings(lambda: identities.basis_rank(w, taus)) == 1
    assert _cache_infos() == before
    # the per-tau route warns as often, and its coefficients are the rows
    # of the matrix basis_rank decomposes, within their err
    laurents = []
    assert _slow_warnings(
        lambda: laurents.extend(identities.reciprocity_laurent(w, t) for t in taus)) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowNomeWarning)
        matrix = identities._rank_matrix(w // 2, _records(taus, qseries.DEFAULT_POLICY))
    _assert_rows_match(matrix, laurents)


@pytest.mark.parametrize("w", range(2, 26, 2))
def test_basis_rank_equals_the_per_tau_rank(w):
    """basis_rank equals the rank of the matrix of the per-tau
    `reciprocity_laurent` coefficients, dim M_{w+2} once the sample is large
    enough, with the singular values past that rank at rounding level."""
    dim = dim_data(w)[1]
    for size in range(4, 11):
        for seed in range(3):
            taus = identities.random_taus(size, 100 * w + seed)
            rows = [[p.coeffs[e] for e in sorted(p.coeffs)]
                    for p in (identities.reciprocity_laurent(w, t)[0] for t in taus)]
            sv = np.linalg.svd(np.array(rows), compute_uv=False)
            rank = int(np.sum(sv > identities.RANK_THRESHOLD * sv[0]))
            assert identities.basis_rank(w, taus) == rank == min(dim, size)
            if size > dim:
                assert sv[dim] < 1e-12 * sv[0]


#: SHA-256 of `_rank_matrix_reprs()`: the matrices that basis_rank
#: decomposes over fixed random_taus samples at w = 2..24, with their ranks,
#: as the product formed them when each call built its sigma weights, its
#: constants and its matrix afresh (numpy 2.4.6, x86-64); the plans and
#: per-n tables that the product and the matrix now read keep every bit
RANK_MATRIX_SHA256 = "832865ddb59e9a925c0312c9e89964b7223b9b8d6be2c67763bf90da698e0018"


def _rank_matrix_reprs():
    out = []
    for w in range(2, 26, 2):
        for size, seed in ((4, 1), (7, 2), (10, 3)):
            taus = identities.random_taus(size, 100 * w + seed)
            matrix = identities._rank_matrix(w // 2, _records(taus, qseries.DEFAULT_POLICY))
            out.append(f"{w} {size} {identities.basis_rank(w, taus)} "
                       + " ".join(repr(complex(v)) for v in matrix.ravel()))
    return out


def test_rank_matrix_digest():
    digest = hashlib.sha256("\n".join(_rank_matrix_reprs()).encode()).hexdigest()
    assert digest == RANK_MATRIX_SHA256
    # cold plans give the same matrices
    qseries._eisenstein_plan.cache.cache_clear()
    assert hashlib.sha256("\n".join(_rank_matrix_reprs()).encode()).hexdigest() == digest


def test_plans_bounded_and_short(monkeypatch):
    """The product reads its weights from plans cached per (columns, count)
    in at most PLAN_CACHE_SIZE entries, read-only and equal to a fresh
    build; a plan past SIGMA_CACHE_TERMS terms is built afresh and kept by
    no cache."""
    plans = qseries._eisenstein_plan.cache
    plans.cache_clear()
    ats = _records(identities.random_taus(5, 0), qseries.DEFAULT_POLICY)
    for n in range(1, 2 * qseries.PLAN_CACHE_SIZE + 1):
        cols = ((n, False), (n, True))
        sums = qseries._eisenstein_q_sums(ats, cols)
        # a cached plan gives the sums of a fresh one, bit for bit
        assert qseries._eisenstein_q_sums(ats, list(cols)).tobytes() == sums.tobytes()
        assert plans.cache_info().currsize == min(n, qseries.PLAN_CACHE_SIZE)
    plan = qseries._eisenstein_plan(cols, qseries._FIRST_TERMS)
    fresh = qseries._eisenstein_plan.__wrapped__(cols, qseries._FIRST_TERMS)
    assert plan[:2] == fresh[:2] == (True, qseries._FIRST_TERMS)
    for cached, built in zip(plan[2:], fresh[2:]):
        assert not cached.flags.writeable and cached.tobytes() == built.tobytes()
    bound = qseries.SIGMA_CACHE_TERMS
    one = ((1, False),)
    assert qseries._eisenstein_plan(one, bound) is qseries._eisenstein_plan(one, bound)
    assert qseries._eisenstein_plan(one, 2 * bound) is not qseries._eisenstein_plan(one, 2 * bound)
    # at Im tau = 0.001 the sum of E_2 runs past the bound: its product
    # caches the plans of the counts within it alone
    plans.cache_clear()
    counts = []
    read = qseries._eisenstein_plan

    def spy(cols, count):
        counts.append(count)
        return read(cols, count)

    monkeypatch.setattr(qseries, "_eisenstein_plan", spy)
    slow = _records([TauPoint(0.001j)], SeriesPolicy(min_im_tau=0.0005))
    qseries._eisenstein_q_sums(slow, one)
    assert max(counts) > bound
    assert plans.cache_info().currsize == len({c for c in counts if c <= bound})
