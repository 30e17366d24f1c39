"""The Eisenstein product behind `basis_rank`: every q-sum has the scalar
loop's outcome and error message and lies within the loop's bound of
mpmath, and the matrix `basis_rank` decomposes, built from it without
touching the per-tau caches, equals `reciprocity_laurent`'s coefficients up
to rounding and has the same rank."""

import cmath
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
#: next to the zero q = -2.98e-8 of the weight-26 q-sum sum_k sigma_25(k) q^k,
#: whose terms cancel there, so that under max_terms = 10 it runs past the
#: terms `_q_sum_rows` estimates and the product doubles its terms
BOUNDARY_TAUS = [TauPoint(0.5 + 2.7578251j), TauPoint(0.5 + 2.75782510497882j)]

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
        for cols in (COLUMNS, rng.sample(COLUMNS, 5), [COLUMNS[-1], COLUMNS[0]]):
            _assert_same_outcome(_records(taus, policy), cols)


def test_boundary_sample_runs_past_the_estimate():
    # the loop runs some column of the boundary sample past the terms the
    # product starts from, so that its outcome in test_pass_matches_scalar_loop
    # is the doubled product's
    ats = _records(BOUNDARY_TAUS, SeriesPolicy(max_terms=10))
    q = max(abs(cmath.exp(qseries.TWO_PI_I * at.tau)) for at in ats)
    first = qseries._q_sum_rows(q, 2 * 13, ats[0].tol)
    stops = []
    for at in ats:
        for n, d in COLUMNS:
            for cap in range(1, 11):
                try:
                    scalar_q_sum(n, at._replace(cap=cap), d)
                except NonConvergenceError:
                    continue
                stops.append(cap)
                break
    assert max(stops) > first


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
