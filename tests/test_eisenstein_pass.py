"""The batched Eisenstein pass: every q-sum, bound and error bit-identical to
the scalar loop, and `basis_rank` built from it without touching the per-tau
caches."""

import random
import warnings

import pytest

from ellded import identities, qseries, symbols
from ellded.qseries import NonConvergenceError, SeriesPolicy, SlowNomeWarning, TauPoint

IM_TAUS = [1.5, 1.1, 0.8, 0.3, 0.11, 0.06]
#: every (n, tau_deriv) column the pass is pinned on
COLUMNS = [(n, d) for n in range(1, 14) for d in (False, True)]
POLICIES = [qseries.DEFAULT_POLICY, SeriesPolicy(max_terms=3), SeriesPolicy(max_terms=10)]
#: under max_terms = 10, a pass over these tau has, in order, columns that
#: stop inside the first block, columns whose three-term streak runs across
#: its end, and columns that hit their cap
BOUNDARY_TAUS = [TauPoint(0.1 + 2.0j), TauPoint(-0.3 + 0.9j)]

#: the uncached scalar loop, which the pass must reproduce
scalar_q_sum = qseries._eisenstein_q_sum.__wrapped__


def _outcome(call):
    """repr of a result, or the error's message and partial."""
    try:
        return repr(call())
    except NonConvergenceError as e:
        return ("NonConvergenceError", str(e), repr(e.partial))


def _scalar_sums(taus, cols, policy):
    """The scalar loop over the sample, tau by tau and column by column, so
    that its first error is the one the pass must raise."""
    return [[scalar_q_sum(n, tau, policy, d) for n, d in cols] for tau in taus]


def _scalar_stop(n, tau, tau_deriv, cap):
    """The k after which the scalar loop stops at a tau whose cap is
    max_terms, or None if it is still running after cap terms."""
    for k in range(1, cap + 1):
        try:
            scalar_q_sum(n, tau, SeriesPolicy(max_terms=k), tau_deriv)
            return k
        except NonConvergenceError:
            pass
    return None


def _sample(rng, size):
    return [TauPoint(complex(rng.uniform(-0.5, 0.5), rng.choice(IM_TAUS)))
            for _ in range(size)]


@pytest.mark.parametrize("policy", POLICIES, ids=["default", "max3", "max10"])
@pytest.mark.parametrize("size", [1, 4, 10])
def test_pass_matches_scalar_loop(policy, size):
    rng = random.Random(size)
    samples = [[TauPoint(complex(0.2, im))] * size for im in IM_TAUS]
    samples += [_sample(rng, size) for _ in range(3)] + [BOUNDARY_TAUS]
    for taus in samples:
        for cols in (COLUMNS, rng.sample(COLUMNS, 5), [COLUMNS[-1], COLUMNS[0]]):
            expected = _outcome(lambda: _scalar_sums(taus, cols, policy))
            got = _outcome(lambda: qseries._eisenstein_q_sums(taus, cols, policy))
            assert got == expected, ([t.tau for t in taus], cols)
    if policy.max_terms == 10:
        # the columns that the boundary sample's pass runs before its first
        # capped one stop inside the first block and just past its end
        ks = [_scalar_stop(n, tau, d, 10) for tau in BOUNDARY_TAUS for n, d in COLUMNS]
        before, first = ks[:ks.index(None)], qseries.FIRST_BLOCK
        assert min(before) < first and {first + 1, first + 2} & set(before)


def test_pass_raises_first_failure_in_sample_order():
    # at max_terms = 3 the fast tau's columns fail after 3 terms, the slow
    # tau's, with the ten-fold cap, after 30: the error is that of the first
    # tau in the sample, not of the first column to fail
    policy = SeriesPolicy(max_terms=3)
    slow, fast = TauPoint(0.1 + 0.08j), TauPoint(0.1 + 0.3j)
    cols = [(13, True), (1, False)]
    for taus, message in (([slow, fast], "(n=13) hit max_terms=30"),
                          ([fast, slow], "(n=13) hit max_terms=3")):
        with pytest.raises(NonConvergenceError) as exc:
            qseries._eisenstein_q_sums(taus, cols, policy)
        with pytest.raises(NonConvergenceError) as ref:
            _scalar_sums(taus, cols, policy)
        assert str(exc.value) == str(ref.value)
        assert str(exc.value).endswith(message)
        assert repr(exc.value.partial) == repr(ref.value.partial)


def test_empty_sample_and_columns_and_huge_cap():
    assert qseries._eisenstein_q_sums([], COLUMNS, qseries.DEFAULT_POLICY) == []
    assert qseries._eisenstein_q_sums([TauPoint(1j)], [], qseries.DEFAULT_POLICY) == [[]]
    # a cap beyond int64, which the scalar loop takes as a Python int
    taus, policy = [TauPoint(0.1 + 0.9j)], SeriesPolicy(max_terms=10**30)
    assert (qseries._eisenstein_q_sums(taus, COLUMNS, policy)
            == _scalar_sums(taus, COLUMNS, policy))


def _cache_infos():
    return [f.cache_info() for f in (qseries._eisenstein_q_sum,
                                     symbols._eisenstein_table_values,
                                     identities._c_coefficients_values)]


def _slow_warnings(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SlowNomeWarning)
        call()
    return sum(issubclass(w.category, SlowNomeWarning) for w in caught)


@pytest.mark.parametrize("w", [2, 10, 24])
def test_basis_rank_tables_equal_the_cached_tables(w):
    n = w // 2
    taus = identities.random_taus(7, w) + [TauPoint(0.3 + 0.09j), TauPoint(-0.2 + 0.3j)]
    before = _cache_infos()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowNomeWarning)
        batched = symbols._eisenstein_tables(n, taus, qseries.DEFAULT_POLICY)
        assert _cache_infos() == before
        cached = [symbols._eisenstein_table(n, t, qseries.DEFAULT_POLICY) for t in taus]
    assert [repr(t) for t in batched] == [repr(t) for t in cached]


@pytest.mark.parametrize("w", [2, 12, 22])
def test_basis_rank_leaves_the_caches_and_warnings_unchanged(w):
    taus = identities.random_taus(6, 3) + [TauPoint(0.25 + 0.1j)]
    before = _cache_infos()
    assert _slow_warnings(lambda: identities.basis_rank(w, taus)) == 1
    assert _cache_infos() == before
    # the per-tau route warns as often, and its polynomials are the ones
    # basis_rank builds
    polys = []
    assert _slow_warnings(
        lambda: polys.extend(identities.reciprocity_laurent(w, t)[0] for t in taus)) == 1
    n = w // 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowNomeWarning)
        tables = symbols._eisenstein_tables(n, taus, qseries.DEFAULT_POLICY)
    own = [identities._laurent_of(identities._coefficients_of(n, t))[0] for t in tables]
    assert [repr(p.coeffs) for p in own] == [repr(p.coeffs) for p in polys]
