"""The batched Eisenstein pass: every q-sum and error bit-identical to the
scalar loop, its first block sized from |q|, and the matrix `basis_rank`
decomposes built from it, equal to `reciprocity_laurent`'s coefficients,
without touching the per-tau caches."""

import random
import warnings

import pytest

from ellded import identities, qseries, symbols
from ellded.qseries import NonConvergenceError, SeriesPolicy, SlowNomeWarning, TauPoint

IM_TAUS = [1.5, 1.1, 0.8, 0.3, 0.11, 0.06]
#: every (n, tau_deriv) column the pass is pinned on
COLUMNS = [(n, d) for n in range(1, 14) for d in (False, True)]
POLICIES = [qseries.DEFAULT_POLICY, SeriesPolicy(max_terms=3), SeriesPolicy(max_terms=10)]
#: under max_terms = 10, a pass over these tau has columns that stop inside
#: its first block and on each of the two rows after it: both lie next to
#: the zero q = -2.98e-8 of the weight-26 q-sum sum_k sigma_25(k) q^k, whose
#: terms cancel there, so that it runs past the rows |q| sizes the block to
BOUNDARY_TAUS = [TauPoint(0.5 + 2.7578251j), TauPoint(0.5 + 2.75782510497882j)]

#: the uncached scalar loop, which the pass must reproduce
scalar_q_sum = qseries._eisenstein_q_sum.__wrapped__


def _records(taus, policy):
    """The checked records of a sample, without their SlowNomeWarnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowNomeWarning)
        return [qseries._checked(tau, policy) for tau in taus]


def _outcome(call):
    """The repr of every sum of a (tau x column) result, row by row, or the
    error's message and partial."""
    try:
        return [[repr(complex(s)) for s in row] for row in call()]
    except NonConvergenceError as e:
        return ("NonConvergenceError", str(e), repr(e.partial))


def _scalar_sums(taus, cols, policy):
    """The scalar loop's sums over the sample, tau by tau and column by
    column, so that its first error is the one the pass must raise; the
    scalar bound, which the pass does not form, is checked against mpmath in
    test_qseries."""
    return [[scalar_q_sum(n, at, d)[0] for n, d in cols] for at in _records(taus, policy)]


def _scalar_stop(n, tau, tau_deriv, cap):
    """The k after which the scalar loop stops at a tau whose cap is
    max_terms, or None if it is still running after cap terms."""
    for k in range(1, cap + 1):
        try:
            scalar_q_sum(n, *_records([tau], SeriesPolicy(max_terms=k)), tau_deriv)
            return k
        except NonConvergenceError:
            pass
    return None


@pytest.fixture
def blocks(monkeypatch):
    """Records the rows of each block of every `_block_series` pass."""
    seen = []
    run = qseries._block_series

    def spy(start, start_rnd, terms, *rest):
        rows = []
        seen.append(rows)

        def counted(js, *cols):
            rows.append(len(js))
            return terms(js, *cols)

        return run(start, start_rnd, counted, *rest)

    monkeypatch.setattr(qseries, "_block_series", spy)
    return seen


def _sample(rng, size):
    return [TauPoint(complex(rng.uniform(-0.5, 0.5), rng.choice(IM_TAUS)))
            for _ in range(size)]


@pytest.mark.parametrize("policy", POLICIES, ids=["default", "max3", "max10"])
@pytest.mark.parametrize("size", [1, 4, 10])
def test_pass_matches_scalar_loop(blocks, policy, size):
    rng = random.Random(size)
    samples = [[TauPoint(complex(0.2, im))] * size for im in IM_TAUS]
    samples += [_sample(rng, size) for _ in range(3)] + [BOUNDARY_TAUS]
    for taus in samples:
        for cols in (COLUMNS, rng.sample(COLUMNS, 5), [COLUMNS[-1], COLUMNS[0]]):
            expected = _outcome(lambda: _scalar_sums(taus, cols, policy))
            got = _outcome(lambda: qseries._eisenstein_q_sums(_records(taus, policy), cols))
            assert got == expected, ([t.tau for t in taus], cols)
    if policy.max_terms == 10:
        # the boundary sample's columns stop inside its pass's first block
        # and on both rows after it
        blocks.clear()
        qseries._eisenstein_q_sums(_records(BOUNDARY_TAUS, policy), COLUMNS)
        first = blocks[0][0]
        ks = [_scalar_stop(n, tau, d, 10) for tau in BOUNDARY_TAUS for n, d in COLUMNS]
        assert min(ks) < first and {first + 1, first + 2} <= set(ks)


def test_basis_rank_pass_runs_one_block(blocks):
    """Near the fundamental domain the first block, sized from |q|, holds
    every term of a basis-rank pass."""
    corners = [TauPoint(complex(re, im)) for re in (-0.4, 0.4) for im in (0.8, 1.5)]
    for w in range(2, 26, 2):
        for taus in [corners] + [identities.random_taus(size, seed)
                                 for size in (1, 4, 10) for seed in range(8)]:
            blocks.clear()
            identities.basis_rank(w, taus)
            assert [len(rows) for rows in blocks] == [1], (w, [t.tau for t in taus])


def test_pass_raises_first_failure_in_sample_order():
    # at max_terms = 3 every column of both tau fails after 3 terms: the
    # error is that of the first tau in the sample and its first column
    policy = SeriesPolicy(max_terms=3)
    slow, fast = TauPoint(0.1 + 0.08j), TauPoint(0.1 + 0.3j)
    cols = [(13, True), (1, False)]
    partials = []
    for taus in ([slow, fast], [fast, slow]):
        with pytest.raises(NonConvergenceError) as exc:
            qseries._eisenstein_q_sums(_records(taus, policy), cols)
        with pytest.raises(NonConvergenceError) as ref:
            _scalar_sums(taus[:1], cols[:1], policy)
        assert str(exc.value) == str(ref.value)
        assert str(exc.value).endswith("(n=13) hit max_terms=3")
        assert repr(exc.value.partial) == repr(ref.value.partial)
        partials.append(repr(exc.value.partial))
    # the two tau's partials differ, so the error shows which tau came first
    assert partials[0] != partials[1]


def test_empty_sample_and_columns_and_huge_cap():
    policy = qseries.DEFAULT_POLICY
    assert qseries._eisenstein_q_sums([], COLUMNS).shape == (0, len(COLUMNS))
    assert qseries._eisenstein_q_sums(_records([TauPoint(1j)], policy), []).shape == (1, 0)
    # a cap beyond int64, which the scalar loop takes as a Python int
    taus, policy = [TauPoint(0.1 + 0.9j)], SeriesPolicy(max_terms=10**30)
    assert (_outcome(lambda: qseries._eisenstein_q_sums(_records(taus, policy), COLUMNS))
            == _outcome(lambda: _scalar_sums(taus, COLUMNS, policy)))


def _cache_infos():
    return [f.cache_info() for f in (qseries._eisenstein_q_sum,
                                     symbols._eisenstein_table,
                                     identities._c_coefficients_values,
                                     identities._eq73_residuals)]


def _slow_warnings(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SlowNomeWarning)
        call()
    return sum(issubclass(w.category, SlowNomeWarning) for w in caught)


def _rows(matrix):
    return [[repr(complex(x)) for x in row] for row in matrix]


def _coefficient_rows(polys):
    """Each polynomial's coefficients in the sorted order of its support."""
    return [[repr(p.coeffs[e]) for e in sorted(p.coeffs)] for p in polys]


@pytest.mark.parametrize("w", [2, 10, 24])
def test_basis_rank_tables_equal_the_cached_tables(w):
    """The matrix basis_rank decomposes, built from one pass that leaves the
    caches alone, equals what the cached Eisenstein tables give, down to
    Im tau = 0.09."""
    n = w // 2
    taus = identities.random_taus(7, w) + [TauPoint(0.3 + 0.09j), TauPoint(-0.2 + 0.3j)]
    before = _cache_infos()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowNomeWarning)
        ats = _records(taus, qseries.DEFAULT_POLICY)
        matrix = identities._rank_matrix(n, ats)
        assert _cache_infos() == before
        cached = [identities._laurent_of(identities._coefficients_of(
            n, symbols._eisenstein_table(n, at)))[0] for at in ats]
    assert _rows(matrix) == _coefficient_rows(cached)


@pytest.mark.parametrize("w", range(2, 42, 2))
def test_basis_rank_leaves_the_caches_and_warnings_unchanged(w):
    taus = identities.random_taus(6, 3) + [TauPoint(0.25 + 0.1j)]
    before = _cache_infos()
    assert _slow_warnings(lambda: identities.basis_rank(w, taus)) == 1
    assert _cache_infos() == before
    # the per-tau route warns as often, and its coefficients are the rows
    # of the matrix basis_rank decomposes, entry by entry
    polys = []
    assert _slow_warnings(
        lambda: polys.extend(identities.reciprocity_laurent(w, t)[0] for t in taus)) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowNomeWarning)
        matrix = identities._rank_matrix(w // 2, _records(taus, qseries.DEFAULT_POLICY))
    assert _rows(matrix) == _coefficient_rows(polys)
