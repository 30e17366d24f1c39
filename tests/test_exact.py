"""Exact-rational layer: Bernoulli machinery, Apostol sums, g_w."""

import functools
import json
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ellded import exact
from ellded.exact import (
    CoprimePair,
    LaurentPoly,
    _bernoulli_centred_coeffs,
    _bernoulli_int_coeffs,
    _checked_int,
    apostol_sum,
    bernoulli_function,
    bernoulli_number,
    bernoulli_polynomial,
    dim_data,
    g_poly,
    rational_str,
    verify_apostol_reciprocity,
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=97
)


@functools.lru_cache(maxsize=None)
def recurrence_bernoulli_number(k: int) -> Fraction:
    """B_k by the defining recurrence sum_{j=0}^{k} C(k+1, j) B_j = 0: the
    O(k^2) Fraction recurrence that `bernoulli_number` used before the
    tangent numbers, kept verbatim as the reference."""
    if k == 0:
        return Fraction(1)
    return -sum(Fraction(math.comb(k + 1, j)) * recurrence_bernoulli_number(j) for j in range(k)) / (k + 1)


@functools.lru_cache(maxsize=None)
def fraction_bernoulli_poly_coeffs(k: int):
    """The Fraction table that B_k(x) and its integer table were built from
    before both came from `_bernoulli_table`'s integers, kept verbatim as
    the reference: B_k(x) = sum_j C(k, j) B_j x^{k-j}, descending powers."""
    return tuple(Fraction(math.comb(k, j)) * bernoulli_number(j) for j in range(k + 1))


def fraction_bernoulli_int_coeffs(k: int):
    """`_bernoulli_int_coeffs` as it was read off the Fraction table."""
    coeffs = fraction_bernoulli_poly_coeffs(k)
    d = math.lcm(*(c.denominator for c in coeffs))
    return d, tuple(c.numerator * (d // c.denominator) for c in coeffs)


def fraction_bernoulli_polynomial(k: int, x) -> Fraction:
    """B_k(x) by the Fraction Horner over the reference table."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in fraction_bernoulli_poly_coeffs(k):
        acc = acc * x + c
    return acc


@functools.lru_cache(maxsize=None)
def fraction_g_poly_coeffs(w: int):
    """The Fraction table of g_w from w! products, which `g_poly` and
    `_g_int_terms` read before both came from `_bernoulli_table`'s
    integers, kept verbatim as the reference."""
    coeffs = {}
    wfact = math.factorial(w)
    for j in range(w // 2 + 2):
        c = -Fraction(wfact) * bernoulli_number(2 * j) * bernoulli_number(w + 2 - 2 * j)
        c /= 2 * math.factorial(2 * j) * math.factorial(w + 2 - 2 * j)
        if c != 0:
            coeffs[(2 * j - 1, w + 1 - 2 * j)] = coeffs.get((2 * j - 1, w + 1 - 2 * j), Fraction(0)) + c
    coeffs[(-1, -1)] = -bernoulli_number(w + 2) / (2 * (w + 2))
    return coeffs


def fraction_g_int_terms(w: int):
    """`_g_int_terms` as it was read off the Fraction table."""
    coeffs = fraction_g_poly_coeffs(w)
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    return den, tuple((i + 1, j + 1, c.numerator * (den // c.denominator))
                      for (i, j), c in coeffs.items())


class TestIntegerTables:
    """The integer tables, built from `_bernoulli_table`'s numerators and
    denominators, against the Fraction tables they replaced."""

    def test_bernoulli_int_coeffs_match_fraction_table(self):
        for k in range(301):
            assert _bernoulli_int_coeffs(k) == fraction_bernoulli_int_coeffs(k), k

    def test_g_int_terms_match_fraction_table(self):
        for w in range(2, 301, 2):
            assert exact._g_int_terms(w) == fraction_g_int_terms(w), w
            # the same Fractions in the same order
            assert list(g_poly(w).coeffs.items()) == list(fraction_g_poly_coeffs(w).items()), w

    def test_bernoulli_polynomial_matches_fraction_horner(self):
        rng = random.Random(4021)
        xs = [Fraction(0), Fraction(1), Fraction(-3), Fraction(-7, 5), Fraction(1, 2)]
        xs += [Fraction(rng.randint(-500, 500), rng.randint(1, 400)) for _ in range(40)]
        for k in range(61):
            for x in xs:
                got = bernoulli_polynomial(k, x)
                assert type(got) is Fraction and got == fraction_bernoulli_polynomial(k, x), (k, x)
        # an int x, and k = 0, where B_0(x) = 1
        assert bernoulli_polynomial(7, -2) == fraction_bernoulli_polynomial(7, -2)
        assert bernoulli_polynomial(0, Fraction(-9, 4)) == 1

    @pytest.mark.parametrize("w", [2, 4, 6, 8, 12])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j, -0.4 + 0.9j])
    def test_eq64_matches_complex_of_g_poly(self, w, tau):
        # the residual's coefficients, from int quotients c / den, have the
        # bits of those formed from complex(c) over g_poly's Fractions
        from ellded import identities
        from ellded.qseries import DEFAULT_POLICY, TWO_PI_I, TauPoint, _checked
        at = _checked(TauPoint(tau), DEFAULT_POLICY)
        n = w // 2
        scalar = (-(TWO_PI_I**w) * float(identities._eq64_alpha(w))
                  * identities._eisenstein_normalized(n + 1, at).value)
        want = (LaurentPoly(dict(identities._record(n, at).laurent))
                - LaurentPoly({e: scalar * complex(c) for e, c in g_poly(w).coeffs.items()}))
        got = identities.verify_eq64_onedim(w, TauPoint(tau))

        def bits(poly):
            return [(e, c.real.hex(), c.imag.hex()) for e, c in poly.coeffs.items()]
        assert bits(got) == bits(want)


class TestBernoulliNumber:
    def test_base_case(self):
        assert bernoulli_number(0) == 1

    def test_b1_convention(self):
        assert bernoulli_number(1) == Fraction(-1, 2)

    def test_odd_vanish(self):
        for k in (3, 5, 7, 9, 11):
            assert bernoulli_number(k) == 0

    def test_known_values(self):
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(4) == Fraction(-1, 30)
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_number(-1)

    def test_order_checked_before_the_cache(self):
        # True would read B_1's cache entry, and 2.0 would reach range()
        bernoulli_number(1)
        for call in (bernoulli_number, lambda k: bernoulli_polynomial(k, Fraction(1, 3)),
                     lambda k: bernoulli_function(k, Fraction(1, 3))):
            for k in (True, 2.0):
                with pytest.raises(ValueError, match="k must be an int"):
                    call(k)
        assert bernoulli_number(np.int64(4)) == Fraction(-1, 30)
        assert bernoulli_polynomial(np.int64(3), Fraction(1, 3)) == Fraction(1, 27)
        assert bernoulli_function(np.int64(3), Fraction(4, 3)) == Fraction(1, 27)

    def test_matches_defining_recurrence(self):
        # the tangent-number table against the Fraction recurrence it
        # replaced, for every k <= 500
        bernoulli_number.cache_clear()
        for k in range(501):
            assert bernoulli_number(k) == recurrence_bernoulli_number(k), k

    def test_cold_high_index_recursion_is_shallow(self):
        # the table of B_0..B_511 is built by loops, so a cold B_400
        # recurses a few frames deep, not 400: it runs within 60 frames of
        # this one
        bernoulli_number.cache_clear()
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            bernoulli_number(400)
        finally:
            sys.setrecursionlimit(limit)
        assert sum(math.comb(401, j) * bernoulli_number(j) for j in range(401)) == 0


class TestBernoulliPolynomial:
    def test_constant_term(self):
        for k in range(8):
            assert bernoulli_polynomial(k, 0) == bernoulli_number(k)

    def test_half(self):
        assert bernoulli_polynomial(2, Fraction(1, 2)) == Fraction(-1, 12)

    def test_third(self):
        assert bernoulli_polynomial(3, Fraction(1, 3)) == Fraction(1, 27)

    @given(x=rationals, k=st.integers(0, 12))
    def test_forward_difference(self, x, k):
        # B_k(x+1) - B_k(x) = k x^{k-1}
        lhs = bernoulli_polynomial(k, x + 1) - bernoulli_polynomial(k, x)
        rhs = 0 if k == 0 else k * x ** (k - 1)
        assert lhs == rhs


class TestBernoulliFunction:
    def test_integer_k1(self):
        assert bernoulli_function(1, 0) == 0
        assert bernoulli_function(1, 5) == 0

    def test_half_integer(self):
        assert bernoulli_function(1, Fraction(7, 2)) == 0

    def test_on_unit_interval(self):
        assert bernoulli_function(3, Fraction(1, 3)) == Fraction(1, 27)

    @given(x=rationals, k=st.integers(1, 10))
    def test_periodicity(self, x, k):
        assert bernoulli_function(k, x + 1) == bernoulli_function(k, x)

    @given(x=rationals, k=st.integers(1, 10))
    def test_matches_polynomial_on_fraction(self, x, k):
        frac = x - (x.numerator // x.denominator)
        if not (k == 1 and frac == 0):
            assert bernoulli_function(k, x) == bernoulli_polynomial(k, frac)


coprime_pairs = st.tuples(
    st.integers(1, 25), st.integers(1, 25)
).filter(lambda t: math.gcd(*t) == 1)


def reference_apostol_sum(k, q, p):
    """The definition summed term by term in `Fraction`s: the oracle the
    integer kernel of `apostol_sum` must reproduce exactly."""
    return sum(
        ((Fraction(mu, p) - Fraction(1, 2)) * bernoulli_function(k, Fraction(mu * q, p))
         for mu in range(1, p)),
        Fraction(0),
    )


def full_range_horner_apostol_sum(k: int, q: int, p: int) -> Fraction:
    """The full-range kernel that the centred, half-range kernel replaced,
    kept verbatim as a second reference: Horner in r over all p - 1 terms."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if p < 1:
        raise ValueError("p must be >= 1")
    if math.gcd(p, q) != 1:
        raise ValueError(f"gcd(p, q) must be 1, got ({p}, {q})")
    d, table = _bernoulli_int_coeffs(k)
    # c_j = D C(k, j) B_j p^j, so that P(r) = sum_j c_j r^{k-j}
    coeffs = [c * p**j for j, c in enumerate(table)]
    # gcd(p, q) = 1 and 1 <= mu <= p-1 give 1 <= r <= p-1: r/p is never an
    # integer, so the k = 1 Fourier value B~_1(integer) = 0 never applies here.
    acc = 0
    for mu in range(1, p):
        r = mu * q % p
        poly = 0
        for c in coeffs:
            poly = poly * r + c
        acc += (2 * mu - p) * poly
    return Fraction(acc, 2 * d * p ** (k + 1))


def centred_half_range_apostol_sum(k: int, q: int, p: int) -> Fraction:
    """The centred, half-range kernel that the chunked binomial moments
    replaced for long sums, kept verbatim as a third reference: Horner in
    u^2 over 1 <= mu < p/2, term by term."""
    k = _checked_int(k, "k")
    if k < 1:
        raise ValueError("k must be >= 1")
    if p < 1:
        raise ValueError("p must be >= 1")
    if math.gcd(p, q) != 1:
        raise ValueError(f"gcd(p, q) must be 1, got ({p}, {q})")
    if k % 2 == 0:
        return Fraction(0)  # the terms at mu and p - mu cancel by reflection
    d, table = _bernoulli_centred_coeffs(k)
    # Q(u) = u sum_t c_t u^{k-1-2t} with c_t = a_{2t} p^{2t}
    coeffs = [a * p ** (2 * t) for t, a in enumerate(table)]
    # gcd(p, q) = 1 and 1 <= mu <= p-1 give 1 <= r <= p-1: r/p is never an
    # integer, so the k = 1 Fourier value B~_1(integer) = 0 never applies here.
    step = 2 * (q % p)
    acc = 0
    u = -p
    # weight = 2 mu - p, the sawtooth times 2p, for mu = 1 .. ceil(p/2) - 1
    for weight in range(2 - p, 0, 2):
        u += step
        if u >= p:
            u -= 2 * p
        v = u * u
        poly = 0
        for c in coeffs:
            poly = poly * v + c
        acc += weight * u * poly
    # 2 acc / (2p * 2^k D p^k): the doubling cancels the sawtooth's 2
    return Fraction(acc, 2**k * d * p ** (k + 1))


def _benchmark_range_sample(count: int, seed: int = 11):
    """Seeded (k, q, p) over the exact-reciprocity benchmark's ranges: k odd
    in 3..13, coprime p, q in [1, 2000], half of the p even."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randrange(3, 14, 2)
        p = rng.randint(1, 1000) * 2 - len(out) % 2
        q = rng.randint(1, 2000)
        if math.gcd(p, q) == 1:
            out.append((k, q, p))
    return out


def _some_q(p: int):
    """Up to eight q coprime to p, of both signs, small and near p."""
    cands = (1, -1, 2, -3, p // 3 + 1, -(p // 2 + 1), p - 1, -(2 * p + 5))
    return sorted({q for q in cands if math.gcd(p, q) == 1})


#: half-range lengths n = ceil(p/2) - 1 on both sides of one and two chunks
#: of the binomial-moment kernel that the power moments replaced
CHUNK_EDGE_P = [p for n in (63, 64, 65, 127, 128, 129) for p in (2 * n + 1, 2 * n + 2)]

#: half-range lengths on both sides of one and two blocks of the power
#: moments, rows r = 0..n
BLOCK_EDGE_P = [p for n in (1023, 1024, 1025, 2047, 2048, 2049) for p in (2 * n + 1, 2 * n + 2)]


def _seeded_long_sample(count: int, seed: int = 5003):
    """Seeded (k, q, p): k odd in 1..19, p in [2, 5000], q of both signs."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randrange(1, 20, 2)
        p = rng.randint(2, 5000)
        q = rng.choice((-1, 1)) * rng.randint(1, 3 * p)
        if math.gcd(p, q) == 1:
            out.append((k, q, p))
    return out


def _spy_moment_sum(monkeypatch):
    """The arguments of every call of the long-sum kernel from here on."""
    calls = []
    kernel = exact._moment_sum

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(exact, "_moment_sum", spy)
    return calls


class TestApostolSum:
    def test_empty(self):
        assert apostol_sum(3, 7, 1) == 0

    def test_even_k_example(self):
        assert apostol_sum(2, 1, 3) == 0

    def test_direct_example(self):
        assert apostol_sum(3, 1, 3) == Fraction(-1, 81)

    def test_coprimality_enforced(self):
        with pytest.raises(ValueError):
            apostol_sum(3, 2, 4)

    @given(pq=coprime_pairs, k=st.sampled_from([2, 4, 6]))
    def test_even_k_vanishes(self, pq, k):
        p, q = pq
        assert apostol_sum(k, q, p) == 0

    @given(pq=coprime_pairs, k=st.integers(1, 7))
    def test_periodicity_in_q(self, pq, k):
        p, q = pq
        assert apostol_sum(k, q + p, p) == apostol_sum(k, q, p)

    @given(k=st.integers(1, 14), pq=st.tuples(st.integers(1, 150), st.integers(-200, 200))
           .filter(lambda t: math.gcd(*t) == 1))
    @settings(deadline=None)
    @example(k=1, pq=(1, 0))
    @example(k=1, pq=(7, -3))
    @example(k=4, pq=(9, -200))
    def test_matches_fraction_reference(self, k, pq):
        p, q = pq
        assert apostol_sum(k, q, p) == reference_apostol_sum(k, q, p)

    @pytest.mark.parametrize("k,q,p,value", [
        (11, 1, 1009, "-23486956567426268888113323683110356/"
                      "1103577477657749245825477904470609"),
        (13, 377, 1999, "3165211165216101226105773550188439551499038/"
                        "8138911451501750747538217172562287688025999"),
        (3, 1234, 1999, "57616590/7988005999"),
        # even p: the half range stops below mu = p/2, whose sawtooth is 0
        (13, 777, 2000, "1566410302827156488222385019678198533394381/"
                        "16384000000000000000000000000000000000000000"),
        (3, 1999, 2000, "1333331666667/80000000000"),
        # p = 2: the half range is empty
        (5, 1, 2, "0/1"),
        (3, -7, 2, "0/1"),
        # negative q
        (11, -1234, 1999, "-52037299981251491852727309385228910/"
                          "2036764117802210446778721319780021999"),
        (13, -1, 1997, "-1336938111820875924212282975686885164941137371/"
                       "8033685818244578187476895185528855951871677"),
        # k = 1 at large p
        (1, 611, 1999, "1007/3998"),
        (1, -1, 2000, "-665667/4000"),
        # 49 blocks of power moments, by the centred loop
        (13, 12345, 100003, "64111298498053175389474302547692662392805006629279840116233100005/"
                            "100039007020772257918127535100152976441477351388152175350874894323"),
    ])
    def test_golden_values(self, k, q, p, value):
        # computed by the term-by-term Fraction formula
        assert rational_str(apostol_sum(k, q, p)) == value

    @pytest.mark.parametrize("k,q,p", _benchmark_range_sample(40))
    def test_matches_full_range_horner(self, k, q, p):
        assert apostol_sum(k, q, p) == full_range_horner_apostol_sum(k, q, p)

    @pytest.mark.parametrize("k", [1, 3, 5, 9, 13, 17])
    def test_matches_centred_kernel_every_p(self, k):
        # every p <= 300, the loop's short sums and the chunked long ones
        for p in range(1, 301):
            for q in _some_q(p):
                assert apostol_sum(k, q, p) == centred_half_range_apostol_sum(k, q, p), (k, q, p)

    @pytest.mark.parametrize("p", CHUNK_EDGE_P)
    def test_matches_centred_kernel_at_chunk_edges(self, p, monkeypatch):
        chunked = _spy_moment_sum(monkeypatch)
        for k in (1, 3, 7, 13, 19):
            for q in _some_q(p):
                assert apostol_sum(k, q, p) == centred_half_range_apostol_sum(k, q, p), (k, q)
        # from n = 63 on, n (min(k, 13) + 9) >= 630 sends every order to
        # the moment kernel
        assert {k for k, _, _, _ in chunked} == {1, 3, 7, 13, 19}

    @pytest.mark.parametrize("k,q,p", _seeded_long_sample(60))
    def test_matches_centred_kernel_seeded(self, k, q, p):
        assert apostol_sum(k, q, p) == centred_half_range_apostol_sum(k, q, p)

    def test_int64_bound_keeps_the_loop(self, monkeypatch):
        # p C(64, 32) >= 2^63 kept this long sum off the binomial-moment
        # kernel; the moment kernel's int64 bound is p < 2^31 on its weights
        # r 2q^{-1} < 2p^2, and k = 31 is the last order it takes
        chunked = _spy_moment_sum(monkeypatch)
        value = apostol_sum(31, 777, 2000)
        assert chunked == [(31, 777, 2000, 999)]
        assert value == centred_half_range_apostol_sum(31, 777, 2000)
        assert value == full_range_horner_apostol_sum(31, 777, 2000)

    @pytest.mark.parametrize("k,q,p", [(471, 2, 5), (475, -2, 5), (33, 777, 2000)])
    def test_large_k_keeps_the_loop(self, k, q, p, monkeypatch):
        # the power table holds s^j for j < 32: a long sum past k = 31, and
        # two terms at a huge order, stay on the loop
        chunked = _spy_moment_sum(monkeypatch)
        value = apostol_sum(k, q, p)
        assert chunked == []
        assert value == centred_half_range_apostol_sum(k, q, p)

    def test_long_sums_are_chunked(self, monkeypatch):
        chunked = _spy_moment_sum(monkeypatch)
        assert apostol_sum(13, 377, 1999) == centred_half_range_apostol_sum(13, 377, 1999)
        assert apostol_sum(21, 5, 113) == centred_half_range_apostol_sum(21, 5, 113)
        assert chunked == [(13, 377, 1999, 999), (21, 5, 113, 56)]

    @pytest.mark.parametrize("p", BLOCK_EDGE_P)
    def test_matches_centred_kernel_at_block_edges(self, p, monkeypatch):
        # n < 1024 is one block of dot products; from n = 1024 on the blocks'
        # moments are shifted by the binomial theorem
        chunked = _spy_moment_sum(monkeypatch)
        for k in (1, 13, 31):
            for q in _some_q(p):
                assert apostol_sum(k, q, p) == centred_half_range_apostol_sum(k, q, p), (k, q)
        assert {k for k, _, _, _ in chunked} == {1, 13, 31}

    @pytest.mark.parametrize("p", [2**17 - 1, 2**17, 2**17 + 1])
    def test_matches_centred_kernel_across_the_weight_split(self, p):
        # a block's dot products stay below 1024 p 2^26 <= 2^53 up to
        # p = 2^17; past it the weights are split into 16-bit halves
        assert (exact._ROWS * p > 2 ** (53 - exact._MODULUS_BITS)) == (p > 2**17)
        for k in (3, 13):
            for q in (-1, 65537):
                assert apostol_sum(k, q, p) == centred_half_range_apostol_sum(k, q, p), (k, q)

    @pytest.mark.parametrize("k", [1, 31])
    def test_matches_centred_kernel_at_the_orders_ends(self, k):
        for q in _some_q(2000):
            assert apostol_sum(k, q, 2000) == centred_half_range_apostol_sum(k, q, 2000), q

    def test_largest_benchmark_modulus_count(self):
        # k = 13 and n = 999 (p = 1999, 2000) bound the moments of the
        # exact-reciprocity benchmark most: six moduli
        assert exact._prime_count(2000 * 999**14) == 6
        for p in (1999, 2000):
            for q in _some_q(p):
                assert apostol_sum(13, q, p) == centred_half_range_apostol_sum(13, q, p), (q, p)

    def test_one_modulus_fewer_fails(self, monkeypatch):
        # the moduli are the fewest the bound p n^{k+1} allows: one fewer
        # wraps the moments of (13, 1, 1999), whose weights 2r - p share a sign
        want = centred_half_range_apostol_sum(13, 1, 1999)
        assert apostol_sum(13, 1, 1999) == want
        count = exact._prime_count
        monkeypatch.setattr(exact, "_prime_count", lambda bound: count(bound) - 1)
        assert apostol_sum(13, 1, 1999) != want

    @pytest.mark.parametrize("q,p", [(3, 1999), (-1234, 1999), (377, 1999), (2, 7)])
    def test_numpy_integers_are_ints(self, q, p):
        for k in (3, 13):
            want = apostol_sum(k, q, p)
            assert apostol_sum(np.int64(k), np.int64(q), np.int64(p)) == want
            assert apostol_sum(k, np.int32(q), np.int64(p)) == want

    @pytest.mark.parametrize("q,p,name", [(True, 3, "q"), (2.0, 3, "q"), (2, 3.0, "p"),
                                          (1, True, "p")])
    def test_non_int_pair_rejected(self, q, p, name):
        with pytest.raises(ValueError, match=rf"^{name} must be an int"):
            apostol_sum(3, q, p)


class TestGPoly:
    def test_symmetric(self):
        for w in (2, 4, 6, 10):
            g = g_poly(w)
            assert g - g.swap_vars() == LaurentPoly.zero()

    def test_value_example(self):
        assert g_poly(2).evaluate(3, 1) == Fraction(1, 54)

    def test_corner_coefficient(self):
        for w in (2, 4, 8, 12):
            expected = -bernoulli_number(w + 2) / (2 * (w + 2))
            assert g_poly(w).coeffs[(-1, -1)] == expected

    def test_odd_w_rejected(self):
        with pytest.raises(ValueError):
            g_poly(3)

    def test_fresh_object_per_call(self):
        g1, g2 = g_poly(4), g_poly(4)
        assert g1 == g2 and g1 is not g2 and g1.coeffs is not g2.coeffs
        g1.coeffs[(0, 0)] = Fraction(1)
        g1.coeffs.pop((-1, -1))
        assert g_poly(4) == g2

    @pytest.mark.parametrize("w", [2, 4, 6, 8, 10])
    def test_three_term_identity_symbolically(self, w):
        # g(p+q, q) + g(p, p+q) = g(p, q), checked as polynomials after
        # clearing denominators: multiply through by pq(p+q).
        g = g_poly(w)
        a = g * LaurentPoly.monomial(1, 1)  # pq * g, no negative exponents
        term1 = LaurentPoly.monomial(1, 0) * a.substitute_p_plus_q("p")
        term2 = LaurentPoly.monomial(0, 1) * a.substitute_p_plus_q("q")
        term3 = (LaurentPoly.monomial(1, 0) + LaurentPoly.monomial(0, 1)) * a
        assert term1 + term2 - term3 == LaurentPoly.zero()


_monomials = st.dictionaries(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    st.fractions(max_denominator=50).filter(lambda c: c != 0),
    max_size=8,
)


class TestLaurentEvaluate:
    @given(coeffs=_monomials, p=st.integers(-30, 30).filter(bool),
           q=st.integers(-30, 30).filter(bool))
    @settings(max_examples=80, deadline=None)
    @example(coeffs={(-3, 2): Fraction(5, 7), (4, -1): Fraction(-2, 3)}, p=-2, q=-9)
    @example(coeffs={(0, 0): Fraction(1, 2)}, p=1, q=-1)
    def test_matches_per_monomial_formula(self, coeffs, p, q):
        poly = LaurentPoly(coeffs)
        expected = sum((c * Fraction(p) ** i * Fraction(q) ** j
                        for (i, j), c in coeffs.items()), Fraction(0))
        got = poly.evaluate(p, q)
        assert isinstance(got, Fraction) or (not coeffs and got == 0)
        assert got == expected

    @pytest.mark.parametrize("w", [2, 4, 6, 12])
    def test_g_poly_values(self, w):
        g = g_poly(w)
        for p, q in ((3, 2), (13, 7), (1, 1), (1999, 1000)):
            expected = sum(c * Fraction(p) ** i * Fraction(q) ** j
                           for (i, j), c in g.coeffs.items())
            assert g.evaluate(p, q) == expected

    def test_zero_argument(self):
        poly = LaurentPoly({(0, 2): Fraction(1, 3), (1, 0): Fraction(2)})
        assert poly.evaluate(0, 3) == 3
        assert poly.evaluate(2, 0) == 4
        # a negative power of the other, nonzero argument is no pole
        assert LaurentPoly({(-1, 0): Fraction(1)}).evaluate(2, 0) == Fraction(1, 2)
        with pytest.raises(ZeroDivisionError):
            LaurentPoly({(-1, 0): Fraction(1)}).evaluate(0, 1)

    def test_complex_coefficients_keep_general_path(self):
        poly = LaurentPoly({(1, -1): 2j, (0, 1): Fraction(1, 2)})
        assert poly.evaluate(2, 4) == 2j * 2 / 4 + Fraction(1, 2) * 4


def three_fraction_residual(w: int, pair: CoprimePair) -> Fraction:
    """The reciprocity residual as three Fractions, the form that
    `verify_apostol_reciprocity` took before it read the integer numerators,
    kept as the reference."""
    p, q = pair.p, pair.q
    den, terms = exact._g_int_terms(w)
    g_num = sum(n * p**i * q**j for i, j, n in terms)
    return (p**w * apostol_sum(w + 1, q, p) + q**w * apostol_sum(w + 1, p, q)
            + Fraction(2 * (w + 1) * g_num, den * p * q))


def _reciprocity_sample(count: int, seed: int = 3907):
    """Seeded (w, p, q) in U: w even in 2..24, p and q in [1, 2000], with
    p = 1, q = 1 and (1, 1) among them."""
    rng = random.Random(seed)
    out = [(2, 1, 1), (12, 1, 1), (4, 1, 1999), (10, 2000, 1)]
    while len(out) < count:
        w, p, q = rng.randrange(2, 25, 2), rng.randint(1, 2000), rng.randint(1, 2000)
        if math.gcd(p, q) == 1:
            out.append((w, p, q))
    return out


class TestReciprocity:
    def test_example_value(self):
        pair = CoprimePair(3, 1)
        assert verify_apostol_reciprocity(2, pair) == 0
        # both sides equal -1/9
        lhs = (Fraction(3) ** 2 * apostol_sum(3, 1, 3)
               + Fraction(1) ** 2 * apostol_sum(3, 3, 1))
        assert lhs == Fraction(-1, 9)

    def test_trivial_pair(self):
        assert verify_apostol_reciprocity(2, CoprimePair(1, 1)) == 0

    @given(pq=coprime_pairs, w=st.sampled_from([2, 4, 6]))
    @settings(max_examples=40, deadline=None)
    def test_residual_always_zero(self, pq, w):
        p, q = pq
        assert verify_apostol_reciprocity(w, CoprimePair(p, q)) == 0

    def test_requires_u(self):
        with pytest.raises(ValueError):
            verify_apostol_reciprocity(2, CoprimePair(3, -1))

    def test_off_by_one_numerator_is_seen(self, monkeypatch):
        # one denominator does not hide a wrong sum: a numerator one off
        # leaves a nonzero residual
        numerator = exact._apostol_numerator
        monkeypatch.setattr(exact, "_apostol_numerator", lambda k, q, p: numerator(k, q, p) + 1)
        for w, p, q in ((2, 1, 1), (2, 3, 1), (12, 1999, 3), (6, 1, 2000)):
            assert verify_apostol_reciprocity(w, CoprimePair(p, q)) != 0

    @pytest.mark.parametrize("w,p,q", _reciprocity_sample(30))
    def test_matches_three_fraction_residual(self, w, p, q, monkeypatch):
        pair = CoprimePair(p, q)
        assert verify_apostol_reciprocity(w, pair) == three_fraction_residual(w, pair) == 0
        # and off zero, with every numerator one off
        numerator = exact._apostol_numerator
        monkeypatch.setattr(exact, "_apostol_numerator", lambda k, q, p: numerator(k, q, p) + 1)
        residual = verify_apostol_reciprocity(w, pair)
        assert residual == three_fraction_residual(w, pair) != 0

    def test_numpy_pair_is_exact(self):
        # numpy integers become ints: p**w no longer wraps at int64
        assert verify_apostol_reciprocity(12, CoprimePair(np.int64(1999), np.int64(3))) == 0


class TestDimData:
    @pytest.mark.parametrize("w,expected", [
        (2, (0, 1)), (4, (0, 1)), (6, (0, 1)), (8, (0, 1)),
        (10, (1, 2)), (12, (0, 1)), (14, (1, 2)), (22, (2, 3)), (24, (1, 2)),
    ])
    def test_values(self, w, expected):
        assert dim_data(w) == expected


class TestCoprimePair:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoprimePair(0, 1)
        with pytest.raises(ValueError):
            CoprimePair(4, 2)

    def test_membership(self):
        assert CoprimePair(3, 2).in_u
        assert not CoprimePair(3, -2).in_u

    @pytest.mark.parametrize("p,q,name", [(True, 1, "p"), (3, True, "q"), (3.0, 1, "p"),
                                          (3, 2.0, "q"), ("3", 1, "p")])
    def test_non_int_rejected(self, p, q, name):
        with pytest.raises(ValueError, match=rf"^{name} must be an int, got "):
            CoprimePair(p, q)

    def test_numpy_integers_become_ints(self):
        pair = CoprimePair(np.int64(1999), np.int32(3))
        assert type(pair.p) is int and type(pair.q) is int
        assert pair == CoprimePair(1999, 3)


#: a few small coefficients and their negatives, so that sums and products
#: of sparse polynomials cancel often
_cancelling = st.sampled_from([Fraction(c) for c in (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))])


def _laurent(low_i=-3, low_j=-3):
    """Sparse Fraction Laurent polynomials with exponents i in low_i..3 and
    j in low_j..3."""
    return st.dictionaries(st.tuples(st.integers(low_i, 3), st.integers(low_j, 3)),
                           _cancelling, max_size=6).map(LaurentPoly)


@st.composite
def _cancelling_pair(draw):
    """(a, b) where b repeats a random subset of a's monomials negated."""
    a, b = draw(_laurent()), draw(_laurent())
    drop = draw(st.lists(st.sampled_from(sorted(a.coeffs)), unique=True)) if a else []
    return a, LaurentPoly({**b.coeffs, **{e: -a.coeffs[e] for e in drop}})


def _no_zero(poly: LaurentPoly) -> bool:
    return all(c != 0 for c in poly.coeffs.values())


_nonzero_ints = st.integers(-9, 9).filter(bool)


class TestLaurentPoly:
    @given(_cancelling_pair(), _nonzero_ints, _nonzero_ints)
    @settings(max_examples=150, deadline=None)
    def test_arithmetic_stores_no_zero(self, pair, p, q):
        # evaluation, monomial by monomial, is the independent oracle
        a, b = pair
        for got, want in ((a + b, a.evaluate(p, q) + b.evaluate(p, q)),
                          (a - b, a.evaluate(p, q) - b.evaluate(p, q)),
                          (a * b, a.evaluate(p, q) * b.evaluate(p, q))):
            assert _no_zero(got)
            assert got.evaluate(p, q) == want
        assert a - a == LaurentPoly.zero() and (a - a).coeffs == {}

    @given(_laurent(low_i=0), _laurent(low_j=0), _nonzero_ints, _nonzero_ints)
    @settings(max_examples=150, deadline=None)
    def test_substitution_matches_evaluation(self, in_p, in_q, p, q):
        assume(p + q != 0)
        for poly, which, args in ((in_p, "p", (p + q, q)), (in_q, "q", (p, p + q))):
            sub = poly.substitute_p_plus_q(which)
            assert _no_zero(sub)
            assert sub.evaluate(p, q) == poly.evaluate(*args)

    def test_substitution_cancels(self):
        # (p - q)^2 with p -> p + q is p^2: of the images of its three
        # monomials, all but one cancel
        a = LaurentPoly({(2, 0): Fraction(1), (1, 1): Fraction(-2), (0, 2): Fraction(1)})
        assert (a.substitute_p_plus_q("p") - LaurentPoly.monomial(2, 0)).coeffs == {}

    def test_complex_coefficients_cancel(self):
        a = LaurentPoly({(1, -1): 0.5 + 0.25j, (0, 2): Fraction(1, 3), (2, 1): 2j})
        assert (a - a).coeffs == {}
        assert (a * a - a * a).coeffs == {}
        sub = LaurentPoly.monomial(2, 1, 1j).substitute_p_plus_q("p")
        assert sub == LaurentPoly({(2, 1): 1j, (1, 2): 2j, (0, 3): 1j})

    def test_never_equals_a_dict_and_is_unhashable(self):
        for poly in (LaurentPoly.zero(), LaurentPoly.monomial(1, 0)):
            assert poly != poly.coeffs and poly.coeffs != poly
            with pytest.raises(TypeError):
                hash(poly)

    def test_no_zero_coeffs_stored(self):
        p = LaurentPoly({(1, 1): Fraction(0), (0, 0): Fraction(2)})
        assert (1, 1) not in p.coeffs

    def test_pole_at_zero(self):
        p = LaurentPoly.monomial(-1, -1)
        with pytest.raises(ZeroDivisionError):
            p.evaluate(0, 1)

    def test_substitution_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            LaurentPoly.monomial(-1, 0).substitute_p_plus_q("p")

    def test_serialization_sorted(self):
        p = LaurentPoly({(1, 0): Fraction(2), (-1, 3): Fraction(1, 3)})
        obj = p.to_json_obj()
        assert [(it["i"], it["j"]) for it in obj] == [(-1, 3), (1, 0)]
        assert obj[0]["coeff"] == "1/3"

    @given(st.dictionaries(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        st.fractions(min_value=-10, max_value=10, max_denominator=30)
            .filter(lambda f: f != 0),
        max_size=8,
    ))
    def test_json_roundtrip(self, coeffs):
        # to_json_obj is lossless: each item parses back to its Fraction
        p = LaurentPoly(dict(coeffs))
        items = json.loads(json.dumps(p.to_json_obj()))
        assert LaurentPoly({(it["i"], it["j"]): Fraction(it["coeff"]) for it in items}) == p

    @given(st.integers(1, 9), st.integers(1, 9))
    def test_g2_evaluation_matches_expansion(self, p, q):
        # spot-check evaluate() against the explicit degree-2 expansion
        g = g_poly(2)
        expected = (Fraction(q**3, 720 * p) + Fraction(p**3, 720 * q)
                    - Fraction(p * q, 144) + Fraction(1, 240 * p * q))
        assert g.evaluate(p, q) == expected


def test_rational_str_canonical():
    assert rational_str(Fraction(0)) == "0/1"
    assert rational_str(Fraction(-2, 4)) == "-1/2"
