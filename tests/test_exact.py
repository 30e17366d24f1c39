"""Exact-rational layer: Bernoulli machinery, Apostol sums, g_w."""

import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellded.exact import (
    CoprimePair,
    LaurentPoly,
    _bernoulli_int_coeffs,
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

    def test_cold_high_index_recursion_is_shallow(self):
        # each B_j is built from the cached ones below it, in ascending
        # order, so a cold B_400 recurses a few frames deep, not 400: it
        # runs within 60 frames of this one
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
    ])
    def test_golden_values(self, k, q, p, value):
        # computed by the term-by-term Fraction formula
        assert rational_str(apostol_sum(k, q, p)) == value

    @pytest.mark.parametrize("k,q,p", _benchmark_range_sample(40))
    def test_matches_full_range_horner(self, k, q, p):
        assert apostol_sum(k, q, p) == full_range_horner_apostol_sum(k, q, p)


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


class TestLaurentPoly:
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
