"""Exact rational layer: Bernoulli machinery, Apostol-Dedekind sums and their
reciprocity polynomial.

Everything in this module is computed exactly, with arbitrary-precision
integers and rationals (`fractions.Fraction`), so "zero" means the exact
rational zero.  The periodic Bernoulli function uses the Fourier-series value
at integers, i.e. bernoulli_function(1, integer) == 0, not B_1 = -1/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Mapping, Tuple, Union

Coeff = Union[Fraction, complex]
ExpPair = Tuple[int, int]

__all__ = [
    "CoprimePair",
    "LaurentPoly",
    "bernoulli_number",
    "bernoulli_polynomial",
    "bernoulli_function",
    "apostol_sum",
    "g_poly",
    "verify_apostol_reciprocity",
    "dim_data",
    "rational_str",
]


def rational_str(r: Fraction) -> str:
    """Canonical "num/den" form, denominator always shown (so zero is "0/1")."""
    return f"{r.numerator}/{r.denominator}"


@dataclass(frozen=True)
class CoprimePair:
    """A pair (p, q) with p >= 1 and gcd(p, q) = 1.

    Membership in U additionally requires q >= 1; use `in_u` to check.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p must be a positive integer, got {self.p}")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"gcd(p, q) must be 1, got ({self.p}, {self.q})")

    @property
    def in_u(self) -> bool:
        return self.q >= 1

    def require_u(self) -> "CoprimePair":
        if not self.in_u:
            raise ValueError(f"({self.p}, {self.q}) is not in U (need q >= 1)")
        return self


# ---------------------------------------------------------------------------
# Bernoulli numbers / polynomials / periodic functions
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def bernoulli_number(k: int) -> Fraction:
    """B_k in the convention with B_1 = -1/2.

    Defining recurrence sum_{j=0}^{k} C(k+1, j) B_j = 0, memoized.  B_k is
    built from B_0..B_{k-1} in ascending order, each from the cached ones
    below it, so a cold call recurses two deep whatever k is.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return Fraction(1)
    return -sum(Fraction(math.comb(k + 1, j)) * bernoulli_number(j) for j in range(k)) / (k + 1)


@functools.lru_cache(maxsize=None)
def _bernoulli_poly_coeffs(k: int) -> Tuple[Fraction, ...]:
    # B_k(x) = sum_j C(k, j) B_j x^{k-j}; coefficients in descending powers.
    return tuple(Fraction(math.comb(k, j)) * bernoulli_number(j) for j in range(k + 1))


@functools.lru_cache(maxsize=None)
def _bernoulli_int_coeffs(k: int) -> Tuple[int, Tuple[int, ...]]:
    """(D, (D C(k, j) B_j)_j): D is the lcm of the denominators of B_0..B_k,
    so D B_k(x) has integer coefficients (descending powers)."""
    coeffs = _bernoulli_poly_coeffs(k)
    d = math.lcm(*(c.denominator for c in coeffs))
    return d, tuple(c.numerator * (d // c.denominator) for c in coeffs)


@functools.lru_cache(maxsize=None)
def _bernoulli_centred_coeffs(k: int) -> Tuple[int, Tuple[int, ...]]:
    """(D, (a_0, a_2, a_4, ...)) with D as in `_bernoulli_int_coeffs` and

        D 2^k p^k B_k((u + p) / (2p)) = sum_t a_{2t} p^{2t} u^{k-2t},

    the expansion of B_k about 1/2: 2^i B_i(1/2) = (2 - 2^i) B_i.  The odd
    terms drop out (B_1 has the factor 2 - 2 = 0, B_i = 0 for odd i >= 3),
    so for odd k the polynomial is u times a polynomial in u^2."""
    d, table = _bernoulli_int_coeffs(k)
    return d, tuple(c * (2 - 2**i) for i, c in enumerate(table))[::2]


def bernoulli_polynomial(k: int, x: Union[Fraction, int]) -> Fraction:
    """Exact value of the kth Bernoulli polynomial at rational x."""
    if k < 0:
        raise ValueError("k must be >= 0")
    x = Fraction(x)
    acc = Fraction(0)
    for c in _bernoulli_poly_coeffs(k):
        acc = acc * x + c
    return acc


def bernoulli_function(k: int, x: Union[Fraction, int]) -> Fraction:
    """Periodic Bernoulli function: B_k({x}), with the Fourier value 0 at
    integer x when k = 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x = Fraction(x)
    frac = x - (x.numerator // x.denominator)
    if k == 1 and frac == 0:
        return Fraction(0)
    return bernoulli_polynomial(k, frac)


def apostol_sum(k: int, q: int, p: int) -> Fraction:
    """Apostol-Dedekind sum s_k(q, p) = sum_{mu=1}^{p-1} B_1~(mu/p) B_k~(mu q / p).

    The first factor is the sawtooth mu/p - 1/2; with the bare weight mu/p the
    sum would differ by (p^{1-k} - 1) B_k / 2, which vanishes for odd k >= 3
    but would break the exact vanishing of the even-k sums.

    Direct O(p) summation from the definition, in exact integer arithmetic,
    using only two facts about B_k.  With r = mu q mod p and u = 2r - p,
    Q(u) = D 2^k p^k B_k(r/p) is an integer polynomial in u with only odd
    powers for odd k (the expansion of B_k about 1/2), so Horner runs in u^2.
    Reflection, B_k(1 - x) = (-1)^k B_k(x), maps mu -> p - mu to u -> -u and
    the sawtooth to its negative: the two terms are equal for odd k, so the
    half range 1 <= mu < p/2 is summed and doubled (at even p the term
    mu = p/2 has sawtooth 0), and they cancel for even k.  The single division
    is by 2^k D p^{k+1} at the end.  It uses no reciprocity law, so it doubles
    as the independent oracle for the exact reciprocity check and the
    elliptic degeneration checks.
    """
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


# ---------------------------------------------------------------------------
# Sparse two-variable Laurent polynomials
# ---------------------------------------------------------------------------


@dataclass
class LaurentPoly:
    """Sparse Laurent polynomial in (p, q): map (i, j) -> coefficient.

    Exponents may be negative.  Zero coefficients are never stored.
    Coefficients are Fractions or complex numbers; mixing is allowed and
    promotes to complex.
    """

    coeffs: Dict[ExpPair, Coeff] = field(default_factory=dict)

    def __post_init__(self):
        self.coeffs = {e: c for e, c in self.coeffs.items() if c != 0}

    @classmethod
    def monomial(cls, i: int, j: int, c: Coeff = Fraction(1)) -> "LaurentPoly":
        return cls({(i, j): c})

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls({})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: Dict[ExpPair, Coeff] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                e = (i1 + i2, j1 + j2)
                s = out.get(e, 0) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return LaurentPoly(out)

    def swap_vars(self) -> "LaurentPoly":
        return LaurentPoly({(j, i): c for (i, j), c in self.coeffs.items()})

    def evaluate(self, p, q):
        """Evaluate at (p, q); exact when arguments and coefficients are
        rational.  A negative power of a zero argument raises
        ZeroDivisionError, as Python's power does."""
        acc = 0
        for (i, j), c in self.coeffs.items():
            if isinstance(c, Fraction) and isinstance(p, int) and isinstance(q, int):
                term = c * Fraction(p) ** i * Fraction(q) ** j
            else:
                term = c * p**i * q**j
            acc = acc + term
        return acc

    def substitute_p_plus_q(self, which: str) -> "LaurentPoly":
        """Substitute p -> p+q (which='p') or q -> p+q (which='q') by binomial
        expansion.  Requires the substituted exponent to be >= 0 everywhere;
        identity checks multiply through by pq(p+q) first.
        """
        out = LaurentPoly.zero()
        for (i, j), c in self.coeffs.items():
            e = i if which == "p" else j
            if e < 0:
                raise ValueError(
                    "cannot expand a negative power of (p+q); clear denominators first"
                )
            # (p+q)^e distributed over the remaining variable's exponent
            terms = {}
            for r in range(e + 1):
                b = math.comb(e, r)
                bc = c * b if isinstance(c, complex) else Fraction(b) * c
                if which == "p":
                    terms[(r, j + e - r)] = terms.get((r, j + e - r), 0) + bc
                else:
                    terms[(i + r, e - r)] = terms.get((i + r, e - r), 0) + bc
            out = out + LaurentPoly(terms)
        return out

    def max_abs_coeff(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(abs(complex(c)) for c in self.coeffs.values())

    def to_json_obj(self) -> list:
        items = []
        for (i, j) in sorted(self.coeffs):
            c = self.coeffs[(i, j)]
            if isinstance(c, Fraction):
                items.append({"i": i, "j": j, "coeff": rational_str(c)})
            else:
                c = complex(c)
                items.append({"i": i, "j": j, "coeff": {"re": c.real, "im": c.imag}})
        return items


# ---------------------------------------------------------------------------
# The reciprocity polynomial g_w and the exact reciprocity verifier
# ---------------------------------------------------------------------------


def _checked_weight(w: int) -> int:
    """w, checked to be an even integer >= 2, as every function of a
    weight w does."""
    if w < 2 or w % 2 != 0:
        raise ValueError("w must be an even integer >= 2")
    return w


def g_poly(w: int) -> LaurentPoly:
    """The degree-w odd reciprocity Laurent polynomial g_w(p, q).

    g_w(p,q) = -(1/pq) [ sum_{j=0}^{w/2+1} w! B_{2j} B_{w+2-2j}
                         / (2 (2j)! (w+2-2j)!) p^{2j} q^{w+2-2j}
                         + B_{w+2} / (2(w+2)) ].
    """
    # LaurentPoly is mutable: every call gets its own copy of the cached table
    return LaurentPoly(dict(_g_poly_coeffs(_checked_weight(w))))


@functools.lru_cache(maxsize=None)
def _g_poly_coeffs(w: int) -> Mapping[ExpPair, Coeff]:
    coeffs: Dict[ExpPair, Coeff] = {}
    wfact = math.factorial(w)
    for j in range(w // 2 + 2):
        c = -Fraction(wfact) * bernoulli_number(2 * j) * bernoulli_number(w + 2 - 2 * j)
        c /= 2 * math.factorial(2 * j) * math.factorial(w + 2 - 2 * j)
        if c != 0:
            coeffs[(2 * j - 1, w + 1 - 2 * j)] = coeffs.get((2 * j - 1, w + 1 - 2 * j), Fraction(0)) + c
    coeffs[(-1, -1)] = -bernoulli_number(w + 2) / (2 * (w + 2))
    return MappingProxyType(coeffs)


@functools.lru_cache(maxsize=None)
def _g_int_terms(w: int) -> Tuple[int, Tuple[Tuple[int, int, int], ...]]:
    """(den, ((i + 1, j + 1, den c_ij), ...)) over the monomials c_ij p^i q^j
    of g_w: den is their common denominator, so that den pq g_w(p, q) is an
    integer polynomial with exponents i + 1, j + 1 >= 0."""
    coeffs = _g_poly_coeffs(w)
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    return den, tuple((i + 1, j + 1, c.numerator * (den // c.denominator))
                      for (i, j), c in coeffs.items())


def verify_apostol_reciprocity(w: int, pair: CoprimePair) -> Fraction:
    """Residual of the exact reciprocity law

        p^w s_{w+1}(q,p) + q^w s_{w+1}(p,q) + 2(w+1) g_w(p,q);

    the contract is that this is exactly 0 for (p, q) in U and even w >= 2.
    """
    _checked_weight(w)
    pair.require_u()
    p, q = pair.p, pair.q
    den, terms = _g_int_terms(w)
    g_num = sum(n * p**i * q**j for i, j, n in terms)
    return (p**w * apostol_sum(w + 1, q, p) + q**w * apostol_sum(w + 1, p, q)
            + Fraction(2 * (w + 1) * g_num, den * p * q))


def dim_data(w: int) -> Tuple[int, int]:
    """(d_w, dim M_{w+2}): cusp-form dimension bracket formula and d_w + 1."""
    _checked_weight(w)
    d = (w + 2) // 12 - 1 if w % 12 == 0 else (w + 2) // 12
    return d, d + 1
