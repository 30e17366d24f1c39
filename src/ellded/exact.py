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
import numbers
import operator
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
        # p and q as ints (`_checked_int`): a numpy integer's powers would
        # wrap at int64
        if type(self.p) is not int or type(self.q) is not int:
            object.__setattr__(self, "p", _checked_int(self.p, "p"))
            object.__setattr__(self, "q", _checked_int(self.q, "q"))
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


def _checked_int(value, name: str) -> int:
    """value as an int, where it is an int or another integral number such
    as a numpy integer; anything else, a bool or a float of integral value
    too, raises ValueError before any cache sees it, as an equal float
    would read an int's cache entry."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an int, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# Bernoulli numbers / polynomials / periodic functions
# ---------------------------------------------------------------------------

def bernoulli_number(k: int) -> Fraction:
    """B_k in the convention with B_1 = -1/2.

    Defining recurrence sum_{j=0}^{k} C(k+1, j) B_j = 0, memoized per k,
    which is checked (`_checked_int`) before the cache sees it.  B_k is
    built from B_0..B_{k-1} in ascending order, each from the cached ones
    below it, so a cold call recurses two deep whatever k is.
    """
    k = _checked_int(k, "k")
    if k < 0:
        raise ValueError("k must be >= 0")
    return _bernoulli_number(k)


@functools.lru_cache(maxsize=None)
def _bernoulli_number(k: int) -> Fraction:
    if k == 0:
        return Fraction(1)
    return -sum(Fraction(math.comb(k + 1, j)) * _bernoulli_number(j) for j in range(k)) / (k + 1)


# the memo is the private function's; the public one empties it
bernoulli_number.cache_clear = _bernoulli_number.cache_clear


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
    k = _checked_int(k, "k")
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
    k = _checked_int(k, "k")
    if k < 1:
        raise ValueError("k must be >= 1")
    x = Fraction(x)
    frac = x - (x.numerator // x.denominator)
    if k == 1 and frac == 0:
        return Fraction(0)
    return bernoulli_polynomial(k, frac)


#: Terms per chunk of the long-sum kernel: each chunk's binomial moments are
#: one int64 matrix product.
_CHUNK = 64

#: A half range of n terms at order k costs the centred loop about
#: n (min(k, 13) + 9) units and the long-sum kernel about 960 units while n is
#: short (measured on CPython 3.11; past k = 13 the two grow alike with k), so
#: shorter sums keep the loop.
_LOOP_COST_CUT = 960


def apostol_sum(k: int, q: int, p: int) -> Fraction:
    """Apostol-Dedekind sum s_k(q, p) = sum_{mu=1}^{p-1} B_1~(mu/p) B_k~(mu q / p).

    The first factor is the sawtooth mu/p - 1/2; with the bare weight mu/p the
    sum would differ by (p^{1-k} - 1) B_k / 2, which vanishes for odd k >= 3
    but would break the exact vanishing of the even-k sums.

    Direct O(p) summation from the definition, in exact integer arithmetic,
    using only two facts about B_k.  With r = mu q mod p and u = 2r - p,
    f(u) = D 2^k p^k B_k(r/p) is an integer polynomial in u with only odd
    powers for odd k (the expansion of B_k about 1/2).  Reflection,
    B_k(1 - x) = (-1)^k B_k(x), maps mu -> p - mu to u -> -u and the sawtooth
    to its negative: the two terms are equal for odd k, so half the range is
    summed and doubled (at even p the middle term is 0), and they cancel for
    even k.  The single division is by 2^k D p^{k+1} at the end.

    A short sum, one at an order k >= 32, or one whose chunk moments could
    leave int64, is summed term by term over 1 <= mu < p/2, Horner in u^2.
    A long one is indexed by r: with n = ceil(p/2) - 1 and the weight
    g_r = 2 (r q^{-1} mod p) - p, the sawtooth times 2p, it is
    sum_{r=1}^{n} g_r f(2r - p) = sum_{i<=k} Delta_i M_i, with Delta_i the
    step-2 forward differences of f at u = 2 - p and
    M_i = sum_{s<n} g_{s+1} C(s, i) the binomial moments of the weights
    (Newton's forward formula).  Each 64-term chunk's moments are one int64
    matrix product, and the chunks are combined by Horner in (1 + X)^64 over
    integers packed at X = 2^b, mod X^{k+1}.  Both ways give the same
    Fraction.  Neither uses a reciprocity law, so the sum doubles as
    the independent oracle for the exact reciprocity check and the elliptic
    degeneration checks.
    """
    k = _checked_int(k, "k")
    q = _checked_int(q, "q")
    p = _checked_int(p, "p")
    if k < 1:
        raise ValueError("k must be >= 1")
    if p < 1:
        raise ValueError("p must be >= 1")
    if math.gcd(p, q) != 1:
        raise ValueError(f"gcd(p, q) must be 1, got ({p}, {q})")
    if k % 2 == 0:
        return Fraction(0)  # the terms at mu and p - mu cancel by reflection
    n = (p + 1) // 2 - 1
    # a chunk's moments are at most p C(64, i + 1) in size, which rises with
    # i for k < 32, and the weights are formed from r 2q^{-1} < 2p^2
    if (n * (min(k, 13) + 9) >= _LOOP_COST_CUT and k < _CHUNK // 2 and p < 2**31
            and p * math.comb(_CHUNK, k + 1) < 2**63):
        return _chunked_sum(k, q, p, n)
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


@functools.lru_cache(maxsize=None)
def _chunk_tables(k: int):
    """The long-sum kernel's tables for one odd k, from F(r) = f(2r - p):

        F(r) = D 2^k p^k B_k(r/p) = sum_j e_j p^{k-j} r^j,  e_j = 2^k D C(k, j) B_{k-j},

    so Delta_i = sum_{j>=i} e_j p^{k-j} sum_{m<=i} (-1)^{i-m} C(i, m) (m + 1)^j,
    the i-th difference at r = 1.  Returns (D, powers, rows, binomials, top):
    powers are the k - j with e_j != 0 in ascending order, so that
    Delta_i = sum_t rows[i][t] p^{powers[t]} with rows[i] cut after the last
    j >= i; binomials[t, i] = C(t, i) for t < 64 and i <= k, as read-only
    int64; and top[i] = C(64, i).  Only odd k < 32 reach it, so it holds at
    most 16 entries."""
    import numpy as np
    d, table = _bernoulli_int_coeffs(k)
    js = [j for j in range(k, -1, -1) if table[k - j]]
    rows = tuple(
        tuple(2**k * table[k - j] * sum((-1) ** (i - m) * math.comb(i, m) * (m + 1) ** j
                                        for m in range(i + 1)) for j in js if j >= i)
        for i in range(k + 1))
    binomials = np.array([[math.comb(t, i) for i in range(k + 1)] for t in range(_CHUNK)],
                         dtype=np.int64)
    binomials.flags.writeable = False
    top = tuple(math.comb(_CHUNK, i) for i in range(k + 1))
    return d, tuple(k - j for j in js), rows, binomials, top


def _chunked_sum(k: int, q: int, p: int, n: int) -> Fraction:
    """The half range sum_{r=1}^{n} g_r f(2r - p) as sum_i Delta_i M_i (see
    `apostol_sum`).

    Slots of b = 8 width bits hold every moment with its sign,
    |M_i| <= p C(n, i + 1) (the weights are below p and
    sum_{s<n} C(s, i) = C(n, i + 1)), and at least 64 bits, a chunk
    moment's; C(n, j) rises up to j = n // 2.  The chunks are combined by
    Horner in Y = (1 + X)^64 mod X^{k+1}, packed at X = 2^b."""
    import numpy as np
    d, powers, rows, binomials, top = _chunk_tables(k)
    pows = [p**e for e in powers]
    chunks = -(-n // _CHUNK)
    # g_r = (r 2q^{-1} mod 2p) - p, and 0 past r = n
    step = 2 * pow(q, -1, p)
    g = np.arange(step, step * _CHUNK * chunks + 1, step, dtype=np.int64) % (2 * p)
    g -= p
    g[n:] = 0
    moments = g.reshape(chunks, _CHUNK) @ binomials
    # each moment plus 2^63, unsigned, little-endian in its slot's low 8 bytes
    width = max(8, ((p * math.comb(n, min(k + 1, n // 2))).bit_length() + 8) // 8)
    slots = np.zeros((chunks, k + 1, width), np.uint8)
    biased = (moments.view(np.uint64) ^ np.uint64(1 << 63)).astype("<u8", copy=False)
    slots[:, :, :8] = biased.view(np.uint8).reshape(chunks, k + 1, 8)
    y = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in top), "little")
    # 2^63 in every slot, the bias taken off each chunk's moments
    offset = int.from_bytes((1 << 63).to_bytes(width, "little") * (k + 1), "little")
    # Horner from the last chunk, mod X^{k+1}
    b = 8 * width
    mask = (1 << (b * (k + 1))) - 1
    acc = 0
    for row in slots[::-1]:
        acc = (acc * y + int.from_bytes(row.tobytes(), "little") - offset) & mask
    # read the signed slots M_0..M_k back from the low end; Delta_i is
    # sum_t rows[i][t] p^{powers[t]}
    total = 0
    slot = (1 << b) - 1
    for row in rows:
        digit = acc & slot
        acc >>= b
        if digit >> (b - 1):
            digit -= 1 << b
            acc += 1
        total += sum(map(operator.mul, row, pows)) * digit
    return Fraction(total, 2**k * d * p ** (k + 1))


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
    """w as an int (`_checked_int`), checked to be even and >= 2, as every
    function of a weight w does."""
    w = _checked_int(w, "w")
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
    w = _checked_weight(w)
    pair.require_u()
    p, q = pair.p, pair.q
    den, terms = _g_int_terms(w)
    g_num = sum(n * p**i * q**j for i, j, n in terms)
    return (p**w * apostol_sum(w + 1, q, p) + q**w * apostol_sum(w + 1, p, q)
            + Fraction(2 * (w + 1) * g_num, den * p * q))


def dim_data(w: int) -> Tuple[int, int]:
    """(d_w, dim M_{w+2}): cusp-form dimension bracket formula and d_w + 1."""
    w = _checked_weight(w)
    d = (w + 2) // 12 - 1 if w % 12 == 0 else (w + 2) // 12
    return d, d + 1
