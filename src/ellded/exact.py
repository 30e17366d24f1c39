"""Exact rational layer: Bernoulli machinery, Apostol-Dedekind sums and their
reciprocity polynomial.

Everything in this module is computed exactly, with arbitrary-precision
integers and rationals (`fractions.Fraction`), so "zero" means the exact
rational zero.  The periodic Bernoulli function uses the Fourier-series value
at integers, i.e. bernoulli_function(1, integer) == 0, not B_1 = -1/2.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Tuple, Union

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

    Read from the table of B_0..B_{K-1} for the least power of two K above
    k (`_bernoulli_table`), after k is checked (`_checked_int`) before the
    cache sees it.
    """
    k = _checked_int(k, "k")
    if k < 0:
        raise ValueError("k must be >= 0")
    return _bernoulli_table(1 << k.bit_length())[k]


def _primes_to(m: int) -> Tuple[int, ...]:
    """The primes up to m >= 1, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (m + 1)
    sieve[:2] = b"\0\0"
    for d in range(2, math.isqrt(m) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, m + 1, d)))
    return tuple(i for i, flag in enumerate(sieve) if flag)


@functools.lru_cache(maxsize=None)
def _bernoulli_table(size: int) -> Tuple[Fraction, ...]:
    """B_0, ..., B_{size-1}.  B_{2n} = (-1)^{n-1} 2n T_n / (4^n (4^n - 1))
    from the tangent numbers T_1..T_N, N = (size - 1) // 2, which the
    in-place recurrence of Brent and Harvey ("Fast computation of
    Bernoulli, tangent and secant numbers", 2013) builds in O(N^2) integer
    multiply-adds; its denominator is the product of the primes l with
    (l - 1) | 2n (von Staudt-Clausen), so the numerator is one exact
    integer division."""
    top = (size - 1) // 2
    tangent = [0, 1] + [0] * (top - 1)
    for j in range(2, top + 1):
        tangent[j] = (j - 1) * tangent[j - 1]
    for i in range(2, top + 1):
        for j in range(i, top + 1):
            tangent[j] = (j - i) * tangent[j - 1] + (j - i + 2) * tangent[j]
    dens = [1] * (top + 1)
    for ell in _primes_to(2 * top + 1):
        # (l - 1) | 2n: every n for l = 2, every multiple of (l - 1)/2 else
        for n in range((ell - 1) // 2 or 1, top + 1, (ell - 1) // 2 or 1):
            dens[n] *= ell
    table = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (size - 2)
    for n in range(1, top + 1):
        num = (-1) ** (n - 1) * 2 * n * tangent[n] * dens[n] // (4**n * (4**n - 1))
        table[2 * n] = Fraction(num, dens[n])
    return tuple(table[:size])


# the memo is the table's; the public function empties it
bernoulli_number.cache_clear = _bernoulli_table.cache_clear


def _over_one_denominator(fracs) -> Tuple[int, Tuple[int, ...]]:
    """(D, (D n / d, ...)) for the rationals n / d given as int pairs (n, d),
    d > 0: D is the lcm of their reduced denominators."""
    reduced = [(n // g, d // g) for n, d in fracs for g in (math.gcd(n, d),)]
    big = math.lcm(*(d for _, d in reduced))
    return big, tuple(n * (big // d) for n, d in reduced)


@functools.lru_cache(maxsize=None)
def _bernoulli_int_coeffs(k: int) -> Tuple[int, Tuple[int, ...]]:
    """(D, (D C(k, j) B_j)_j): B_k(x) = sum_j C(k, j) B_j x^{k-j}, and D is
    the lcm of the reduced denominators of the C(k, j) B_j, so D B_k(x) has
    integer coefficients (descending powers), from the numerators and
    denominators of `_bernoulli_table`."""
    table = _bernoulli_table(1 << k.bit_length())
    return _over_one_denominator((math.comb(k, j) * table[j].numerator, table[j].denominator)
                                 for j in range(k + 1))


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
    """Exact value of the kth Bernoulli polynomial at rational x = n/d: the
    integer Horner sum_j a_j n^{k-j} d^j over `_bernoulli_int_coeffs`'
    (D, a), divided once by D d^k."""
    k = _checked_int(k, "k")
    if k < 0:
        raise ValueError("k must be >= 0")
    n, d = Fraction(x).as_integer_ratio()
    big, coeffs = _bernoulli_int_coeffs(k)
    acc = 0
    for j, c in enumerate(coeffs):
        acc = acc * n + c * d**j
    return Fraction(acc, big * d**k)


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


#: Rows of the power table, and of each block of a long half range
_ROWS = 1024

#: A long half range is walked this many blocks at a time
_SPAN_BLOCKS = 64

#: The moduli of the moment kernel are primes below 2^_MODULUS_BITS
_MODULUS_BITS = 26

#: The moment kernel takes orders k < _MAX_ORDER, and p < 2^31, so that its
#: weights r 2q^{-1} < 2p^2 fit int64
_MAX_ORDER = 32

#: A half range of n terms at order k costs the centred loop about
#: n (min(k, 13) + 9) units and the moment kernel about 560 units while n is
#: short (measured on CPython 3.11, Intel Xeon: the two meet between 500 and
#: 660 units for k = 1 to 13, the kernel taking 10 to 35 us), so shorter
#: sums keep the loop.
_LOOP_COST_CUT = 560


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
    even k.  The single division is by 2^k D p^{k+1} at the end, of the
    integer numerator `_apostol_numerator`.

    A short sum, one at an order k >= 32 or one at p >= 2^31 is summed term
    by term over 1 <= mu < p/2, Horner in u^2.  A long one is indexed by r:
    with n = ceil(p/2) - 1 and the weight g_r = 2 (r q^{-1} mod p) - p, the
    sawtooth times 2p, it is sum_{r=1}^{n} g_r F(r), F(r) = f(2r - p) a
    polynomial sum_j e_j p^{k-j} r^j, so it is sum_j e_j p^{k-j} P_j over
    the power moments P_j = sum_r g_r r^j of the weights.  `_moment_sum`
    takes each P_j modulo a few primes below 2^26 from exact float64 dot
    products against a table of s^j, and recovers it by the Chinese
    remainder theorem.  Both ways give the same Fraction.  Neither uses a
    reciprocity law, so the sum doubles as the independent oracle for the
    exact reciprocity check and the elliptic degeneration checks.
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
    return Fraction(_apostol_numerator(k, q, p),
                    2**k * _bernoulli_int_coeffs(k)[0] * p ** (k + 1))


def _apostol_numerator(k: int, q: int, p: int) -> int:
    """The integer A with s_k(q, p) = A / (2^k D p^{k+1}), for an odd k, a
    p >= 1 and a q coprime to it, all ints, and D as in
    `_bernoulli_int_coeffs`: the half range of `apostol_sum`,
    sum_{1 <= mu < p/2} (2 mu - p) f(u)."""
    n = (p + 1) // 2 - 1
    if n * (min(k, 13) + 9) >= _LOOP_COST_CUT and k < _MAX_ORDER and p < 2**31:
        return _moment_sum(k, q, p, n)
    _, table = _bernoulli_centred_coeffs(k)
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
    return acc


@functools.lru_cache(maxsize=None)
def _moduli() -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(primes, products): the largest primes below 2^26 in descending
    order, found by trial division by the primes below 2^13, as many as the
    largest moment bound of `_moment_sum` needs (2 p n^{k+1} < 2^{992} for
    k < 32, p < 2^31, n < 2^30), and products[t - 1] the product of the
    first t of them."""
    small = _primes_to(2 ** (_MODULUS_BITS // 2))
    primes = []
    candidate = 2**_MODULUS_BITS - 1
    while math.prod(primes) <= 2 ** (32 + 30 * _MAX_ORDER):
        if all(candidate % ell for ell in small):
            primes.append(candidate)
        candidate -= 2
    return tuple(primes), tuple(itertools.accumulate(primes, operator.mul))


def _prime_count(bound: int) -> int:
    """The least t with P_0 ... P_{t-1} > 2 bound, P_i from `_moduli`: the
    Chinese remainder theorem mod their product recovers, in the symmetric
    range, an integer of size at most bound."""
    return bisect.bisect_right(_moduli()[1], 2 * bound) + 1


@functools.lru_cache(maxsize=None)
def _crt_basis(t: int) -> Tuple[int, Tuple[int, ...]]:
    """(m, c): m = P_0 ... P_{t-1} and c_i = (m / P_i) ((m / P_i)^{-1} mod P_i),
    so that sum_i x_i c_i = x mod m for any x_i = x mod P_i."""
    primes = _moduli()[0][:t]
    m = math.prod(primes)
    return m, tuple(m // P * pow(m // P, -1, P) for P in primes)


#: `_power_table`'s table: the one of the most powers and moduli asked for
#: so far, or None
_power_cache = None


def _power_table(powers: int, count: int):
    """The float64 table T[s, j, i] = s^j mod P_i for s < 1024, P_i from
    `_moduli`, read-only, with at least `powers` powers j and `count`
    moduli: one table, grown to the most of each asked for so far, so that
    the columns of j < powers are a prefix of every row."""
    global _power_cache
    table = _power_cache
    if table is None or table.shape[1] < powers or table.shape[2] < count:
        import numpy as np
        if table is not None:
            powers, count = max(powers, table.shape[1]), max(count, table.shape[2])
            # freed before its successor is built, so the two never coexist
            _power_cache = table = None
        mods = np.array(_moduli()[0][:count], dtype=float)
        rows = np.arange(_ROWS, dtype=float)[:, None]
        # built column by column in place: s^j mod P < 2^26, times s < 2^36
        table = np.empty((_ROWS, powers, count))
        table[:, 0] = 1
        for j in range(1, powers):
            np.multiply(table[:, j - 1], rows, out=table[:, j])
            np.fmod(table[:, j], mods, out=table[:, j])
        table.flags.writeable = False
        _power_cache = table
    return table


def _moment_sum(k: int, q: int, p: int, n: int) -> int:
    """The half range sum_{r=1}^{n} g_r F(r) of `apostol_sum`, the integer
    numerator of s_k(q, p), from the power moments P_j = sum_{r<=n} g_r r^j:

        F(r) = D 2^k p^k B_k(r/p) = sum_j e_j p^{k-j} r^j,  e_j = 2^k D C(k, j) B_{k-j},

    so the sum is sum_j e_j p^{k-j} P_j over the j with e_j != 0.  As
    |g_r| < p, |P_j| < p n^{j+1} <= p n^{k+1}, and the first t moduli of
    `_moduli` with a product above twice that (`_prime_count`) recover every
    P_j in the symmetric range by the Chinese remainder theorem.

    The residues come from float64 products of the weights against
    `_power_table`.  A dot product of at most 1024 weights |g_r| < p and
    residues below 2^26 is exact while 1024 p <= 2^27; past that the
    weights are split into 16-bit halves.  A range of n < 1024 is one
    block, whose dot products are the moments.  A longer one is walked in
    blocks of 1024 rows r = r_0 + s, whose moments in s are shifted to r
    by the binomial theorem mod P_i (`_shifted_moments`)."""
    import numpy as np
    _, coeffs = _bernoulli_int_coeffs(k)
    t = _prime_count(p * n ** (k + 1))
    table = _power_table(k + 1, t)
    step = 2 * pow(q, -1, p)
    if n < _ROWS:
        # g_r = (r 2q^{-1} mod 2p) - p for r = 1..n, and 0 at r = 0
        g = np.arange(n + 1, dtype=np.int64) * step % (2 * p) - p
        g[0] = 0
        # below 1024 (p - 1) 2^26 < 2^53: exact, and each its own residue
        dots = _product(g.astype(float)[None], table[:n + 1, :k + 1].reshape(n + 1, -1))
        residues = dots.reshape(k + 1, -1).astype(np.int64).tolist()
    else:
        residues = _shifted_moments(k, step, p, n, table)
    m, basis = _crt_basis(t)
    # coeffs[i] = D C(k, i) B_i is e_{k-i} / 2^k: sum_i coeffs[i] p^i P_{k-i}
    # by Horner in p, each P_j from the residues of the first t moduli
    acc = 0
    for i in range(k, -1, -1):
        acc *= p
        if coeffs[i]:
            moment = sum(map(operator.mul, residues[k - i], basis)) % m
            acc += coeffs[i] * (moment - m if 2 * moment > m else moment)
    return acc << k


def _product(weights, powers):
    """weights @ powers for 2-D float64 arrays, in pieces of at most 2^18
    multiply-adds, which OpenBLAS runs on the calling thread (past that it
    starts threads of its own); one product, with no copies, where the
    whole fits in one piece."""
    import numpy as np
    depth, width = powers.shape
    cols = min(width, max(1, 2**18 // depth))
    rows = max(1, 2**18 // (depth * cols))
    if cols == width and rows >= len(weights):
        return weights @ powers
    return np.concatenate([np.concatenate([weights[i:i + rows] @ powers[:, j:j + cols]
                                           for j in range(0, width, cols)], axis=1)
                           for i in range(0, len(weights), rows)])


def _shifted_moments(k: int, step: int, p: int, n: int, table):
    """P_j mod P_i (as lists over j <= k, then i) for a half range of
    n >= 1024 (see `_moment_sum`).  Each block b of rows r = r_b + s,
    s < 1024, has the moments M_b[m] = sum_s g_r s^m mod P_i, and
    r^j = sum_m C(j, m) r_b^{j-m} s^m, so

        P_j = sum_m C(j, m) N[e = j - m, m],  N[e, m] = sum_b r_b^e M_b[m]  (mod P_i),

    with N summed in int64 over at most 64 blocks at a time, each product of
    two residues below 2^52."""
    import numpy as np
    count = table.shape[2]
    mods = np.array(_moduli()[0][:count], dtype=float)
    imods = mods.astype(np.int64)
    powers = table[:, :k + 1].reshape(_ROWS, -1)
    # weights split below 2^16 keep the dot products below 1024 2^16 2^26
    wide = _ROWS * p > 2 ** (53 - _MODULUS_BITS)
    # s 2q^{-1} mod 2p: a block's weights are these plus r_b 2q^{-1} mod 2p,
    # less p and, at or past 2p, 2p more
    offsets = (np.arange(_ROWS, dtype=np.int64) * step % (2 * p)).astype(float)
    acc = np.zeros((k + 1, k + 1, count), np.int64)
    for first in range(0, n + 1, _ROWS * _SPAN_BLOCKS):
        starts = np.arange(first, min(first + _ROWS * _SPAN_BLOCKS, n + 1), _ROWS,
                           dtype=np.int64)
        g = (starts * step % (2 * p)).astype(float)[:, None] + offsets
        g = np.where(g >= 2 * p, g - 3 * p, g - p)
        # r = 0 and the rows past n weigh 0
        g.reshape(-1)[n + 1 - first:] = 0
        if first == 0:
            g[0, 0] = 0
        blocks = len(g)
        if wide:
            # g = 2^16 hi + lo with 0 <= lo < 2^16 and |hi| < 2^15
            hi = np.floor(g / 2**16)
            g = np.concatenate((hi, g - hi * 2**16))
        dots = _product(g, powers).reshape(len(g), k + 1, count)
        if wide:
            dots = np.fmod(dots[:blocks], mods) * 2**16 + dots[blocks:]
        moments = np.fmod(dots, mods).astype(np.int64)
        # r_b^e mod P_i
        shift = np.empty((blocks, k + 1, count), np.int64)
        shift[:, 0] = 1
        shift[:, 1] = np.fmod(starts[:, None].astype(float), mods)
        for e in range(2, k + 1):
            shift[:, e] = shift[:, e - 1] * shift[:, 1] % imods
        acc += np.einsum("bei,bmi->emi", shift, moments)
        acc %= imods
    js, ms = np.tril_indices(k + 1)
    binomials = np.array([math.comb(j, m) for j, m in zip(js, ms)], dtype=np.int64)
    # below 32 C(31, 15) 2^26 < 2^60
    out = np.zeros((k + 1, count), np.int64)
    np.add.at(out, js, acc[js - ms, ms] * binomials[:, None])
    return out.tolist()


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

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
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
                out[e] = out.get(e, 0) + c1 * c2
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
            rest = LaurentPoly.monomial(0, j, c) if which == "p" else LaurentPoly.monomial(i, 0, c)
            out = out + rest * LaurentPoly({(r, e - r): math.comb(e, r) for r in range(e + 1)})
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
                         + B_{w+2} / (2(w+2)) ],

    a fresh LaurentPoly (it is mutable) of the Fractions c / den of the
    integer table `_g_int_terms`.
    """
    den, terms = _g_int_terms(_checked_weight(w))
    return LaurentPoly({(i - 1, j - 1): Fraction(c, den) for i, j, c in terms})


@functools.lru_cache(maxsize=None)
def _g_int_terms(w: int) -> Tuple[int, Tuple[Tuple[int, int, int], ...]]:
    """(den, ((i + 1, j + 1, den c_ij), ...)) over the monomials c_ij p^i q^j
    of g_w: den is the lcm of their reduced denominators, so that
    den pq g_w(p, q) is an integer polynomial with exponents i + 1, j + 1 >= 0.

    As w! / ((2j)! (w+2-2j)!) = C(w+2, 2j) / ((w+1)(w+2)), the monomial
    p^i q^j of pq g_w, (i, j) = (2t, w+2-2t) for t = 0..w/2+1 in turn, has
    the coefficient -C(w+2, i) B_i B_j / (2 (w+1)(w+2)), and the constant
    -B_{w+2} / (2(w+2)) comes last; each is formed from the numerators and
    denominators of `_bernoulli_table`."""
    b = _bernoulli_table(1 << (w + 2).bit_length())
    exps = [(2 * t, w + 2 - 2 * t) for t in range(w // 2 + 2)]
    fracs = [(-math.comb(w + 2, i) * b[i].numerator * b[j].numerator,
              2 * (w + 1) * (w + 2) * b[i].denominator * b[j].denominator) for i, j in exps]
    fracs.append((-b[w + 2].numerator, 2 * (w + 2) * b[w + 2].denominator))
    den, nums = _over_one_denominator(fracs)
    return den, tuple((i, j, c) for (i, j), c in zip(exps + [(0, 0)], nums))


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
    # s_{w+1}(q, p) = A / (s p^{w+2}) and s_{w+1}(p, q) = B / (s q^{w+2}),
    # s = 2^{w+1} D, and 2(w+1) g_w = 2(w+1) g_num / (den p q): one
    # Fraction over s den p^2 q^2
    scale = 2 ** (w + 1) * _bernoulli_int_coeffs(w + 1)[0]
    a = _apostol_numerator(w + 1, q, p)
    b = _apostol_numerator(w + 1, p, q)
    return Fraction((a * q * q + b * p * p) * den + 2 * (w + 1) * g_num * scale * p * q,
                    scale * den * p * p * q * q)


def dim_data(w: int) -> Tuple[int, int]:
    """(d_w, dim M_{w+2}): cusp-form dimension bracket formula and d_w + 1."""
    w = _checked_weight(w)
    d = (w + 2) // 12 - 1 if w % 12 == 0 else (w + 2) // 12
    return d, d + 1
