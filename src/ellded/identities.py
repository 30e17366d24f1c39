"""Eisenstein period data, the one-dimensional span identity, the basis-rank
demonstration, and the three-term / coefficient identities for the weighted
reciprocity polynomials.

Each identity check at one tau reads values built once per (n, tau, policy)
in bounded caches of `TABLE_CACHE_SIZE`: `verify_three_term` and
`t_weighted` the Eisenstein table, `c_coefficients` the c_j
(`_c_coefficients_values`), `verify_eq73` the tuple of its residuals
(`_eq73_residuals`), `reciprocity_laurent` R^-_{2n}'s Laurent coefficients
(`_laurent_terms`), `verify_eq64_onedim` its residual (`_eq64_residual`) and
`coefficient_scale` its value (`_coefficient_scale`).  The caches hold
immutable values only; the Laurent results are fresh copies on every call.
`basis_rank` draws fresh tau and bypasses them (`_rank_matrix`)."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from .exact import CoprimePair, ExpPair, LaurentPoly, bernoulli_number, dim_data, g_poly
from .qseries import (
    DEFAULT_POLICY,
    TABLE_CACHE_SIZE,
    TWO_PI_I,
    ComplexVal,
    EisensteinTable,
    SeriesPolicy,
    TauPoint,
    _Checked,
    _checked,
    _checked_n,
    _cmul,
    _eisenstein_normalized,
    _eisenstein_table,
    _eisenstein_tables,
    zeta_odd,
)
from .symbols import _reciprocity_rhs_of

#: tolerance of the zeta(2n+1) values in the Eisenstein period data
ZETA_TOL = 1e-12
#: `basis_rank` counts singular values above this share of the largest
RANK_THRESHOLD = 1e-8

__all__ = [
    "CoefficientVector",
    "PeriodData",
    "c_coefficients",
    "verify_eq73",
    "coefficient_scale",
    "t_weighted",
    "verify_three_term",
    "eisenstein_period_data",
    "reciprocity_laurent",
    "verify_eq64_onedim",
    "basis_rank",
    "random_taus",
]


@dataclass(frozen=True)
class CoefficientVector:
    """The n+2 coefficients c_0..c_{n+1} of the weighted reciprocity
    polynomial T^-_{2n}(p,q;tau) = sum_j c_j p^{2j} q^{2n+2-2j}."""

    n: int
    c: Tuple[ComplexVal, ...]

    def __post_init__(self):
        if len(self.c) != self.n + 2:
            raise ValueError("need n+2 coefficients")


@dataclass(frozen=True)
class PeriodData:
    """Eisenstein period data for weight 2n+2: the period r_{2n}(G_{2n+2}),
    the Petersson norm (G_{2n+2}, G_{2n+2}) and the odd period polynomial
    r^-(G_{2n+2}) with exact rational coefficients."""

    n: int
    r2n: complex
    petersson: float
    odd_period: LaurentPoly


def c_coefficients(n: int, tau: TauPoint,
                   policy: SeriesPolicy = DEFAULT_POLICY) -> CoefficientVector:
    """The three-case coefficient table:

        c_j = E_{2n+2}                                   j = 0, n+1
        c_j = -E_{2j} E_{2n+2-2j}
              - (delta_{j,1} + delta_{j,n}) (pi i / n) dE_{2n}/dtau    1 <= j <= n

    For n = 1 the two Kronecker deltas coincide at j = 1, doubling the
    derivative term; that doubling is what the degenerate case requires.

    The c_j are built once per (n, tau, policy), beside the Eisenstein table.
    """
    return _c_coefficients_values(_checked_n(n), _checked(tau, policy))


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _c_coefficients_values(n: int, at: _Checked) -> CoefficientVector:
    return _coefficients_of(n, _eisenstein_table(n, at))


def _coefficients_of(n: int, table: EisensteinTable) -> CoefficientVector:
    """The c_j of `c_coefficients` from the Eisenstein table."""
    e_top, prods, de = table
    cs: List[ComplexVal] = [e_top]
    for j, prod in enumerate(prods, 1):
        cj = -prod
        delta = (1 if j == 1 else 0) + (1 if j == n else 0)
        if delta:
            cj = cj - de * (delta * 1j * math.pi / n)
        cs.append(cj)
    cs.append(e_top)
    return CoefficientVector(n, tuple(cs))


def verify_eq73(n: int, k: int, tau: TauPoint,
                policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """Residual of the binomial coefficient identity

        sum_{i: 2i >= k-1} C(2i, k-1) c_i + sum_{i: 2i <= k} C(2n+2-2i, 2n+2-k) c_i
            = c_{(k-1)/2} (k odd) or c_{k/2} (k even).

    The residuals of all 2n+2 k are built once per (n, tau, policy), beside the c_j.
    """
    _checked_n(n)
    if not 1 <= k <= 2 * n + 2:
        raise ValueError(f"k must be in [1, {2*n+2}], got {k}")
    return _eq73_residuals(n, _checked(tau, policy))[k - 1]


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _eq73_residuals(n: int, at: _Checked) -> Tuple[ComplexVal, ...]:
    """The residuals of `verify_eq73` for k = 1..2n+2, from the cached c_j."""
    cs = _c_coefficients_values(n, at).c
    out = []
    for k in range(1, 2 * n + 3):
        lhs = ComplexVal(0j, 0.0)
        for i in range(n + 2):
            if 2 * i >= k - 1:
                lhs = lhs + cs[i] * float(math.comb(2 * i, k - 1))
            if 2 * i <= k:
                lhs = lhs + cs[i] * float(math.comb(2 * n + 2 - 2 * i, 2 * n + 2 - k))
        rhs = cs[(k - 1) // 2] if k % 2 == 1 else cs[k // 2]
        out.append(lhs - rhs)
    return tuple(out)


def coefficient_scale(n: int, tau: TauPoint,
                      policy: SeriesPolicy = DEFAULT_POLICY) -> float:
    """Magnitude of the largest quantity entering the c_j table: the
    Eisenstein products, E_{2n+2} itself and the scaled tau-derivative.

    Used to normalize residuals.  The coefficients themselves can all vanish
    simultaneously (at special points where every form of weight 2n+2 is
    zero), so max |c_j| is not a usable scale.
    """
    return _coefficient_scale(_checked_n(n), _checked(tau, policy))


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _coefficient_scale(n: int, at: _Checked) -> float:
    """`coefficient_scale` from the cached Eisenstein table."""
    e_top, prods, de = _eisenstein_table(n, at)
    return max(abs(e_top.value), math.pi / n * abs(de.value),
               *(abs(prod.value) for prod in prods))


def t_weighted(n: int, pair: CoprimePair, tau: TauPoint,
               policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """T^-_{2n}(p,q;tau) = (2 pi i)^2 pq [ R^-_{2n}(p,q;tau)
    - (2n+1) E_{2n+2} / ((2 pi i)^2 pq) ]."""
    return _t_weighted_of(n, pair, _eisenstein_table(_checked_n(n), _checked(tau, policy)))


def _t_weighted_of(n: int, pair: CoprimePair, table: EisensteinTable) -> ComplexVal:
    """`t_weighted` from the Eisenstein table of (n, tau)."""
    p, q = pair.p, pair.q
    r = _reciprocity_rhs_of(n, pair, table)
    s = r - table[0] * ((2 * n + 1) / ((TWO_PI_I**2).real * p * q))
    return s * ((TWO_PI_I**2).real * p * q)


def verify_three_term(n: int, pair: CoprimePair, tau: TauPoint,
                      policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """Residual of p T(p+q,q) + q T(p,p+q) - (p+q) T(p,q); the three T
    share one Eisenstein table."""
    pair.require_u()
    p, q = pair.p, pair.q
    table = _eisenstein_table(_checked_n(n), _checked(tau, policy))
    t1 = _t_weighted_of(n, CoprimePair(p + q, q), table)
    t2 = _t_weighted_of(n, CoprimePair(p, p + q), table)
    t3 = _t_weighted_of(n, pair, table)
    return t1 * float(p) + t2 * float(q) - t3 * float(p + q)


def eisenstein_period_data(n: int) -> PeriodData:
    """Period data of the normalized weight-(2n+2) Eisenstein series:

        r_{2n}   = (2n)! zeta(2n+1) / (2 (2 pi i)^{2n+1}),
        (G, G)   = ((2n)!/(4 pi)^{2n+1}) (B_{2n+2}/(2(2n+2))) zeta(2n+1),
        r^-(G)   = the exact rational odd period Laurent polynomial,

    which coincides with the degree-2n reciprocity polynomial g_{2n}.
    """
    _checked_n(n)
    z = zeta_odd(n, ZETA_TOL)
    r2n = math.factorial(2 * n) * z / (2 * TWO_PI_I ** (2 * n + 1))
    pet = (
        math.factorial(2 * n) / (4 * math.pi) ** (2 * n + 1)
        * float(bernoulli_number(2 * n + 2)) / (2 * (2 * n + 2))
        * z
    )
    return PeriodData(n, r2n, pet, g_poly(2 * n))


def reciprocity_laurent(w: int, tau: TauPoint,
                        policy: SeriesPolicy = DEFAULT_POLICY) -> Tuple[LaurentPoly, float]:
    """R^-_w(.,.;tau) as a sparse Laurent polynomial in (p, q) with numeric
    Eisenstein coefficients; returns (poly, coefficient error bound).

    With w = 2n, R^-_w = (T^-_w + (2n+1) E_{2n+2}) / ((2 pi i)^2 pq), where
    T^-_w = sum_j c_j p^{2j} q^{2n+2-2j} (`c_coefficients`) and c_0 = E_{2n+2}.

    The coefficients are built once per (n, tau, policy), beside the c_j;
    every call gets its own copy of them.
    """
    coeffs, err = _laurent_terms(_half_weight(w), _checked(tau, policy))
    return LaurentPoly(dict(coeffs)), err


def _half_weight(w: int) -> int:
    if w < 2 or w % 2 != 0:
        raise ValueError("w must be an even integer >= 2")
    return w // 2


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _laurent_terms(n: int, at: _Checked) -> Tuple[Mapping[ExpPair, complex], float]:
    """`reciprocity_laurent`'s coefficients, read-only, and their error
    bound, from the cached c_j."""
    poly, err = _laurent_of(_c_coefficients_values(n, at))
    return MappingProxyType(poly.coeffs), err


def _laurent_of(cv: CoefficientVector) -> Tuple[LaurentPoly, float]:
    """`reciprocity_laurent` from the coefficients c_j."""
    n, cs = cv.n, cv.c
    inv = 1.0 / (TWO_PI_I**2).real
    terms = {(2 * j - 1, 2 * n + 1 - 2 * j): c * inv for j, c in enumerate(cs)}
    terms[(-1, -1)] = cs[0] * ((2 * n + 1) * inv)
    return (LaurentPoly({e: c.value for e, c in terms.items()}),
            max(c.err for c in terms.values()))


def verify_eq64_onedim(w: int, tau: TauPoint,
                       policy: SeriesPolicy = DEFAULT_POLICY) -> LaurentPoly:
    """Coefficient residual of the span identity in the one-dimensional case:

        R^-_w(p,q;tau) + (2 i pi^w / w!) (r_w(G_{w+2}) / (G,G))
                         r^-(G_{w+2})(p,q) G_{w+2}(tau)

    for weights with no cusp forms (w in {2, 4, 6, 8, 12}).  The scalar is
    formed exactly as (2 pi i)^w alpha_w (`_eq64_alpha`) and r^-(G_{w+2})
    is g_w.

    The residual is built once per (n, tau, policy), from the cached
    coefficients of `reciprocity_laurent`; every call gets its own copy."""
    d, _ = dim_data(w)
    if d != 0:
        raise ValueError(f"w = {w} has d_w = {d} > 0; the one-dimensional form needs d_w = 0")
    return LaurentPoly(dict(_eq64_residual(_half_weight(w), _checked(tau, policy))))


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _eq64_residual(n: int, at: _Checked) -> Mapping[ExpPair, complex]:
    """The nonzero coefficients of `verify_eq64_onedim`'s residual at
    w = 2n, read-only."""
    w = 2 * n
    lhs = LaurentPoly(dict(_laurent_terms(n, at)[0]))
    g_val = _eisenstein_normalized(n + 1, at)
    scalar = -(TWO_PI_I**w) * float(_eq64_alpha(w)) * g_val.value
    rhs = LaurentPoly({e: scalar * complex(c) for e, c in g_poly(w).coeffs.items()})
    return MappingProxyType((lhs - rhs).coeffs)


@lru_cache(maxsize=None)
def _eq64_alpha(w: int) -> Fraction:
    """alpha_w = 4 (w+2) / (w! B_{w+2}), with (2 i pi^w / w!) r_w / (G,G)
    = (2 pi i)^w alpha_w for the period data of `eisenstein_period_data`,
    whose zeta(w+1) cancels in the ratio."""
    return Fraction(4 * (w + 2)) / (math.factorial(w) * bernoulli_number(w + 2))


def random_taus(count: int, seed: int) -> List[TauPoint]:
    """Reproducible pseudorandom sample points: Re in [-0.4, 0.4],
    Im in [0.8, 1.5]."""
    rng = random.Random(seed)
    return [
        TauPoint(complex(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.5)))
        for _ in range(count)
    ]


def basis_rank(w: int, taus: List[TauPoint],
               policy: SeriesPolicy = DEFAULT_POLICY) -> int:
    """Numerical rank of the reciprocity polynomials {R^-_w(.,.;tau_i)} over
    their monomial support (singular values above RANK_THRESHOLD x largest).

    The polynomials equal `reciprocity_laurent`'s; their coefficients come
    from one Eisenstein pass over the whole sample (`_rank_matrix`), which
    leaves the per-tau caches to the callers that reuse their tau."""
    n = _half_weight(w)
    # in order, each with its own warning: a rejected tau raises before any series
    ats = [_checked(tau, policy) for tau in taus]
    sv = np.linalg.svd(_rank_matrix(n, ats), compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int(np.sum(sv > RANK_THRESHOLD * sv[0]))


def _rank_matrix(n: int, ats: Sequence[_Checked]) -> np.ndarray:
    """The coefficients of R^-_{2n}(.,.;tau), one row per record of `ats`,
    in the sorted order of their support: (-1, -1), then (2j-1, 2n+1-2j) for
    j = 0..n+1.  Each entry equals `reciprocity_laurent`'s bit for bit: the
    Eisenstein table, c_j and Laurent steps run on (tau x column) arrays
    with every complex product rounded by `_cmul` as Python rounds it, and
    no err is formed, since the rank reads none.  The tables come from one
    pass over the sample (`_eisenstein_tables`), which neither reads nor
    fills the caches."""
    e_top, prods, de = _eisenstein_tables(n, ats)
    # c_0..c_{n+1}, as `_coefficients_of` forms them
    c = np.empty((len(ats), n + 2), dtype=complex)
    c[:, 0] = c[:, n + 1] = e_top
    c[:, 1:n + 1] = -prods
    for j in sorted({1, n}):
        delta = (1 if j == 1 else 0) + (1 if j == n else 0)
        c[:, j] = c[:, j] + -_cmul(de, delta * 1j * math.pi / n)
    # the Laurent coefficients, as `_laurent_of` forms them
    inv = 1.0 / (TWO_PI_I**2).real
    return np.column_stack((_cmul(c[:, 0], (2 * n + 1) * inv), _cmul(c, inv)))
