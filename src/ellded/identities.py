"""Eisenstein period data, the one-dimensional span identity, the basis-rank
demonstration, and the three-term / coefficient identities for the weighted
reciprocity polynomials.

Every identity check at one tau reads one immutable `_Record`, built once
per (n, tau, policy) from one Eisenstein table in one bounded cache of
`TABLE_CACHE_SIZE` (`_record`): the table itself, which `verify_three_term`
and `t_weighted` read, the c_j, all 2n+2 eq73 residuals, `coefficient_scale`'s
value, and R^-_{2n}'s Laurent coefficients with their err and the eq64
residual at w = 2n, both read-only.  Each public function checks its
arguments and tau on every call and then reads one field; the Laurent results
are fresh copies on every call.  `basis_rank` draws fresh tau and bypasses
the record (`_rank_matrix`)."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from .exact import (CoprimePair, ExpPair, LaurentPoly, _checked_int, _checked_weight,
                    _g_int_terms, bernoulli_number, dim_data, g_poly)
from .qseries import (
    DEFAULT_POLICY,
    TWO_PI_I,
    ComplexVal,
    EisensteinTable,
    SeriesPolicy,
    TauPoint,
    _Checked,
    _checked,
    _checked_n,
    _eisenstein_normalized,
    _eisenstein_table,
    _eisenstein_tables,
    zeta_odd,
)
from .symbols import _reciprocity_rhs_of

#: entries of the per-(n, tau) record cache (`_record`); bounded because a
#: caller may draw fresh tau (`basis_rank` does not use it)
TABLE_CACHE_SIZE = 128
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
    """
    return _record(_checked_n(n), _checked(tau, policy)).c


class _Record(NamedTuple):
    """Every value an identity check reads at one (n, tau): the Eisenstein
    table, the c_j, the `verify_eq73` residuals for k = 1..2n+2,
    `coefficient_scale`, and R^-_{2n}'s Laurent coefficients with their err
    bound and the `verify_eq64_onedim` residual at w = 2n, both read-only."""

    table: EisensteinTable
    c: CoefficientVector
    eq73: Tuple[ComplexVal, ...]
    scale: float
    laurent: Mapping[ExpPair, complex]
    laurent_err: float
    eq64: Mapping[ExpPair, complex]


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _record(n: int, at: _Checked) -> _Record:
    """The record of n at `at`'s tau, from one Eisenstein table and G_{2n+2},
    whose q-sum the table has read; bounded, as a caller may draw fresh tau."""
    table = _eisenstein_table(n, at)
    e_top, prods, de = table
    cv = _coefficients_of(n, table)
    laurent, err = _laurent_of(cv)
    w = 2 * n
    scalar = -(TWO_PI_I**w) * float(_eq64_alpha(w)) * _eisenstein_normalized(n + 1, at).value
    # g_w's coefficients c / den as correctly rounded int quotients, the
    # floats of its Fractions
    den, terms = _g_int_terms(w)
    eq64 = laurent - LaurentPoly({(i - 1, j - 1): scalar * (c / den) for i, j, c in terms})
    scale = max(abs(e_top.value), math.pi / n * abs(de.value),
                *(abs(prod.value) for prod in prods))
    return _Record(table, cv, _eq73_of(n, cv.c), scale, MappingProxyType(laurent.coeffs), err,
                   MappingProxyType(eq64.coeffs))


def _coefficients_of(n: int, table: EisensteinTable) -> CoefficientVector:
    """The c_j of `c_coefficients` from the Eisenstein table."""
    e_top, prods, de = table
    cs = [e_top, *(-prod for prod in prods), e_top]
    for j in sorted({1, n}):
        cs[j] = cs[j] - de * (((j == 1) + (j == n)) * 1j * math.pi / n)
    return CoefficientVector(n, tuple(cs))


def verify_eq73(n: int, k: int, tau: TauPoint,
                policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """Residual of the binomial coefficient identity

        sum_{i: 2i >= k-1} C(2i, k-1) c_i + sum_{i: 2i <= k} C(2n+2-2i, 2n+2-k) c_i
            = c_{(k-1)/2} (k odd) or c_{k/2} (k even).
    """
    n, k = _checked_n(n), _checked_int(k, "k")
    if not 1 <= k <= 2 * n + 2:
        raise ValueError(f"k must be in [1, {2*n+2}], got {k}")
    return _record(n, _checked(tau, policy)).eq73[k - 1]


@lru_cache(maxsize=None)
def _eq73_weights(n: int) -> Tuple[Tuple[Tuple[int, float], ...], ...]:
    """Per k = 1..2n+2, the (i, float(C)) pairs of the left side of
    `verify_eq73`, in the order its two sums meet them: per i = 0..n+1,
    C(2i, k-1) where 2i >= k-1, then C(2n+2-2i, 2n+2-k) where 2i <= k."""
    return tuple(tuple((i, float(math.comb(top, bottom))) for i in range(n + 2)
                       for top, bottom, used in ((2 * i, k - 1, 2 * i >= k - 1),
                                                 (2 * n + 2 - 2 * i, 2 * n + 2 - k, 2 * i <= k))
                       if used) for k in range(1, 2 * n + 3))


def _eq73_of(n: int, cs: Tuple[ComplexVal, ...]) -> Tuple[ComplexVal, ...]:
    """The residuals of `verify_eq73` for k = 1..2n+2 from the c_j, over the
    weights of n (`_eq73_weights`)."""
    out = []
    for k, weights in enumerate(_eq73_weights(n), 1):
        lhs = ComplexVal(0j, 0.0)
        for i, weight in weights:
            lhs = lhs + cs[i] * weight
        # c_{(k-1)/2} for odd k, c_{k/2} for even k
        out.append(lhs - cs[k // 2])
    return tuple(out)


def coefficient_scale(n: int, tau: TauPoint,
                      policy: SeriesPolicy = DEFAULT_POLICY) -> float:
    """Magnitude of the largest quantity entering the c_j table: the
    Eisenstein products, E_{2n+2} itself and the scaled tau-derivative.

    Used to normalize residuals.  The coefficients themselves can all vanish
    simultaneously (at special points where every form of weight 2n+2 is
    zero), so max |c_j| is not a usable scale.
    """
    return _record(_checked_n(n), _checked(tau, policy)).scale


def t_weighted(n: int, pair: CoprimePair, tau: TauPoint,
               policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """T^-_{2n}(p,q;tau) = (2 pi i)^2 pq [ R^-_{2n}(p,q;tau)
    - (2n+1) E_{2n+2} / ((2 pi i)^2 pq) ]."""
    pair.require_u()
    n = _checked_n(n)
    return _t_weighted_of(n, pair, _record(n, _checked(tau, policy)).table)


def _t_weighted_of(n: int, pair: CoprimePair, table: EisensteinTable) -> ComplexVal:
    """`t_weighted` from the Eisenstein table of (n, tau), for a pair in U."""
    p, q = pair.p, pair.q
    r = _reciprocity_rhs_of(n, pair, table)
    s = r - table[0] * ((2 * n + 1) / ((TWO_PI_I**2).real * p * q))
    return s * ((TWO_PI_I**2).real * p * q)


def verify_three_term(n: int, pair: CoprimePair, tau: TauPoint,
                      policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """Residual of p T(p+q,q) + q T(p,p+q) - (p+q) T(p,q); the three T
    share one Eisenstein table."""
    pair.require_u()
    n, p, q = _checked_n(n), pair.p, pair.q
    table = _record(n, _checked(tau, policy)).table
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
    n = _checked_n(n)
    z = zeta_odd(n)
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
    Every call gets its own copy of the coefficients.
    """
    rec = _record(_checked_weight(w) // 2, _checked(tau, policy))
    return LaurentPoly(dict(rec.laurent)), rec.laurent_err


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
    is g_w.  Every call gets its own copy of the residual."""
    d, _ = dim_data(w)
    if d != 0:
        raise ValueError(f"w = {w} has d_w = {d} > 0; the one-dimensional form needs d_w = 0")
    return LaurentPoly(dict(_record(_checked_weight(w) // 2, _checked(tau, policy)).eq64))


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

    The polynomials equal `reciprocity_laurent`'s up to rounding; their
    coefficients come from one Eisenstein product over the whole sample
    (`_rank_matrix`), which leaves the per-tau record to the callers that
    reuse their tau."""
    n = _checked_weight(w) // 2
    # in order, each with its own warning: a rejected tau raises before any series
    ats = [_checked(tau, policy) for tau in taus]
    sv = np.linalg.svd(_rank_matrix(n, ats), compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int(np.sum(sv > RANK_THRESHOLD * sv[0]))


def _rank_matrix(n: int, ats: Sequence[_Checked]) -> np.ndarray:
    """The coefficients of R^-_{2n}(.,.;tau), one row per record of `ats`,
    in the sorted order of their support: (-1, -1), then (2j-1, 2n+1-2j) for
    j = 0..n+1.  Each entry equals `reciprocity_laurent`'s up to rounding:
    the Eisenstein table, c_j and Laurent steps run on (tau x column) numpy
    arrays, and no err is formed, since the rank reads none.  The tables
    come from one product over the sample (`_eisenstein_tables`), which
    neither reads nor fills the caches.  The matrix is filled in place: c_j
    in its last n + 2 columns, then each column scaled."""
    e_top, prods, de = _eisenstein_tables(n, ats)
    out = np.empty((len(ats), n + 3), dtype=complex)
    # c_0..c_{n+1}, as `_coefficients_of` forms them
    c = out[:, 1:]
    c[:, 0] = c[:, n + 1] = e_top
    c[:, 1:n + 1] = -prods
    for j in sorted({1, n}):
        c[:, j] -= de * (((j == 1) + (j == n)) * 1j * math.pi / n)
    # the Laurent coefficients, as `_laurent_of` forms them
    inv = 1.0 / (TWO_PI_I**2).real
    out[:, 0] = c[:, 0] * ((2 * n + 1) * inv)
    c *= inv
    return out
