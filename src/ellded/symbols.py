"""Elliptic Apostol-Dedekind sums, their reciprocity functions and generating
functions, Machide's elliptic Dedekind-Rademacher sums, and the residual
verifiers built on them.

Double sums over (lambda, mu) evaluate each factor at all points at once with
the batched kernels of `qseries` and add the products with `math.fsum`, which
is correctly rounded and independent of order, so repeated runs are
bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import List, Sequence, Tuple, Union

import numpy as np

from .exact import CoprimePair
from .qseries import (
    DEFAULT_POLICY,
    ComplexArray,
    ComplexVal,
    SeriesPolicy,
    TauPoint,
    _check_n_tau,
    _eisenstein,
    _eisenstein_of_sum,
    _eisenstein_q_sums,
    _eisenstein_tau_derivative,
    _eisenstein_tau_derivative_of_sum,
    _pe_plus_e2,
    _sigma_log_blocks,
    _zeta_block,
    eisenstein,
    elliptic_bernoulli_points,
    weierstrass_p_deriv_points,
)

TWO_PI_I = 2j * math.pi

__all__ = [
    "Route",
    "EllipticSumResult",
    "MachideSpec",
    "elliptic_apostol_sum",
    "reciprocity_rhs",
    "generating_D",
    "generating_R",
    "machide_sum",
    "machide_reciprocity_residuals",
    "proposition31_residual",
    "proposition31_constant_closed_form",
    "expected_constant",
]


class Route(Enum):
    ZETA_DERIVATIVE = "zeta_derivative"
    BERNOULLI_PRODUCT = "bernoulli_product"


@dataclass(frozen=True)
class EllipticSumResult:
    value: ComplexVal
    route: Route
    p: int
    q: int
    n: int
    tau: TauPoint


def _grid(rows: int, cols: int, origin: bool = True) -> Tuple[np.ndarray, np.ndarray]:
    """(i, j) over 0 <= i < rows, 0 <= j < cols in row-major order, as integer
    arrays; without (0, 0) if not `origin`."""
    return np.divmod(np.arange(0 if origin else 1, rows * cols), cols)


def _division_points(p: int) -> Tuple[np.ndarray, np.ndarray]:
    """(lambda, mu) of the p-division points (lambda + mu tau)/p other than 0."""
    return _grid(p, p, origin=False)


def _division_z(lam: np.ndarray, mu: np.ndarray, tau: TauPoint, p: int) -> np.ndarray:
    """(lambda + mu tau)/p with each part correctly rounded.  numpy divides
    a complex array by p through a rounded 1/p, an ulp the steep factors
    of the sums would amplify."""
    t = tau.tau
    return (lam + mu * t.real) / p + 1j * (mu * t.imag / p)


def _halves(a: ComplexArray) -> Tuple[ComplexArray, ComplexArray]:
    """The first and second halves of a batch that evaluated two factors at once."""
    n = len(a) // 2
    return ComplexArray(a.value[:n], a.err[:n]), ComplexArray(a.value[n:], a.err[n:])


def _fsum(*parts: Union[ComplexArray, ComplexVal]) -> ComplexVal:
    """The sum of all the values, with the summed errs plus one rounding of
    2^-52 |v| per term; correctly rounded and independent of order."""
    v = np.concatenate([np.atleast_1d(t.value) for t in parts])
    err = np.concatenate([np.atleast_1d(t.err) for t in parts])
    return ComplexVal(complex(math.fsum(v.real), math.fsum(v.imag)),
                      math.fsum(err) + 2.0**-52 * math.fsum(np.hypot(v.real, v.imag)))


def _zeta_bracket(z: np.ndarray, mu_over_p: np.ndarray,
                  tau: TauPoint, policy: SeriesPolicy) -> ComplexArray:
    """zeta(z) - E_2 z + 2 pi i * (mu/p); the recurring odd-symbol factor,
    from the E_2-free block `qseries._zeta_block`."""
    return _zeta_block(z, tau, policy) + ComplexArray(TWO_PI_I * mu_over_p, 0.0)


def elliptic_apostol_sum(n: int, pair: CoprimePair, tau: TauPoint,
                         route: Route = Route.ZETA_DERIVATIVE,
                         policy: SeriesPolicy = DEFAULT_POLICY) -> EllipticSumResult:
    """The elliptic Apostol-Dedekind sum D^-_{2n}(p, q; tau).

    Route ZETA_DERIVATIVE is the defining double sum over p-division points,

        1/((2 pi i)^2 p (2n)!) sum_{(l,m) != 0} zeta^{(2n)}((l+m tau)/p)
            * [zeta(q(l+m tau)/p) - E_2 q(l+m tau)/p + 2 pi i q m / p].

    Route BERNOULLI_PRODUCT rewrites both factors through the Kronecker
    lattice-sum correspondence as elliptic Bernoulli functions.  The
    zeta-derivative factor is a plain shifted lattice sum while the Bernoulli
    functions are character-twisted sums; converting one to the other by a
    finite Fourier transform over the p-division points turns the weight-1
    argument into q^{-1} mod p and rescales:

        -(2 pi i)^{2n} p^{2n-1} / (2n+1)! sum_{(l,m) != 0}
            B_{2n+1}(-l/p, m/p; tau) B_1(-q* l/p, q* m/p; tau),

    with q* q = 1 (mod p).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p, q = pair.p, pair.q
    lam, mu = _division_points(p)
    if route is Route.ZETA_DERIVATIVE:
        z = _division_z(lam, mu, tau, p)
        # zeta^{(2n)} = -pe^{(2n-1)}
        zd = -weierstrass_p_deriv_points(2 * n - 1, z, tau, policy)
        total = _fsum(zd * _zeta_bracket(q * z, q * mu / p, tau, policy))
        val = total * (1.0 / ((TWO_PI_I**2).real * p * math.factorial(2 * n)))
    else:
        q_inv = pow(q % p, -1, p) if p > 1 else 0
        b_hi = elliptic_bernoulli_points(2 * n + 1, -lam / p, mu / p, tau, policy)
        b_lo = elliptic_bernoulli_points(1, -q_inv * lam / p, q_inv * mu / p,
                                         tau, policy)
        total = _fsum(b_hi * b_lo)
        val = total * (-(TWO_PI_I ** (2 * n)) * p ** (2 * n - 1)
                       / math.factorial(2 * n + 1))
    return EllipticSumResult(val, route, p, q, n, tau)


#: entries of the Eisenstein-table cache; bounded because a caller may
#: draw fresh tau (`_eisenstein_tables` does not use it)
TABLE_CACHE_SIZE = 128

EisensteinTable = Tuple[ComplexVal, Tuple[ComplexVal, ...], ComplexVal]


def _eisenstein_table(n: int, tau: TauPoint, policy: SeriesPolicy) -> EisensteinTable:
    """The Eisenstein values that R^-_{2n} is built from: E_{2n+2}, the
    products E_{2j} E_{2n+2-2j} for j = 1..n, and dE_{2n}/dtau.

    n and tau are checked on every call, with one SlowNomeWarning for the
    whole table; the values come from a bounded per-(n, tau, policy) cache."""
    _check_n_tau(n, tau, policy)
    return _eisenstein_table_values(n, tau, policy)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _eisenstein_table_values(n: int, tau: TauPoint, policy: SeriesPolicy) -> EisensteinTable:
    return _table_of(n, [_eisenstein(j, tau, policy) for j in range(1, n + 2)],
                     _eisenstein_tau_derivative(n, tau, policy))


def _table_of(n: int, e: Sequence[ComplexVal], de: ComplexVal) -> EisensteinTable:
    """The table from E_2, ..., E_{2n+2} (the list e) and dE_{2n}/dtau."""
    return e[n], tuple(e[j - 1] * e[n - j] for j in range(1, n + 1)), de


def _eisenstein_tables(n: int, taus: Sequence[TauPoint],
                       policy: SeriesPolicy) -> List[EisensteinTable]:
    """`_eisenstein_table(n, tau, policy)` at every tau of `taus`, equal to
    it bit for bit, from one `_eisenstein_q_sums` pass that neither reads
    nor fills the caches.

    Every tau is checked in order first, each with its own SlowNomeWarning,
    so a tau that fails its check raises before any series runs."""
    for tau in taus:
        _check_n_tau(n, tau, policy)
    cols = [(j, False) for j in range(1, n + 2)] + [(n, True)]
    return [_table_of(n, [_eisenstein_of_sum(j, *s) for j, s in enumerate(sums[:-1], 1)],
                      _eisenstein_tau_derivative_of_sum(n, *sums[-1]))
            for sums in _eisenstein_q_sums(taus, cols, policy)]


def reciprocity_rhs(n: int, pair: CoprimePair, tau: TauPoint,
                    policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """The reciprocity function R^-_{2n}(p, q; tau) in closed form:

        -1/((2 pi i)^2 pq) [ sum_{j=1}^{n} E_{2j} E_{2n+2-2j} p^{2j} q^{2n+2-2j}
                             - E_{2n+2} (p^{2n+2} + q^{2n+2})
                             - (2n+1) E_{2n+2} ]
        - 1/(4 pi i n) dE_{2n}/dtau (p^{2n-1} q + p q^{2n-1}).
    """
    e_top, prods, de = _eisenstein_table(n, tau, policy)
    pair.require_u()
    p, q = pair.p, pair.q
    bracket = ComplexVal(0j, 0.0)
    for j, prod in enumerate(prods, 1):
        bracket = bracket + prod * float(p ** (2 * j) * q ** (2 * n + 2 - 2 * j))
    bracket = bracket - e_top * float(p ** (2 * n + 2) + q ** (2 * n + 2))
    bracket = bracket - e_top * float(2 * n + 1)
    out = bracket * (-1.0 / ((TWO_PI_I**2).real * p * q))
    out = out + de * (-(p ** (2 * n - 1) * q + p * q ** (2 * n - 1)) / (4j * math.pi * n))
    return out


def generating_D(pair: CoprimePair, tau: TauPoint, x: float,
                 policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """Generating function D^-(p, q; tau; x) of the D^-_{2n}: the double sum
    of two odd-symbol brackets, the first shifted by x."""
    p, q = pair.p, pair.q
    if abs(x) >= 1 / (2 * p):
        raise ValueError(f"|x| must be < 1/(2p) = {1/(2*p)}, got {x}")
    lam, mu = _division_points(p)
    z = _division_z(lam, mu, tau, p)
    # both brackets in one batch
    first, second = _halves(_zeta_bracket(np.concatenate((z - x, q * z)),
                                          np.concatenate((mu, q * mu)) / p, tau, policy))
    return _fsum(first * second) * (1.0 / ((TWO_PI_I**2).real * p))


def generating_R(pair: CoprimePair, tau: TauPoint, x: float,
                 policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """Generating function R^-(p, q; tau; x): zeta-product block, two
    sigma-log blocks and the pe block.

    With zblock(c) = zeta(c x) - E_2 c x, each sigma-log block
    2 d(log sigma(c x))/dtau - E_2' (c x)^2 - E_2 / (pi i) equals
    (zblock(c)^2 - pe(c x)) / (2 pi i) by the heat equation of theta_1 (see
    `qseries._sigma_log_blocks`, which `sigma_log_tau_derivative` shares).
    The blocks and pe(x) + E_2 come without E_2 at tau, so that at a
    reduced tau they never mix two tau's E_2."""
    pair.require_u()
    p, q = pair.p, pair.q
    if not 0 < abs(x) < 1 / (2 * max(p, q)):
        raise ValueError(f"need 0 < |x| < 1/(2 max(p,q)), got {x}")
    b, heat, pe_e2 = _sigma_log_blocks([p * x, q * x], tau, policy, pe_only=[x])
    scale = 1.0 / (TWO_PI_I**2).real
    out = b[0] * b[1] * -scale
    out = out + heat[0] * (scale * q / (2 * p))
    out = out + heat[1] * (scale * p / (2 * q))
    return out + pe_e2[0] * (scale / (p * q))


def expected_constant(pair: CoprimePair, tau: TauPoint,
                      policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """C(tau) = -E_2(tau) / ((2 pi i)^2 p q), the reciprocity defect constant."""
    e2 = eisenstein(1, tau, policy)
    return e2 * (-1.0 / ((TWO_PI_I**2).real * pair.p * pair.q))


# ---------------------------------------------------------------------------
# Machide's elliptic Dedekind-Rademacher sums
# ---------------------------------------------------------------------------

IntPair = Tuple[int, int]
RealPair = Tuple[float, float]

_NONINT_GAP = 1e-9


def _in_integer_multiples(v: float, g: int) -> bool:
    return abs(v / g - round(v / g)) * g < _NONINT_GAP


@dataclass(frozen=True)
class MachideSpec:
    """Parameter block for the elliptic Dedekind-Rademacher sum S^tau_{m,n}.

    Vectors are (primed, unprimed) pairs: vec_a = (a', a) etc.  The
    non-degeneracy conditions a'z' - c'x' not in gcd(a',c') Z and
    b'z' - c'y' not in gcd(b',c') Z are enforced with an absolute gap of
    1e-9 from the nearest admissible multiple.
    """

    vec_a: IntPair
    vec_b: IntPair
    vec_c: IntPair
    vec_x: RealPair
    vec_y: RealPair
    vec_z: RealPair
    m: int
    n: int

    def __post_init__(self):
        for name, (u, v) in (("a", self.vec_a), ("b", self.vec_b), ("c", self.vec_c)):
            if u < 1 or v < 1:
                raise ValueError(f"vec_{name} components must be positive integers")
        if self.m < 0 or self.n < 0:
            raise ValueError("m, n must be >= 0")
        ap, _ = self.vec_a
        bp, _ = self.vec_b
        cp, _ = self.vec_c
        xp, _ = self.vec_x
        yp, _ = self.vec_y
        zp, _ = self.vec_z
        if _in_integer_multiples(ap * zp - cp * xp, math.gcd(ap, cp)):
            raise ValueError("degenerate spec: a'z' - c'x' in gcd(a',c') Z (or within 1e-9)")
        if _in_integer_multiples(bp * zp - cp * yp, math.gcd(bp, cp)):
            raise ValueError("degenerate spec: b'z' - c'y' in gcd(b',c') Z (or within 1e-9)")


def machide_sum(spec: MachideSpec, tau: TauPoint,
                policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """S^tau_{m,n}: the (1/c') double residue-class sum of two elliptic
    Bernoulli factors at the rescaled parameters (a'/a) tau and (b'/b) tau."""
    ap, a = spec.vec_a
    bp, b = spec.vec_b
    cp, c = spec.vec_c
    xp, x = spec.vec_x
    yp, y = spec.vec_y
    zp, z = spec.vec_z
    tau_a = TauPoint(ap / a * tau.tau)
    tau_b = TauPoint(bp / b * tau.tau)
    j, jp = _grid(c, cp)
    f1 = elliptic_bernoulli_points(
        spec.m, ap * (jp + zp) / cp - xp, a * (j + z) / c - x, tau_a, policy)
    f2 = elliptic_bernoulli_points(
        spec.n, bp * (jp + zp) / cp - yp, b * (j + z) / c - y, tau_b, policy)
    return _fsum(f1 * f2) * (1.0 / cp)


def machide_reciprocity_residuals(pair: CoprimePair, s: float, t: float,
                                  tau: TauPoint,
                                  policy: SeriesPolicy = DEFAULT_POLICY,
                                  ) -> Tuple[ComplexVal, ComplexVal, ComplexVal]:
    """The three vanishing combinations of Machide sums at the substitution

        vec_a = (1,1), vec_b = (p,p), vec_c = (q,q),
        vec_x = (s,0), vec_y = (pt,0), vec_z = (-qt,0),

    over the cyclic arrangements A1 = (a,b,c; x,y,z), A2 = (b,c,a; y,z,x),
    A3 = (c,a,b; z,x,y):

        r1 = -(c/2b) S_{2,0}(A2) + (c/2a) S_{0,2}(A3)
        r2 =  (b/2a) S_{2,0}(A1) - (b/2c) S_{0,2}(A2)
        r3 =  (a/2b) S_{0,2}(A1) - S_{1,1}(A1) + (b/2a) S_{2,0}(A1)
              - S_{1,1}(A2) - (c/2b) S_{2,0}(A2)
              + (c/a) S_{0,2}(A3) - S_{1,1}(A3)

    with a = 1, b = p, c = q.  All three are zero in exact arithmetic.
    """
    pair.require_u()
    p, q = pair.p, pair.q
    a, b, c = 1, p, q
    va, vb, vc = (1, 1), (p, p), (q, q)
    vx, vy, vz = (s, 0.0), (p * t, 0.0), (-q * t, 0.0)
    arr1 = (va, vb, vc, vx, vy, vz)
    arr2 = (vb, vc, va, vy, vz, vx)
    arr3 = (vc, va, vb, vz, vx, vy)

    sums = {}

    def S(arr, m, n):
        # r1..r3 share three of their nine sums; evaluate each once
        key = (arr, m, n)
        if key not in sums:
            spec = MachideSpec(arr[0], arr[1], arr[2], arr[3], arr[4], arr[5], m, n)
            sums[key] = machide_sum(spec, tau, policy)
        return sums[key]

    r1 = S(arr2, 2, 0) * (-c / (2 * b)) + S(arr3, 0, 2) * (c / (2 * a))
    r2 = S(arr1, 2, 0) * (b / (2 * a)) - S(arr2, 0, 2) * (b / (2 * c))
    r3 = (S(arr1, 0, 2) * (a / (2 * b)) - S(arr1, 1, 1)
          + S(arr1, 2, 0) * (b / (2 * a))
          - S(arr2, 1, 1) - S(arr2, 2, 0) * (c / (2 * b))
          + S(arr3, 0, 2) * (c / a) - S(arr3, 1, 1))
    return r1, r2, r3


# ---------------------------------------------------------------------------
# The B_1-level reciprocity residual
# ---------------------------------------------------------------------------


def _b1_division_sum(p: int, q: int, s: float, tau: TauPoint,
                     policy: SeriesPolicy) -> ComplexVal:
    """(1/p) sum_{(l,m) != 0}^{p-1} B_1(l/p - s, m/p) B_1(q l/p, q m/p)."""
    lam, mu = _division_points(p)
    # both factors in one batch
    first, second = _halves(elliptic_bernoulli_points(
        1, np.concatenate((lam / p - s, q * lam / p)), np.concatenate((mu, q * mu)) / p,
        tau, policy))
    return _fsum(first * second) * (1.0 / p)


def proposition31_residual(pair: CoprimePair, s: float, tau: TauPoint,
                           policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """Left side of the B_1-level reciprocity identity minus its four
    s-dependent right-side terms.  The contract is that the result does not
    depend on s and equals -E_2(tau)/((2 pi i)^2 pq)."""
    pair.require_u()
    p, q = pair.p, pair.q
    if not 0 < abs(s) < 1 / (2 * max(p, q)):
        raise ValueError(f"need 0 < |s| < 1/(2 max(p,q)), got {s}")
    lhs = _b1_division_sum(p, q, s, tau, policy) + _b1_division_sum(q, p, s, tau, policy)
    b1 = elliptic_bernoulli_points(1, [p * s, q * s], [0.0, 0.0], tau, policy)
    b2 = elliptic_bernoulli_points(2, [p * s, q * s], [0.0, 0.0], tau, policy)
    rhs = -(b1[0] * b1[1])
    rhs = rhs + b2[0] * (q / (2 * p))
    rhs = rhs + b2[1] * (p / (2 * q))
    # dB_1(s,0)/ds = (1/2 pi i)[pe(s) + E_2]
    db1 = _pe_plus_e2([s], tau, policy)[0] * (1.0 / TWO_PI_I)
    rhs = rhs + db1 * (1.0 / (TWO_PI_I * p * q))
    return lhs - rhs


def proposition31_constant_closed_form(pair: CoprimePair, tau: TauPoint,
                                       policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """C(tau) via the residue-class closed form (1/2pq) sum B_2(p l/q, p m/q).

    The (0,0) term is the regular value B_2(0, 0; tau) =
    -(1/ pi i)(1/(2 pi i)) E_2(tau), the constant term of the tau-derivative
    expansion of B_2(x, 0; tau) at x = 0.
    """
    pair.require_u()
    p, q = pair.p, pair.q
    e2 = eisenstein(1, tau, policy)
    b2_origin = e2 * (-1.0 / (1j * math.pi * TWO_PI_I))
    lam, mu = _division_points(q)
    b2 = elliptic_bernoulli_points(2, p * lam / q, p * mu / q, tau, policy)
    return _fsum(b2_origin, b2) * (1.0 / (2 * p * q))
