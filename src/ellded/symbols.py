"""Elliptic Apostol-Dedekind sums, their reciprocity functions and generating
functions, Machide's elliptic Dedekind-Rademacher sums, and the residual
verifiers built on them.

Double sums over (lambda, mu) evaluate each factor at all points at once with
the batched kernels of `qseries` and add the products with `math.fsum`, which
is correctly rounded and independent of order, so repeated runs are
bit-identical.

Every division-point sum here is even under P -> -P: zeta^(2n), the bracket
zeta - E_2 z + 2 pi i q mu/p and B_1 are odd, B_2 and B_{2n+1} B_1 even.  So
each runs over one point per pair {P, -P} (`_half_division_points`), its
term times the pair's weight, 2, or 1 at a 2-torsion point P = -P; a power
of 2 scales value and err exactly.  Where one factor is shifted by x, as in
D^-(x) and the Prop. 3.1 sums, the pair adds (f(P - x) + f(P + x)) g(qP),
as f(-P - x) g(-qP) = f(P + x) g(qP): three factors per pair, not four.
Both routes of `elliptic_apostol_sum` pair alike, and pairing is no
reciprocity law, so they stay independent.
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
    TWO_PI_I,
    ComplexArray,
    ComplexVal,
    EisensteinTable,
    SeriesPolicy,
    TauPoint,
    _bernoulli_points,
    _Checked,
    _checked,
    _checked_n,
    _eisenstein,
    _eisenstein_table,
    _p_deriv_points,
    _pe_blocks,
    _sigma_log_blocks,
    _zeta_block,
    eisenstein,
)

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


def _grid(rows: int, cols: int) -> Tuple[np.ndarray, np.ndarray]:
    """(i, j) over 0 <= i < rows, 0 <= j < cols in row-major order, as integer
    arrays."""
    return np.divmod(np.arange(rows * cols), cols)


#: entries of the division-point cache: one table per p; bounded because a
#: caller may run any p
DIVISION_CACHE_SIZE = 128


@lru_cache(maxsize=DIVISION_CACHE_SIZE)
def _half_division_points(p: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lambda, mu, weight): one point of each pair {P, -P} of the nonzero
    p-division points, the first of the two in row-major order, with
    weight 2, or 1 where P = -P, at the three 2-torsion points of an even p.
    Built once per p and shared, so the arrays are read-only."""
    # the nonzero points: (0, 0) leads the grid
    lam, mu = (a[1:] for a in _grid(p, p))
    i, neg = lam * p + mu, (-lam % p) * p + (-mu % p)
    keep = i <= neg
    out = lam[keep], mu[keep], np.where(i[keep] == neg[keep], 1.0, 2.0)
    for a in out:
        a.flags.writeable = False
    return out


def _division_z(lam: np.ndarray, mu: np.ndarray, tau: TauPoint, p: int) -> np.ndarray:
    """(lambda + mu tau)/p with each part correctly rounded.  numpy divides
    a complex array by p through a rounded 1/p, an ulp the steep factors
    of the sums would amplify."""
    t = tau.tau
    return (lam + mu * t.real) / p + 1j * (mu * t.imag / p)


def _parts(a: ComplexArray, sizes: Sequence[int]) -> List[ComplexArray]:
    """A batch that evaluated several factors at once, cut into consecutive
    parts of the given sizes."""
    ends = np.cumsum(sizes).tolist()
    return [ComplexArray(a.value[e - n:e], a.err[e - n:e]) for n, e in zip(sizes, ends)]


def _bernoulli_factors(factors: Sequence[Tuple[int, np.ndarray, np.ndarray]],
                       at: _Checked) -> List[ComplexArray]:
    """B_m at the points (x, y) of each factor (m, x, y), every order in one
    `elliptic_bernoulli_points` pass; one ComplexArray per factor."""
    sizes = [len(x) for _, x, _ in factors]
    return _parts(_bernoulli_points(
        np.repeat([m for m, _, _ in factors], sizes),
        np.concatenate([x for _, x, _ in factors]),
        np.concatenate([y for _, _, y in factors]), at), sizes)


def _weighted(a: ComplexArray, w: np.ndarray) -> ComplexArray:
    """a with value and err times the weights w, powers of 2, so exactly."""
    return ComplexArray(a.value * w, a.err * w)


def _fsum(*parts: Union[ComplexArray, ComplexVal]) -> ComplexVal:
    """The sum of all the values, with the summed errs plus one rounding of
    2^-52 |v| per term; correctly rounded and independent of order."""
    v = np.concatenate([np.atleast_1d(t.value) for t in parts])
    err = np.concatenate([np.atleast_1d(t.err) for t in parts])
    return ComplexVal(complex(math.fsum(v.real), math.fsum(v.imag)),
                      math.fsum(err) + 2.0**-52 * math.fsum(np.hypot(v.real, v.imag)))


def _zeta_bracket(z: np.ndarray, mu_over_p: np.ndarray, at: _Checked) -> ComplexArray:
    """zeta(z) - E_2 z + 2 pi i * (mu/p); the recurring odd-symbol factor,
    from the E_2-free block `qseries._zeta_block`."""
    return _zeta_block(z, at) + ComplexArray(TWO_PI_I * mu_over_p, 0.0)


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
    _checked_n(n)
    at = _checked(tau, policy)
    p, q = pair.p, pair.q
    lam, mu, w = _half_division_points(p)
    if route is Route.ZETA_DERIVATIVE:
        z = _division_z(lam, mu, tau, p)
        # zeta^{(2n)} = -pe^{(2n-1)}
        zd = -_p_deriv_points(2 * n - 1, z, at)
        total = _fsum(_weighted(zd * _zeta_bracket(q * z, q * mu / p, at), w))
        val = total * (1.0 / ((TWO_PI_I**2).real * p * math.factorial(2 * n)))
    else:
        q_inv = pow(q % p, -1, p) if p > 1 else 0
        b_hi, b_lo = _bernoulli_factors([(2 * n + 1, -lam / p, mu / p),
                                         (1, -q_inv * lam / p, q_inv * mu / p)], at)
        total = _fsum(_weighted(b_hi * b_lo, w))
        val = total * (-(TWO_PI_I ** (2 * n)) * p ** (2 * n - 1)
                       / math.factorial(2 * n + 1))
    return EllipticSumResult(val, route, p, q, n, tau)


def reciprocity_rhs(n: int, pair: CoprimePair, tau: TauPoint,
                    policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """The reciprocity function R^-_{2n}(p, q; tau) in closed form:

        -1/((2 pi i)^2 pq) [ sum_{j=1}^{n} E_{2j} E_{2n+2-2j} p^{2j} q^{2n+2-2j}
                             - E_{2n+2} (p^{2n+2} + q^{2n+2})
                             - (2n+1) E_{2n+2} ]
        - 1/(4 pi i n) dE_{2n}/dtau (p^{2n-1} q + p q^{2n-1}).
    """
    return _reciprocity_rhs_of(n, pair, _eisenstein_table(_checked_n(n), _checked(tau, policy)))


def _reciprocity_rhs_of(n: int, pair: CoprimePair, table: EisensteinTable) -> ComplexVal:
    """`reciprocity_rhs` from the Eisenstein table of (n, tau)."""
    e_top, prods, de = table
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
    at = _checked(tau, policy)
    lam, mu, w = _half_division_points(p)
    z = _division_z(lam, mu, tau, p)
    # the brackets at P - x, P + x and qP in one batch; the pair {P, -P}
    # adds (f(P - x) + f(P + x)) f(qP), as f(-P -+ x) = -f(P +- x)
    minus, plus, second = _parts(_zeta_bracket(np.concatenate((z - x, z + x, q * z)),
                                               np.concatenate((mu, mu, q * mu)) / p,
                                               at), [len(z)] * 3)
    return _fsum(_weighted((minus + plus) * second, w / 2)) * (1.0 / ((TWO_PI_I**2).real * p))


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
    b, heat, pe_e2 = _sigma_log_blocks([p * x, q * x], _checked(tau, policy), pe_only=[x])
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
        if not all(map(math.isfinite, (*self.vec_x, *self.vec_y, *self.vec_z))):
            raise ValueError("vec_x, vec_y and vec_z components must be finite")
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


def _machide_factors(spec: MachideSpec) -> List[Tuple[int, np.ndarray, np.ndarray]]:
    """The two elliptic Bernoulli factors (order, x, y) of S^tau_{m,n} over
    0 <= j' < c', 0 <= j < c: B_m at (a'(j'+z')/c' - x', a(j+z)/c - x) and
    B_n at (b'(j'+z')/c' - y', b(j+z)/c - y)."""
    ap, a = spec.vec_a
    bp, b = spec.vec_b
    cp, c = spec.vec_c
    xp, x = spec.vec_x
    yp, y = spec.vec_y
    zp, z = spec.vec_z
    j, jp = _grid(c, cp)
    return [(spec.m, ap * (jp + zp) / cp - xp, a * (j + z) / c - x),
            (spec.n, bp * (jp + zp) / cp - yp, b * (j + z) / c - y)]


def machide_sum(spec: MachideSpec, tau: TauPoint,
                policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """S^tau_{m,n}: the (1/c') double residue-class sum of two elliptic
    Bernoulli factors at the rescaled parameters (a'/a) tau and (b'/b) tau."""
    ap, a = spec.vec_a
    bp, b = spec.vec_b
    (m, x1, y1), (n, x2, y2) = _machide_factors(spec)
    tau1, tau2 = TauPoint(ap / a * tau.tau), TauPoint(bp / b * tau.tau)
    at1 = _checked(tau1, policy)
    at2 = at1 if tau2 == tau1 else _checked(tau2, policy)
    f1 = _bernoulli_points(m, x1, y1, at1)
    f2 = _bernoulli_points(n, x2, y2, at2)
    return _fsum(f1 * f2) * (1.0 / spec.vec_c[0])


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

    The three use eight distinct sums.  Every vector has equal components,
    so both factors of each sum run at tau itself, and all sixteen factors,
    the five B_0 = 1 among them, come from one pass.
    """
    pair.require_u()
    p, q = pair.p, pair.q
    a, b, c = 1, p, q
    va, vb, vc = (1, 1), (p, p), (q, q)
    vx, vy, vz = (s, 0.0), (p * t, 0.0), (-q * t, 0.0)
    arr1 = (va, vb, vc, vx, vy, vz)
    arr2 = (vb, vc, va, vy, vz, vx)
    arr3 = (vc, va, vb, vz, vx, vy)
    keys = [(arr2, 2, 0), (arr3, 0, 2), (arr1, 2, 0), (arr2, 0, 2),
            (arr1, 0, 2), (arr1, 1, 1), (arr2, 1, 1), (arr3, 1, 1)]
    specs = [MachideSpec(*arr, m, n) for arr, m, n in keys]
    f = _bernoulli_factors([xy for spec in specs for xy in _machide_factors(spec)],
                           _checked(tau, policy))
    S = {key: _fsum(f1 * f2) * (1.0 / spec.vec_c[0])
         for key, spec, f1, f2 in zip(keys, specs, f[::2], f[1::2])}

    r1 = S[arr2, 2, 0] * (-c / (2 * b)) + S[arr3, 0, 2] * (c / (2 * a))
    r2 = S[arr1, 2, 0] * (b / (2 * a)) - S[arr2, 0, 2] * (b / (2 * c))
    r3 = (S[arr1, 0, 2] * (a / (2 * b)) - S[arr1, 1, 1]
          + S[arr1, 2, 0] * (b / (2 * a))
          - S[arr2, 1, 1] - S[arr2, 2, 0] * (c / (2 * b))
          + S[arr3, 0, 2] * (c / a) - S[arr3, 1, 1])
    return r1, r2, r3


# ---------------------------------------------------------------------------
# The B_1-level reciprocity residual
# ---------------------------------------------------------------------------


def proposition31_residual(pair: CoprimePair, s: float, tau: TauPoint,
                           policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """Left side of the B_1-level reciprocity identity minus its four
    s-dependent right-side terms.  The contract is that the result does not
    depend on s and equals -E_2(tau)/((2 pi i)^2 pq).

    The left side is the sum of the two division sums
    (1/p) sum_{(l,m) != 0}^{p-1} B_1(l/p - s, m/p) B_1(q l/p, q m/p) and the
    same with p and q swapped; their four factors and the B_1 and B_2 at
    (ps, 0) and (qs, 0) come from one pass."""
    pair.require_u()
    p, q = pair.p, pair.q
    if not 0 < abs(s) < 1 / (2 * max(p, q)):
        raise ValueError(f"need 0 < |s| < 1/(2 max(p,q)), got {s}")
    at = _checked(tau, policy)
    factors, weights = [], []
    for u, v in ((p, q), (q, p)):
        lam, mu, w = _half_division_points(u)
        factors += [(1, lam / u - s, mu / u), (1, lam / u + s, mu / u),
                    (1, v * lam / u, v * mu / u)]
        weights.append(w / 2)
    factors += [(m, [p * s, q * s], [0.0, 0.0]) for m in (1, 2)]
    *f, b1, b2 = _bernoulli_factors(factors, at)
    lhs = (_fsum(_weighted((f[0] + f[1]) * f[2], weights[0])) * (1.0 / p)
           + _fsum(_weighted((f[3] + f[4]) * f[5], weights[1])) * (1.0 / q))
    rhs = -(b1[0] * b1[1])
    rhs = rhs + b2[0] * (q / (2 * p))
    rhs = rhs + b2[1] * (p / (2 * q))
    # dB_1(s,0)/ds = (1/2 pi i)[pe(s) + E_2]
    db1 = _pe_blocks([s], 0, at)[1][0] * (1.0 / TWO_PI_I)
    rhs = rhs + db1 * (1.0 / (TWO_PI_I * p * q))
    return lhs - rhs


def proposition31_constant_closed_form(pair: CoprimePair, tau: TauPoint,
                                       policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """C(tau) via the residue-class closed form (1/2pq) sum B_2(p l/q, p m/q).

    The (0,0) term is the regular value B_2(0, 0; tau) =
    -(1/ pi i)(1/(2 pi i)) E_2(tau), the constant term of the tau-derivative
    expansion of B_2(x, 0; tau) at x = 0.  The sum over the other points
    vanishes, within its err, so the value is `expected_constant` plus
    rounding: no independent route to C(tau).
    """
    pair.require_u()
    p, q = pair.p, pair.q
    at = _checked(tau, policy)
    b2_origin = _eisenstein(1, at) * (-1.0 / (1j * math.pi * TWO_PI_I))
    lam, mu, w = _half_division_points(q)
    b2 = _bernoulli_points(2, p * lam / q, p * mu / q, at)
    return _fsum(b2_origin, _weighted(b2, w)) * (1.0 / (2 * p * q))
