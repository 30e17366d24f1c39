"""Per-point loop versions of the q-series kernels and of the division-point
sums built on them, kept as the reference the batched kernels are tested
against.  Each function evaluates one point at a time with its own
pure-Python series loop and adds terms in row-major order with a Kahan
accumulator."""

import cmath
import math

from ellded.qseries import (
    DEFAULT_POLICY,
    ComplexVal,
    LatticePointError,
    NonConvergenceError,
    TauPoint,
    _bernoulli_poly_float,
    _checked,
    _decompose,
    _phi_poly,
    eisenstein,
)
from ellded.symbols import Route

TWO_PI_I = 2j * math.pi
_LATTICE_EPS = 1e-12


class _Kahan:
    """Compensated complex accumulator (fixed-order, bit-reproducible)."""

    __slots__ = ("s", "c")

    def __init__(self):
        self.s = 0j
        self.c = 0j

    def add(self, x: complex):
        y = x - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t

    @property
    def value(self) -> complex:
        return self.s


def _on_lattice(x, y):
    return abs(x - round(x)) < _LATTICE_EPS and abs(y - round(y)) < _LATTICE_EPS


def _pow_00(base, e):
    # 0^0 = 1 by convention (matters only for m = 1 factors).
    if e == 0:
        return 1.0
    return base**e


def elliptic_bernoulli(m, x, y, tau, policy=DEFAULT_POLICY):
    if m < 0:
        raise ValueError("m must be >= 0")
    if _on_lattice(x, y):
        raise LatticePointError(f"B_{m}({x}, {y}; tau): x - y*tau is a lattice point")
    if m == 0:
        return ComplexVal(1.0 + 0j, 0.0)
    cap = _checked(tau, policy).cap
    t = tau.tau
    y = y - math.floor(y)
    if y < _LATTICE_EPS or y > 1 - _LATTICE_EPS:
        y = 0.0
    emx = cmath.exp(-TWO_PI_I * x)
    epx = cmath.exp(TWO_PI_I * x)
    acc = _Kahan()
    decay = abs(cmath.exp(TWO_PI_I * t))
    j = 0
    last = 0.0
    while j < cap:
        j += 1
        w1 = cmath.exp(TWO_PI_I * (j - y) * t)
        w2 = cmath.exp(TWO_PI_I * (j + y) * t)
        t1 = _pow_00(y - j, m - 1) * w1 / (emx - w1)
        t2 = _pow_00(y + j, m - 1) * w2 / (epx - w2)
        acc.add(t1)
        acc.add(-t2)
        last = abs(t1) + abs(t2)
        if last <= policy.tol * max(abs(acc.value), 1.0) and j >= 2:
            break
    else:
        raise NonConvergenceError(
            f"elliptic Bernoulli series hit max_terms={cap}",
            ComplexVal(acc.value, float("inf")),
        )
    v = cmath.exp(TWO_PI_I * (-x + y * t))
    closing = _pow_00(y, m - 1) * v / (v - 1)
    acc.add(closing)
    r = decay * ((j + 1 + y) / max(j - y, 0.5)) ** (m - 1)
    r = min(r, 0.99)
    tail = m * (2.0 * last * r / (1.0 - r) + 1e-16 * abs(acc.value) * j)
    return ComplexVal(m * acc.value + _bernoulli_poly_float(m, y), tail)


def weierstrass_zeta(z, tau, policy=DEFAULT_POLICY):
    z = complex(z)
    x, y = _decompose(z, tau)
    if _on_lattice(x, y):
        raise LatticePointError(f"zeta pole: z = {z} is on the lattice")
    nx = math.floor(x)
    ny = math.floor(y)
    x0, y0 = x - nx, y - ny
    b1 = elliptic_bernoulli(1, x0, y0, tau, policy)
    if y0 < _LATTICE_EPS or y0 > 1 - _LATTICE_EPS:
        y0 = round(y0)
    z0 = x0 - y0 * tau.tau
    e2 = eisenstein(1, tau, policy)
    zeta0 = -TWO_PI_I * (b1 - y0) + e2 * z0
    return zeta0 + e2 * (nx - ny * tau.tau) + ComplexVal(TWO_PI_I * ny, 0.0)


def _phi(k, w):
    num = 0j
    for c in reversed(_phi_poly(k)):
        num = num * w + c
    return num / (1 - w) ** (k + 2)


def _phi_majorant(k, w):
    """Bound |_phi(k, v)| for every |v| <= |w| < 1: _phi(k, w) is the power
    series sum n^(k+1) w^n, whose coefficients are non-negative.  The bound
    shrinks by at least |q| when w is multiplied by q, so it stops the series
    where the terms themselves can cancel to near zero at one j and not the
    next (at a real negative nome they alternate between small and large)."""
    return abs(_phi(k, abs(w)))


def weierstrass_p_deriv(k, z, tau, policy=DEFAULT_POLICY):
    if k < 0:
        raise ValueError("k must be >= 0")
    z = complex(z)
    t = tau.tau
    x, y = _decompose(z, tau)
    if _on_lattice(x, y):
        raise LatticePointError(f"pe pole: z = {z} is on the lattice")
    sign = 1.0
    y0 = y - round(y)
    if y0 < -_LATTICE_EPS:
        sign = (-1.0) ** k
        x, y0 = -x, -y0
    elif abs(y0) <= _LATTICE_EPS:
        y0 = 0.0
    x0 = x - math.floor(x)
    u = cmath.exp(TWO_PI_I * (x0 - y0 * t))
    q = tau.nome
    aq = abs(q)
    cap = _checked(tau, policy).cap
    acc = _Kahan()
    acc.add(_phi(k, u))
    par = (-1.0) ** k
    qj = 1.0 + 0j
    j = 0
    last = 0.0
    while j < cap:
        j += 1
        qj *= q
        w1, w2 = u * qj, qj / u
        acc.add(_phi(k, w1))
        acc.add(par * _phi(k, w2))
        last = _phi_majorant(k, w1) + _phi_majorant(k, w2)
        if last <= policy.tol * max(abs(acc.value), 1.0) and j >= 2:
            break
    else:
        raise NonConvergenceError(
            f"pe Fourier series hit max_terms={cap}",
            ComplexVal(acc.value, float("inf")),
        )
    pref = TWO_PI_I ** (k + 2)
    r = min(aq * 2.0, 0.99)
    tail = abs(pref) * (2.0 * last * r / (1.0 - r) + 1e-16 * abs(acc.value) * j)
    val = ComplexVal(sign * pref * acc.value, tail)
    if k == 0:
        val = val - eisenstein(1, tau, policy)
    return val


def sum_complexvals(terms):
    acc = _Kahan()
    err = 0.0
    mag = 0.0
    for t in terms:
        acc.add(t.value)
        err += t.err
        mag += abs(t.value)
    return ComplexVal(acc.value, err + 2.0**-52 * mag)


# ---------------------------------------------------------------------------
# Division-point sums
# ---------------------------------------------------------------------------


def _zeta_bracket(z, mu_over_p, e2, tau, policy):
    return weierstrass_zeta(z, tau, policy) - e2 * z + ComplexVal(TWO_PI_I * mu_over_p, 0.0)


def _nonzero_residues(p):
    return [(lam, mu) for lam in range(p) for mu in range(p) if (lam, mu) != (0, 0)]


def elliptic_apostol_sum(n, pair, tau, route, policy=DEFAULT_POLICY):
    p, q = pair.p, pair.q
    t = tau.tau
    terms = []
    if route is Route.ZETA_DERIVATIVE:
        e2 = eisenstein(1, tau, policy)
        for lam, mu in _nonzero_residues(p):
            z = (lam + mu * t) / p
            zd = -weierstrass_p_deriv(2 * n - 1, z, tau, policy)
            terms.append(zd * _zeta_bracket(q * z, q * mu / p, e2, tau, policy))
        return sum_complexvals(terms) * (
            1.0 / ((TWO_PI_I**2).real * p * math.factorial(2 * n)))
    q_inv = pow(q % p, -1, p) if p > 1 else 0
    for lam, mu in _nonzero_residues(p):
        b_hi = elliptic_bernoulli(2 * n + 1, -lam / p, mu / p, tau, policy)
        b_lo = elliptic_bernoulli(1, -q_inv * lam / p, q_inv * mu / p, tau, policy)
        terms.append(b_hi * b_lo)
    return sum_complexvals(terms) * (
        -(TWO_PI_I ** (2 * n)) * p ** (2 * n - 1) / math.factorial(2 * n + 1))


def generating_D(pair, tau, x, policy=DEFAULT_POLICY):
    p, q = pair.p, pair.q
    t = tau.tau
    e2 = eisenstein(1, tau, policy)
    terms = []
    for lam, mu in _nonzero_residues(p):
        z = (lam + mu * t) / p
        terms.append(_zeta_bracket(z - x, mu / p, e2, tau, policy)
                     * _zeta_bracket(q * z, q * mu / p, e2, tau, policy))
    return sum_complexvals(terms) * (1.0 / ((TWO_PI_I**2).real * p))


def machide_sum(spec, tau, policy=DEFAULT_POLICY):
    ap, a = spec.vec_a
    bp, b = spec.vec_b
    cp, c = spec.vec_c
    xp, x = spec.vec_x
    yp, y = spec.vec_y
    zp, z = spec.vec_z
    tau_a = TauPoint(ap / a * tau.tau)
    tau_b = TauPoint(bp / b * tau.tau)
    terms = []
    for j in range(c):
        for jp in range(cp):
            f1 = elliptic_bernoulli(
                spec.m, ap * (jp + zp) / cp - xp, a * (j + z) / c - x, tau_a, policy)
            f2 = elliptic_bernoulli(
                spec.n, bp * (jp + zp) / cp - yp, b * (j + z) / c - y, tau_b, policy)
            terms.append(f1 * f2)
    return sum_complexvals(terms) * (1.0 / cp)


def _b1_division_sum(p, q, s, tau, policy):
    terms = [elliptic_bernoulli(1, lam / p - s, mu / p, tau, policy)
             * elliptic_bernoulli(1, q * lam / p, q * mu / p, tau, policy)
             for lam, mu in _nonzero_residues(p)]
    return sum_complexvals(terms) * (1.0 / p)


def proposition31_residual(pair, s, tau, policy=DEFAULT_POLICY):
    p, q = pair.p, pair.q
    lhs = _b1_division_sum(p, q, s, tau, policy) + _b1_division_sum(q, p, s, tau, policy)
    e2 = eisenstein(1, tau, policy)
    rhs = -(elliptic_bernoulli(1, p * s, 0.0, tau, policy)
            * elliptic_bernoulli(1, q * s, 0.0, tau, policy))
    rhs = rhs + elliptic_bernoulli(2, p * s, 0.0, tau, policy) * (q / (2 * p))
    rhs = rhs + elliptic_bernoulli(2, q * s, 0.0, tau, policy) * (p / (2 * q))
    db1 = (weierstrass_p_deriv(0, s, tau, policy) + e2) * (1.0 / TWO_PI_I)
    rhs = rhs + db1 * (1.0 / (TWO_PI_I * p * q))
    return lhs - rhs


def proposition31_constant_closed_form(pair, tau, policy=DEFAULT_POLICY):
    p, q = pair.p, pair.q
    e2 = eisenstein(1, tau, policy)
    terms = [e2 * (-1.0 / (1j * math.pi * TWO_PI_I))]
    terms += [elliptic_bernoulli(2, p * lam / q, p * mu / q, tau, policy)
              for lam, mu in _nonzero_residues(q)]
    return sum_complexvals(terms) * (1.0 / (2 * p * q))
