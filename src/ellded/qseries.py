"""q-series engine: Eisenstein series, Weierstrass functions, elliptic
Bernoulli functions and brute-force lattice-sum oracles.

All evaluation is binary64 complex with explicit truncation-error tracking
(`ComplexVal.err` bounds the discarded series tails via geometric estimates,
plus a first-order bound on the rounding).
Each series runs in a fixed ascending order and adds its terms with one
compensated (Kahan) step, `_kahan_add`, on Python scalars for the Eisenstein
sums and elementwise on arrays for the batched kernels, so repeated runs are
bit-identical.

The Weierstrass and elliptic Bernoulli functions are array kernels
(`*_points`) that run one series over a whole batch of points: every point
keeps its own Kahan state, stopping rule and tail bound, and drops out of the
batch once it has converged.  The terms are evaluated in blocks of
consecutive j, as 2-D arrays over (j, point) of at most BLOCK_ELEMENTS
entries, and then added one j at a time, so values equal a term-by-term run's
bit for bit.  The scalar functions are one-point calls to them.

The Eisenstein q-sums are memoised per (n, tau, policy, tau_deriv) in a
bounded `lru_cache`; tau is checked, and warned about, on every call before
the cache is read.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Tuple

import numpy as np

from .exact import bernoulli_number

TWO_PI_I = 2j * math.pi

__all__ = [
    "TauPoint",
    "ComplexVal",
    "ComplexArray",
    "SeriesPolicy",
    "LatticeCutoff",
    "SlowNomeWarning",
    "parse_tau",
    "eisenstein",
    "eisenstein_normalized",
    "eisenstein_tau_derivative",
    "elliptic_bernoulli",
    "elliptic_bernoulli_points",
    "weierstrass_zeta",
    "weierstrass_zeta_points",
    "weierstrass_p_deriv",
    "weierstrass_p_deriv_points",
    "weierstrass_zeta_deriv",
    "sigma_log_tau_derivative",
    "kronecker_direct",
    "zeta_odd",
]


class SlowNomeWarning(UserWarning):
    """Im(tau) is small enough that q-series convergence is slow."""


class LatticePointError(ValueError):
    """Evaluation requested at a point of the period lattice."""


@dataclass(frozen=True)
class TauPoint:
    """A point tau in the upper half-plane, with its nome q = e^{2 pi i tau}."""

    tau: complex

    def __post_init__(self):
        if not cmath.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")
        if not self.tau.imag > 0:
            raise ValueError(f"tau must satisfy Im(tau) > 0, got {self.tau}")

    @property
    def nome(self) -> complex:
        return cmath.exp(TWO_PI_I * self.tau)

    def __str__(self) -> str:
        return f"{self.tau.real}+{self.tau.imag}i"


def parse_tau(s: str) -> TauPoint:
    """Parse "a+bi" (decimal a, b) into a TauPoint."""
    t = s.strip().replace(" ", "").replace("I", "i")
    if not t.endswith("i"):
        raise ValueError(f"tau must be of the form 'a+bi', got {s!r}")
    try:
        z = complex(t.replace("i", "j"))
    except ValueError as e:
        raise ValueError(f"cannot parse tau {s!r}") from e
    return TauPoint(z)


_EPS = 2.0**-52


@dataclass(frozen=True)
class ComplexVal:
    """A complex value with an a-posteriori error bound.

    err bounds the truncated series tails plus a first-order rounding model,
    so that subtracting two large nearly-equal values reports the expected
    loss of significance."""

    value: complex
    err: float = 0.0

    def __post_init__(self):
        if self.err < 0:
            raise ValueError("err must be >= 0")

    def __add__(self, other):
        if isinstance(other, ComplexVal):
            return ComplexVal(
                self.value + other.value,
                self.err + other.err + _EPS * (abs(self.value) + abs(other.value)),
            )
        return ComplexVal(self.value + other, self.err + _EPS * abs(other))

    __radd__ = __add__

    def __neg__(self):
        return ComplexVal(-self.value, self.err)

    def __sub__(self, other):
        return self + (-other if isinstance(other, ComplexVal) else -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, ComplexVal):
            return ComplexVal(
                self.value * other.value,
                abs(self.value) * other.err + abs(other.value) * self.err
                + self.err * other.err + _EPS * abs(self.value) * abs(other.value),
            )
        return ComplexVal(self.value * other, (self.err + _EPS * abs(self.value)) * abs(other))

    __rmul__ = __mul__

    def to_json_obj(self) -> dict:
        return {"re": self.value.real, "im": self.value.imag, "err": self.err}


def _abs(v):
    """|v| elementwise, rounded as Python's abs(complex) rounds it."""
    v = np.asarray(v)
    return np.hypot(v.real, v.imag)


def _cmul(a, b):
    """a * b elementwise, rounded as Python's complex product rounds it."""
    a, b = np.asarray(a), np.asarray(b)
    re = a.real * b.real - a.imag * b.imag
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = a.real * b.imag + a.imag * b.real
    return out


@dataclass(frozen=True)
class ComplexArray:
    """`ComplexVal` elementwise over a numpy array of points.

    The arithmetic applies ComplexVal's err rules elementwise and rounds as
    Python complex arithmetic does, so each element of a result equals the
    same expression in ComplexVals.  Operands are ComplexArrays, ComplexVals
    or plain numbers and arrays (taken as exact); keep a ComplexArray on the
    left."""

    value: np.ndarray
    err: np.ndarray

    def __len__(self) -> int:
        return len(self.value)

    def __getitem__(self, i: int) -> ComplexVal:
        return ComplexVal(complex(self.value[i]), float(self.err[i]))

    def __add__(self, other):
        if isinstance(other, (ComplexArray, ComplexVal)):
            return ComplexArray(
                self.value + other.value,
                self.err + other.err + _EPS * (_abs(self.value) + _abs(other.value)),
            )
        return ComplexArray(self.value + other, self.err + _EPS * _abs(other))

    def __neg__(self):
        return ComplexArray(-self.value, self.err)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (ComplexArray, ComplexVal)):
            a, b = _abs(self.value), _abs(other.value)
            return ComplexArray(
                _cmul(self.value, other.value),
                a * other.err + b * self.err + self.err * other.err + _EPS * a * b,
            )
        return ComplexArray(_cmul(self.value, other),
                            (self.err + _EPS * _abs(self.value)) * _abs(other))


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation contract shared by every q-series and lattice sum."""

    tol: float = 1e-12
    max_terms: int = 10**6
    min_im_tau: float = 0.05

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


DEFAULT_POLICY = SeriesPolicy()


@dataclass(frozen=True)
class LatticeCutoff:
    """Truncation radius for direct lattice sums: max(|m|, |n|) <= radius."""

    radius: int

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("radius must be >= 1")


class NonConvergenceError(RuntimeError):
    """Term cap reached before the tolerance; carries the partial value."""

    def __init__(self, message: str, partial: ComplexVal):
        super().__init__(message)
        self.partial = partial


_SLOW_IM_TAU = 0.11


def _term_cap(tau: TauPoint, policy: SeriesPolicy) -> int:
    """The term cap at tau: ten times max_terms where the nome is slow."""
    return policy.max_terms * 10 if tau.tau.imag < _SLOW_IM_TAU else policy.max_terms


def _check_tau(tau: TauPoint, policy: SeriesPolicy) -> int:
    """Reject or warn on small Im(tau); returns the effective term cap."""
    im = tau.tau.imag
    if im < policy.min_im_tau:
        raise ValueError(
            f"Im(tau) = {im} below the accepted bound {policy.min_im_tau}"
        )
    if im < _SLOW_IM_TAU:
        warnings.warn(
            f"Im(tau) = {im} gives |q| = {abs(tau.nome):.3f}; convergence is slow",
            SlowNomeWarning,
            stacklevel=3,
        )
    return _term_cap(tau, policy)


def _kahan_add(s, c, x):
    """Compensated (Kahan) addition of x to the running sum s with
    compensation c, on Python scalars or elementwise on numpy arrays;
    returns the new (s, c)."""
    y = x - c
    t = s + y
    return t, (t - s) - y


# ---------------------------------------------------------------------------
# Eisenstein series via the divisor-sum q-expansion
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _divisor_power_sum(ell: int, k: int) -> float:
    """sigma_ell(k) = sum_{d | k} d^ell, summed exactly in integers as
    d^ell + (k/d)^ell over the divisors d <= sqrt(k)."""
    total = 0
    for d in range(1, math.isqrt(k) + 1):
        if k % d == 0:
            total += d**ell + ((k // d) ** ell if d * d != k else 0)
    return float(total)


#: entries of the q-sum cache: a few tau's worth of every weight the
#: identities use; bounded because basis_rank draws fresh tau
Q_SUM_CACHE_SIZE = 512


@lru_cache(maxsize=Q_SUM_CACHE_SIZE)
def _eisenstein_q_sum(n: int, tau: TauPoint, policy: SeriesPolicy,
                      tau_deriv: bool) -> Tuple[complex, float]:
    """sum_k sigma_{2n-1}(k) q^k, optionally with the termwise 2 pi i k factor.

    Returns (sum, bound on the tail and the rounding).  Does not check tau:
    callers run `_check_tau` first, on every call, since the cache would
    skip it.  A NonConvergenceError is raised afresh each time, as
    `lru_cache` keeps only returned values."""
    cap = _term_cap(tau, policy)
    q = tau.nome
    aq = abs(q)
    # q^k carries k times q's relative error and one product's; the term's
    # own products and the Kahan step add a few ulps
    err_q = float(_exp_err(TWO_PI_I * tau.tau)) + 2.0
    rnd = 0.0
    acc, comp = 0j, 0j
    qk = 1.0 + 0j
    small_streak = 0
    last = 0.0
    k = 0
    while k < cap:
        k += 1
        qk *= q
        term = _divisor_power_sum(2 * n - 1, k) * qk
        if tau_deriv:
            term *= TWO_PI_I * k
        acc, comp = _kahan_add(acc, comp, term)
        last = abs(term)
        rnd += last * (k * err_q + 4.0)
        scale = max(abs(acc), 1e-300)
        if last <= policy.tol * scale or last == 0.0:
            small_streak += 1
            if small_streak >= 3:
                break
        else:
            small_streak = 0
    else:
        raise NonConvergenceError(
            f"Eisenstein q-series (n={n}) hit max_terms={cap}",
            ComplexVal(acc, float("inf")),
        )
    # Ratio of consecutive terms is <= ((k+1)/k)^{2n+1} |q|; bound the tail
    # geometrically with a safety factor.
    r = aq * ((k + 1) / k) ** (2 * n + (2 if tau_deriv else 1))
    r = min(r, 0.99)
    return acc, 2.0 * last * r / (1.0 - r) + 2.0**-53 * rnd


@lru_cache(maxsize=None)
def _eisenstein_consts(n: int) -> Tuple[complex, complex, float, float]:
    """const and pref of E_{2n}, |pref|, and the first-order relative
    rounding of const and pref: math.pi carries 2n half-ulps into
    (2 pi i)^{2n}, the binary powering and the B_{2n} and factorial
    divisions a few more, and pref * s one."""
    pref = 2 * TWO_PI_I ** (2 * n) / math.factorial(2 * n - 1)
    const = -(TWO_PI_I ** (2 * n)) * float(bernoulli_number(2 * n)) / math.factorial(2 * n)
    return const, pref, abs(pref), 2.0**-53 * (2 * n + 2 * (2 * n).bit_length() + 4)


def _check_n_tau(n: int, tau: TauPoint, policy: SeriesPolicy) -> None:
    """The checks every Eisenstein call runs, before any cache is read."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_tau(tau, policy)


def eisenstein(n: int, tau: TauPoint, policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """Eisenstein series E_{2n}(tau) = 2 zeta(2n) + (2 (2 pi i)^{2n} / (2n-1)!)
    sum_k sigma_{2n-1}(k) q^k, with 2 zeta(2n) = -(2 pi i)^{2n} B_{2n} / (2n)!."""
    _check_n_tau(n, tau, policy)
    return _eisenstein(n, tau, policy)


def _eisenstein(n: int, tau: TauPoint, policy: SeriesPolicy) -> ComplexVal:
    """`eisenstein` without the checks of n and tau."""
    const, pref, abs_pref, rel = _eisenstein_consts(n)
    s, tail = _eisenstein_q_sum(n, tau, policy, tau_deriv=False)
    value = const + pref * s
    # the tail, the rounding of const and pref * s, and of the final sum
    return ComplexVal(value, abs_pref * tail + rel * (abs(const) + abs_pref * abs(s))
                      + 2.0**-53 * abs(value))


def eisenstein_normalized(n: int, tau: TauPoint, policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """G_{2n}(tau) = -B_{2n}/(4n) + sum_k sigma_{2n-1}(k) q^k."""
    _check_n_tau(n, tau, policy)
    const = -float(bernoulli_number(2 * n)) / (4 * n)
    s, tail = _eisenstein_q_sum(n, tau, policy, tau_deriv=False)
    value = const + s
    # first-order rounding of float(B_{2n}), the division and the final sum
    return ComplexVal(value, tail + 2.0**-53 * (2 * abs(const) + abs(value)))


def eisenstein_tau_derivative(n: int, tau: TauPoint, policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """dE_{2n}/dtau by termwise differentiation of the q-expansion."""
    _check_n_tau(n, tau, policy)
    return _eisenstein_tau_derivative(n, tau, policy)


def _eisenstein_tau_derivative(n: int, tau: TauPoint, policy: SeriesPolicy) -> ComplexVal:
    """`eisenstein_tau_derivative` without the checks of n and tau."""
    _, pref, abs_pref, _ = _eisenstein_consts(n)
    s, tail = _eisenstein_q_sum(n, tau, policy, tau_deriv=True)
    return ComplexVal(pref * s, abs_pref * tail)


# ---------------------------------------------------------------------------
# Batched series over arrays of points
# ---------------------------------------------------------------------------

_LATTICE_EPS = 1e-12


def _lattice_check(x: np.ndarray, y: np.ndarray, message) -> None:
    """Raise ValueError if some x or y is not finite, and LatticePointError,
    with `message(i)` for the first offending i, if some x - y*tau is a
    lattice point."""
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("points must be finite")
    hit = ((np.abs(x - np.rint(x)) < _LATTICE_EPS)
           & (np.abs(y - np.rint(y)) < _LATTICE_EPS))
    if hit.any():
        raise LatticePointError(message(int(np.argmax(hit))))


#: term rows of a series' first block; each later block doubles it
FIRST_BLOCK = 8
#: point-terms in one block at most: bounds the memory of the block arrays
#: for large batches, where the width falls to BLOCK_ELEMENTS // points
BLOCK_ELEMENTS = 4096


def _points_series(start: np.ndarray, start_rnd: np.ndarray, terms,
                   state: Tuple[np.ndarray, ...], cap: int, tol: float, what: str):
    """Run the j-series `sum_j terms(js, *state)` over a batch of points.

    The terms come in blocks of consecutive j.  `terms(js, *state)` gets the
    block's j as Python ints and the per-point inputs `state` of the points
    still running as rows (1 x points); it returns 2-D arrays with one row
    per j and one column per point: the two jth terms, |term 1| + |term 2|
    and a first-order bound, in units of 2^-53, on the rounding error of the
    pair as computed.  Each row must equal what a term-by-term run computes
    at that j; with 2-D operands on both sides, numpy rounds a broadcast
    complex product as it rounds an array times a scalar, while a 1-D array
    times a 1 x 1 array rounds as Python's scalar product does.  Each point starts from `start`, whose
    rounding bound is `start_rnd`.

    The rows are added in order, each pair as one Kahan step.  A point stops
    after its jth pair once j >= 2 and the pair is below tol relative to
    max(|sum|, 1); its later rows in the block are discarded and it leaves
    the batch at the block's end.  Blocks start at FIRST_BLOCK rows and
    double, within BLOCK_ELEMENTS point-terms and the cap, so every result
    is bit-identical to a term-by-term run's.  Returns per point the Kahan
    states (s, c), the j it stopped at, its last |term 1| + |term 2| and its
    summed rounding bound.  Raises NonConvergenceError if a point is still
    running after `cap` terms."""
    n = len(start)
    out_s = np.empty(n, dtype=complex)
    out_c = np.empty(n, dtype=complex)
    out_j = np.empty(n)
    out_last = np.empty(n)
    out_rnd = np.empty(n)
    idx = np.arange(n)
    s, c, rnd = start + 0j, np.zeros(n, dtype=complex), start_rnd
    j = 0
    width = FIRST_BLOCK
    while idx.size and j < cap:
        rows = min(width, max(BLOCK_ELEMENTS // idx.size, 1), cap - j)
        t1, t2, last, r = terms(range(j + 1, j + rows + 1), *(a[None] for a in state))
        # the pair is added as one term; its rounding is within `r`
        pair = t1 + t2
        sums = np.empty_like(pair)
        comps = np.empty_like(pair)
        for i in range(rows):
            s, c = _kahan_add(s, c, pair[i])
            sums[i], comps[i] = s, c
        # the rounding bound after each row, summed row by row
        rnds = np.cumsum(np.vstack((rnd, r)), axis=0)[1:]
        rnd = rnds[-1]
        stop = last <= tol * np.maximum(np.abs(sums), 1.0)
        if j == 0:
            stop[0] = False  # no point stops at j = 1
        first = stop.argmax(axis=0)
        cols = np.arange(idx.size)
        done = stop[first, cols]
        if np.count_nonzero(done):
            k, at, col = idx[done], first[done], cols[done]
            out_s[k], out_c[k], out_rnd[k] = sums[at, col], comps[at, col], rnds[at, col]
            out_j[k], out_last[k] = j + 1 + at, last[at, col]
            keep = ~done
            idx, s, c, rnd = idx[keep], s[keep], c[keep], rnd[keep]
            state = tuple(a[keep] for a in state)
        j += rows
        width *= 2
    if idx.size:
        raise NonConvergenceError(f"{what} hit max_terms={cap}",
                                  ComplexVal(complex(s[0]), float("inf")))
    return out_s, out_c, out_j, out_last, out_rnd


def _exp_err(a) -> np.ndarray:
    """First-order relative error, in units of 2^-53, of exp(a) for an
    argument `a` built from a few rounded products of 2 pi i: each rounding
    of `a` becomes a relative error of the result."""
    return 6.0 * np.abs(a) + 4.0


# ---------------------------------------------------------------------------
# Elliptic Bernoulli functions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _bernoulli_poly_float_coeffs(m: int) -> Tuple[float, ...]:
    return tuple(math.comb(m, j) * float(bernoulli_number(j)) for j in range(m + 1))


def _bernoulli_poly_float(m: int, y):
    acc = 0.0
    for c in _bernoulli_poly_float_coeffs(m):
        acc = acc * y + c
    return acc


def elliptic_bernoulli_points(m: int, x, y, tau: TauPoint,
                              policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexArray:
    """`elliptic_bernoulli` at every point (x[i], y[i]) of two equal-length
    arrays, in one batched run of its series."""
    if m < 0:
        raise ValueError("m must be >= 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _lattice_check(x, y, lambda i: (f"B_{m}({float(x[i])}, {float(y[i])}; tau): "
                                    "x - y*tau is a lattice point"))
    if m == 0 or not x.size:
        return ComplexArray(np.ones(len(x), dtype=complex), np.zeros(len(x)))
    cap = _check_tau(tau, policy)
    t = tau.tau
    y = y - np.floor(y)
    # x is off-integer where y snaps to exactly 0 (lattice check above)
    y = np.where((y < _LATTICE_EPS) | (y > 1 - _LATTICE_EPS), 0.0, y)
    decay = abs(cmath.exp(TWO_PI_I * t))  # = |q| < 1
    # Rounding of a term P w / D, D = e(+-x) - w: the exponentials carry the
    # relative errors of their arguments (see _exp_err), e(+-x)'s and w's;
    # w = e(-+y tau) q^j has at most 12 pi |tau| (j + 1) + 11 ulps.  D turns
    # both into errors relative to itself, |w| and |e(+-x)| being at most 1;
    # |D| >= 1 - |q| for the second term.  The power, the product, the
    # quotient and the sum of the pair add m + 11 ulps.
    g = 12.0 * math.pi * abs(t)
    kappa = 1.0 / (1.0 - decay)

    def terms(js, y, emy, epy, emx, epx, err_x):
        # one row per j;  e(-y tau) q^j = e((j - y) tau),  e(y tau) q^j = e((j + y) tau)
        qj = np.array([cmath.exp(TWO_PI_I * j * t) for j in js])[:, None]
        j = np.array(js, dtype=float)[:, None]
        w1, w2 = emy * qj, epy * qj
        d1 = emx - w1
        t1, t2 = w1 / d1, -(w2 / (epx - w2))
        if m > 1:
            t1, t2 = (y - j) ** (m - 1) * t1, (y + j) ** (m - 1) * t2
        a1, a2 = np.abs(t1), np.abs(t2)
        size = a1 + a2
        err_w = g * (j + 1) + 11.0
        rnd = (a1 / np.abs(d1) + kappa * a2) * (err_x + err_w) + size * (m + 11.0 + err_w)
        return t1, t2, size, rnd

    emx = np.exp(-TWO_PI_I * x)
    s, c, j, last, rnd = _points_series(
        np.zeros(len(x), dtype=complex), np.zeros(len(x)), terms,
        (y, np.exp(-TWO_PI_I * y * t), np.exp(TWO_PI_I * y * t), emx, emx.conj(),
         _exp_err(TWO_PI_I * x)),
        cap, policy.tol, "elliptic Bernoulli series")
    arg = TWO_PI_I * (-x + y * t)
    v = np.exp(arg)
    closing = y ** (m - 1) * v / (v - 1)
    acc, _ = _kahan_add(s, c, closing)
    r = decay * ((j + 1 + y) / np.maximum(j - y, 0.5)) ** (m - 1) if m > 1 else decay
    r = np.minimum(r, 0.99)
    tail = m * (2.0 * last * r / (1.0 - r) + 1e-16 * np.abs(acc) * j)
    value = m * acc + _bernoulli_poly_float(m, y)
    # first-order rounding: the terms, the closing term (as above, with
    # v - 1 for the denominator), the Kahan sum, m * acc, the Bernoulli
    # polynomial's Horner steps (at most sum_j |C(m, j) B_j| on [0, 1)) and
    # the final sum
    rnd = rnd + np.abs(closing) * (m + 10.0 + _exp_err(arg) * (1.0 + np.abs(v) / np.abs(v - 1)))
    rnd = (m * (rnd + 3.0 * np.abs(acc))
           + 2.0 * (m + 1) * sum(map(abs, _bernoulli_poly_float_coeffs(m))) + np.abs(value))
    return ComplexArray(value, tail + 2.0**-53 * rnd)


def elliptic_bernoulli(m: int, x: float, y: float, tau: TauPoint,
                       policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """Elliptic Bernoulli function B_m(x, y; tau) (Kronecker's double series).

    B_m(x,y;tau) = m [ sum_{j>=1} (y-j)^{m-1} e(-y tau) q^j / (e(-x) - e(-y tau) q^j)
                     - sum_{j>=1} (y+j)^{m-1} e(y tau) q^j / (e(x) - e(y tau) q^j)
                     + y^{m-1} e(-x+y tau) / (e(-x+y tau) - 1) ] + B_m(y),

    with y reduced into [0, 1) first and B_m(y) the Bernoulli polynomial of
    the reduced y.  m = 0 returns 1 (the generating-series residue), which the
    Machide sums need.
    """
    return elliptic_bernoulli_points(m, [x], [y], tau, policy)[0]


# ---------------------------------------------------------------------------
# Weierstrass functions
# ---------------------------------------------------------------------------


def _decompose(z, tau: TauPoint):
    """Write z = x - y*tau with real x, y."""
    t = tau.tau
    y = -z.imag / t.imag
    x = z.real + y * t.real
    return x, y


def weierstrass_zeta_points(z, tau: TauPoint,
                            policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexArray:
    """`weierstrass_zeta` at every point of the array z, with one batched
    B_1 series and one E_2."""
    z = np.asarray(z, dtype=complex)
    x, y = _decompose(z, tau)
    _lattice_check(x, y, lambda i: f"zeta pole: z = {complex(z[i])} is on the lattice")
    nx = np.floor(x)
    ny = np.floor(y)
    x0, y0 = x - nx, y - ny
    b1 = elliptic_bernoulli_points(1, x0, y0, tau, policy)
    # keep z0 consistent with the snap inside B_1
    y0 = np.where((y0 < _LATTICE_EPS) | (y0 > 1 - _LATTICE_EPS), np.rint(y0), y0)
    z0 = x0 - y0 * tau.tau
    e2 = eisenstein(1, tau, policy)
    e2 = ComplexArray(e2.value, e2.err)
    zeta0 = (b1 - y0) * -TWO_PI_I + e2 * z0
    # z = z0 + nx - ny*tau
    return zeta0 + e2 * (nx - ny * tau.tau) + ComplexArray(TWO_PI_I * ny, 0.0)


def weierstrass_zeta(z: complex, tau: TauPoint,
                     policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """Weierstrass zeta(z; tau).

    Decomposes z = x - y*tau, reduces (x, y) into [0,1)^2 where the elliptic
    Bernoulli series converges, and inverts

        B_1(x, y; tau) = -(1/2 pi i)[zeta(x - y tau) - E_2 (x - y tau)] + y,

    restoring the shift with the quasi-periods zeta(z+1) = zeta(z) + E_2 and
    zeta(z+tau) = zeta(z) + E_2 tau - 2 pi i.
    """
    return weierstrass_zeta_points([complex(z)], tau, policy)[0]


@lru_cache(maxsize=None)
def _phi_poly(k: int) -> Tuple[int, ...]:
    """Numerator P_k of (u d/du)^k [u/(1-u)^2] = P_k(u)/(1-u)^{k+2}.

    Recurrence: P_{k+1}(u) = u [ P_k'(u)(1-u) + (k+2) P_k(u) ], whose
    coefficient of u^{i+1} is (i+1) a_{i+1} + (k+2-i) a_i for P_k = sum a_i u^i.
    """
    p = (0, 1)
    for kk in range(k):
        a = p + (0,)
        p = (0,) + tuple((i + 1) * a[i + 1] + (kk + 2 - i) * a[i] for i in range(len(p)))
    return p


def _phi(k: int, w: np.ndarray, pk: Tuple[int, ...],
         pk1: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """Phi_k(w), and S = P_{k+1}(|w|) / |1 - w|^{k+3}, which bounds both
    |w Phi_k'(w)| = |Phi_{k+1}(w)| and, for |w| <= 1, half of
    P_k(|w|) / |1 - w|^{k+2}: the scales of the error that a relative error
    of w and the rounding of the evaluation cause.  pk and pk1 are
    `_phi_poly(k)` and `_phi_poly(k + 1)`."""
    num = np.zeros_like(w)
    for c in reversed(pk):
        num = num * w + c
    den = 1 - w
    r = np.abs(w)
    num_abs = np.zeros_like(r)
    for c in reversed(pk1):
        num_abs = num_abs * r + c
    return num / den ** (k + 2), num_abs / np.abs(den) ** (k + 3)


def weierstrass_p_deriv_points(k: int, z, tau: TauPoint,
                               policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexArray:
    """`weierstrass_p_deriv` at every point of the array z, in one batched
    run of its Fourier series."""
    if k < 0:
        raise ValueError("k must be >= 0")
    z = np.asarray(z, dtype=complex)
    t = tau.tau
    x, y = _decompose(z, tau)
    _lattice_check(x, y, lambda i: f"pe pole: z = {complex(z[i])} is on the lattice")
    y0 = y - np.rint(y)
    # pe^{(k)}(-z) = (-1)^k pe^{(k)}(z)
    neg = y0 < -_LATTICE_EPS
    sign = np.where(neg, (-1.0) ** k, 1.0)
    x = np.where(neg, -x, x)
    y0 = np.where(neg, -y0, np.where(np.abs(y0) <= _LATTICE_EPS, 0.0, y0))
    x0 = x - np.floor(x)
    arg = TWO_PI_I * (x0 - y0 * t)
    u = np.exp(arg)
    q = tau.nome
    aq = abs(q)
    cap = _check_tau(tau, policy)
    par = (-1.0) ** k
    qj = 1.0 + 0j
    # Rounding, in ulps of S (see _phi): the Horner steps, the power and the
    # quotient, plus the relative error of the argument, which is u's (as
    # exp gives it) and j times q's and one product's for q^j
    bl = (k + 2).bit_length()
    own = 10.0 * k + 44.0 + 12.0 * bl
    err_u = _exp_err(arg)
    err_q = float(_exp_err(TWO_PI_I * t)) + 3.0

    pk, pk1 = _phi_poly(k), _phi_poly(k + 1)

    def terms(js, u, err_u):
        # one row per j; q^j is the running product, one factor q per j
        nonlocal qj
        powers = []
        for _ in js:
            qj *= q
            powers.append(qj)
        qjs = np.array(powers)[:, None]
        j = np.array(js, dtype=float)[:, None]
        t1, s1 = _phi(k, u * qjs, pk, pk1)
        t2, s2 = _phi(k, qjs / u, pk, pk1)
        size = np.abs(t1) + np.abs(t2)
        return t1, par * t2, size, (s1 + s2) * (err_u + (own + 6.0 + j * err_q)) + size

    start, s0 = _phi(k, u, pk, pk1)
    acc, _, j, last, rnd = _points_series(start, s0 * (err_u + own), terms, (u, err_u),
                                          cap, policy.tol, "pe Fourier series")
    pref = TWO_PI_I ** (k + 2)
    r = min(aq * 2.0, 0.99)
    tail = abs(pref) * (2.0 * last * r / (1.0 - r) + 1e-16 * np.abs(acc) * j)
    value = sign * pref * acc
    # pref carries k + 2 half-ulps of pi and its binary powering; the
    # product and the Kahan sum add a few more
    rnd = abs(pref) * (rnd + 2.0 * np.abs(acc)) + (k + 2 * bl + 6.0) * np.abs(value)
    val = ComplexArray(value, tail + 2.0**-53 * rnd)
    if k == 0:
        val = val - eisenstein(1, tau, policy)
    return val


def weierstrass_p_deriv(k: int, z: complex, tau: TauPoint,
                        policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """kth z-derivative of the Weierstrass pe function.

    Fourier form in u = e(z), differentiated termwise:

        pe^{(k)}(z) = -E_2 [k=0] + (2 pi i)^{k+2} [ Phi_k(u)
                      + sum_{j>=1} ( Phi_k(u q^j) + (-1)^k Phi_k(q^j / u) ) ]

    with Phi_k = (u d/du)^k [u/(1-u)^2].  z is reduced modulo the lattice so
    that 0 <= Im(z after reduction) <= Im(tau)/2, using evenness.
    """
    return weierstrass_p_deriv_points(k, [complex(z)], tau, policy)[0]


def weierstrass_zeta_deriv(j: int, z: complex, tau: TauPoint,
                           policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """zeta^{(j)}(z; tau); for j >= 1 this is -pe^{(j-1)}(z; tau)."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if j == 0:
        return weierstrass_zeta(z, tau, policy)
    return -weierstrass_p_deriv(j - 1, z, tau, policy)


def sigma_log_tau_derivative(z: complex, tau: TauPoint,
                             policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """d(log sigma(z; tau))/dtau at fixed z, for any z off the lattice.

    sigma = e^{E_2 z^2 / 2} theta_1(pi z) / (pi theta_1'(0)), the heat
    equation theta_zz = 4 pi i theta_tau of theta_1 and Ramanujan's
    2 pi i E_2' = 5 E_4 - E_2^2 give

        2 d(log sigma)/dtau - E_2' z^2 - E_2 / (pi i)
            = ((zeta(z) - E_2 z)^2 - pe(z)) / (2 pi i),

    so the value is ((zeta - E_2 z)^2 - pe + 2 E_2) / (4 pi i) + E_2' z^2 / 2.
    """
    z = complex(z)
    e2 = eisenstein(1, tau, policy)
    b = weierstrass_zeta(z, tau, policy) - e2 * z
    val = (b * b - weierstrass_p_deriv(0, z, tau, policy) + e2 * 2.0) * (1.0 / (4j * math.pi))
    return val + eisenstein_tau_derivative(1, tau, policy) * (z * z / 2)


# ---------------------------------------------------------------------------
# Direct lattice-sum oracle (absolutely convergent weights only)
# ---------------------------------------------------------------------------


def kronecker_direct(k: int, z: complex, tau: TauPoint,
                     cutoff: LatticeCutoff) -> ComplexVal:
    """Truncated Kronecker lattice sum

        C_k(z) ~ sum_{|m|,|n| <= R, (m,n) != 0} chi(w conj(z)) / w^k,

    with w = m tau + n and chi(t) = exp(2 pi i Im(t) / Im(tau)).  Only the
    absolutely convergent range k >= 3 is supported; the reported err is the
    O(R^{2-k}) lattice tail bound.
    """
    if k < 3:
        raise ValueError("k must be >= 3 (conditionally convergent sums are out of scope)")
    t = complex(tau.tau)
    R = cutoff.radius
    ms = np.arange(-R, R + 1)
    ns = np.arange(-R, R + 1)
    M, N = np.meshgrid(ms, ns, indexing="ij")
    W = M * t + N
    mask = (M != 0) | (N != 0)
    Wm = np.where(mask, W, 1.0)
    chi = np.exp(2j * np.pi * (Wm * np.conjugate(z)).imag / t.imag)
    terms = np.where(mask, chi / Wm**k, 0.0)
    # inner sum over n first, then over m (Eisenstein summation order)
    val = complex(terms.sum(axis=1).sum())
    # points at ring max(|m|,|n|) = s number ~ 8s and satisfy |w| >= c*s
    c = min(1.0, t.imag) / (1.0 + abs(t.real))
    tail = 8.0 * c ** (-k) * R ** (2 - k) / (k - 2)
    return ComplexVal(val, tail)


# ---------------------------------------------------------------------------
# Odd zeta values
# ---------------------------------------------------------------------------


def zeta_odd(n: int, tol: float = 1e-12) -> float:
    """zeta(2n+1) by direct summation plus an Euler-Maclaurin tail below tol."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    s = 2 * n + 1
    K = 10
    # remainder after the K^{-s-1} correction term is O(s^3 K^{-s-3})
    while s**3 * K ** (-(s + 3)) > tol * 0.01 and K < 10**6:
        K *= 2
    acc = math.fsum(k ** (-s) for k in range(1, K + 1))
    tail = K ** (1 - s) / (s - 1) - 0.5 * K ** (-s) + s / 12.0 * K ** (-(s + 1))
    return acc + tail
