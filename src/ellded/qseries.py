"""q-series engine: Eisenstein series, Weierstrass functions and elliptic
Bernoulli functions.

All evaluation is binary64 complex with explicit truncation-error tracking
(`ComplexVal.err` bounds the discarded series tails via geometric estimates,
plus a first-order bound on the rounding).
Each series runs in a fixed ascending order and adds its terms with one
compensated (Kahan) step, `_kahan_add`, on Python scalars for the scalar
Eisenstein sums and elementwise on arrays for the batched series, so repeated
runs are bit-identical.

Every batched series runs on one engine, `_block_series`.  Each column of a
batch, a point of a kernel or one q-sum of the Eisenstein pass, keeps its own
Kahan state, stopping rule and rounding bound under the batch's one term
cap, and leaves the batch once it has stopped; the engine raises the term
cap's NonConvergenceError for the first column still running after
max_terms, so no caller has a failure path of its own.  The terms are
evaluated in blocks of consecutive j, as 2-D arrays over (j, column) of at
most BLOCK_ELEMENTS entries, and then added one j at a time, each Kahan
step written in place into the block's rows, so values equal a
term-by-term run's bit for bit.  The first block is sized from |q|, by
`_points_rows` for the kernels and `_q_sum_rows` for the Eisenstein pass,
so that a pass near the fundamental domain runs one block, which it
returns as it stands once every column has stopped in it.

The Weierstrass and elliptic Bernoulli functions are array kernels
(`*_points`) on the engine; the scalar functions are one-point calls to them.
`elliptic_bernoulli_points` also takes an order per point, so that the B_m
factors of every order that a symbol needs share one pass.  Integer powers
in the series are IEEE products (`_ipow`), not numpy's pow, so their bits
do not depend on the host.
The Weierstrass kernels run at tau reduced to the fundamental domain
(`_reduction`) and map their values back by weight; the elliptic Bernoulli
and Eisenstein functions run at tau itself.  b = zeta - E_2 z comes straight
from one B_1 batch (`_b_series`), with no E_2, and zeta is b + E_2 z.
Each input rule has one home, and the series only evaluate.  Each public
call checks its tau once, in `_checked`, into a `_Checked` record of plain
numbers: tau, tol and max_terms, the term cap of every series at every tau;
a tau below the policy's min_im_tau, or where |q| rounds to 1, raises
there, before any series runs.  The points of a kernel call pass one check,
`_lattice_check` (one shape, 1-D, finite, off the lattice), and a y within
_LATTICE_EPS of an integer is snapped to it (`_snap`, on the same
near-integer test) before the series, which count the shift in err.
The Eisenstein q-sums are memoised per (n, record, tau_deriv) in a bounded
`lru_cache` over a scalar loop, which a single q-sum runs several times
faster than the engine.  `_eisenstein_q_sums` computes the same sums for a
whole sample of tau on the engine, without the cache and without their
bounds, as one (tau x column) array.  The Eisenstein table that R^-_{2n} and
the identities are built from, E_{2n+2}, the products E_{2j} E_{2n+2-2j}
and dE_{2n}/dtau, lives here in both its shapes: per tau from the cached
q-sums (`_eisenstein_table`, uncached itself, as `identities` keeps one
record per (n, tau) built from it), and over a sample from one engine pass
(`_eisenstein_tables`), so that no other module reads a q-sum.
"""

from __future__ import annotations

import cmath
import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .exact import bernoulli_number

TWO_PI_I = 2j * math.pi

__all__ = [
    "TauPoint",
    "ComplexVal",
    "ComplexArray",
    "SeriesPolicy",
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


def _parse_complex(s: str) -> complex:
    """The complex number of a literal "a+bi", "bi" or "a", spaces ignored,
    with i or I for the imaginary unit (or Python's j); ValueError if it is
    none.  Only the unit, the last character, is mapped, so that "inf" and
    "nan" parts read as Python reads them."""
    t = s.strip().replace(" ", "")
    if t.endswith(("i", "I")):
        t = t[:-1] + "j"
    try:
        return complex(t)
    except ValueError as e:
        raise ValueError(f"cannot parse complex number {s!r}") from e


def parse_tau(s: str) -> TauPoint:
    """Parse "a+bi" (decimal a, b) into a TauPoint."""
    if not s.strip().endswith(("i", "I")):
        raise ValueError(f"tau must be of the form 'a+bi', got {s!r}")
    return TauPoint(_parse_complex(s))


_EPS = 2.0**-52


class ComplexVal:
    """A complex value with an a-posteriori error bound.

    err bounds the truncated series tails plus a first-order rounding model,
    so that subtracting two large nearly-equal values reports the expected
    loss of significance.

    Immutable, compared and hashed by (value, err), with the repr of a
    dataclass; a slotted class rather than a frozen dataclass because the
    arithmetic builds one per operation."""

    __slots__ = ("value", "err")

    def __init__(self, value: complex, err: float = 0.0):
        if err < 0:
            raise ValueError("err must be >= 0")
        _SET_VALUE(self, value)
        _SET_ERR(self, err)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return ComplexVal, (self.value, self.err)

    def __repr__(self) -> str:
        return f"ComplexVal(value={self.value!r}, err={self.err!r})"

    def __eq__(self, other):
        if other.__class__ is not ComplexVal:
            return NotImplemented
        return (self.value, self.err) == (other.value, other.err)

    def __hash__(self) -> int:
        return hash((self.value, self.err))

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
        # self + (-other) in one step, rounded as that sum is
        if isinstance(other, ComplexVal):
            return ComplexVal(
                self.value + -other.value,
                self.err + other.err + _EPS * (abs(self.value) + abs(other.value)),
            )
        return ComplexVal(self.value + -other, self.err + _EPS * abs(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, ComplexVal):
            a, b = abs(self.value), abs(other.value)
            return ComplexVal(
                self.value * other.value,
                a * other.err + b * self.err + self.err * other.err + _EPS * a * b,
            )
        return ComplexVal(self.value * other, (self.err + _EPS * abs(self.value)) * abs(other))

    __rmul__ = __mul__

    def to_json_obj(self) -> dict:
        return {"re": self.value.real, "im": self.value.imag, "err": self.err}


# the slots' own setters, which bypass ComplexVal.__setattr__
_SET_VALUE = ComplexVal.value.__set__
_SET_ERR = ComplexVal.err.__set__


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
    """Truncation contract shared by every q-series."""

    tol: float = 1e-12
    max_terms: int = 10**6
    min_im_tau: float = 0.05

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if not isinstance(self.max_terms, int):
            raise ValueError(f"max_terms must be an int, got {self.max_terms!r}")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if math.isnan(self.min_im_tau):
            raise ValueError("min_im_tau must be a number, got nan")


DEFAULT_POLICY = SeriesPolicy()


class NonConvergenceError(RuntimeError):
    """Term cap reached before the tolerance; carries the partial value."""

    def __init__(self, message: str, partial: ComplexVal):
        super().__init__(message)
        self.partial = partial


#: Im tau below which `_checked` issues a SlowNomeWarning
_SLOW_IM_TAU = 0.11


class _Checked(NamedTuple):
    """A tau checked by `_checked`, with the policy's tol and its max_terms as
    the term cap, all plain numbers: what every kernel entry, block series and
    Eisenstein cache takes, so none sees an unchecked tau, and a cache key
    that hashes and compares at C level."""

    tau: complex
    tol: float
    cap: int


def _checked(tau: TauPoint, policy: SeriesPolicy) -> _Checked:
    """tau checked under policy: ValueError below min_im_tau and where |q|
    rounds to 1, at which no q-series converges (and the kernels' error
    models would divide by 1 - |q| = 0), and one SlowNomeWarning where the
    nome is slow.  Only a slow tau can round |q| to 1, so a fast one pays
    for neither test."""
    im = tau.tau.imag
    if im < policy.min_im_tau:
        raise ValueError(f"Im(tau) = {im} below the accepted bound {policy.min_im_tau}")
    if im < _SLOW_IM_TAU:
        aq = abs(tau.nome)
        if aq >= 1.0:
            raise ValueError(f"|q| rounds to 1 at tau = {tau.tau}: no q-series can converge")
        warnings.warn(f"Im(tau) = {im} gives |q| = {aq:.3f}; convergence is slow",
                      SlowNomeWarning, stacklevel=_outside_stacklevel())
    # tuple.__new__ skips the NamedTuple's Python-level __new__ on every public call
    return tuple.__new__(_Checked, (tau.tau, policy.tol, policy.max_terms))


def _outside_stacklevel() -> int:
    """The `stacklevel` at which a warning issued by the caller names the
    first frame outside the package, as `skip_file_prefixes` (Python 3.12)
    would; the frames are walked so that 3.10 and 3.11 get the same."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


def _kahan_add(s, c, x):
    """Compensated (Kahan) addition of x to the running sum s with
    compensation c, on Python scalars or elementwise on numpy arrays;
    returns the new (s, c)."""
    y = x - c
    t = s + y
    return t, (t - s) - y


def _ipow(a, e: int):
    """a ** e elementwise for an int e >= 0, by binary powering: at most
    e - 1 IEEE products, each the same on every host.  numpy's pow, which
    `**` calls for e >= 3, rounds as the host's SIMD library does and is
    ~100 times slower on negative bases."""
    if e == 0:
        return np.ones_like(a)
    out = None
    while True:
        if e & 1:
            out = a if out is None else out * a
        e >>= 1
        if not e:
            return out
        a = a * a


# ---------------------------------------------------------------------------
# Block series: one series in every column of a batch
# ---------------------------------------------------------------------------

#: column-terms in one block at most: bounds the memory of the block arrays
#: for large batches, where the width falls to BLOCK_ELEMENTS // columns
BLOCK_ELEMENTS = 4096


def _block_series(start: np.ndarray, start_rnd: np.ndarray, terms,
                  state: Tuple[np.ndarray, ...], cap: int, small, streak: int,
                  first: int, what, rank: Optional[np.ndarray] = None):
    """Run the series `start + sum_j terms(js, *state)` in every column of a
    batch; each column starts from `start`, whose rounding bound is
    `start_rnd`.

    The terms come in blocks of consecutive j.  `terms(js, *state)` gets the
    block's j as Python ints and the per-column inputs `state` of the columns
    still running as rows (1 x columns); it returns fresh 2-D arrays, which
    the engine may overwrite, with one row per j and one column per running
    column: the jth term, its size and a first-order bound, in units of
    2^-53, on its rounding error.  Each row must equal what a term-by-term
    run computes at that j; with 2-D operands on both sides, numpy rounds a
    broadcast complex product as it rounds an array times a scalar, while a
    1-D array times a 1 x 1 array rounds as Python's scalar product does.

    The rows are added in order, one Kahan step each, written straight into
    the block's rows of sums and compensations; the rounding bounds are
    summed row by row in place.  `small(size, sums)` tells elementwise
    whether a term is small next to the sum after it; a column stops after
    its jth term, j >= 2, once its last `streak` terms were small, and
    leaves the batch at the end of its block.  If some columns are still
    running after `cap` terms, raises NonConvergenceError "`what(i)` hit
    max_terms=cap" with the partial sum of the first of them, i: first in
    the batch, or by `rank`, the columns' places in the caller's order,
    where the batch runs them in another.  The first block has `first`
    rows, which the caller sizes from |q| to hold the whole series where it
    can, and each later one twice the rows the last one ran, within
    BLOCK_ELEMENTS column-terms and the cap, so every result is
    bit-identical to a term-by-term run's; once the wide part of a batch
    has left, its narrow rest grows again from the rows it ran, not at once
    to BLOCK_ELEMENTS // columns.  A block in which every column stops,
    with none gone before it, is returned as it stands, with no compaction
    and no scatter.  Returns per column the Kahan state (s, c) where it
    stopped, the j it stopped at, its last size and its summed rounding
    bound."""
    n = len(start)
    out_s, out_c = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    out_j, out_last, out_rnd = np.empty(n, dtype=int), np.empty(n), np.empty(n)
    idx = np.arange(n)
    s, c, rnd = start + 0j, np.zeros(n, dtype=complex), start_rnd
    # whether each column's last streak - 1 terms were small
    prev = np.zeros((streak - 1, n), dtype=bool)
    j = 0
    width = first
    while idx.size:
        rows = min(width, max(BLOCK_ELEMENTS // idx.size, 1), cap - j)
        term, size, r = terms(range(j + 1, j + rows + 1), *(a[None] for a in state))
        sums, comps = np.empty_like(term), np.empty_like(term)
        y = np.empty_like(s)
        for i in range(rows):
            # _kahan_add(s, c, term[i]), into row i
            t, comp = sums[i], comps[i]
            np.subtract(term[i], c, out=y)
            np.add(s, y, out=t)
            np.subtract(t, s, out=comp)
            np.subtract(comp, y, out=comp)
            s, c = t, comp
        # the rounding bound after each row, summed row by row
        r[0] += rnd
        rnds = np.add.accumulate(r, axis=0, out=r)
        rnd = rnds[-1]
        runs = small(size, sums)
        if streak > 1:
            runs = np.concatenate((prev, runs))
            prev = runs[rows:]
        # stop[i]: the `streak` terms up to row i were small
        stop = runs[streak - 1:]
        for d in range(1, streak):
            stop = stop & runs[streak - 1 - d:streak - 1 - d + rows]
        if j == 0:
            stop[0] = False
        j += rows
        at = stop.argmax(axis=0)
        cols = np.arange(idx.size)
        done = stop[at, cols]
        if idx.size == n and done.all():
            # every column stopped in this block, and none left before it
            return (sums[at, cols], comps[at, cols], j - rows + 1 + at, size[at, cols],
                    rnds[at, cols])
        if j == cap and not done.all():
            failed = np.flatnonzero(~done)
            i = failed[0] if rank is None else failed[np.argmin(rank[idx[failed]])]
            raise NonConvergenceError(f"{what(idx[i])} hit max_terms={cap}",
                                      ComplexVal(complex(s[i]), float("inf")))
        if np.count_nonzero(done):
            k, at, col = idx[done], at[done], cols[done]
            out_s[k], out_c[k], out_rnd[k] = sums[at, col], comps[at, col], rnds[at, col]
            out_j[k], out_last[k] = j - rows + 1 + at, size[at, col]
            keep = ~done
            idx, s, c, rnd = idx[keep], s[keep], c[keep], rnd[keep]
            prev, state = prev[:, keep], tuple(a[keep] for a in state)
        width = 2 * rows
    return out_s, out_c, out_j, out_last, out_rnd


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


@lru_cache(maxsize=None)
def _divisor_power_sums(ells: Tuple[int, ...], count: int) -> np.ndarray:
    """sigma_ell(k) for k = 1..count (rows) and each ell of ells (columns),
    read-only; count is rounded up to a power of two, so that a growing
    count reuses few entries."""
    size = 1 << max(count - 1, 0).bit_length()
    if size != count:
        return _divisor_power_sums(ells, size)
    table = np.array([[_divisor_power_sum(ell, k) for ell in ells]
                      for k in range(1, count + 1)]).reshape(count, len(ells))
    table.flags.writeable = False
    return table


#: entries of the q-sum cache: a few tau's worth of every weight the
#: identities use; bounded because the caller may draw fresh tau
Q_SUM_CACHE_SIZE = 512


def _nome_err(t: complex) -> float:
    """err_q, in units of 2^-53: the relative error of q as `cmath.exp`
    gives it plus one product's.  A q-sum charges k err_q to q^k, and 4 more
    ulps to its kth term for the term's own products and the Kahan step."""
    return float(_exp_err(TWO_PI_I * t)) + 2.0


def _q_sum_bound(n: int, tau_deriv: bool, aq: float, k: int, last: float,
                 rnd: float) -> float:
    """Bound on the tail and the rounding of a q-sum stopped after its kth
    term, whose size was `last`, with summed rounding `rnd` (in units of
    2^-53).  The ratio of consecutive terms is <= ((k+1)/k)^{2n+1} |q|
    (one more power with the 2 pi i k factor); the tail is bounded
    geometrically with a safety factor."""
    r = aq * ((k + 1) / k) ** (2 * n + (2 if tau_deriv else 1))
    r = min(r, 0.99)
    return 2.0 * last * r / (1.0 - r) + 2.0**-53 * rnd


def _q_sum_what(n: int) -> str:
    """What a q-sum's NonConvergenceError names."""
    return f"Eisenstein q-series (n={n})"


@lru_cache(maxsize=Q_SUM_CACHE_SIZE)
def _eisenstein_q_sum(n: int, at: _Checked, tau_deriv: bool) -> Tuple[complex, float]:
    """sum_k sigma_{2n-1}(k) q^k at `at`'s tau, times 2 pi i k termwise if tau_deriv.

    Returns (sum, bound on the tail and the rounding).  The terms are added
    in order with one Kahan step each; the sum stops after three terms in a
    row below tol relative to it.  A NonConvergenceError is raised afresh
    each time, as `lru_cache` keeps only returned values; `_eisenstein_q_sums`
    runs the same loop over many columns at once and keeps only the sums."""
    cap, tol = at.cap, at.tol
    q = cmath.exp(TWO_PI_I * at.tau)
    err_q = _nome_err(at.tau)
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
        if last <= tol * scale or last == 0.0:
            small_streak += 1
            if small_streak >= 3:
                break
        else:
            small_streak = 0
    else:
        raise NonConvergenceError(f"{_q_sum_what(n)} hit max_terms={cap}",
                                  ComplexVal(acc, float("inf")))
    return acc, _q_sum_bound(n, tau_deriv, abs(q), k, last, rnd)


def _q_sum_rows(aq: float, ell: int, tol: float, streak: int) -> int:
    """An estimate of the terms a q-sum with |q| = aq runs before its
    stopping rule fires, from model terms k^ell aq^k: the first k >= 2 that
    ends `streak` model terms in a row below tol/100 times the largest
    before them; at most BLOCK_ELEMENTS.  The series runs longer where
    sigma_ell(k) exceeds k^ell and where its terms cancel, which the
    hundredth allows for near the fundamental domain; an estimate that
    falls short costs a second block, not a value."""
    log_q = math.log(aq) if aq > 0.0 else -math.inf
    log_tol = math.log(tol) - math.log(100.0)
    peak, run = -math.inf, 0
    for k in range(1, BLOCK_ELEMENTS + 1):
        t = ell * math.log(k) + k * log_q
        peak = max(peak, t)
        run = run + 1 if t <= log_tol + peak else 0
        if run >= streak and k >= 2:
            return k
    return BLOCK_ELEMENTS


def _eisenstein_q_sums(ats: Sequence[_Checked], cols: Sequence[Tuple[int, bool]]) -> np.ndarray:
    """The sum of `_eisenstein_q_sum(n, at, tau_deriv)` for every column
    (n, tau_deriv) of `cols` at every `at` of `ats`, records made under one
    policy and so with one tol and one term cap, in one `_block_series` run
    and without the cache: a (tau x column) complex array, bit for bit the
    scalar loop's sums.  No bound is formed.

    Each tau forms q^k by the scalar loop's Python complex products.  sigma
    q^k and its 2 pi i k factor are taken as separate real and imaginary
    float products: Python's complex products add only zeros to them, which
    can change the sign of a zero part but not a Kahan sum that starts from
    +0.  Each column has the scalar loop's three-term stopping rule.  The
    first block runs the terms `_q_sum_rows` estimates for the
    largest |q| and the largest power of k (2n - 1, one more with the
    2 pi i k factor), so that a sample near the fundamental domain runs in
    one block.  If some columns hit the cap, the engine raises the scalar
    loop's NonConvergenceError of the first: first tau in order, then first
    column in order."""
    ncols, streak = len(cols), 3
    if not ats:
        return np.empty((0, ncols), dtype=complex)
    tol, cap = ats[0].tol, ats[0].cap
    ells = tuple(sorted({2 * n - 1 for n, _ in cols}))
    tau_of = np.repeat(np.arange(len(ats)), ncols)
    ell_of = np.array([ells.index(2 * n - 1) for n, _ in cols] * len(ats), dtype=int)
    deriv = np.array([d for _, d in cols] * len(ats), dtype=bool)
    qs = [cmath.exp(TWO_PI_I * at.tau) for at in ats]
    qks = [1.0 + 0j] * len(ats)

    def terms(ks, tau_i, ell_i, deriv):
        # one row per k; q^k is the running product at every tau
        nonlocal qks
        powers = []
        for _ in ks:
            qks = [qk * q for qk, q in zip(qks, qs)]
            powers += qks
        qk = np.array(powers, dtype=complex).reshape(len(ks), len(qs))[:, tau_i[0]]
        sig = _divisor_power_sums(ells, ks[-1])[ks[0] - 1:ks[-1], ell_i[0]]
        re, im = sig * qk.real, sig * qk.imag
        d, m = np.array(ks, dtype=float)[:, None] * TWO_PI_I.imag, deriv[0]
        re[:, m], im[:, m] = -(im[:, m] * d), re[:, m] * d
        term = np.empty(re.shape, dtype=complex)
        term.real, term.imag = re, im
        size = np.hypot(re, im)  # _abs(term)
        # no rounding bound: the pass forms none
        return term, size, np.zeros_like(size)

    first = _q_sum_rows(max(map(abs, qs), default=0.0),
                        max((2 * n - 1 + d for n, d in cols), default=1), tol, streak)
    sums, _, _, _, _ = _block_series(
        np.zeros(len(tau_of), dtype=complex), np.zeros(len(tau_of)), terms,
        (tau_of, ell_of, deriv), cap,
        lambda size, s: (size <= tol * np.maximum(_abs(s), 1e-300)) | (size == 0.0),
        streak, first, lambda i: _q_sum_what(cols[i % ncols][0]))
    return sums.reshape(len(ats), ncols)


@lru_cache(maxsize=None)
def _eisenstein_consts(n: int) -> Tuple[complex, complex, float, float]:
    """const and pref of E_{2n}, |pref|, and the first-order relative
    rounding of const and pref: math.pi carries 2n half-ulps into
    (2 pi i)^{2n}, the binary powering and the B_{2n} and factorial
    divisions a few more, and pref * s one."""
    pref = 2 * TWO_PI_I ** (2 * n) / math.factorial(2 * n - 1)
    const = -(TWO_PI_I ** (2 * n)) * float(bernoulli_number(2 * n)) / math.factorial(2 * n)
    return const, pref, abs(pref), 2.0**-53 * (2 * n + 2 * (2 * n).bit_length() + 4)


def _checked_n(n: int) -> int:
    """n, checked to be >= 1, as every Eisenstein call does before its tau,
    and `zeta_odd`."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n


def eisenstein(n: int, tau: TauPoint, policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """Eisenstein series E_{2n}(tau) = 2 zeta(2n) + (2 (2 pi i)^{2n} / (2n-1)!)
    sum_k sigma_{2n-1}(k) q^k, with 2 zeta(2n) = -(2 pi i)^{2n} B_{2n} / (2n)!."""
    return _eisenstein(_checked_n(n), _checked(tau, policy))


def _eisenstein(n: int, at: _Checked) -> ComplexVal:
    """E_{2n} at `at`'s tau, from the memoised q-sum."""
    s, tail = _eisenstein_q_sum(n, at, False)
    const, pref, abs_pref, rel = _eisenstein_consts(n)
    value = const + pref * s
    # the tail, the rounding of const and pref * s, and of the final sum
    return ComplexVal(value, abs_pref * tail + rel * (abs(const) + abs_pref * abs(s))
                      + 2.0**-53 * abs(value))


def eisenstein_normalized(n: int, tau: TauPoint, policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """G_{2n}(tau) = -B_{2n}/(4n) + sum_k sigma_{2n-1}(k) q^k."""
    return _eisenstein_normalized(_checked_n(n), _checked(tau, policy))


def _eisenstein_normalized(n: int, at: _Checked) -> ComplexVal:
    """G_{2n} at `at`'s tau, from the memoised q-sum."""
    s, tail = _eisenstein_q_sum(n, at, False)
    const = -float(bernoulli_number(2 * n)) / (4 * n)
    value = const + s
    # first-order rounding of float(B_{2n}), the division and the final sum
    return ComplexVal(value, tail + 2.0**-53 * (2 * abs(const) + abs(value)))


def eisenstein_tau_derivative(n: int, tau: TauPoint, policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """dE_{2n}/dtau by termwise differentiation of the q-expansion."""
    return _eisenstein_tau_derivative(_checked_n(n), _checked(tau, policy))


def _eisenstein_tau_derivative(n: int, at: _Checked) -> ComplexVal:
    """dE_{2n}/dtau at `at`'s tau, from the memoised q-sum with the 2 pi i k
    factor."""
    s, tail = _eisenstein_q_sum(n, at, True)
    _, pref, abs_pref, _ = _eisenstein_consts(n)
    return ComplexVal(pref * s, abs_pref * tail)


EisensteinTable = Tuple[ComplexVal, Tuple[ComplexVal, ...], ComplexVal]


def _eisenstein_table(n: int, at: _Checked) -> EisensteinTable:
    """The Eisenstein values that R^-_{2n} is built from at `at`'s tau:
    E_{2n+2}, the products E_{2j} E_{2n+2-2j} for j = 1..n, and
    dE_{2n}/dtau, from the cached q-sums."""
    e = [_eisenstein(j, at) for j in range(1, n + 2)]
    return (e[n], tuple(e[j - 1] * e[n - j] for j in range(1, n + 1)),
            _eisenstein_tau_derivative(n, at))


def _eisenstein_tables(n: int, ats: Sequence[_Checked]) -> Tuple[np.ndarray, ...]:
    """The values of `_eisenstein_table(n, at)` for every record of `ats`,
    bit for bit and without their errs: E_{2n+2} and dE_{2n}/dtau per tau,
    and the products as a (tau x j) array.  Their q-sums come from one
    `_eisenstein_q_sums` pass, which neither reads nor fills the q-sum cache,
    and every complex product is rounded by `_cmul` as Python rounds it."""
    sums = _eisenstein_q_sums(ats, [(j, False) for j in range(1, n + 2)] + [(n, True)])
    consts = [_eisenstein_consts(j) for j in range(1, n + 2)]
    # E_2, ..., E_{2n+2}, as `_eisenstein` forms them
    e = (np.array([const for const, _, _, _ in consts])
         + _cmul(np.array([pref for _, pref, _, _ in consts]), sums[:, :-1]))
    return e[:, n], _cmul(e[:, :n], e[:, n - 1::-1]), _cmul(consts[n - 1][1], sums[:, -1])


# ---------------------------------------------------------------------------
# Batched series over arrays of points
# ---------------------------------------------------------------------------

_LATTICE_EPS = 1e-12


def _near_integer(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """rint(v), and where v lies within _LATTICE_EPS of it: the one test of
    the lattice check and of the snap of y."""
    n = np.rint(v)
    return n, np.abs(v - n) <= _LATTICE_EPS


def _lattice_check(x: np.ndarray, y: np.ndarray, message) -> None:
    """The one check of the points x - y tau of a kernel call, before any
    series runs: ValueError unless x and y are 1-D arrays of one shape and
    finite, and LatticePointError, with `message(i)` for the first
    offending i, where both x and y are near an integer."""
    if x.shape != y.shape:
        raise ValueError(f"x and y must have the same shape, got {x.shape} and {y.shape}")
    if x.ndim != 1:
        raise ValueError(f"points must be a 1-D array, got shape {x.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("points must be finite")
    hit = _near_integer(x)[1] & _near_integer(y)[1]
    if hit.any():
        raise LatticePointError(message(int(np.argmax(hit))))


def _points_rows(aq: float, ell: int, reach: float, tol: float) -> int:
    """The terms a kernel series with |q| = aq runs before its stopping rule
    fires at every point of a batch: the first j >= 2 at which the model
    size (j + 1)^ell (aq^(j - reach) + aq^j) of its jth term pair is at most
    tol; at most BLOCK_ELEMENTS.  ell is the largest power of j in a term
    and reach the largest shift of its exponent, |y| in aq^(j -+ y), so
    that the two terms of a pair are at most the model and the rule, size
    at most tol max(|sum|, 1), has fired by then (up to the denominators
    1 - aq^(j - reach), near 1 where the model nears tol).  The first j is
    found from that of ell = 0 upwards, which is no later."""
    if aq == 0.0:
        return 2
    log_q = math.log(aq)
    if not log_q < 0.0:
        return BLOCK_ELEMENTS
    log_tol = math.log(tol) - math.log1p(aq**reach)
    j0 = reach + log_tol / log_q
    if j0 >= BLOCK_ELEMENTS:
        return BLOCK_ELEMENTS
    j = max(2, math.floor(j0))
    while ell * math.log(j + 1) + (j - reach) * log_q > log_tol and j < BLOCK_ELEMENTS:
        j += 1
    return j


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


@lru_cache(maxsize=None)
def _bernoulli_poly_abs_sum(m: int) -> float:
    """sum_j |C(m, j) B_j|, which bounds |B_m(y)| on [0, 1)."""
    return sum(map(abs, _bernoulli_poly_float_coeffs(m)))


def _bernoulli_poly_float(m: int, y):
    acc = 0.0
    for c in _bernoulli_poly_float_coeffs(m):
        acc = acc * y + c
    return acc


def elliptic_bernoulli_points(m, x, y, tau: TauPoint,
                              policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexArray:
    """`elliptic_bernoulli` at every point (x[i], y[i]) of two equal-length
    arrays, in one batched run of its series.

    `m` is one order for every point, or an integer array of orders aligned
    with x and y; all the orders then run in the same pass, each point's
    value and err equal to a one-order call's bit for bit."""
    return _bernoulli_points(m, x, y, _checked(tau, policy))


def _bernoulli_points(m, x, y, at: _Checked) -> ComplexArray:
    """`elliptic_bernoulli_points` at `at`'s tau.  A y within _LATTICE_EPS
    of an integer is snapped to it, as `_frame` snaps it, and the shift
    counts as an error of y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = np.asarray(m)
    if m.dtype.kind not in "iu" or (m.ndim and m.shape != x.shape):
        raise ValueError("m must be an int or an integer array aligned with x and y")
    m = np.full(x.shape, m, dtype=np.intp)
    if np.any(m < 0):
        raise ValueError("m must be >= 0")
    _lattice_check(x, y, lambda i: (f"B_{m[i]}({float(x[i])}, {float(y[i])}; tau): "
                                    "x - y*tau is a lattice point"))
    # B_0 = 1 with err 0: only the points of order >= 1 run, sorted by order
    out = ComplexArray(np.ones(len(x), dtype=complex), np.zeros(len(x)))
    run = np.flatnonzero(m > 0)
    if run.size:
        run = run[np.argsort(m[run], kind="stable")]
        y = y[run]
        snapped = _snap(y)
        b = _bernoulli_series(m[run], x[run], snapped, at, (0.0, np.abs(y - snapped), 0.0),
                              rank=run)
        out.value[run], out.err[run] = b.value, b.err
    return out


#: 2 pi in units of 2^-53: turns an absolute error of an exponential's
#: argument, over 2 pi i, into its relative error in ulps
_TWO_PI_ULPS = 2.0 * math.pi * 2.0**53


def _bernoulli_series(m: np.ndarray, x: np.ndarray, y: np.ndarray, at: _Checked,
                      arg_err, rank: Optional[np.ndarray] = None) -> ComplexArray:
    """B_m(x, y; tau), m >= 1, by the series of `elliptic_bernoulli` at
    `at`'s tau, at points that passed the lattice check, with y snapped by
    the caller (`_snap`): each y is an integer or beyond _LATTICE_EPS of
    one.

    `m` is an ascending integer array with an order per point; all the
    orders run in one pass, each on a slice of the columns
    (`_order_groups`).  Every step that depends on the order, the power
    (y -+ j)^(m-1) of a term, the closing term, the tail, the Bernoulli
    polynomial and the rounding bound, runs once per order with m a Python
    int, so each point's result does not depend on the other orders.  The
    powers are IEEE products (`_ipow`), at most m - 2 of them, which the
    m ulps charged to a term's power cover.  `rank` is as in
    `_block_series`.

    `arg_err` = (dx, dy, dtau) bounds the absolute errors of x, y and tau,
    dy an array with one entry per point, which carries the caller's snap
    shift, and zeros where they are exact, which leave every bit of the
    result as it is.  The errors add 2 pi dx to the argument of e(+-x),
    2 pi (dy |tau| + (j + 1) dtau) to that of w = e((j -+ y) tau) and
    2 pi (dx + dy |tau| + y dtau) to that of the closing term's
    exponential.  dy also moves the powers (y -+ j)^(m-1), by (m - 1) dy /
    (j -+ y) relative, the closing term's y^(m-1), by (m - 1)
    y^(m-2) dy times the rest, and B_m(y), by m |B_{m-1}(y)| dy."""
    t = at.tau
    # into [0, 1); x is off-integer where y is 0 (lattice check)
    y = y - np.floor(y)
    dx, dy, dt = arg_err
    decay = abs(cmath.exp(TWO_PI_I * t))
    # Rounding of a term P w / D, D = e(+-x) - w: the exponentials carry the
    # relative errors of their arguments (see _exp_err), e(+-x)'s and w's;
    # w = e(-+y tau) q^j has at most 12 pi |tau| (j + 1) + 11 ulps.  D turns
    # both into errors relative to itself, |w| and |e(+-x)| being at most 1;
    # |D| >= 1 - |q| for the second term.  The power, the product, the
    # quotient and the sum of the pair add m + 11 ulps.
    g = 12.0 * math.pi * abs(t)
    kappa = 1.0 / (1.0 - decay)
    # w's share of the argument errors rides on e(+-x)'s, tripled: the
    # rounding below charges A (err_x + err_w) + size err_w, and
    # A = |t1| / |D1| + kappa |t2| >= size / 2 as |D1| <= 2
    g += _TWO_PI_ULPS * dt
    err_x = _exp_err(TWO_PI_I * x) + _TWO_PI_ULPS * (dx + 3.0 * dy * abs(t))
    err_v = _TWO_PI_ULPS * (dx + dy * abs(t) + y * dt)
    # dy in ulps, for the powers; only where some y moved
    dy_ulps = 2.0**53 * dy
    moved = bool(dy_ulps.any())

    def terms(js, y, emy, epy, emx, epx, err_x, mc, dy_ulps):
        # one row per j;  e(-y tau) q^j = e((j - y) tau),  e(y tau) q^j = e((j + y) tau)
        qj = np.array([cmath.exp(TWO_PI_I * j * t) for j in js])[:, None]
        j = np.array(js, dtype=float)[:, None]
        w1, w2 = emy * qj, epy * qj
        d1 = emx - w1
        t1, t2 = w1 / d1, -(w2 / (epx - w2))
        groups = _order_groups(mc[0])
        for k, on in groups:
            if k > 1:
                t1[:, on] = _ipow(y[:, on] - j, k - 1) * t1[:, on]
                t2[:, on] = _ipow(y[:, on] + j, k - 1) * t2[:, on]
        a1, a2 = np.abs(t1), np.abs(t2)
        size = a1 + a2
        err_w = g * (j + 1) + 11.0
        rnd = (a1 / np.abs(d1) + kappa * a2) * (err_x + err_w)
        for k, on in groups:
            rnd[:, on] += size[:, on] * (k + 11.0 + err_w)
            if k > 1 and moved:
                # dy moving (y -+ j)^(k-1) by (k - 1) dy / (j -+ y) relative
                rnd[:, on] += (k - 1) * dy_ulps[:, on] * (a1[:, on] / (j - y[:, on])
                                                          + a2[:, on] / (j + y[:, on]))
        return t1 + t2, size, rnd

    emx = np.exp(-TWO_PI_I * x)
    # a term pair is at most (j + 1)^(m-1) (|q|^(j-y) + |q|^(j+y)), 0 <= y < 1
    first = _points_rows(decay, int(m[-1]) - 1 if m.size else 0, 1.0, at.tol)
    # a point stops after its jth term pair, j >= 2, once the pair's size
    # |term 1| + |term 2| is at most tol max(|sum|, 1)
    s, c, j, last, rnd = _block_series(
        np.zeros(len(x), dtype=complex), np.zeros(len(x)), terms,
        (y, np.exp(-TWO_PI_I * y * t), np.exp(TWO_PI_I * y * t), emx, emx.conj(),
         err_x, m, dy_ulps),
        at.cap, lambda size, sums: size <= at.tol * np.maximum(np.abs(sums), 1.0), 1, first,
        lambda i: "elliptic Bernoulli series", rank)

    def finish(m, x, y, s, c, j, last, rnd, err_v, dy):
        arg = TWO_PI_I * (-x + y * t)
        v = np.exp(arg)
        closing = _ipow(y, m - 1) * v / (v - 1)
        acc, _ = _kahan_add(s, c, closing)
        r = decay * _ipow((j + 1 + y) / np.maximum(j - y, 0.5), m - 1) if m > 1 else decay
        r = np.minimum(r, 0.99)
        tail = m * (2.0 * last * r / (1.0 - r) + 1e-16 * np.abs(acc) * j)
        value = m * acc + _bernoulli_poly_float(m, y)
        # first-order rounding: the terms, the closing term (as above, with
        # v - 1 for the denominator), the Kahan sum, m * acc, the Bernoulli
        # polynomial's Horner steps (at most sum_j |C(m, j) B_j| on [0, 1))
        # and the final sum
        err_v = _exp_err(arg) + err_v
        ratio = np.abs(v) / np.abs(v - 1)
        rnd = rnd + np.abs(closing) * (m + 10.0 + err_v * (1.0 + ratio))
        if m > 1:
            # dy moving the closing term's y^(m-1)
            rnd = rnd + (m - 1) * _ipow(y, m - 2) * ratio * (2.0**53 * dy)
        rnd = (m * (rnd + 3.0 * np.abs(acc))
               + 2.0 * (m + 1) * _bernoulli_poly_abs_sum(m)
               + np.abs(value))
        # dy moving B_m(y), whose slope m B_{m-1}(y) is at most
        # m sum_j |C(m-1, j) B_j| on [0, 1)
        slope = m * _bernoulli_poly_abs_sum(m - 1)
        return value, tail + 2.0**-53 * rnd + dy * slope

    cols = (x, y, s, c, j, last, rnd, err_v, dy)
    value, err = np.empty(len(x), dtype=complex), np.empty(len(x))
    for k, on in _order_groups(m):
        value[on], err[on] = finish(k, *(a[on] for a in cols))
    return ComplexArray(value, err)


def _order_groups(m: np.ndarray) -> List[Tuple[int, slice]]:
    """(k, the slice of the columns of order k) for each order k, as a
    Python int, of the ascending order row m; a slice selects without
    copying, so one order costs no masking."""
    if not m.size:
        return []
    if m[0] == m[-1]:
        # one order, as in zeta's B_1: no cuts to look for
        return [(int(m[0]), slice(None))]
    cuts = [0, *(np.flatnonzero(m[1:] != m[:-1]) + 1).tolist(), len(m)]
    return [(int(m[lo]), slice(lo, hi)) for lo, hi in zip(cuts, cuts[1:])]


def elliptic_bernoulli(m: int, x: float, y: float, tau: TauPoint,
                       policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """Elliptic Bernoulli function B_m(x, y; tau) (Kronecker's double series).

    B_m(x,y;tau) = m [ sum_{j>=1} (y-j)^{m-1} e(-y tau) q^j / (e(-x) - e(-y tau) q^j)
                     - sum_{j>=1} (y+j)^{m-1} e(y tau) q^j / (e(x) - e(y tau) q^j)
                     + y^{m-1} e(-x+y tau) / (e(-x+y tau) - 1) ] + B_m(y),

    with y reduced into [0, 1) first and B_m(y) the Bernoulli polynomial of
    the reduced y.  m = 0 returns 1 (the generating-series residue), which the
    Machide sums need, once tau and the point have passed their checks.
    """
    return elliptic_bernoulli_points(m, [x], [y], tau, policy)[0]


# ---------------------------------------------------------------------------
# Reduction of tau to the fundamental domain
# ---------------------------------------------------------------------------

class _Reduction(NamedTuple):
    """tau' = gamma tau = (a tau + b) / (c tau + d) for gamma = (a b; c d) in
    SL_2(Z), with tau' in the fundamental domain F up to rounding.

    The lattice of tau is m times that of tau', m = c tau + d, so a point
    z = x - y tau is m z' with z' = x' - y' tau', (x', y') = (a x + b y,
    c x + d y), and pe^(k)(z; tau) = m^-(k+2) pe^(k)(z'; tau'),
    zeta(z; tau) = m^-1 zeta(z'; tau') by homogeneity (Cohen, A Course in
    Computational Algebraic Number Theory, 7.4).  `m` is as computed,
    `m_err` bounds its relative error in units of 2^-53 and `dtau` bounds
    |tau' - gamma tau| for the computed tau'."""

    tau: complex
    a: int
    b: int
    c: int
    d: int
    m: complex
    m_err: float
    dtau: float

    def weight(self, w: int) -> ComplexVal:
        """m^-w, with w times m's relative error and the rounding of the
        binary powering (at most 2 bit_length(w) complex products, each
        within sqrt(5) ulps) and of the final quotient (within 6)."""
        v = self.m ** -w
        return ComplexVal(v, abs(v) * 2.0**-53 * (w * self.m_err + 6.0 * w.bit_length() + 6.0))

    def e2_shift(self) -> ComplexVal:
        """2 pi i c / m, the quasi-modular term of E_2(tau) = m^-2 E_2(tau')
        + 2 pi i c / m (Zagier, Elliptic modular forms and their
        applications, 2.3), with m's relative error and a few ulps for pi,
        the product and the quotient."""
        v = TWO_PI_I * self.c / self.m
        return ComplexVal(v, abs(v) * 2.0**-53 * (self.m_err + 8.0))


def _reduction(t: complex) -> Optional[_Reduction]:
    """The reduction of tau = t into F = {|Re tau| <= 1/2, |tau| >= 1}, by
    Cohen's Algorithm 7.4.2 (shift Re tau into [-1/2, 1/2], invert while
    |tau| < 1); None on the closed F, where the kernels run at tau itself.
    tau' is computed from gamma and t in one step."""
    if abs(t.real) <= 0.5 and abs(t) >= 1.0:
        return None
    a, b, c, d = 1, 0, 0, 1
    s = t
    while True:
        n = math.floor(s.real + 0.5)
        s, a, b = s - n, a - n * c, b - n * d
        if abs(s) >= 1.0:
            break
        s, a, b, c, d = -1.0 / s, -c, -d, a, b
    num, m = a * t + b, c * t + d
    # a t + b rounds a Re t, a Im t and the real sum once each: within
    # 2^-53 (|a Re t| + |a Im t| + |Re(a t + b)|); likewise c t + d.  The
    # quotient adds 6 ulps.
    num_err = (abs(a) * (abs(t.real) + abs(t.imag)) + abs(num.real)) / abs(num)
    m_err = (abs(c) * (abs(t.real) + abs(t.imag)) + abs(m.real)) / abs(m)
    tp = num / m
    return _Reduction(tp, a, b, c, d, m, m_err,
                      abs(tp) * 2.0**-53 * (num_err + m_err + 6.0))


class _Frame(NamedTuple):
    """Points x - y tau where a kernel evaluates them: at the caller's tau,
    or at the reduced tau' with the reduction `red`, in the record `at`;
    `arg_err` = (dx, dy, dtau) bounds the absolute errors of x, y and tau
    there, at the caller's tau only the shift of a snapped y."""

    x: np.ndarray
    y: np.ndarray
    at: _Checked
    arg_err: tuple
    red: Optional[_Reduction]

    def z(self) -> ComplexArray:
        """x - y tau, with the argument errors and the rounding of the
        product and the difference (2^-53 |y| |tau| and 2^-53 |x - y tau|)."""
        dx, dy, dt = self.arg_err
        t = self.at.tau
        return ComplexArray(self.x - self.y * t,
                            dx + dy * abs(t) + np.abs(self.y) * dt
                            + 2.0**-52 * (np.abs(self.x) + np.abs(self.y) * abs(t)))


def _frame(x: np.ndarray, y: np.ndarray, at: _Checked) -> _Frame:
    """The points x - y tau in the frame of the reduction of `at`'s tau.
    tau' keeps the caller's tol and cap: Im tau' >= Im tau, so it passes
    wherever tau passed.

    x and y come from `_decompose`, within 2^-53 (|x| + 2 |y Re tau|) and
    2^-53 |y|; gamma carries those errors into x' and y', and the integer
    products and the sums add 2^-53 (|a x| + |b y| + |x'|) to x' and the
    same in c, d to y'.  A y within _LATTICE_EPS of an integer is snapped
    to it first (`_snap`, as `_bernoulli_points` snaps B_m's y), and so is
    y' at tau', as the series take y snapped; both shifts count as errors
    of y and y', and so does the snap on F, where the rest of x and y is
    taken as exact."""
    red = _reduction(at.tau)
    snapped = _snap(y)
    if red is None:
        return _Frame(x, snapped, at, (0.0, np.abs(y - snapped), 0.0), None)
    ex = 2.0**-52 * (np.abs(x) + np.abs(y * at.tau.real))
    ey = 2.0**-52 * np.abs(y) + np.abs(y - snapped)
    y = snapped
    a, b, c, d = red.a, red.b, red.c, red.d
    xr, yr = a * x + b * y, c * x + d * y
    dx = abs(a) * ex + abs(b) * ey + 2.0**-53 * np.abs(xr)
    dy = abs(c) * ex + abs(d) * ey + 2.0**-53 * np.abs(yr)
    snapped = _snap(yr)
    return _Frame(xr, snapped, _Checked(red.tau, at.tol, at.cap),
                  (dx, dy + np.abs(yr - snapped), red.dtau), red)


def _snap(y: np.ndarray) -> np.ndarray:
    """y, with each y within _LATTICE_EPS of an integer set to it."""
    n, near = _near_integer(y)
    return np.where(near, n, y)


def _e2(at: _Checked, dtau: float) -> ComplexVal:
    """E_2 at a frame's tau, from the memoised q-sum, its err widened for an
    error dtau of tau by
    |dE_2/dtau| = 16 pi^3 |sum_n n sigma_1(n) q^n| <= 16 pi^3 sum_n n^3 |q|^n."""
    e2 = _eisenstein(1, at)
    r = abs(cmath.exp(TWO_PI_I * at.tau))
    slope = 16.0 * math.pi**3 * r * (1.0 + 4.0 * r + r * r) / (1.0 - r) ** 4
    return ComplexVal(e2.value, e2.err + slope * dtau)


# ---------------------------------------------------------------------------
# Weierstrass functions
# ---------------------------------------------------------------------------


def _decompose(z, t: complex):
    """Write z = x - y*t with real x, y."""
    y = -z.imag / t.imag
    x = z.real + y * t.real
    return x, y


def _b_series(x: np.ndarray, y: np.ndarray, at: _Checked, arg_err) -> ComplexArray:
    """b = zeta - E_2 z at z = x - y tau, from one B_1 batch and no E_2:
    b(x - y tau) = -2 pi i (B_1(x0, y0; tau) - y) for (x0, y0) = (x, y)
    mod 1, as B_1(x0, y0) = -(b(x0 - y0 tau)) / (2 pi i) + y0, b(z + 1) =
    b(z) and b(z + tau) = b(z) - 2 pi i.  `arg_err` as in `_Frame`: B_1
    carries it; an error dy of y moves -y as it moves B_1(y) = y - 1/2,
    whose share of B_1's err already counts it."""
    b1 = _bernoulli_series(np.ones(len(x), dtype=np.intp), x - np.floor(x), y, at, arg_err)
    return (b1 - y) * -TWO_PI_I


def _in_frame(series, z, at: _Checked, pole: str):
    """`series(x, y, at, arg_err)` at the points z in the frame of the
    reduction of `at`'s tau, after their lattice check; and the frame."""
    z = np.asarray(z, dtype=complex)
    x, y = _decompose(z, at.tau)
    _lattice_check(x, y, lambda i: f"{pole} pole: z = {complex(z[i])} is on the lattice")
    f = _frame(x, y, at)
    return series(f.x, f.y, f.at, f.arg_err), f


def weierstrass_zeta_points(z, tau: TauPoint,
                            policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexArray:
    """`weierstrass_zeta` at every point of the array z, as b + E_2 z from
    one batched B_1 series (`_b_series`) and one E_2, at tau reduced to F."""
    b, f = _in_frame(_b_series, z, _checked(tau, policy), "zeta")
    zeta = b + f.z() * _e2(f.at, f.arg_err[2])
    return zeta if f.red is None else zeta * f.red.weight(1)


def weierstrass_zeta(z: complex, tau: TauPoint,
                     policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """Weierstrass zeta(z; tau).

    Outside F, evaluates m^-1 zeta(z'; tau') at tau reduced to F (see
    `_Reduction`).  Decomposes z = x - y*tau, reduces (x, y) into [0,1)^2
    where the elliptic Bernoulli series converges, and inverts

        B_1(x, y; tau) = -(1/2 pi i)[zeta(x - y tau) - E_2 (x - y tau)] + y

    for b = zeta - E_2 z, whose quasi-periods b(z+1) = b(z) and b(z+tau) =
    b(z) - 2 pi i restore the shift; zeta is b + E_2 z.
    """
    return weierstrass_zeta_points([complex(z)], tau, policy)[0]


def _zeta_block(z, at: _Checked) -> ComplexArray:
    """b(z) = zeta(z) - E_2 z at the points z, with no E_2 at all: b from
    B_1 (`_b_series`) on F, else, by the rules of `_Reduction` and
    `_Reduction.e2_shift`, m^-1 b'(z') - 2 pi i c z' with b' = zeta - E_2 z
    at tau'."""
    b, f = _in_frame(_b_series, z, at, "zeta")
    if f.red is None:
        return b
    c = f.red.c
    return (b * f.red.weight(1)
            + f.z() * ComplexVal(-TWO_PI_I * c, 2.0**-52 * abs(TWO_PI_I * c)))


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
    return num / _ipow(den, k + 2), num_abs / _ipow(np.abs(den), k + 3)


def _p_deriv_series(k: int, x: np.ndarray, y: np.ndarray, at: _Checked, arg_err) -> ComplexArray:
    """pe^(k)(x - y tau; tau) by the Fourier series of `weierstrass_p_deriv`
    at `at`'s tau.  `arg_err` as in `_Frame`: the errors of x, y and tau add
    2 pi (dx + dy |tau| + |y0| dtau) to the argument of u and 2 pi dtau to
    that of q, which E_2 also carries."""
    t = at.tau
    # y0 is +0 or beyond _LATTICE_EPS: `_frame` has snapped y
    y0 = y - np.rint(y)
    # pe^{(k)}(-z) = (-1)^k pe^{(k)}(z)
    neg = y0 < 0
    sign = np.where(neg, (-1.0) ** k, 1.0)
    x = np.where(neg, -x, x)
    y0 = np.where(neg, -y0, y0)
    x0 = x - np.floor(x)
    arg = TWO_PI_I * (x0 - y0 * t)
    u = np.exp(arg)
    q = cmath.exp(TWO_PI_I * t)
    aq = abs(q)
    par = (-1.0) ** k
    qj = 1.0 + 0j
    # Rounding, in ulps of S (see _phi): the Horner steps, the power and the
    # quotient, plus the relative error of the argument, which is u's (as
    # exp gives it) and j times q's and one product's for q^j
    bl = (k + 2).bit_length()
    own = 10.0 * k + 44.0 + 12.0 * bl
    dx, dy, dt = arg_err
    err_u = _exp_err(arg) + _TWO_PI_ULPS * (dx + dy * abs(t) + y0 * dt)
    err_q = float(_exp_err(TWO_PI_I * t)) + 3.0 + _TWO_PI_ULPS * dt

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
        # Phi_k at u q^j and at q^j / u in one call, stacked
        rows = len(js)
        tt, ss = _phi(k, np.concatenate((u * qjs, qjs / u)), pk, pk1)
        t1, t2, s1, s2 = tt[:rows], tt[rows:], ss[:rows], ss[rows:]
        size = np.abs(t1) + np.abs(t2)
        return t1 + par * t2, size, (s1 + s2) * (err_u + (own + 6.0 + j * err_q)) + size

    start, s0 = _phi(k, u, pk, pk1)
    # Phi_k(w) = w + O(w^2): a term pair is about |q|^(j-y0) + |q|^(j+y0),
    # 0 <= y0 <= 1/2, whatever k
    first = _points_rows(aq, 0, 0.5, at.tol)
    # the B_m kernel's stopping rule, on the pairs Phi_k(u q^j), Phi_k(q^j / u)
    acc, _, j, last, rnd = _block_series(
        start, s0 * (err_u + own), terms, (u, err_u), at.cap,
        lambda size, sums: size <= at.tol * np.maximum(np.abs(sums), 1.0), 1, first,
        lambda i: "pe Fourier series")
    pref = TWO_PI_I ** (k + 2)
    r = min(aq * 2.0, 0.99)
    tail = abs(pref) * (2.0 * last * r / (1.0 - r) + 1e-16 * np.abs(acc) * j)
    value = sign * pref * acc
    # pref carries k + 2 half-ulps of pi and its binary powering; the
    # product and the Kahan sum add a few more
    rnd = abs(pref) * (rnd + 2.0 * np.abs(acc)) + (k + 2 * bl + 6.0) * np.abs(value)
    val = ComplexArray(value, tail + 2.0**-53 * rnd)
    if k == 0:
        val = val - _e2(at, arg_err[2])
    return val


def weierstrass_p_deriv_points(k: int, z, tau: TauPoint,
                               policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexArray:
    """`weierstrass_p_deriv` at every point of the array z, in one batched
    run of its Fourier series at tau reduced to F."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return _p_deriv_points(k, z, _checked(tau, policy))


def _p_deriv_points(k: int, z, at: _Checked) -> ComplexArray:
    """`weierstrass_p_deriv_points` at `at`'s tau."""
    pe, f = _in_frame(partial(_p_deriv_series, k), z, at, "pe")
    return pe if f.red is None else pe * f.red.weight(k + 2)


def weierstrass_p_deriv(k: int, z: complex, tau: TauPoint,
                        policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """kth z-derivative of the Weierstrass pe function.

    Outside F, evaluates m^-(k+2) pe^(k)(z'; tau') at tau reduced to F (see
    `_Reduction`), by the Fourier form in u = e(z), differentiated termwise:

        pe^{(k)}(z) = -E_2 [k=0] + (2 pi i)^{k+2} [ Phi_k(u)
                      + sum_{j>=1} ( Phi_k(u q^j) + (-1)^k Phi_k(q^j / u) ) ]

    with Phi_k = (u d/du)^k [u/(1-u)^2].  z is reduced modulo the lattice so
    that 0 <= Im(z after reduction) <= Im(tau)/2, using evenness.
    """
    return weierstrass_p_deriv_points(k, [complex(z)], tau, policy)[0]


def _pe_blocks(z, n: int, at: _Checked):
    """pe at the first n points of z and pe + E_2 at the others, from one
    pe batch.  pe + E_2 never mixes E_2 of two tau: on F it is pe + E_2,
    else m^-2 (pe + E_2)(z'; tau') + 2 pi i c / m."""
    pe, f = _in_frame(partial(_p_deriv_series, 0), z, at, "pe")
    head = ComplexArray(pe.value[:n], pe.err[:n])
    rest = ComplexArray(pe.value[n:], pe.err[n:]) + _e2(f.at, f.arg_err[2])
    if f.red is None:
        return head, rest
    w = f.red.weight(2)
    return head * w, rest * w + f.red.e2_shift()


def weierstrass_zeta_deriv(j: int, z: complex, tau: TauPoint,
                           policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """zeta^{(j)}(z; tau); for j >= 1 this is -pe^{(j-1)}(z; tau)."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if j == 0:
        return weierstrass_zeta(z, tau, policy)
    return -weierstrass_p_deriv(j - 1, z, tau, policy)


def _sigma_log_blocks(z, at: _Checked, pe_only=()):
    """The heat-equation blocks of d(log sigma)/dtau at the points z.

    sigma = e^{E_2 z^2 / 2} theta_1(pi z) / (pi theta_1'(0)), the heat
    equation theta_zz = 4 pi i theta_tau of theta_1 and Ramanujan's
    2 pi i E_2' = 5 E_4 - E_2^2 give, with b = zeta(z) - E_2 z,

        2 d(log sigma)/dtau - E_2' z^2 - E_2 / (pi i) = (b^2 - pe(z)) / (2 pi i).

    Returns b, b^2 - pe(z) and pe + E_2 at the points pe_only, from one
    zeta batch over z (`_zeta_block`) and one pe batch over z and pe_only
    (`_pe_blocks`), at tau reduced to F, without E_2 at the caller's tau."""
    z = np.asarray(z, dtype=complex)
    b = _zeta_block(z, at)
    pe, pe_e2 = _pe_blocks(np.concatenate((z, np.asarray(pe_only, dtype=complex))),
                           len(z), at)
    return b, b * b - pe, pe_e2


def sigma_log_tau_derivative(z: complex, tau: TauPoint,
                             policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """d(log sigma(z; tau))/dtau at fixed z, for any z off the lattice:
    ((zeta - E_2 z)^2 - pe + 2 E_2) / (4 pi i) + E_2' z^2 / 2, by the heat
    equation (see `_sigma_log_blocks`)."""
    z = complex(z)
    at = _checked(tau, policy)
    _, heat, _ = _sigma_log_blocks([z], at)
    val = (heat[0] + _eisenstein(1, at) * 2.0) * (1.0 / (4j * math.pi))
    de2 = _eisenstein_tau_derivative(1, at)
    return val + de2 * (z * z / 2)


# ---------------------------------------------------------------------------
# Odd zeta values
# ---------------------------------------------------------------------------


def zeta_odd(n: int, tol: float = 1e-12) -> float:
    """zeta(2n+1) by direct summation plus an Euler-Maclaurin tail below tol."""
    _checked_n(n)
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
