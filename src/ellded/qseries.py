"""q-series engine: Eisenstein series, Weierstrass functions and elliptic
Bernoulli functions.

All evaluation is binary64 complex with explicit truncation-error tracking
(`ComplexVal.err` bounds the discarded series tails via geometric estimates,
plus a first-order bound on the rounding).
The scalar Eisenstein loop and the kernels' series run in a fixed ascending
order and add their terms with one compensated (Kahan) step, `_kahan_add`,
on Python scalars for the loop and elementwise on arrays for the kernels, so
repeated runs are bit-identical.

The kernels' series run on one engine, `_block_series`.  Each column of a
batch, a point of a kernel, keeps its own Kahan state and rounding bound
under the batch's one term cap and one stopping rule, a term pair not above
TOL max(|sum|, 1), which a NaN pair also meets; the batch runs whole to its
last block, and each column keeps the state of the row where it first
stopped.  The engine raises the term cap's NonConvergenceError for the
first column still running after max_terms, so no kernel has a failure
path of its own.  Only the value arithmetic sets numpy's error state, to
`np.errstate(all="ignore")`: the two series, whose rows past the stop may
overflow unseen, ComplexArray's `+` and `*`, `_weighted` and `_fsum`,
whose products or errs may leave binary64, and the frame maps
`_decompose` and `_frame`, whose products may leave it at a huge Re tau,
for the point check or `_finite` to name.  No function that calls
`_checked` sets it, as numpy's frame would then stand before the caller's
in a SlowNomeWarning.  `_finite` is the one check of an array, which
raises OverflowError where a value or err leaves binary64.
The terms are evaluated in blocks of consecutive j, as 2-D arrays over
(j, column) of at most BLOCK_ELEMENTS entries, and then added one j at a
time, each Kahan step written in place into the block's rows, so values
equal a term-by-term run's bit for bit.  The first block is sized from |q|
(`_points_rows`), so that a pass near the fundamental domain runs one
block, which it returns as it stands once every column has stopped in it.
What a pass reads of its tau alone comes from per-tau tables: the
reduction of tau (`_reduction`), q, |q| and the pe series' error of q
(`_nome`), the size of the first block (`_points_rows`) and the rows of
q^j, j and the rounding of q^j (`_bernoulli_rows`, `_pe_rows`), one
read-only table of rows 1..rows per record and rows, of which a block of
rows js reads the slice that ends the table of js.stop - 1 rows.
Each is an `lru_cache` of TAU_CACHE_SIZE entries, enough for the records
of the few tau in flight, a caller's tau and its tau', which every call
and pass at them reads; a fresh tau per call would only grow a larger
table.  The row tables are keyed on the whole record, dtau included, as
the rounding of q^j charges dtau, so that a tau' of dtau > 0 never reads
the rows of a caller's tau of the same value.

The Weierstrass and elliptic Bernoulli functions are array kernels
(`*_points`) on the engine; the scalar functions are one-point calls to them.
The two Fourier kernels, the Lambert B_m series (`_bernoulli_series`) and
the pe family (`_p_deriv_series`), each take a tuple of orders over one
point set and run them as one engine batch, whose columns are the orders'
points in turn: the orders share the points' exponentials, the q^j rows of
the record and the engine's run, and each finishes as a pass of its own
would, so each order equals its one-order call bit for bit.  A block holds
BLOCK_ELEMENTS terms per order, so a two-order pass keeps the rows of a
one-order pass.  `elliptic_bernoulli_points` also takes an order per point,
and runs one one-order pass over each order's points.
Integer powers in the series are IEEE products (`_ipow`), not numpy's pow,
so their bits do not depend on the host.
The Weierstrass and elliptic Bernoulli kernels run at tau reduced to the
fundamental domain (`_reduction`) and leave their frame one way,
`_Frame.back`, which maps their values back by weight, B_m being a lattice
sum of weight m, and checks them there by `_finite`; the Eisenstein
functions run at tau itself.  A symbol that is a modular form as a whole
reduces by its own weight through one helper, `_by_weight`: it hands the
symbol's evaluator the caller's record on the closed F, else the record of
tau', and multiplies by m^-w; the evaluator calls the series at the record
it is given directly (`_p_deriv_series`, `_bernoulli_series`,
`_eisenstein_table`), with no check, frame or weight of its own.  A
`ComplexVal` checks its value as it is built, so a sum or product that
leaves binary64 raises OverflowError there, not as NaN or Infinity.
For the public zeta, b = zeta - E_2 z comes straight from one B_1 batch
(`_b_series`), with no E_2, and zeta is b + E_2 z.  The heat identity
B_2 = B_1^2 - pe / (2 pi i)^2 at k = 0 ties pe to B_1 and B_2, so that
the shifted symbols and `sigma_log_tau_derivative` read pe through B_1
and B_2 and run no pe pass.  They read B_1 and B_2 alone, so they take them from one pass of a
second formula, not the Lambert series: three Jacobi-theta sums of 2N
Gaussian rows, N at most 4 on F and set by Im tau alone (`_theta_pass`),
with no factor above 1, so no term cap, TOL or large Im tau moves them.
The Lambert B_m series serves the public B_m and zeta, `machide_sum` and
the Bernoulli route.  The zeta route reads its bracket from the pe family's
order -1, pe^(-1) = -(zeta - E_2 z), in the pass of its pe^(2n-1), so the
two routes of the elliptic sums share no series kernel.
Every series runs under one contract: the stopping tolerance TOL and the
floor MIN_IM_TAU on Im tau are constants, and a `SeriesPolicy` sets only
max_terms, the term cap.  Each input rule has one home, and the series only
evaluate.  Each public call checks its tau once, in `_checked`, into a
`_Checked` record of plain numbers: tau, the term cap of every series at
every tau, and dtau, the error of tau, 0 for the caller's; a tau below
MIN_IM_TAU raises there, before any series runs.  The record of a reduced
tau' (`_Reduction.checked`) carries the reduction's error of tau', and
that is the one model of it: the kernels charge it in the arguments of
their exponentials, and the q-sums through the error of q (`_nome_err`),
so that E_{2n} and dE_{2n}/dtau at tau', and all that is built from them,
carry it in their err.  Points come into every point series one way, as
coordinates (x, y) of z = x - y tau with bounds (dx, dy) on their errors,
which the series count in err: straight from an evaluator of `_by_weight`,
else through `_frame`, the one place that snaps a y within _LATTICE_EPS of
an integer to it (`_snap_err`) and, off F, maps the points and their errors by
gamma.  So every point series runs on the closed F or at tau' = gamma tau.
B_m takes its points as (x, y), which pass the one point check before
its frame.  Only the Weierstrass kernels and `sigma_log_tau_derivative`
hold a complex z: one helper,
`_kernel_frame`, decomposes it, passes it through the one point check,
`_lattice_check` (one shape, 1-D, finite, off the lattice, on the same
near-integer test), and charges the decomposition's rounding, on F as off
it.  The theta passes of the shifted symbols take a frame of the
coordinates their caller already has, each with its own rounding, and
their sums leave it once, by their weight (`_Frame.back_sum`).
The Eisenstein q-sums are memoised per (n, record, tau_deriv) in a bounded
`lru_cache` over a scalar loop.  `_eisenstein_q_sums` computes the same sums
for a whole sample of tau, without the cache and without their bounds, as
one matrix product of the powers q^k and the divisor sums: a (tau x column)
array equal to the loop's sums up to rounding, for `basis_rank`, whose
output is a rank.  Both read sigma_ell(k) from one exact-integer sieve,
`_divisor_power_sums`, cached per power-of-two count: the loop as ints,
each rounded as it meets q^k, the product as a float view of the table,
which it reads through a plan per (columns, count) of its weights, cached
in at most PLAN_CACHE_SIZE entries (`_eisenstein_plan`).  Above the floor
no q-sum that stays in binary64 asks for more than 4096 terms, so every
table is cached.
The loop's stopping rule, three terms in a row at most TOL |sum|, is the
one judge of enough terms in both: the product starts from the kernels'
estimate (`_points_rows`) and doubles until its sums meet the rule.  A
q-sum whose sigma, (2n)! or B_{2n} leaves binary64 raises one
OverflowError that names it, as `_finite` names B_m and pe^(k).  The
Eisenstein table that R^-_{2n} and the identities are built from, E_{2n+2},
the products E_{2j} E_{2n+2-2j} and dE_{2n}/dtau, lives here in both its
shapes: per tau from the cached q-sums (`_eisenstein_table`, uncached
itself, as `identities` keeps one record per (n, tau) built from it), and
over a sample from one product (`_eisenstein_tables`), so that no other
module reads a q-sum.
"""

from __future__ import annotations

import cmath
import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import ClassVar, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .exact import _checked_int, bernoulli_number

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


class _ValueErr:
    """The frozen-dataclass behaviour of a slotted class with the two fields
    value and err, which a subclass declares as its slots and sets in its
    __init__ through the slots' own setters: the fields are read-only, and
    the class has a dataclass's repr, equality and hash, by (value, err),
    and pickles by them.  Slotted rather than a frozen dataclass because the
    arithmetic builds one per operation."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, (self.value, self.err)

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(value={self.value!r}, err={self.err!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.value, self.err) == (other.value, other.err)

    def __hash__(self) -> int:
        return hash((self.value, self.err))


class ComplexVal(_ValueErr):
    """A complex value with an a-posteriori error bound.

    err bounds the truncated series tails plus a first-order rounding model,
    so that subtracting two large nearly-equal values reports the expected
    loss of significance.

    Immutable, compared and hashed by (value, err), with the repr of a
    dataclass (`_ValueErr`).  A value that is not finite raises
    OverflowError where it is built; err may be inf, as a NonConvergenceError
    partial's is."""

    __slots__ = ("value", "err")

    def __init__(self, value: complex, err: float = 0.0):
        if err < 0:
            raise ValueError("err must be >= 0")
        if not cmath.isfinite(value):
            raise _out_of_range("a value")
        _SET_VALUE(self, value)
        _SET_ERR(self, err)

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


#: the Python numbers, which `_abs` and `_cmul` take as they are
_NUMBER = (int, float, complex)


def _abs(v):
    """|v| elementwise, rounded as Python's abs(complex) rounds it: both are
    the C library's hypot, so a number takes Python's abs itself."""
    if isinstance(v, _NUMBER):
        return abs(v)
    v = np.asarray(v)
    return np.hypot(v.real, v.imag)


def _cmul(a, b):
    """a * b elementwise, rounded as Python's complex product rounds it; a
    number b enters by its real and imaginary parts as Python floats."""
    a = np.asarray(a)
    if not isinstance(b, _NUMBER):
        b = np.asarray(b)
    re = a.real * b.real - a.imag * b.imag
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = a.real * b.imag + a.imag * b.real
    return out


class ComplexArray(_ValueErr):
    """`ComplexVal` elementwise over a numpy array of points.

    The arithmetic applies ComplexVal's err rules elementwise and rounds as
    Python complex arithmetic does, so each element of a result equals the
    same expression in ComplexVals, with no numpy warning where a value or
    err leaves binary64.  Operands are ComplexArrays, ComplexVals
    or plain numbers and arrays (taken as exact); keep a ComplexArray on the
    left.  Its fields are read-only, with the repr of a dataclass
    (`_ValueErr`), as every kernel and arithmetic step builds one."""

    __slots__ = ("value", "err")

    def __init__(self, value: np.ndarray, err: np.ndarray):
        _SET_ARRAY_VALUE(self, value)
        _SET_ARRAY_ERR(self, err)

    def __len__(self) -> int:
        return len(self.value)

    def __getitem__(self, i: int) -> ComplexVal:
        return ComplexVal(complex(self.value[i]), float(self.err[i]))

    @np.errstate(all="ignore")
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

    @np.errstate(all="ignore")
    def __mul__(self, other):
        if isinstance(other, (ComplexArray, ComplexVal)):
            a, b = _abs(self.value), _abs(other.value)
            return ComplexArray(
                _cmul(self.value, other.value),
                a * other.err + b * self.err + self.err * other.err + _EPS * a * b,
            )
        return ComplexArray(_cmul(self.value, other),
                            (self.err + _EPS * _abs(self.value)) * _abs(other))


_SET_ARRAY_VALUE = ComplexArray.value.__set__
_SET_ARRAY_ERR = ComplexArray.err.__set__


@np.errstate(all="ignore")
def _weighted(a: ComplexArray, w: np.ndarray) -> ComplexArray:
    """a with value and err times the weights w, powers of 2, so exactly."""
    return ComplexArray(a.value * w, a.err * w)


def _fsum(*parts: Union[ComplexArray, ComplexVal]) -> ComplexVal:
    """The sum of all the values of the parts (`_fsums`)."""
    v = np.concatenate([np.atleast_1d(t.value) for t in parts])
    err = np.concatenate([np.atleast_1d(t.err) for t in parts])
    return _fsums(ComplexArray(v, err), [len(v)])[0]


@np.errstate(all="ignore")
def _fsums(a: ComplexArray, sizes: Sequence[int]) -> List[ComplexVal]:
    """The sum of each of the consecutive segments of a of the given sizes,
    in order, by the one summation rule: the sum of the values, with the
    summed errs plus one rounding of 2^-52 |v| per term; correctly rounded
    and independent of order, so that each segment's sum equals its own
    `_fsum` bit for bit and the first segment whose sum leaves binary64
    raises.  `math.fsum` reads the values as Python floats (`tolist`),
    which it takes faster than numpy scalars, to the same sums."""
    re, im = a.value.real, a.value.imag
    mag = np.hypot(re, im)
    out = []
    for e, n in zip(accumulate(sizes), sizes):
        s = slice(e - n, e)
        out.append(ComplexVal(complex(math.fsum(re[s].tolist()), math.fsum(im[s].tolist())),
                              math.fsum(a.err[s].tolist()) + 2.0**-52 * math.fsum(mag[s].tolist())))
    return out


#: the stopping tolerance of every series: a term, or term pair, at most
#: TOL times the size of its sum ends it
TOL = 1e-12

#: the least Im tau any call accepts: |q| <= e^(-0.1 pi) < 0.74, so that
#: no q-sum that stays in binary64 needs more than 4096 terms
MIN_IM_TAU = 0.05


@dataclass(frozen=True)
class SeriesPolicy:
    """The one settable value of the series contract: max_terms, the term
    cap of every series.  The tolerance TOL and the floor MIN_IM_TAU are
    constants, which min_im_tau reads as a class attribute."""

    max_terms: int = 10**6
    min_im_tau: ClassVar[float] = MIN_IM_TAU

    def __post_init__(self):
        # a bool is an int, so True would pass as 1
        if isinstance(self.max_terms, bool) or not isinstance(self.max_terms, int):
            raise ValueError(f"max_terms must be an int, got {self.max_terms!r}")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


DEFAULT_POLICY = SeriesPolicy()


class NonConvergenceError(RuntimeError):
    """Term cap reached before the tolerance; carries the partial value."""

    def __init__(self, message: str, partial: ComplexVal):
        super().__init__(message)
        self.partial = partial


#: Im tau below which `_checked` issues a SlowNomeWarning
_SLOW_IM_TAU = 0.11


class _Checked(NamedTuple):
    """A tau checked by `_checked`, with the policy's max_terms as the term
    cap, and dtau, a bound on the absolute error of tau: all plain numbers,
    what every kernel entry, block series and Eisenstein cache takes, so
    none sees an unchecked tau, and a cache key that hashes and compares at
    C level.  A caller's tau is exact, dtau = 0; a tau' that a reduction
    computed carries its error (`_Reduction.checked`), which every series
    at it charges: the kernels in the arguments of their exponentials, the
    q-sums through the error of q (`_nome_err`)."""

    tau: complex
    cap: int
    dtau: float


def _checked(tau: TauPoint, policy: SeriesPolicy) -> _Checked:
    """tau checked under policy: ValueError below MIN_IM_TAU, and one
    SlowNomeWarning where the nome is slow, below _SLOW_IM_TAU."""
    im = tau.tau.imag
    if im < MIN_IM_TAU:
        raise ValueError(f"Im(tau) = {im} below the accepted bound {MIN_IM_TAU}")
    if im < _SLOW_IM_TAU:
        warnings.warn(f"Im(tau) = {im} gives |q| = {abs(tau.nome):.3f}; convergence is slow",
                      SlowNomeWarning, stacklevel=_outside_stacklevel())
    # tuple.__new__ skips the NamedTuple's Python-level __new__ on every public call
    return tuple.__new__(_Checked, (tau.tau, policy.max_terms, 0.0))


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

#: entries of each per-tau table (`_reduction`, `_points_rows`, `_nome`,
#: `_bernoulli_rows`, `_pe_rows`): the records of the few tau in flight, a
#: caller's tau and its tau', each read by every call and pass at them;
#: bounded, as each call may bring a fresh tau
TAU_CACHE_SIZE = 8


def _block_series(start: np.ndarray, start_rnd: np.ndarray, terms, cap: int, first: int,
                  what: str):
    """Run the kernel series `start + sum_j terms(js)` in every column of a
    batch; each column starts from `start`, whose rounding bound is
    `start_rnd`.  `start` is (orders x points), or 1-D over points: a
    kernel of several orders over one point set runs them all in one batch,
    whose columns are its orders' points in turn.

    The terms come in blocks of consecutive j.  `terms(js)` gets the
    block's j as Python ints and returns fresh 2-D arrays, which the engine
    may overwrite, with one row per j and one column per column of the
    batch, the orders one after another: the jth term pair, its size and a
    first-order bound, in units of 2^-53, on its rounding error.  A kernel
    closes over its per-column inputs as rows (1 x points) and reads its
    per-tau rows as (rows x 1) columns.  Each row must equal what a
    term-by-term run computes at that j; with 2-D operands on both sides,
    numpy rounds a broadcast complex product as it rounds an array times a
    scalar, while a 1-D array times a 1 x 1 array rounds as Python's scalar
    product does.

    The rows are added in order, one Kahan step each, written straight into
    the block's rows of sums and compensations; the rounding bounds are
    summed row by row in place.  A column stops after its jth term pair,
    j >= 2, once that pair's size is not above TOL max(|sum|, 1): the one
    stopping rule, which, written as a negation, also holds where the size
    or the sum is NaN, so that a series that has left binary64 stops there
    and its kernel raises (`_finite`).  Every column runs to the batch's
    last block and keeps the state of the row where it first stopped; on F
    nearly every batch ends in its first block.  If some columns are still
    running after `cap` terms, raises NonConvergenceError "`what` hit
    max_terms=cap" with the partial sum of the first of them in the batch.
    The first block has `first` rows, which the caller sizes from |q| to
    hold the whole series where it can, and each later one twice the rows
    of the last, within BLOCK_ELEMENTS point-terms per order and the cap,
    so every result is bit-identical to a term-by-term run's.  A first
    block in which every column stops is returned as it stands.  Returns
    per column, 1-D, the Kahan state (s, c) where it stopped, the j it
    stopped at, its last size and its summed rounding bound; an empty batch
    asks for no terms."""
    n = start.size
    s, c, rnd = start.reshape(n) + 0j, np.zeros(n, dtype=complex), start_rnd.reshape(n)
    cols = np.arange(n)
    j = 0
    rows = first
    while n:
        rows = _block_rows(rows, start.shape[-1], cap, j)
        term, size, r = terms(range(j + 1, j + rows + 1))
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
        # stop[i]: the term pair of row i is small
        stop = ~(size > TOL * np.maximum(np.abs(sums), 1.0))
        if j == 0:
            stop[0] = False
        at = stop.argmax(axis=0)
        done = stop[at, cols]
        if j == 0:
            if done.all():
                # every column stopped in the first block
                return sums[at, cols], comps[at, cols], 1 + at, size[at, cols], rnds[at, cols]
            out_s, out_c, out_j, out_last, out_rnd = out = _series_state(n)
            running = np.ones(n, dtype=bool)
        new = running & done
        at, col = at[new], cols[new]
        out_s[new], out_c[new], out_rnd[new] = sums[at, col], comps[at, col], rnds[at, col]
        out_j[new], out_last[new] = j + 1 + at, size[at, col]
        running &= ~done
        j += rows
        if not running.any():
            return out
        if j == cap:
            i = running.argmax()
            raise NonConvergenceError(f"{what} hit max_terms={cap}",
                                      ComplexVal(complex(s[i]), float("inf")))
        rows *= 2
    return _series_state(0)


def _block_rows(rows: int, width: int, cap: int, j: int = 0) -> int:
    """The rows of the `_block_series` block after term j that asks for
    `rows`, over `width` points per order: within BLOCK_ELEMENTS
    point-terms per order and the cap.  The one block-sizing rule, which a
    kernel that evaluates its first block with its start reads too
    (`_p_deriv_series`)."""
    return min(rows, max(BLOCK_ELEMENTS // max(width, 1), 1), cap - j)


def _series_state(n: int):
    """Empty arrays for the state `_block_series` returns of n columns."""
    return (np.empty(n, dtype=complex), np.empty(n, dtype=complex), np.empty(n, dtype=int),
            np.empty(n), np.empty(n))


# ---------------------------------------------------------------------------
# Eisenstein series via the divisor-sum q-expansion
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _divisor_power_sums(ell: int, count: int) -> Tuple[int, ...]:
    """(sigma_ell(1), ..., sigma_ell(count)), sigma_ell(k) = sum_{d | k} d^ell,
    as exact ints from one sieve over d, for a power-of-two count, so that a
    growing sum reuses few tables: the one source of sigma, which the
    scalar loop reads as ints and the product as `_divisor_power_floats`.
    Cached without a bound: at MIN_IM_TAU no q-sum whose sigma stays in
    binary64 asks for more than 4096 terms."""
    sigma = [0] * count
    for d in range(1, count + 1):
        power = d**ell
        for i in range(d - 1, count, d):
            sigma[i] += power
    return tuple(sigma)


#: the least int on which float() overflows: ints from 2^1024 - 2^970 on
#: round to 2^1024
_FLOAT_END = 2**1024 - 2**970


def _divisor_power_floats(ells: Tuple[int, ...], count: int) -> np.ndarray:
    """The float view of `_divisor_power_sums(ell, count)` for each ell of
    ells: float(sigma_ell(k)) for k = 1..rows (rows) and ell (columns),
    read-only, and uncached: its one caller, `_build_plan`, is read through
    the plan cache, which keeps the weights built from it.  rows = count, or
    fewer where sigma leaves binary64: the view ends before the first k at
    which sigma of the largest ell, which is the largest sigma, does.  As
    sigma_ell(k) >= k^ell, it has done so by k = 2^ceil(1024 / ell), so the
    tables are sieved up to that power of two at most."""
    top_ell = max(ells, default=1)
    size = min(count, 2 ** -(-1024 // top_ell))
    top = _divisor_power_sums(top_ell, size)
    rows = next((k for k, s in enumerate(top) if s >= _FLOAT_END), size)
    table = np.array([_divisor_power_sums(ell, size)[:rows] for ell in ells],
                     dtype=float).reshape(len(ells), rows).T
    table.flags.writeable = False
    return table


#: entries of the q-sum cache: a few tau's worth of every weight the
#: identities use; bounded because the caller may draw fresh tau
Q_SUM_CACHE_SIZE = 512

#: the terms of a q-sum's first sigma table and the product's least first
#: count: random_taus' window (Im tau 0.8 to 1.5) needs fewer at every
#: weight up to 26, so that a basis_rank sample there runs one product
_FIRST_TERMS = 32


#: 2 pi in units of 2^-53: turns an absolute error of an exponential's
#: argument, over 2 pi i, into its relative error in ulps
_TWO_PI_ULPS = 2.0 * math.pi * 2.0**53


def _nome_err(at: _Checked) -> float:
    """err_q, in units of 2^-53: the relative error of q at `at`'s tau as
    `cmath.exp` gives it plus one product's, and 2 pi dtau for the error
    dtau of tau.  A q-sum charges k err_q to q^k, and 4 more ulps to its
    kth term for the term's own products and the Kahan step; the dtau
    share, 2 pi k dtau |term_k| summed, is the first-order move of the sum
    and of its tau-derivative under that error of tau, so that E_{2n} and
    dE_{2n}/dtau at a reduced tau' carry it in their err."""
    return float(_exp_err(TWO_PI_I * at.tau)) + 2.0 + _TWO_PI_ULPS * at.dtau


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
    row below TOL relative to it.  sigma comes as exact ints from the
    `_divisor_power_sums` tables, the next one, twice as long, fetched where
    k runs past the last; int times complex rounds the int to float first,
    so each term is float(sigma) q^k, and a sigma beyond binary64 raises the
    q-sum's OverflowError at the term that meets it.  A NonConvergenceError
    is raised afresh each time, as `lru_cache` keeps only returned values;
    `_eisenstein_q_sums` forms the same sums over a sample as one matrix
    product, with the same stopping rule and no bound."""
    cap = at.cap
    q = cmath.exp(TWO_PI_I * at.tau)
    err_q = _nome_err(at)
    sigma = _divisor_power_sums(2 * n - 1, _FIRST_TERMS)
    rnd = 0.0
    acc, comp = 0j, 0j
    qk = 1.0 + 0j
    small_streak = 0
    last = 0.0
    k = 0
    try:
        while k < cap:
            k += 1
            if k > len(sigma):
                sigma = _divisor_power_sums(2 * n - 1, 2 * len(sigma))
            qk *= q
            term = sigma[k - 1] * qk
            if tau_deriv:
                term *= TWO_PI_I * k
            acc, comp = _kahan_add(acc, comp, term)
            last = abs(term)
            rnd += last * (k * err_q + 4.0)
            scale = max(abs(acc), 1e-300)
            if last <= TOL * scale or last == 0.0:
                small_streak += 1
                if small_streak >= 3:
                    break
            else:
                small_streak = 0
        else:
            raise NonConvergenceError(f"{_q_sum_what(n)} hit max_terms={cap}",
                                      ComplexVal(acc, float("inf")))
    except OverflowError:
        raise _out_of_range(_q_sum_what(n)) from None
    return acc, _q_sum_bound(n, tau_deriv, abs(q), k, last, rnd)


#: entries of the plan cache (`_eisenstein_plan`), one per column set and
#: count: basis_rank's weights 2 to 24 over random_taus' window use twelve;
#: bounded, as a plan holds count x columns complex, up to MBs at 4096
#: terms
PLAN_CACHE_SIZE = 32


def _build_plan(cols: Tuple[Tuple[int, bool], ...], count: int):
    """What `_eisenstein_q_sums` reads of the columns `cols` at `count`
    terms, all read-only: whether the sigma float view holds count terms
    (fits), the terms it holds, their weights sigma_{2n-1}(k), by 2 pi i k
    in the tau_deriv columns (k x column), and |weights| of the last three
    rows.  Read through `_eisenstein_plan`."""
    sigma = _divisor_power_floats(tuple(2 * n - 1 for n, _ in cols),
                                  1 << (count - 1).bit_length())[:count]
    k = np.arange(1, len(sigma) + 1, dtype=float)[:, None]
    weights = sigma * np.where(np.array([d for _, d in cols], dtype=bool), TWO_PI_I * k, 1.0)
    last = np.abs(weights[-3:])
    weights.flags.writeable = last.flags.writeable = False
    return len(sigma) == count, len(sigma), weights, last


#: `_build_plan` cached per (cols, count) in at most PLAN_CACHE_SIZE entries
_eisenstein_plan = lru_cache(maxsize=PLAN_CACHE_SIZE)(_build_plan)


def _eisenstein_q_sums(ats: Sequence[_Checked], cols: Sequence[Tuple[int, bool]]) -> np.ndarray:
    """The sum of `_eisenstein_q_sum(n, at, tau_deriv)` for every column
    (n, tau_deriv) of `cols` at every `at` of `ats`, records made under one
    policy and so with one term cap, without the cache and
    without their bounds: a (tau x column) complex array, equal to the
    scalar loop's sums up to rounding.

    The first `count` terms of every sum come from one matrix product: q^k
    for k = 1..count at every tau, a running product (tau x k), times
    sigma_{2n-1}(k), by 2 pi i k in the tau_deriv columns (k x column).
    `count` starts at the rows `_points_rows` gives the kernels for the
    largest |q| and the largest power of k, at least _FIRST_TERMS, within
    the cap, and doubles within the cap until every sum ends in three terms
    of at most TOL times its size, the scalar loop's stopping rule, so that
    no sum stops before the loop's would.  At count = cap, a sum still short
    raises the scalar loop's NonConvergenceError, for the first in order,
    first tau then first column, with the sum of its first cap terms as the
    partial.  sigma comes from the float view of the least power-of-two
    table that holds count terms; where that view ends before count, the
    product runs on the terms it holds, and a sum still short there raises
    the OverflowError the loop raises where sigma leaves binary64, for the
    column of the largest n, whose sigma leaves it first.  The weights of
    each (columns, count) come from a read-only plan (`_eisenstein_plan`),
    cached in at most PLAN_CACHE_SIZE entries."""
    if not ats:
        return np.empty((0, len(cols)), dtype=complex)
    cap = ats[0].cap
    qs = np.array([cmath.exp(TWO_PI_I * at.tau) for at in ats])
    ell = max((2 * n - 1 + d for n, d in cols), default=1)
    count = min(cap, max(_FIRST_TERMS, _points_rows(float(np.abs(qs).max()), ell, 0.0)))
    while True:
        fits, count, weights, last_weights = _eisenstein_plan(tuple(cols), count)
        powers = np.cumprod(np.broadcast_to(qs, (count, len(qs))), axis=0).T
        sums = powers @ weights
        # the sizes of every sum's last three terms, (tau x 3 x column)
        last = np.abs(powers[:, -3:, None]) * last_weights
        short = (last > TOL * np.maximum(np.abs(sums), 1e-300)[:, None]).any(axis=1) | (count < 3)
        if not short.any():
            return sums
        if not fits:
            raise _out_of_range(_q_sum_what(max(n for n, _ in cols)))
        if count == cap:
            i, col = np.argwhere(short)[0]
            raise NonConvergenceError(f"{_q_sum_what(cols[col][0])} hit max_terms={cap}",
                                      ComplexVal(complex(sums[i, col]), float("inf")))
        count = min(2 * count, cap)


@lru_cache(maxsize=None)
def _eisenstein_consts(n: int) -> Tuple[complex, complex, float, float]:
    """const and pref of E_{2n}, |pref|, and the first-order relative
    rounding of const and pref: math.pi carries 2n half-ulps into
    (2 pi i)^{2n}, the binary powering and the B_{2n} and factorial
    divisions a few more, and pref * s one.  OverflowError, named as the
    q-sum's, where (2n)! or B_{2n} leaves binary64 as it meets a float."""
    try:
        pref = 2 * TWO_PI_I ** (2 * n) / math.factorial(2 * n - 1)
        const = -(TWO_PI_I ** (2 * n)) * float(bernoulli_number(2 * n)) / math.factorial(2 * n)
    except OverflowError:
        raise _out_of_range(_q_sum_what(n)) from None
    return const, pref, abs(pref), 2.0**-53 * (2 * n + 2 * (2 * n).bit_length() + 4)


def _checked_n(n: int) -> int:
    """n as an int (`_checked_int`), checked to be >= 1, as every Eisenstein
    call does before its tau and any cache, and `zeta_odd`."""
    n = _checked_int(n, "n")
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
    try:
        const = -float(bernoulli_number(2 * n)) / (4 * n)
    except OverflowError:
        raise _out_of_range(_q_sum_what(n)) from None
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


@lru_cache(maxsize=None)
def _table_columns(n: int) -> Tuple[Tuple[int, bool], ...]:
    """The q-sum columns of `_eisenstein_tables(n, ...)`: the sums of E_2,
    ..., E_{2n+2}, then that of dE_{2n}/dtau."""
    return tuple((j, False) for j in range(1, n + 2)) + ((n, True),)


@lru_cache(maxsize=None)
def _table_consts(n: int) -> Tuple[np.ndarray, np.ndarray, complex]:
    """The consts and prefs of E_2, ..., E_{2n+2} (`_eisenstein_consts`) as
    read-only arrays, and the pref of dE_{2n}/dtau, for
    `_eisenstein_tables`; raises the consts' OverflowError."""
    const, pref = (np.array([_eisenstein_consts(j)[i] for j in range(1, n + 2)]) for i in (0, 1))
    const.flags.writeable = pref.flags.writeable = False
    return const, pref, _eisenstein_consts(n)[1]


def _eisenstein_tables(n: int, ats: Sequence[_Checked]) -> Tuple[np.ndarray, ...]:
    """The values of `_eisenstein_table(n, at)` for every record of `ats`,
    up to rounding and without their errs: E_{2n+2} and dE_{2n}/dtau per
    tau, and the products as a (tau x j) array.  Their q-sums come from one
    `_eisenstein_q_sums` product, which neither reads nor fills the q-sum
    cache, over the columns of n (`_table_columns`); the constants of n
    (`_table_consts`) are read after it, so that a q-sum's OverflowError
    comes before a constant's.  Both are cached per n without a bound, as
    `_eisenstein_consts` is: a column tuple holds n + 2 pairs, and the
    constants exist up to n = 84 only, as (2n+1)! leaves binary64 past
    it."""
    sums = _eisenstein_q_sums(ats, _table_columns(n))
    const, pref, de_pref = _table_consts(n)
    # E_2, ..., E_{2n+2}, as `_eisenstein` forms them
    e = const + pref * sums[:, :-1]
    return e[:, n], e[:, :n] * e[:, n - 1::-1], de_pref * sums[:, -1]


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


@lru_cache(maxsize=TAU_CACHE_SIZE)
def _points_rows(aq: float, ell: int, reach: float) -> int:
    """The terms a kernel series with |q| = aq runs before its stopping rule
    fires at every point of a batch: the first j >= 2 at which the model
    size (j + 1)^ell (aq^(j - reach) + aq^j) of its jth term pair is at most
    TOL; at most BLOCK_ELEMENTS.  ell is the largest power of j in a term
    and reach the largest shift of its exponent, |y| in aq^(j -+ y), so
    that the two terms of a pair are at most the model and the rule, size
    at most TOL max(|sum|, 1), has fired by then (up to the denominators
    1 - aq^(j - reach), near 1 where the model nears TOL).  The first j is
    found from that of ell = 0 upwards, which is no later.  With reach 0 it
    also sizes the first product of `_eisenstein_q_sums`, whose kth term
    sigma_ell(k) k^d q^k is about k^(ell + d) aq^k; an estimate that falls
    short costs one more, doubled, product, not a value."""
    if aq == 0.0:
        return 2
    log_q = math.log(aq)
    log_tol = math.log(TOL) - math.log1p(aq**reach)
    j0 = reach + log_tol / log_q
    if j0 >= BLOCK_ELEMENTS:
        return BLOCK_ELEMENTS
    j = max(2, math.floor(j0))
    while ell * math.log(j + 1) + (j - reach) * log_q > log_tol and j < BLOCK_ELEMENTS:
        j += 1
    return j


def _finite(v: ComplexArray, what: str) -> ComplexArray:
    """A kernel's result v, or OverflowError naming `what` if some value or
    err is not finite."""
    if np.isfinite(v.value).all() and np.isfinite(v.err).all():
        return v
    raise _out_of_range(what)


def _out_of_range(what: str) -> OverflowError:
    """The OverflowError of a series `what` whose value leaves binary64."""
    return OverflowError(f"{what} leaves the floating-point range")


def _exp_err(a) -> np.ndarray:
    """First-order relative error, in units of 2^-53, of exp(a) for an
    argument `a` built from a few rounded products of 2 pi i: each rounding
    of `a` becomes a relative error of the result."""
    return 6.0 * np.abs(a) + 4.0


# ---------------------------------------------------------------------------
# Per-tau tables of the point series
# ---------------------------------------------------------------------------


@lru_cache(maxsize=TAU_CACHE_SIZE)
def _nome(at: _Checked) -> Tuple[complex, float, float]:
    """q = e(tau) at `at`'s tau, as `cmath.exp` gives it, |q|, and err_q,
    in units of 2^-53, the relative error that each factor q of a running
    product q^j adds in the pe series: q's own (`_exp_err`), one product's
    and 2 pi dtau.  Kept per record, dtau included."""
    t = at.tau
    q = cmath.exp(TWO_PI_I * t)
    return q, abs(q), float(_exp_err(TWO_PI_I * t)) + 3.0 + _TWO_PI_ULPS * at.dtau


def _read_only(arrays: tuple) -> tuple:
    """The arrays of a shared table, marked read-only."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=TAU_CACHE_SIZE)
def _bernoulli_rows(at: _Checked, rows: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The part of the rows j = 1..rows of a B_m series at `at`'s tau that
    depends on tau alone (`_bernoulli_series`), as read-only (rows x 1)
    columns: q^j = e(j tau), by `cmath.exp` per row, j, and the rounding
    g (j + 1) + 11 of w = e(-+y tau) q^j, in units of 2^-53,
    g = 12 pi |tau| + 2 pi dtau.  Kept per record and rows: every B_m pass
    at a record, of any order and points, begins with the table of its
    first block, and a later block of rows js reads the slice
    [js.start - 1:] of the table of js.stop - 1 rows."""
    t = at.tau
    js = range(1, rows + 1)
    qj = np.array([cmath.exp(TWO_PI_I * j * t) for j in js])[:, None]
    j = np.array(js, dtype=float)[:, None]
    g = 12.0 * math.pi * abs(t)
    g += _TWO_PI_ULPS * at.dtau
    return _read_only((qj, j, g * (j + 1) + 11.0))


@lru_cache(maxsize=TAU_CACHE_SIZE)
def _pe_rows(at: _Checked, rows: int) -> Tuple[np.ndarray, np.ndarray]:
    """The part of the rows j = 1..rows of a pe series at `at`'s tau that
    depends on tau alone (`_p_deriv_series`), as read-only (rows x 1)
    columns: q^j, the running product of one factor q (`_nome`) per j, and
    j err_q, the relative error of q^j.  Kept per record and rows, and read
    by a block as `_bernoulli_rows` is."""
    q, _, err_q = _nome(at)
    qj = 1.0 + 0j
    powers = []
    for _ in range(rows):
        qj *= q
        powers.append(qj)
    return _read_only((np.array(powers)[:, None],
                       np.arange(1, rows + 1, dtype=float)[:, None] * err_q))


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
    arrays, in one batched run of its series per order.

    `m` is one order for every point, or an integer array of orders aligned
    with x and y; each order then runs one pass over its points, in
    ascending order, so each point's value and err equal a one-order call's
    bit for bit, and the first pass that raises, the lowest order that
    fails, raises."""
    return _bernoulli_points(m, x, y, _checked(tau, policy))


def _bernoulli_points(m, x, y, at: _Checked) -> ComplexArray:
    """`elliptic_bernoulli_points` at `at`'s tau: the caller's points are
    lattice-checked and framed (`_frame`), each order k >= 1 runs one
    `_bernoulli_series` pass over its points at the frame's record, in
    ascending order, so the first pass that raises, raises, and each
    returns through `_Frame.back`, B_k being a lattice sum of weight k (see
    `_Reduction`), into the array of B_0 = 1."""
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
    f = _frame(x, y, at, (np.zeros(x.shape), 0.0))
    dx, dy = f.arg_err
    # B_0 = 1 with err 0; each order >= 1 one pass over its points
    out = ComplexArray(np.ones(len(x), dtype=complex), np.zeros(len(x)))
    for k in sorted(set(m.tolist()) - {0}):
        on = np.flatnonzero(m == k)
        b, = _orders(_bernoulli_series((k,), f.x[on], f.y[on], f.at, (dx[on], dy[on])))
        b = f.back(b, k, f"B_{k}")
        out.value[on], out.err[on] = b.value, b.err
    return out


@np.errstate(all="ignore")
def _bernoulli_series(ms: Tuple[int, ...], x: np.ndarray, y: np.ndarray, at: _Checked,
                      arg_err) -> ComplexArray:
    """B_m(x, y; tau) for each order m >= 1 of `ms` at every point, by the
    series of `elliptic_bernoulli` at `at`'s tau, in one `_block_series`
    batch: one row of the result per order.  The orders share the points'
    exponentials, the rows of the record and the engine's run, and each
    finishes as a pass of its own would, in the order of `ms`, so each row
    equals its one-order call bit for bit and the first order whose value
    leaves binary64 raises.  The points passed the lattice check, with y
    as a frame (`_frame`) or an evaluator of `_by_weight` gives it: each y
    is an integer or beyond _LATTICE_EPS of one.  The powers (y -+ j)^(m-1)
    are IEEE products (`_ipow`), at most m - 2 of them, which the m ulps
    charged to a term's power cover.  Runs with no numpy warning: rows past
    the stop may overflow, and `_finite` is the one overflow check.

    `arg_err` = (dx, dy) bounds the absolute errors of x and y, dy an
    array with one entry per point, which carries the caller's snap shift,
    and `at.dtau` that of tau; zeros where they are exact leave every bit
    of the result as it is, as every charge below is an exact 0 there.
    The errors add 2 pi dx to the argument of e(+-x), 2 pi (dy |tau| +
    (j + 1) dtau) to that of w = e((j -+ y) tau) and 2 pi (dx + dy |tau| +
    y dtau) to that of the closing term's exponential.  dy also moves the
    powers (y -+ j)^(m-1), by (m - 1) dy / (j -+ y) relative, the closing
    term's y^(m-1), by (m - 1) y^(m-2) dy times the rest, and B_m(y), by
    m |B_{m-1}(y)| dy."""
    t = at.tau
    # into [0, 1); x is off-integer where y is 0 (lattice check)
    y = y - np.floor(y)
    dx, dy = arg_err
    decay = _nome(at)[1]
    # Rounding of a term P w / D, D = e(+-x) - w: the exponentials carry the
    # relative errors of their arguments (see _exp_err), e(+-x)'s and w's;
    # w = e(-+y tau) q^j has at most 12 pi |tau| (j + 1) + 11 ulps.  D turns
    # both into errors relative to itself, |w| and |e(+-x)| being at most 1;
    # |D| >= 1 - |q| for the second term.  The power, the product, the
    # quotient and the sum of the pair add m + 11 ulps.  w's share, which
    # depends on tau alone, comes with q^j from the rows of the record
    # (`_bernoulli_rows`).
    kappa = 1.0 / (1.0 - decay)
    # w's share of the argument errors rides on e(+-x)'s, tripled: the
    # rounding below charges A (err_x + err_w) + size err_w, and
    # A = |t1| / |D1| + kappa |t2| >= size / 2 as |D1| <= 2
    err_x = _exp_err(TWO_PI_I * x) + _TWO_PI_ULPS * (dx + 3.0 * dy * abs(t))
    # dy in ulps, for the powers
    dy_ulps = 2.0**53 * dy
    # the terms read the points as rows (1 x points), against the record's
    # (rows x 1) columns
    yr, err_x, dy_ulps = y[None], err_x[None], dy_ulps[None]
    emy, epy = np.exp(-TWO_PI_I * yr * t), np.exp(TWO_PI_I * yr * t)
    emx = np.exp(-TWO_PI_I * x)[None]
    epx = emx.conj()

    shape = (len(ms), len(x))

    def terms(js):
        # one row per j;  e(-y tau) q^j = e((j - y) tau),  e(y tau) q^j = e((j + y) tau)
        qj, j, err_w = (a[js.start - 1:] for a in _bernoulli_rows(at, js.stop - 1))
        w1, w2 = emy * qj, epy * qj
        d1 = emx - w1
        v1, v2 = w1 / d1, -(w2 / (epx - w2))
        ad1 = np.abs(d1)
        term, sizes, rnds = (np.empty((len(js), *shape), dtype=d) for d in (complex, float, float))
        for i, m in enumerate(ms):
            u1, u2 = v1, v2
            if m > 1:
                u1, u2 = _ipow(yr - j, m - 1) * u1, _ipow(yr + j, m - 1) * u2
            a1, a2 = np.abs(u1), np.abs(u2)
            size = a1 + a2
            rnd = (a1 / ad1 + kappa * a2) * (err_x + err_w)
            rnd += size * (m + 11.0 + err_w)
            if m > 1:
                # dy moving (y -+ j)^(m-1) by (m - 1) dy / (j -+ y) relative,
                # an exact 0 where dy is 0
                rnd += (m - 1) * dy_ulps * (a1 / (j - yr) + a2 / (j + yr))
            term[:, i], sizes[:, i], rnds[:, i] = u1 + u2, size, rnd
        return tuple(a.reshape(len(js), -1) for a in (term, sizes, rnds))

    # a term pair is at most (j + 1)^(m-1) (|q|^(j-y) + |q|^(j+y)), 0 <= y < 1
    first = _points_rows(decay, max(ms) - 1, 1.0)
    zeros = np.zeros(shape)
    state = (a.reshape(shape) for a in _block_series(
        zeros, zeros, terms, at.cap, first, "elliptic Bernoulli series"))

    # The closing term and the finish.  At m = 1 the factors y^0, m and
    # slope = 1 are left out and B_1(y) is y - 1/2, the Horner steps' value:
    # each is a product by 1 or a sum with 0, which moves no bit of value
    # or err.
    arg = TWO_PI_I * (-x + y * t)
    v = np.exp(arg)
    v1 = v - 1
    err_v = _exp_err(arg) + _TWO_PI_ULPS * (dx + dy * abs(t) + y * at.dtau)
    ratio = np.abs(v) / np.abs(v1)
    out = ComplexArray(np.empty(shape, dtype=complex), np.empty(shape))
    for i, (m, (s, c, j, last, rnd)) in enumerate(zip(ms, zip(*state))):
        closing = (v if m == 1 else _ipow(y, m - 1) * v) / v1
        # the Kahan step's sum; its compensation is not needed
        acc = s + (closing - c)
        abs_acc = np.abs(acc)
        if m == 1:
            r = min(decay, 0.99)
            tail = 2.0 * last * r / (1.0 - r) + 1e-16 * abs_acc * j
            value = acc + (y - 0.5)
        else:
            r = np.minimum(decay * _ipow((j + 1 + y) / np.maximum(j - y, 0.5), m - 1), 0.99)
            tail = m * (2.0 * last * r / (1.0 - r) + 1e-16 * abs_acc * j)
            value = m * acc + _bernoulli_poly_float(m, y)
        # first-order rounding: the terms, the closing term (as above, with
        # v - 1 for the denominator), the Kahan sum, m * acc, the Bernoulli
        # polynomial's Horner steps (at most sum_j |C(m, j) B_j| on [0, 1))
        # and the final sum
        rnd = rnd + np.abs(closing) * (m + 10.0 + err_v * (1.0 + ratio))
        if m > 1:
            # dy moving the closing term's y^(m-1)
            rnd = rnd + (m - 1) * _ipow(y, m - 2) * ratio * (2.0**53 * dy)
        rnd = rnd + 3.0 * abs_acc
        if m > 1:
            rnd = m * rnd
        rnd = rnd + 2.0 * (m + 1) * _bernoulli_poly_abs_sum(m) + np.abs(value)
        # dy moving B_m(y), whose slope m B_{m-1}(y) is at most
        # m sum_j |C(m-1, j) B_j| on [0, 1), 1 at m = 1
        slope = dy if m == 1 else dy * (m * _bernoulli_poly_abs_sum(m - 1))
        b = _finite(ComplexArray(value, tail + 2.0**-53 * rnd + slope), f"B_{m}")
        out.value[i], out.err[i] = b.value, b.err
    return out


def _orders(v: ComplexArray):
    """The rows of a kernel result of several orders, one ComplexArray
    each, in the kernel's order of the orders."""
    return [ComplexArray(a, e) for a, e in zip(v.value, v.err)]


def elliptic_bernoulli(m: int, x: float, y: float, tau: TauPoint,
                       policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """Elliptic Bernoulli function B_m(x, y; tau) (Kronecker's double series).

    B_m(x,y;tau) = m [ sum_{j>=1} (y-j)^{m-1} e(-y tau) q^j / (e(-x) - e(-y tau) q^j)
                     - sum_{j>=1} (y+j)^{m-1} e(y tau) q^j / (e(x) - e(y tau) q^j)
                     + y^{m-1} e(-x+y tau) / (e(-x+y tau) - 1) ] + B_m(y),

    with y reduced into [0, 1) first and B_m(y) the Bernoulli polynomial of
    the reduced y.  Outside F, evaluates (c tau + d)^-m B_m(x', y'; tau')
    at tau reduced to F (see `_Reduction`).  m = 0 returns 1 (the
    generating-series residue), which the Machide sums need, once tau and
    the point have passed their checks.
    """
    return elliptic_bernoulli_points(m, [x], [y], tau, policy)[0]


# ---------------------------------------------------------------------------
# B_1 and B_2 from one Jacobi-theta pass
# ---------------------------------------------------------------------------

#: 1 / (4 pi^2), for the heat identity B_2 = B_1^2 + pe / (4 pi^2)
_INV_4PI2 = -1.0 / (TWO_PI_I**2).real


@lru_cache(maxsize=TAU_CACHE_SIZE)
def _theta_rows(at: _Checked):
    """What a theta pass at `at`'s tau reads of tau alone (`_theta_pass`):
    N, the least N >= 1 at which the row pairs j = 0..N-1 leave out tails
    below 2^-53; e^(pi Im tau); the factors -Q^k = -e(k tau), k = 0..N-2,
    by `cmath.exp` per k; and, as read-only (3 x 1) columns over k = 0,
    1, 2, the coefficients of the bound D_k on the error of S_k in |e_|
    for the row j = 0 and for the rows j >= 1 over rho = |u| e^(pi Im
    tau), in e_'s error (in ulps), in dx + |tau| dy and in 1.

    Over t_0 = 1, the largest row, |t_j| = |u|^j e^(-pi Im tau j (j - 1))
    <= rho h_j, h_j = e^(-pi Im tau j^2), and each row j >= 1 is charged
    as if it were that large: its rounding e_j, of Q^k (`_exp_err`) and u,
    within 2 pi (5 |tau| + 3/2) + 4 ulps, and two products per factor;
    A_j = t_j G_j, below (2j + 1) |t_j|, its product's (A_0 = 1 is exact)
    and the 2j powers and sums of G_j, within j (2j + 1) (e_'s error + |d|
    + 5) ulps, |d| <= 1 and |e_| <= 2; its share of the sums' rounding, once per partial sum
    it is in, j + 1 as the rows are summed from j = N - 1 down, and 2 ulps
    for its weights; and the input errors of rows j and -j-1
    (`_theta_pass`), with |d| <= 1 and y <= 1/2.  S_0 and S_2 are
    -e_ times sums below sigma_k = sum (2j + 1)^(k+1) |t_j|, which charges
    e_'s error and the product's 3 ulps, and S_1 adds 2 sum (2j + 1) t_j.
    A row left out has |t_n| <= e^(-pi Im tau N^2) and |2n + 1| <= 2N + 1,
    each further one less by at most r, so the tails add T_k <= 2
    (2N + 1)^k e^(-pi Im tau N^2) / (1 - r): N = 4 at Im tau = sqrt(3)/2,
    3 at 3, 1 from about 23 on."""
    t = at.tau
    im = t.imag
    n = 0
    tails = [math.inf]
    while tails[-1] > 2.0**-53:
        n += 1
        tails = [2.0 * (2 * n + 1) ** k * math.exp(-math.pi * im * n * n)
                 / (1.0 - ((2 * n + 3) / (2 * n + 1)) ** k * math.exp(-math.pi * im * (2 * n + 1)))
                 for k in range(3)]
    ks = range(n - 1)
    err_u = 2.0 * math.pi * (5.0 * abs(t) + 1.5) + 10.0
    j = np.arange(n, dtype=float)
    e_j = np.cumsum([0.0] + [float(_exp_err(TWO_PI_I * k * t)) + err_u for k in ks])
    w, h = 2.0 * j + 1.0, np.exp(-math.pi * im * j * j)
    # (2j + 1)^k h_j over (k, j)
    wh = w ** np.arange(3.0)[:, None] * h
    sigma, grow = wh * w, wh * (w * j)
    by_e = 2.0**-53 * (sigma * (e_j + j + 3.0 + 3.0 * (j > 0)) + 6.0 * grow + 3.0 * sigma)
    by_err = 2.0**-53 * (2.0 * grow + sigma)
    dtau = math.pi * at.dtau
    ones = np.array(tails) + dtau * (wh * (j * (j + 1.0))).sum(axis=1)
    # sum (2j + 1) t_j in S_1
    ones[1] += 2.0**-52 * (wh[1] * (e_j + j + 2.0)).sum()
    coef = (by_e[:, 0], by_e[:, 1:].sum(axis=1), by_err.sum(axis=1),
            2.0 * math.pi * (wh * (2.0 * j + 1.0)).sum(axis=1),
            ones + dtau * (wh * (j + 1.0) ** 2).sum(axis=1))
    # rho reads e^(pi Im tau) only where rows j >= 1 run, N > 1: Im tau < 23
    scale = math.exp(math.pi * im) if n > 1 else 0.0
    return (n, scale, [-cmath.exp(TWO_PI_I * k * t) for k in ks],
            *_read_only(tuple(c[:, None] for c in coef)))


@np.errstate(all="ignore")
def _theta_pass(x: np.ndarray, y: np.ndarray, at: _Checked, arg_err,
                two=slice(None)) -> Tuple[ComplexArray, ComplexArray]:
    """B_1(x, y; tau) at every point and B_2(x, y; tau) at the points of
    the slice `two`, from one pass of three Jacobi-theta sums at `at`'s
    tau, on F (DLMF 20.2, 23.6(i)).
    With x reduced into [-1/2, 1/2] and y into [0, 1/2], through B_1(x, y)
    = -B_1(-x, 1 - y) and B_2(x, y) = B_2(-x, 1 - y), all exactly,

        S_k = sum_{n=-N}^{N-1} (2n + 1)^k t_n,
        t_n = (-1)^n e^(pi i tau (n + 1/2 - y)^2) e((2n + 1) x / 2),

    theta_1(pi z) = -i e^(-pi i tau y^2) S_0 at z = x - y tau and
    pe = pi^2 (S_2 / S_0 - (S_1 / S_0)^2) - E_2, so B_1 = y - S_1 / (2 S_0)
    and, by the heat identity B_2 = B_1^2 + pe / (4 pi^2),

        B_2 = y (y - S_1 / S_0) + S_2 / (4 S_0) - E_2 / (4 pi^2),

    in which the poles of B_1^2 and pe cancel before any rounding.  The
    rows are taken over t_0, the largest, and in pairs, so that no factor
    exceeds 1: t_j = prod_(k<j) (-Q^k u), j = 0..N-1, u = e(x + tau
    (1 - y)), and t_(-j-1) = -t_j d^(2j+1), d = e(tau y - x), so that

        t_j + t_(-j-1) = -e_ t_j G_j,   t_j - t_(-j-1) = t_j (2 + e_ G_j),

    G_j = 1 + d + ... + d^(2j) and e_ = d - 1 by `np.expm1`: S_0 and S_2
    are e_ times sums near 1, so B_1 keeps its digits next to the lattice
    point z = 0, the only one near the reduced point.  N and Q^k, which
    Im tau alone sets, come from the per-tau rows (`_theta_rows`).  The
    points passed the lattice check, with y as a frame (`_frame`) gives
    it.

    err is first order: S_k / S_0 is within (D_k + |S_k / S_0| D_0) /
    |S_0| for the error bounds D_k of S_k (`_theta_rows`), which charge
    the roundings, the Gaussian tail, e_'s, within 6 ulps, and its
    argument's, within 2 pi (4 |tau| y + 3 |x|) ulps of d, and `arg_err` =
    (dx, dy) and `at.dtau` row by row: d log t_n is pi i (2n + 1) dx,
    -2 pi i tau (n + 1/2 - y) dy and pi i (n + 1/2 - y)^2 dtau, of which
    the parts common to every row cancel in the quotients, so that row n
    is charged pi (2 |n| (dx + |tau| dy) + |n (n + 1 - 2y)| dtau) |t_n|.
    E_2's err, the explicit y's dy, with the rounding of y's reduction,
    and the finish are added.  Where the 2N rows are more than the cap,
    raises NonConvergenceError "theta series hit max_terms=cap", with B_1
    at the first point from the row pairs within the cap, one at least,
    as the partial.  Runs with no numpy warning; a row below binary64
    underflows to 0, and `_finite` is the one overflow check."""
    t = at.tau
    n, scale, qk, c_e0, c_e1, c_err, c_x, c_1 = _theta_rows(at)
    dx, dy = arg_err
    x0 = x - np.rint(x)
    floor = np.floor(y)
    y0 = y - floor
    # the reduction of y rounds where floor(y) != 0: within 2^-53
    dy = dy + 2.0**-53 * (floor != 0.0)
    flip = y0 > 0.5
    x0 *= 1.0 - 2.0 * flip
    y0 = np.minimum(y0, 1.0 - y0)
    u = np.exp(TWO_PI_I * (x0 + t * (1.0 - y0)))
    e = np.expm1(TWO_PI_I * (t * y0 - x0))
    d = 1.0 + e
    # t_j and G_j as the rows N - 1 - j, so that the sums add t_0 last
    tj, gj = np.empty((2, n, len(x)), dtype=complex)
    tj[-1] = gj[-1] = 1.0
    power = 1.0
    for j in range(n - 2, -1, -1):
        np.multiply(tj[j + 1], qk[n - 2 - j] * u, out=tj[j])
        odd = power * d
        power = odd * d
        np.add(gj[j + 1], odd, out=gj[j])
        gj[j] += power
    w = np.arange(2 * n - 1.0, 0.0, -2.0)[:, None]
    if 2 * n > at.cap and len(x):
        m = n - max(at.cap // 2, 1)
        wt = w[m:, 0] * tj[m:, 0]
        s1 = 2.0 * wt.sum() + e[0] * (wt * gj[m:, 0]).sum()
        s0 = -e[0] * (tj[m:, 0] * gj[m:, 0]).sum()
        partial = (y0[0] - s1 / (2.0 * s0)) * (1.0 - 2.0 * flip[0])
        raise NonConvergenceError(f"theta series hit max_terms={at.cap}",
                                  ComplexVal(complex(partial), float("inf")))
    aj = tj * gj
    wa = w * aj
    s0 = -e * aj.sum(axis=0)
    s1 = 2.0 * (w * tj).sum(axis=0) + e * wa.sum(axis=0)
    s2 = -e[two] * (w * wa[:, two]).sum(axis=0)
    ae = np.abs(e)
    err_e = np.abs(d) * (2.0 * math.pi * (4.0 * abs(t) * y0 + 3.0 * np.abs(x0))) + 6.0 * ae
    rho, dxy = ae * (np.abs(u) * scale), dx + abs(t) * dy

    def bound(k, sl):
        return (c_e0[k] * ae[sl] + c_e1[k] * rho[sl] + c_err[k] * err_e[sl]
                + c_x[k] * dxy[sl] + c_1[k])

    d0, d1 = bound(slice(2), slice(None))
    r1 = s1 / s0
    a0, a1 = np.abs(s0), np.abs(r1)
    # the quotients, 8 ulps each, and S_1's last sum
    dr1 = (d1 + a1 * d0) / a0 + 2.0**-53 * 9.0 * a1
    b1 = y0 - 0.5 * r1
    err_b1 = 0.5 * dr1 + dy + 2.0**-53 * (y0 + 0.5 * a1)
    r2 = s2 / s0[two]
    a2 = np.abs(r2)
    dr2 = (bound(2, two) + a2 * d0[two]) / a0[two] + 2.0**-50 * a2
    e2 = _eisenstein(1, at)
    y0, r1, a1 = y0[two], r1[two], a1[two]
    b2 = y0 * (y0 - r1) + 0.25 * r2 - e2.value * _INV_4PI2
    # |B_1| <= y + |r_1| / 2 and |y (y - r_1)| <= y (y + |r_1|) bound the
    # finish's roundings
    err_b2 = (y0 * dr1[two] + 0.25 * dr2 + (2.0 * y0 + a1) * dy[two]
              + (e2.err + 2.0**-51 * abs(e2.value)) * _INV_4PI2
              + 2.0**-53 * (5.0 * y0 * (y0 + a1) + 1.5 * a2))
    np.negative(b1, out=b1, where=flip)
    return _finite(ComplexArray(b1, err_b1), "B_1"), _finite(ComplexArray(b2, err_b2), "B_2")


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
    Computational Algebraic Number Theory, 7.4), and B_k(x, y; tau) =
    m^-k B_k(x', y'; tau'), B_k being a Kronecker-Eisenstein lattice sum
    of weight k (Weil, Elliptic Functions according to Eisenstein and
    Kronecker, 1976).  `m` is as computed, `m_err` bounds its relative
    error in units of 2^-53 and `dtau` bounds |tau' - gamma tau| for the
    computed tau'."""

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

    def checked(self, at: _Checked) -> _Checked:
        """tau' as a checked record, with the cap of `at`, the caller's, and
        dtau as its error.  It needs no check: Im tau' >= Im tau, so tau'
        passes wherever tau passed."""
        return tuple.__new__(_Checked, (self.tau, at.cap, self.dtau))

    def e2_shift(self) -> ComplexVal:
        """2 pi i c / m, the quasi-modular term of E_2(tau) = m^-2 E_2(tau')
        + 2 pi i c / m (Zagier, Elliptic modular forms and their
        applications, 2.3), with m's relative error and a few ulps for pi,
        the product and the quotient."""
        v = TWO_PI_I * self.c / self.m
        return ComplexVal(v, abs(v) * 2.0**-53 * (self.m_err + 8.0))


#: The |tau| from which on tau counts as on or beyond the unit circle: 1
#: less a few ulps, as a tau on the arc can have |tau| and |-1/tau| both
#: round below 1, where Cohen's loop would invert it back and forth forever
_ARC = 1.0 - 2.0**-50


@lru_cache(maxsize=TAU_CACHE_SIZE)
def _reduction(t: complex) -> Optional[_Reduction]:
    """The reduction of tau = t into F = {|Re tau| <= 1/2, |tau| >= 1}, by
    Cohen's Algorithm 7.4.2 (shift Re tau into [-1/2, 1/2], invert while
    |tau| < 1, up to rounding: `_ARC`); None on the closed F, where the
    kernels run at tau itself.  tau' is computed from gamma and t in one
    step.  Kept per t in a table of TAU_CACHE_SIZE entries, as every frame
    and every `_by_weight` of a tau asks for it; a t of Re t = -0.0 reads the
    entry of +0.0, whose reduction it equals, as the integer sums of the
    loop and of gamma t clear the sign of a zero."""
    if abs(t.real) <= 0.5 and abs(t) >= _ARC:
        return None
    a, b, c, d = 1, 0, 0, 1
    s = t
    while True:
        n = math.floor(s.real + 0.5)
        s, a, b = s - n, a - n * c, b - n * d
        if abs(s) >= _ARC:
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


def _by_weight(w: int, evaluate, at: _Checked) -> ComplexVal:
    """`evaluate(at)` for a modular form of weight w that `evaluate` gives
    at any checked record: on the closed F at `at` itself, else m^-w
    evaluate(tau') at tau' = gamma tau in F, from the record of tau'
    (`_Reduction.checked`), which carries the error of tau', and with the
    error of m^-w (`_Reduction.weight`)."""
    red = _reduction(at.tau)
    if red is None:
        return evaluate(at)
    return evaluate(red.checked(at)) * red.weight(w)


class _Frame(NamedTuple):
    """Points x - y tau where a series evaluates them: at the caller's tau,
    or at the reduced tau' with the reduction `red`, in the record `at`,
    whose dtau bounds the error of tau there; `arg_err` = (dx, dy) bounds
    the absolute errors of x and y, the caller's and the snap's, mapped by
    gamma off F."""

    x: np.ndarray
    y: np.ndarray
    at: _Checked
    arg_err: tuple
    red: Optional[_Reduction]

    def z(self) -> ComplexArray:
        """x - y tau, with the argument errors and the rounding of the
        product and the difference (2^-53 |y| |tau| and 2^-53 |x - y tau|)."""
        dx, dy = self.arg_err
        t = self.at.tau
        ay = np.abs(self.y)
        return ComplexArray(self.x - self.y * t,
                            dx + dy * abs(t) + ay * self.at.dtau
                            + 2.0**-52 * (np.abs(self.x) + ay * abs(t)))

    def back(self, v: ComplexArray, w: int, what: str) -> ComplexArray:
        """v, the values at the frame's points of a function of weight w,
        as the caller's tau has them: v itself on the closed F, else v
        (c tau + d)^-w (`_Reduction.weight`), with no numpy warning and
        `_finite` naming `what` where the weight takes a value or err out
        of binary64."""
        if self.red is None:
            return v
        return _finite(v * self.red.weight(w), what)

    def back_sum(self, v: ComplexVal, w: int) -> ComplexVal:
        """v, a sum over the frame's points of a function of weight w, as
        the caller's tau has it: v on the closed F, else v (c tau + d)^-w,
        one product however many points the sum has.  As a symbol that
        `_by_weight` reduces, it checks its value as it is built, and its
        err may overflow, which the output refuses."""
        return v if self.red is None else v * self.red.weight(w)


@np.errstate(all="ignore")
def _frame(x: np.ndarray, y: np.ndarray, at: _Checked, arg_err) -> _Frame:
    """The points x - y tau in the frame of the reduction of `at`'s tau,
    whose record for tau' is `_Reduction.checked`.

    `arg_err` = (dx, dy) are the caller's bounds on the errors of x and y.
    A y within _LATTICE_EPS of an integer is snapped to it first (`_snap_err`,
    here and nowhere else), and the shift adds to dy; that is all on F.
    Off F, gamma carries dx and dy into x' and y', the integer products and
    the sums add 2^-53 (|a x| + |b y| + |x'|) to x' and the same in c, d to
    y', and y' is snapped as y was, as the series take y snapped.  Runs
    with no numpy warning: at a huge Re tau, x' and y' may leave binary64,
    which the series' `_finite` names."""
    red = _reduction(at.tau)
    snapped, ey = _snap_err(y, arg_err[1])
    ex = arg_err[0]
    if red is None:
        return _Frame(x, snapped, at, (ex, ey), None)
    a, b, c, d = red.a, red.b, red.c, red.d
    xr, yr = a * x + b * snapped, c * x + d * snapped
    dx = abs(a) * ex + abs(b) * ey + 2.0**-53 * np.abs(xr)
    dy = abs(c) * ex + abs(d) * ey + 2.0**-53 * np.abs(yr)
    y, dy = _snap_err(yr, dy)
    return _Frame(xr, y, red.checked(at), (dx, dy), red)


def _snap_err(y: np.ndarray, dy) -> Tuple[np.ndarray, np.ndarray]:
    """y, with each y within _LATTICE_EPS of an integer set to it, and the
    error dy of y, a number or one entry per point, plus the shift, as one
    entry per point.  Where no y moves, none lying within _LATTICE_EPS of
    an integer but the integers themselves, y and dy come back as they
    are, a number dy spread over the points: rint keeps an integer, -0.0
    included, the shift is 0 there, and an error, never -0.0, plus 0 is
    itself."""
    n, near = _near_integer(y)
    if not (near & (n != y)).any():
        return y, dy if np.ndim(dy) else np.full(y.shape, float(dy))
    snapped = np.where(near, n, y)
    return snapped, dy + np.abs(y - snapped)


# ---------------------------------------------------------------------------
# Weierstrass functions
# ---------------------------------------------------------------------------


@np.errstate(all="ignore")
def _decompose(z, t: complex):
    """Write z = x - y*t with real x, y; a product that leaves binary64 is
    left to the point check (`_lattice_check`), with no numpy warning."""
    y = -z.imag / t.imag
    x = z.real + y * t.real
    return x, y


def _kernel_frame(z, at: _Checked, pole: str) -> _Frame:
    """The frame of the points z of a public kernel call: z = x - y tau
    decomposed (`_decompose`), lattice-checked (`_lattice_check`) and
    framed (`_frame`) with the decomposition's rounding as the errors of x
    and y, 2^-52 (|x| + |y Re tau|) and 2^-52 |y|, which cover its
    2^-53 (|x| + 2 |y Re tau|) and 2^-53 |y|.  A lattice hit where that
    bound is at least 1/2, so that x and y keep no digit of their
    fractions, is a ValueError: z cannot be placed against the lattice,
    which says nothing of a pole."""
    z = np.asarray(z, dtype=complex)
    x, y = _decompose(z, at.tau)

    def hit(i):
        ax, ay = abs(float(x[i])), abs(float(y[i]))
        if 2.0**-52 * max(ax + ay * abs(at.tau.real), ay) >= 0.5:
            raise ValueError(f"z = {complex(z[i])} cannot be placed against the lattice of "
                             f"tau = {at.tau}: its coordinates keep no digit of their fractions")
        return f"{pole} pole: z = {complex(z[i])} is on the lattice"

    _lattice_check(x, y, hit)
    return _frame(x, y, at, (2.0**-52 * (np.abs(x) + np.abs(y * at.tau.real)),
                             2.0**-52 * np.abs(y)))


def _b_series(x: np.ndarray, y: np.ndarray, at: _Checked, arg_err) -> ComplexArray:
    """b = zeta - E_2 z at z = x - y tau, from one B_1 batch and no E_2:
    b(x - y tau) = -2 pi i (B_1(x0, y0; tau) - y) for (x0, y0) = (x, y)
    mod 1, as B_1(x0, y0) = -(b(x0 - y0 tau)) / (2 pi i) + y0, b(z + 1) =
    b(z) and b(z + tau) = b(z) - 2 pi i.  `arg_err` as in `_Frame`: B_1
    carries it and `at.dtau`; an error dy of y moves -y as it moves
    B_1(y) = y - 1/2, whose share of B_1's err already counts it.  Only
    the zeta kernel calls it, in its frame; the zeta route of the elliptic
    sums reads b from the pe family's order -1 instead (`_p_deriv_series`)."""
    b1, = _orders(_bernoulli_series((1,), x - np.floor(x), y, at, arg_err))
    return (b1 - y) * -TWO_PI_I


def weierstrass_zeta_points(z, tau: TauPoint,
                            policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexArray:
    """`weierstrass_zeta` at every point of the array z, as b + E_2 z from
    one batched B_1 series (`_b_series`) and one E_2, at tau reduced to F."""
    f = _kernel_frame(z, _checked(tau, policy), "zeta")
    return f.back(_b_series(f.x, f.y, f.at, f.arg_err) + f.z() * _eisenstein(1, f.at), 1, "zeta")


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


def _phi(ks: Tuple[int, ...], w: np.ndarray):
    """For each order k of ks, Phi_k(w), and S = P_{k+1}(|w|) / |1 - w|^{k+3},
    which bounds both |w Phi_k'(w)| = |Phi_{k+1}(w)| and, for |w| <= 1,
    half of P_k(|w|) / |1 - w|^{k+2}: the scales of the error that a
    relative error of w and the rounding of the evaluation cause.  The
    orders share 1 - w, |w| and |1 - w|; the numerators are `_phi_poly(k)`
    and `_phi_poly(k + 1)`."""
    den = 1 - w
    r, aden = np.abs(w), np.abs(den)
    return [(_horner(_phi_poly(k), w) / _ipow(den, k + 2),
             _horner(_phi_poly(k + 1), r) / _ipow(aden, k + 3)) for k in ks]


def _horner(coeffs: Tuple[int, ...], w: np.ndarray) -> np.ndarray:
    """sum_i coeffs[i] w^i elementwise by Horner's rule, for at least two
    coefficients, seeded with the leading one: for finite w bit for bit
    the rule seeded with zeros, as 0 w + c is exactly c.  (At an infinite
    w, where zeros give NaN, it may give inf: in `_phi` only at a start u
    whose |u| leaves binary64, where the err is not finite either way.)"""
    num = coeffs[-1] * w + coeffs[-2]
    for c in reversed(coeffs[:-2]):
        num = num * w + c
    return num


@np.errstate(all="ignore")
def _p_deriv_series(ks: Tuple[int, ...], x: np.ndarray, y: np.ndarray, at: _Checked,
                    arg_err) -> ComplexArray:
    """pe^(k)(x - y tau; tau) for each order k >= -1 of `ks` at every
    point, by the Fourier series of `weierstrass_p_deriv` at `at`'s tau, in
    one `_block_series` batch: one row of the result per order.  The
    orders share u, the rows of the record and the engine's run, and each
    finishes as a pass of its own would, in the order of `ks`, so each row
    equals its one-order call bit for bit and the first order whose value
    leaves binary64 raises.  Order -1 is the family's antiderivative
    pe^(-1) := -(zeta - E_2 z), with Phi_(-1)(w) = w / (1 - w) and the
    constant 1/2 beside Phi_(-1)(u) (DLMF 23.8): odd, of period 1, and
    pe^(-1)(z + tau) = pe^(-1)(z) + 2 pi i, which the reduction of y by
    rint(y) restores.  The points are off the lattice with y snapped, as a
    frame (`_frame`) or an evaluator of `_by_weight` gives them.  `arg_err`
    as in `_Frame`, the caller's bounds: the errors of x, y and tau,
    `at.dtau`, add 2 pi (dx + dy |tau| + |y0| dtau) to the argument of u
    and 2 pi dtau to that of q, which E_2 carries in its err (`_nome_err`).
    Runs with no numpy warning: rows past the stop may overflow, and
    `_finite` is the one overflow check."""
    t = at.tau
    # y0 is +0 or beyond _LATTICE_EPS: the caller has snapped y (`_frame`),
    # never -0, as y - rint(y) is -0 only at y = -0 and rint(y) = +0
    ny = np.rint(y)
    y0 = y - ny
    # pe^{(k)}(-z) = (-1)^k pe^{(k)}(z): flip is -1 where z is negated
    flip = 1.0 - 2.0 * (y0 < 0)
    y0 = np.abs(y0)
    x = x * flip
    x0 = x - np.floor(x)
    arg = TWO_PI_I * (x0 - y0 * t)
    u = np.exp(arg)
    aq = _nome(at)[1]
    owns, pref, apref, coef, odd = _pe_orders(ks)
    # the relative error of the argument, in ulps of S beside each order's
    # own: u's (as exp gives it), and j times q's and one product's for q^j
    # (`_nome`)
    dx, dy = arg_err
    err_u = _exp_err(arg) + _TWO_PI_ULPS * (dx + dy * abs(t) + y0 * at.dtau)
    shape = (len(ks), len(x))

    # the terms read the points as rows (1 x points)
    ur, err_ur = u[None], err_u[None]

    def block(js, head=False):
        # one row per j, q^j from the rows of the record; Phi_k at u q^j and
        # at q^j / u in one call, stacked, and in the head block at u
        # itself, the start; each order into its columns
        qjs, jerr = (a[js.start - 1:] for a in _pe_rows(at, js.stop - 1))
        rows = len(js)
        w = np.concatenate((ur * qjs, qjs / ur, ur) if head else (ur * qjs, qjs / ur))
        term, sizes, rnds = (np.empty((rows, *shape), dtype=d) for d in (complex, float, float))
        start = (np.empty(shape, dtype=complex), np.empty(shape)) if head else None
        for i, (k, (tt, ss), own) in enumerate(zip(ks, _phi(ks, w), owns)):
            t1, t2, s1, s2 = tt[:rows], tt[rows:2 * rows], ss[:rows], ss[rows:2 * rows]
            size = np.abs(t1) + np.abs(t2)
            rnd = (s1 + s2) * (err_ur + (own + 6.0 + jerr)) + size
            term[:, i], sizes[:, i], rnds[:, i] = t1 + (-1.0) ** k * t2, size, rnd
            if head:
                start[0][i], start[1][i] = tt[-1], ss[-1] * (err_u + own)
        return tuple(a.reshape(rows, -1) for a in (term, sizes, rnds)), start

    # Phi_k(w) = w + O(w^2): a term pair is about |q|^(j-y0) + |q|^(j+y0),
    # 0 <= y0 <= 1/2, whatever k
    first = _block_rows(_points_rows(aq, 0, 0.5), len(x), at.cap)
    head = range(1, first + 1)
    kept, (start, start_rnd) = block(head, True)

    def terms(js):
        # the head block's rows once, as evaluated with the start
        nonlocal kept
        if js == head and kept is not None:
            out, kept = kept, None
            return out
        return block(js)[0]

    # on the pairs Phi_k(u q^j), Phi_k(q^j / u)
    acc, _, j, last, rnd = (a.reshape(shape) for a in _block_series(
        start, start_rnd, terms, at.cap, first, "pe Fourier series"))
    # each order's finish, over all orders at once: every step is the
    # elementwise one of a pass of its own, so each row keeps its bits
    minus_one = [i for i, k in enumerate(ks) if k == -1]
    for i in minus_one:
        # Phi_(-1)(u) + 1/2 = (1 + u) / (2 (1 - u))
        acc[i] += 0.5
    r = min(aq * 2.0, 0.99)
    abs_acc = np.abs(acc)
    tail = apref * (2.0 * last * r / (1.0 - r) + 1e-16 * abs_acc * j)
    # flip^k times pref, exactly, as flip is +-1
    value = np.where(odd, flip, 1.0) * pref * acc
    # pref carries k + 2 half-ulps of pi and its binary powering; the
    # product and the Kahan sum add a few more
    rnd = apref * (rnd + 2.0 * abs_acc) + coef * np.abs(value)
    for i in minus_one:
        # the quasi-period: pe^(-1)(z) = pe^(-1)(z + n tau) - 2 pi i n
        shift = TWO_PI_I * ny
        value[i] = value[i] - shift
        rnd[i] = rnd[i] + 2.0 * np.abs(shift) + np.abs(value[i])
    err = tail + 2.0**-53 * rnd
    # the orders in turn: E_2 joins order 0, and the first order whose
    # value or err leaves binary64 raises
    finite = np.isfinite(value).all(axis=1) & np.isfinite(err).all(axis=1)
    for i, k in enumerate(ks):
        if k == 0:
            val = _finite(ComplexArray(value[i], err[i]) - _eisenstein(1, at), "pe^(0)")
            value[i], err[i] = val.value, val.err
        elif not finite[i]:
            raise _out_of_range(f"pe^({k})")
    return ComplexArray(value, err)


@lru_cache(maxsize=None)
def _pe_orders(ks: Tuple[int, ...]):
    """What the pe orders ks read of themselves (`_p_deriv_series`): per
    order, the rounding of its Phi_k in ulps of S (see _phi), from the
    Horner steps, the power and the quotient; and as (orders x 1) columns,
    pref = (2 pi i)^(k + 2), |pref|, the ulps of |value| that pref and the
    finish add, and whether k is odd."""
    bls = [(k + 2).bit_length() for k in ks]
    prefs = [TWO_PI_I ** (k + 2) for k in ks]
    cols = (prefs, [abs(v) for v in prefs], [k + 2 * bl + 6.0 for k, bl in zip(ks, bls)],
            [k % 2 == 1 for k in ks])
    return (tuple(10.0 * k + 44.0 + 12.0 * bl for k, bl in zip(ks, bls)),
            *_read_only(tuple(np.array(c)[:, None] for c in cols)))


def weierstrass_p_deriv_points(k: int, z, tau: TauPoint,
                               policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexArray:
    """`weierstrass_p_deriv` at every point of the array z, in one batched
    run of its Fourier series at tau reduced to F."""
    k = _checked_int(k, "k")
    if k < 0:
        raise ValueError("k must be >= 0")
    f = _kernel_frame(z, _checked(tau, policy), "pe")
    pe, = _orders(_p_deriv_series((k,), f.x, f.y, f.at, f.arg_err))
    return f.back(pe, k + 2, f"pe^({k})")


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


def weierstrass_zeta_deriv(j: int, z: complex, tau: TauPoint,
                           policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """zeta^{(j)}(z; tau); for j >= 1 this is -pe^{(j-1)}(z; tau)."""
    j = _checked_int(j, "j")
    if j < 0:
        raise ValueError("j must be >= 0")
    if j == 0:
        return weierstrass_zeta(z, tau, policy)
    return -weierstrass_p_deriv(j - 1, z, tau, policy)


def sigma_log_tau_derivative(z: complex, tau: TauPoint,
                             policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """d(log sigma(z; tau))/dtau at fixed z, for any z off the lattice:
    ((zeta - E_2 z)^2 - pe + 2 E_2) / (4 pi i) + E_2' z^2 / 2.

    sigma = e^{E_2 z^2 / 2} theta_1(pi z) / (pi theta_1'(0)), the heat
    equation theta_zz = 4 pi i theta_tau of theta_1 and Ramanujan's
    2 pi i E_2' = 5 E_4 - E_2^2 give, with b = zeta(z) - E_2 z,

        2 d(log sigma)/dtau - E_2' z^2 - E_2 / (pi i) = (b^2 - pe(z)) / (2 pi i).

    For z = x - y tau, b = -2 pi i (B_1(x, y) - y) (`_b_series`) and the
    heat identity pe = (2 pi i)^2 (B_1^2 - B_2) give b^2 - pe = (2 pi i)^2
    (B_2 - 2 y B_1 + y^2), with B_1 and B_2 from one theta pass
    (`_theta_pass`) at tau reduced to F, each back by its weight
    (`_Frame.back`).  E_2 and E_2' are read at tau itself."""
    z = complex(z)
    at = _checked(tau, policy)
    f = _kernel_frame([z], at, "zeta")
    b1, b2 = (f.back(b, m, f"B_{m}")[0]
              for m, b in enumerate(_theta_pass(f.x, f.y, f.at, f.arg_err), 1))
    # the explicit y, the decomposition's, whose rounding 2^-52 |y|, as
    # `_kernel_frame` charges it, moves y^2 - 2 y B_1 by 2 |B_1 - y| times
    # it; y^2 rounds once more
    y = _decompose(z, at.tau)[1]
    y2 = ComplexVal(y * y, 2.0**-52 * abs(y) * (2.0 * abs(b1.value - y) + 0.5 * abs(y)))
    heat = (b2 - b1 * (2.0 * y) + y2) * TWO_PI_I**2
    val = (heat + _eisenstein(1, at) * 2.0) * (1.0 / (4j * math.pi))
    de2 = _eisenstein_tau_derivative(1, at)
    return val + de2 * (z * z / 2)


# ---------------------------------------------------------------------------
# Odd zeta values
# ---------------------------------------------------------------------------


def zeta_odd(n: int) -> float:
    """zeta(2n+1) by direct summation plus an Euler-Maclaurin tail below TOL."""
    n = _checked_n(n)
    s = 2 * n + 1
    K = 10
    # remainder after the K^{-s-1} correction term is O(s^3 K^{-s-3})
    while s**3 * K ** (-(s + 3)) > TOL * 0.01 and K < 10**6:
        K *= 2
    acc = math.fsum(k ** (-s) for k in range(1, K + 1))
    tail = K ** (1 - s) / (s - 1) - 0.5 * K ** (-s) + s / 12.0 * K ** (-(s + 1))
    return acc + tail
