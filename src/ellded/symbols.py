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
reciprocity law, so they stay independent.  Their second factor, odd and
periodic on the lattice, is read at q P from its values at the half points
themselves: q permutes the pairs, q P = s P' + a lattice point, and the
permutation, the sign and the bracket's quasi-period come from one integer
table per (p, q) (`_division_map`).  So each route runs one series pass,
of two orders, over the half points.

Every zeta, pe and B_m factor is evaluated at its points' coordinates: z =
x - y tau with x and y formed from the exact lambda, mu, p, q and the
caller's x or s, each rounding charged as an argument error of the series
(`_route_sum`, and the frame, `qseries._frame`, of the Theorem 1.3
record that `generating_D`, `generating_R` and `proposition31_residual`
read).
No symbol builds a complex z or decomposes one, and no lattice check sees
the points of a division sum: division points lie off the lattice, and the
windows on x and s keep the shifted and real points off it.

A symbol that is a modular form reduces as a whole.  D^-_{2n}(p, q; .) and
R^-_{2n}(p, q; .) are modular forms of weight 2n + 2 for SL_2(Z), so both
routes of `elliptic_apostol_sum` (`_route_sum`) and `reciprocity_rhs` each
build their sum, or closed form, at whatever checked record they are
given, and make one call to `qseries._by_weight`, the one home of that
reduction: on the closed F it evaluates them at the caller's tau, else at
tau' = gamma tau in F, from the record of tau', which carries the error of
tau', times m^-(2n+2) with m's error.  The routes' series charge that error
in their arguments, and R through the err of each Eisenstein value at
tau', whose q-sum charges it in the error of q.  `_route_sum` at the
caller's own record is the route held at tau.  Only the shifted symbols
reduce in their frame: the Machide factors each by its weight, and
D^-(x), R^-(x) and the Prop. 3.1 residual as sums of weight 2, once each.
The odd-symbol bracket zeta - E_2 z - 2 pi i y at z = x - y tau is the
Kronecker form -2 pi i B_1(x, y; tau), so D^-(x) is a sum of B_1
products, and the heat identity pe = (2 pi i)^2 (B_1^2 - B_2) turns
R^-(x) into B_1 and B_2 at p x, q x and x (`_heat_form`).  So Theorem 1.3
and Prop. 3.1 check one identity, D^-(p, q; x) + D^-(q, p; x) - R^-(x) =
C(tau), and its terms read one record per (p, q, tau, x) (`_theorem13`):
one frame and one theta pass (`qseries._theta_pass`) over the points of
both D^- and the B_1, B_2 points of R^-, each part where it is defined.
Each term finishes its own part from the record, bit for bit as from a
pass of its own, so a Theorem 1.3 op runs one pass per x, not three.
D^-(x) builds the record, so a lone D^-(x) at a fresh x pays for the
other two parts, 1.1 to 1.3 times the pass of its own part (README);
R^-(x) only reads one, and alone runs its own three points.  The Machide
triple and the closed form of C(tau) run one theta pass per call.  The
shifted symbols read B_1 and B_2 alone, and the theta pass gives them
from a formula of its own, so no shifted symbol runs the Lambert B_m
series of the Bernoulli route and of `machide_sum`.
E_2 where a symbol reads it by itself, and `_reciprocity_rhs_of` as the
identity record reads it, run at tau itself; R^-(x) reads E_2 at tau'
and its quasi-modular shift instead.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .exact import CoprimePair, _checked_int
from .qseries import (
    DEFAULT_POLICY,
    TWO_PI_I,
    ComplexArray,
    ComplexVal,
    EisensteinTable,
    SeriesPolicy,
    TauPoint,
    _bernoulli_points,
    _bernoulli_series,
    _by_weight,
    _Checked,
    _LATTICE_EPS,
    _Frame,
    _checked,
    _checked_n,
    _eisenstein,
    _eisenstein_table,
    _frame,
    _fsum,
    _lattice_check,
    _orders,
    _p_deriv_series,
    _read_only,
    _theta_pass,
    _weighted,
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


@lru_cache(maxsize=DIVISION_CACHE_SIZE)
def _division_map(p: int, q: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """q P over the points P of `_half_division_points(p)`, in integers:
    q P = s P' + a lattice point, for P' = (lam', mu') the point of index
    pi of the pair {q P, -q P} and s = +-1, and k = s mu', so that q mu = k
    + p b for b the lattice point's tau-part.  A function f odd and
    periodic on the lattice, B_1 among them, has f(q P) = s f(P'), read
    from f at the half points by pi and s; the bracket zeta - E_2 z + 2 pi
    i mu/p adds its quasi-period 2 pi i k/p, by k.  The half point of a
    pair is its first in row-major order, of flat index r = lam' p + mu',
    and every point before it is a half point but the origin and the
    (p - 1) // 2 points of row 0 past mu = p/2, so pi = r - 1, less
    (p - 1) // 2 from r = p on.  One read-only table per (p, q), from q k
    mod p at k < p and numpy integer ops over the points, with no loop."""
    lam, mu, _ = _half_division_points(p)
    ks = q * np.arange(p)
    i, neg = (c[lam] * p + c[mu] for c in (ks % p, -ks % p))
    r, s = np.minimum(i, neg), 1.0 - 2.0 * (neg < i)
    pi = r - 1 - (p - 1) // 2 * (r >= p)
    return _read_only((pi, s, s * mu[pi]))


def _at_multiple(v: ComplexArray, table) -> ComplexArray:
    """f(q P) at the points P of `_half_division_points(p)` from v = f(P)
    there, for f odd and periodic on the lattice, by the table of (p, q)
    (`_division_map`): s f(P') with the err of f(P'), exactly."""
    return ComplexArray(v.value[table[0]] * table[1], v.err[table[0]])


def _parts(a: ComplexArray, sizes: Sequence[int]) -> List[ComplexArray]:
    """A batch that evaluated several factors at once, cut into consecutive
    parts of the given sizes."""
    return [ComplexArray(a.value[e - n:e], a.err[e - n:e])
            for n, e in zip(sizes, accumulate(sizes))]


@lru_cache(maxsize=DIVISION_CACHE_SIZE)
def _shifted_points(p: int, q: int) -> Tuple[np.ndarray, ...]:
    """What D^-(p, q; x) reads of its points that does not depend on x, one
    read-only table per (p, q) over `_half_division_points(p)`: lam/p; the
    y of the three parts P - x, P + x and qP, -mu/p twice and -q mu/p, and
    2^-53 |y|, their rounding; the rounding 2^-53 lam/p of lam/p in the
    two shifted parts and 0 in the third; the x = q lam/p of qP; and the
    pair weights w/2.  Each coordinate is taken mod 1 first, as (k mod p)/p
    from integers, which moves no value of B_1, periodic in x and y, and
    keeps its exponentials' arguments small."""
    lam, mu, w = _half_division_points(p)
    lp, y, q = lam / p, -mu % p / p, q % p
    ys = np.concatenate((y, y, -q * mu % p / p))
    dlp = 2.0**-53 * np.concatenate((lp, lp, 0 * lp))
    return _read_only((lp, ys, 2.0**-53 * ys, dlp, q * lam % p / p, w / 2))


def _shifted_coords(p: int, q: int, x: float):
    """The points P - x, P + x and qP of D^-(p, q; x), one block each over
    the points P of `_half_division_points(p)`, as coordinates x', y and
    the bounds dx, dy on their roundings (`_shifted_points`)."""
    lp, ys, dys, dlp, xq, _ = _shifted_points(p, q)
    xs = np.concatenate((lp - x, lp + x, xq))
    return xs, ys, 2.0**-53 * np.abs(xs) + dlp, dys


def _real(v, name: str) -> float:
    """v as a Python float, where it is a real number (`numbers.Real`: a
    numpy float32, a Fraction, an int), so that every product and sum with
    it rounds in binary64 and equals the call at float(v) bit for bit;
    anything else raises TypeError."""
    if not isinstance(v, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {v!r}")
    return float(v)


def _real_coords(p: int, q: int, x: float):
    """The real points p x, q x and x of R^-(p, q; x), as coordinates x', y
    and the bounds dx, dy on their roundings: 2^-53 |p x| and 2^-53 |q x|
    of the two products, and 0 for x and every y."""
    xs = np.array([p * x, q * x, x])
    return xs, np.zeros(3), 2.0**-53 * np.abs(xs * (1, 1, 0)), np.zeros(3)


def _real_points(p: int, q: int, x: float, name: str, what: str) -> None:
    """The checks of the real points of R^-(p, q; x) and of Prop. 3.1 at
    s = x: the window 0 < |x| < 1/(2 max(p, q)), which keeps them off every
    lattice point but 0, and the lattice check, which rejects an x too near
    0, naming `what`.  In the window |x| <= |q x| <= |p x| <= 1/2, so a
    point is within _LATTICE_EPS of the lattice only where x is, and the
    check runs only there."""
    if not 0 < abs(x) < 1 / (2 * max(p, q)):
        raise ValueError(f"need 0 < |{name}| < 1/(2 max(p,q)), got {x}")
    if abs(x) <= _LATTICE_EPS:
        xs = _real_coords(p, q, x)[0]
        _lattice_check(xs, np.zeros(3), lambda i: f"{what}: the point {xs[i]} is a lattice point")


#: entries of the Theorem 1.3 records (`_theorem13`): one record per
#: (pair, record of tau, x), which the terms of Theorem 1.3 at that x read
#: in turn; bounded, as each call may bring a fresh x
THEOREM13_CACHE_SIZE = 4

#: the Theorem 1.3 records by key, oldest first
_RECORDS: dict = {}

class _Theorem13(NamedTuple):
    """What the terms of Theorem 1.3 at one (p, q, tau, x) read of one
    theta pass: the frame's record and reduction (`frame`, its points
    dropped); for each D^-(u, v; x) the pass served, keyed (u, v), B_1 at
    its points (`_shifted_coords`); and where R^-(x) is defined the pair
    (a, b) whose real points the pass ran, and B_1 and B_2 at (a x, b x,
    x), else None."""

    frame: _Frame
    shifted: dict
    reals: Optional[tuple]


def _theorem13(p: int, q: int, at: _Checked, x: float, want: str) -> _Theorem13:
    """The record of D^-(p, q; x), D^-(q, p; x) and R^-(p, q; x) at `at`'s
    tau that holds the caller's part `want`, which the caller has checked:
    "D" for D^-(p, q; x), "R" for R^-(p, q; x), "P" for all three (Prop.
    3.1).

    One record per (pair, `at`, x), the pair in either order, is kept, in
    at most THEOREM13_CACHE_SIZE entries, the oldest dropped first.  Where
    none is kept, D^-(x) and Prop. 3.1 run one pass over every part
    defined at the key, and keep it: D^-(u, v; x) for each order (u, v) of
    the pair where u >= 1 and |x| < 1/(2u), and R^-(x) where the pair is in
    U and its window and lattice check pass (`_real_points`); so a Theorem
    1.3 op at one x, which calls D^-(x) first, runs one pass for its three
    terms.  R^-(x) reads a kept record but builds none: alone, it runs its
    own three points.  A pass that raises is rerun with the caller's part
    alone, as the caller's own pass would run it, and that record is not
    kept, so a part the caller did not ask for never changes what the
    caller returns or raises.  x is a Python float (`_real`), so equal keys
    mean equal bits (x = -0.0 and 0.0 too, as lam/p -+ x and a zero
    product move no bit between them)."""
    key = (max(p, q), min(p, q), at, x) if q >= 1 else (p, q, at, x)
    rec = _RECORDS.get(key)
    if rec is not None:
        return rec
    mine = [] if want == "R" else [(p, q)] if want == "D" else [(p, q), (q, p)]
    if want == "R":
        return _pass13(mine, want != "D", p, q, at, x)
    a, b = key[:2]
    reals = b >= 1
    if reals:
        try:
            _real_points(a, b, x, "x", "R^-")
        except ValueError:
            reals = False
    every = [(u, v) for u, v in ((a, b), (b, a)) if u >= 1 and abs(x) < 1 / (2 * u)]
    try:
        rec = _pass13(every, reals, a, b, at, x)
    except Exception:
        return _pass13(mine, want != "D", p, q, at, x)
    if len(_RECORDS) >= THEOREM13_CACHE_SIZE:
        del _RECORDS[next(iter(_RECORDS))]
    _RECORDS[key] = rec
    return rec


def _pass13(pairs, reals: bool, p: int, q: int, at: _Checked, x: float) -> _Theorem13:
    """One frame and one theta pass (`qseries._theta_pass`) for
    `_theorem13`: B_1 at the points of each D^-(u, v; x) of `pairs`
    (`_shifted_coords`), in their order, and with `reals`, after them, B_1
    and B_2 at (p x, q x, x)."""
    blocks = [_shifted_coords(u, v, x) for u, v in pairs]
    if reals:
        blocks.append(_real_coords(p, q, x))
    xs, ys, dx, dy = (np.concatenate(c) for c in zip(*blocks))
    f = _frame(xs, ys, at, (dx, dy))
    b1, b2 = _theta_pass(f.x, f.y, f.at, f.arg_err, slice(len(xs) - 3 * reals, None))
    cut = _parts(b1, [len(block[0]) for block in blocks])
    real = ((p, q), cut.pop(), b2) if reals else None
    return _Theorem13(f._replace(x=None, y=None, arg_err=None), dict(zip(pairs, cut)), real)


def _shifted_sum(rec: _Theorem13, p: int, q: int) -> ComplexVal:
    """(1/p) sum_pairs (B_1(P - x) + B_1(P + x)) B_1(qP) w/2 of D^-(p, q; x),
    from B_1 at its points in the record."""
    w = _shifted_points(p, q)[5]
    minus, plus, second = _parts(rec.shifted[p, q], [len(w)] * 3)
    return _fsum(_weighted((minus + plus) * second, w)) * (1.0 / p)


def _heat_form(pair: CoprimePair, rec: _Theorem13) -> ComplexVal:
    """R^-(p, q; x) from B_1 and B_2 at p x, q x and x of the record:

        -B_1(px) B_1(qx) + B_2(px) q/2p + B_2(qx) p/2q
            + (B_1(x)^2 - B_2(x) + E_2 / (2 pi i)^2) / pq,

    the one home of this form, which R^-(x) and Prop. 3.1 share, at the
    frame's tau.  The B-part is of weight 2: it leaves the frame once,
    times m^-2 (`_Frame.back_sum`).  E_2 at the caller's tau is E_2 at the
    frame's on F, else m^-2 E_2(tau') + 2 pi i c / m
    (`_Reduction.e2_shift`), so that no E_2 is read at tau itself."""
    p, q = pair.p, pair.q
    f = rec.frame
    # the reals in the order of the pair whose real points the pass ran
    made, *b = rec.reals
    order = (0, 1, 2) if made == (p, q) else (1, 0, 2)
    (u1, v1, s1), (u2, v2, s2) = ([c[i] for i in order] for c in b)
    out = -(u1 * v1) + u2 * (q / (2 * p)) + v2 * (p / (2 * q)) + (s1 * s1 - s2) * (1.0 / (p * q))
    e2 = _eisenstein(1, f.at)
    if f.red is not None:
        e2 = e2 * f.red.weight(2) + f.red.e2_shift()
    return f.back_sum(out, 2) + e2 * (1.0 / ((TWO_PI_I**2).real * p * q))


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

    with q* q = 1 (mod p).  `route` is a Route or its value; any other raises
    ValueError.

    Both routes are one path, `_route_sum` at the record that
    `qseries._by_weight` gives it, D being of weight 2n + 2: on the closed
    F the caller's tau, else tau' = gamma tau in F, over the division points
    of tau', times m^-(2n+2).  Each route is one series pass of two orders
    over one point per pair {P, -P}, the zeta route's of the pe family at
    orders 2n - 1 and -1, whose order -1 gives the bracket, the Bernoulli
    route's of the Lambert series at orders 1 and 2n + 1; the factor at
    q P or q* P is read back from the same points through an integer
    table, which moves no bit.  So the two routes share no series kernel.
    Its err charges the correctly rounded coordinates of every point as the
    series' argument errors, and off F the error of tau' and that of
    m^-(2n+2).  The route's constant multiplies the reduced sum.
    """
    route, n = Route(route), _checked_n(n)
    p = pair.p
    total = _by_weight(2 * n + 2, lambda a: _route_sum(route, n, pair, a), _checked(tau, policy))
    if route is Route.ZETA_DERIVATIVE:
        const = 1.0 / ((TWO_PI_I**2).real * p * math.factorial(2 * n))
    else:
        const = -(TWO_PI_I ** (2 * n)) * p ** (2 * n - 1) / math.factorial(2 * n + 1)
    return EllipticSumResult(total * const, route, p, pair.q, n, tau)


#: a sum over no division points, as `_fsum` adds nothing: 0 with err 0
_EMPTY_SUM = ComplexVal(0j, 0.0)


def _coordinate_err(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """2^-53 |x| and 2^-53 |y|: the errors of correctly rounded coordinates
    x and y, as the argument errors of a series (`_Frame.arg_err`)."""
    return 2.0**-53 * np.abs(x), 2.0**-53 * np.abs(y)


def _route_sum(route: Route, n: int, pair: CoprimePair, at: _Checked) -> ComplexVal:
    """The double sum of `route` before its constant, over the division
    points of the tau of `at`, whatever record it is, paired as
    `_half_division_points` pairs them, from one series pass over the
    half points, the factor at q P or q* P read back through the integer
    table of (p, q) or (p, q*) (`_division_map`).

    ZETA_DERIVATIVE: zeta^{(2n)}(z) = -pe^{(2n-1)}(z) times the bracket
    zeta(q z) - E_2 q z + 2 pi i q mu/p at z = x - y tau, x = lam/p and y
    = -mu/p, both from one pass of the pe family at orders (2n - 1, -1)
    (`_p_deriv_series`): the bracket is zeta - E_2 z - 2 pi i y =
    -pe^(-1)(z) + 2 pi i mu/p, odd and periodic, so at q P it is s
    (-pe^(-1)(P')) + 2 pi i k/p.  BERNOULLI_PRODUCT: B_{2n+1}(-lam/p, mu/p)
    times B_1(-q* lam/p, q* mu/p) = s B_1 at P', both from one Lambert
    pass at orders (1, 2n + 1) (`_bernoulli_series`).  So the two routes
    share no series kernel.  The factors come straight from the series:
    each coordinate is correctly rounded, so within 2^-53 of itself, which
    err charges as the argument errors of the series (`_coordinate_err`),
    and `at.dtau` with tau; the table moves no bit.  No point needs a
    check or a snap: y is a multiple of 1/p, an integer only where it is
    exactly 0, and x and y are integers together only at the origin,
    which the division points skip.  At the caller's own record this is
    the route held at tau."""
    p, q = pair.p, pair.q
    lam, mu, w = _half_division_points(p)
    if not len(lam):
        # p = 1: the empty sum, with no frame and no pass
        return _EMPTY_SUM
    if route is Route.ZETA_DERIVATIVE:
        x, y = lam / p, -mu / p
        first, pe_1 = _orders(_p_deriv_series((2 * n - 1, -1), x, y, at, _coordinate_err(x, y)))
        # zeta^(2n)(P) times the bracket at q P is -pe^(2n-1)(P) times
        # s (-pe^(-1)(P')) + 2 pi i k/p: both factors' signs flipped, exactly
        table = _division_map(p, q)
        second = _at_multiple(pe_1, table) - ComplexArray(TWO_PI_I * (table[2] / p), 0.0)
    else:
        x, y = -lam / p, mu / p
        b1, first = _orders(_bernoulli_series((1, 2 * n + 1), x, y, at, _coordinate_err(x, y)))
        second = _at_multiple(b1, _division_map(p, pow(q % p, -1, p)))
    return _fsum(_weighted(first * second, w))


def reciprocity_rhs(n: int, pair: CoprimePair, tau: TauPoint,
                    policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """The reciprocity function R^-_{2n}(p, q; tau) in closed form:

        -1/((2 pi i)^2 pq) [ sum_{j=1}^{n} E_{2j} E_{2n+2-2j} p^{2j} q^{2n+2-2j}
                             - E_{2n+2} (p^{2n+2} + q^{2n+2})
                             - (2n+1) E_{2n+2} ]
        - 1/(4 pi i n) dE_{2n}/dtau (p^{2n-1} q + p q^{2n-1}).

    R being of weight 2n + 2, the closed form is evaluated at the record
    that `qseries._by_weight` gives it: on the closed F the caller's tau,
    else tau' = gamma tau in F, a few terms per q-sum, times m^-(2n+2).
    There each Eisenstein value charges the error dtau of tau' in its err
    through the error of q, and err adds the error of m^-(2n+2).  The
    identity record (`_reciprocity_rhs_of`) reads R at tau itself.
    """
    pair.require_u()
    n, at = _checked_n(n), _checked(tau, policy)
    return _by_weight(2 * n + 2,
                      lambda a: _reciprocity_rhs_of(n, pair, _eisenstein_table(n, a)), at)


def _reciprocity_rhs_of(n: int, pair: CoprimePair, table: EisensteinTable) -> ComplexVal:
    """`reciprocity_rhs` from the Eisenstein table of (n, tau), for a pair in U."""
    e_top, prods, de = table
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
    of two odd-symbol brackets, the first shifted by x,

        1/((2 pi i)^2 p) sum_{P != 0} beta(P - x) beta(qP),

    over the p-division points P = (lam + mu tau)/p, of the bracket
    beta(z) = zeta(z) - E_2 z - 2 pi i y at z = x' - y tau (y = -mu/p at P
    and P - x, -q mu/p at qP).  That bracket is the Kronecker form
    -2 pi i B_1(x', y; tau), so

        D^-(x) = (1/p) sum_pairs (B_1(P - x) + B_1(P + x)) B_1(qP) w/2,

    over one point of each pair {P, -P}, as B_1(-P -+ x) = -B_1(P +- x).
    The B_1 factors come from one theta pass at the frame's points, the
    Theorem 1.3 record's (`_theorem13`), and the sum, of weight 2,
    leaves the frame once, times m^-2
    (`_Frame.back_sum`).  The coordinates, P -+ x at x' = lam/p -+ x and
    qP at x' = q lam/p, with y = -mu/p and -q mu/p, come from one table
    per (p, q) (`_shifted_points`); each quotient and each sum lam/p -+ x
    is correctly rounded, and err charges those roundings as the pass's
    argument errors.  |x| < 1/(2p) keeps P -+ x off the lattice, so no
    point needs a lattice check.  At p = 1 the sum is empty: 0 with err 0,
    with no frame and no pass."""
    p, x = pair.p, _real(x, "x")
    if not abs(x) < 1 / (2 * p):
        raise ValueError(f"x must be finite with |x| < 1/(2p) = {1/(2*p)}, got {x}")
    at = _checked(tau, policy)
    if p == 1:
        # the signed zeros of the bracket form's empty sum
        return _EMPTY_SUM * (1.0 / (TWO_PI_I**2).real)
    rec = _theorem13(p, pair.q, at, x, "D")
    return rec.frame.back_sum(_shifted_sum(rec, p, pair.q), 2)


def generating_R(pair: CoprimePair, tau: TauPoint, x: float,
                 policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """Generating function R^-(p, q; tau; x), by the heat identity
    pe = (2 pi i)^2 (B_1^2 - B_2) of the elliptic Bernoulli functions at
    y = 0: the zeta-product block -(zeta - E_2 z)(p x) (zeta - E_2 z)(q x)
    / (2 pi i)^2 is -B_1(px) B_1(qx), each sigma-log block
    ((zeta - E_2 z)^2 - pe) / (2 pi i)^2 at c x is B_2(cx), and
    (pe(x) + E_2) / (2 pi i)^2 is B_1(x)^2 - B_2(x) + E_2 / (2 pi i)^2
    (`_heat_form`).  B_1 and B_2 at p x, q x and x come from one theta
    pass (`qseries._theta_pass`), with no zeta or pe pass: the Theorem 1.3
    record's where one is kept (`_theorem13`), else one of their own.  The
    points are real: p x and q x, correctly rounded products whose
    rounding err charges, and x; |x| < 1/(2 max(p,q)) keeps them off every
    lattice point but 0, and the lattice check (`qseries._lattice_check`)
    rejects an x too near 0."""
    pair.require_u()
    x = _real(x, "x")
    _real_points(pair.p, pair.q, x, "x", "R^-")
    return _heat_form(pair, _theorem13(pair.p, pair.q, _checked(tau, policy), x, "R"))


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
        # the integer fields as ints (`_checked_int`), before math.gcd or a
        # kernel reads them
        for f in ("vec_a", "vec_b", "vec_c"):
            object.__setattr__(self, f, tuple(_checked_int(u, f) for u in getattr(self, f)))
        for f in ("m", "n"):
            object.__setattr__(self, f, _checked_int(getattr(self, f), f))
        for name, (u, v) in (("a", self.vec_a), ("b", self.vec_b), ("c", self.vec_c)):
            if u < 1 or v < 1:
                raise ValueError(f"vec_{name} components must be positive integers")
        if self.m < 0 or self.n < 0:
            raise ValueError("m, n must be >= 0")
        if not all(map(math.isfinite, (*self.vec_x, *self.vec_y, *self.vec_z))):
            raise ValueError("vec_x, vec_y and vec_z components must be finite")
        (ap, _), (bp, _), (cp, _) = self.vec_a, self.vec_b, self.vec_c
        (xp, _), (yp, _), (zp, _) = self.vec_x, self.vec_y, self.vec_z
        if _in_integer_multiples(ap * zp - cp * xp, math.gcd(ap, cp)):
            raise ValueError("degenerate spec: a'z' - c'x' in gcd(a',c') Z (or within 1e-9)")
        if _in_integer_multiples(bp * zp - cp * yp, math.gcd(bp, cp)):
            raise ValueError("degenerate spec: b'z' - c'y' in gcd(b',c') Z (or within 1e-9)")


def _machide_points(spec: MachideSpec) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    """The points (x, y) of the two elliptic Bernoulli factors of
    S^tau_{m,n} over 0 <= j' < c', 0 <= j < c: those of B_m at
    (a'(j'+z')/c' - x', a(j+z)/c - x) and those of B_n at
    (b'(j'+z')/c' - y', b(j+z)/c - y).  They depend on the spec's vectors
    alone, not on m and n."""
    ap, a = spec.vec_a
    bp, b = spec.vec_b
    cp, c = spec.vec_c
    xp, x = spec.vec_x
    yp, y = spec.vec_y
    zp, z = spec.vec_z
    j, jp = _grid(c, cp)
    return ((ap * (jp + zp) / cp - xp, a * (j + z) / c - x),
            (bp * (jp + zp) / cp - yp, b * (j + z) / c - y))


def machide_sum(spec: MachideSpec, tau: TauPoint,
                policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """S^tau_{m,n}: the (1/c') double residue-class sum of two elliptic
    Bernoulli factors at the rescaled parameters (a'/a) tau and (b'/b) tau.
    The product of two large factors may leave binary64 with no numpy
    warning: the sum, a `ComplexVal`, is checked as it is built."""
    ap, a = spec.vec_a
    bp, b = spec.vec_b
    m, n = spec.m, spec.n
    (x1, y1), (x2, y2) = _machide_points(spec)
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

    The three use eight distinct sums over the three arrangements.  Each
    arrangement is checked once (`MachideSpec`), in the order the sums
    first meet it, A2, A3, A1, so that a degenerate (s, t) raises the first
    sum's error, and its factor points are formed once.  Every vector has
    equal components, so both factors of each sum take the caller's tau,
    not a rescaled one.  The sixteen factors read six point sets, all six
    at order 1 and five of them at order 2, from one theta pass
    (`qseries._theta_pass`), whose err charges the rounding of their
    coordinates; the five B_0 = 1 among them run none.
    """
    pair.require_u()
    p, q = pair.p, pair.q
    s, t = _real(s, "s"), _real(t, "t")
    a, b, c = 1, p, q
    va, vb, vc = (1, 1), (p, p), (q, q)
    vx, vy, vz = (s, 0.0), (p * t, 0.0), (-q * t, 0.0)
    specs = {2: MachideSpec(vb, vc, va, vy, vz, vx, 0, 0),
             3: MachideSpec(vc, va, vb, vz, vx, vy, 0, 0),
             1: MachideSpec(va, vb, vc, vx, vy, vz, 0, 0)}
    points = {k: _machide_points(spec) for k, spec in specs.items()}
    # the point sets (arrangement, factor), the one that no B_2 reads first
    sets = [(3, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 1)]
    sizes = [len(points[k][i][0]) for k, i in sets]
    x, y = (np.concatenate([points[k][i][u] for k, i in sets]) for u in (0, 1))
    at = _checked(tau, policy)
    _lattice_check(x, y, lambda i: (f"B_1({float(x[i])}, {float(y[i])}; tau): "
                                    "x - y*tau is a lattice point"))
    # each x = a'(j' + z')/c' - x', x' one of s, pt and -qt, rounds four
    # times, each y = a j / c once
    offset = max(abs(s), abs(p * t), abs(q * t))
    f = _frame(x, y, at, (2.0**-53 * (4.0 * np.abs(x) + 3.0 * offset), 2.0**-53 * np.abs(y)))
    b1, b2 = _theta_pass(f.x, f.y, f.at, f.arg_err, slice(sizes[0], None))
    # B_0 = 1 with err 0, and B_1 and B_2 back from the frame by weight
    factors = {0: {k: ComplexArray(np.ones(n, dtype=complex), np.zeros(n))
                   for k, n in zip(sets, sizes)},
               1: dict(zip(sets, _parts(f.back(b1, 1, "B_1"), sizes))),
               2: dict(zip(sets[1:], _parts(f.back(b2, 2, "B_2"), sizes[1:])))}
    keys = [(2, 2, 0), (3, 0, 2), (1, 2, 0), (2, 0, 2),
            (1, 0, 2), (1, 1, 1), (2, 1, 1), (3, 1, 1)]
    S = {(k, m, n): _fsum(factors[m][k, 0] * factors[n][k, 1]) * (1.0 / specs[k].vec_c[0])
         for k, m, n in keys}

    r1 = S[2, 2, 0] * (-c / (2 * b)) + S[3, 0, 2] * (c / (2 * a))
    r2 = S[1, 2, 0] * (b / (2 * a)) - S[2, 0, 2] * (b / (2 * c))
    r3 = (S[1, 0, 2] * (a / (2 * b)) - S[1, 1, 1]
          + S[1, 2, 0] * (b / (2 * a))
          - S[2, 1, 1] - S[2, 2, 0] * (c / (2 * b))
          + S[3, 0, 2] * (c / a) - S[3, 1, 1])
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
    same with p and q swapped, which mu -> -mu turns into D^-(p, q; s) +
    D^-(q, p; s), summed at the points of `generating_D`.  The right side
    is R^-(p, q; s) (`_heat_form`), as dB_1(s, 0)/ds = 2 pi i (B_1(s)^2 -
    B_2(s)) + E_2 / (2 pi i) by the heat identity, so the residual is
    Theorem 1.3's D^-(p, q; s) + D^-(q, p; s) - R^-(p, q; s), read from the
    same record (`_theorem13`) as those three at x = s: one theta pass,
    B_1 at the six division-point groups and at (ps, qs, s), B_2 at
    (ps, qs, s) only.  The left side, of weight 2, leaves the frame once,
    times m^-2."""
    pair.require_u()
    p, q, s = pair.p, pair.q, _real(s, "s")
    _real_points(p, q, s, "s", "Prop. 3.1")
    rec = _theorem13(p, q, _checked(tau, policy), s, "P")
    lhs = _shifted_sum(rec, p, q) + _shifted_sum(rec, q, p)
    return rec.frame.back_sum(lhs, 2) - _heat_form(pair, rec)


def proposition31_constant_closed_form(pair: CoprimePair, tau: TauPoint,
                                       policy: SeriesPolicy = DEFAULT_POLICY) -> ComplexVal:
    """C(tau) via the residue-class closed form (1/2pq) sum B_2(p l/q, p m/q).

    The (0,0) term is the regular value B_2(0, 0; tau) =
    -(1/ pi i)(1/(2 pi i)) E_2(tau), the constant term of the tau-derivative
    expansion of B_2(x, 0; tau) at x = 0.  The sum over the other points
    vanishes, within its err, so the value is `expected_constant` plus
    rounding: no independent route to C(tau).  B_2 at the points comes from
    one theta pass (`qseries._theta_pass`) in their frame, back by weight 2,
    and err charges their correctly rounded coordinates (`_coordinate_err`).
    """
    pair.require_u()
    p, q = pair.p, pair.q
    at = _checked(tau, policy)
    b2_origin = _eisenstein(1, at) * (-1.0 / (1j * math.pi * TWO_PI_I))
    lam, mu, w = _half_division_points(q)
    x, y = p * lam / q, p * mu / q
    f = _frame(x, y, at, _coordinate_err(x, y))
    b2 = f.back(_theta_pass(f.x, f.y, f.at, f.arg_err)[1], 2, "B_2")
    return _fsum(b2_origin, _weighted(b2, w)) * (1.0 / (2 * p * q))
