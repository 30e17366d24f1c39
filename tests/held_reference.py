"""The elliptic Bernoulli functions held at a given checked record, unreduced:
each B_m from `qseries._bernoulli_series` at the record it is handed, the
caller's own tau or any other, with no reduction of tau.  The kernel takes
its points through `qseries._frame` and reduces B_m by its weight; these
are the oracle that keeps that law tested, through the Bernoulli route of
the elliptic Apostol-Dedekind sum held at tau, and they reach the long
series that a tau far from the fundamental domain asks for."""

import math

import numpy as np

from ellded import qseries, symbols
from ellded.qseries import TWO_PI_I, ComplexArray


def bernoulli_points_at(m, x, y, at, arg_err=(0.0, 0.0)):
    """B_m at the points (x, y) at the record `at` itself: a y within
    1e-12 of an integer snapped to it, the shift added to the error of y,
    and one `_bernoulli_series` pass per order >= 1, in ascending order.
    `m` is one order or one per point; `arg_err` = (dx, dy) bounds the
    errors of x and y, as in `qseries._Frame`."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = np.broadcast_to(m, x.shape)
    snapped = qseries._snap(y)
    dx = np.broadcast_to(arg_err[0], x.shape)
    dy = np.broadcast_to(arg_err[1] + np.abs(y - snapped), x.shape)
    out = ComplexArray(np.ones(len(x), dtype=complex), np.zeros(len(x)))
    for k in sorted(set(m.tolist()) - {0}):
        on = m == k
        b = qseries._bernoulli_series(k, x[on], snapped[on], at, (dx[on], dy[on]))
        out.value[on], out.err[on] = b.value, b.err
    return out


def bernoulli_route_at(n, pair, at):
    """D^-_{2n}(p, q; tau) by the Bernoulli route of
    `symbols.elliptic_apostol_sum`, with both factors from
    `bernoulli_points_at` at the record `at`, unreduced."""
    p, q = pair.p, pair.q
    lam, mu, w = symbols._half_division_points(p)
    q_inv = pow(q % p, -1, p) if p > 1 else 0
    b_hi = bernoulli_points_at(2 * n + 1, -lam / p, mu / p, at)
    b_lo = bernoulli_points_at(1, -q_inv * lam / p, q_inv * mu / p, at)
    total = symbols._fsum(symbols._weighted(b_hi * b_lo, w))
    return total * (-(TWO_PI_I ** (2 * n)) * p ** (2 * n - 1) / math.factorial(2 * n + 1))
