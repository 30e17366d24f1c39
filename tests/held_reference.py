"""The elliptic Bernoulli functions held at a given checked record, unreduced:
each B_m from `qseries._bernoulli_series` at the record it is handed, the
caller's own tau or any other, with no reduction of tau.  The kernel takes
its points through `qseries._frame` and reduces B_m by its weight; these
are the oracle that keeps that law tested, and they reach the long series
that a tau far from the fundamental domain asks for.  The Bernoulli route
of the elliptic Apostol-Dedekind sum held at tau is the package's own
`symbols._route_sum` at the caller's record."""

import numpy as np

from ellded import qseries
from ellded.qseries import ComplexArray


def bernoulli_points_at(m, x, y, at, arg_err=(0.0, 0.0)):
    """B_m at the points (x, y) at the record `at` itself: a y within
    1e-12 of an integer snapped to it, the shift added to the error of y,
    and one `_bernoulli_series` pass per order >= 1, in ascending order.
    `m` is one order or one per point; `arg_err` = (dx, dy) bounds the
    errors of x and y, as in `qseries._Frame`."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = np.broadcast_to(m, x.shape)
    snapped = qseries._snap_err(y, 0.0)[0]
    dx = np.broadcast_to(arg_err[0], x.shape)
    dy = np.broadcast_to(arg_err[1] + np.abs(y - snapped), x.shape)
    out = ComplexArray(np.ones(len(x), dtype=complex), np.zeros(len(x)))
    for k in sorted(set(m.tolist()) - {0}):
        on = m == k
        b, = qseries._orders(qseries._bernoulli_series((k,), x[on], snapped[on], at,
                                                       (dx[on], dy[on])))
        out.value[on], out.err[on] = b.value, b.err
    return out
