"""Seeded op lists for the benchmark workloads, the ops themselves, and the
verdict each op gets from the package's own pass rules.

Every op calls the public functions that the `ellded verify` handlers call.
Functions are looked up through their module at call time, so the tracer in
`spans.py` sees them once it has rebound the module attributes.

Inputs are drawn stratified: each op kind gets a fixed share of the list, and
within a kind every discrete choice (n, w, Im tau, ...) appears equally often
and every log-uniform size is drawn one per quantile stratum.  The seed then
moves individual values but not the mix, so the work in a run, and with it
the throughput, changes little from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ellded import exact, identities, qseries, symbols
from ellded.cli import CHECK_TOLS
from ellded.exact import CoprimePair
from ellded.qseries import SeriesPolicy, TauPoint
from ellded.symbols import Route

TWO_PI_SQ = (2 * math.pi) ** 2


class Op(NamedTuple):
    """One benchmark operation.  `n` is the weight parameter of the kind
    (n, or w for the exact, eq64 and basis-rank kinds); unused fields are 0."""

    kind: str
    n: int
    p: int
    q: int
    tau: complex
    extra: Tuple[float, ...] = ()


@dataclass(frozen=True)
class Check:
    """One residual against its tolerance.  `residual` is an exact Fraction
    for the exact family and a float otherwise; `err` is the package's own
    error bound on the residual, where it reports one."""

    family: str
    residual: object
    tol: Optional[float]
    err: Optional[float]
    passed: bool


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


def _tol_check(family: str, val: qseries.ComplexVal) -> Check:
    tol = CHECK_TOLS[family]
    r = abs(val.value)
    return Check(family, r, tol, val.err, r < tol)


def _worst(family: str, vals: List[qseries.ComplexVal]) -> Check:
    """The largest residual of several, with the error bound of that one."""
    return _tol_check(family, max(vals, key=lambda v: abs(v.value)))


def op_apostol(op: Op) -> List[Check]:
    res = exact.verify_apostol_reciprocity(op.n, CoprimePair(op.p, op.q))
    return [Check("apostol-reciprocity", res, None, None, res == 0)]


def op_cross_route(op: Op) -> List[Check]:
    pair, tau = CoprimePair(op.p, op.q), TauPoint(op.tau)
    a = symbols.elliptic_apostol_sum(op.n, pair, tau, Route.ZETA_DERIVATIVE).value
    b = symbols.elliptic_apostol_sum(op.n, pair, tau, Route.BERNOULLI_PRODUCT).value
    d = a - b
    r = abs(d.value)
    # acceptance criterion 11: the routes agree within their combined err
    return [Check("cross-route", r, d.err, d.err, r <= d.err)]


def op_thm11(op: Op) -> List[Check]:
    pair, tau = CoprimePair(op.p, op.q), TauPoint(op.tau)
    d = symbols.elliptic_apostol_sum(op.n, pair, tau, Route.ZETA_DERIVATIVE).value
    d_swap = symbols.elliptic_apostol_sum(op.n, CoprimePair(op.q, op.p), tau,
                                          Route.ZETA_DERIVATIVE).value
    r = symbols.reciprocity_rhs(op.n, pair, tau)
    return [_tol_check("thm11.reciprocity", d + d_swap - r)]


def op_thm13(op: Op) -> List[Check]:
    pair, tau = CoprimePair(op.p, op.q), TauPoint(op.tau)
    swapped = CoprimePair(op.q, op.p)
    vals = [symbols.generating_D(pair, tau, x) + symbols.generating_D(swapped, tau, x)
            - symbols.generating_R(pair, tau, x) for x in op.extra]
    const = symbols.expected_constant(pair, tau)
    return [
        _worst("thm13.constancy", [a - b for a in vals for b in vals]),
        _tol_check("thm13.constant", vals[0] - const),
    ]


def op_prop31(op: Op) -> List[Check]:
    pair, tau = CoprimePair(op.p, op.q), TauPoint(op.tau)
    s1, s2 = op.extra
    r1 = symbols.proposition31_residual(pair, s1, tau)
    r2 = symbols.proposition31_residual(pair, s2, tau)
    const = symbols.expected_constant(pair, tau)
    closed = symbols.proposition31_constant_closed_form(pair, tau)
    return [
        _tol_check("prop31.constancy", r1 - r2),
        _tol_check("prop31.constant", r2 - const),
        _tol_check("prop31.closed-form", r2 - closed),
    ]


def op_lemma32(op: Op) -> List[Check]:
    s, t = op.extra
    rs = symbols.machide_reciprocity_residuals(CoprimePair(op.p, op.q), s, t,
                                               TauPoint(op.tau))
    return [_tol_check("lemma32", r) for r in rs]


def op_eq73(op: Op) -> List[Check]:
    n, tau = op.n, TauPoint(op.tau)
    tol = CHECK_TOLS["eq73"]
    scale = identities.coefficient_scale(n, tau)
    checks = []
    for k in range(1, 2 * n + 3):
        r = identities.verify_eq73(n, k, tau)
        rel = abs(r.value) / scale
        checks.append(Check("eq73", rel, tol, r.err / scale, rel < tol))
    return checks


def op_eq64(op: Op) -> List[Check]:
    w, tau = op.n, TauPoint(op.tau)
    tol = CHECK_TOLS["eq64"]
    res = identities.verify_eq64_onedim(w, tau)
    lhs, _ = identities.reciprocity_laurent(w, tau)
    # the scale `ellded verify eq64` divides by
    denom = max(lhs.max_abs_coeff(),
                identities.coefficient_scale(w // 2, tau) / TWO_PI_SQ)
    rel = res.max_abs_coeff() / denom
    return [Check("eq64", rel, tol, None, rel < tol)]


def op_three_term(op: Op) -> List[Check]:
    r = identities.verify_three_term(op.n, CoprimePair(op.p, op.q), TauPoint(op.tau))
    return [_tol_check("three-term", r)]


def op_basis_rank(op: Op) -> List[Check]:
    num_tau, tau_seed = op.extra
    taus = identities.random_taus(int(num_tau), int(tau_seed))
    rank = identities.basis_rank(op.n, taus)
    d, _ = exact.dim_data(op.n)
    miss = float(abs(rank - (d + 1)))
    tol = CHECK_TOLS["basis-rank"]
    return [Check("basis-rank", miss, tol, None, miss < tol)]


#: op kind -> (runner, check families it reports)
KINDS: Dict[str, Tuple[Callable[[Op], List[Check]], Tuple[str, ...]]] = {
    "apostol": (op_apostol, ("apostol-reciprocity",)),
    "cross-route": (op_cross_route, ("cross-route",)),
    "thm11": (op_thm11, ("thm11.reciprocity",)),
    "thm13": (op_thm13, ("thm13.constancy", "thm13.constant")),
    "prop31": (op_prop31, ("prop31.constancy", "prop31.constant",
                           "prop31.closed-form")),
    "lemma32": (op_lemma32, ("lemma32",)),
    "eq73": (op_eq73, ("eq73",)),
    "eq64": (op_eq64, ("eq64",)),
    "three-term": (op_three_term, ("three-term",)),
    "basis-rank": (op_basis_rank, ("basis-rank",)),
}


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

DIVISION_IM_TAUS = (1.1, 0.3, 0.11, 0.06)


def _balanced(rng: random.Random, m: int, values) -> list:
    """m picks in which every value appears equally often (up to one)."""
    out = [values[i % len(values)] for i in range(m)]
    rng.shuffle(out)
    return out


def _split(m: int, values) -> List[Tuple[object, int]]:
    """Share m ops out over values as evenly as possible."""
    k = len(values)
    return [(v, m // k + (i < m % k)) for i, v in enumerate(values)]


def _lattice(rng: random.Random, m: int,
             shift: Optional[float] = None) -> List[Tuple[float, float]]:
    """m points of a shifted rank-1 lattice in [0, 1)^2, shuffled.

    Each coordinate alone hits every stratum [i/m, (i+1)/m) once, and the
    pairs spread evenly over the square, so sums over the points, and their
    quantiles, move much less with the seed than independent draws would.
    The shift of the first coordinate is `shift`, or random if None; the
    second's is random.
    """
    g = max(1, round(m * 0.6180339887))
    while math.gcd(g, m) != 1:
        g += 1
    s1 = rng.random() if shift is None else shift
    s2 = rng.random()
    out = [(((i + s1) / m) % 1.0, ((i * g + s2) / m) % 1.0) for i in range(m)]
    rng.shuffle(out)
    return out


def _log_int(u: float, lo: int, hi: int) -> int:
    """Log-uniform integer in [lo, hi] at quantile u."""
    v = math.floor(math.exp(math.log(lo) + u * (math.log(hi + 1) - math.log(lo))))
    return min(max(v, lo), hi)


def _coprime_up(p: int, q: int, lo: int, hi: int) -> int:
    """The first q' >= q coprime to p, wrapping from hi back to lo."""
    while math.gcd(p, q) != 1:
        q = q + 1 if q < hi else lo
    return q


def _kinds(total: int, weights: Dict[str, int]) -> Dict[str, int]:
    """Split `total` ops over kinds in proportion to integer weights."""
    wsum = sum(weights.values())
    counts = {k: total * w // wsum for k, w in weights.items()}
    for k in list(weights)[: total - sum(counts.values())]:
        counts[k] += 1
    return counts


def _latin_shift(cell: int, cells: int, round_: int) -> float:
    """Lattice shift of a cell in a round: within a round the cells take
    evenly spaced shifts, and from round to round each cell moves on to the
    next, so that no seed makes a round heavy or light."""
    return ((cell + round_) % cells + 0.5) / cells


def gen_exact(rng: random.Random, total: int, round_: int) -> List[Op]:
    # the cost grows as (p + q)(w + 3.5), so p gets Latin-square shifts
    cells = _split(total, tuple(range(2, 13, 2)))
    ops = []
    for k, (w, m) in enumerate(cells):
        for up, uq in _lattice(rng, m, _latin_shift(k, len(cells), round_)):
            p = _log_int(up, 1, 2000)
            q = _coprime_up(p, _log_int(uq, 1, 2000), 1, 2000)
            ops.append(Op("apostol", w, p, q, 0j))
    rng.shuffle(ops)
    return ops


def _window(rng: random.Random, count: int, half_width: float) -> Tuple[float, ...]:
    """`count` distinct points inside (0, half_width), one per sub-interval of
    its middle 70%, so that none sits on the window's edge."""
    return tuple(half_width * (0.15 + 0.7 * (i + rng.random()) / count)
                 for i in range(count))


def gen_division(rng: random.Random, total: int, round_: int) -> List[Op]:
    # The cost of an op grows as p^2 and ten-fold from Im tau = 1.1 to 0.06,
    # and the few ops in the top p stratum of the small-Im cells set the 90th
    # percentile.  So every (kind, Im tau) cell gets its own full set of p
    # strata, with Latin-square shifts.
    counts = _kinds(total, {"cross-route": 2, "thm11": 2, "thm13": 1,
                            "prop31": 1, "lemma32": 1})
    cells = [(kind, im, c) for kind, m in counts.items()
             for im, c in _split(m, DIVISION_IM_TAUS)]
    ops = []
    for k, (kind, im, c) in enumerate(cells):
        shift = _latin_shift(k, len(cells), round_)
        for (up, uq), n in zip(_lattice(rng, c, shift), _balanced(rng, c, (1, 2, 3))):
            # p log-uniform in [2, 23], q uniform in [1, p) coprime to p
            p = _log_int(up, 2, 23)
            q = _coprime_up(p, 1 + math.floor(uq * (p - 1)), 1, p - 1)
            tau = complex(rng.uniform(-0.5, 0.5), im)
            half = 1 / (2 * max(p, q))
            if kind in ("cross-route", "thm11"):
                ops.append(Op(kind, n, p, q, tau))
            elif kind == "thm13":
                ops.append(Op(kind, 0, p, q, tau, _window(rng, 3, half)))
            elif kind == "prop31":
                ops.append(Op(kind, 0, p, q, tau, _window(rng, 2, half)))
            else:
                while True:
                    st = (rng.uniform(0.005, 0.02), rng.uniform(0.003, 0.012))
                    if _lemma32_ok(p, q, *st):
                        break
                ops.append(Op(kind, 0, p, q, tau, st))
    rng.shuffle(ops)
    return ops


def _tau_pool(rng: random.Random) -> List[complex]:
    """Eight shared points, the window `identities.random_taus` samples."""
    return [complex(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.5)) for _ in range(8)]


def gen_eisenstein(rng: random.Random, total: int, round_: int) -> List[Op]:
    pool = _tau_pool(rng)
    counts = _kinds(total, {"eq73": 1, "eq64": 1, "three-term": 1, "basis-rank": 1})
    ops = []
    m = counts["eq73"]
    for n, t in zip(_balanced(rng, m, tuple(range(1, 9))), _balanced(rng, m, pool)):
        ops.append(Op("eq73", n, 0, 0, t))
    m = counts["eq64"]
    for w, t in zip(_balanced(rng, m, (2, 4, 6, 8, 12)), _balanced(rng, m, pool)):
        ops.append(Op("eq64", w, 0, 0, t))
    m = counts["three-term"]
    for (up, uq), n, t in zip(_lattice(rng, m), _balanced(rng, m, tuple(range(1, 7))),
                              _balanced(rng, m, pool)):
        p = 1 + math.floor(up * 30)
        ops.append(Op("three-term", n, p, _coprime_up(p, 1 + math.floor(uq * 30), 1, 30), t))
    m = counts["basis-rank"]
    for w, k in zip(_balanced(rng, m, tuple(range(2, 25, 2))),
                    _balanced(rng, m, tuple(range(4, 11)))):
        ops.append(Op("basis-rank", w, 0, 0, 0j, (k, rng.randrange(2**31))))
    rng.shuffle(ops)
    return ops


class Workload(NamedTuple):
    #: (rng, ops, round) -> op list
    generate: Callable[[random.Random, int, int], List[Op]]
    #: ops per second of --seconds, so a run lasts about that long at the
    #: commit that defined the benchmark (2-core x86 container, Python 3.11)
    ops_per_second: float


WORKLOADS: Dict[str, Workload] = {
    "exact-reciprocity": Workload(gen_exact, 18.0),
    "division-sums": Workload(gen_division, 13.0),
    "eisenstein-identities": Workload(gen_eisenstein, 370.0),
}

#: a run is this many rounds, each with its own op list of the same design
ROUNDS = 5

#: ops per round at least, so that even one round (a traced run's) has ten
#: beyond its 90th percentile
MIN_OPS = 100


def op_count(workload: str, seconds: float) -> int:
    """Ops per round for a run of about `seconds`."""
    return max(MIN_OPS, round(WORKLOADS[workload].ops_per_second * seconds / ROUNDS))


def generate(workload: str, seed: int, count: int, round_: int = 0) -> List[Op]:
    # the workload name enters the seed so workloads never share a stream
    rng = random.Random(f"{workload}/{seed}/{round_}")
    return WORKLOADS[workload].generate(rng, count, round_)


def run_op(op: Op) -> List[Check]:
    return KINDS[op.kind][0](op)


# ---------------------------------------------------------------------------
# Known failures
# ---------------------------------------------------------------------------


class KnownFailure(NamedTuple):
    """A cell of inputs that fails at the commit that defined the benchmark,
    with its cause.  `explains(op, failed_checks, error)` says whether a
    failed op belongs to the cell."""

    cell: str
    explains: Callable[[Op, List[Check], Optional[str]], bool]


def _within_err(bad: List[Check]) -> bool:
    return bool(bad) and all(c.err is not None and c.residual <= c.err for c in bad)


#: Machide-spec gap below which lemma32 can lose its tolerance to rounding.
#: Over the lemma32 ops of 3000 seeds the residual stayed below
#: 2.2e-14 gap^-2, which reaches tol 1e-7 at gap 4.7e-4; the largest gap
#: that failed was 4.4e-5
LEMMA32_NEAR_GAP = 1e-3


#: every failure the workloads produce at the defining commit; a failure that
#: none of these explains makes the run incorrect
KNOWN_FAILURES = (
    KnownFailure(
        "thm11.reciprocity where err > tol (seen at Im tau <= 0.3): the fixed "
        "tolerance 1e-8 lies below the elliptic sums' own error bound, which "
        "grows as Im tau falls and as n and p grow; the residual stays within err",
        lambda op, bad, error: op.kind == "thm11" and error is None and _within_err(bad)),
    KnownFailure(
        "thm13 at Im tau <= 0.3: generating_R calls sigma_log_tau_derivative at "
        "z = p*x and q*x up to 1/2, beyond the radius |tau| of its power series "
        "in z; the series runs on to n = 60 and gives garbage residuals (at times "
        "beyond err) or, once the E_2n q-series needs k past ~400, an "
        "OverflowError from float(sigma_119(k))",
        lambda op, bad, error: op.kind == "thm13" and op.tau.imag <= 0.3),
    KnownFailure(
        "three-term where the residual stays within err: the residual is absolute "
        "and unscaled against tol 1e-8, while the T values it cancels reach 1e13 "
        "(n = 4, p = 13, q = 8 gives residual 0.16-0.32)",
        lambda op, bad, error: op.kind == "three-term" and error is None
        and _within_err(bad)),
    KnownFailure(
        f"lemma32 near a degenerate Machide spec (gap < {LEMMA32_NEAR_GAP:g}, "
        "e.g. s - t or 2pqt near an integer): the Machide sums grow as gap^-1 "
        "and their rounding error, which err does not count, as gap^-2, so the "
        "absolute residual can pass tol 1e-7 once the gap falls below ~5e-4, "
        "while the package accepts every gap down to 1e-9",
        lambda op, bad, error: op.kind == "lemma32" and error is None
        and _lemma32_gap(op.p, op.q, *op.extra) < LEMMA32_NEAR_GAP),
)


# ---------------------------------------------------------------------------
# Domain checks on generated inputs
# ---------------------------------------------------------------------------


def _lemma32_arrangements(p: int, q: int, s: float, t: float):
    """(a, b, c, x, y, z) of the three cyclic arrangements whose Machide specs
    `symbols.machide_reciprocity_residuals` builds."""
    return ((1, p, q, s, p * t, -q * t), (p, q, 1, p * t, -q * t, s),
            (q, 1, p, -q * t, s, p * t))


def _lemma32_gap(p: int, q: int, s: float, t: float) -> float:
    """The smallest distance of the seven Machide specs of the lemma-32
    combination from their degenerate set, measured as `MachideSpec` does."""
    gaps = []
    for a, b, c, x, y, z in _lemma32_arrangements(p, q, s, t):
        for u, v in ((a, x), (b, y)):
            g = math.gcd(u, c)
            d = (u * z - c * v) / g
            gaps.append(abs(d - round(d)) * g)
    return min(gaps)


def _lemma32_ok(p: int, q: int, s: float, t: float) -> bool:
    """The seven Machide specs of the lemma-32 combination are non-degenerate:
    neither s - t nor 2pqt is (near) an integer."""
    try:
        for a, b, c, x, y, z in _lemma32_arrangements(p, q, s, t):
            symbols.MachideSpec((a, a), (b, b), (c, c), (x, 0.0), (y, 0.0),
                                (z, 0.0), 0, 0)
    except ValueError:
        return False
    return True


def domain_errors(op: Op, policy: SeriesPolicy = SeriesPolicy()) -> List[str]:
    """Why `op` lies outside the domain the package accepts (empty if it
    does not), so that every counted failure is the program's."""
    errs = []
    if op.kind in ("apostol", "cross-route", "thm11", "thm13", "prop31",
                   "lemma32", "three-term"):
        if op.p < 1 or op.q < 1 or math.gcd(op.p, op.q) != 1:
            errs.append(f"({op.p}, {op.q}) is not a coprime pair in U")
    if op.kind == "apostol" and not (op.n in range(2, 13, 2)
                                     and op.p <= 2000 and op.q <= 2000):
        errs.append("w or (p, q) outside the exact-reciprocity ranges")
    if op.kind not in ("apostol", "basis-rank") and op.tau.imag < policy.min_im_tau:
        errs.append(f"Im(tau) = {op.tau.imag} below {policy.min_im_tau}")
    half = 1 / (2 * max(op.p, op.q, 1))
    if op.kind in ("thm13", "prop31") and not all(0 < abs(x) < half for x in op.extra):
        errs.append(f"{op.extra} outside the window 0 < |x| < {half}")
    if op.kind == "lemma32" and not _lemma32_ok(op.p, op.q, *op.extra):
        errs.append(f"degenerate Machide spec at (s, t) = {op.extra}")
    if op.kind in ("eq64", "basis-rank") and op.n % 2:
        errs.append(f"odd weight {op.n}")
    if op.kind == "eq64" and exact.dim_data(op.n)[0] != 0:
        errs.append(f"weight {op.n} has cusp forms")
    return errs


def self_check(workload: str, seed: int, count: int) -> List[str]:
    """Generator self-checks: one seed gives one list, another seed or round
    another list, and every input of every round lies in the accepted domain."""
    rounds = [generate(workload, seed, count, r) for r in range(ROUNDS)]
    problems = []
    if generate(workload, seed, count) != rounds[0]:
        problems.append("the same seed gave two different op lists")
    if generate(workload, seed + 1, count) == rounds[0]:
        problems.append("seeds differing by one gave the same op list")
    if any(rounds[r] == rounds[0] for r in range(1, ROUNDS)):
        problems.append("two rounds of one run got the same op list")
    for r, ops in enumerate(rounds):
        if len(ops) != count:
            problems.append(f"round {r}: asked for {count} ops, got {len(ops)}")
        for i, op in enumerate(ops):
            problems.extend(f"round {r} op {i} {op}: {e}" for e in domain_errors(op))
    return problems


# ---------------------------------------------------------------------------
# Warm-up
# ---------------------------------------------------------------------------

#: one small op of every kind, run before timing in every process
WARM_UP: Dict[str, List[Op]] = {
    "exact-reciprocity": [Op("apostol", w, 7, 5, 0j) for w in range(2, 13, 2)],
    "division-sums": [
        Op("cross-route", 3, 3, 2, 0.1 + 1.1j),
        Op("thm11", 3, 3, 2, 0.1 + 1.1j),
        Op("thm13", 0, 3, 2, 0.1 + 1.1j, (0.03, 0.05, 0.07)),
        Op("prop31", 0, 3, 2, 0.1 + 1.1j, (0.04, 0.06)),
        Op("lemma32", 0, 3, 2, 0.1 + 1.1j, (0.013, 0.007)),
    ],
    "eisenstein-identities": [
        Op("eq73", 8, 0, 0, 0.1 + 1.1j),
        Op("eq64", 12, 0, 0, 0.1 + 1.1j),
        Op("three-term", 6, 3, 2, 0.1 + 1.1j),
        Op("basis-rank", 24, 0, 0, 0j, (4, 1)),
    ],
}


def warm_up(workload: str) -> None:
    for op in WARM_UP[workload]:
        run_op(op)
