"""Acceptance suite: twelve end-to-end criteria, one pass/fail line each.

Each test prints a single line `[criterion NN] <name>: PASS|FAIL` to the
real stdout (bypassing capture) and then asserts, so the scoreboard is
visible in any pytest run.
"""

import io
import math
import sys
import time
from contextlib import redirect_stdout

from ellded.exact import (
    CoprimePair,
    apostol_sum,
    dim_data,
    verify_apostol_reciprocity,
)
from ellded.qseries import (
    TauPoint,
    eisenstein,
    eisenstein_tau_derivative,
    elliptic_bernoulli,
)
from ellded.symbols import (
    Route,
    elliptic_apostol_sum,
    expected_constant,
    generating_D,
    generating_R,
    machide_reciprocity_residuals,
    proposition31_constant_closed_form,
    proposition31_residual,
    reciprocity_rhs,
)
from ellded.identities import (
    basis_rank,
    coefficient_scale,
    random_taus,
    reciprocity_laurent,
    verify_eq64_onedim,
    verify_eq73,
)
from ellded.cli import main as cli_main

from lattice_reference import LatticeCutoff, kronecker_direct

TWO_PI_I = 2j * math.pi


def _report(num: int, name: str, ok: bool) -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}\n"
    sys.__stdout__.write(line)
    sys.__stdout__.flush()
    assert ok, line.strip()


def _d(n, p, q, tau, route=Route.ZETA_DERIVATIVE):
    return elliptic_apostol_sum(n, CoprimePair(p, q), tau, route).value


#: fixed sample set shared by criteria 2 and 3: 20 (n, p, q, tau) cases
TAUS_RECIP = (TauPoint(1j), TauPoint(0.3 + 1.1j), TauPoint(1.4j))
TRIPLES_RECIP = (
    (1, 2, 1), (1, 3, 2), (1, 5, 3), (1, 7, 4),
    (2, 3, 1), (2, 5, 2), (2, 7, 3),
)
CASES_RECIP = [
    (n, p, q, tau) for (n, p, q) in TRIPLES_RECIP for tau in TAUS_RECIP
][:20]


def test_criterion_01_exact_reciprocity_sweep():
    start = time.monotonic()
    ok = True
    for w in (2, 4, 6, 8, 10):
        for p in range(1, 31):
            for q in range(1, 31):
                if math.gcd(p, q) != 1:
                    continue
                if verify_apostol_reciprocity(w, CoprimePair(p, q)) != 0:
                    ok = False
    elapsed = time.monotonic() - start
    _report(1, "exact reciprocity sweep (p,q<=30, w<=10)",
            ok and elapsed < 10.0)


def test_criterion_02_elliptic_reciprocity():
    start = time.monotonic()
    worst = 0.0
    for n, p, q, tau in CASES_RECIP:
        res = (_d(n, p, q, tau) + _d(n, q, p, tau)
               - reciprocity_rhs(n, CoprimePair(p, q), tau))
        worst = max(worst, abs(res.value))
    elapsed = time.monotonic() - start
    _report(2, "elliptic reciprocity, 20 fixed cases",
            worst < 1e-8 and elapsed < 30.0)


def test_criterion_03_symbol_axioms():
    worst = 0.0
    for n, p, q, tau in CASES_RECIP:
        base = _d(n, p, q, tau)
        shift = _d(n, p, q + p, tau)
        neg = _d(n, p, -q, tau)
        worst = max(worst, abs((shift - base).value), abs((neg + base).value))
    _report(3, "symbol axioms (periodicity, oddness)", worst < 1e-9)


def test_criterion_04_degeneration():
    ok = True
    for n, p, q in ((1, 3, 1), (1, 5, 3), (2, 5, 2)):
        limit = (-(TWO_PI_I ** (2 * n)) / math.factorial(2 * n + 1)
                 * p ** (2 * n) * float(apostol_sum(2 * n + 1, q, p)))
        dev10 = abs(_d(n, p, q, TauPoint(10j)).value - limit)
        dev20 = abs(_d(n, p, q, TauPoint(20j)).value - limit)
        if dev20 >= 1e-6 or dev20 > dev10 + 1e-12:
            ok = False
    _report(4, "degeneration to the classical sum at tau=20i", ok)


def test_criterion_05_generating_constancy():
    ok = True
    pair, swap = CoprimePair(3, 2), CoprimePair(2, 3)
    for tau in (TauPoint(1j), TauPoint(0.2 + 1.2j)):
        vals = []
        for x in (0.003, 0.007, 0.011):
            v = (generating_D(pair, tau, x) + generating_D(swap, tau, x)
                 - generating_R(pair, tau, x))
            vals.append(v.value)
        spread = max(abs(a - b) for a in vals for b in vals)
        e2 = eisenstein(1, tau).value
        const = -e2 / (TWO_PI_I**2 * 3 * 2)
        if spread >= 1e-8 or abs(vals[0] - const) >= 1e-8:
            ok = False
    _report(5, "generating-function residual constancy and constant", ok)


def test_criterion_06_first_order_constancy():
    ok = True
    pair = CoprimePair(3, 2)
    for tau in (TauPoint(1j), TauPoint(0.2 + 1.2j)):
        r1 = proposition31_residual(pair, 0.006, tau)
        r2 = proposition31_residual(pair, 0.009, tau)
        const = expected_constant(pair, tau)
        closed = proposition31_constant_closed_form(pair, tau)
        if abs((r1 - r2).value) >= 1e-8:
            ok = False
        if abs((r2 - const).value) >= 1e-8:
            ok = False
        if abs((r2 - closed).value) > (r2 - closed).err:
            ok = False
    _report(6, "first-order residual constancy and closed form", ok)


def test_criterion_07_double_sum_combinations():
    worst = 0.0
    for pq in ((3, 2), (5, 3)):
        rs = machide_reciprocity_residuals(
            CoprimePair(*pq), 0.013, 0.007, TauPoint(1j))
        worst = max(worst, *(abs(r.value) for r in rs))
    _report(7, "double-sum reciprocity combinations", worst < 1e-7)


def test_criterion_08_coefficient_recursion():
    start = time.monotonic()
    ok = True
    for tau in (TauPoint(1j), TauPoint(0.3 + 1.0j)):
        for n in (1, 2, 3, 4):
            scale = coefficient_scale(n, tau)
            for k in range(1, 2 * n + 3):
                if abs(verify_eq73(n, k, tau).value) >= 1e-8 * scale:
                    ok = False
    # the n=1, k=1 case is the classical second-derivative identity
    # 2 pi i dE2/dtau = -E2^2 + 5 E4; check it directly at 1e-9 relative
    for tau in (TauPoint(1j), TauPoint(0.3 + 1.0j)):
        de2 = eisenstein_tau_derivative(1, tau).value
        e2 = eisenstein(1, tau).value
        e4 = eisenstein(2, tau).value
        lhs = TWO_PI_I * de2
        rhs = -(e2**2) + 5 * e4
        if abs(lhs - rhs) >= 1e-9 * max(abs(lhs), abs(rhs)):
            ok = False
    elapsed = time.monotonic() - start
    _report(8, "Eisenstein coefficient recursion, all k, n<=4",
            ok and elapsed < 10.0)


def test_criterion_09_one_dimensional_span():
    ok = True
    for tau in (TauPoint(0.2 + 1.2j), TauPoint(1.1j)):
        for w in (2, 4, 6, 8, 12):
            res = verify_eq64_onedim(w, tau)
            lhs, _ = reciprocity_laurent(w, tau)
            denom = max(lhs.max_abs_coeff(),
                        coefficient_scale(w // 2, tau) / (2 * math.pi) ** 2)
            if res.max_abs_coeff() >= 1e-7 * denom:
                ok = False
    _report(9, "one-dimensional Eisenstein span of the Laurent side", ok)


def test_criterion_10_basis_rank():
    ok = True
    for w in (2, 4, 6, 8, 10, 12, 14):
        d, _ = dim_data(w)
        if basis_rank(w, random_taus(d + 3, seed=11)) != d + 1:
            ok = False
        if basis_rank(w, random_taus(d + 6, seed=13)) > d + 1:
            ok = False
    _report(10, "basis rank matches modular-form dimension", ok)


def test_criterion_11_cross_route_oracles():
    ok = True
    for n, p, q, tau in ((1, 3, 2, TauPoint(1j)),
                         (2, 7, 3, TauPoint(1j)),
                         (1, 5, 3, TauPoint(0.3 + 1.1j)),
                         (3, 4, 3, TauPoint(1.4j))):
        a = _d(n, p, q, tau, Route.ZETA_DERIVATIVE)
        b = _d(n, p, q, tau, Route.BERNOULLI_PRODUCT)
        if abs((a - b).value) > (a - b).err:
            ok = False
    tau = TauPoint(1j)
    for k in (3, 4):
        x, y = 0.25, 0.4
        b = elliptic_bernoulli(k, x, y, tau)
        ck = kronecker_direct(k, -x + y * tau.tau, tau, LatticeCutoff(400))
        factor = abs(math.factorial(k) / TWO_PI_I**k)
        route = (-1) ** (k - 1) * math.factorial(k) / TWO_PI_I**k * ck.value
        if abs(b.value - route) > b.err + factor * ck.err:
            ok = False
    _report(11, "independent oracle agreement (routes, lattice sum)", ok)


def test_criterion_12_determinism():
    argvs = (
        ["verify", "thm11", "-n", "1", "-p", "3", "-q", "2", "--tau", "1i"],
        ["verify", "basis-rank", "-w", "10", "--num-tau", "4", "--seed", "7"],
        ["verify", "eq73", "-n", "2", "--tau", "0.3+1.0i"],
    )
    ok = True
    for argv in argvs:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(list(argv))
            outs.append(buf.getvalue())
            if code != 0:
                ok = False
        if outs[0] != outs[1] or not outs[0]:
            ok = False
    _report(12, "byte-identical repeated verification output", ok)
