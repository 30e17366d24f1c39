"""Command-line front end: evaluate any operation and run the verification
suite, emitting machine-readable reports.

Exit codes: 0 all checks pass / value printed, 1 at least one check failed,
2 usage error, 3 domain error (coprimality, half-plane, singularity, a
value beyond the floating-point range).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

from .exact import (
    CoprimePair,
    apostol_sum,
    bernoulli_number,
    dim_data,
    g_poly,
    rational_str,
    verify_apostol_reciprocity,
)
from .qseries import (
    LatticePointError,
    NonConvergenceError,
    SeriesPolicy,
    TauPoint,
    eisenstein,
    eisenstein_normalized,
    eisenstein_tau_derivative,
    elliptic_bernoulli,
    weierstrass_zeta,
    weierstrass_zeta_deriv,
)
from .symbols import (
    MachideSpec,
    Route,
    elliptic_apostol_sum,
    expected_constant,
    generating_D,
    generating_R,
    machide_reciprocity_residuals,
    machide_sum,
    proposition31_constant_closed_form,
    proposition31_residual,
    reciprocity_rhs,
)
from .identities import (
    basis_rank,
    coefficient_scale,
    eisenstein_period_data,
    random_taus,
    reciprocity_laurent,
    verify_eq64_onedim,
    verify_eq73,
    verify_three_term,
)

TWO_PI_I = 2j * math.pi

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

#: Default tolerance per check family; --tol or ELLDED_TOL override.
CHECK_TOLS: Dict[str, float] = {
    "apostol-reciprocity": 1e-300,  # residual is exact; any positive tol works
    "thm11.periodicity": 1e-9,
    "thm11.oddness": 1e-9,
    "thm11.reciprocity": 1e-8,
    "thm13.constancy": 1e-8,
    "thm13.constant": 1e-8,
    "prop31.constancy": 1e-8,
    "prop31.constant": 1e-8,
    "prop31.closed-form": 1e-8,
    "lemma32": 1e-7,
    "eq73": 1e-8,
    "three-term": 1e-8,
    "eq64": 1e-7,
    "basis-rank": 0.5,  # integer rank mismatch shows up as >= 1
    "limit.value": 1e-6,
    "limit.monotone": 1e-12,
}


@dataclass
class RunConfig:
    subcommand: str
    params: Dict[str, object]
    tol: Optional[float]
    seed: int
    fmt: str
    max_terms: Optional[int]

    def policy(self) -> SeriesPolicy:
        if self.max_terms is not None:
            return SeriesPolicy(max_terms=self.max_terms)
        return SeriesPolicy()

    def check_tol(self, family: str) -> float:
        if self.tol is not None:
            return self.tol
        env = os.environ.get("ELLDED_TOL")
        if env is not None:
            t = float(env)
            _validate_tol(t)
            return t
        return CHECK_TOLS[family]


def _validate_tol(t: float) -> None:
    if not 0 < t <= 1e-3:
        raise argparse.ArgumentTypeError(f"tol must be in (0, 1e-3], got {t}")


def _tol_arg(s: str) -> float:
    t = float(s)
    _validate_tol(t)
    return t


def _complex_arg(s: str) -> complex:
    try:
        return complex(s.strip().replace(" ", "").replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {s!r}")


def _int_pair(s: str):
    a, b = s.split(",")
    return (int(a), int(b))


def _float_pair(s: str):
    a, b = s.split(",")
    return (float(a), float(b))


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _emit(records: List[dict], fmt: str, out) -> None:
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(rec, sort_keys=True))
            out.write("\n")
    elif fmt == "csv":
        keys = sorted({k for rec in records for k in rec})
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(keys)
        for rec in records:
            writer.writerow(
                [json.dumps(rec[k], sort_keys=True) if k in rec else "" for k in keys]
            )
    else:  # pretty
        for rec in records:
            parts = [f"{k}={json.dumps(rec[k], sort_keys=True)}" for k in sorted(rec)]
            out.write("  ".join(parts))
            out.write("\n")


def _check_record(check: str, params: dict, residual: float, tol: float) -> dict:
    return {
        "check": check,
        "params": params,
        "residual": residual,
        "tol": tol,
        "pass": bool(residual < tol) if tol > 0 else bool(residual == 0),
    }


# ---------------------------------------------------------------------------
# eval subcommands
# ---------------------------------------------------------------------------


def _eval_bernoulli(cfg: RunConfig) -> dict:
    k = cfg.params["k"]
    return {"op": "bernoulli", "params": {"k": k},
            "value": rational_str(bernoulli_number(k))}


def _eval_apostol_sum(cfg: RunConfig) -> dict:
    k, q, p = cfg.params["k"], cfg.params["q"], cfg.params["p"]
    return {"op": "apostol-sum", "params": {"k": k, "q": q, "p": p},
            "value": rational_str(apostol_sum(k, q, p))}


def _eval_g_poly(cfg: RunConfig) -> dict:
    w = cfg.params["w"]
    return {"op": "g-poly", "params": {"w": w}, "value": g_poly(w).to_json_obj()}


def _eval_eisenstein(cfg: RunConfig) -> dict:
    n, tau, kind = cfg.params["n"], cfg.params["tau"], cfg.params["kind"]
    fn = {"e": eisenstein, "g": eisenstein_normalized,
          "deriv": eisenstein_tau_derivative}[kind]
    val = fn(n, tau, cfg.policy())
    return {"op": "eisenstein", "params": {"n": n, "tau": str(tau), "kind": kind},
            "value": val.to_json_obj()}


def _eval_elliptic_bernoulli(cfg: RunConfig) -> dict:
    m, x, y, tau = (cfg.params[k] for k in ("m", "x", "y", "tau"))
    val = elliptic_bernoulli(m, x, y, tau, cfg.policy())
    return {"op": "elliptic-bernoulli",
            "params": {"m": m, "x": x, "y": y, "tau": str(tau)},
            "value": val.to_json_obj()}


def _eval_zeta_w(cfg: RunConfig) -> dict:
    z, tau, order = cfg.params["z"], cfg.params["tau"], cfg.params["order"]
    if order == 0:
        val = weierstrass_zeta(z, tau, cfg.policy())
    else:
        val = weierstrass_zeta_deriv(order, z, tau, cfg.policy())
    return {"op": "zeta-w",
            "params": {"z": [z.real, z.imag], "tau": str(tau), "order": order},
            "value": val.to_json_obj()}


def _eval_elliptic_sum(cfg: RunConfig) -> dict:
    n, p, q, tau = (cfg.params[k] for k in ("n", "p", "q", "tau"))
    route = Route(cfg.params["route"])
    res = elliptic_apostol_sum(n, CoprimePair(p, q), tau, route, cfg.policy())
    return {"op": "elliptic-sum",
            "params": {"n": n, "p": p, "q": q, "tau": str(tau),
                       "route": route.value},
            "value": res.value.to_json_obj()}


def _eval_reciprocity_rhs(cfg: RunConfig) -> dict:
    n, p, q, tau = (cfg.params[k] for k in ("n", "p", "q", "tau"))
    val = reciprocity_rhs(n, CoprimePair(p, q), tau, cfg.policy())
    return {"op": "reciprocity-rhs",
            "params": {"n": n, "p": p, "q": q, "tau": str(tau)},
            "value": val.to_json_obj()}


def _eval_generating(cfg: RunConfig) -> dict:
    which, p, q, x, tau = (cfg.params[k] for k in ("which", "p", "q", "x", "tau"))
    pair = CoprimePair(p, q)
    if which == "d":
        val = generating_D(pair, tau, x, cfg.policy())
    else:
        val = generating_R(pair, tau, x, cfg.policy())
    return {"op": "generating",
            "params": {"which": which, "p": p, "q": q, "x": x, "tau": str(tau)},
            "value": val.to_json_obj()}


def _eval_machide(cfg: RunConfig) -> dict:
    p = cfg.params
    spec = MachideSpec(p["vec_a"], p["vec_b"], p["vec_c"],
                       p["vec_x"], p["vec_y"], p["vec_z"], p["m"], p["n"])
    val = machide_sum(spec, p["tau"], cfg.policy())
    return {"op": "machide",
            "params": {"vec_a": list(p["vec_a"]), "vec_b": list(p["vec_b"]),
                       "vec_c": list(p["vec_c"]), "vec_x": list(p["vec_x"]),
                       "vec_y": list(p["vec_y"]), "vec_z": list(p["vec_z"]),
                       "m": p["m"], "n": p["n"], "tau": str(p["tau"])},
            "value": val.to_json_obj()}


def _eval_period_data(cfg: RunConfig) -> dict:
    n = cfg.params["n"]
    pd = eisenstein_period_data(n)
    return {"op": "period-data", "params": {"n": n},
            "value": {"r2n": {"re": pd.r2n.real, "im": pd.r2n.imag},
                      "petersson": pd.petersson,
                      "odd_period": pd.odd_period.to_json_obj()}}


EVAL_HANDLERS = {
    "bernoulli": _eval_bernoulli,
    "apostol-sum": _eval_apostol_sum,
    "g-poly": _eval_g_poly,
    "eisenstein": _eval_eisenstein,
    "elliptic-bernoulli": _eval_elliptic_bernoulli,
    "zeta-w": _eval_zeta_w,
    "elliptic-sum": _eval_elliptic_sum,
    "reciprocity-rhs": _eval_reciprocity_rhs,
    "generating": _eval_generating,
    "machide": _eval_machide,
    "period-data": _eval_period_data,
}


# ---------------------------------------------------------------------------
# verify subcommands
# ---------------------------------------------------------------------------


def _verify_apostol_reciprocity(cfg: RunConfig) -> List[dict]:
    w_max, pq_max = cfg.params["w_max"], cfg.params["pq_max"]
    tol = cfg.check_tol("apostol-reciprocity")
    records = []
    for w in range(2, w_max + 1, 2):
        for p in range(1, pq_max + 1):
            for q in range(1, pq_max + 1):
                if math.gcd(p, q) != 1:
                    continue
                res = verify_apostol_reciprocity(w, CoprimePair(p, q))
                records.append({
                    "check": "apostol-reciprocity",
                    "params": {"w": w, "p": p, "q": q},
                    "residual": rational_str(res),
                    "tol": tol,
                    "pass": res == 0,
                })
    return records


def _verify_thm11(cfg: RunConfig) -> List[dict]:
    n, p, q, tau = (cfg.params[k] for k in ("n", "p", "q", "tau"))
    policy = cfg.policy()
    pair = CoprimePair(p, q)
    params = {"n": n, "p": p, "q": q, "tau": str(tau)}
    d = elliptic_apostol_sum(n, pair, tau, Route.ZETA_DERIVATIVE, policy).value
    d_shift = elliptic_apostol_sum(n, CoprimePair(p, q + p), tau,
                                   Route.ZETA_DERIVATIVE, policy).value
    d_neg = elliptic_apostol_sum(n, CoprimePair(p, -q), tau,
                                 Route.ZETA_DERIVATIVE, policy).value
    records = [
        _check_record("thm11.periodicity", params, abs((d_shift - d).value),
                      cfg.check_tol("thm11.periodicity")),
        _check_record("thm11.oddness", params, abs((d_neg + d).value),
                      cfg.check_tol("thm11.oddness")),
    ]
    d_swap = elliptic_apostol_sum(n, CoprimePair(q, p), tau,
                                  Route.ZETA_DERIVATIVE, policy).value
    r = reciprocity_rhs(n, pair, tau, policy)
    records.append(
        _check_record("thm11.reciprocity", params, abs((d + d_swap - r).value),
                      cfg.check_tol("thm11.reciprocity")))
    return records


def _verify_thm13(cfg: RunConfig) -> List[dict]:
    p, q, tau = (cfg.params[k] for k in ("p", "q", "tau"))
    policy = cfg.policy()
    pair = CoprimePair(p, q)
    params = {"p": p, "q": q, "tau": str(tau)}
    xs = (0.003, 0.007, 0.011)
    vals = []
    for x in xs:
        v = (generating_D(pair, tau, x, policy)
             + generating_D(CoprimePair(q, p), tau, x, policy)
             - generating_R(pair, tau, x, policy))
        vals.append(v)
    spread = max(abs((a - b).value) for a in vals for b in vals)
    const = expected_constant(pair, tau, policy)
    return [
        _check_record("thm13.constancy", {**params, "x": list(xs)}, spread,
                      cfg.check_tol("thm13.constancy")),
        _check_record("thm13.constant", {**params, "x": xs[0]},
                      abs((vals[0] - const).value),
                      cfg.check_tol("thm13.constant")),
    ]


def _verify_prop31(cfg: RunConfig) -> List[dict]:
    p, q, tau = (cfg.params[k] for k in ("p", "q", "tau"))
    s1, s2 = cfg.params["s1"], cfg.params["s2"]
    policy = cfg.policy()
    pair = CoprimePair(p, q)
    params = {"p": p, "q": q, "tau": str(tau), "s1": s1, "s2": s2}
    r1 = proposition31_residual(pair, s1, tau, policy)
    r2 = proposition31_residual(pair, s2, tau, policy)
    const = expected_constant(pair, tau, policy)
    closed = proposition31_constant_closed_form(pair, tau, policy)
    return [
        _check_record("prop31.constancy", params, abs((r1 - r2).value),
                      cfg.check_tol("prop31.constancy")),
        _check_record("prop31.constant", params, abs((r2 - const).value),
                      cfg.check_tol("prop31.constant")),
        _check_record("prop31.closed-form", params, abs((r2 - closed).value),
                      cfg.check_tol("prop31.closed-form")),
    ]


def _verify_lemma32(cfg: RunConfig) -> List[dict]:
    p, q, s, t, tau = (cfg.params[k] for k in ("p", "q", "s", "t", "tau"))
    rs = machide_reciprocity_residuals(CoprimePair(p, q), s, t, tau, cfg.policy())
    tol = cfg.check_tol("lemma32")
    params = {"p": p, "q": q, "s": s, "t": t, "tau": str(tau)}
    return [
        _check_record(f"lemma32.combo{i + 1}", params, abs(r.value), tol)
        for i, r in enumerate(rs)
    ]


def _verify_eq73(cfg: RunConfig) -> List[dict]:
    n, tau = cfg.params["n"], cfg.params["tau"]
    policy = cfg.policy()
    tol = cfg.check_tol("eq73")
    scale = coefficient_scale(n, tau, policy)
    records = []
    for k in range(1, 2 * n + 3):
        r = verify_eq73(n, k, tau, policy)
        records.append(_check_record(
            "eq73", {"n": n, "k": k, "tau": str(tau)},
            abs(r.value) / scale, tol))
    return records


def _verify_three_term(cfg: RunConfig) -> List[dict]:
    n, p, q, tau = (cfg.params[k] for k in ("n", "p", "q", "tau"))
    r = verify_three_term(n, CoprimePair(p, q), tau, cfg.policy())
    return [_check_record("three-term",
                          {"n": n, "p": p, "q": q, "tau": str(tau)},
                          abs(r.value), cfg.check_tol("three-term"))]


def _verify_eq64(cfg: RunConfig) -> List[dict]:
    w, tau = cfg.params["w"], cfg.params["tau"]
    policy = cfg.policy()
    res = verify_eq64_onedim(w, tau, policy)
    lhs, _ = reciprocity_laurent(w, tau, policy)
    # lhs coefficients can all vanish at special tau; fall back to the scale
    # of the Eisenstein data they are built from
    denom = max(lhs.max_abs_coeff(),
                coefficient_scale(w // 2, tau, policy) / (2 * math.pi) ** 2)
    rel = res.max_abs_coeff() / denom
    return [_check_record("eq64", {"w": w, "tau": str(tau)}, rel,
                          cfg.check_tol("eq64"))]


def _verify_basis_rank(cfg: RunConfig) -> List[dict]:
    w, num_tau = cfg.params["w"], cfg.params["num_tau"]
    taus = random_taus(num_tau, cfg.seed)
    rank = basis_rank(w, taus, cfg.policy())
    d, _ = dim_data(w)
    rec = _check_record("basis-rank",
                        {"w": w, "num_tau": num_tau, "seed": cfg.seed},
                        float(abs(rank - (d + 1))), cfg.check_tol("basis-rank"))
    rec["rank"] = rank
    rec["expected_rank"] = d + 1
    return [rec]


def _verify_limit(cfg: RunConfig) -> List[dict]:
    n, p, q = (cfg.params[k] for k in ("n", "p", "q"))
    policy = cfg.policy()
    pair = CoprimePair(p, q)
    exact_limit = (-(TWO_PI_I ** (2 * n)) / math.factorial(2 * n + 1)
                   * p ** (2 * n) * float(apostol_sum(2 * n + 1, q, p)))
    devs = {}
    for t in (10.0, 20.0):
        d = elliptic_apostol_sum(n, pair, TauPoint(complex(0, t)),
                                 Route.ZETA_DERIVATIVE, policy).value
        devs[t] = abs(d.value - exact_limit)
    params = {"n": n, "p": p, "q": q}
    return [
        _check_record("limit.value", {**params, "tau": "0+20i"}, devs[20.0],
                      cfg.check_tol("limit.value")),
        # the residual must not grow as Im(tau) doubles (floor allows both
        # being at the machine-noise level)
        _check_record("limit.monotone", params,
                      max(0.0, devs[20.0] - devs[10.0]),
                      cfg.check_tol("limit.monotone")),
    ]


VERIFY_HANDLERS = {
    "apostol-reciprocity": _verify_apostol_reciprocity,
    "thm11": _verify_thm11,
    "thm13": _verify_thm13,
    "prop31": _verify_prop31,
    "lemma32": _verify_lemma32,
    "eq73": _verify_eq73,
    "three-term": _verify_three_term,
    "eq64": _verify_eq64,
    "basis-rank": _verify_basis_rank,
    "limit": _verify_limit,
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=_tol_arg, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", dest="fmt", choices=("json", "csv", "pretty"),
                   default="json")
    p.add_argument("--max-terms", type=int, default=None)


def _tau_opt(p: argparse.ArgumentParser, required: bool = True) -> None:
    # parse only the complex syntax here (bad syntax -> usage error);
    # the half-plane constraint is enforced in main() so it exits with the
    # domain code instead
    p.add_argument("--tau", type=_complex_arg, required=required,
                   help='upper-half-plane point "a+bi"')


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="ellded",
        description="Classical and elliptic Apostol-Dedekind sums: evaluation "
                    "and identity verification.")
    top = root.add_subparsers(dest="mode", required=True)

    ev = top.add_parser("eval", help="evaluate a single quantity")
    evs = ev.add_subparsers(dest="subcommand", required=True)

    p = evs.add_parser("bernoulli")
    p.add_argument("-k", type=int, required=True)
    _add_common(p)

    p = evs.add_parser("apostol-sum")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("-p", type=int, required=True)
    _add_common(p)

    p = evs.add_parser("g-poly")
    p.add_argument("-w", type=int, required=True)
    _add_common(p)

    p = evs.add_parser("eisenstein")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--kind", choices=("e", "g", "deriv"), default="e")
    _tau_opt(p)
    _add_common(p)

    p = evs.add_parser("elliptic-bernoulli")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    _tau_opt(p)
    _add_common(p)

    p = evs.add_parser("zeta-w")
    p.add_argument("--z", type=_complex_arg, required=True)
    p.add_argument("--order", type=int, default=0,
                   help="0 for zeta itself, j >= 1 for its j-th derivative")
    _tau_opt(p)
    _add_common(p)

    p = evs.add_parser("elliptic-sum")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--route", choices=[r.value for r in Route],
                   default=Route.ZETA_DERIVATIVE.value)
    _tau_opt(p)
    _add_common(p)

    p = evs.add_parser("reciprocity-rhs")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    _tau_opt(p)
    _add_common(p)

    p = evs.add_parser("generating")
    p.add_argument("--which", choices=("d", "r"), required=True)
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    _tau_opt(p)
    _add_common(p)

    p = evs.add_parser("machide")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    for name in ("vec-a", "vec-b", "vec-c"):
        p.add_argument(f"--{name}", type=_int_pair, required=True,
                       metavar="A',A")
    for name in ("vec-x", "vec-y", "vec-z"):
        p.add_argument(f"--{name}", type=_float_pair, required=True,
                       metavar="X',X")
    _tau_opt(p)
    _add_common(p)

    p = evs.add_parser("period-data")
    p.add_argument("-n", type=int, required=True)
    _add_common(p)

    vf = top.add_parser("verify", help="run residual checks")
    vfs = vf.add_subparsers(dest="subcommand", required=True)

    p = vfs.add_parser("apostol-reciprocity")
    p.add_argument("--w-max", type=int, default=10)
    p.add_argument("--pq-max", type=int, default=30)
    _add_common(p)

    for name in ("thm11", "three-term"):
        p = vfs.add_parser(name)
        p.add_argument("-n", type=int, required=True)
        p.add_argument("-p", type=int, required=True)
        p.add_argument("-q", type=int, required=True)
        _tau_opt(p)
        _add_common(p)

    p = vfs.add_parser("thm13")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    _tau_opt(p)
    _add_common(p)

    p = vfs.add_parser("prop31")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--s1", type=float, default=0.006)
    p.add_argument("--s2", type=float, default=0.009)
    _tau_opt(p)
    _add_common(p)

    p = vfs.add_parser("lemma32")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--s", type=float, default=0.013)
    p.add_argument("--t", type=float, default=0.007)
    _tau_opt(p)
    _add_common(p)

    p = vfs.add_parser("eq73")
    p.add_argument("-n", type=int, required=True)
    _tau_opt(p)
    _add_common(p)

    p = vfs.add_parser("eq64")
    p.add_argument("-w", type=int, required=True)
    _tau_opt(p)
    _add_common(p)

    p = vfs.add_parser("basis-rank")
    p.add_argument("-w", type=int, required=True)
    p.add_argument("--num-tau", type=int, required=True)
    _add_common(p)

    p = vfs.add_parser("limit")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    _add_common(p)

    return root


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    skip = {"mode", "subcommand", "tol", "seed", "fmt", "max_terms"}
    params = {k: v for k, v in vars(args).items() if k not in skip}
    return RunConfig(args.subcommand, params, args.tol, args.seed,
                     args.fmt, args.max_terms)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from_args(args)
    try:
        if isinstance(cfg.params.get("tau"), complex):
            cfg.params["tau"] = TauPoint(cfg.params["tau"])
        if args.mode == "eval":
            records = [EVAL_HANDLERS[cfg.subcommand](cfg)]
            _emit(records, cfg.fmt, sys.stdout)
            return EXIT_PASS
        records = VERIFY_HANDLERS[cfg.subcommand](cfg)
        _emit(records, cfg.fmt, sys.stdout)
        return EXIT_PASS if all(r["pass"] for r in records) else EXIT_FAIL
    except (ValueError, LatticePointError, NonConvergenceError,
            ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
