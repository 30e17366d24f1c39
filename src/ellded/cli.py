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
    TWO_PI_I,
    LatticePointError,
    NonConvergenceError,
    SeriesPolicy,
    TauPoint,
    _parse_complex,
    eisenstein,
    eisenstein_normalized,
    eisenstein_tau_derivative,
    elliptic_bernoulli,
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
    #: the subcommand's own arguments, as parsed (tau as a TauPoint)
    params: Dict[str, object]
    #: --tol, else ELLDED_TOL in verify mode; None selects CHECK_TOLS
    tol: Optional[float]
    seed: int
    max_terms: Optional[int]

    def policy(self) -> SeriesPolicy:
        if self.max_terms is not None:
            return SeriesPolicy(max_terms=self.max_terms)
        return SeriesPolicy()

    def family_tol(self, family: str) -> float:
        return CHECK_TOLS[family] if self.tol is None else self.tol

    def check(self, check: str, residual: float, family: Optional[str] = None,
              **extra) -> dict:
        """A verify record whose params are the echoed arguments plus extra;
        its tol is that of `family`, which defaults to the check's name."""
        tol = self.family_tol(family or check)
        return {
            "check": check,
            "params": {**_echo(self.params), **extra},
            "residual": residual,
            "tol": tol,
            "pass": bool(residual < tol),
        }


def _tol_arg(s: str) -> float:
    t = float(s)
    if not 0 < t <= 1e-3:
        raise argparse.ArgumentTypeError(f"tol must be in (0, 1e-3], got {t}")
    return t


def _count_arg(least: int):
    """An argparse type: an int that must be at least `least`."""
    def parse(s: str) -> int:
        try:
            n = int(s)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {s!r}")
        if n < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {n}")
        return n
    return parse


def _complex_arg(s: str) -> complex:
    try:
        return _parse_complex(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


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


def _echo(params: Dict[str, object]) -> dict:
    """Parsed arguments as JSON: a TauPoint as its string, a complex number
    as [re, im], a pair as a list."""
    out = {}
    for name, value in params.items():
        if isinstance(value, TauPoint):
            value = str(value)
        elif isinstance(value, complex):
            value = [value.real, value.imag]
        elif isinstance(value, tuple):
            value = list(value)
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# eval subcommands: each returns the record's value; main() adds the op
# and the echoed arguments
# ---------------------------------------------------------------------------


def _eval_bernoulli(cfg: RunConfig, k):
    return rational_str(bernoulli_number(k))


def _eval_apostol_sum(cfg: RunConfig, k, q, p):
    return rational_str(apostol_sum(k, q, p))


def _eval_g_poly(cfg: RunConfig, w):
    return g_poly(w).to_json_obj()


def _eval_eisenstein(cfg: RunConfig, n, kind, tau):
    fn = {"e": eisenstein, "g": eisenstein_normalized,
          "deriv": eisenstein_tau_derivative}[kind]
    return fn(n, tau, cfg.policy()).to_json_obj()


def _eval_elliptic_bernoulli(cfg: RunConfig, m, x, y, tau):
    return elliptic_bernoulli(m, x, y, tau, cfg.policy()).to_json_obj()


def _eval_zeta_w(cfg: RunConfig, z, order, tau):
    return weierstrass_zeta_deriv(order, z, tau, cfg.policy()).to_json_obj()


def _eval_elliptic_sum(cfg: RunConfig, n, p, q, route, tau):
    res = elliptic_apostol_sum(n, CoprimePair(p, q), tau, Route(route), cfg.policy())
    return res.value.to_json_obj()


def _eval_reciprocity_rhs(cfg: RunConfig, n, p, q, tau):
    return reciprocity_rhs(n, CoprimePair(p, q), tau, cfg.policy()).to_json_obj()


def _eval_generating(cfg: RunConfig, which, p, q, x, tau):
    pair = CoprimePair(p, q)
    if which == "d":
        val = generating_D(pair, tau, x, cfg.policy())
    else:
        val = generating_R(pair, tau, x, cfg.policy())
    return val.to_json_obj()


def _eval_machide(cfg: RunConfig, m, n, vec_a, vec_b, vec_c, vec_x, vec_y, vec_z, tau):
    spec = MachideSpec(vec_a, vec_b, vec_c, vec_x, vec_y, vec_z, m, n)
    return machide_sum(spec, tau, cfg.policy()).to_json_obj()


def _eval_period_data(cfg: RunConfig, n):
    pd = eisenstein_period_data(n)
    return {"r2n": {"re": pd.r2n.real, "im": pd.r2n.imag},
            "petersson": pd.petersson,
            "odd_period": pd.odd_period.to_json_obj()}


# ---------------------------------------------------------------------------
# verify subcommands
# ---------------------------------------------------------------------------


def _verify_apostol_reciprocity(cfg: RunConfig, w_max, pq_max) -> List[dict]:
    tol = cfg.family_tol("apostol-reciprocity")
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


def _verify_thm11(cfg: RunConfig, n, p, q, tau) -> List[dict]:
    policy = cfg.policy()
    pair = CoprimePair(p, q)
    d = elliptic_apostol_sum(n, pair, tau, Route.ZETA_DERIVATIVE, policy).value
    d_shift = elliptic_apostol_sum(n, CoprimePair(p, q + p), tau,
                                   Route.ZETA_DERIVATIVE, policy).value
    d_neg = elliptic_apostol_sum(n, CoprimePair(p, -q), tau,
                                 Route.ZETA_DERIVATIVE, policy).value
    records = [
        cfg.check("thm11.periodicity", abs((d_shift - d).value)),
        cfg.check("thm11.oddness", abs((d_neg + d).value)),
    ]
    d_swap = elliptic_apostol_sum(n, CoprimePair(q, p), tau,
                                  Route.ZETA_DERIVATIVE, policy).value
    r = reciprocity_rhs(n, pair, tau, policy)
    records.append(cfg.check("thm11.reciprocity", abs((d + d_swap - r).value)))
    return records


def _verify_three_term(cfg: RunConfig, n, p, q, tau) -> List[dict]:
    r = verify_three_term(n, CoprimePair(p, q), tau, cfg.policy())
    return [cfg.check("three-term", abs(r.value))]


def _verify_thm13(cfg: RunConfig, p, q, tau) -> List[dict]:
    policy = cfg.policy()
    pair = CoprimePair(p, q)
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
        cfg.check("thm13.constancy", spread, x=list(xs)),
        cfg.check("thm13.constant", abs((vals[0] - const).value), x=xs[0]),
    ]


def _verify_prop31(cfg: RunConfig, p, q, s1, s2, tau) -> List[dict]:
    policy = cfg.policy()
    pair = CoprimePair(p, q)
    r1 = proposition31_residual(pair, s1, tau, policy)
    r2 = proposition31_residual(pair, s2, tau, policy)
    const = expected_constant(pair, tau, policy)
    closed = proposition31_constant_closed_form(pair, tau, policy)
    return [
        cfg.check("prop31.constancy", abs((r1 - r2).value)),
        cfg.check("prop31.constant", abs((r2 - const).value)),
        cfg.check("prop31.closed-form", abs((r2 - closed).value)),
    ]


def _verify_lemma32(cfg: RunConfig, p, q, s, t, tau) -> List[dict]:
    rs = machide_reciprocity_residuals(CoprimePair(p, q), s, t, tau, cfg.policy())
    return [cfg.check(f"lemma32.combo{i + 1}", abs(r.value), family="lemma32")
            for i, r in enumerate(rs)]


def _verify_eq73(cfg: RunConfig, n, tau) -> List[dict]:
    policy = cfg.policy()
    scale = coefficient_scale(n, tau, policy)
    return [cfg.check("eq73", abs(verify_eq73(n, k, tau, policy).value) / scale, k=k)
            for k in range(1, 2 * n + 3)]


def _verify_eq64(cfg: RunConfig, w, tau) -> List[dict]:
    policy = cfg.policy()
    res = verify_eq64_onedim(w, tau, policy)
    lhs, _ = reciprocity_laurent(w, tau, policy)
    # lhs coefficients can all vanish at special tau; fall back to the scale
    # of the Eisenstein data they are built from
    denom = max(lhs.max_abs_coeff(),
                coefficient_scale(w // 2, tau, policy) / (2 * math.pi) ** 2)
    return [cfg.check("eq64", res.max_abs_coeff() / denom)]


def _verify_basis_rank(cfg: RunConfig, w, num_tau) -> List[dict]:
    rank = basis_rank(w, random_taus(num_tau, cfg.seed), cfg.policy())
    d, _ = dim_data(w)
    rec = cfg.check("basis-rank", float(abs(rank - (d + 1))), seed=cfg.seed)
    rec["rank"] = rank
    rec["expected_rank"] = d + 1
    return [rec]


def _verify_limit(cfg: RunConfig, n, p, q) -> List[dict]:
    policy = cfg.policy()
    pair = CoprimePair(p, q)
    exact_limit = (-(TWO_PI_I ** (2 * n)) / math.factorial(2 * n + 1)
                   * p ** (2 * n) * float(apostol_sum(2 * n + 1, q, p)))
    devs = {}
    for t in (10.0, 20.0):
        d = elliptic_apostol_sum(n, pair, TauPoint(complex(0, t)),
                                 Route.ZETA_DERIVATIVE, policy).value
        devs[t] = abs(d.value - exact_limit)
    return [
        cfg.check("limit.value", devs[20.0], tau="0+20i"),
        # the residual must not grow as Im(tau) doubles (floor allows both
        # being at the machine-noise level)
        cfg.check("limit.monotone", max(0.0, devs[20.0] - devs[10.0])),
    ]


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

#: Every argument of every subcommand, by flag: its add_argument keywords;
#: `_COMMANDS` gives a count flag (-k, -m, -n) its least value.
_ARGS: Dict[str, dict] = {
    **{flag: dict(type=int, required=True)
       for flag in ("-k", "-m", "-n", "-p", "-q", "-w")},
    # parse only the complex syntax here (bad syntax -> usage error); the
    # half-plane constraint is enforced in main() so it exits with the
    # domain code instead
    "--tau": dict(type=_complex_arg, required=True,
                  help='upper-half-plane point "a+bi"'),
    "--kind": dict(choices=("e", "g", "deriv"), default="e"),
    "--x": dict(type=float, required=True),
    "--y": dict(type=float, required=True),
    "--z": dict(type=_complex_arg, required=True),
    "--order": dict(type=_count_arg(0), default=0,
                    help="0 for zeta itself, j >= 1 for its j-th derivative"),
    "--route": dict(choices=[r.value for r in Route],
                    default=Route.ZETA_DERIVATIVE.value),
    "--which": dict(choices=("d", "r"), required=True),
    **{f"--vec-{c}": dict(type=_int_pair, required=True, metavar="A',A")
       for c in "abc"},
    **{f"--vec-{c}": dict(type=_float_pair, required=True, metavar="X',X")
       for c in "xyz"},
    # a count below its least value is a usage error, not an empty run
    "--w-max": dict(type=_count_arg(2), default=10),
    "--pq-max": dict(type=_count_arg(1), default=30),
    "--s1": dict(type=float, default=0.006),
    "--s2": dict(type=float, default=0.009),
    "--s": dict(type=float, default=0.013),
    "--t": dict(type=float, default=0.007),
    "--num-tau": dict(type=_count_arg(0), required=True),
    # the common flags, which every subcommand takes last
    "--tol": dict(type=_tol_arg),
    "--seed": dict(type=int, default=0),
    "--format": dict(dest="fmt", choices=("json", "csv", "pretty"), default="json"),
    "--max-terms": dict(type=_count_arg(1),
                        help="most terms any one series may use; exit 3 if one needs more"),
}

_COMMON = ("--tol", "--seed", "--format", "--max-terms")

#: mode -> subcommand -> (handler, its own arguments in --help order); a
#: handler takes the RunConfig and the parsed arguments by name.  A count
#: flag comes with its least value, below which it is a usage error; the
#: parity of -w stays a domain error.
_COMMANDS = {
    "eval": {
        "bernoulli": (_eval_bernoulli, (("-k", 0),)),
        "apostol-sum": (_eval_apostol_sum, (("-k", 1), "-q", "-p")),
        "g-poly": (_eval_g_poly, ("-w",)),
        "eisenstein": (_eval_eisenstein, (("-n", 1), "--kind", "--tau")),
        "elliptic-bernoulli": (_eval_elliptic_bernoulli,
                               (("-m", 0), "--x", "--y", "--tau")),
        "zeta-w": (_eval_zeta_w, ("--z", "--order", "--tau")),
        "elliptic-sum": (_eval_elliptic_sum, (("-n", 1), "-p", "-q", "--route", "--tau")),
        "reciprocity-rhs": (_eval_reciprocity_rhs, (("-n", 1), "-p", "-q", "--tau")),
        "generating": (_eval_generating, ("--which", "-p", "-q", "--x", "--tau")),
        "machide": (_eval_machide, (("-m", 0), ("-n", 0), "--vec-a", "--vec-b", "--vec-c",
                                    "--vec-x", "--vec-y", "--vec-z", "--tau")),
        "period-data": (_eval_period_data, (("-n", 1),)),
    },
    "verify": {
        "apostol-reciprocity": (_verify_apostol_reciprocity, ("--w-max", "--pq-max")),
        "thm11": (_verify_thm11, (("-n", 1), "-p", "-q", "--tau")),
        "three-term": (_verify_three_term, (("-n", 1), "-p", "-q", "--tau")),
        "thm13": (_verify_thm13, ("-p", "-q", "--tau")),
        "prop31": (_verify_prop31, ("-p", "-q", "--s1", "--s2", "--tau")),
        "lemma32": (_verify_lemma32, ("-p", "-q", "--s", "--t", "--tau")),
        "eq73": (_verify_eq73, (("-n", 1), "--tau")),
        "eq64": (_verify_eq64, ("-w", "--tau")),
        "basis-rank": (_verify_basis_rank, ("-w", "--num-tau")),
        "limit": (_verify_limit, (("-n", 1), "-p", "-q")),
    },
}


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="ellded",
        description="Classical and elliptic Apostol-Dedekind sums: evaluation "
                    "and identity verification.")
    top = root.add_subparsers(dest="mode", required=True)
    for mode, help_text in (("eval", "evaluate a single quantity"),
                            ("verify", "run residual checks")):
        subs = top.add_parser(mode, help=help_text).add_subparsers(
            dest="subcommand", required=True)
        for name, (_, flags) in _COMMANDS[mode].items():
            p = subs.add_parser(name)
            for flag in flags + _COMMON:
                if isinstance(flag, tuple):
                    flag, least = flag
                    p.add_argument(flag, **dict(_ARGS[flag], type=_count_arg(least)))
                else:
                    p.add_argument(flag, **_ARGS[flag])
    return root


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # verify resolves ELLDED_TOL once, before any check runs; eval ignores it
    tol = args.tol
    if args.mode == "verify" and tol is None and "ELLDED_TOL" in os.environ:
        try:
            tol = _tol_arg(os.environ["ELLDED_TOL"])
        except (ValueError, argparse.ArgumentTypeError) as exc:
            print(f"error: ELLDED_TOL: {exc}", file=sys.stderr)
            return EXIT_USAGE
    skip = {"mode", "subcommand", "tol", "seed", "fmt", "max_terms"}
    params = {k: v for k, v in vars(args).items() if k not in skip}
    handler, _ = _COMMANDS[args.mode][args.subcommand]
    try:
        if isinstance(params.get("tau"), complex):
            params["tau"] = TauPoint(params["tau"])
        cfg = RunConfig(params, tol, args.seed, args.max_terms)
        if args.mode == "eval":
            record = {"op": args.subcommand, "params": _echo(params),
                      "value": handler(cfg, **params)}
            _emit([record], args.fmt, sys.stdout)
            return EXIT_PASS
        records = handler(cfg, **params)
        _emit(records, args.fmt, sys.stdout)
        return EXIT_PASS if all(r["pass"] for r in records) else EXIT_FAIL
    except (ValueError, LatticePointError, NonConvergenceError,
            ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
