"""Outside-in tracing of the ellded layers.

`Tracer.install` rebinds each traced function at every `ellded` module that
binds it (`ellded.qseries.eisenstein`, `ellded.symbols.eisenstein`, ...), so
calls made inside the package are caught as well as the benchmark's own.
Each call becomes a span: name, start, end, parent span and op id.  Spans
stay in memory, in flat arrays, until `layer_metrics` folds them into
per-layer counts and self times at the end of the run.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from ellded.symbols import Route

#: traced functions by layer; the layer is the module that defines them
LAYERS: Dict[str, Tuple[str, ...]] = {
    "exact": ("apostol_sum", "g_poly", "verify_apostol_reciprocity"),
    "qseries": ("eisenstein", "eisenstein_tau_derivative", "weierstrass_zeta",
                "weierstrass_p_deriv", "elliptic_bernoulli",
                "sigma_log_tau_derivative"),
    "symbols": ("elliptic_apostol_sum", "reciprocity_rhs", "generating_D",
                "generating_R", "proposition31_residual",
                "proposition31_constant_closed_form", "machide_sum"),
    "identities": ("c_coefficients", "coefficient_scale", "verify_eq73",
                   "verify_eq64_onedim", "reciprocity_laurent", "t_weighted",
                   "verify_three_term", "basis_rank"),
}

#: span name of one benchmark op; its self time is the benchmark's own
OP_SPAN = "bench.op"

_ROUTE_NAMES = {Route.ZETA_DERIVATIVE: "zeta_derivative",
                Route.BERNOULLI_PRODUCT: "bernoulli_product"}


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Span recorder for one process.  Not thread-safe: the benchmark is a
    single-threaded closed loop."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        self.op_id = -1
        self.apostol_terms = 0
        self.eisenstein_keys: set = set()
        self.division_points: Dict[str, int] = {r: 0 for r in _ROUTE_NAMES.values()}
        self.qseries_errors = 0
        self._last_error: Optional[BaseException] = None
        self._originals: List[Tuple[object, str, Callable]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        """Open the span of one benchmark op; close it with `end`."""
        self.op_id = op_id
        return self.begin(self._name_id(OP_SPAN))

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer: str, fn_name: str, fn: Callable) -> Callable:
        tracer = self
        base = f"{layer}.{fn_name}"
        nid = self._name_id(base)

        if fn_name == "elliptic_apostol_sum":
            ids = {r: self._name_id(f"{base}.{s}") for r, s in _ROUTE_NAMES.items()}

            def name_of(args, kwargs):
                route = _arg(args, kwargs, 3, "route", Route.ZETA_DERIVATIVE)
                p = _arg(args, kwargs, 1, "pair").p
                tracer.division_points[_ROUTE_NAMES[route]] += p * p - 1
                return ids[route]
        elif fn_name == "apostol_sum":
            def name_of(args, kwargs):
                tracer.apostol_terms += max(_arg(args, kwargs, 2, "p") - 1, 0)
                return nid
        elif fn_name == "eisenstein":
            def name_of(args, kwargs):
                tau = _arg(args, kwargs, 1, "tau")
                tracer.eisenstein_keys.add((_arg(args, kwargs, 0, "n"), tau.tau))
                return nid
        else:
            name_of = None

        count_errors = layer == "qseries"

        def traced(*args, **kwargs):
            idx = tracer.begin(name_of(args, kwargs) if name_of else nid)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # count each error once, at the innermost qseries span it leaves
                if count_errors and exc is not tracer._last_error:
                    tracer._last_error = exc
                    tracer.qseries_errors += 1
                raise
            finally:
                tracer.end(idx)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded ellded module."""
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "ellded" or name.startswith("ellded."))]
        for layer, fn_names in LAYERS.items():
            home = sys.modules[f"ellded.{layer}"]
            for fn_name in fn_names:
                fn = getattr(home, fn_name)
                traced = self._wrap(layer, fn_name, fn)
                for mod in mods:
                    if getattr(mod, fn_name, None) is fn:
                        self._originals.append((mod, fn_name, fn))
                        setattr(mod, fn_name, traced)

    def uninstall(self) -> None:
        for mod, fn_name, fn in reversed(self._originals):
            setattr(mod, fn_name, fn)
        self._originals.clear()

    # -- folding -------------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Calls and self time per span name.  A span's self time is its
        duration minus the durations of its direct children, which lie
        inside it."""
        n = len(self.span_start)
        child = [0.0] * n
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            par = parent[i]
            if par >= 0:
                child[par] += end[i] - start[i]
        calls = {name: 0 for name in self.names}
        self_s = {name: 0.0 for name in self.names}
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += end[i] - start[i] - child[i]
        return calls, self_s


def per_layer_names() -> List[str]:
    """Names of the per-layer span metrics, in report order."""
    out = []
    for layer, fn_names in LAYERS.items():
        for fn_name in fn_names:
            if fn_name == "elliptic_apostol_sum":
                for route in _ROUTE_NAMES.values():
                    out += [f"{layer}.{fn_name}.{route}.{m}"
                            for m in ("calls", "self_s", "division_points")]
                continue
            out += [f"{layer}.{fn_name}.calls", f"{layer}.{fn_name}.self_s"]
            if fn_name == "apostol_sum":
                out += ["exact.apostol_sum.terms", "exact.apostol_sum.ns_per_term"]
            elif fn_name == "eisenstein":
                out.append("qseries.eisenstein.distinct_ratio")
    return out + ["qseries.slow_nome_warnings", "qseries.errors"]


def layer_metrics(tracer: Tracer, slow_nome_warnings: int) -> Dict[str, float]:
    """Per-layer metric values keyed as in `per_layer_names`."""
    calls, self_s = tracer.self_times()
    out: Dict[str, float] = {}
    for name in per_layer_names():
        span, _, metric = name.rpartition(".")
        if metric == "calls":
            out[name] = calls.get(span, 0)
        elif metric == "self_s":
            out[name] = self_s.get(span, 0.0)
    out["exact.apostol_sum.terms"] = tracer.apostol_terms
    out["exact.apostol_sum.ns_per_term"] = (
        1e9 * self_s.get("exact.apostol_sum", 0.0) / tracer.apostol_terms
        if tracer.apostol_terms else 0.0)
    n_eis = calls.get("qseries.eisenstein", 0)
    out["qseries.eisenstein.distinct_ratio"] = (
        len(tracer.eisenstein_keys) / n_eis if n_eis else 0.0)
    for route, points in tracer.division_points.items():
        out[f"symbols.elliptic_apostol_sum.{route}.division_points"] = points
    out["qseries.slow_nome_warnings"] = slow_nome_warnings
    out["qseries.errors"] = tracer.qseries_errors
    return out
