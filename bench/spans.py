"""Outside-in span tracer for the benchmark's traced runs.

The package source is not touched.  Each boundary from :func:`boundaries` is a
function looked up by name in a package module; the tracer replaces that
binding, and every other binding of the same function object in the
package's module namespaces and module-level dicts (so ``from .market import
brownian_increments`` in ``hedging`` and ``cli._COMMANDS`` are both covered),
with a wrapper that records a span.  A name a refactor has removed is listed
as absent instead of raising.

Spans are kept in memory as parallel arrays (name, parent, start, end,
failed) and written out when the run ends.  A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested on the one thread, so that is the part of its interval the children
cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np

LAYERS = ("linalg", "market", "pricing", "hedging", "asymptotics", "cli")
SUBCOMMANDS = ("figure", "price", "dual", "hedge", "check", "converge")


class Tracer:
    """In-memory span store plus the named counters measured at boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.absent: list[str] = []  # spans whose boundary name is gone
        self.absent_names: list[str] = []
        self.counter_errors: list[str] = []
        self._patches: list[tuple[dict, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.failed.append(0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int, failed: bool = False) -> None:
        self.end[sid] = perf_counter()
        if failed:
            self.failed[sid] = 1
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(self.name_id(name))
        try:
            yield
        except BaseException:
            self.close(sid, failed=True)
            raise
        self.close(sid)

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def record_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def wrap(self, fn, span_name: str, counter=None, wrap_result=None):
        nid = self.name_id(span_name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(sid, failed=True)
                raise
            tracer.close(sid)
            if counter is not None:
                try:
                    counter(tracer, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    if span_name not in tracer.counter_errors:
                        tracer.counter_errors.append(span_name)
            if wrap_result is not None:
                result = wrap_result(tracer, result)
            return result

        return traced

    def install(self, modules: dict, boundaries) -> None:
        """Wrap every boundary found; record the ones whose name is gone."""
        for b in boundaries:
            original = getattr(modules.get(b.module), b.attr, None)
            if not callable(original):
                self.absent.append(b.span)
                self.absent_names.append(f"{b.module}.{b.attr}")
                continue
            wrapped = self.wrap(original, b.span, b.counter, b.wrap_result)
            for mod in modules.values():
                for ns in _namespaces(mod):
                    for key, value in list(ns.items()):
                        if value is original:
                            self._patches.append((ns, key, original))
                            ns[key] = wrapped

    def uninstall(self) -> None:
        while self._patches:
            ns, key, original = self._patches.pop()
            ns[key] = original

    def arrays(self) -> dict:
        """Copies of the span columns as numpy arrays."""
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "failed": np.array(self.failed, dtype=np.int8),
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "spans": {
                        "name": list(self.name),
                        "parent": list(self.parent),
                        "start": list(self.start),
                        "end": list(self.end),
                        "failed": list(self.failed),
                    },
                    "counters": self.counters,
                    "maxima": self.maxima,
                    "absent": self.absent_names,
                    "counter_errors": self.counter_errors,
                },
                fh,
            )


def span_cost_s(calls: int = 20000) -> float:
    """Wrapper cost of one span: a wrapped no-op minus the bare call."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap(noop, "probe.noop")
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    t1 = perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls


class NullTracer:
    """Stand-in for untraced rounds: spans cost one attribute lookup."""

    def span(self, name: str):
        return contextlib.nullcontext()


def _namespaces(mod):
    ns = vars(mod)
    yield ns
    for key, value in list(ns.items()):
        if isinstance(value, dict) and not key.startswith("__"):
            yield value


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Span duration minus the summed durations of its direct children."""
    child = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], duration[has_parent])
    return duration - child


# ---------------------------------------------------------------------------
# boundaries and their counters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Boundary:
    span: str  # "<layer>.<what>"
    module: str  # package module whose binding is looked up
    attr: str
    counter: Optional[Callable] = None
    wrap_result: Optional[Callable] = None


def _count_draw(tr, args, kwargs, result):
    tr.count("draw.path_steps", result.shape[0])


def _count_chunk(tr, args, kwargs, result):
    n_steps = int(args[0][5])
    m, d = result[0].shape
    tr.count("hedge.path_steps", m * n_steps)
    tr.record_max("hedge.increment_buffer_bytes", m * n_steps * d * 8)


def _count_target(tr, args, kwargs, result):
    tr.count("target.path_steps", result.shape[0])


def _wrap_target(tr, closure):
    return tr.wrap(closure, "hedging.target", counter=_count_target)


def _supconv_counter(market):
    def count(tr, args, kwargs, result):
        payoff = args[0]
        points, d = result[1].shape
        tr.count("supconv.points", points)
        if type(payoff).__name__ == "BasketCall":
            candidates = points  # closed form, one evaluation per point
        elif payoff.lipschitz_constant == 0.0:
            candidates = 0
        else:
            rounds = kwargs.get("rounds", args[4] if len(args) > 4 else market.SEARCH_ROUNDS)
            grid = kwargs.get(
                "grid_points", args[5] if len(args) > 5 else market.SEARCH_GRID_POINTS
            )
            candidates = points * (rounds + 1) * grid**d
        tr.count("supconv.candidates", candidates)

    return count


def boundaries(modules: dict) -> list[Boundary]:
    kernels = ("kernel_time_integral", "kernel_limit_integral", "kernel_K", "kernel_G", "kernel_L")
    return [
        Boundary("market.draw", "hedging", "brownian_increments", _count_draw),
        Boundary("market.simulate_paths", "market", "simulate_paths"),
        Boundary("market.supconv", "market", "_sup_convolve_batch", _supconv_counter(modules["market"])),
        Boundary("market.sup_convolve", "market", "sup_convolve"),
        Boundary("market.supconv_argmax", "market", "sup_convolve_argmax_batch"),
        Boundary("pricing.price_u", "pricing", "price_u"),
        Boundary("pricing.delta_u", "hedging", "delta_u"),
        Boundary("pricing.pde_residual", "pricing", "pde_residual"),
        Boundary("pricing.limit_value", "pricing", "limit_value"),
        Boundary("pricing.indifference_limit", "pricing", "indifference_limit"),
        Boundary("pricing.default_quadrature", "pricing", "default_quadrature"),
        Boundary("hedging.chunk", "hedging", "_hedge_chunk", _count_chunk),
        Boundary("hedging.target_factory", "hedging", "_closed_form_delta_factory", None, _wrap_target),
        Boundary("hedging.run_hedge_batch", "asymptotics", "run_hedge_batch"),
        Boundary("hedging.integrate_strategy", "hedging", "integrate_strategy"),
        Boundary("hedging.supermartingale_check_mc", "hedging", "supermartingale_check_mc"),
        Boundary("hedging.duhamel_solution", "hedging", "duhamel_solution"),
        Boundary("hedging.wealth", "hedging", "wealth"),
        Boundary("hedging.wealth_by_parts", "hedging", "wealth_by_parts"),
        Boundary("asymptotics.ce", "asymptotics", "certainty_equivalent_mc"),
        Boundary("asymptotics.dual", "asymptotics", "dual_lower_bound"),
        Boundary("asymptotics.optimal_dual_Y", "asymptotics", "optimal_dual_Y"),
        *(Boundary("asymptotics.kernel", "asymptotics", k) for k in kernels),
        Boundary("linalg.make_spd", "config", "make_spd"),
        Boundary("linalg.mat_exp", "hedging", "mat_exp"),
        Boundary("linalg.hyperbolic_ratio", "asymptotics", "hyperbolic_ratio"),
        Boundary("linalg.inverse", "linalg", "inverse"),
        Boundary("linalg.apply_scalar_function", "linalg", "apply_scalar_function"),
        Boundary("cli.config", "cli", "load_config"),
        Boundary("cli.emit", "cli", "_emit"),
        *(Boundary(f"cli.cmd.{c}", "cli", f"cmd_{c}") for c in SUBCOMMANDS),
    ]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_rounds: int) -> dict[str, float]:
    """Per-layer figures over the traced rounds; totals are per round.

    Rates over zero calls are reported as 0 (the workload bypasses that
    layer); metrics of a boundary the tracer could not find are left out.
    """
    arr = tracer.arrays()
    duration = arr["end"] - arr["start"]
    own = self_times(arr["parent"], duration)
    names = tracer.names
    name_of = np.array([names[i] for i in arr["name"]], dtype=object) if len(arr["name"]) else np.zeros(0, object)
    layer_of = np.array([n.split(".", 1)[0] for n in name_of], dtype=object)

    def sel(name: str) -> np.ndarray:
        return name_of == name

    def total(name: str) -> float:
        return float(duration[sel(name)].sum())

    def mean(name: str) -> float:
        mask = sel(name)
        return float(duration[mask].mean()) if mask.any() else 0.0

    out: dict[str, float] = {}
    for layer in LAYERS:
        mask = layer_of == layer
        out[f"{layer}.self_s"] = float(own[mask].sum()) / n_rounds
        out[f"{layer}.calls"] = float(mask.sum()) / n_rounds
        out[f"{layer}.errors"] = float(arr["failed"][mask].sum()) / n_rounds
    out["bench.self_s"] = float(own[layer_of == "bench"].sum()) / n_rounds
    out["trace.spans"] = float(len(duration)) / n_rounds

    c = tracer.counters
    hedged = c.get("hedge.path_steps", 0.0)
    out["market.draw.ns_per_path_step"] = 1e9 * _ratio(total("market.draw"), c.get("draw.path_steps", 0.0))
    out["hedging.draws_per_path_step"] = _ratio(c.get("draw.path_steps", 0.0), hedged)
    out["hedging.target.ns_per_path_step"] = 1e9 * _ratio(total("hedging.target"), hedged)
    out["hedging.loop.ns_per_path_step"] = 1e9 * _ratio(float(own[sel("hedging.chunk")].sum()), hedged)
    out["hedging.increment_buffer_mb"] = tracer.maxima.get("hedge.increment_buffer_bytes", 0.0) / 1e6
    ce = sel("asymptotics.ce")
    out["asymptotics.ce.reduce_ms"] = 1e3 * (float(own[ce].mean()) if ce.any() else 0.0)

    points = c.get("supconv.points", 0.0)
    out["market.supconv.points"] = points / n_rounds
    out["market.supconv.us_per_point"] = 1e6 * _ratio(total("market.supconv"), points)
    out["market.supconv.candidates_per_point"] = _ratio(c.get("supconv.candidates", 0.0), points)

    out["pricing.price_u.us_per_call"] = 1e6 * mean("pricing.price_u")
    out["pricing.delta_u.us_per_call"] = 1e6 * mean("pricing.delta_u")
    deltas = sel("pricing.delta_u")
    delta_ids = np.flatnonzero(deltas)
    inside = np.isin(arr["parent"], delta_ids) & sel("pricing.price_u")
    out["pricing.price_u.calls_per_delta"] = _ratio(float(inside.sum()), float(deltas.sum()))
    out["asymptotics.dual.ms_per_call"] = 1e3 * mean("asymptotics.dual")
    out["asymptotics.kernel.us_per_call"] = 1e6 * mean("asymptotics.kernel")
    out["linalg.make_spd.us_per_call"] = 1e6 * mean("linalg.make_spd")
    out["cli.config.ms_per_call"] = 1e3 * mean("cli.config")
    out["cli.emit.ms_per_call"] = 1e3 * mean("cli.emit")
    for sub in SUBCOMMANDS:
        mask = sel(f"cli.cmd.{sub}")
        out[f"cli.{sub}.p50_ms"] = 1e3 * float(np.median(duration[mask])) if mask.any() else 0.0

    gone = set(tracer.absent) | set(tracer.counter_errors)
    for metric in list(out):
        if any(_depends(metric, g) for g in gone):
            del out[metric]
    return out


# metric prefix -> spans it is measured at; a metric whose boundary is
# absent (or whose counter no longer fits the signature) is left out
_DEPENDS = {
    "market.draw.": ("market.draw",),
    "hedging.draws_per_path_step": ("market.draw", "hedging.chunk"),
    "hedging.target.": ("hedging.target_factory", "hedging.chunk"),
    "hedging.loop.": ("hedging.chunk", "market.draw", "hedging.target_factory"),
    "hedging.increment_buffer_mb": ("hedging.chunk",),
    "asymptotics.ce.": ("asymptotics.ce", "hedging.run_hedge_batch"),
    "market.supconv.": ("market.supconv",),
    "pricing.price_u.": ("pricing.price_u",),
    "pricing.delta_u.": ("pricing.delta_u",),
    "pricing.price_u.calls_per_delta": ("pricing.price_u", "pricing.delta_u"),
    "asymptotics.dual.": ("asymptotics.dual",),
    "asymptotics.kernel.": ("asymptotics.kernel",),
    "linalg.make_spd.": ("linalg.make_spd",),
    "cli.config.": ("cli.config",),
    "cli.emit.": ("cli.emit",),
    **{f"cli.{c}.": (f"cli.cmd.{c}",) for c in SUBCOMMANDS},
}


def _depends(metric: str, gone: str) -> bool:
    return any(metric.startswith(prefix) and gone in spans for prefix, spans in _DEPENDS.items())
