"""The benchmark tracer's bindings still fit the package.

``bench/spans.py`` wraps functions it looks up by module and name, and
silently drops every per-layer metric whose boundary is gone or whose counter
no longer fits the call (or reads a module constant that is gone).  A refactor that moves or unbinds one of them still
lets traced runs exit 0, with fewer metrics.  These tests load the tracer
read-only and fail instead.
"""

import importlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from bachimpact import BasketCall
from bachimpact.config import GENERIC_PAYOFFS

ROOT = Path(__file__).resolve().parent.parent
# the modules bench/worker.py hands to the tracer (its PACKAGE_MODULES)
PACKAGE_MODULES = ("linalg", "market", "pricing", "hedging", "asymptotics", "config", "cli")
# per-layer names bench/worker.py adds itself, outside layer_metrics
WORKER_ADDED = ("trace.wall_s", "trace.overhead_frac", "se2_s.", "ess_frac.")

CONVERGE_CFG = """
model.d = 1
model.s0 = 8.0
model.sigma = 1.0
model.T = 1.0
payoff.kind = basket_call
payoff.a = 1.0
payoff.b = -8.0
impact.a_risk = 1.0
impact.lambdas = 0.4 0.2
numerics.n_paths = 300
numerics.n_steps = 16
numerics.seed = 7
"""


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def modules():
    return {name: importlib.import_module(f"bachimpact.{name}") for name in PACKAGE_MODULES}


def layer_metric_names():
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"] for m in per_layer if not m["name"].startswith(WORKER_ADDED)}


def test_every_metric_boundary_resolves(spans, modules):
    by_span = {}
    for b in spans.boundaries(modules):
        by_span.setdefault(b.span, []).append(b)
    needed = sorted({span for deps in spans._DEPENDS.values() for span in deps})
    for span in needed:
        assert span in by_span, f"no boundary named {span}"
        for b in by_span[span]:
            target = getattr(modules[b.module], b.attr, None)
            assert callable(target), f"{span}: {b.module}.{b.attr} is gone"


def test_traced_round_emits_every_layer_metric(spans, modules, tmp_path, atm_model):
    cfg = tmp_path / "converge.cfg"
    cfg.write_text(CONVERGE_CFG)
    call = BasketCall(a=[1.0], b=-8.0)
    strad = GENERIC_PAYOFFS["straddle"](np.array([1.0]), -8.0)
    tracer = spans.Tracer()
    tracer.install(modules, spans.boundaries(modules))
    try:
        code = modules["cli"].main(
            ["converge", "--config", str(cfg), "--out", str(tmp_path / "c.csv"), "--quiet"]
        )
        # through the module, whose binding the tracer replaced
        modules["pricing"].price_u(1.0, atm_model, call, 0.5, [8.0])
        modules["pricing"].delta_u(1.0, atm_model, call, 0.5, [8.0])
        # a ridge payoff's inflation: the supconv counter reads market's
        # SEARCH_* constants for it, which nothing else in the package uses
        modules["market"].sup_convolve(strad, 1.0, atm_model.sigma, [[7.5], [8.5]])
        spec = modules["asymptotics"].optimal_dual_Y(1.0, atm_model, strad, [0.0])
        modules["asymptotics"].dual_lower_bound(1.0, atm_model, strad, [0.0], spec)
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counter_errors == []
    metrics = spans.layer_metrics(tracer, 1)
    missing = layer_metric_names() - set(metrics)
    assert not missing, f"traced round lost {sorted(missing)}"
    bad = {k: v for k, v in metrics.items() if not math.isfinite(v)}
    assert not bad
    assert metrics["hedging.draws_per_path_step"] > 0.0
    supconv = {k for k in metrics if k.startswith("market.supconv.")}
    assert supconv == {f"market.supconv.{k}" for k in ("points", "us_per_point", "candidates_per_point")}
    assert metrics["market.supconv.points"] > 0.0
