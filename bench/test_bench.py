"""Self-tests of the benchmark's own arithmetic and references.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference as ref  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from bachimpact import asymptotics, config, hedging, linalg, market, pricing  # noqa: E402
from workloads import Round  # noqa: E402


@pytest.fixture(scope="module")
def model():
    return market.BachelierModel(s0=[8.0], mu=[0.0], sigma=linalg.make_spd([[0.9]]), T=1.0)


def test_ess_frac_from_se_matches_kish_ess(model):
    payoff = market.BasketCall(a=[1.0], b=-8.0)
    grid = market.TimeGrid(n_steps=16, T=1.0)
    a_risk, lam, n, seed = 1.3, 0.1, 64, 99
    batch = hedging.run_hedge_batch(a_risk, lam, model, payoff, [0.0], grid, n, seed)
    w = np.exp(batch.utility_exponent - batch.utility_exponent.max())
    kish = float(w.sum() ** 2 / (w * w).sum()) / n
    est = asymptotics.certainty_equivalent_mc(a_risk, lam, model, payoff, [0.0], n, grid, seed)
    assert ref.ess_frac_from_se(est.std_error, lam, a_risk, n) == pytest.approx(kish, rel=1e-9)


def test_self_times_on_synthetic_tree():
    #   0 (10) -> 1 (6) -> 2 (2), 3 (1);  0 -> 4 (3)
    parent = np.array([-1, 0, 1, 1, 0])
    duration = np.array([10.0, 6.0, 2.0, 1.0, 3.0])
    assert spans.self_times(parent, duration).tolist() == [1.0, 3.0, 2.0, 1.0, 3.0]


def test_layer_self_times_account_for_the_round():
    class Fake:
        pass

    inner_mod, outer_mod = Fake(), Fake()

    def inner(x):
        return x + 1

    def outer(x):
        return inner_mod.inner(x) * 2

    inner_mod.inner, outer_mod.outer = inner, outer
    modules = {"market": inner_mod, "pricing": outer_mod}
    bounds = [
        spans.Boundary("market.inner", "market", "inner"),
        spans.Boundary("pricing.outer", "pricing", "outer"),
        spans.Boundary("hedging.gone", "pricing", "renamed_away"),
    ]
    tr = spans.Tracer()
    tr.install(modules, bounds)
    with tr.span("bench.round"):
        for i in range(5):
            assert outer_mod.outer(i) == 2 * (i + 1)
    tr.uninstall()
    assert outer_mod.outer is outer and inner_mod.inner is inner
    assert tr.absent_names == ["pricing.renamed_away"]

    arr = tr.arrays()
    wall = float(arr["end"][0] - arr["start"][0])
    out = spans.layer_metrics(tr, n_rounds=1)
    total = sum(out[f"{layer}.self_s"] for layer in spans.LAYERS) + out["bench.self_s"]
    assert total == pytest.approx(wall, rel=1e-9)
    assert out["market.calls"] == 5 and out["pricing.calls"] == 5
    assert out["trace.spans"] == 11


def test_straddle_reference_matches_price_u_at_small_size(model):
    rule = pricing.build_normal_panel(200, 8, 1)
    a_risk, a, b = 1.2, 0.8, -6.4
    strad = config.GENERIC_PAYOFFS["straddle"](np.array([a]), b)
    for t, x in ((0.0, 8.0), (0.3, 7.1), (0.6, 9.0)):
        want_p, want_d = ref.straddle(a_risk, [a], b, [[0.9]], 1.0, t, [x])
        assert pricing.price_u(a_risk, model, strad, t, [x], rule) == pytest.approx(want_p, abs=1e-5)
        got_d = pricing.delta_u(a_risk, model, strad, t, [x], rule)[0]
        assert got_d == pytest.approx(want_d[0], abs=2e-3)


def test_basket_reference_matches_closed_form(model):
    payoff = market.BasketCall(a=[1.1], b=-8.5)
    for t, x in ((0.0, 8.0), (0.5, 9.2)):
        want_p, want_d = ref.basket_call(0.7, [1.1], -8.5, [[0.9]], 1.0, t, [x])
        assert pricing.price_u(0.7, model, payoff, t, [x]) == pytest.approx(want_p, rel=1e-12)
        assert pricing.delta_u(0.7, model, payoff, t, [x])[0] == pytest.approx(want_d[0], rel=1e-12)


def test_percentile_interpolates():
    assert ref.percentile([3.0, 1.0, 2.0, 4.0], 50.0) == 2.5
    assert ref.percentile([5.0], 75.0) == 5.0
    assert math.isclose(ref.percentile(range(11), 75.0), 7.5)


def test_hedge_rate_skips_rounds_whose_hedge_ops_failed():
    ok = Round(latencies_s=[0.1], path_steps=400.0, hedge_s=2.0, wall_s=1.0)
    failed = Round(latencies_s=[0.1], wall_s=1.0)
    assert worker.end_to_end([ok, failed, ok])["path_steps_per_s"] == 200.0
    assert worker.end_to_end([failed])["path_steps_per_s"] == 0.0
