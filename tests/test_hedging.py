import hashlib
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.special import ndtr
from scipy.stats import norm

from bachimpact import (
    BachelierModel,
    BasketCall,
    HedgeBatch,
    TimeGrid,
    auto_n_steps,
    brownian_increments,
    delta_u,
    duhamel_solution,
    hedge_paths,
    position_bound,
    run_hedge_batch,
    step_matrix,
    supermartingale_check_mc,
    wealth,
    wealth_by_parts,
)
from bachimpact import cli, hedging, market
from bachimpact.market import inflated_strike
from bachimpact.pricing import limit_value
from oracle import philox_stream, zero_claim


class TestStepScaling:
    def test_auto_steps_floor(self, atm_model):
        assert auto_n_steps(1.0, 0.4, atm_model) == 1000

    def test_auto_steps_stiff(self, atm_model):
        assert auto_n_steps(1.0, 0.01, atm_model) == 2000

    def test_auto_steps_cap_warns(self, atm_model):
        with pytest.warns(RuntimeWarning):
            assert auto_n_steps(1.0, 1e-5, atm_model) == 100_000

    def test_step_matrix_scalar(self, sigma1):
        assert step_matrix(1.0, 0.1, sigma1, 0.05)[0, 0] == pytest.approx(math.exp(-0.5))


def _shifted_delta(a_risk, model, payoff, t, s_t, phi_t):
    """The engine's target: the claim's delta at the shifted spot s - sqrt(A) phi sigma."""
    phi_t = np.atleast_1d(np.asarray(phi_t, dtype=float))
    shifted = np.asarray(s_t, dtype=float) - math.sqrt(a_risk) * (phi_t @ model.sigma.entries)
    return delta_u(a_risk, model, payoff, t, shifted)


class TestTrackingTarget:
    def test_zero_payoff(self, atm_model):
        theta = _shifted_delta(1.0, atm_model, zero_claim(), 0.3, [8.0], [0.5])
        assert np.array_equal(theta, [0.0])

    def test_saturated(self, atm_model):
        call = BasketCall(a=[1.0], b=-8.0)
        theta = _shifted_delta(1.0, atm_model, call, 0.0, [25.0], [0.0])
        assert abs(theta[0] - 1.0) < 1e-10

    def test_atm_value(self, atm_model, atm_call):
        theta = _shifted_delta(1.0, atm_model, atm_call, 0.0, [8.0], [0.0])
        assert theta[0] == pytest.approx(norm.cdf(0.5), abs=1e-12)

    def test_inventory_shift(self, atm_model, atm_call):
        # holding phi shifts the evaluation point down by sqrt(A) phi sigma
        shifted = _shifted_delta(1.0, atm_model, atm_call, 0.0, [9.0], [1.0])
        base = _shifted_delta(1.0, atm_model, atm_call, 0.0, [8.0], [0.0])
        assert shifted[0] == pytest.approx(base[0], abs=1e-12)


def zero_hedge_prices(model, grid, n_paths, seed):
    """(n_paths, n+1, d) Bachelier prices recorded by the engine."""
    return hedge_paths(
        1.0, 0.2, model, zero_claim(model.d), np.zeros(model.d), grid, n_paths, seed
    ).prices


class TestIntegrateStrategy:
    """The relaxation ODE as the engine integrates it."""

    def test_constant_target_single_step(self, atm_model, atm_call):
        # relaxation rate 10, one step of 0.1: phi = 1 - e^{-1}
        grid = TimeGrid(n_steps=1, T=0.1)
        model = BachelierModel(s0=[8.0], mu=[0.0], sigma=atm_model.sigma, T=0.1)
        rec = hedge_paths(1.0, 0.1, model, atm_call, [0.0], grid, 1, 1, theta=[[1.0]])
        assert rec.positions[0, 1, 0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_zero_payoff_pure_decay(self, atm_model):
        grid = TimeGrid(n_steps=128, T=1.0)
        rec = hedge_paths(1.0, 0.25, atm_model, zero_claim(), [1.0], grid, 1, 2)
        expected = np.exp(-4.0 * grid.knots)
        assert np.abs(rec.positions[0, :, 0] - expected).max() < 1e-12
        oracle = duhamel_solution(1.0, 0.25, atm_model, np.zeros((128, 1)), [1.0], grid)
        assert np.abs(rec.positions[0] - oracle).max() < 1e-12

    def test_stiff_regime_bounded_unlike_euler(self, atm_model, atm_call):
        # h = 0.01 far exceeds the explicit-Euler stability bound 2 lam = 0.002
        lam = 1e-3
        grid = TimeGrid(n_steps=100, T=1.0)
        rec = hedge_paths(1.0, lam, atm_model, atm_call, [0.0], grid, 1, 3)
        assert rec.batch.sup_position_norm[0] <= position_bound(atm_call, [0.0], margin=0.05)

        prices = rec.prices[0]
        phi = 0.0
        blew_up = False
        for k in range(grid.n_steps):
            theta = _shifted_delta(1.0, atm_model, atm_call, grid.knots[k], prices[k], [phi])
            phi = phi + (1.0 / lam) * (theta[0] - phi) * grid.dt
            if abs(phi) > 10.0:
                blew_up = True
                break
        assert blew_up

    def test_positions_consistent_with_rates(self, atm_model, atm_call):
        grid = TimeGrid(n_steps=32, T=1.0)
        rec = hedge_paths(1.0, 0.2, atm_model, atm_call, [0.3], grid, 1, 4)
        steps = np.diff(rec.positions[0], axis=0)
        assert np.abs(steps - rec.rates[0] * grid.dt).max() < 1e-12
        assert rec.batch.cost_integral[0] >= 0.0

    def test_exponent_definition(self, atm_model, atm_call):
        grid = TimeGrid(n_steps=16, T=1.0)
        batch = run_hedge_batch(1.0, 0.5, atm_model, atm_call, [0.0], grid, 4, 6)
        assert batch.utility_exponent == pytest.approx(
            2.0 * (batch.payoff_value - batch.terminal_wealth)
        )


class TestDuhamel:
    def test_constant_forcing(self, atm_model):
        grid = TimeGrid(n_steps=256, T=1.0)
        c = 0.7
        theta = np.full((256, 1), c)
        out = duhamel_solution(1.0, 0.2, atm_model, theta, [0.1], grid)
        expected = c + (0.1 - c) * np.exp(-5.0 * grid.knots)
        assert np.abs(out[:, 0] - expected).max() < 1e-10

    def test_agreement_random_theta(self, atm_model, atm_call, model2):
        rng = np.random.default_rng(8)
        for model, d in ((atm_model, 1), (model2, 2)):
            grid = TimeGrid(n_steps=200, T=1.0)
            theta = rng.normal(size=(200, d))
            payoff = atm_call if d == 1 else BasketCall(a=[1.0, 0.0], b=-8.0)
            rec = hedge_paths(1.0, 0.1, model, payoff, np.zeros(d), grid, 1, 9, theta=theta)
            oracle = duhamel_solution(1.0, 0.1, model, theta, np.zeros(d), grid)
            assert np.abs(rec.positions[0] - oracle).max() < 1e-10


class TestWealth:
    def test_buy_and_hold(self, atm_model):
        grid = TimeGrid(n_steps=64, T=1.0)
        prices = zero_hedge_prices(atm_model, grid, 1, 10)[0]
        positions = np.full((65, 1), 2.0)
        rates = np.zeros((64, 1))
        expected = 2.0 * (prices[-1, 0] - prices[0, 0])
        assert wealth(prices, positions, rates, 0.3, grid.dt) == pytest.approx(expected, abs=1e-12)
        assert wealth_by_parts(prices, positions, rates, 0.3, grid.dt) == pytest.approx(
            expected, abs=1e-12
        )

    def test_flat_zero(self, atm_model):
        grid = TimeGrid(n_steps=8, T=1.0)
        prices = zero_hedge_prices(atm_model, grid, 1, 11)[0]
        flat = (prices, np.zeros((9, 1)), np.zeros((8, 1)), 0.1, grid.dt)
        assert wealth(*flat) == 0.0
        assert wealth_by_parts(*flat) == 0.0

    def test_single_step_hand_values(self, atm_model):
        # both formulas reduce to two-term hand computations at n = 1;
        # they differ by h * rate * (S_1 - S_0), the one-step Riemann gap
        grid = TimeGrid(n_steps=1, T=1.0)
        prices = zero_hedge_prices(atm_model, grid, 1, 12)[0]
        phi0, rate, lam = 0.4, 0.9, 0.2
        positions = np.array([[phi0], [phi0 + rate]])
        rates = np.array([[rate]])
        ds = prices[1, 0] - prices[0, 0]
        hand_left = phi0 * ds - 0.5 * lam * rate**2
        hand_parts = phi0 * ds + (rate * (prices[1, 0] - prices[0, 0]) - 0.5 * lam * rate**2)
        knots = (prices, positions, rates, lam, grid.dt)
        assert wealth(*knots) == pytest.approx(hand_left, abs=1e-12)
        assert wealth_by_parts(*knots) == pytest.approx(hand_parts, abs=1e-12)
        gap = wealth_by_parts(*knots) - wealth(*knots)
        assert gap == pytest.approx(1.0 * rate * ds, abs=1e-12)

    def test_riemann_gap_rate(self, atm_model):
        # strategies with Brownian positions: the formulas' gap is the
        # quadratic-covariation mismatch, RMS of order sqrt(h)
        rng = np.random.default_rng(13)
        rms = {}
        for n in (250, 1000, 4000):
            grid = TimeGrid(n_steps=n, T=1.0)
            gaps = []
            for prices in zero_hedge_prices(atm_model, grid, 40, 14):
                steps = rng.normal(0.0, math.sqrt(grid.dt), size=(n, 1))
                positions = np.vstack([np.zeros((1, 1)), np.cumsum(steps, axis=0)])
                rates = steps / grid.dt
                knots = (prices, positions, rates, 0.05, grid.dt)
                gaps.append(wealth(*knots) - wealth_by_parts(*knots))
            rms[n] = float(np.sqrt(np.mean(np.square(gaps))))
        assert rms[1000] == pytest.approx(0.5 * rms[250], rel=0.45)
        assert rms[4000] == pytest.approx(0.5 * rms[1000], rel=0.45)


class TestBoundCheck:
    """Position sup-norms reported by the engine stay inside the a priori bound."""

    def test_zero_everything(self, atm_model):
        grid = TimeGrid(n_steps=16, T=1.0)
        batch = run_hedge_batch(1.0, 0.2, atm_model, zero_claim(), [0.0], grid, 3, 15)
        assert batch.sup_position_norm.max() == 0.0

    def test_unit_call_uniform_in_impact(self, atm_model, atm_call):
        cap = position_bound(atm_call, [0.0], margin=0.05)
        for lam in (0.4, 0.1, 0.02, 0.01):
            grid = TimeGrid(n_steps=512, T=1.0)
            batch = run_hedge_batch(1.0, lam, atm_model, atm_call, [0.0], grid, 5, 16)
            assert batch.sup_position_norm.max() <= cap

    def test_decay_from_large_inventory(self, atm_model):
        grid = TimeGrid(n_steps=64, T=1.0)
        batch = run_hedge_batch(1.0, 0.2, atm_model, zero_claim(), [5.0], grid, 1, 17)
        assert batch.sup_position_norm[0] == pytest.approx(5.0)


class TestSupermartingale:
    def test_zero_case_identically_zero(self, atm_model):
        # the zero claim's hedge never trades from phi0 = 0: every ratio is 1
        grid = TimeGrid(n_steps=32, T=1.0)
        checked = supermartingale_check_mc(1.0, 0.2, atm_model, zero_claim(), [0.0], grid, 2, 18)
        assert checked == (1.0, 0.0)

    def test_initial_value_is_scaled_limit(self, atm_model, atm_call):
        grid = TimeGrid(n_steps=16, T=1.0)
        for phi0 in ([0.0], [0.7]):
            rec = hedge_paths(1.0, 0.2, atm_model, atm_call, phi0, grid, 2, 19)
            s0, start = rec.prices[:, 0], rec.positions[:, 0]
            log_m0 = hedging._certificate_log(1.0, 0.2, atm_model, atm_call, 0.0, s0, start, start, 0.0)
            assert log_m0 == pytest.approx(
                5.0 * limit_value(1.0, atm_model, atm_call, phi0), abs=1e-10
            )

    def test_empirical_supermartingale(self, atm_model, atm_call):
        grid = TimeGrid(n_steps=500, T=1.0)
        mean_ratio, se = supermartingale_check_mc(
            1.0, 0.2, atm_model, atm_call, [0.0], grid, 4000, 20
        )
        assert mean_ratio <= 1.0 + 3.0 * se

    def test_exponent_and_mc_check_share_the_certificate(self, sigma1, model2):
        # the certificate at the recorded terminal knots, over its initial
        # value, is the MC check's ratio at the same seed and paths; the wealth
        # is summed two ways (per-path wealth() vs the engine's running sum),
        # so not bit for bit
        cases = [
            (BachelierModel(s0=[8.0], mu=[0.5], sigma=sigma1, T=1.0), BasketCall(a=[1.0], b=-8.0), [0.3]),
            (model2, BasketCall(a=[1.0, 0.5], b=-11.0), [0.2, -0.1]),
        ]
        for model, call, phi0 in cases:
            grid = TimeGrid(n_steps=40, T=1.0)
            rec = hedge_paths(1.0, 0.2, model, call, phi0, grid, 50, 27)
            start = rec.positions[:, 0]
            terminal_wealth = np.array([
                wealth(p, x, r, 0.2, grid.dt) for p, x, r in zip(rec.prices, rec.positions, rec.rates)
            ])
            log_m_t = hedging._certificate_log(
                1.0, 0.2, model, call, model.T, rec.prices[:, -1], rec.positions[:, -1], start,
                terminal_wealth,
            )
            log_m_0 = hedging._certificate_log(
                1.0, 0.2, model, call, 0.0, rec.prices[:, 0], start, start, 0.0
            )
            mean_ratio, _ = supermartingale_check_mc(1.0, 0.2, model, call, phi0, grid, 50, 27)
            assert np.exp(log_m_t - log_m_0).mean() == pytest.approx(mean_ratio, rel=1e-12)

    def test_empirical_supermartingale_with_drift(self, sigma1, atm_call):
        model = BachelierModel(s0=[8.0], mu=[0.5], sigma=sigma1, T=1.0)
        grid = TimeGrid(n_steps=500, T=1.0)
        mean_ratio, se = supermartingale_check_mc(
            1.0, 0.2, model, atm_call, [0.0], grid, 4000, 21
        )
        assert mean_ratio <= 1.0 + 3.0 * se


def _record_cases(atm_model, atm_call, model2):
    # (a_risk, lam, model, payoff, phi0, n_steps): d = 1 and a correlated d = 2
    return [
        (1.0, 0.2, atm_model, atm_call, np.array([0.1]), 64),
        (2.0, 0.3, model2, BasketCall(a=[1.0, 0.5], b=-10.0), np.array([0.1, -0.2]), 32),
    ]


def _check_record_against_references(a_risk, lam, model, payoff, phi0, n):
    # each recorded path against the independent references
    grid = TimeGrid(n_steps=n, T=1.0)
    rec = hedge_paths(a_risk, lam, model, payoff, phi0, grid, 4, 22)
    b = rec.batch
    for i in range(4):
        prices, positions, rates = rec.prices[i], rec.positions[i], rec.rates[i]
        assert b.terminal_wealth[i] == pytest.approx(
            wealth(prices, positions, rates, lam, grid.dt), abs=1e-12
        )
        assert b.payoff_value[i] == pytest.approx(
            float(payoff.evaluate(prices[-1])), abs=1e-12
        )
        assert b.sup_position_norm[i] == pytest.approx(
            float(np.linalg.norm(positions, axis=1).max()), abs=1e-12
        )
        assert b.cost_integral[i] == pytest.approx(
            0.5 * lam * float(np.sum(rates * rates)) * grid.dt, abs=1e-12
        )
        oracle = duhamel_solution(a_risk, lam, model, rec.targets[i], phi0, grid)
        assert np.abs(positions - oracle).max() < 1e-10
        for k in (0, n // 3, n - 1):
            target = _shifted_delta(
                a_risk, model, payoff, grid.knots[k], prices[k], positions[k]
            )
            assert np.abs(rec.targets[i, k] - target).max() < 1e-12


class TestBatchEngine:
    def test_matches_per_path(self, atm_model, atm_call, model2):
        _check_record_against_references(*_record_cases(atm_model, atm_call, model2)[0])

    def test_matches_per_path_2d(self, atm_model, atm_call, model2):
        _check_record_against_references(*_record_cases(atm_model, atm_call, model2)[1])

    def test_record_summary_equals_batch(self, atm_model, atm_call, model2):
        # one recorded chunk against a two-chunk batch run at the same seed
        for a_risk, lam, model, payoff, phi0, n in _record_cases(atm_model, atm_call, model2):
            grid = TimeGrid(n_steps=n, T=1.0)
            rec = hedge_paths(a_risk, lam, model, payoff, phi0, grid, 300, 26)
            batch = run_hedge_batch(
                a_risk, lam, model, payoff, phi0, grid, 300, 26, chunk_size=256
            )
            for field in fields(batch):
                assert np.array_equal(
                    getattr(rec.batch, field.name), getattr(batch, field.name)
                ), field.name
            assert np.array_equal(rec.prices[:, -1], batch.s_terminal)
            assert np.array_equal(rec.positions[:, -1], batch.phi_terminal)

    def test_chunking_invariance(self, sigma1, model2):
        # 600 paths: three chunks of at most 256 paths against one chunk,
        # each cut across a draw tile (600 is not a multiple of 256)
        grid = TimeGrid(n_steps=32, T=1.0)
        for d in (1, 2):
            model, payoff, phi0 = _drift_case(d, sigma1, model2)
            args = (1.0, STACK_LAMS, model, payoff, phi0, grid, 600, 24)
            small = run_hedge_batch(*args, chunk_size=256 * d)
            big = run_hedge_batch(*args, chunk_size=4096 * d)
            for got, want in zip(small, big):
                _assert_batches_equal(got, want)

    @pytest.mark.parametrize("d", [1, 2])
    def test_partial_draw_tile_equals_default_tile(self, d, sigma1, model2, monkeypatch):
        model, payoff, phi0 = _drift_case(d, sigma1, model2)
        grid = TimeGrid(n_steps=37, T=1.0)
        args = (1.0, STACK_LAMS, model, payoff, phi0, grid, 300, 45)
        whole = run_hedge_batch(*args)
        rec_whole = hedge_paths(1.0, 0.1, model, payoff, phi0, grid, 300, 45)
        # 7-path tiles: 300 paths end on a tile of 6
        monkeypatch.setattr(hedging, "DRAW_TILE_PATHS", 7)
        tiled = run_hedge_batch(*args)
        rec_tiled = hedge_paths(1.0, 0.1, model, payoff, phi0, grid, 300, 45)
        for got, want in zip(tiled, whole):
            _assert_batches_equal(got, want)
        for name in KNOT_FIELDS:
            assert np.array_equal(getattr(rec_tiled, name), getattr(rec_whole, name)), name

    def test_one_generator_per_chunk(self, atm_model, atm_call, monkeypatch):
        # 600 paths in 256-path chunks: three chunks, each re-keying one Philox per path
        built = []
        philox = market.Philox

        def counting_philox(*args, **kwargs):
            built.append(kwargs)
            return philox(*args, **kwargs)

        monkeypatch.setattr(market, "Philox", counting_philox)
        grid = TimeGrid(n_steps=8, T=1.0)
        run_hedge_batch(1.0, 0.2, atm_model, atm_call, [0.0], grid, 600, 3, chunk_size=256)
        assert 0 < len(built) <= 3

    def test_worker_invariance(self, atm_model, atm_call):
        grid = TimeGrid(n_steps=32, T=1.0)
        serial = run_hedge_batch(
            1.0, 0.2, atm_model, atm_call, [0.0], grid, 1200, 25, workers=1, chunk_size=256
        )
        parallel = run_hedge_batch(
            1.0, 0.2, atm_model, atm_call, [0.0], grid, 1200, 25, workers=4, chunk_size=256
        )
        assert np.array_equal(serial.utility_exponent, parallel.utility_exponent)
        assert np.array_equal(serial.s_terminal, parallel.s_terminal)


TESTS_DIR = Path(__file__).resolve().parent
BATCH_FIELDS = [f.name for f in fields(HedgeBatch)]
STACK_LAMS = [0.4, 0.1, 0.05]


def _drift_case(d, sigma1, model2):
    # mu != 0 and phi0 != 0, so every term of the loop is exercised
    if d == 1:
        model = BachelierModel(s0=[8.0], mu=[0.3], sigma=sigma1, T=1.0)
        return model, BasketCall(a=[1.0], b=-8.0), [0.2]
    model = BachelierModel(s0=[8.0, 6.0], mu=[0.5, -0.3], sigma=model2.sigma, T=1.0)
    return model, BasketCall(a=[1.0, 0.5], b=-11.0), [0.1, -0.2]


def _assert_batches_equal(got, want):
    for field in BATCH_FIELDS:
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


KNOT_FIELDS = ("prices", "positions", "rates", "targets")


def _matrix_reference(a_risk, lams, model, payoff, phi0, grid, n_paths, seed, theta=None):
    """The engine step written with the plain matrix expressions, all paths at once.

    ``@``, ``einsum`` and ``np.linalg.norm`` on each path's whole substream,
    with the basket delta spelled out: the bits the engine must reproduce
    whatever products, buffers, chunks and draw blocks it uses.
    Returns one :class:`HedgeBatch` per impact and the first impact's knots.
    """
    n, h, d = grid.n_steps, grid.dt, model.d
    draws = [brownian_increments(philox_stream(seed, i), n, d) for i in range(n_paths)]
    dw = np.stack(draws, axis=1) * math.sqrt(h)
    sigma = model.sigma.entries
    relax = np.stack([step_matrix(a_risk, lam, model.sigma, h) for lam in lams])
    lam_col = np.asarray(lams, dtype=float)[:, None]
    a = payoff.a
    strike = inflated_strike(payoff, a_risk, model.sigma)
    var = float((a @ sigma) @ (a @ sigma))
    s = np.tile(model.s0, (n_paths, 1))
    phi = np.tile(np.asarray(phi0, dtype=float), (len(lams), n_paths, 1))
    v, cost = np.zeros((len(lams), n_paths)), np.zeros((len(lams), n_paths))
    sup_norm = np.linalg.norm(phi, axis=-1)
    knots = {name: [] for name in KNOT_FIELDS}
    knots["prices"].append(s)
    knots["positions"].append(phi[0])
    for k in range(n):
        if theta is None:
            x = (s - math.sqrt(a_risk) * (phi @ sigma)).reshape(-1, d)
            m = (x @ a + strike) / math.sqrt((model.T - k * h) * var)
            target = (ndtr(m)[:, None] * a[None, :]).reshape(phi.shape)
        else:
            target = np.broadcast_to(theta[k], phi.shape)
        phi_new = target + (phi - target) @ relax
        rate = (phi_new - phi) / h
        ds = model.mu * h + dw[k] @ sigma
        v += np.einsum("lij,ij->li", phi, ds)
        step_cost = 0.5 * lam_col * np.einsum("lij,lij->li", rate, rate) * h
        cost += step_cost
        v -= step_cost
        phi = phi_new
        s = s + ds
        sup_norm = np.maximum(sup_norm, np.linalg.norm(phi, axis=-1))
        for name, value in zip(KNOT_FIELDS, (s, phi[0], rate[0], target[0])):
            knots[name].append(value)
    f_t = payoff.evaluate(s)
    exponent = (a_risk / lam_col) * (f_t - v)
    batches = [
        HedgeBatch(s, phi[l], v[l], f_t, exponent[l], cost[l], sup_norm[l])
        for l in range(len(lams))
    ]
    return batches, {name: np.stack(vals, axis=1) for name, vals in knots.items()}


class TestMatrixReference:
    """In d=1 the engine's elementwise products equal the 1x1 matrix products bit for bit."""

    def test_batch_equals_matrix_expressions(self, sigma1, model2):
        model, payoff, phi0 = _drift_case(1, sigma1, model2)
        grid = TimeGrid(n_steps=37, T=1.0)
        want, _ = _matrix_reference(1.0, STACK_LAMS, model, payoff, phi0, grid, 300, 47)
        got = run_hedge_batch(1.0, STACK_LAMS, model, payoff, phi0, grid, 300, 47)
        for g, w in zip(got, want):
            _assert_batches_equal(g, w)

    @pytest.mark.parametrize("frozen", [False, True])
    def test_knots_equal_matrix_expressions(self, frozen, sigma1, model2):
        model, payoff, phi0 = _drift_case(1, sigma1, model2)
        grid = TimeGrid(n_steps=37, T=1.0)
        theta = np.random.default_rng(8).normal(size=(37, 1)) if frozen else None
        (want_batch,), want = _matrix_reference(
            1.0, (0.1,), model, payoff, phi0, grid, 300, 47, theta
        )
        rec = hedge_paths(1.0, 0.1, model, payoff, phi0, grid, 300, 47, theta)
        for name in KNOT_FIELDS:
            assert np.array_equal(getattr(rec, name), want[name]), name
        _assert_batches_equal(rec.batch, want_batch)

    def test_tiny_positions_keep_the_norm_of_their_square(self, sigma1):
        # |phi| < 1.5e-154: phi*phi underflows, so sqrt(phi*phi) != |phi|
        model = BachelierModel(s0=[8.0], mu=[0.0], sigma=sigma1, T=1.0)
        grid = TimeGrid(n_steps=4, T=1.0)
        batch = run_hedge_batch(1.0, 0.4, model, zero_claim(), [1e-160], grid, 3, 1)
        assert np.array_equal(batch.sup_position_norm, np.full(3, np.linalg.norm([1e-160])))
        assert batch.sup_position_norm[0] != 1e-160


class TestStackedImpacts:
    """Several impacts on one grid are stepped together on shared draws."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("d", [1, 2])
    def test_stacked_equals_per_impact(self, d, workers, sigma1, model2):
        model, payoff, phi0 = _drift_case(d, sigma1, model2)
        grid = TimeGrid(n_steps=24, T=1.0)
        # chunk_size 256 per coordinate: 300 paths make two chunks
        run = dict(workers=workers, chunk_size=256 * d)
        stacked = run_hedge_batch(1.0, STACK_LAMS, model, payoff, phi0, grid, 300, 41, **run)
        assert len(stacked) == len(STACK_LAMS)
        for lam, got in zip(STACK_LAMS, stacked):
            want = run_hedge_batch(1.0, lam, model, payoff, phi0, grid, 300, 41, **run)
            _assert_batches_equal(got, want)

    def test_short_last_block_equals_one_block(self, sigma1, model2, monkeypatch):
        model, payoff, phi0 = _drift_case(2, sigma1, model2)
        grid = TimeGrid(n_steps=37, T=1.0)
        whole = run_hedge_batch(1.0, STACK_LAMS, model, payoff, phi0, grid, 50, 43)
        rec_whole = hedge_paths(1.0, 0.1, model, payoff, phi0, grid, 50, 43)
        # 4-step blocks: nine full blocks and a last one of a single step
        monkeypatch.setattr(hedging, "DRAW_BLOCK_DOUBLES", 4 * 50 * 2)
        blocked = run_hedge_batch(1.0, STACK_LAMS, model, payoff, phi0, grid, 50, 43)
        rec_blocked = hedge_paths(1.0, 0.1, model, payoff, phi0, grid, 50, 43)
        for got, want in zip(blocked, whole):
            _assert_batches_equal(got, want)
        for name in KNOT_FIELDS:
            assert np.array_equal(getattr(rec_blocked, name), getattr(rec_whole, name)), name

    @pytest.mark.parametrize("name,n_paths", [("converge", 2000), ("hedge", 200)])
    def test_multi_block_draws_match_golden(self, name, n_paths, tmp_path, monkeypatch):
        # the golden runs fit in one draw block; in 300-step blocks their 1000
        # steps take three full blocks and a last one of 100, so every path
        # resumes its stream from a saved place twice
        golden = json.loads((TESTS_DIR / "golden_outputs.json").read_text())
        if (np.__version__, scipy.__version__) != (golden["numpy"], golden["scipy"]):
            pytest.skip("golden digests were recorded with other numpy/scipy versions")
        monkeypatch.chdir(TESTS_DIR.parent)
        monkeypatch.setattr(hedging, "DRAW_BLOCK_DOUBLES", 300 * n_paths)
        blocks = []
        draw_block = hedging._draw_block

        def recording_draw_block(*args):
            blocks.append((args[4], args[6] is not None))  # rows, resumed
            return draw_block(*args)

        monkeypatch.setattr(hedging, "_draw_block", recording_draw_block)
        out = tmp_path / f"{name}.csv"
        config = {"converge": "configs/converge_atm.cfg", "hedge": "configs/hedge_atm.cfg"}[name]
        paths = ["--paths", str(n_paths)] if name == "converge" else []
        assert cli.main([name, "--config", config, *paths, "--out", str(out), "--quiet"]) == 0
        assert blocks[:4] == [(300, False), (300, True), (300, True), (100, True)]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == golden["sha256"][name]

    def test_blocked_draws_continue_the_stream(self):
        rng = philox_stream(5, 3)
        blocks = [brownian_increments(rng, rows, 2) for rows in (3, 3, 1)]
        assert np.array_equal(np.vstack(blocks), brownian_increments(philox_stream(5, 3), 7, 2))

    def test_pool_clamped_to_chunks_and_cpus(self, atm_model, atm_call, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers, mp_context=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(hedging, "ProcessPoolExecutor", SerialPool)
        grid = TimeGrid(n_steps=4, T=1.0)
        # three 256-path chunks
        args = (1.0, 0.2, atm_model, atm_call, [0.0], grid, 600, 3)
        serial = run_hedge_batch(*args, chunk_size=256)
        monkeypatch.setattr(hedging.os, "cpu_count", lambda: 8)
        pooled = run_hedge_batch(*args, workers=64, chunk_size=256)
        monkeypatch.setattr(hedging.os, "cpu_count", lambda: 2)
        run_hedge_batch(*args, workers=64, chunk_size=256)
        monkeypatch.setattr(hedging.os, "cpu_count", lambda: None)
        run_hedge_batch(*args, workers=64, chunk_size=256)
        assert sizes == [3, 2]
        _assert_batches_equal(pooled, serial)
