import math
import pickle
import tracemalloc

import numpy as np
import pytest

from bachimpact import (
    BachelierModel,
    BasketCall,
    BudgetExceededError,
    DimensionMismatchError,
    InvalidParameterError,
    TimeGrid,
    brownian_increments,
    hedge_paths,
    make_spd,
    run_hedge_batch,
    sup_convolve,
    sup_convolve_argmax,
)
from bachimpact.config import GENERIC_PAYOFFS
from bachimpact.market import STREAM_PLACE_WORDS, stream_place, substreams
from oracle import GenericLipschitz, philox_stream, search, search_argmax, zero_claim


class TestTypes:
    def test_model_validation(self, sigma1):
        with pytest.raises(DimensionMismatchError):
            BachelierModel(s0=[1.0, 2.0], mu=[0.0], sigma=sigma1, T=1.0)
        with pytest.raises(InvalidParameterError):
            BachelierModel(s0=[1.0], mu=[0.0], sigma=sigma1, T=0.0)

    def test_negative_lipschitz_rejected(self):
        # the search oracle's payoff: its radius needs a genuine constant
        with pytest.raises(InvalidParameterError):
            GenericLipschitz(fn=lambda x: x.sum(axis=-1), lipschitz_constant=-1.0)

    def test_time_grid(self):
        grid = TimeGrid(n_steps=4, T=2.0)
        assert grid.knots[0] == 0.0
        assert grid.knots[-1] == 2.0
        assert np.allclose(np.diff(grid.knots), grid.dt)

    def test_time_grid_compares_and_hashes(self):
        grid = TimeGrid(n_steps=4, T=1.0)
        grid.knots  # built and cached on first use; not part of the comparison
        assert grid == TimeGrid(4, 1.0)
        assert grid != TimeGrid(5, 1.0)
        assert hash(grid) == hash(TimeGrid(4, 1.0))
        assert len({grid, TimeGrid(4, 1.0), TimeGrid(4, 2.0)}) == 2

    def test_time_grid_allocates_no_knots_up_front(self):
        # the knots of 10^7 steps would be 80 MB; the engine reads only dt
        tracemalloc.start()
        try:
            grid = TimeGrid(n_steps=10**7, T=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert grid.dt == 1e-7

    def test_basket_lipschitz_constant(self):
        call = BasketCall(a=[3.0, 4.0], b=0.0)
        assert call.lipschitz_constant == pytest.approx(5.0)

    def test_cached_lipschitz_constant_cannot_go_stale(self):
        # the constant is computed once, so the weights it came from are
        # read-only, in a pickled copy too; the caller's array is not frozen
        weights = np.array([3.0, 4.0])
        for payoff in (BasketCall(a=weights, b=0.0), GENERIC_PAYOFFS["straddle"](weights, 0.0)):
            for copy in (payoff, pickle.loads(pickle.dumps(payoff))):
                assert copy.lipschitz_constant == 5.0
                assert not copy.a.flags.writeable
                with pytest.raises(ValueError):
                    copy.a[0] = 0.0
        assert weights.flags.writeable

    def test_payoffs_compare_and_hash_in_two_dims(self):
        # identity semantics: comparing the array fields would raise in d >= 2
        straddle = GENERIC_PAYOFFS["straddle"](np.ones(2), 0.0)
        for payoff in (BasketCall(a=[3.0, 4.0], b=0.0), straddle):
            copy = pickle.loads(pickle.dumps(payoff))
            assert payoff == payoff
            assert (payoff == copy) is False
            assert {payoff: 1, copy: 2}[payoff] == 1


class TestPayoffEval:
    def test_itm(self):
        assert BasketCall(a=[1.0], b=-8.0).evaluate([10.0]) == pytest.approx(2.0)

    def test_otm(self):
        assert BasketCall(a=[1.0], b=-8.0).evaluate([5.0]) == pytest.approx(0.0)

    def test_spread(self):
        assert BasketCall(a=[1.0, -1.0], b=0.0).evaluate([3.0, 1.0]) == pytest.approx(2.0)

    def test_lipschitz_spot_check(self):
        rng = np.random.default_rng(1)
        call = BasketCall(a=[1.0, -2.0], b=0.5)
        straddle = GENERIC_PAYOFFS["straddle"](np.array([1.0, -2.0]), 0.5)
        assert straddle.lipschitz_constant == pytest.approx(math.sqrt(5.0))
        for payoff in (call, straddle):
            lip = payoff.lipschitz_constant
            x = rng.normal(size=(64, 2))
            y = rng.normal(size=(64, 2))
            gap = np.abs(payoff.evaluate(x) - payoff.evaluate(y))
            assert np.all(gap <= lip * np.linalg.norm(x - y, axis=1) + 1e-12)


def terminal_prices(model, n_paths, seed):
    """Terminal prices of one-step paths from the hedge engine (zero claim)."""
    grid = TimeGrid(n_steps=1, T=model.T)
    return run_hedge_batch(
        1.0, 0.2, model, zero_claim(model.d), np.zeros(model.d), grid, n_paths, seed
    ).s_terminal


def recorded_prices(model, grid, n_paths, seed):
    return hedge_paths(
        1.0, 0.2, model, zero_claim(model.d), np.zeros(model.d), grid, n_paths, seed
    ).prices


class TestSimulatePaths:
    """Price paths as the hedge engine simulates them from keyed substreams."""

    def test_moments_single_step(self, sigma1):
        model = BachelierModel(s0=[0.0], mu=[0.0], sigma=sigma1, T=1.0)
        terminal = terminal_prices(model, 100_000, seed=2024)[:, 0]
        se = terminal.std(ddof=1) / math.sqrt(len(terminal))
        assert abs(terminal.mean()) < 3.0 * se
        # sample variance of a Gaussian: SE ~ sigma^2 sqrt(2/(n-1))
        var_se = terminal.var(ddof=1) * math.sqrt(2.0 / (len(terminal) - 1))
        assert abs(terminal.var(ddof=1) - 1.0) < 3.0 * var_se

    def test_drift(self, sigma1):
        model = BachelierModel(s0=[1.0], mu=[2.0], sigma=sigma1, T=1.0)
        terminal = terminal_prices(model, 100_000, seed=7)[:, 0]
        se = terminal.std(ddof=1) / math.sqrt(len(terminal))
        assert abs(terminal.mean() - 3.0) < 3.0 * se

    def test_covariance_multidim(self, model2):
        terminal = terminal_prices(model2, 60_000, seed=99) - model2.s0
        sigma_sq = model2.sigma.entries @ model2.sigma.entries
        cov = np.cov(terminal.T)
        assert np.abs(cov - sigma_sq).max() < 0.05

    def test_determinism(self, atm_model):
        grid = TimeGrid(n_steps=16, T=1.0)
        a = recorded_prices(atm_model, grid, 5, seed=123)
        b = recorded_prices(atm_model, grid, 5, seed=123)
        assert np.array_equal(a, b)

    def test_path_identity_independent_of_count(self, atm_model, atm_call):
        grid = TimeGrid(n_steps=8, T=1.0)
        few = hedge_paths(1.0, 0.2, atm_model, atm_call, [0.0], grid, 3, 5)
        many = hedge_paths(1.0, 0.2, atm_model, atm_call, [0.0], grid, 10, 5)
        for name in ("prices", "positions", "rates", "targets"):
            assert np.array_equal(getattr(few, name)[2], getattr(many, name)[2]), name
        assert few.batch.utility_exponent[2] == many.batch.utility_exponent[2]

    def test_prices_follow_bachelier_dynamics(self, sigma2):
        # s_k = s0 + mu t_k + w_k sigma, with w the path's keyed increments
        model = BachelierModel(s0=[8.0, 6.0], mu=[0.5, -0.3], sigma=sigma2, T=1.0)
        grid = TimeGrid(n_steps=32, T=1.0)
        prices = recorded_prices(model, grid, 3, seed=11)
        for i in range(3):
            dw = brownian_increments(philox_stream(11, i), 32, 2) * math.sqrt(grid.dt)
            w = np.vstack([np.zeros((1, 2)), np.cumsum(dw, axis=0)])
            expected = model.s0 + model.mu * grid.knots[:, None] + w @ sigma2.entries
            assert np.abs(prices[i] - expected).max() < 1e-12

    def test_substream_keys(self):
        # every keyed draw is the Philox stream of its key, whatever the caller
        direct = philox_stream(11, 2).standard_normal((5, 2))
        assert np.array_equal(substreams(11)(2).standard_normal((5, 2)), direct)
        assert np.array_equal(brownian_increments(substreams(11)(2), 5, 2), direct)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_rekeyed_streams_equal_substreams(self, seed):
        # one generator re-keyed per index draws the fresh generator keyed
        # (seed, index) bit for bit, whatever it drew before: left mid-buffer
        # with a cached uint32
        streams = substreams(seed)
        streams(1).integers(0, 2**31, size=3, dtype=np.uint32)
        for index in (2**32 + 5, 0, 3, 2**64 - 1):
            got = brownian_increments(streams(index), 7, 2)
            want = brownian_increments(philox_stream(seed, index), 7, 2)
            assert np.array_equal(got, want), index

    def test_saved_place_resumes_the_stream(self):
        streams = substreams(7)
        rng = streams(2**40)
        head = brownian_increments(rng, 5, 1)
        place = np.empty(STREAM_PLACE_WORDS, dtype=np.uint64)
        stream_place(rng, place)
        streams(3).standard_normal(11)
        tail = brownian_increments(streams(2**40, place), 4, 1)
        whole = brownian_increments(philox_stream(7, 2**40), 9, 1)
        assert np.array_equal(np.vstack([head, tail]), whole)

    def test_increments_drawn_in_place(self):
        out = np.empty((6, 2))
        got = brownian_increments(philox_stream(11, 2), 6, 2, out=out)
        assert np.shares_memory(got, out)
        assert np.array_equal(out, brownian_increments(philox_stream(11, 2), 6, 2))

    def test_brownian_increment_scale(self, atm_model):
        grid = TimeGrid(n_steps=4, T=1.0)
        prices = recorded_prices(atm_model, grid, 1, seed=3)[0]
        assert np.array_equal(prices[0], atm_model.s0)
        increments = np.diff(prices, axis=0)  # unit vol, no drift
        assert np.all(np.abs(increments) < 10.0 * math.sqrt(grid.dt))


class TestSupConvolve:
    def test_basket_closed_form_positive(self, sigma1):
        call = BasketCall(a=[1.0], b=-8.0)
        assert sup_convolve(call, 1.0, sigma1, [8.0]) == pytest.approx(0.5)

    def test_basket_closed_form_clipped(self, sigma1):
        call = BasketCall(a=[1.0], b=-8.0)
        assert sup_convolve(call, 1.0, sigma1, [6.0]) == pytest.approx(0.0)

    def test_zero_payoff(self, sigma1):
        for x in ([0.0], [4.0], [-3.0]):
            assert sup_convolve(zero_claim(), 1.0, sigma1, x) == 0.0
            assert sup_convolve(zero_claim(), 9.0, sigma1, x) == 0.0

    def test_invalid_inflation(self, sigma1):
        with pytest.raises(InvalidParameterError):
            sup_convolve(BasketCall(a=[1.0], b=0.0), 0.0, sigma1, [1.0])

    def test_generic_matches_closed_form(self, sigma1):
        call = BasketCall(a=[1.0], b=-8.0)
        wrapped = GenericLipschitz(
            fn=lambda x: np.maximum(x[..., 0] - 8.0, 0.0), lipschitz_constant=1.0
        )
        xs = np.linspace(5.0, 11.0, 25)[:, None]
        searched, _ = search(wrapped, 1.0, sigma1, xs)
        assert np.abs(sup_convolve(call, 1.0, sigma1, xs) - searched).max() < 1e-4

    def test_dominates_payoff_and_monotone(self, sigma2):
        rng = np.random.default_rng(21)
        payoff = GENERIC_PAYOFFS["straddle"](np.array([1.0, -0.5]), 0.0)
        for _ in range(20):
            x = rng.normal(0.0, 3.0, size=2)
            a_lo, a_hi = sorted(rng.uniform(0.2, 4.0, size=2))
            f_val = float(payoff.evaluate(x))
            g_lo = sup_convolve(payoff, a_lo, sigma2, x)
            g_hi = sup_convolve(payoff, a_hi, sigma2, x)
            assert g_lo >= f_val - 1e-12
            assert g_hi >= g_lo - 1e-9

    def test_inherits_lipschitz_constant(self, sigma1):
        rng = np.random.default_rng(33)
        call = BasketCall(a=[1.0], b=-8.0)
        for _ in range(50):
            x, y = rng.normal(8.0, 2.0, size=2)
            gap = abs(sup_convolve(call, 1.0, sigma1, [x]) - sup_convolve(call, 1.0, sigma1, [y]))
            assert gap <= call.lipschitz_constant * abs(x - y) + 1e-12


    def test_batch_equals_rows(self, sigma1, sigma2):
        rng = np.random.default_rng(34)
        cases = [
            (BasketCall(a=[1.0], b=-8.0), sigma1, rng.normal(8.0, 2.0, size=(7, 1))),
            (BasketCall(a=[1.0, -0.5], b=-2.0), sigma2, rng.normal(2.0, 2.0, size=(7, 2))),
        ]
        for call, sigma, xs in cases:
            batch = sup_convolve(call, 1.5, sigma, xs)
            assert batch.shape == (7,)
            assert np.array_equal(batch, [sup_convolve(call, 1.5, sigma, x) for x in xs])
            ys = sup_convolve_argmax(call, 1.5, sigma, xs)
            assert ys.shape == xs.shape
            assert np.array_equal(ys, [sup_convolve_argmax(call, 1.5, sigma, x) for x in xs])

    def test_generic_three_dim_bounded_block(self):
        # the search oracle at 41^3 candidates per point: the row block
        # shrinks instead of allocating gigabytes, and the values stay finite and >= f
        sigma = make_spd([[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 0.9]])
        payoff = GenericLipschitz(
            fn=lambda x: np.abs(x @ np.array([0.5, 0.3, 0.2]) - 1.0), lipschitz_constant=0.62
        )
        xs = np.random.default_rng(35).normal(1.0, 1.0, size=(60, 3))
        vals, _ = search(payoff, 1.0, sigma, xs)
        assert vals.shape == (60,)
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= payoff.evaluate(xs) - 1e-12)

    def test_generic_four_dim_refused(self):
        # the search oracle refuses a 41^4 grid before allocating its block
        payoff = GenericLipschitz(fn=lambda x: np.abs(x.sum(axis=-1)), lipschitz_constant=2.0)
        with pytest.raises(BudgetExceededError):
            search(payoff, 1.0, make_spd(np.eye(4)), np.zeros((2, 4)))


class TestArgmax:
    def test_basket_itm(self, sigma1):
        call = BasketCall(a=[1.0], b=-8.0)
        y = sup_convolve_argmax(call, 1.0, sigma1, [8.0])
        assert y[0] == pytest.approx(1.0)

    def test_zero_payoff_stays_home(self, sigma1):
        assert np.array_equal(sup_convolve_argmax(zero_claim(), 1.0, sigma1, [3.0]), [0.0])

    def test_basket_otm_returns_zero(self, sigma1):
        call = BasketCall(a=[1.0], b=-8.0)
        assert np.array_equal(sup_convolve_argmax(call, 1.0, sigma1, [5.0]), [0.0])

    def test_diagonal_scaling(self):
        sigma = make_spd([[1.0, 0.0], [0.0, 4.0]])
        call = BasketCall(a=[1.0, 0.0], b=0.0)
        y = sup_convolve_argmax(call, 4.0, sigma, [5.0, 5.0])
        assert np.allclose(y, [2.0, 0.0])

    def test_generic_achieves_optimum(self, sigma1):
        # the search oracle's displacement attains the exact value within eps
        payoff = GenericLipschitz(fn=lambda x: np.abs(x[..., 0] - 8.0), lipschitz_constant=1.0)
        exact = GENERIC_PAYOFFS["straddle"](np.array([1.0]), -8.0)
        rng = np.random.default_rng(55)
        eps = 1e-6
        for _ in range(10):
            x = np.array([rng.normal(8.0, 2.0)])
            g_val = sup_convolve(exact, 1.0, sigma1, x)
            y = search_argmax(payoff, 1.0, sigma1, x, eps)[0]
            attained = float(payoff.evaluate(x + y)) - float(y @ y) / 2.0
            assert attained >= g_val - eps
