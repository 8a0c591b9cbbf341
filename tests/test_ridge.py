"""Ridge payoffs h(<a, x> + b): the 1-D inflation transform and its table.

The d-dimensional grid search on an equivalent ``GenericLipschitz`` is the
oracle for the transform; the closed forms of the inflated straddle and
basket call are the oracle for price and delta.
"""

import math
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bachimpact import (
    BachelierModel,
    BasketCall,
    GenericLipschitz,
    TimeGrid,
    certainty_equivalent_mc,
    delta_u,
    make_spd,
    price_u,
    sup_convolve,
    sup_convolve_argmax,
)
from bachimpact import pricing
from bachimpact.config import GENERIC_PAYOFFS, load_config
from bachimpact.market import SEARCH_GRID_POINTS, SEARCH_ROUNDS, SEARCH_SHRINK
from bachimpact.pricing import TABLE_CACHE, TABLE_HALF_WIDTH, TABLE_NODES

# the registry's ridge payoffs, each with its closed form of the same name in bench/reference.py
PROFILES = ("basket_call", "straddle")
STRADDLE_CFG = """
model.d = 1
model.s0 = 8.0
model.sigma = 1.0
model.T = 1.0
payoff.kind = generic
payoff.name = straddle
payoff.a = 1.0
payoff.b = -8.0
impact.a_risk = 1.7
numerics.seed = 7
"""


def exact_claim(name, r, c):
    """G(r) = sup_z h(r + z) - z^2/(2c) for the shipped profiles."""
    return abs(r) + 0.5 * c if name == "straddle" else max(r + 0.5 * c, 0.0)


@st.composite
def ridge_market(draw, dims=(1, 2, 3)):
    """(A, sigma, a, b, spots): random SPD sigma, |a sigma| in [0.3, 2]."""
    d = draw(st.sampled_from(dims))
    unit = st.floats(-1.0, 1.0)
    m = np.array(draw(st.lists(unit, min_size=d * d, max_size=d * d))).reshape(d, d)
    sigma = make_spd(m @ m.T / d + draw(st.floats(0.3, 1.0)) * np.eye(d))
    entry = st.floats(0.2, 1.0) | st.floats(-1.0, -0.2)
    a = np.array(draw(st.lists(entry, min_size=d, max_size=d)))
    # on a kink the 1-D default rule errs by about 1e-7 s in price, and the
    # table's interpolation by about 3e-7 (0.06/s)^2 in delta: with t <= 0.9
    # the spread s = sqrt(T - t) |a sigma| stays in [0.09, 2]
    spread = float(np.linalg.norm(a @ sigma.entries))
    a *= min(max(spread, 0.3), 2.0) / spread
    a_risk = draw(st.floats(0.3, 2.0))
    s0 = np.array(draw(st.lists(st.floats(4.0, 10.0), min_size=d, max_size=d)))
    b = -float(a @ s0) + draw(st.floats(-1.0, 1.0))
    spots = s0 + np.array(
        draw(st.lists(st.floats(-1.5, 1.5), min_size=2 * d, max_size=2 * d))
    ).reshape(2, d)
    return a_risk, sigma, a, b, spots


def search_resolution(payoff, a_risk, sigma):
    """Bound on the d-dim grid search's error: slope times the last grid's cell diagonal."""
    d = sigma.dim
    radius = 2.0 * math.sqrt(a_risk) * sigma.max_eig * payoff.lipschitz_constant
    slope = payoff.lipschitz_constant + radius / (math.sqrt(a_risk) * sigma.min_eig)
    spacing = 2.0 * radius / (SEARCH_GRID_POINTS - 1) * SEARCH_SHRINK**SEARCH_ROUNDS
    return slope * spacing * math.sqrt(d)


class TestRidgeTransform:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(ridge_market(), st.sampled_from(PROFILES))
    def test_matches_grid_search_oracle(self, market, name):
        a_risk, sigma, a, b, spots = market
        ridge = GENERIC_PAYOFFS[name](a, b)
        oracle = GenericLipschitz(fn=ridge.evaluate, lipschitz_constant=ridge.lipschitz_constant)
        points = spots[:1] if sigma.dim == 3 else spots  # 36 ms a d = 3 oracle point
        fast = sup_convolve(ridge, a_risk, sigma, points)
        slow = sup_convolve(oracle, a_risk, sigma, points)
        assert np.all(fast >= ridge.evaluate(points) - 1e-12)
        assert np.abs(fast - slow).max() <= search_resolution(ridge, a_risk, sigma)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(ridge_market(), st.sampled_from(PROFILES), st.floats(1e-9, 1e-4))
    def test_argmax_attains_value_within_eps(self, market, name, eps):
        a_risk, sigma, a, b, spots = market
        ridge = GENERIC_PAYOFFS[name](a, b)
        ys = sup_convolve_argmax(ridge, a_risk, sigma, spots, eps=eps)
        sig_inv = np.linalg.inv(sigma.entries)
        for x, y in zip(spots, ys):
            attained = float(ridge.evaluate(x + y)) - y @ sig_inv @ y / (2.0 * math.sqrt(a_risk))
            c = math.sqrt(a_risk) * float(a @ sigma.entries @ a)
            best = exact_claim(name, float(x @ a + b), c)
            rounding = 1e-12 * (1.0 + abs(best))
            assert best - eps - rounding <= attained <= best + rounding


class TestRidgePricing:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(ridge_market(), st.sampled_from(PROFILES), st.floats(0.0, 0.9))
    def test_price_delta_match_closed_form(self, reference, market, name, t):
        a_risk, sigma, a, b, spots = market
        d = sigma.dim
        model = BachelierModel(s0=spots[0], mu=np.zeros(d), sigma=sigma, T=1.0)
        ridge = GENERIC_PAYOFFS[name](a, b)
        prices = price_u(a_risk, model, ridge, t, spots)
        deltas = delta_u(a_risk, model, ridge, t, spots)
        for x, p, g in zip(spots, prices, deltas):
            want, want_delta = getattr(reference, name)(
                a_risk, a, b, sigma.entries.tolist(), 1.0, t, x
            )
            assert abs(p - want) < 1e-6
            assert np.abs(g - want_delta).max() < 1e-6

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(ridge_market(), st.floats(0.0, 0.9))
    def test_basket_wrapper_matches_basket_call(self, market, t):
        a_risk, sigma, a, b, spots = market
        d = sigma.dim
        model = BachelierModel(s0=spots[0], mu=np.zeros(d), sigma=sigma, T=1.0)
        wrapper, call = GENERIC_PAYOFFS["basket_call"](a, b), BasketCall(a=a, b=b)
        for fn in (price_u, delta_u):
            gap = fn(a_risk, model, wrapper, t, spots) - fn(a_risk, model, call, t, spots)
            assert np.abs(gap).max() < 1e-6

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(ridge_market(dims=(1, 2)), st.integers(1, 2**32))
    def test_wrapper_ce_matches_basket_call_within_se(self, market, seed):
        a_risk, sigma, a, b, spots = market
        d = sigma.dim
        model = BachelierModel(s0=spots[0], mu=np.zeros(d), sigma=sigma, T=1.0)
        grid = TimeGrid(n_steps=32, T=1.0)
        wrapped, closed = (
            certainty_equivalent_mc(a_risk, 0.2, model, payoff, np.zeros(d), 64, grid, seed)
            for payoff in (GENERIC_PAYOFFS["basket_call"](a, b), BasketCall(a=a, b=b))
        )
        assert abs(wrapped.value - closed.value) <= closed.std_error

    def test_projected_rule_keeps_its_accuracy(self, model2):
        # a d-dim rule is projected onto the ridge: the same sum as on g in R^d
        a = np.array([1.0, 0.5])
        ridge, call = GENERIC_PAYOFFS["basket_call"](a, -11.0), BasketCall(a=a, b=-11.0)
        rule = pricing.build_gauss_hermite(12, 2)
        x = np.array([8.3, 5.7])
        on_table = price_u(1.2, model2, ridge, 0.3, x, rule)
        on_grid = pricing._quadrature_price(1.2, model2, call, 0.3, x[None, :], rule)[0]
        assert abs(on_table - on_grid) < 1e-6

    def test_batch_equals_rows(self, model2):
        ridge = GENERIC_PAYOFFS["straddle"](np.array([1.0, -0.5]), -5.0)
        xs = np.random.default_rng(3).normal([8.0, 6.0], 1.5, size=(5, 2))
        prices = price_u(1.0, model2, ridge, 0.4, xs)
        deltas = delta_u(1.0, model2, ridge, 0.4, xs)
        assert np.array_equal(prices, [price_u(1.0, model2, ridge, 0.4, x) for x in xs])
        assert np.array_equal(deltas, [delta_u(1.0, model2, ridge, 0.4, x) for x in xs])

    def test_far_nodes_take_the_exact_search(self, reference, atm_model):
        # |r| up to 100 lies past the table's span: those nodes are searched,
        # never extrapolated, and the price stays on the closed form
        ridge = GENERIC_PAYOFFS["straddle"](np.array([1.0]), -8.0)
        for x in (8.0 + 0.9 * TABLE_HALF_WIDTH, 108.0, -92.0):
            want, want_delta = reference.straddle(1.0, [1.0], -8.0, [[1.0]], 1.0, 0.2, [x])
            assert abs(price_u(1.0, atm_model, ridge, 0.2, [x]) - want) < 1e-6
            assert abs(delta_u(1.0, atm_model, ridge, 0.2, [x])[0] - want_delta[0]) < 1e-6


class TestTable:
    def test_fixed_size_under_cap(self):
        # abscissae and values of every cached table fit in 16 MB
        assert 2 * 8 * TABLE_NODES * TABLE_CACHE <= 16 * 2**20
        grid, values = pricing._ridge_table(np.abs, 1.0)
        assert grid.shape == values.shape == (TABLE_NODES,)
        assert grid[0] == -TABLE_HALF_WIDTH and grid[-1] == TABLE_HALF_WIDTH

    def test_not_built_at_config_load(self, tmp_path):
        cfg = tmp_path / "straddle.cfg"
        cfg.write_text(STRADDLE_CFG)
        pricing._ridge_table.cache_clear()
        loaded = load_config(str(cfg))
        assert pricing._ridge_table.cache_info().currsize == 0
        price_u(1.7, loaded.model, loaded.payoff, 0.0, loaded.model.s0)
        assert pricing._ridge_table.cache_info().currsize == 1

    def test_registry_payoffs_pickle(self):
        for name in PROFILES:
            ridge = GENERIC_PAYOFFS[name](np.array([0.5, 0.5]), -1.0)
            back = pickle.loads(pickle.dumps(ridge))
            assert back.h is ridge.h
            assert np.array_equal(back.evaluate(np.eye(2)), ridge.evaluate(np.eye(2)))
