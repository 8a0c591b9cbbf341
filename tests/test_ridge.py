"""Ridge payoffs h(<a, x> + b) of a convex profile h(y) = max_i(s_i y + beta_i).

The d-dimensional grid search of ``oracle.py`` on an equivalent Lipschitz
payoff is the oracle for the inflation transform; the closed forms of bench/reference.py
(basket call and straddle, and sums of them for the put and the strangle)
are the oracle for price and delta.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bachimpact import (
    BachelierModel,
    BasketCall,
    InvalidParameterError,
    RidgePayoff,
    TimeGrid,
    build_gauss_hermite,
    certainty_equivalent_mc,
    delta_u,
    hedge_paths,
    make_spd,
    pde_residual,
    price_u,
    sup_convolve,
    sup_convolve_argmax,
)
from bachimpact.config import GENERIC_PAYOFFS
from bachimpact.market import SEARCH_GRID_POINTS, SEARCH_ROUNDS
from oracle import SEARCH_SHRINK, GenericLipschitz, search, search_argmax

# the registry's ridge payoffs, each with its closed form of the same name in bench/reference.py
PROFILES = ("basket_call", "straddle")
# (slopes, intercepts) of every profile the exact path is tested on
SHAPES = {
    "basket_call": ((0.0, 1.0), (0.0, 0.0)),
    "put": ((-1.0, 0.0), (0.0, 0.0)),
    "straddle": ((-1.0, 1.0), (0.0, 0.0)),
    "strangle": ((-1.0, 0.0, 1.0), (-1.0, 0.0, -1.0)),  # max(|y| - 1, 0)
}


def ridge(name, a, b):
    slopes, intercepts = SHAPES[name]
    return RidgePayoff(a, b, slopes, intercepts, name=name)


def general_call(a, b):
    """The basket call as a profile the general ridge code prices.

    Its pieces are not exactly y^+'s, so ``is_call`` is false, but the extra
    flat piece -1 is nowhere on top: the claim is the call's.
    """
    return RidgePayoff(a, b, (0.0, 0.0, 1.0), (-1.0, 0.0, 0.0))


def exact_claim(name, r, c):
    """G(r) = sup_z h(r + z) - z^2/(2c), written out per profile."""
    if name == "basket_call":
        return max(r + 0.5 * c, 0.0)
    if name == "put":
        return max(-r + 0.5 * c, 0.0)
    if name == "straddle":
        return abs(r) + 0.5 * c
    return max(abs(r) - 1.0 + 0.5 * c, 0.0)  # strangle: the flat piece drops out once c > 2


def closed_form(reference, name, a_risk, a, b, sigma, t, x):
    """(price, delta) of a profile from the reference's basket call and straddle.

    The put is the basket call of (-a, -b).  The strangle is the straddle
    less 1 once its flat piece is covered (c >= 2), otherwise a call on
    (a, b - 1) plus one on (-a, -b - 1).
    """
    sig = np.asarray(sigma).tolist()
    a = np.asarray(a, dtype=float)
    if name in PROFILES:
        return getattr(reference, name)(a_risk, a, b, sig, 1.0, t, x)
    if name == "put":
        return reference.basket_call(a_risk, -a, -b, sig, 1.0, t, x)
    c = math.sqrt(a_risk) * float(a @ np.asarray(sigma) @ a)
    if c >= 2.0:
        price, delta = reference.straddle(a_risk, a, b, sig, 1.0, t, x)
        return price - 1.0, delta
    up, d_up = reference.basket_call(a_risk, a, b - 1.0, sig, 1.0, t, x)
    down, d_down = reference.basket_call(a_risk, -a, -b - 1.0, sig, 1.0, t, x)
    return up + down, np.add(d_up, d_down)


@st.composite
def ridge_market(draw, dims=(1, 2, 3)):
    """(A, sigma, a, b, spots): random SPD sigma, |a sigma| in [0.3, 2]."""
    d = draw(st.sampled_from(dims))
    unit = st.floats(-1.0, 1.0)
    m = np.array(draw(st.lists(unit, min_size=d * d, max_size=d * d))).reshape(d, d)
    sigma = make_spd(m @ m.T / d + draw(st.floats(0.3, 1.0)) * np.eye(d))
    entry = st.floats(0.2, 1.0) | st.floats(-1.0, -0.2)
    a = np.array(draw(st.lists(entry, min_size=d, max_size=d)))
    # with t <= 0.9 the spread s = sqrt(T - t) |a sigma| stays in [0.09, 2]
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


def attained(payoff, a_risk, sigma, x, y):
    """f(x + y) - <y sigma^-1, y>/(2 sqrt A): what the displacement y attains."""
    sig_inv = np.linalg.inv(sigma.entries)
    return float(payoff.evaluate(x + y)) - y @ sig_inv @ y / (2.0 * math.sqrt(a_risk))


class TestRidgeTransform:
    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(ridge_market(), st.sampled_from(sorted(SHAPES)))
    def test_matches_grid_search_oracle(self, market, name):
        a_risk, sigma, a, b, spots = market
        payoff = ridge(name, a, b)
        oracle = GenericLipschitz(fn=payoff.evaluate, lipschitz_constant=payoff.lipschitz_constant)
        points = spots[:1] if sigma.dim == 3 else spots  # 36 ms a d = 3 oracle point
        exact = sup_convolve(payoff, a_risk, sigma, points)
        slow, _ = search(oracle, a_risk, sigma, points)
        ys = sup_convolve_argmax(payoff, a_risk, sigma, points)
        slow_ys = search_argmax(oracle, a_risk, sigma, points, 1e-6)
        c = math.sqrt(a_risk) * float(a @ sigma.entries @ a)
        for x, g, y, slow_y in zip(points, exact, ys, slow_ys):
            rounding = 1e-12 * (1.0 + abs(g))
            assert abs(g - exact_claim(name, float(x @ a + b), c)) <= rounding
            assert abs(attained(payoff, a_risk, sigma, x, y) - g) <= rounding
            # no displacement the oracle finds beats the exact one
            assert attained(payoff, a_risk, sigma, x, slow_y) <= g + rounding
        assert np.all(slow <= exact + 1e-12 * (1.0 + np.abs(exact)))
        assert np.abs(exact - slow).max() <= search_resolution(payoff, a_risk, sigma)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(ridge_market(), st.sampled_from(sorted(SHAPES)))
    def test_argmax_attains_value(self, market, name):
        a_risk, sigma, a, b, spots = market
        payoff = ridge(name, a, b)
        ys = sup_convolve_argmax(payoff, a_risk, sigma, spots)
        for x, y in zip(spots, ys):
            c = math.sqrt(a_risk) * float(a @ sigma.entries @ a)
            best = exact_claim(name, float(x @ a + b), c)
            rounding = 1e-12 * (1.0 + abs(best))
            assert abs(attained(payoff, a_risk, sigma, x, y) - best) <= rounding

    def test_kink_takes_the_smaller_slope(self, sigma1):
        # ties resolve to the lower piece: 0 for the call, as the call's closed
        # form does (A = 4: c/2 = 1 exactly, so both kinks are exact ties)
        call, strad = general_call([1.0], -8.0), ridge("straddle", [1.0], -8.0)
        assert sup_convolve_argmax(call, 4.0, sigma1, [7.0])[0] == 0.0
        assert sup_convolve_argmax(BasketCall([1.0], -8.0), 4.0, sigma1, [7.0])[0] == 0.0
        assert sup_convolve_argmax(strad, 4.0, sigma1, [8.0])[0] == -2.0


class TestRidgePricing:
    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(ridge_market(), st.sampled_from(sorted(SHAPES)), st.floats(0.0, 0.9), st.booleans())
    def test_price_delta_match_closed_form(self, reference, market, name, t, with_rule):
        # exact to rounding, and a passed rule is ignored
        a_risk, sigma, a, b, spots = market
        d = sigma.dim
        model = BachelierModel(s0=spots[0], mu=np.zeros(d), sigma=sigma, T=1.0)
        payoff = ridge(name, a, b)
        rule = build_gauss_hermite(4, d) if with_rule else None
        prices = price_u(a_risk, model, payoff, t, spots, rule)
        deltas = delta_u(a_risk, model, payoff, t, spots, rule)
        for x, p, g in zip(spots, prices, deltas):
            want, want_delta = closed_form(reference, name, a_risk, a, b, sigma.entries, t, x)
            assert p == pytest.approx(want, rel=1e-12, abs=1e-15)
            assert g == pytest.approx(np.asarray(want_delta), rel=1e-12, abs=1e-15)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(ridge_market(), st.floats(0.0, 0.9))
    def test_basket_wrapper_matches_basket_call(self, market, t):
        # the general ridge code stays an oracle for the call's closed forms
        a_risk, sigma, a, b, spots = market
        d = sigma.dim
        model = BachelierModel(s0=spots[0], mu=np.zeros(d), sigma=sigma, T=1.0)
        wrapper, call = general_call(a, b), BasketCall(a=a, b=b)
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
            for payoff in (general_call(a, b), BasketCall(a=a, b=b))
        )
        assert abs(wrapped.value - closed.value) <= closed.std_error

    @pytest.mark.parametrize("d", [1, 2])
    def test_delta_along_a_hedge_matches_basket_call(self, d, atm_model, model2):
        model = atm_model if d == 1 else model2
        a = [1.0] if d == 1 else [1.0, 0.5]
        b = -8.0 if d == 1 else -11.0
        grid = TimeGrid(n_steps=64, T=1.0)
        wrapped, closed = (
            hedge_paths(1.3, 0.1, model, payoff, np.zeros(d), grid, 32, 11)
            for payoff in (general_call(a, b), BasketCall(a=a, b=b))
        )
        assert np.abs(wrapped.targets - closed.targets).max() <= 1e-12
        assert np.abs(wrapped.positions - closed.positions).max() <= 1e-12

    def test_projected_rule_keeps_its_accuracy(self, model2):
        # a d-dim rule passed in no longer touches a ridge price: the general
        # code's exact value, equal to the basket call's closed form
        a = np.array([1.0, 0.5])
        ridge_call, call = general_call(a, -11.0), BasketCall(a=a, b=-11.0)
        rule = build_gauss_hermite(12, 2)
        x = np.array([8.3, 5.7])
        on_rule = price_u(1.2, model2, ridge_call, 0.3, x, rule)
        assert on_rule == price_u(1.2, model2, ridge_call, 0.3, x)
        assert on_rule == pytest.approx(price_u(1.2, model2, call, 0.3, x, rule), rel=1e-12)

    def test_batch_equals_rows(self, model2):
        ridge = GENERIC_PAYOFFS["straddle"](np.array([1.0, -0.5]), -5.0)
        xs = np.random.default_rng(3).normal([8.0, 6.0], 1.5, size=(5, 2))
        prices = price_u(1.0, model2, ridge, 0.4, xs)
        deltas = delta_u(1.0, model2, ridge, 0.4, xs)
        assert np.array_equal(prices, [price_u(1.0, model2, ridge, 0.4, x) for x in xs])
        assert np.array_equal(deltas, [delta_u(1.0, model2, ridge, 0.4, x) for x in xs])

    def test_covered_piece_drops_out(self, reference, atm_model):
        # at c = 3 the strangle's flat piece is nowhere on top of G: a straddle less 1
        strangle = ridge("strangle", [1.0], -8.0)
        for x in (6.5, 8.0, 8.2):
            want, want_delta = reference.straddle(9.0, [1.0], -8.0, [[1.0]], 1.0, 0.4, [x])
            price = price_u(9.0, atm_model, strangle, 0.4, [x])
            assert price == pytest.approx(want - 1.0, rel=1e-12)
            assert delta_u(9.0, atm_model, strangle, 0.4, [x])[0] == pytest.approx(
                want_delta[0], rel=1e-12, abs=1e-15
            )

    def test_far_tails_keep_relative_accuracy(self, reference, atm_model):
        # far from every knot the price is G(r) plus tiny option values, so
        # nothing cancels: a put 4 to 12 spreads out of the money
        put = ridge("put", [1.0], -8.0)
        for x in (12.0, 14.0, 20.0):
            want = reference.basket_call(1.0, [-1.0], 8.0, [[1.0]], 1.0, 0.0, [x])[0]
            assert price_u(1.0, atm_model, put, 0.0, [x]) == pytest.approx(want, rel=1e-12)

    def test_pde_residual_measures_the_equation(self, atm_model):
        # the exact price leaves only the finite differences' own error
        # (a kinked quadrature rule read -0.00496 here)
        strad = GENERIC_PAYOFFS["straddle"](np.array([1.0]), -8.0)
        assert abs(pde_residual(1.0, atm_model, strad, 0.3, [8.0])) <= 1e-5

    def test_wide_spread_is_exact(self, reference, sigma2):
        # |a sigma| = 4.07: no rule error that grows with the spread (a 1-D
        # panel rule priced this 1.5e-6 low)
        a = np.array([1.0, 0.6])
        a *= 4.07 / np.linalg.norm(a @ sigma2.entries)
        x = np.array([8.0, 6.0])
        b = 0.3 - float(a @ x)
        model = BachelierModel(s0=x, mu=np.zeros(2), sigma=sigma2, T=1.0)
        strad = GENERIC_PAYOFFS["straddle"](a, b)
        want = reference.straddle(1.3, a, b, sigma2.entries.tolist(), 1.0, 0.0, x)[0]
        assert abs(price_u(1.3, model, strad, 0.0, x) - want) <= 1e-10


class TestTable:
    """The profile is a small table of pieces: data that pickles and validates."""

    def test_registry_payoffs_pickle(self):
        for name in PROFILES:
            payoff = GENERIC_PAYOFFS[name](np.array([0.5, 0.5]), -1.0)
            back = pickle.loads(pickle.dumps(payoff))
            assert np.array_equal(back.slopes, payoff.slopes)
            assert np.array_equal(back.intercepts, payoff.intercepts)
            assert np.array_equal(back.evaluate(np.eye(2)), payoff.evaluate(np.eye(2)))

    def test_pieces_sorted_and_read_only(self):
        payoff = RidgePayoff([1.0], 0.0, slopes=[1.0, -1.0, 0.0], intercepts=[-1.0, -1.0, 0.0])
        assert payoff.slopes.tolist() == [-1.0, 0.0, 1.0]
        assert payoff.intercepts.tolist() == [-1.0, 0.0, -1.0]
        assert not payoff.slopes.flags.writeable
        assert payoff.evaluate(np.array([[0.5], [3.0]])).tolist() == [0.0, 2.0]

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: RidgePayoff([1.0], 0.0, [1.5], [0.0]), id="steep-slope"),
            pytest.param(
                lambda: RidgePayoff([1.0], 0.0, [0.0, float("nan")], [0.0, 0.0]), id="nan-slope"
            ),
            pytest.param(
                lambda: RidgePayoff([1.0], 0.0, [1.0], [float("inf")]), id="inf-intercept"
            ),
            # the basket call takes the profile's finiteness check
            pytest.param(lambda: BasketCall(a=[float("nan")], b=0.0), id="nan-call-weight"),
            pytest.param(lambda: BasketCall(a=[1.0], b=float("inf")), id="inf-call-strike"),
        ],
    )
    def test_invalid_profile_refused(self, build):
        with pytest.raises(InvalidParameterError):
            build()

    def test_call_flag(self):
        # only pieces that are exactly y^+'s take the call's closed forms
        calls = (
            BasketCall(a=[1.0], b=-8.0),
            GENERIC_PAYOFFS["basket_call"]([1.0], -8.0),
            RidgePayoff([0.5, 0.5], -1.0, (1.0, 0.0), (0.0, 0.0)),  # sorted on entry
        )
        for payoff in calls:
            assert payoff.is_call
            assert pickle.loads(pickle.dumps(payoff)).is_call
        for name in ("zero", "straddle"):
            assert not GENERIC_PAYOFFS[name](np.array([1.0]), -8.0).is_call
        assert not general_call([1.0], -8.0).is_call
