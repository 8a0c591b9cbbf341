import numpy as np
import pytest
from scipy.stats import norm

from bachimpact import (
    BachelierModel,
    BasketCall,
    BudgetExceededError,
    InvalidParameterError,
    InvalidTimeError,
    build_gauss_hermite,
    build_normal_panel,
    delta_u,
    indifference_limit,
    limit_value,
    make_spd,
    pde_residual,
    price_u,
    sup_convolve,
)
from bachimpact.config import GENERIC_PAYOFFS
from bachimpact.pricing import coarsen_rule, default_quadrature
from oracle import GenericLipschitz, fd_delta, quadrature_price, zero_claim


def basket_batches(atm_model, atm_call, model2, seed):
    """(model, basket call, (9, d) spots) for d = 1 and a correlated d = 2."""
    rng = np.random.default_rng(seed)
    return [
        (atm_model, atm_call, rng.normal(8.0, 1.5, size=(9, 1))),
        (model2, BasketCall(a=[1.0, 0.5], b=-11.0), rng.normal([8.0, 6.0], 1.5, size=(9, 2))),
    ]


class TestGaussHermite:
    def test_two_point_rule(self):
        rule = build_gauss_hermite(2, 1)
        assert np.allclose(sorted(rule.nodes[:, 0]), [-1.0, 1.0])
        assert np.allclose(rule.weights, [0.5, 0.5])

    def test_moment_invariants(self):
        for m, d in [(8, 1), (16, 1), (8, 2), (6, 3)]:
            rule = build_gauss_hermite(m, d)
            assert abs(rule.weights.sum() - 1.0) < 1e-12
            assert np.abs(rule.weights @ rule.nodes).max() < 1e-10
            second = np.einsum("i,ij,ik->jk", rule.weights, rule.nodes, rule.nodes)
            assert np.abs(second - np.eye(d)).max() < 1e-10

    def test_symmetric_nodes(self):
        rule = build_gauss_hermite(9, 1)
        z = np.sort(rule.nodes[:, 0])
        assert np.allclose(z, -z[::-1], atol=1e-12)

    def test_polynomial_exactness(self):
        rule = build_gauss_hermite(6, 1)
        z = rule.nodes[:, 0]
        # fourth and sixth Gaussian moments: 3 and 15
        assert rule.weights @ z**4 == pytest.approx(3.0, abs=1e-10)
        assert rule.weights @ z**6 == pytest.approx(15.0, abs=1e-9)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            build_gauss_hermite(101, 3)

    def test_kinked_integrand_accuracy(self, call_oracle):
        # Hermite abscissae converge slowly across a kink: 64 nodes land
        # within ~5e-4 of the closed form, far from spectral accuracy.
        rule = build_gauss_hermite(64, 1)
        val = rule.weights @ np.maximum(rule.nodes[:, 0] + 0.5, 0.0)
        assert abs(val - call_oracle(0.5)) < 5e-4


class TestNormalPanel:
    def test_moment_invariants(self):
        rule = build_normal_panel(100, 8, 1)
        assert abs(rule.weights.sum() - 1.0) < 1e-12
        assert abs(rule.weights @ rule.nodes[:, 0]) < 1e-12
        assert abs(rule.weights @ rule.nodes[:, 0] ** 2 - 1.0) < 1e-10

    def test_kinked_integrand_tight(self, call_oracle):
        rule = default_quadrature(1)
        width = 2.0 * 12.0 / rule.tag[1]
        for c in np.linspace(0.31, 0.31 + width, 7):
            val = rule.weights @ np.maximum(rule.nodes[:, 0] + c, 0.0)
            assert abs(val - call_oracle(c)) < 1e-6

    def test_coarsen_is_half_resolution(self):
        rule = build_normal_panel(100, 8, 1)
        coarse = coarsen_rule(rule)
        assert coarse.tag[1] == 50

    @pytest.mark.parametrize(
        "rule",
        [build_gauss_hermite(2, 1), build_gauss_hermite(2, 3), build_normal_panel(1, 8, 2)],
        ids=["hermite-2-d1", "hermite-2-d3", "panel-1-d2"],
    )
    def test_coarsen_refuses_a_rule_without_a_coarser_companion(self, rule):
        # the companion would be the rule itself and certify a tolerance of 0
        with pytest.raises(InvalidParameterError, match="no coarser companion"):
            coarsen_rule(rule)
        assert coarsen_rule(build_gauss_hermite(3, rule.d)).tag == ("hermite", 2, rule.d)


class TestPriceU:
    def test_atm_oracle(self, atm_model, atm_call, call_oracle):
        val = price_u(1.0, atm_model, atm_call, 0.0, [8.0])
        assert val == pytest.approx(call_oracle(0.5), abs=1e-12)

    def test_vanishing_inflation_limit(self, atm_model, atm_call):
        val = price_u(1e-12, atm_model, atm_call, 0.0, [8.0])
        assert val == pytest.approx(norm.pdf(0.0), abs=1e-6)

    def test_zero_payoff(self, atm_model):
        for t in (0.0, 0.5, 1.0):
            assert price_u(1.0, atm_model, zero_claim(), t, [8.0]) == 0.0

    def test_maturity_equals_inflated_payoff(self, atm_model, atm_call, sigma1):
        for x in (6.0, 7.9, 8.0, 9.5):
            assert price_u(1.0, atm_model, atm_call, 1.0, [x]) == sup_convolve(
                atm_call, 1.0, sigma1, [x]
            )

    def test_quadrature_matches_closed_form(self, atm_model, atm_call, rule1):
        for x in (7.0, 8.0, 9.0):
            quad_val = quadrature_price(1.0, atm_model, atm_call, 0.0, [x], rule1)
            closed = price_u(1.0, atm_model, atm_call, 0.0, [x])
            assert abs(quad_val - closed) < 1e-5

    def test_generic_wrapper_matches_closed_form(self, atm_model, atm_call, rule1):
        # the search oracle at every node of the rule
        wrapped = GenericLipschitz(
            fn=lambda x: np.maximum(x[..., 0] - 8.0, 0.0), lipschitz_constant=1.0
        )
        for x in (7.5, 8.0, 8.5):
            quad_val = quadrature_price(1.0, atm_model, wrapped, 0.0, [x], rule1)
            closed = price_u(1.0, atm_model, atm_call, 0.0, [x])
            assert abs(quad_val - closed) < 1e-4

    def test_monotone_in_inflation(self, atm_model, atm_call):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = [rng.normal(8.0, 2.0)]
            a_lo, a_hi = sorted(rng.uniform(0.1, 4.0, size=2))
            assert price_u(a_hi, atm_model, atm_call, 0.3, x) >= (
                price_u(a_lo, atm_model, atm_call, 0.3, x) - 1e-12
            )

    def test_doubling_rule_stable_for_basket(self, atm_model, atm_call):
        base = build_normal_panel(400, 16, 1)
        fine = build_normal_panel(800, 16, 1)
        # price is closed form: a passed rule is ignored, so its size cannot matter
        v1 = price_u(1.0, atm_model, atm_call, 0.0, [8.0], base)
        v2 = price_u(1.0, atm_model, atm_call, 0.0, [8.0], fine)
        assert v1 == v2
        # the quadrature oracle converges below 1e-6 per refinement
        q1 = quadrature_price(1.0, atm_model, atm_call, 0.0, [8.0], base)
        q2 = quadrature_price(1.0, atm_model, atm_call, 0.0, [8.0], fine)
        assert abs(q1 - q2) < 1e-6

    def test_invalid_time(self, atm_model, atm_call):
        with pytest.raises(InvalidTimeError):
            price_u(1.0, atm_model, atm_call, 1.5, [8.0])

    def test_basket_batch_equals_rows(self, atm_model, atm_call, model2):
        for model, call, xs in basket_batches(atm_model, atm_call, model2, 8):
            for t in (0.0, 0.4, 1.0):
                batch = price_u(1.3, model, call, t, xs)
                assert batch.shape == (len(xs),)
                assert np.array_equal(batch, [price_u(1.3, model, call, t, x) for x in xs])

    def test_generic_batch_equals_rows(self, atm_model):
        payoff = GENERIC_PAYOFFS["straddle"](np.array([1.0]), -8.0)
        xs = np.array([[7.2], [8.0], [9.1]])
        batch = price_u(1.0, atm_model, payoff, 0.2, xs)
        assert np.array_equal(batch, [price_u(1.0, atm_model, payoff, 0.2, x) for x in xs])


class TestDeltaU:
    def test_saturated_delta(self, atm_model):
        call = BasketCall(a=[1.0], b=-8.0)
        delta = delta_u(1.0, atm_model, call, 0.0, [20.0])
        assert abs(delta[0] - 1.0) < 1e-10

    def test_atm_closed_form(self, atm_model, atm_call):
        delta = delta_u(1.0, atm_model, atm_call, 0.0, [8.0])
        assert delta[0] == pytest.approx(norm.cdf(0.5), abs=1e-12)

    def test_fd_matches_closed_form(self, atm_model, atm_call):
        for x in np.linspace(6.5, 9.5, 7):
            fd = fd_delta(1.0, atm_model, atm_call, 0.0, np.array([x]), 1e-4)
            closed = delta_u(1.0, atm_model, atm_call, 0.0, [x])
            assert abs(fd[0] - closed[0]) < 1e-6

    def test_fd_matches_closed_form_2d(self, model2):
        call = BasketCall(a=[1.0, 0.5], b=-10.0)
        x = np.array([8.2, 6.1])
        fd = fd_delta(2.0, model2, call, 0.2, x, 1e-4)
        closed = delta_u(2.0, model2, call, 0.2, x)
        assert np.abs(fd - closed).max() < 1e-6

    def test_basket_batch_equals_rows(self, atm_model, atm_call, model2):
        for model, call, xs in basket_batches(atm_model, atm_call, model2, 9):
            batch = delta_u(1.3, model, call, 0.4, xs)
            assert batch.shape == xs.shape
            assert np.array_equal(batch, [delta_u(1.3, model, call, 0.4, x) for x in xs])

    def test_zero_lipschitz_claim_has_zero_delta(self, model2):
        xs = np.array([[8.0, 6.0], [1.0, -3.0]])
        assert np.array_equal(delta_u(1.0, model2, zero_claim(2), 0.5, xs), np.zeros((2, 2)))
        assert np.array_equal(delta_u(1.0, model2, zero_claim(2), 0.5, xs[0]), [0.0, 0.0])

    def test_maturity_guard(self, atm_model, atm_call):
        strad = GENERIC_PAYOFFS["straddle"](np.array([1.0]), -8.0)
        for payoff in (atm_call, strad):
            with pytest.raises(InvalidTimeError):
                delta_u(1.0, atm_model, payoff, 1.0, [8.0])
            # exact up to maturity: no finite-difference guard band
            assert np.isfinite(delta_u(1.0, atm_model, payoff, 0.9999, [8.0])).all()


class TestPdeResidual:
    def test_basket_interior(self, atm_model, atm_call):
        assert abs(pde_residual(1.0, atm_model, atm_call, 0.5, [8.0])) <= 1e-3

    def test_zero_payoff_exact(self, atm_model):
        assert pde_residual(1.0, atm_model, zero_claim(), 0.5, [8.0]) == 0.0

    def test_two_dim_random_interior(self):
        sigma = make_spd([[1.0, 0.0], [0.0, 2.0]])
        model = BachelierModel(s0=[8.0, 8.0], mu=[0.0, 0.0], sigma=sigma, T=1.0)
        call = BasketCall(a=[1.0, 1.0], b=-16.0)
        rng = np.random.default_rng(4)
        for _ in range(5):
            t = rng.uniform(0.05, 0.9)
            x = rng.normal(8.0, 1.5, size=2)
            assert abs(pde_residual(1.0, model, call, t, x)) <= 1e-3

    def test_near_maturity_guard(self, atm_model, atm_call):
        with pytest.raises(InvalidTimeError):
            pde_residual(1.0, atm_model, atm_call, 0.9999, [8.0])


class TestLimitValues:
    def test_zero_payoff_quadratic_term(self, atm_model):
        assert limit_value(1.0, atm_model, zero_claim(), [2.0]) == pytest.approx(2.0)

    def test_atm_zero_inventory(self, atm_model, atm_call, call_oracle):
        assert limit_value(1.0, atm_model, atm_call, [0.0]) == pytest.approx(
            call_oracle(0.5), abs=1e-12
        )

    def test_zero_everything(self, atm_model):
        assert limit_value(1.0, atm_model, zero_claim(), [0.0]) == 0.0

    def test_indifference_equals_limit_at_zero_inventory(self, atm_model, atm_call):
        assert indifference_limit(1.0, atm_model, atm_call, [0.0]) == limit_value(
            1.0, atm_model, atm_call, [0.0]
        )

    def test_indifference_zero_payoff(self, atm_model):
        for phi0 in ([0.0], [3.0]):
            assert indifference_limit(1.0, atm_model, zero_claim(), phi0) == 0.0

    def test_inflated_strike_oracle(self, atm_model, atm_call, call_oracle):
        assert indifference_limit(4.0, atm_model, atm_call, [0.0]) == pytest.approx(
            call_oracle(1.0), abs=1e-12
        )

    def test_vanishing_inflation_recovers_frictionless(self, atm_model, atm_call):
        val = indifference_limit(1e-8, atm_model, atm_call, [0.0])
        assert val == pytest.approx(norm.pdf(0.0), abs=1e-4)

    def test_difference_identity(self, atm_model, atm_call):
        for phi0 in ([0.0], [1.5], [-2.0]):
            lhs = limit_value(1.0, atm_model, atm_call, phi0) - limit_value(
                1.0, atm_model, zero_claim(), phi0
            )
            rhs = indifference_limit(1.0, atm_model, atm_call, phi0)
            assert lhs == pytest.approx(rhs, abs=1e-12)
