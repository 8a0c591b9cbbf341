import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.integrate import quad as scipy_quad

from bachimpact import (
    BachelierModel,
    DualSpec,
    SingularDenominatorError,
    TimeGrid,
    certainty_equivalent_mc,
    dual_lower_bound,
    inverse,
    kernel_G,
    kernel_K,
    kernel_L,
    kernel_limit_integral,
    kernel_time_integral,
    limit_value,
    make_spd,
    optimal_dual_Y,
)
from bachimpact.asymptotics import LAM_DESK_FLOOR
from bachimpact.cli import main
from oracle import zero_claim

DUAL_D4_SIGMA = [1.0, 0.2, 0.1, 0.0, 0.2, 0.8, 0.2, 0.1, 0.1, 0.2, 1.2, 0.3, 0.0, 0.1, 0.3, 0.9]
# an at-the-money d = 4 basket call
DUAL_D4 = f"""
model.d = 4
model.s0 = 8.0 7.0 9.0 6.0
model.sigma = {" ".join(map(str, DUAL_D4_SIGMA))}
model.T = 1.0
payoff.kind = basket_call
payoff.a = 0.4 0.3 0.2 0.1
payoff.b = -7.7
impact.a_risk = 1.0
dual.n_random_specs = 2
numerics.seed = 20260810
"""
DUAL_D4_SHA256 = "9784543d327fee20fc98756d038b9c49a7758f7e9227d9a4009b78d913c486bc"


class _Zero:
    def __call__(self, w):
        return np.zeros_like(w)


class _Constant:
    def __init__(self, value):
        self.value = np.atleast_1d(np.asarray(value, dtype=float))

    def __call__(self, w):
        return np.broadcast_to(self.value, w.shape).copy()


def test_log_mean_exp_overflow_guard():
    from bachimpact import OverflowGuardError
    from bachimpact.asymptotics import _log_mean_exp

    with pytest.raises(OverflowGuardError):
        _log_mean_exp(np.array([1.0, np.inf]))
    value, mean_w, sd_w = _log_mean_exp(np.full(8, 3.0))
    assert value == pytest.approx(3.0)
    assert sd_w == 0.0


class TestCertaintyEquivalent:
    def test_zero_payoff_exact_zero(self, atm_model):
        grid = TimeGrid(n_steps=64, T=1.0)
        est = certainty_equivalent_mc(
            1.0, 0.2, atm_model, zero_claim(), [0.0], 500, grid, 42
        )
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_bracketed_by_frictionless_and_limit(self, atm_model, atm_call, call_oracle):
        grid = TimeGrid(n_steps=500, T=1.0)
        est = certainty_equivalent_mc(1.0, 0.1, atm_model, atm_call, [0.0], 20_000, grid, 7)
        frictionless = call_oracle(0.0)
        limit = call_oracle(0.5)
        assert frictionless - 3.0 * est.std_error <= est.value
        assert est.value <= limit + 3.0 * est.std_error

    def test_trend_toward_limit(self, atm_model, atm_call, call_oracle):
        grid = TimeGrid(n_steps=400, T=1.0)
        limit = call_oracle(0.5)
        errs, ses = [], []
        for lam in (0.4, 0.2, 0.1):
            est = certainty_equivalent_mc(1.0, lam, atm_model, atm_call, [0.0], 8000, grid, 11)
            errs.append(abs(est.value - limit))
            ses.append(est.std_error)
        assert errs[1] <= errs[0] + max(ses[0], ses[1])
        assert errs[2] <= errs[1] + max(ses[1], ses[2])

    def test_desk_floor_warning(self, atm_model, atm_call):
        grid = TimeGrid(n_steps=64, T=1.0)
        with pytest.warns(RuntimeWarning):
            certainty_equivalent_mc(
                1.0, 0.5 * LAM_DESK_FLOOR, atm_model, atm_call, [0.0], 50, grid, 1
            )

    def test_zero_inventory_value_scale(self, atm_model):
        # pure inventory decay: certainty equivalent approaches the quadratic
        # carrying value sqrt(A) phi0^2 / 2 as the impact vanishes
        grid = TimeGrid(n_steps=1000, T=1.0)
        est = certainty_equivalent_mc(1.0, 0.05, atm_model, zero_claim(), [1.0], 4000, grid, 13)
        assert est.value == pytest.approx(0.5, abs=3.0 * est.std_error + 0.02)


class TestDualLowerBound:
    def test_zero_selector_frictionless_price(self, atm_model, atm_call, call_oracle):
        spec = DualSpec(h=_Zero(), bounded=True, bound=0.0, name="zero")
        value, tol = dual_lower_bound(1.0, atm_model, atm_call, [0.0], spec)
        assert abs(value - call_oracle(0.0)) < 1e-6
        assert tol < 1e-4

    def test_constant_selector_pure_penalty(self, atm_model):
        for y in (0.5, -1.0):
            spec = DualSpec(h=_Constant([y]), bounded=True, bound=abs(y), name="const")
            value, _ = dual_lower_bound(1.0, atm_model, zero_claim(), [0.0], spec)
            assert value == pytest.approx(-(y**2) / 2.0, abs=1e-12)
        spec0 = DualSpec(h=_Constant([0.0]), bounded=True, bound=0.0, name="const0")
        value0, _ = dual_lower_bound(1.0, atm_model, zero_claim(), [0.0], spec0)
        assert value0 == 0.0

    def test_optimal_selector_attains_limit(self, atm_model, atm_call):
        for a_risk in (0.25, 1.0, 4.0):
            spec = optimal_dual_Y(a_risk, atm_model, atm_call, [0.0])
            value, _ = dual_lower_bound(a_risk, atm_model, atm_call, [0.0], spec)
            assert abs(value - limit_value(a_risk, atm_model, atm_call, [0.0])) < 1e-5

    def test_optimal_selector_with_inventory(self, atm_model, atm_call):
        spec = optimal_dual_Y(1.0, atm_model, atm_call, [0.6])
        value, _ = dual_lower_bound(1.0, atm_model, atm_call, [0.6], spec)
        assert abs(value - limit_value(1.0, atm_model, atm_call, [0.6])) < 1e-5

    def test_optimal_selector_two_dim_with_inventory(self, model2):
        # exercises every row-vector convention at once: non-diagonal vol,
        # nonzero inventory, quadrature selector vs closed-form limit
        from bachimpact import BasketCall

        call = BasketCall(a=[1.0, 0.5], b=-10.0)
        phi0 = [0.4, -0.2]
        spec = optimal_dual_Y(1.5, model2, call, phi0)
        value, _ = dual_lower_bound(1.5, model2, call, phi0, spec)
        target = limit_value(1.5, model2, call, phi0)
        assert abs(value - target) < 1e-4

    def test_random_bounded_never_beat_limit(self, atm_model, atm_call):
        rng = np.random.default_rng(23)
        limit = limit_value(1.0, atm_model, atm_call, [0.0])
        for _ in range(8):
            amp = rng.uniform(0.1, 2.0)
            freq = rng.uniform(0.2, 2.0)

            class Tanh:
                def __init__(self, a, f):
                    self.a, self.f = a, f

                def __call__(self, w):
                    return self.a * np.tanh(self.f * w)

            spec = DualSpec(h=Tanh(amp, freq), bounded=True, bound=amp, name="tanh")
            value, _ = dual_lower_bound(1.0, atm_model, atm_call, [0.0], spec)
            assert value <= limit + 1e-5

    def test_monte_carlo_branch(self, tmp_path, call_oracle):
        # d = 4 has no default rule, so the dual samples antithetic normals:
        # the zero selector's bound is the plain d = 4 Bachelier call price
        cfg = tmp_path / "dual4.cfg"
        cfg.write_text(DUAL_D4)
        out = tmp_path / "dual4.csv"
        assert main(["dual", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        value, se = map(float, dict((r[0], r[1:]) for r in rows[1:])["zero"])
        a, s0 = np.array([0.4, 0.3, 0.2, 0.1]), np.array([8.0, 7.0, 9.0, 6.0])
        sigma = np.array(DUAL_D4_SIGMA).reshape(4, 4)
        spread = float(np.linalg.norm(a @ sigma))
        assert se > 0.0
        assert abs(value - spread * call_oracle((a @ s0 - 7.7) / spread)) < 4.0 * se
        golden = json.loads((Path(__file__).resolve().parent / "golden_outputs.json").read_text())
        if (np.__version__, scipy.__version__) != (golden["numpy"], golden["scipy"]):
            pytest.skip("the d = 4 digest was recorded with the golden numpy/scipy versions")
        # the bytes this CSV had before the dual's one-off stream went through
        # market.substreams
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DUAL_D4_SHA256

    def test_bound_violation_warns(self, atm_model, atm_call):
        spec = DualSpec(h=_Constant([2.0]), bounded=True, bound=0.5, name="liar")
        with pytest.warns(RuntimeWarning):
            dual_lower_bound(1.0, atm_model, atm_call, [0.0], spec)


class TestOptimalSelector:
    def test_zero_payoff_zero_selector(self, atm_model):
        spec = optimal_dual_Y(1.0, atm_model, zero_claim(), [0.0])
        w = np.linspace(-2.0, 2.0, 5)[:, None]
        assert np.array_equal(spec.displacements(w), np.zeros((5, 1)))

    def test_basket_itm_pointwise(self, atm_model, atm_call):
        # deep in the money the displacement saturates at the negated
        # closed-form argmax plus the inventory shift
        phi0 = 0.5
        spec = optimal_dual_Y(1.0, atm_model, atm_call, [phi0])
        w = np.array([[4.0], [6.0]])
        expected = -1.0 + phi0
        assert np.allclose(spec.displacements(w), expected)

    def test_declared_bound_holds_on_samples(self, atm_model, atm_call):
        spec = optimal_dual_Y(1.0, atm_model, atm_call, [0.3])
        w = np.random.default_rng(1).normal(size=(64, 1))
        y = spec.displacements(w)
        assert np.linalg.norm(y, axis=1).max() <= spec.bound + 1e-9


class TestKernels:
    def test_boundary_values(self, sigma2):
        assert np.abs(kernel_G(1.0, 0.3, sigma2, 1.0, 0.0) - np.eye(2)).max() < 1e-12
        assert np.abs(kernel_L(1.0, 0.3, sigma2, 1.0, 0.4, 0.4) - np.eye(2)).max() < 1e-12
        assert np.abs(kernel_G(1.0, 0.3, sigma2, 1.0, 1.0)).max() < 1e-12

    def test_scalar_coth_value(self, sigma1):
        k = kernel_K(1.0, 1.0, sigma1, 1.0, 0.0, 0.0)
        assert k[0, 0] == pytest.approx(math.cosh(1.0) / math.sinh(1.0), abs=1e-12)

    def test_singular_denominator(self, sigma1):
        with pytest.raises(SingularDenominatorError):
            kernel_K(1.0, 0.3, sigma1, 1.0, 1.0, 1.0)

    def test_time_integral_identity(self, sigma1, sigma2):
        # (sqrt A / lam) * int_s^T K dt = sigma^{-1} for any s < T
        for sigma in (sigma1, sigma2):
            target = inverse(sigma).entries
            for lam in (1.0, 0.2):
                for s in (0.0, 0.37):
                    val = kernel_time_integral(1.0, lam, sigma, 1.0, s)
                    gap = np.abs(math.sqrt(1.0) / lam * val - target).max()
                    assert gap < 1e-8

    def test_limit_integral_scalar_value(self, sigma1):
        # independent check of the closed antiderivative by direct quadrature
        lam, c, tau = 1.0, 1.0, 1.0
        direct, _ = scipy_quad(lambda t: math.cosh(c * (1.0 - t)) ** 2, 0.0, 1.0)
        expected = direct / (math.sinh(c * tau) ** 2 * 2.0 * lam)
        val = kernel_limit_integral(1.0, lam, sigma1, 1.0, 0.0, "K")[0, 0]
        assert val == pytest.approx(expected, abs=1e-10)
        assert val > 0.25

    def test_limit_integral_converges(self, sigma1):
        val = kernel_limit_integral(1.0, 0.05, sigma1, 1.0, 0.0, "K")[0, 0]
        assert abs(val - 0.25) < 1e-6
        err_01 = abs(kernel_limit_integral(1.0, 0.1, sigma1, 1.0, 0.0, "K")[0, 0] - 0.25)
        err_005 = abs(val - 0.25)
        assert err_01 >= 10.0 * err_005

    def test_limit_target_eigenvalue_wise(self):
        sigma = make_spd([[1.0, 0.0], [0.0, 4.0]])
        val = kernel_limit_integral(4.0, 0.01, sigma, 1.0, 0.0, "K")
        assert np.abs(val - np.diag([1.0 / 8.0, 1.0 / 32.0])).max() < 1e-9

    def test_l_variant_same_limit(self, sigma1):
        val = kernel_limit_integral(1.0, 0.05, sigma1, 1.0, 0.0, "L")[0, 0]
        assert abs(val - 0.25) < 1e-6

    def test_small_impact_no_overflow(self, sigma2):
        for lam in (0.05, 1e-2, 1e-3):
            assert np.all(np.isfinite(kernel_K(1.0, lam, sigma2, 1.0, 0.5, 0.2)))
            assert np.all(np.isfinite(kernel_G(1.0, lam, sigma2, 1.0, 0.5)))
            assert np.all(np.isfinite(kernel_L(1.0, lam, sigma2, 1.0, 0.5, 0.2)))
            assert np.all(np.isfinite(kernel_limit_integral(1.0, lam, sigma2, 1.0, 0.1)))

    def test_g_l_entries_in_unit_interval_and_monotone(self, sigma2):
        prev_g = None
        for t in np.linspace(0.0, 1.0, 9):
            g = kernel_G(1.0, 0.3, sigma2, 1.0, float(t))
            eigs = np.linalg.eigvalsh(g)
            assert np.all(eigs >= -1e-12) and np.all(eigs <= 1.0 + 1e-12)
            if prev_g is not None:
                diff_eigs = np.linalg.eigvalsh(prev_g - g)
                assert np.all(diff_eigs >= -1e-10)
            prev_g = g


class TestSandwich:
    def test_two_sided_envelope(self, atm_model, atm_call, call_oracle):
        # lower edge from the dual functional, upper edge from the limit;
        # the dual bound targets the limit, so the two-sided check is run
        # where the finite-impact bias sits inside the Monte Carlo noise
        grid = TimeGrid(n_steps=1000, T=1.0)
        limit = limit_value(1.0, atm_model, atm_call, [0.0])
        spec = optimal_dual_Y(1.0, atm_model, atm_call, [0.0])
        dual_val, dual_tol = dual_lower_bound(1.0, atm_model, atm_call, [0.0], spec)
        assert dual_val <= limit + 1e-5
        for lam in (0.1, 0.05):
            est = certainty_equivalent_mc(
                1.0, lam, atm_model, atm_call, [0.0], 20_000, grid, 29
            )
            assert est.value <= limit + 3.0 * est.std_error
            if lam <= 0.05:
                assert dual_val - 3.0 * dual_tol <= est.value + 3.0 * est.std_error

    def test_upper_bound_with_drift_slack(self, sigma1, atm_call):
        from bachimpact import position_bound

        model = BachelierModel(s0=[8.0], mu=[0.5], sigma=sigma1, T=1.0)
        grid = TimeGrid(n_steps=500, T=1.0)
        limit = limit_value(1.0, model, atm_call, [0.0])
        lam = 0.2
        slack = lam * 2.0 * position_bound(atm_call, [0.0]) * 1.0 * 0.5
        est = certainty_equivalent_mc(1.0, lam, model, atm_call, [0.0], 10_000, grid, 31)
        assert est.value <= limit + slack + 3.0 * est.std_error
