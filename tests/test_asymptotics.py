import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.integrate import quad as scipy_quad

from bachimpact import (
    BachelierModel,
    BasketCall,
    DualSpec,
    InvalidParameterError,
    SingularDenominatorError,
    TimeGrid,
    build_gauss_hermite,
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
from bachimpact.asymptotics import LAM_DESK_FLOOR, _penalty
from bachimpact.cli import _TanhSelector, main
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

# the benchmark's d = 3 desk basket (weights, vols and correlations of
# bench/DESIGN.md) at spot levels (8, 7, 9), its strike at the money
D3_WEIGHTS = (0.5, 0.3, 0.2)
D3_VOLS = (1.0, 0.9, 0.8)
D3_RHO = ((1.0, 0.3, 0.2), (0.3, 1.0, 0.1), (0.2, 0.1, 1.0))
D3_SIGMA = [D3_RHO[i][j] * math.sqrt(D3_VOLS[i] * D3_VOLS[j]) for i in range(3) for j in range(3)]
D3_S0 = (8.0, 7.0, 9.0)
D3_STRIKE = sum(w * s for w, s in zip(D3_WEIGHTS, D3_S0))
DUAL_D3 = f"""
model.d = 3
model.s0 = {" ".join(map(repr, D3_S0))}
model.sigma = {" ".join(map(repr, D3_SIGMA))}
model.T = 1.0
payoff.kind = basket_call
payoff.a = {" ".join(map(repr, D3_WEIGHTS))}
payoff.b = {-D3_STRIKE!r}
impact.a_risk = 1.0
impact.lambdas = 0.4 0.2 0.1
hedge.phi0 = 0.0 0.0 0.0
numerics.n_paths = 200
numerics.seed = 20260810
output.precision = 17
"""
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# dual CSVs at every digit a double carries, recorded before the selectors
# shared one pass per node set: the d = 1 golden run prints 9 digits and its
# penalty has no off-diagonal terms, so it cannot see a d >= 2 reordering
DUAL_P17 = {
    "dual_atm": (
        (CONFIG_DIR / "dual_atm.cfg").read_text() + "output.precision = 17\n",
        "bf3cbc8814b92a2f6ac61d041a59dc6e08bd2b4a6447fd8628761dff0c709325",
    ),
    "desk_d3": (DUAL_D3, "54a5a2654de2118dc5c7ad083e35cae79eacec9882398ba024e3c711f983c7c9"),
}

# a d = 2 straddle with drift and inventory; its hedge runs the d >= 2 loop
# (einsum dots, matrix products) that the d = 1 golden runs never reach
D2_STRADDLE = """
model.d = 2
model.s0 = 8.0 7.0
model.mu = 0.3 -0.2
model.sigma = 1.0 0.3 0.3 0.8
model.T = 1.0
payoff.kind = generic
payoff.name = straddle
payoff.a = 0.6 0.4
payoff.b = -7.6
impact.a_risk = 1.0
impact.lambdas = 0.4 0.1 0.03
hedge.phi0 = 0.2 -0.1
numerics.n_paths = 700
numerics.seed = 20260810
output.precision = 17
"""
# d >= 2 engine output at full precision, recorded before the row helpers
# of bachimpact.linalg replaced the one-element matrix products (``check``
# prints its report to stdout; the others write a CSV)
ENGINE_P17 = {
    "d3-hedge": (
        "hedge", DUAL_D3, "355492588a51b672101d7c6ee4a31440e2b5e29cc12bc33377b9aa251a23b797",
    ),
    "d3-check": (
        "check", DUAL_D3, "6cbc21e371b8f8b4683d6a19f158ebdb398ac828bf3c81bb6e427ce1cb037285",
    ),
    "d2-straddle-dual": (
        "dual", D2_STRADDLE, "6343274c5975782afbc1d1bbe9bf21723fc667d45ac800236b00a06e4b2463b0",
    ),
    "d2-straddle-hedge": (
        "hedge", D2_STRADDLE, "c39871ca851bf0e43a837c7a3bee5ade24700495732591df723d2e75cb21e8ea",
    ),
}


def _skip_unless_golden_versions(what: str) -> None:
    golden = json.loads((Path(__file__).resolve().parent / "golden_outputs.json").read_text())
    if (np.__version__, scipy.__version__) != (golden["numpy"], golden["scipy"]):
        pytest.skip(f"{what} was recorded with the golden numpy/scipy versions")


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

    @pytest.mark.parametrize("lam", [0.2, [0.4, 0.2]], ids=["one-impact", "two-impacts"])
    def test_one_path_refused(self, atm_model, atm_call, lam):
        # one path has no spread to estimate: a standard error of 0 would claim an exact value
        grid = TimeGrid(n_steps=8, T=1.0)
        with pytest.raises(InvalidParameterError, match="at least 2 paths"):
            certainty_equivalent_mc(1.0, lam, atm_model, atm_call, [0.0], 1, grid, 3)
        est = certainty_equivalent_mc(1.0, 0.2, atm_model, atm_call, [0.0], 2, grid, 3)
        assert est.n_paths == 2 and est.std_error > 0.0

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
        _skip_unless_golden_versions("the d = 4 digest")
        # the bytes this CSV had before the dual's one-off stream went through
        # market.substreams
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DUAL_D4_SHA256

    def test_bound_violation_warns(self, atm_model, atm_call):
        spec = DualSpec(h=_Constant([2.0]), bounded=True, bound=0.5, name="liar")
        with pytest.warns(RuntimeWarning):
            dual_lower_bound(1.0, atm_model, atm_call, [0.0], spec)


class _Tanh:
    def __init__(self, amp, freq, phase):
        self.amp, self.freq, self.phase = amp, freq, phase

    def __call__(self, w):
        return self.amp * np.tanh(self.freq * w + self.phase)


def _market(d):
    """(model, payoff, phi0) of the batched-dual case in dimension ``d``."""
    if d == 4:
        sigma = make_spd(np.array(DUAL_D4_SIGMA).reshape(4, 4))
        s0, a, b, phi0 = [8.0, 7.0, 9.0, 6.0], [0.4, 0.3, 0.2, 0.1], -7.7, [0.1, 0.0, -0.2, 0.3]
    elif d == 3:
        sigma = make_spd(np.array(D3_SIGMA).reshape(3, 3))
        s0, a, b, phi0 = D3_S0, D3_WEIGHTS, -D3_STRIKE, [0.2, -0.1, 0.3]
    elif d == 2:
        sigma = make_spd([[1.0, 0.3], [0.3, 2.0]])
        s0, a, b, phi0 = [8.0, 6.0], [1.0, 0.5], -10.0, [0.4, -0.2]
    else:
        sigma = make_spd([[1.0]])
        s0, a, b, phi0 = [8.0], [1.0], -8.0, [0.3]
    model = BachelierModel(s0=s0, mu=np.zeros(d), sigma=sigma, T=1.0)
    return model, BasketCall(a=a, b=b), phi0


class TestBatchedDual:
    @pytest.mark.parametrize(
        "d,hermite_m", [(1, None), (2, None), (3, None), (2, 9), (4, None)],
        ids=["d1-default", "d2-default", "d3-default", "d2-hermite", "d4-monte-carlo"],
    )
    def test_sequence_equals_one_call_per_selector(self, d, hermite_m):
        model, payoff, phi0 = _market(d)
        rule = build_gauss_hermite(hermite_m, d) if hermite_m else None
        rng = np.random.default_rng(d)
        specs = [
            DualSpec(h=_Zero(), bounded=True, bound=0.0, name="zero"),
            optimal_dual_Y(1.5, model, payoff, phi0),
        ]
        for _ in range(3):
            amp = rng.uniform(0.1, 2.0, size=d)
            tanh = _Tanh(amp, rng.uniform(0.2, 2.0, size=d), rng.uniform(-1.0, 1.0, size=d))
            specs.append(DualSpec(h=tanh, bounded=True, bound=float(np.linalg.norm(amp))))
        batched = dual_lower_bound(1.5, model, payoff, phi0, specs, rule, seed=11)
        singles = [dual_lower_bound(1.5, model, payoff, phi0, s, rule, seed=11) for s in specs]
        assert batched == singles
        assert all(isinstance(pair, tuple) and len(pair) == 2 for pair in singles)
        assert len({pair[0] for pair in singles}) == len(specs)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_penalty_keeps_einsum_bits(self, d):
        rng = np.random.default_rng(40 + d)
        a = rng.normal(size=(d, d))
        sig_inv = inverse(make_spd(a @ a.T + 0.5 * np.eye(d))).entries
        y = rng.normal(size=(100_000, d)) * rng.uniform(0.1, 3.0, size=d)
        expected = np.einsum("ij,jk,ik->i", y, sig_inv, y)
        assert np.array_equal(_penalty(y, sig_inv), expected)
        if d >= 2:
            # the comparison sees a reordering: another order moves some rows' bits
            assert not np.array_equal(np.einsum("ij,ij->i", y @ sig_inv, y), expected)

    @pytest.mark.parametrize("name", sorted(DUAL_P17))
    def test_full_precision_csv_keeps_its_bytes(self, name, tmp_path):
        text, digest = DUAL_P17[name]
        cfg, out = tmp_path / "dual.cfg", tmp_path / "dual.csv"
        cfg.write_text(text)
        assert main(["dual", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        _skip_unless_golden_versions(f"the {name} digest")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cli_tanh_selector_keeps_broadcast_bits(self, d):
        rng = np.random.default_rng(80 + d)
        amp, freq = rng.uniform(0.1, 2.0, size=d), rng.uniform(0.2, 2.0, size=d)
        phase = rng.uniform(-1.0, 1.0, size=d)
        shape = (100_000, d)
        w = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-3.0, 3.0, size=shape)
        expected = amp[None, :] * np.tanh(freq[None, :] * w + phase[None, :])
        got = _TanhSelector(amp, freq, phase)(w)
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize(
        "excess,warns", [(1e-6, True), (2e-9, True), (5e-10, False), (0.0, False)],
        ids=["over-by-1e-6", "over-by-2e-9", "inside-the-slack", "at-the-bound"],
    )
    def test_bound_check_warns_as_the_norm_check_did(self, d, excess, warns):
        rng = np.random.default_rng(90 + d)
        tanh = _Tanh(rng.uniform(0.1, 2.0, size=d), rng.uniform(0.2, 2.0, size=d),
                     rng.uniform(-1.0, 1.0, size=d))
        w = rng.normal(size=(4096, d))
        worst = float(np.linalg.norm(tanh(w), axis=1).max())
        bound = worst / (1.0 + excess)
        spec = DualSpec(h=tanh, bounded=True, bound=bound, name="tanh")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spec.displacements(w)
        # the check as np.linalg.norm made it
        assert (worst > bound * (1.0 + 1e-9) + 1e-12) == warns
        assert len(caught) == int(warns)

    @pytest.mark.parametrize("name", sorted(ENGINE_P17))
    def test_d_two_and_three_engine_bytes(self, name, tmp_path, capsys):
        command, text, digest = ENGINE_P17[name]
        cfg, out = tmp_path / "engine.cfg", tmp_path / "engine.csv"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        data = capsys.readouterr().out.encode() if command == "check" else out.read_bytes()
        _skip_unless_golden_versions(f"the {name} digest")
        assert hashlib.sha256(data).hexdigest() == digest


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
