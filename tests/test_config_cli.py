import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from bachimpact import (
    BachelierModel,
    BasketCall,
    ConfigError,
    NotPositiveDefiniteError,
    TimeGrid,
    asymptotics,
    certainty_equivalent_mc,
    hedging,
    make_spd,
    run_hedge_batch,
    supermartingale_check_mc,
)
from bachimpact.cli import cmd_check, main
from bachimpact.config import (
    GENERIC_PAYOFFS,
    _SCHEMA,
    config_hash,
    emit_config,
    load_config,
    parse_config_text,
    resolve_config,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """
model.d = 1
model.s0 = 8.0
model.sigma = 1.0
model.T = 1.0
payoff.kind = basket_call
payoff.a = 1.0
payoff.b = -8.0
impact.a_risk = 1.0
numerics.seed = 7
"""


class TestConfigParsing:
    def test_minimal_resolves(self):
        cfg = resolve_config(parse_config_text(MINIMAL))
        assert cfg.model.d == 1
        assert cfg.seed == 7
        assert cfg.lambdas == [0.4, 0.2, 0.1, 0.05]
        assert np.array_equal(cfg.phi0, [0.0])

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(MINIMAL + "\nmodel.bogus = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(MINIMAL + "\nmodel.T = 2.0\n")

    def test_missing_seed_rejected(self):
        text = MINIMAL.replace("numerics.seed = 7", "")
        with pytest.raises(ConfigError, match="numerics.seed"):
            resolve_config(parse_config_text(text))

    def test_non_spd_sigma_rejected(self):
        text = MINIMAL.replace("model.sigma = 1.0", "model.sigma = -1.0")
        with pytest.raises(NotPositiveDefiniteError):
            resolve_config(parse_config_text(text))

    def test_bad_value_diagnostics(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config_text("model.T = one\n")

    def test_roundtrip_idempotent(self):
        values = parse_config_text(MINIMAL)
        emitted = emit_config(values)
        values2 = parse_config_text(emitted)
        assert values == values2
        assert emit_config(values2) == emitted
        assert config_hash(values) == config_hash(values2)

    @pytest.mark.parametrize("line", ["dual.eps = 1e-9", "numerics.fd_step = 1e-4"])
    def test_retired_keys_rejected(self, line, tmp_path, capsys):
        # the grid search's tolerance and the finite-difference step went with them
        cfg = tmp_path / "retired.cfg"
        cfg.write_text(MINIMAL + line + "\n")
        assert run_cli(["price", "--config", cfg]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_generic_payoff_registry(self):
        text = MINIMAL.replace(
            "payoff.kind = basket_call", "payoff.kind = generic\npayoff.name = straddle"
        )
        cfg = resolve_config(parse_config_text(text))
        assert cfg.payoff.lipschitz_constant == pytest.approx(1.0)

    def test_shipped_configs_load(self):
        for name in ("figure1", "converge_atm", "dual_atm", "hedge_atm", "check_default"):
            cfg = load_config(str(CONFIG_DIR / f"{name}.cfg"))
            assert cfg.model.T == 1.0


def run_cli(args):
    return main([str(a) for a in args])


class TestCli:
    def test_figure_values(self, tmp_path, call_oracle):
        out = tmp_path / "figure.csv"
        code = run_cli(["figure", "--config", CONFIG_DIR / "figure1.cfg", "--out", out])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "a_risk,indifference_limit"
        rows = [tuple(map(float, l.split(","))) for l in lines[1:]]
        values = [v for _, v in rows]
        for (a_risk, value) in rows:
            assert abs(value - call_oracle(math.sqrt(a_risk) / 2.0)) < 1e-6
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_price_rows_zero_payoff(self, tmp_path):
        out = tmp_path / "price0.csv"
        cfg = tmp_path / "price0.cfg"
        cfg.write_text(
            MINIMAL.replace("payoff.kind = basket_call", "payoff.kind = generic")
            + "payoff.name = zero\n"
        )
        assert run_cli(["price", "--config", cfg, "--out", out]) == 0
        for line in out.read_text().splitlines():
            if line.startswith("#") or line.startswith("a_risk"):
                continue
            u_val = float(line.split(",")[3])
            assert u_val == 0.0

    def test_price_rows(self, tmp_path, call_oracle):
        out = tmp_path / "price.csv"
        cfg = tmp_path / "price.cfg"
        cfg.write_text(MINIMAL + "price.a_grid = 0.25 1.0 4.0\n")
        code = run_cli(["price", "--config", cfg, "--out", out])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "a_risk,t,x_0,u_value,delta_0,pde_residual"
        for line in lines[1:]:
            a_risk, t, x, u_val, delta, res = map(float, line.split(","))
            m = math.sqrt(a_risk) / 2.0
            assert abs(u_val - call_oracle(m)) < 1e-9
            assert abs(delta - norm.cdf(m)) < 1e-9
            assert abs(res) < 1e-3

    @pytest.mark.parametrize("t", [0.995, 0.9995])
    def test_price_near_maturity(self, t, tmp_path, reference):
        # the delta is exact up to maturity; only the residual's time
        # difference needs room, and is marked nan where it has none
        cfg, out = tmp_path / "near.cfg", tmp_path / "near.csv"
        text = (CONFIG_DIR / "figure1.cfg").read_text()
        cfg.write_text(text + f"price.t = {t!r}\noutput.precision = 17\n")
        assert run_cli(["price", "--config", cfg, "--out", out]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        a_risk, t_out, x, u_val, delta, res = map(float, rows[1].split(","))
        want_price, want_delta = reference.basket_call(a_risk, [1.0], -8.0, [[1.0]], 1.0, t, [x])
        assert t_out == t
        assert u_val == pytest.approx(want_price, rel=1e-12)
        assert delta == pytest.approx(want_delta[0], rel=1e-12, abs=1e-12)
        assert math.isnan(res)

    def test_converge_csv_and_headers(self, tmp_path):
        out = tmp_path / "converge.csv"
        code = run_cli(
            ["converge", "--config", CONFIG_DIR / "converge_atm.cfg",
             "--out", out, "--paths", 2000, "--quiet"]
        )
        assert code == 0
        text = out.read_text()
        assert "# config_hash=" in text
        assert "# n_steps_lam_0.4=1000" in text
        body = [l for l in text.splitlines() if not l.startswith("#")]
        assert body[0] == "lam,ce_value,ce_se,limit,slack_bound"
        assert len(body) == 5
        for line in body[1:]:
            lam, ce, se, limit, slack = map(float, line.split(","))
            assert slack == 0.0  # driftless config
            assert ce <= limit + 3.0 * se

    def test_seed_override_changes_output(self, tmp_path):
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"converge_{seed}.csv"
            run_cli(
                ["converge", "--config", CONFIG_DIR / "converge_atm.cfg",
                 "--out", out, "--paths", 500, "--seed", seed, "--quiet"]
            )
            outs.append(out.read_bytes())
        assert outs[0] != outs[1]

    def test_worker_count_does_not_change_output(self, tmp_path):
        blobs = []
        for workers in (1, 2):
            out = tmp_path / f"hedge_w{workers}.csv"
            run_cli(
                ["hedge", "--config", CONFIG_DIR / "hedge_atm.cfg",
                 "--out", out, "--workers", workers, "--quiet"]
            )
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_converge_groups_step_counts_keep_order(self, tmp_path):
        # sigma 2: lam 0.02 needs 2000 steps, 0.4 and 0.2 sit on the 1000 floor
        from bachimpact import TimeGrid, auto_n_steps, certainty_equivalent_mc
        from bachimpact.cli import _fmt

        cfg = tmp_path / "two_grids.cfg"
        cfg.write_text(
            MINIMAL.replace("model.sigma = 1.0", "model.sigma = 2.0")
            + "impact.lambdas = 0.4 0.02 0.2\nnumerics.n_paths = 64\n"
        )
        out = tmp_path / "converge.csv"
        assert run_cli(["converge", "--config", cfg, "--out", out, "--quiet"]) == 0
        text = out.read_text().splitlines()
        assert [l for l in text if l.startswith("# n_steps")] == [
            "# n_steps_lam_0.4=1000", "# n_steps_lam_0.02=2000", "# n_steps_lam_0.2=1000",
        ]
        body = [l for l in text if not l.startswith("#")][1:]
        c = load_config(cfg)
        for line, lam in zip(body, (0.4, 0.02, 0.2), strict=True):
            grid = TimeGrid(n_steps=auto_n_steps(c.a_risk, lam, c.model), T=c.model.T)
            est = certainty_equivalent_mc(
                c.a_risk, lam, c.model, c.payoff, c.phi0, c.n_paths, grid, c.seed
            )
            assert line.split(",")[:3] == [_fmt(v, 9) for v in (lam, est.value, est.std_error)]

    def test_dual_csv(self, tmp_path, call_oracle):
        out = tmp_path / "dual.csv"
        cfg = tmp_path / "dual.cfg"
        cfg.write_text((CONFIG_DIR / "dual_atm.cfg").read_text().replace(
            "dual.n_random_specs = 20", "dual.n_random_specs = 3"
        ))
        code = run_cli(["dual", "--config", cfg, "--out", out])
        assert code == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        rows = {l.split(",")[0]: list(map(float, l.split(",")[1:])) for l in body[1:]}
        limit = call_oracle(0.5)
        assert abs(rows["zero"][0] - call_oracle(0.0)) < 1e-6
        assert abs(rows["optimal"][0] - limit) < 1e-5
        for name, (value, _) in rows.items():
            assert value <= limit + 1e-5

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MINIMAL.replace("model.sigma = 1.0", "model.sigma = -2.0"))
        assert run_cli(["figure", "--config", cfg]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_key_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad2.cfg"
        cfg.write_text("model.d = 1\n")
        assert run_cli(["price", "--config", cfg]) == 1
        capsys.readouterr()

    def test_numeric_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        from bachimpact import NonFiniteResultError
        from bachimpact import cli as cli_mod

        def boom(cfg, out, quiet):
            raise NonFiniteResultError("synthetic overflow")

        monkeypatch.setitem(cli_mod._COMMANDS, "figure", boom)
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(MINIMAL)
        assert run_cli(["figure", "--config", cfg]) == 2
        assert "numeric failure" in capsys.readouterr().err


NON_FINITE_CASES = [
    (key, text)
    for key, kind in sorted(_SCHEMA.items())
    if kind in ("f", "fl")
    for text in ("nan", "inf", "-inf")
]


class TestOneCallRepresentation:
    @pytest.mark.parametrize("command", ["price", "figure", "dual"])
    @pytest.mark.parametrize("config", ["figure1.cfg", "dual_atm.cfg"])
    def test_both_routes_to_the_call_write_the_same_rows(self, config, command, tmp_path):
        # payoff.kind = basket_call and the generic registry's basket_call
        # build one payoff, so every digit of every row agrees
        text = (CONFIG_DIR / config).read_text() + "\noutput.precision = 17\n"
        generic = text.replace(
            "payoff.kind = basket_call", "payoff.kind = generic\npayoff.name = basket_call"
        )
        assert generic != text
        bodies = []
        for i, route in enumerate((text, generic)):
            cfg, out = tmp_path / f"{i}.cfg", tmp_path / f"{i}.csv"
            cfg.write_text(route)
            assert run_cli([command, "--config", cfg, "--out", out, "--quiet"]) == 0
            lines = out.read_text().splitlines()
            bodies.append([l for l in lines if not l.startswith("# config_hash=")])
        assert bodies[0] == bodies[1]


class TestNonFiniteInputs:
    @pytest.mark.parametrize("key,text", NON_FINITE_CASES)
    def test_rejected_with_key_named(self, key, text, tmp_path, capsys):
        lines = [l for l in MINIMAL.splitlines() if not l.startswith(key + " ")]
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text("\n".join(lines + [f"{key} = {text}"]) + "\n")
        assert run_cli(["price", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err

    def test_generic_four_dim_straddle_prices(self, tmp_path, reference):
        # a ridge payoff needs no 41^d search: d = 4 prices in closed form
        cfg = tmp_path / "generic4.cfg"
        cfg.write_text(
            "model.d = 4\nmodel.s0 = 1 1 1 1\nmodel.sigma = "
            + " ".join("1" if i == j else "0" for i in range(4) for j in range(4))
            + "\nmodel.T = 1.0\npayoff.kind = generic\npayoff.name = straddle\n"
            "payoff.a = 0.5 0.5 0.5 0.5\npayoff.b = -2.0\nimpact.a_risk = 1.0\n"
            "price.t = 0.3\nnumerics.seed = 7\n"
        )
        out = tmp_path / "price4.csv"
        assert run_cli(["price", "--config", cfg, "--out", out]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 2
        values = dict(zip(rows[0].split(","), map(float, rows[1].split(","))))
        want, want_delta = reference.straddle(
            1.0, [0.5] * 4, -2.0, np.eye(4).tolist(), 1.0, 0.3, [1.0] * 4
        )
        assert abs(values["u_value"] - want) < 1e-5
        for i in range(4):
            assert abs(values[f"delta_{i}"] - want_delta[i]) < 1e-5


NON_FINITE_RESULT_CASES = [
    # (subcommand, config line replaced, its replacement, extra flags)
    ("figure", "model.sigma = 1.0", "model.sigma = 1e155", []),
    ("figure", "payoff.a = 1.0", "payoff.a = 1e300", []),
    ("converge", "model.sigma = 1.0", "model.sigma = 1e155", ["--paths", "16"]),
]


class TestNonFiniteResults:
    @pytest.mark.parametrize(
        "command,line,huge,flags", NON_FINITE_RESULT_CASES,
        ids=["figure-sigma", "figure-a", "converge-sigma"],
    )
    def test_numeric_failure_writes_nothing(self, command, line, huge, flags, tmp_path, capsys):
        # finite but huge inputs overflow to inf/nan results: exit 2, no rows
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(MINIMAL.replace(line, huge) + "numerics.n_steps = 8\n")
        out = tmp_path / "out.csv"
        assert run_cli([command, "--config", cfg, "--out", out, "--quiet", *flags]) == 2
        err = capsys.readouterr().err
        assert "numeric failure" in err and "not finite" in err
        assert "Traceback" not in err
        assert not out.exists()


HUGE_RIDGE_CASES = [
    ("payoff.a = 1.0", "payoff.a = 1e150"),
    ("model.sigma = 1.0", "model.sigma = 1e155"),
]


class TestHugeRidgeInputs:
    @pytest.mark.parametrize("line,huge", HUGE_RIDGE_CASES, ids=["a", "sigma"])
    def test_refused_in_bounded_memory(self, line, huge, tmp_path, capsys):
        # the inflated claim at 1e300 has no digit left for a delta of
        # spread 1e150; sigma^2 overflows the residual: exit 2, no rows, and
        # the table stays its fixed size whatever the scale
        cfg = tmp_path / "huge.cfg"
        generic = "payoff.kind = generic\npayoff.name = straddle"
        cfg.write_text(MINIMAL.replace("payoff.kind = basket_call", generic).replace(line, huge))
        out = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            code = run_cli(["price", "--config", cfg, "--out", out])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code in (1, 2)
        err = capsys.readouterr().err
        assert err.strip()
        assert "Traceback" not in err
        assert not out.exists()
        assert peak < 64 * 2**20


class TestPdeResidualRounding:
    @pytest.mark.parametrize(
        "kind", ["payoff.kind = basket_call", "payoff.kind = generic\npayoff.name = basket_call"],
        ids=["closed-form", "ridge"],
    )
    def test_huge_basket_call_refused(self, kind, tmp_path, capsys):
        # at a = 1e150 the residual's second differences have no digit left
        # (it read 1.86e287 with exit 0): exit 2, no rows
        cfg = tmp_path / "huge.cfg"
        text = MINIMAL.replace("payoff.kind = basket_call", kind)
        cfg.write_text(text.replace("payoff.a = 1.0", "payoff.a = 1e150"))
        out = tmp_path / "out.csv"
        assert run_cli(["price", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "numeric failure" in err and "rounding bound" in err
        assert "Traceback" not in err
        assert not out.exists()


def test_cli_import_leaves_scipy_integrate_unloaded():
    # only the check command's kernel item integrates adaptively
    code = "import sys, bachimpact.cli; print('scipy.integrate' in sys.modules)"
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "False"


OUT_OF_RANGE_CASES = [
    # (where the value is set, key named in the message, value)
    ("config", "numerics.seed", "-1"),
    ("config", "numerics.seed", str(2**64)),
    ("config", "numerics.workers", "0"),
    ("config", "numerics.n_paths", "0"),
    ("--seed", "numerics.seed", "-1"),
    ("--seed", "numerics.seed", str(2**64)),
    ("--workers", "numerics.workers", "0"),
    ("--paths", "numerics.n_paths", "0"),
    ("config", "dual.n_random_specs", "-2"),
    ("config", "output.precision", "0"),
    ("config", "output.precision", "18"),
    ("config", "output.precision", str(2**31)),
]


class TestOutOfRangeNumerics:
    @pytest.mark.parametrize("where,key,value", OUT_OF_RANGE_CASES)
    def test_rejected_with_key_named(self, where, key, value, tmp_path, capsys):
        cfg = tmp_path / "numerics.cfg"
        flags = []
        if where == "config":
            lines = [l for l in MINIMAL.splitlines() if not l.startswith(key + " ")]
            cfg.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        else:
            cfg.write_text(MINIMAL)
            flags = [where, value]
        assert run_cli(["figure", "--config", cfg, *flags]) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err

    def test_largest_seed_accepted(self, tmp_path):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(MINIMAL)
        out = tmp_path / "hedge.csv"
        args = ["hedge", "--config", cfg, "--seed", 2**64 - 1, "--paths", 2, "--out", out]
        assert run_cli(args) == 0
        assert f"# seed={2**64 - 1}" in out.read_text()


class TestCheckCommand:
    def test_default_config_passes(self, capsys):
        code = run_cli(["check", "--config", CONFIG_DIR / "check_default.cfg"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_corrupted_sigma_fails(self, tmp_path, capsys):
        cfg = tmp_path / "badsigma.cfg"
        cfg.write_text(
            (CONFIG_DIR / "check_default.cfg").read_text().replace(
                "model.sigma = 1.0", "model.sigma = -1.0"
            )
        )
        assert run_cli(["check", "--config", cfg]) == 1
        assert "positive" in capsys.readouterr().err

    def test_overflowing_certificate_is_numeric_failure(self, tmp_path, capsys):
        # at lam = 0.001 the certificate ratios overflow: exit 2, not a
        # "mean ratio=inf" line with exit 1
        cfg = tmp_path / "tiny_impact.cfg"
        cfg.write_text(
            (CONFIG_DIR / "check_default.cfg").read_text().replace(
                "impact.lambdas = 0.2", "impact.lambdas = 0.001"
            )
        )
        assert run_cli(["check", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "numeric failure" in captured.err
        assert "ratio=inf" not in captured.out

    def test_one_hedge_pass(self, monkeypatch, capsys):
        # the supermartingale and sandwich items read one batch; the CE's own
        # binding is counted too, so a second pass through it cannot hide
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return run_hedge_batch(*args, **kwargs)

        monkeypatch.setattr(hedging, "run_hedge_batch", counting)
        monkeypatch.setattr(asymptotics, "run_hedge_batch", counting)
        assert cmd_check(load_config(CONFIG_DIR / "check_default.cfg"), None, True) == 0
        assert len(calls) == 1
        assert "[FAIL]" not in capsys.readouterr().out

    @pytest.mark.parametrize("d", [1, 3])
    def test_reducers_on_one_batch_equal_the_estimators(self, d):
        # drift and a start inventory so every term of the certificate counts
        if d == 1:
            model = BachelierModel(s0=[8.0], mu=[0.3], sigma=make_spd([[1.0]]), T=1.0)
            payoff, phi0 = BasketCall(a=[1.0], b=-8.0), [0.2]
        else:
            sigma = make_spd([[1.0, 0.3, 0.2], [0.3, 0.9, 0.1], [0.2, 0.1, 0.8]])
            model = BachelierModel(s0=[8.0, 7.0, 9.0], mu=[0.1, -0.2, 0.0], sigma=sigma, T=1.0)
            payoff = GENERIC_PAYOFFS["straddle"](np.array([0.5, 0.3, 0.2]), -8.0)
            phi0 = [0.1, -0.1, 0.05]
        grid, n_paths, seed = TimeGrid(n_steps=32, T=1.0), 300, 11
        batch = run_hedge_batch(1.0, 0.2, model, payoff, phi0, grid, n_paths, seed)
        assert hedging._certificate_ratio(1.0, 0.2, model, payoff, phi0, batch) == (
            supermartingale_check_mc(1.0, 0.2, model, payoff, phi0, grid, n_paths, seed)
        )
        assert asymptotics._ce_estimate(1.0, 0.2, batch) == certainty_equivalent_mc(
            1.0, 0.2, model, payoff, phi0, n_paths, grid, seed
        )
