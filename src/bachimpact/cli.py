"""Batch experiment driver.

Subcommands: ``price``, ``figure``, ``hedge``, ``converge``, ``dual``,
``check``.  Output is CSV with ``#``-prefixed metadata lines (config hash,
resolved step counts) so a run is identifiable from its artifact alone.
Exit codes: 0 success, 1 validation or invariant failure, 2 numeric failure
(overflow guard tripped).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import asymptotics, hedging, market, pricing
from .config import ExperimentConfig, config_hash, load_config
from .errors import (
    BachImpactError,
    InvalidTimeError,
    NonFiniteResultError,
    OverflowGuardError,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2


def _fmt(value: float, precision: int) -> str:
    """One CSV cell; a non-finite value raises before anything is written."""
    if not math.isfinite(value):
        raise NonFiniteResultError(
            f"result {value} is not finite: an input is too large for double precision"
        )
    return f"{value:.{precision}g}"


def _resolve_grid(cfg: ExperimentConfig, lam: float) -> market.TimeGrid:
    if cfg.n_steps == "auto":
        n = hedging.auto_n_steps(cfg.a_risk, lam, cfg.model)
    else:
        n = int(cfg.n_steps)
    return market.TimeGrid(n_steps=n, T=cfg.model.T)


def _resolve_rule(cfg: ExperimentConfig):
    if cfg.quad_m == "auto":
        return pricing.default_quadrature(cfg.model.d)
    return pricing.build_gauss_hermite(int(cfg.quad_m), cfg.model.d)


def _emit(lines: list[str], cfg: ExperimentConfig, out_override: str | None) -> None:
    text = "\n".join(lines) + "\n"
    path = out_override if out_override is not None else cfg.csv_path
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _header(cfg: ExperimentConfig, extra: dict | None = None) -> list[str]:
    lines = [f"# config_hash={config_hash(cfg.raw)}", f"# seed={cfg.seed}"]
    for key, val in (extra or {}).items():
        lines.append(f"# {key}={val}")
    return lines


def cmd_price(cfg: ExperimentConfig, out: str | None, quiet: bool) -> int:
    """Claim price, gradient and heat-equation residual per (A, point)."""
    d = cfg.model.d
    lines = _header(cfg)
    delta_cols = ",".join(f"delta_{i}" for i in range(d))
    x_cols = ",".join(f"x_{i}" for i in range(d))
    lines.append(f"a_risk,t,{x_cols},u_value,{delta_cols},pde_residual")
    p = cfg.precision
    for a_risk in cfg.price_a_grid:
        for x in cfg.price_x:
            u_val = pricing.price_u(a_risk, cfg.model, cfg.payoff, cfg.price_t, x)
            derived = ["nan"] * (d + 1)  # at maturity the payoff kinks: marked, not computed
            if cfg.price_t < cfg.model.T:
                delta = pricing.delta_u(a_risk, cfg.model, cfg.payoff, cfg.price_t, x)
                derived[:d] = [_fmt(v, p) for v in delta]
                try:
                    residual = pricing.pde_residual(a_risk, cfg.model, cfg.payoff, cfg.price_t, x)
                    derived[d] = _fmt(residual, p)
                except InvalidTimeError:
                    pass  # too close to maturity for the time difference: stays nan
            row = [
                _fmt(a_risk, p),
                _fmt(cfg.price_t, p),
                *(_fmt(v, p) for v in x),
                _fmt(u_val, p),
                *derived,
            ]
            lines.append(",".join(row))
    _emit(lines, cfg, out)
    return EXIT_OK


def cmd_figure(cfg: ExperimentConfig, out: str | None, quiet: bool) -> int:
    """Limiting indifference price as a function of the inflation parameter."""
    lines = _header(cfg)
    lines.append("a_risk,indifference_limit")
    p = cfg.precision
    for a_risk in cfg.figure_a_grid:
        val = pricing.indifference_limit(a_risk, cfg.model, cfg.payoff, cfg.phi0)
        lines.append(f"{_fmt(a_risk, p)},{_fmt(val, p)}")
    _emit(lines, cfg, out)
    return EXIT_OK


def _per_impact(cfg: ExperimentConfig, run) -> tuple[dict, list]:
    """``run(lams, grid)`` once per group of impacts sharing a step count, so
    each group is hedged on one set of draws; the results and the
    resolved-step header come back in ``cfg.lambdas`` order."""
    grids = [_resolve_grid(cfg, lam) for lam in cfg.lambdas]
    groups: dict[int, list[int]] = {}
    for i, grid in enumerate(grids):
        groups.setdefault(grid.n_steps, []).append(i)
    results = [None] * len(cfg.lambdas)
    for idx in groups.values():
        for i, res in zip(idx, run([cfg.lambdas[i] for i in idx], grids[idx[0]])):
            results[i] = res
    resolved = {f"n_steps_lam_{lam:g}": g.n_steps for lam, g in zip(cfg.lambdas, grids)}
    return resolved, results


def cmd_hedge(cfg: ExperimentConfig, out: str | None, quiet: bool) -> int:
    """Per-path tracking-hedge diagnostics over the impact list."""
    p = cfg.precision
    resolved, batches = _per_impact(cfg, lambda lams, grid: hedging.run_hedge_batch(
        cfg.a_risk, lams, cfg.model, cfg.payoff, cfg.phi0, grid,
        cfg.n_paths, cfg.seed, workers=cfg.workers,
    ))
    rows = []
    for lam, batch in zip(cfg.lambdas, batches):
        for i in range(cfg.n_paths):
            rows.append(
                ",".join(
                    [
                        _fmt(lam, p),
                        str(i),
                        _fmt(batch.terminal_wealth[i], p),
                        _fmt(batch.payoff_value[i], p),
                        _fmt(batch.utility_exponent[i], p),
                        _fmt(batch.cost_integral[i], p),
                        _fmt(batch.sup_position_norm[i], p),
                    ]
                )
            )
    lines = _header(cfg, resolved)
    lines.append(
        "lam,path,terminal_wealth,payoff_value,utility_exponent,cost_integral,sup_position_norm"
    )
    lines.extend(rows)
    _emit(lines, cfg, out)
    return EXIT_OK


def cmd_converge(cfg: ExperimentConfig, out: str | None, quiet: bool) -> int:
    """Certainty equivalent across the impact list against the limit value."""
    limit = pricing.limit_value(cfg.a_risk, cfg.model, cfg.payoff, cfg.phi0)
    resolved, estimates = _per_impact(cfg, lambda lams, grid: asymptotics.certainty_equivalent_mc(
        cfg.a_risk, lams, cfg.model, cfg.payoff, cfg.phi0,
        cfg.n_paths, grid, cfg.seed, workers=cfg.workers,
    ))
    rows = []
    p = cfg.precision
    for lam, est in zip(cfg.lambdas, estimates):
        slack = hedging.drift_slack(cfg.a_risk, lam, cfg.model, cfg.payoff, cfg.phi0)
        rows.append(
            ",".join(
                [
                    _fmt(lam, p),
                    _fmt(est.value, p),
                    _fmt(est.std_error, p),
                    _fmt(limit, p),
                    _fmt(slack, p),
                ]
            )
        )
        if not quiet:
            print(
                f"lam={lam:g}: ce={est.value:.6f} se={est.std_error:.2g} limit={limit:.6f}",
                file=sys.stderr,
            )
    lines = _header(cfg, resolved)
    lines.append("lam,ce_value,ce_se,limit,slack_bound")
    lines.extend(rows)
    _emit(lines, cfg, out)
    return EXIT_OK


def _random_bounded_specs(cfg: ExperimentConfig, count: int) -> list[asymptotics.DualSpec]:
    d = cfg.model.d
    rng = market.substreams(cfg.seed)(0x5EED)
    specs = []
    for i in range(count):
        amp = rng.uniform(0.1, 2.0, size=d)
        freq = rng.uniform(0.2, 2.0, size=d)
        phase = rng.uniform(-1.0, 1.0, size=d)
        specs.append(
            asymptotics.DualSpec(
                h=_TanhSelector(amp, freq, phase),
                bounded=True,
                bound=float(np.linalg.norm(amp)),
                name=f"random_{i}",
            )
        )
    return specs


class _TanhSelector:
    """Bounded smooth selector amp * tanh(freq * w + phase), picklable."""

    def __init__(self, amp, freq, phase):
        self.amp, self.freq, self.phase = amp, freq, phase

    def __call__(self, w):
        return self.amp[None, :] * np.tanh(self.freq[None, :] * w + self.phase[None, :])


class _ZeroSelector:
    def __call__(self, w):
        return np.zeros_like(w)


def cmd_dual(cfg: ExperimentConfig, out: str | None, quiet: bool) -> int:
    """Dual lower bounds: zero, optimal, and random bounded selectors."""
    rule = _resolve_rule(cfg)
    specs = [
        asymptotics.DualSpec(h=_ZeroSelector(), bounded=True, bound=0.0, name="zero"),
        asymptotics.optimal_dual_Y(cfg.a_risk, cfg.model, cfg.payoff, cfg.phi0),
    ]
    specs.extend(_random_bounded_specs(cfg, cfg.dual_n_random_specs))
    lines = _header(cfg)
    lines.append("spec_name,lower_bound,se_or_tol")
    p = cfg.precision
    for spec in specs:
        value, err = asymptotics.dual_lower_bound(
            cfg.a_risk, cfg.model, cfg.payoff, cfg.phi0, spec, rule, seed=cfg.seed
        )
        lines.append(f"{spec.name},{_fmt(value, p)},{_fmt(err, p)}")
    _emit(lines, cfg, out)
    return EXIT_OK


def _check_items(cfg: ExperimentConfig):
    """Small-budget invariant battery; yields (name, passed, detail)."""
    import warnings

    from .linalg import apply_scalar_function, inverse

    model, payoff, a_risk = cfg.model, cfg.payoff, cfg.a_risk
    sigma = model.sigma
    rule = _resolve_rule(cfg)
    rng = market.substreams(cfg.seed)(0xC0DE)

    cosh_m = apply_scalar_function(sigma, np.cosh)
    sinh_m = apply_scalar_function(sigma, np.sinh)
    gap = np.abs(cosh_m @ cosh_m - sinh_m @ sinh_m - np.eye(model.d)).max()
    yield "hyperbolic_identity", gap < 1e-9, f"max|cosh^2-sinh^2-I|={gap:.2e}"

    inv_gap = np.abs(inverse(sigma).entries @ sigma.entries - np.eye(model.d)).max()
    yield "inverse_identity", inv_gap < 1e-10, f"max|inv*M-I|={inv_gap:.2e}"

    xs = model.s0[None, :] + rng.normal(0.0, 2.0, size=(32, model.d))
    g_vals = market.sup_convolve(payoff, a_risk, sigma, xs)
    f_vals = np.asarray(payoff.evaluate(xs), dtype=float)
    dominated = bool(np.all(g_vals >= f_vals - 1e-12))
    yield "inflation_dominates_payoff", dominated, "g >= f on random points"

    g_hi = market.sup_convolve(payoff, 2.0 * a_risk, sigma, xs)
    monotone = bool(np.all(g_hi >= g_vals - 1e-12))
    yield "inflation_monotone", monotone, "g increasing in the inflation parameter"

    w_sum = abs(float(rule.weights.sum()) - 1.0) if rule is not None else 0.0
    yield "rule_weights_normalised", w_sum < 1e-12, f"|sum w - 1|={w_sum:.1e}"

    t_mid = 0.5 * model.T
    try:
        res = pricing.pde_residual(a_risk, model, payoff, t_mid, model.s0)
        yield "pde_residual", abs(res) < 1e-3, f"|residual|={abs(res):.2e}"
    except BachImpactError as exc:
        yield "pde_residual", False, f"raised {type(exc).__name__}"

    lam0 = cfg.lambdas[0]
    ident = asymptotics.kernel_time_integral(a_risk, lam0, sigma, model.T, 0.0)
    ident_gap = np.abs(
        (math.sqrt(a_risk) / lam0) * ident - inverse(sigma).entries
    ).max()
    yield "kernel_identity", ident_gap < 1e-8, f"max gap={ident_gap:.2e}"

    lim = asymptotics.kernel_limit_integral(a_risk, 0.05, sigma, model.T, 0.0, "K")
    target = inverse(sigma).entries / (4.0 * math.sqrt(a_risk))
    lim_gap = np.abs(lim - target).max()
    yield "kernel_limit", lim_gap < 1e-6, f"max gap={lim_gap:.2e}"

    grid = market.TimeGrid(n_steps=64, T=model.T)
    theta = rng.normal(size=(64, model.d))
    frozen = hedging.hedge_paths(a_risk, lam0, model, payoff, cfg.phi0, grid, 1, cfg.seed, theta)
    oracle = hedging.duhamel_solution(a_risk, lam0, model, theta, cfg.phi0, grid)
    ode_gap = np.abs(frozen.positions[0] - oracle).max()
    yield "ode_duhamel_agreement", ode_gap < 1e-10, f"max gap={ode_gap:.2e}"

    knots = (frozen.prices[0], frozen.positions[0], frozen.rates[0], lam0, grid.dt)
    w_gap = abs(hedging.wealth(*knots) - hedging.wealth_by_parts(*knots))
    yield "wealth_equivalence", w_gap < 0.5, f"|gap|={w_gap:.2e} at n=64"

    # one hedge pass feeds the certificate and the certainty equivalent
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grid_mc = market.TimeGrid(n_steps=256, T=model.T)
        batch = hedging.run_hedge_batch(
            a_risk, lam0, model, payoff, cfg.phi0, grid_mc, 2000, cfg.seed
        )
        mean_ratio, se = hedging._certificate_ratio(a_risk, lam0, model, payoff, cfg.phi0, batch)
    yield (
        "supermartingale",
        mean_ratio <= 1.0 + 3.0 * se,
        f"mean ratio={mean_ratio:.4f} se={se:.4f}",
    )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = asymptotics._ce_estimate(a_risk, lam0, batch)
    del batch
    limit = pricing.limit_value(a_risk, model, payoff, cfg.phi0)
    slack = hedging.drift_slack(a_risk, lam0, model, payoff, cfg.phi0)
    upper_ok = est.value <= limit + slack + 3.0 * est.std_error + 0.02
    spec = asymptotics.optimal_dual_Y(a_risk, model, payoff, cfg.phi0)
    dual_val, dual_tol = asymptotics.dual_lower_bound(
        a_risk, model, payoff, cfg.phi0, spec, rule, seed=cfg.seed
    )
    lower_ok = dual_val <= limit + max(1e-5, 3.0 * dual_tol)
    yield (
        "sandwich",
        bool(upper_ok and lower_ok),
        f"ce={est.value:.4f} limit={limit:.4f} dual={dual_val:.4f}",
    )

    if min(cfg.lambdas) < asymptotics.LAM_DESK_FLOOR:
        print(
            f"warning: impact values below the desk floor {asymptotics.LAM_DESK_FLOOR}",
            file=sys.stderr,
        )


def cmd_check(cfg: ExperimentConfig, out: str | None, quiet: bool) -> int:
    """Run the invariant battery; exit 1 if any item fails."""
    all_ok = True
    for name, ok, detail in _check_items(cfg):
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        all_ok = all_ok and ok
    return EXIT_OK if all_ok else EXIT_VALIDATION


_COMMANDS = {
    "price": cmd_price,
    "figure": cmd_figure,
    "hedge": cmd_hedge,
    "converge": cmd_converge,
    "dual": cmd_dual,
    "check": cmd_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bachimpact",
        description="Indifference pricing and tracking hedges under linear price impact",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        cmd = sub.add_parser(name, help=fn.__doc__)
        cmd.add_argument("--config", required=True, help="experiment config path")
        cmd.add_argument("--out", default=None, help="CSV output path (default: config/stdout)")
        cmd.add_argument("--seed", type=int, default=None, help="override numerics.seed")
        cmd.add_argument("--paths", type=int, default=None, help="override numerics.n_paths")
        cmd.add_argument("--workers", type=int, default=None, help="override numerics.workers")
        cmd.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        flags = {"numerics.seed": args.seed, "numerics.n_paths": args.paths,
                 "numerics.workers": args.workers}
        cfg = load_config(args.config, {k: v for k, v in flags.items() if v is not None})
        return _COMMANDS[args.command](cfg, args.out, args.quiet)
    except (NonFiniteResultError, OverflowGuardError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BachImpactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
