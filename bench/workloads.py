"""The three seeded workloads: input generation, one round of ops, and the
reference gate each op must pass.

A workload object is built from the seed alone (``random.Random(seed)``, so
inputs do not depend on the numpy version), writes its generated configs,
loads them once in :meth:`setup`, then runs rounds.  Each round is a closed
loop with one client: an op is issued only after the previous one returned.

An op is one user-visible result: a CE row, a price+delta pair, a dual bound
or a CLI invocation.  It fails if it raises, exits non-zero, prints
``[FAIL]``, returns a non-finite number or misses its reference.  Inputs are
never changed to make an op pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
from dataclasses import dataclass, field
from time import perf_counter

import reference as ref

CONVERGE_LAMS = (0.4, 0.2, 0.1, 0.05, 0.02)


@dataclass
class Op:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Round:
    """What one round did; ``latencies_s`` holds the workload's repeated op."""

    ops: list[Op] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    path_steps: float = 0.0  # path-steps of the ops hedge throughput is taken on
    hedge_s: float = 0.0  # their wall time
    estimates: dict = field(default_factory=dict)  # lam -> [(ce, se, n_paths, op seconds)]
    wall_s: float = 0.0

    def gate(self, name: str, checks: list[tuple[bool, str]]) -> None:
        missed = [msg for ok, msg in checks if not ok]
        self.ops.append(Op(name, not missed, "; ".join(missed)))

    def guard(self, name: str, step, *args) -> None:
        """Run one op's step; an exception is that op's failure, not the run's."""
        try:
            step(*args)
        except Exception as exc:
            self.gate(name, [(False, f"raised {type(exc).__name__}: {exc}")])


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def cfg_text(values: dict) -> str:
    """Flat ``section.key = value`` text; lists are whitespace separated."""
    lines = []
    for key, value in values.items():
        if isinstance(value, (list, tuple)):
            value = " ".join(repr(float(v)) for v in value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def parse_cfg(text: str) -> dict:
    """Independent reader of the flat format, for the reference side."""
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def text_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def read_csv(path: str) -> tuple[dict, list[str], list[list[str]]]:
    meta, rows, header = {}, [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
            elif not header:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return meta, header, rows


def finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def close(x: float, want: float, tol: float) -> bool:
    return math.isfinite(x) and abs(x - want) <= tol


def run_cli(pkg, argv: list[str]):
    """One ``cli.main`` call; returns (exit code or None, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = pkg.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an op that raises is a failed op, not a crash
        rc = None
        err.write(f"raised {type(exc).__name__}: {exc}")
    return rc, perf_counter() - t0, out.getvalue(), err.getvalue()


def _exit_check(rc, err: str) -> tuple[bool, str]:
    return rc == 0, f"exit {rc}: {err.strip()[:160]}"


class _ZeroSelector:
    def __call__(self, w):
        return w * 0.0


def _shifted(a_risk, s0, phi0, sigma) -> list[float]:
    """s0 - sqrt(A) phi0 sigma, the inventory-shifted spot."""
    d = len(s0)
    return [
        s0[j] - math.sqrt(a_risk) * sum(phi0[i] * sigma[i][j] for i in range(d))
        for j in range(d)
    ]


def _rows(flat: list[float], d: int) -> list[list[float]]:
    return [flat[i * d:(i + 1) * d] for i in range(len(flat) // d)]


class Workload:
    name = ""

    def __init__(self, seed: int, root: str, workdir: str) -> None:
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.configs: dict[str, str] = {}  # generated file name -> text

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write_inputs(self) -> None:
        for name, text in self.configs.items():
            with open(self.path(name), "w", encoding="utf-8") as fh:
                fh.write(text)

    def input_hashes(self) -> dict[str, str]:
        return {name: text_hash(text) for name, text in self.configs.items()}

    def setup(self, pkg) -> None:
        raise NotImplementedError

    def run_round(self, pkg, tracer) -> Round:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# converge_basket
# ---------------------------------------------------------------------------


class ConvergeBasket(Workload):
    """``converge`` on a d=1 at-the-money basket call, 5 impacts, 32768
    paths (two 16384-path chunks); a round is one call."""

    name = "converge_basket"
    n_paths = 32768

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        rng = random.Random(seed)
        self.s0 = rng.uniform(6.0, 10.0)
        # sqrt(A) sigma T <= 1 keeps every impact, 0.02 included, on the
        # 1000-step floor of the auto rule
        self.sigma = rng.uniform(0.8, 0.98)
        self.a_risk = 1.0
        self.configs["converge_basket.cfg"] = cfg_text({
            "model.d": 1,
            "model.s0": [self.s0],
            "model.mu": [0.0],
            "model.sigma": [self.sigma],
            "model.T": 1.0,
            "payoff.kind": "basket_call",
            "payoff.a": [1.0],
            "payoff.b": -self.s0,
            "impact.a_risk": self.a_risk,
            "impact.lambdas": list(CONVERGE_LAMS),
            "hedge.phi0": [0.0],
            "numerics.n_paths": self.n_paths,
            "numerics.n_steps": "auto",
            "numerics.seed": rng.randrange(1, 2**32),
            "numerics.workers": 1,
        })
        self.limit = ref.basket_call(
            self.a_risk, [1.0], -self.s0, [[self.sigma]], 1.0, 0.0, [self.s0]
        )[0]

    def setup(self, pkg):
        cfg = pkg.config.load_config(self.path("converge_basket.cfg"))
        pkg.pricing.default_quadrature(cfg.model.d)

    def run_round(self, pkg, tracer):
        r = Round()
        out = self.path("converge.csv")
        with tracer.span("bench.op.converge"):
            rc, dt, _, err = run_cli(pkg, [
                "converge", "--config", self.path("converge_basket.cfg"), "--out", out, "--quiet",
            ])
        r.latencies_s.append(dt)
        rows, meta = {}, {}
        if rc == 0:
            try:
                meta, _, body = read_csv(out)
                rows = {float(row[0]): [float(v) for v in row[1:5]] for row in body}
                r.hedge_s = dt
            except (OSError, ValueError, IndexError) as exc:
                err = f"unreadable output: {type(exc).__name__}: {exc}"
                rc = None
        for lam in CONVERGE_LAMS:
            name = f"converge.lam_{lam:g}"
            if rc != 0 or lam not in rows:
                r.gate(name, [_exit_check(rc, err), (False, "row missing")])
                continue
            ce, se, limit, slack = rows[lam]
            # mu = 0, so the drift slack of the upper bound is exactly 0
            r.gate(name, [
                (finite(ce, se, limit, slack), "non-finite output"),
                (close(limit, self.limit, 1e-7 * max(1.0, abs(self.limit))),
                 f"limit {limit} != reference {self.limit}"),
                (slack == 0.0, f"slack {slack} != 0 at mu = 0"),
                (ce <= self.limit + 3.0 * se, f"ce {ce} > limit {self.limit} + 3 se {se}"),
            ])
            steps = int(meta.get(f"n_steps_lam_{lam:g}", "0"))
            r.path_steps += self.n_paths * steps
            r.estimates.setdefault(lam, []).append((ce, se, self.n_paths, dt))
        return r


# ---------------------------------------------------------------------------
# generic_ridge
# ---------------------------------------------------------------------------


class GenericRidge(Workload):
    """Library calls on ``GenericLipschitz`` ridge payoffs (quadrature path)."""

    name = "generic_ridge"
    n_points = 48
    ce_lam, ce_paths, ce_steps = 0.2, 4, 32
    price_tol, delta_tol = 1e-5, 2e-3
    ce_tol, dual_tol, price2_tol = 1e-3, 1e-4, 2e-4

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        rng = random.Random(seed)
        self.a_risk = rng.uniform(0.5, 2.0)
        self.vol = rng.uniform(0.7, 1.3)
        self.a = rng.uniform(0.5, 1.5)
        strike = rng.uniform(6.0, 10.0)
        self.b = -self.a * strike
        self.s0 = strike + rng.uniform(-1.0, 1.0)
        self.points = [(rng.uniform(0.0, 0.8), strike + rng.gauss(0.0, 1.5)) for _ in range(self.n_points)]
        self.mc_seed = rng.randrange(1, 2**32)
        self.basket_point = (rng.uniform(0.0, 0.8), self.s0 + rng.gauss(0.0, 1.0))
        one_d = {
            "model.d": 1,
            "model.s0": [self.s0],
            "model.mu": [0.0],
            "model.sigma": [self.vol],
            "model.T": 1.0,
            "payoff.kind": "generic",
            "payoff.a": [self.a],
            "payoff.b": self.b,
            "impact.a_risk": self.a_risk,
            "impact.lambdas": [self.ce_lam],
            "hedge.phi0": [0.0],
            "numerics.seed": self.mc_seed,
        }
        self.configs["straddle_d1.cfg"] = cfg_text({**one_d, "payoff.name": "straddle"})
        self.configs["basket_d1.cfg"] = cfg_text({**one_d, "payoff.name": "basket_call"})
        s2 = [rng.uniform(6.0, 10.0) for _ in range(2)]
        a2 = [rng.uniform(0.3, 0.7) for _ in range(2)]
        v1, v2 = rng.uniform(0.7, 1.2), rng.uniform(0.7, 1.2)
        c = rng.uniform(-0.5, 0.5) * math.sqrt(v1 * v2)
        self.sigma2 = [[v1, c], [c, v2]]
        self.b2 = -(a2[0] * s2[0] + a2[1] * s2[1]) + rng.uniform(-0.5, 0.5)
        self.a2, self.s2 = a2, s2
        self.configs["basket_d2.cfg"] = cfg_text({
            "model.d": 2,
            "model.s0": s2,
            "model.mu": [0.0, 0.0],
            "model.sigma": [v1, c, c, v2],
            "model.T": 1.0,
            "payoff.kind": "generic",
            "payoff.name": "basket_call",
            "payoff.a": a2,
            "payoff.b": self.b2,
            "impact.a_risk": self.a_risk,
            "hedge.phi0": [0.0, 0.0],
            "numerics.seed": self.mc_seed,
        })

    def setup(self, pkg):
        self.straddle = pkg.config.load_config(self.path("straddle_d1.cfg"))
        self.basket = pkg.config.load_config(self.path("basket_d1.cfg"))
        self.basket2 = pkg.config.load_config(self.path("basket_d2.cfg"))
        self.closed = pkg.market.BasketCall(a=[self.a], b=self.b)
        pkg.pricing.default_quadrature(1)
        pkg.pricing.default_quadrature(2)

    def run_round(self, pkg, tracer):
        """Pairs in four groups spread over the round, so their latency
        percentiles sample the whole round rather than one stretch of it."""
        r = Round()
        steps = (
            ("basket_wrapper.ce", self._ce),
            ("basket_d2.price", self._price_d2),
            ("basket_wrapper.price_delta+straddle.dual", self._wrapper_and_dual),
            None,
        )
        for group, step in enumerate(steps):
            for i in range(group, self.n_points, len(steps)):
                r.guard(f"straddle.price_delta.{i}", self._pair, pkg, tracer, r, i)
            if step is not None:
                r.guard(step[0], step[1], pkg, tracer, r)
        return r

    def _pair(self, pkg, tracer, r, i):
        t, x = self.points[i]
        model, strad = self.straddle.model, self.straddle.payoff
        with tracer.span("bench.op.price_delta"):
            t0 = perf_counter()
            price = pkg.pricing.price_u(self.a_risk, model, strad, t, [x])
            delta = float(pkg.pricing.delta_u(self.a_risk, model, strad, t, [x])[0])
            r.latencies_s.append(perf_counter() - t0)
        want_p, want_d = ref.straddle(self.a_risk, [self.a], self.b, [[self.vol]], 1.0, t, [x])
        r.gate(f"straddle.price_delta.{i}", [
            (close(price, want_p, self.price_tol), f"price {price} vs {want_p}"),
            (close(delta, want_d[0], self.delta_tol * self.a), f"delta {delta} vs {want_d[0]}"),
        ])

    def _ce(self, pkg, tracer, r):
        asym, A = pkg.asymptotics, self.a_risk
        grid = pkg.market.TimeGrid(n_steps=self.ce_steps, T=1.0)
        with tracer.span("bench.op.ce"):
            t0 = perf_counter()
            est = asym.certainty_equivalent_mc(
                A, self.ce_lam, self.basket.model, self.basket.payoff, [0.0],
                self.ce_paths, grid, self.mc_seed,
            )
            r.hedge_s = perf_counter() - t0
            paired = asym.certainty_equivalent_mc(
                A, self.ce_lam, self.basket.model, self.closed, [0.0],
                self.ce_paths, grid, self.mc_seed,
            )
        r.path_steps = self.ce_paths * self.ce_steps
        r.gate("basket_wrapper.ce", [
            (finite(est.value, est.std_error), "non-finite CE"),
            (close(est.value, paired.value, self.ce_tol), f"wrapper CE {est.value} vs BasketCall {paired.value}"),
        ])

    def _price_d2(self, pkg, tracer, r):
        with tracer.span("bench.op.price_d2"):
            p2 = pkg.pricing.price_u(self.a_risk, self.basket2.model, self.basket2.payoff, 0.0, self.s2)
        want2 = ref.basket_call(self.a_risk, self.a2, self.b2, self.sigma2, 1.0, 0.0, self.s2)[0]
        r.gate("basket_d2.price", [(close(p2, want2, self.price2_tol), f"price {p2} vs {want2}")])

    def _wrapper_and_dual(self, pkg, tracer, r):
        pricing, asym = pkg.pricing, pkg.asymptotics
        A, sig = self.a_risk, [[self.vol]]
        t, x = self.basket_point
        model = self.basket.model
        with tracer.span("bench.op.basket_wrapper"):
            gen_p = pricing.price_u(A, model, self.basket.payoff, t, [x])
            gen_d = float(pricing.delta_u(A, model, self.basket.payoff, t, [x])[0])
            cf_p = pricing.price_u(A, model, self.closed, t, [x])
            cf_d = float(pricing.delta_u(A, model, self.closed, t, [x])[0])
        want_p, want_d = ref.basket_call(A, [self.a], self.b, sig, 1.0, t, [x])
        r.gate("basket_wrapper.price_delta", [
            (close(cf_p, want_p, 1e-9 * max(1.0, want_p)), f"BasketCall price {cf_p} vs {want_p}"),
            (close(cf_d, want_d[0], 1e-9), f"BasketCall delta {cf_d} vs {want_d[0]}"),
            (close(gen_p, cf_p, self.price_tol), f"wrapper price {gen_p} vs {cf_p}"),
            (close(gen_d, cf_d, self.delta_tol * self.a), f"wrapper delta {gen_d} vs {cf_d}"),
        ])

        model, strad = self.straddle.model, self.straddle.payoff
        limit = ref.straddle(A, [self.a], self.b, sig, 1.0, 0.0, [self.s0])[0]
        with tracer.span("bench.op.dual"):
            spec = asym.optimal_dual_Y(A, model, strad, [0.0])
            v_opt, tol_opt = asym.dual_lower_bound(A, model, strad, [0.0], spec)
            zero = asym.DualSpec(h=_ZeroSelector(), bounded=True, bound=0.0, name="zero")
            v_zero, tol_zero = asym.dual_lower_bound(A, model, strad, [0.0], zero)
        r.gate("straddle.dual.optimal", [
            (v_opt <= limit + max(1e-5, 3.0 * tol_opt), f"bound {v_opt} > limit {limit}"),
            (close(v_opt, limit, self.dual_tol), f"optimal bound {v_opt} misses limit {limit}"),
        ])
        r.gate("straddle.dual.zero", [
            (finite(v_zero) and v_zero <= limit + max(1e-5, 3.0 * tol_zero), f"bound {v_zero} > limit {limit}"),
        ])


# ---------------------------------------------------------------------------
# desk_battery
# ---------------------------------------------------------------------------

# shipped d=1 configs, one per subcommand as the README runs them
DESK_D1 = {
    "figure": "figure1.cfg",
    "price": "figure1.cfg",
    "dual": "dual_atm.cfg",
    "hedge": "hedge_atm.cfg",
    "check": "check_default.cfg",
}
DESK_COMMANDS = ("figure", "price", "dual", "hedge", "check")


# The d=3 basket's market, payoff shape and Monte Carlo seed are fixed: at
# the commit that defined this benchmark, d=3 baskets drawn from the seed fail
# `check` or the dual gate on a large share of seeds, through program defects
# listed in DESIGN.md, and the benchmark must run workloads on which no op
# fails.  The seed moves the spot levels (the strike moves with them, so
# moneyness stays fixed), the pricing time and the pricing points.
D3_WEIGHTS = (0.5, 0.3, 0.2)
D3_VOLS = (1.0, 0.9, 0.8)
D3_RHO = ((1.0, 0.3, 0.2), (0.3, 1.0, 0.1), (0.2, 0.1, 1.0))
D3_MC_SEED = 20260810  # the shipped configs' seed
D3_SIGMA = [[D3_RHO[i][j] * math.sqrt(D3_VOLS[i] * D3_VOLS[j]) for j in range(3)] for i in range(3)]


class DeskBattery(Workload):
    """Rounds of small CLI invocations on d=1 and d=3 basket configs."""

    name = "desk_battery"
    default_a_grid = "0.1 0.25 0.5 1.0 2.0 4.0"

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        rng = random.Random(seed)
        s0 = [rng.uniform(6.0, 10.0) for _ in range(3)]
        t = rng.uniform(0.0, 0.5)
        xs = [s + rng.gauss(0.0, 1.0) for _ in range(4) for s in s0]
        self.configs["basket_d3.cfg"] = cfg_text({
            "model.d": 3,
            "model.s0": s0,
            "model.mu": [0.0, 0.0, 0.0],
            "model.sigma": [v for row in D3_SIGMA for v in row],
            "model.T": 1.0,
            "payoff.kind": "basket_call",
            "payoff.a": list(D3_WEIGHTS),
            "payoff.b": -sum(w * s for w, s in zip(D3_WEIGHTS, s0)),
            "impact.a_risk": 1.0,
            "impact.lambdas": [0.4, 0.2, 0.1],
            "hedge.phi0": [0.0, 0.0, 0.0],
            "price.t": t,
            "price.x": xs,
            "numerics.n_paths": 200,
            "numerics.n_steps": "auto",
            "numerics.seed": D3_MC_SEED,
        })
        self.shipped: dict[str, str] = {}
        for name in sorted(set(DESK_D1.values())):
            with open(os.path.join(root, "configs", name), encoding="utf-8") as fh:
                self.shipped[name] = fh.read()

    def input_hashes(self):
        hashes = super().input_hashes()
        hashes.update({f"configs/{k}": text_hash(v) for k, v in self.shipped.items()})
        return hashes

    def _invocations(self):
        for cmd in DESK_COMMANDS:
            name = DESK_D1[cmd]
            yield cmd, "d1", os.path.join(self.root, "configs", name), self.shipped[name]
        for cmd in DESK_COMMANDS:
            yield cmd, "d3", self.path("basket_d3.cfg"), self.configs["basket_d3.cfg"]

    def setup(self, pkg):
        self.params = {}
        for _, tag, path, text in self._invocations():
            if path not in self.params:
                cfg = pkg.config.load_config(path)
                pkg.pricing.default_quadrature(cfg.model.d)
                self.params[path] = parse_cfg(text)

    def run_round(self, pkg, tracer):
        r = Round()
        out = self.path("desk.csv")
        for cmd, tag, path, _ in self._invocations():
            with tracer.span(f"bench.op.{cmd}"):
                rc, dt, stdout, err = run_cli(pkg, [cmd, "--config", path, "--out", out, "--quiet"])
            r.latencies_s.append(dt)
            failed = " | ".join(ln for ln in stdout.splitlines() if ln.startswith("[FAIL]"))
            checks = [_exit_check(rc, f"{err.strip()} {failed}")]
            if rc == 0:
                try:
                    checks += getattr(self, f"_gate_{cmd}")(self.params[path], out, stdout, r, dt)
                except (OSError, ValueError, IndexError, KeyError) as exc:
                    checks.append((False, f"unreadable output: {type(exc).__name__}: {exc}"))
            r.gate(f"{cmd}.{tag}", checks)
        return r

    # -- reference gates, one per subcommand --------------------------------

    @staticmethod
    def _model(p):
        d = int(p.get("model.d", "1"))
        s0 = floats(p["model.s0"])
        sig = _rows(floats(p["model.sigma"]), d)
        a = floats(p["payoff.a"])
        b = float(p.get("payoff.b", "0"))
        phi0 = floats(p["hedge.phi0"]) if "hedge.phi0" in p else [0.0] * d
        return d, s0, sig, a, b, float(p["model.T"]), phi0

    def _gate_figure(self, p, out, stdout, r, dt):
        d, s0, sig, a, b, T, phi0 = self._model(p)
        grid = floats(p.get("figure.a_grid", self.default_a_grid))
        _, _, rows = read_csv(out)
        checks = [(len(rows) == len(grid), f"{len(rows)} rows for {len(grid)} grid values")]
        for (a_txt, v_txt), a_risk in zip(rows, grid):
            want = ref.basket_call(a_risk, a, b, sig, T, 0.0, _shifted(a_risk, s0, phi0, sig))[0]
            v = float(v_txt)
            checks.append((close(v, want, 1e-7 * max(1.0, abs(want))), f"A={a_txt}: {v} vs {want}"))
        return checks

    def _gate_price(self, p, out, stdout, r, dt):
        d, s0, sig, a, b, T, phi0 = self._model(p)
        grid = floats(p.get("price.a_grid", "1.0"))
        points = _rows(floats(p["price.x"]), d) if "price.x" in p else [s0]
        t = float(p.get("price.t", "0"))
        _, _, rows = read_csv(out)
        checks = [(len(rows) == len(grid) * len(points), f"{len(rows)} rows")]
        expected = [(a_risk, x) for a_risk in grid for x in points]
        for row, (a_risk, x) in zip(rows, expected):
            vals = [float(v) for v in row]
            u, delta, resid = vals[2 + d], vals[3 + d:3 + 2 * d], vals[-1]
            want_u, want_d = ref.basket_call(a_risk, a, b, sig, T, t, x)
            checks.append((close(u, want_u, 1e-7 * max(1.0, abs(want_u))), f"u {u} vs {want_u}"))
            checks.append((all(close(g, w, 1e-7) for g, w in zip(delta, want_d)), f"delta {delta} vs {want_d}"))
            checks.append((finite(resid) and abs(resid) <= 1e-3, f"pde residual {resid}"))
        return checks

    def _gate_dual(self, p, out, stdout, r, dt):
        d, s0, sig, a, b, T, phi0 = self._model(p)
        a_risk = float(p["impact.a_risk"])
        n_random = int(p.get("dual.n_random_specs", "20"))
        shifted = _shifted(a_risk, s0, phi0, sig)
        inventory = 0.5 * math.sqrt(a_risk) * sum(
            phi0[i] * sig[i][j] * phi0[j] for i in range(d) for j in range(d)
        )
        limit = ref.basket_call(a_risk, a, b, sig, T, 0.0, shifted)[0] + inventory
        _, _, rows = read_csv(out)
        checks = [(len(rows) == 2 + n_random, f"{len(rows)} dual rows")]
        for name, v_txt, tol_txt in rows:
            v, tol = float(v_txt), float(tol_txt)
            checks.append((finite(v, tol) and v <= limit + max(1e-5, 3.0 * tol), f"{name}: {v} > limit {limit}"))
            if name == "optimal":
                checks.append((close(v, limit, max(1e-4, 3.0 * tol)), f"optimal {v} misses limit {limit}"))
        return checks

    def _gate_hedge(self, p, out, stdout, r, dt):
        d, s0, sig, a, b, T, phi0 = self._model(p)
        a_risk = float(p["impact.a_risk"])
        n_paths = int(p["numerics.n_paths"])
        lams = floats(p["impact.lambdas"])
        meta, _, rows = read_csv(out)
        bound = max(math.sqrt(sum(v * v for v in phi0)), math.sqrt(sum(v * v for v in a))) + 1.0
        steps = [int(meta.get(f"n_steps_lam_{lam:g}", "0")) for lam in lams]
        r.path_steps += n_paths * sum(steps)
        r.hedge_s += dt
        checks = [(len(rows) == n_paths * len(lams), f"{len(rows)} hedge rows"),
                  (all(steps), "n_steps header missing")]
        bad = 0
        for row in rows:
            lam, _, wealth, f_t, expo, cost, sup_norm = (float(v) for v in row)
            ok = (
                finite(wealth, f_t, expo, cost, sup_norm)
                and f_t >= 0.0
                and cost >= 0.0
                and sup_norm <= bound
                and close(expo, (a_risk / lam) * (f_t - wealth), 1e-6 * max(1.0, abs(expo)))
            )
            bad += not ok
        checks.append((bad == 0, f"{bad} hedge rows fail finiteness/bound/exponent checks"))
        return checks

    def _gate_check(self, p, out, stdout, r, dt):
        lines = stdout.splitlines()
        failed = [ln for ln in lines if ln.startswith("[FAIL]")]
        return [
            (not failed, " | ".join(failed)[:200]),
            (any(ln.startswith("[PASS]") for ln in lines), "no [PASS] lines"),
        ]


WORKLOADS = {w.name: w for w in (ConvergeBasket, GenericRidge, DeskBattery)}
