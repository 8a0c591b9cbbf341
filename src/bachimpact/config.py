"""Flat key-value experiment configuration with dotted sections.

Format: one ``section.key = value`` per line, ``#`` comments, lists
whitespace-separated.  Unknown keys are rejected so typos fail loudly, and
seeds are mandatory so no run ever depends on wall-clock entropy.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .linalg import make_spd
from .market import BachelierModel, BasketCall, RidgePayoff

# value kinds: f float, i int, fl float list, s string, auto_i int-or-"auto"
_SCHEMA = {
    "model.d": "i",
    "model.s0": "fl",
    "model.mu": "fl",
    "model.sigma": "fl",
    "model.T": "f",
    "payoff.kind": "s",  # basket_call | generic
    "payoff.a": "fl",
    "payoff.b": "f",
    "payoff.name": "s",  # registry key for generic payoffs
    "impact.a_risk": "f",
    "impact.lambdas": "fl",
    "hedge.phi0": "fl",
    "figure.a_grid": "fl",
    "price.a_grid": "fl",
    "price.t": "f",
    "price.x": "fl",  # k*d values, row-major evaluation points
    "dual.n_random_specs": "i",
    "numerics.n_paths": "i",
    "numerics.n_steps": "auto_i",
    "numerics.quad_m": "auto_i",
    "numerics.seed": "i",
    "numerics.workers": "i",
    "output.csv": "s",
    "output.precision": "i",
}

_DEFAULTS = {
    "model.d": 1,
    "model.mu": None,  # resolved to zeros(d)
    "payoff.kind": "basket_call",
    "payoff.b": 0.0,
    "payoff.name": "zero",
    "impact.lambdas": [0.4, 0.2, 0.1, 0.05],
    "hedge.phi0": None,  # zeros(d)
    "figure.a_grid": [0.1, 0.25, 0.5, 1.0, 2.0, 4.0],
    "price.a_grid": [1.0],
    "price.t": 0.0,
    "price.x": None,  # s0
    "dual.n_random_specs": 20,
    "numerics.n_paths": 100_000,
    "numerics.n_steps": "auto",
    "numerics.quad_m": "auto",
    "numerics.workers": 1,
    "output.csv": "",
    "output.precision": 9,
}

_REQUIRED = ("model.s0", "model.sigma", "model.T", "impact.a_risk", "numerics.seed")


def _profile(name: str, slopes: tuple):
    """Registry builder of the ridge payoff h(<a, x> + b), h(y) = max_i(slopes_i y)."""
    return lambda a, b: RidgePayoff(a, b, slopes, (0.0,) * len(slopes), name=name)


# generic payoffs by name: ridge payoffs whose profile is data, priced
# exactly in any d (zero's one flat piece makes it 0 whatever a and b are)
GENERIC_PAYOFFS = {
    "zero": _profile("zero", (0.0,)),
    "straddle": _profile("straddle", (-1.0, 1.0)),
    "basket_call": BasketCall,
}


@dataclass
class ExperimentConfig:
    """Validated experiment inputs plus the raw key-value view."""

    model: BachelierModel
    payoff: RidgePayoff
    a_risk: float
    lambdas: list[float]
    phi0: np.ndarray
    figure_a_grid: list[float]
    price_a_grid: list[float]
    price_t: float
    price_x: np.ndarray  # (k, d)
    dual_n_random_specs: int
    n_paths: int
    n_steps: object  # int or "auto"
    quad_m: object  # int or "auto"
    seed: int
    workers: int
    csv_path: str
    precision: int
    raw: dict = field(repr=False, default_factory=dict)


def _parse_scalar(key: str, kind: str, text: str):
    try:
        if kind in ("f", "fl"):
            vals = [float(tok) for tok in text.replace(",", " ").split()]
            if not all(math.isfinite(v) for v in vals):
                raise ConfigError(f"key {key}: {text!r} is not finite")
            return vals if kind == "fl" else float(text)
        if kind == "i":
            return int(text)
        if kind == "auto_i":
            return "auto" if text.strip() == "auto" else int(text)
        return text.strip()
    except ValueError as exc:
        raise ConfigError(f"key {key}: cannot parse {text!r} as {kind}") from exc


def parse_config_text(text: str) -> dict:
    """Parse the flat format into a typed key-value dict."""
    values: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_scalar(key, _SCHEMA[key], val.strip())
    return values


def _build_payoff(values: dict, d: int) -> RidgePayoff:
    kind = values["payoff.kind"]
    if kind == "basket_call":
        a = values.get("payoff.a")
        if a is None:
            raise ConfigError("payoff.kind=basket_call requires payoff.a")
        if len(a) != d:
            raise ConfigError(f"payoff.a must have {d} entries")
        return BasketCall(a=np.array(a), b=values["payoff.b"])
    if kind == "generic":
        name = values["payoff.name"]
        if name not in GENERIC_PAYOFFS:
            raise ConfigError(
                f"unknown generic payoff {name!r}; choose from {sorted(GENERIC_PAYOFFS)}"
            )
        a = values.get("payoff.a", [0.0] * d)
        if len(a) != d:
            raise ConfigError(f"payoff.a must have {d} entries")
        return GENERIC_PAYOFFS[name](np.array(a), values["payoff.b"])
    raise ConfigError(f"unknown payoff.kind {kind!r}")


def resolve_config(values: dict) -> ExperimentConfig:
    """Apply defaults, validate all module preconditions, build the objects."""
    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")
    merged = dict(_DEFAULTS)
    merged.update(values)

    d = merged["model.d"]
    s0 = merged["model.s0"]
    if len(s0) != d:
        raise ConfigError(f"model.s0 must have {d} entries, got {len(s0)}")
    mu = merged["model.mu"] if merged["model.mu"] is not None else [0.0] * d
    if len(mu) != d:
        raise ConfigError(f"model.mu must have {d} entries")
    sig = merged["model.sigma"]
    if len(sig) != d * d:
        raise ConfigError(f"model.sigma must have {d * d} entries (row-major)")
    sigma = make_spd(np.array(sig, dtype=float).reshape(d, d))
    model = BachelierModel(s0=np.array(s0), mu=np.array(mu), sigma=sigma, T=merged["model.T"])

    payoff = _build_payoff(merged, d)

    a_risk = merged["impact.a_risk"]
    if a_risk <= 0.0:
        raise ConfigError("impact.a_risk must be positive")
    lambdas = merged["impact.lambdas"]
    if not lambdas or any(l <= 0.0 for l in lambdas):
        raise ConfigError("impact.lambdas must be a non-empty list of positive values")

    phi0 = merged["hedge.phi0"] if merged["hedge.phi0"] is not None else [0.0] * d
    if len(phi0) != d:
        raise ConfigError(f"hedge.phi0 must have {d} entries")

    price_x = merged["price.x"] if merged["price.x"] is not None else list(s0)
    if len(price_x) % d != 0:
        raise ConfigError("price.x length must be a multiple of model.d")
    price_x_arr = np.array(price_x, dtype=float).reshape(-1, d)
    price_t = merged["price.t"]
    if not 0.0 <= price_t <= model.T:
        raise ConfigError("price.t must lie in [0, T]")

    for grid_key in ("figure.a_grid", "price.a_grid"):
        if any(a <= 0.0 for a in merged[grid_key]):
            raise ConfigError(f"{grid_key} entries must be positive")

    n_paths = merged["numerics.n_paths"]
    if n_paths < 1:
        raise ConfigError("numerics.n_paths must be >= 1")
    n_steps = merged["numerics.n_steps"]
    if n_steps != "auto" and n_steps < 1:
        raise ConfigError("numerics.n_steps must be 'auto' or >= 1")
    quad_m = merged["numerics.quad_m"]
    if quad_m != "auto" and quad_m < 3:  # a 2-node rule has no coarser companion
        raise ConfigError("numerics.quad_m must be 'auto' or >= 3")
    workers = merged["numerics.workers"]
    if workers < 1:
        raise ConfigError("numerics.workers must be >= 1")
    if not 0 <= merged["numerics.seed"] < 2**64:
        raise ConfigError("numerics.seed must lie in [0, 2^64)")
    if merged["dual.n_random_specs"] < 0:
        raise ConfigError("dual.n_random_specs must be >= 0")
    # a double carries at most 17 significant digits
    if not 1 <= merged["output.precision"] <= 17:
        raise ConfigError("output.precision must lie in [1, 17]")

    return ExperimentConfig(
        model=model,
        payoff=payoff,
        a_risk=a_risk,
        lambdas=list(lambdas),
        phi0=np.array(phi0, dtype=float),
        figure_a_grid=list(merged["figure.a_grid"]),
        price_a_grid=list(merged["price.a_grid"]),
        price_t=price_t,
        price_x=price_x_arr,
        dual_n_random_specs=merged["dual.n_random_specs"],
        n_paths=n_paths,
        n_steps=n_steps,
        quad_m=quad_m,
        seed=merged["numerics.seed"],
        workers=workers,
        csv_path=merged["output.csv"],
        precision=merged["output.precision"],
        raw=dict(values),
    )


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Load and validate a config file; ``overrides`` (key -> typed value)
    replace its keys first, so they pass the same checks."""
    with open(path, "r", encoding="utf-8") as fh:
        values = parse_config_text(fh.read())
    values.update(overrides or {})
    return resolve_config(values)


def _format_value(kind: str, value) -> str:
    if kind == "fl":
        return " ".join(repr(float(v)) for v in value)
    if kind == "f":
        return repr(float(value))
    return str(value)


def emit_config(values: dict) -> str:
    """Canonical text for a key-value dict; load(emit(load(x))) == load(x)."""
    lines = []
    for key in sorted(values):
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
        lines.append(f"{key} = {_format_value(_SCHEMA[key], values[key])}")
    return "\n".join(lines) + "\n"


def config_hash(values: dict) -> str:
    """Short content hash of the canonical emission, for CSV headers.

    Worker count is execution detail, not experiment identity, so it is
    excluded: the same experiment must produce byte-identical artifacts at
    any parallelism.
    """
    identity = {k: v for k, v in values.items() if k != "numerics.workers"}
    return hashlib.sha256(emit_config(identity).encode()).hexdigest()[:12]
