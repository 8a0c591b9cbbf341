"""Pricing of the inflated claim, its gradient and heat-equation residual,
the scaling-limit values, and the quadrature rules the dual integrates on.

The claim price is

    u(t, x) = E[ g(x + W_{T-t} sigma) ],

with g the inflated payoff from :mod:`bachimpact.market`.  Every payoff is a
ridge payoff, priced in closed form in any d: g is piecewise linear in
r = <a, x> + b, so u is g plus one out-of-the-money Bachelier option per
knot of g.  The basket call (``is_call``) keeps its own form of the same
value: for s the basket direction's vol and m the moneyness of the
inflated strike, the usual arithmetic-model pair

    u = s * (m * Phi(m) + phi(m)),        delta = a * Phi(m).

Price and delta take one point (d,) or a batch (m, d) of spots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.special import ndtr, roots_hermitenorm

from .errors import (
    BudgetExceededError,
    InvalidParameterError,
    InvalidTimeError,
    NonFiniteResultError,
)
from .linalg import quad_form, row_vec_mul
from .market import (
    BachelierModel,
    RidgePayoff,
    _as_points,
    _ridge_hull,
    inflated_strike,
    sup_convolve,
)

# largest tensor quadrature rule, in nodes
NODE_BUDGET = 1_000_000
# a pde_residual whose finite-difference rounding bound exceeds this is refused
PDE_ROUNDING = 1e-3


@dataclass(frozen=True)
class QuadratureRule:
    """Deterministic rule for expectations against N(0, I_d).

    Weights are positive and sum to one; the node set is symmetric under
    negation so odd moments vanish identically.  ``tag`` records how the rule
    was built so a coarser companion can be constructed for error estimates.
    """

    nodes: np.ndarray
    weights: np.ndarray
    tag: tuple

    @property
    def d(self) -> int:
        return self.nodes.shape[1]


def _tensorize(nodes_1d: np.ndarray, weights_1d: np.ndarray, d: int, tag: tuple) -> QuadratureRule:
    m = len(nodes_1d)
    if m**d > NODE_BUDGET:
        raise BudgetExceededError(f"{m}^{d} nodes exceed the {NODE_BUDGET} budget")
    grids = np.meshgrid(*([nodes_1d] * d), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*([weights_1d] * d), indexing="ij")
    weights = np.ones(m**d)
    for g in wgrids:
        weights = weights * g.ravel()
    weights = weights / weights.sum()
    return QuadratureRule(nodes=nodes, weights=weights, tag=tag)


def build_gauss_hermite(m: int, d: int) -> QuadratureRule:
    """Tensorised Gauss-Hermite rule normalised to the N(0, I_d) weight.

    Exact for polynomials of degree <= 2m-1 per axis.  Convergence on kinked
    integrands is slow (roughly m^{-3/2}); prefer :func:`build_normal_panel`
    when a payoff kink must be integrated tightly.
    """
    if m < 2 or d < 1:
        raise InvalidParameterError("need m >= 2 and d >= 1")
    nodes, weights = roots_hermitenorm(m)
    weights = weights / weights.sum()
    return _tensorize(nodes, weights, d, tag=("hermite", m, d))


def build_normal_panel(
    n_panels: int,
    order: int,
    d: int,
    radius: float = 12.0,
) -> QuadratureRule:
    """Composite Gauss-Legendre rule under the standard normal density.

    Panels of equal width tile [-radius, radius]; per panel a Legendre rule
    is weighted by the normal pdf and the whole rule renormalised (truncation
    mass at radius 12 is ~1e-32).  Robust to kinks anywhere on the axis: one
    panel absorbs the kink while all others see a smooth integrand.
    """
    if n_panels < 1 or order < 2:
        raise InvalidParameterError("need n_panels >= 1 and order >= 2")
    gl_x, gl_w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-radius, radius, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    z = (mid[:, None] + half * gl_x[None, :]).ravel()
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    w = (half * gl_w[None, :] * pdf.reshape(n_panels, order)).ravel()
    return _tensorize(z, w / w.sum(), d, tag=("panel", n_panels, order, radius, d))


def coarsen_rule(rule: QuadratureRule) -> QuadratureRule:
    """Companion rule at half resolution, for self-estimated tolerances.

    Built once per ``rule.tag`` and cached, with read-only arrays.
    """
    return _coarse_rule(rule.tag)


@lru_cache(maxsize=8)
def _coarse_rule(tag: tuple) -> QuadratureRule:
    if tag[0] == "hermite":
        _, m, d = tag
        rule = build_gauss_hermite(max(2, m // 2), d)
    else:
        _, n_panels, order, radius, d = tag
        rule = build_normal_panel(max(1, n_panels // 2), order, d, radius)
    rule.nodes.flags.writeable = False
    rule.weights.flags.writeable = False
    return rule


@lru_cache(maxsize=8)
def default_quadrature(d: int) -> Optional[QuadratureRule]:
    """Per-dimension default rules; None from d = 4, where the dual samples instead."""
    if d == 1:
        return build_normal_panel(800, 16, 1)
    if d == 2:
        return build_normal_panel(30, 6, 2)
    if d == 3:
        return build_gauss_hermite(16, 3)
    return None


def _basket_price(a_risk, model, payoff, t, x) -> np.ndarray:
    """Closed-form price of the inflated basket call at (m, d) spots."""
    intrinsic = x @ payoff.a + inflated_strike(payoff, a_risk, model.sigma)
    v = payoff.a @ model.sigma.entries
    scale = math.sqrt(max(model.T - t, 0.0) * float(v @ v))
    if scale == 0.0:
        return np.maximum(intrinsic, 0.0)
    m = intrinsic / scale
    return scale * (m * ndtr(m) + np.exp(-0.5 * m * m) / math.sqrt(2.0 * math.pi))


def _ridge_r(payoff, x) -> np.ndarray:
    # in d=1 the dot is one multiply; elementwise skips a one-element BLAS call per row
    return (x[:, 0] * payoff.a[0] if payoff.a.size == 1 else x @ payoff.a) + payoff.b


def _ridge_price(a_risk, model, payoff, t, x) -> np.ndarray:
    """Exact price of a ridge payoff at (m, d) spots, t < T.

    With r = <a, x> + b the claim integrates G(r + sZ), s = sqrt(T - t) |a sigma|.
    Summed by parts, the per-cell Gaussian integrals of G are G(r) plus, at
    each knot, the time value of the out-of-the-money Bachelier option struck
    there:

        u = G(r) + s sum_j (s_{j+1} - s_j) C(-|r - knots_j| / s),
        C(z) = z Phi(z) + phi(z),

    so every term is positive and nothing cancels in either tail.
    """
    slopes, levels, knots, a_sig = _ridge_hull(payoff, a_risk, model.sigma)
    r = _ridge_r(payoff, x)
    g = np.max(r[:, None] * slopes + levels, axis=1)
    s = math.sqrt(model.T - t) * math.hypot(*a_sig)  # no overflow in the squares
    if s == 0.0:  # a = 0: a constant claim
        return g
    z = -np.abs(r[:, None] - knots) / s
    otm = s * (z * ndtr(z) + np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi))
    return g + np.sum(np.diff(slopes) * otm, axis=1)


def price_u(a_risk: float, model: BachelierModel, payoff: RidgePayoff, t: float, x, rule=None):
    """Price of the inflated claim at time t and (shifted) spot x.

    Integrates the inflated payoff over the Gaussian increment to maturity
    in closed form (:func:`_ridge_price` for a ridge payoff); at t == T this
    reduces to the inflated payoff itself, exactly.  ``x`` is one point (d,),
    giving a float, or a batch (m, d), giving (m,).
    """
    # rule is unused: kept because bench/test_bench.py passes one positionally
    if a_risk <= 0.0:
        raise InvalidParameterError("a_risk must be positive")
    if t < 0.0 or t > model.T:
        raise InvalidTimeError(f"t={t} outside [0, {model.T}]")
    points, batch = _as_points(x)
    if t == model.T:
        vals = sup_convolve(payoff, a_risk, model.sigma, points)
    elif payoff.is_call:
        vals = _basket_price(a_risk, model, payoff, t, points)
    else:
        vals = _ridge_price(a_risk, model, payoff, t, points)
    return vals if batch else float(vals[0])


def _closed_form_delta_factory(a_risk, model, payoff):
    """Delta evaluator (t, (m, d) spots) -> (m, d), built once per payoff.

    Zeros for a claim with Lipschitz constant 0, a * Phi(m) for the basket
    call, for any other ridge payoff the derivative of :func:`_ridge_price`,
    a (s_1 + sum_j (s_{j+1} - s_j) Phi((r - knots_j) / s)).
    """
    if payoff.lipschitz_constant == 0.0:
        def zero_delta(t, x):
            return np.zeros_like(x)
        return zero_delta
    if payoff.is_call:
        a = payoff.a
        strike = inflated_strike(payoff, a_risk, model.sigma)
        v = a @ model.sigma.entries
        var = float(v @ v)

        def basket_delta(t, x):
            # in d=1 the dot is one multiply; elementwise gives its bits without BLAS
            xa = x[:, 0] * a[0] if a.size == 1 else x @ a
            m = (xa + strike) / math.sqrt((model.T - t) * var)
            return ndtr(m)[:, None] * a[None, :]

        return basket_delta
    slopes, _, knots, a_sig = _ridge_hull(payoff, a_risk, model.sigma)
    jumps, spread = np.diff(slopes), math.hypot(*a_sig)

    def ridge_delta(t, x):
        m = (_ridge_r(payoff, x)[:, None] - knots) / (math.sqrt(model.T - t) * spread)
        return (slopes[0] + np.sum(jumps * ndtr(m), axis=1))[:, None] * payoff.a[None, :]

    return ridge_delta


def delta_u(a_risk: float, model: BachelierModel, payoff: RidgePayoff, t: float, x, rule=None):
    """Spatial gradient of the claim price, exact for t < T.

    Zeros for a claim with Lipschitz constant 0, the closed form a * Phi(m)
    for the basket call, for any other ridge payoff the exact derivative of
    its price in any d.  ``x`` is one point (d,), giving (d,), or a batch (m, d),
    giving (m, d).
    """
    # rule is unused: kept because bench/test_bench.py passes one positionally
    if t >= model.T:
        raise InvalidTimeError("gradient undefined at maturity (payoff kinks)")
    points, batch = _as_points(x)
    grads = _closed_form_delta_factory(a_risk, model, payoff)(t, points)
    return grads if batch else grads[0]


def pde_residual(a_risk: float, model: BachelierModel, payoff: RidgePayoff, t: float, x) -> float:
    """Finite-difference estimate of du/dt + tr(sigma^2 D^2 u)/2.

    The claim price solves the backward heat equation in the volatility
    metric, so the residual should vanish to FD accuracy at interior points.
    A residual whose second differences can lose more than PDE_ROUNDING to
    rounding, 4 eps |u| / hx^2, says nothing and raises NonFiniteResultError.
    """
    fd_step_t = 1e-3
    if t > model.T - 10.0 * fd_step_t:
        raise InvalidTimeError("too close to maturity for the time difference")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    hx = 1e-3 * (1.0 + float(np.linalg.norm(x)))

    def u(tt, xx):
        return price_u(a_risk, model, payoff, tt, xx)

    if t - fd_step_t >= 0.0:
        du_dt = (u(t + fd_step_t, x) - u(t - fd_step_t, x)) / (2.0 * fd_step_t)
    else:
        du_dt = (
            -3.0 * u(t, x) + 4.0 * u(t + fd_step_t, x) - u(t + 2.0 * fd_step_t, x)
        ) / (2.0 * fd_step_t)

    d = model.d
    center = u(t, x)
    rounding = 4.0 * np.finfo(float).eps * abs(center) / (hx * hx)
    if not rounding <= PDE_ROUNDING:  # a nan price fails too
        raise NonFiniteResultError(
            f"pde residual rounding bound {rounding:.3g} exceeds {PDE_ROUNDING:g}: the claim"
            f" price ({center:.3g}) is too large against its step {hx:.3g} for double precision"
        )
    hess = np.empty((d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = hx
        hess[i, i] = (u(t, x + ei) - 2.0 * center + u(t, x - ei)) / (hx * hx)
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = hx
            cross = (
                u(t, x + ei + ej)
                - u(t, x + ei - ej)
                - u(t, x - ei + ej)
                + u(t, x - ei - ej)
            ) / (4.0 * hx * hx)
            hess[i, j] = cross
            hess[j, i] = cross
    sigma_sq = model.sigma.entries @ model.sigma.entries
    return float(du_dt + 0.5 * np.trace(sigma_sq @ hess))


def limit_value(
    a_risk: float,
    model: BachelierModel,
    payoff: RidgePayoff,
    phi0,
) -> float:
    """Scaling limit of the certainty equivalent for initial inventory phi0.

    Claim price at the inventory-shifted spot plus the quadratic carrying
    value of the initial position.
    """
    inventory = 0.5 * math.sqrt(a_risk) * quad_form(phi0, model.sigma.entries)
    return indifference_limit(a_risk, model, payoff, phi0) + inventory


def indifference_limit(a_risk: float, model: BachelierModel, payoff: RidgePayoff, phi0) -> float:
    """Scaling limit of the indifference price: the claim-price term alone."""
    phi0 = np.atleast_1d(np.asarray(phi0, dtype=float))
    shifted = model.s0 - math.sqrt(a_risk) * row_vec_mul(phi0, model.sigma.entries)
    return price_u(a_risk, model, payoff, 0.0, shifted)
