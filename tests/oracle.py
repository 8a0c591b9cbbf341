"""Slow, independent references that the package's exact forms are tested against.

The package inflates and prices only ridge payoffs (the basket call among
them), each in closed form.  These references assume none of that: a
bounded-ball grid search inflates any Lipschitz payoff, a quadrature rule
integrates the inflated claim at every spot, and central finite differences
of the price give its delta.  A fresh Philox generator per key is the
reference for the engine's re-keyed streams.  Nothing in the package calls
them.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random import Generator, Philox

from bachimpact import BudgetExceededError, InvalidParameterError, inverse, price_u
from bachimpact.config import GENERIC_PAYOFFS
from bachimpact.market import (
    SEARCH_GRID_POINTS,
    SEARCH_ROUNDS,
    _search_radius,
    _sup_convolve_batch,
)
from bachimpact.pricing import NODE_BUDGET

# each refinement round searches a grid this much narrower around the best point
SEARCH_SHRINK = 0.2


def philox_stream(*key: int) -> Generator:
    """A freshly built counter-based Philox generator keyed by ``key``."""
    return Generator(Philox(key=np.array(key, dtype=np.uint64)))


@dataclass(frozen=True)
class GenericLipschitz:
    """Arbitrary Lipschitz payoff with a declared constant, for the search.

    ``fn`` must accept arrays of shape (..., d) and return shape (...); the
    search radius is derived from the declared constant, so it must
    genuinely dominate the payoff's slope.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    lipschitz_constant: float

    def __post_init__(self):
        if self.lipschitz_constant < 0.0:
            raise InvalidParameterError("Lipschitz constant must be >= 0")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)


def zero_claim(d: int = 1):
    """The config registry's zero payoff in d dimensions."""
    return GENERIC_PAYOFFS["zero"](np.zeros(d), 0.0)


def _axis_offsets(radius: float, d: int, points: int) -> np.ndarray:
    axis = np.linspace(-radius, radius, points)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def search(payoff, a_risk, sigma, x, rounds=SEARCH_ROUNDS, grid_points=SEARCH_GRID_POINTS,
           row_block=2048):
    """Values (n,) and displacements (n, d) of the inflation transform at (n, d) points.

    A grid of ``grid_points`` per axis over the ball every maximiser lies in,
    then ``rounds`` grids shrunk by SEARCH_SHRINK around each row's best
    point.  A row block holds (rows, grid_points^d, d) candidates, so it
    shrinks as the grid grows (49 rows at d = 3); a grid over the node
    budget raises.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, d = x.shape
    best_val = payoff.evaluate(x)
    best_y = np.zeros_like(x)
    radius0 = _search_radius(payoff, a_risk, sigma)
    if radius0 == 0.0:
        return best_val, best_y
    candidates = grid_points**d
    if candidates > NODE_BUDGET:
        raise BudgetExceededError(f"search grid {grid_points}^{d} exceeds the {NODE_BUDGET} budget")
    row_block = max(1, min(row_block, row_block * SEARCH_GRID_POINTS**2 // candidates))
    inv_two_sqrt_a = 1.0 / (2.0 * math.sqrt(a_risk))
    sig_inv = inverse(sigma).entries
    for lo in range(0, n, row_block):
        hi = min(lo + row_block, n)
        xb = x[lo:hi]
        vb = best_val[lo:hi].copy()
        yb = best_y[lo:hi].copy()
        centers = np.zeros_like(xb)
        radius = radius0
        for _ in range(rounds + 1):
            offsets = _axis_offsets(radius, d, grid_points)
            cand = centers[:, None, :] + offsets[None, :, :]
            penalty = inv_two_sqrt_a * np.einsum("mgj,jk,mgk->mg", cand, sig_inv, cand)
            obj = payoff.evaluate(xb[:, None, :] + cand) - penalty
            idx = np.argmax(obj, axis=1)
            rows = np.arange(xb.shape[0])
            improved = obj[rows, idx] > vb
            vb = np.where(improved, obj[rows, idx], vb)
            yb = np.where(improved[:, None], cand[rows, idx], yb)
            centers = yb
            radius *= SEARCH_SHRINK
        best_val[lo:hi] = vb
        best_y[lo:hi] = yb
    return best_val, best_y


def rounds_for_eps(payoff, a_risk, sigma, eps: float) -> int:
    """Refinement rounds that bring the search's resolution below ``eps``."""
    radius = _search_radius(payoff, a_risk, sigma)
    if radius == 0.0:
        return SEARCH_ROUNDS
    # objective is Lipschitz in y with constant at most slope_bound near the
    # ball; one grid spacing of resolution error per round
    slope_bound = payoff.lipschitz_constant + radius / (math.sqrt(a_risk) * sigma.min_eig)
    rounds = SEARCH_ROUNDS
    spacing = 2.0 * radius / (SEARCH_GRID_POINTS - 1)
    while slope_bound * spacing * SEARCH_SHRINK**rounds > eps and rounds < 12:
        rounds += 1
    return rounds


def search_argmax(payoff, a_risk, sigma, x, eps: float) -> np.ndarray:
    """Displacements (n, d) attaining the transform at (n, d) points within ``eps``."""
    return search(payoff, a_risk, sigma, x, rounds=rounds_for_eps(payoff, a_risk, sigma, eps))[1]


def quadrature_price(a_risk, model, payoff, t, x, rule) -> float:
    """Claim price at one spot by integrating the inflated payoff over ``rule``.

    A :class:`GenericLipschitz` payoff is inflated by the :func:`search` at
    every node, a package payoff by its exact transform.
    """
    inflate = search if isinstance(payoff, GenericLipschitz) else _sup_convolve_batch
    offsets = math.sqrt(model.T - t) * (rule.nodes @ model.sigma.entries)
    vals, _ = inflate(payoff, a_risk, model.sigma, np.asarray(x, dtype=float) + offsets)
    return float(np.sum(rule.weights * vals))


def fd_delta(a_risk, model, payoff, t, x, h: float) -> np.ndarray:
    """Central finite-difference gradient (d,) of ``price_u`` at one spot, step ``h``."""
    steps = h * np.eye(model.d)
    vals = price_u(a_risk, model, payoff, t, np.vstack([x + steps, x - steps]))
    return (vals[: model.d] - vals[model.d :]) / (2.0 * h)
