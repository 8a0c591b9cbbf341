"""Bachelier market data, payoffs, keyed random substreams and the payoff
inflation transform used throughout the scaling analysis.

Price dynamics are arithmetic: S_t = s0 + mu*t + W_t sigma with W a standard
d-dimensional Brownian motion and sigma a fixed SPD volatility matrix.  All
vectors are row vectors; ``z sigma`` means the row-vector/matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Union

import numpy as np
from numpy.random import Generator, Philox

from .errors import BudgetExceededError, DimensionMismatchError, InvalidParameterError
from .linalg import SpdMatrix, inverse, quad_form

# grid-search defaults for the generic sup-convolution (see sup_convolve)
SEARCH_GRID_POINTS = 41
SEARCH_ROUNDS = 3
SEARCH_SHRINK = 0.2
# largest tensor grid (quadrature nodes or search candidates per point)
NODE_BUDGET = 1_000_000


@dataclass(frozen=True)
class BachelierModel:
    """Arithmetic Brownian market: initial prices, drift, volatility, horizon."""

    s0: np.ndarray
    mu: np.ndarray
    sigma: SpdMatrix
    T: float

    def __post_init__(self):
        object.__setattr__(self, "s0", np.atleast_1d(np.asarray(self.s0, dtype=float)))
        object.__setattr__(self, "mu", np.atleast_1d(np.asarray(self.mu, dtype=float)))
        d = self.sigma.dim
        if self.s0.shape != (d,) or self.mu.shape != (d,):
            raise DimensionMismatchError(
                f"s0/mu must have length {d}, got {self.s0.shape}, {self.mu.shape}"
            )
        if not self.T > 0.0:
            raise InvalidParameterError(f"horizon T must be positive, got {self.T}")

    @property
    def d(self) -> int:
        return self.sigma.dim


@dataclass(frozen=True)
class BasketCall:
    """Payoff (<a, x> + b)^+ with closed forms for everything downstream."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", np.atleast_1d(np.asarray(self.a, dtype=float)))
        object.__setattr__(self, "b", float(self.b))

    @property
    def lipschitz_constant(self) -> float:
        return float(np.linalg.norm(self.a))

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.maximum(x @ self.a + self.b, 0.0)


@dataclass(frozen=True)
class GenericLipschitz:
    """Arbitrary Lipschitz payoff with a declared constant.

    ``fn`` must accept arrays of shape (..., d) and return shape (...);
    the declared constant is what the inflation transform's search radius
    is derived from, so it must genuinely dominate the payoff's slope.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    lipschitz_constant: float
    name: str = "generic"

    def __post_init__(self):
        if self.lipschitz_constant < 0.0:
            raise InvalidParameterError("Lipschitz constant must be >= 0")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)


@dataclass(frozen=True)
class RidgePayoff:
    """Payoff h(<a, x> + b) of a scalar profile ``h`` with slope at most 1.

    ``h`` maps an array of scalars to an array of the same shape; it should
    be a module-level function or ufunc, so the payoff pickles for worker
    pools and its inflated-claim table can be cached by it.  The inflation
    transform of a ridge payoff is a 1-D problem in r = <a, x> + b (see
    :func:`sup_convolve`), which is what lets it be tabulated in any d.
    """

    a: np.ndarray
    b: float
    h: Callable[[np.ndarray], np.ndarray]
    name: str = "ridge"

    def __post_init__(self):
        object.__setattr__(self, "a", np.atleast_1d(np.asarray(self.a, dtype=float)))
        object.__setattr__(self, "b", float(self.b))

    @property
    def lipschitz_constant(self) -> float:
        return float(np.linalg.norm(self.a))

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.h(np.asarray(x, dtype=float) @ self.a + self.b), dtype=float)


Payoff = Union[BasketCall, RidgePayoff, GenericLipschitz]


def _zero_fn(x: np.ndarray) -> np.ndarray:
    return np.zeros(np.asarray(x).shape[:-1])


def zero_payoff() -> GenericLipschitz:
    """The identically-zero claim (picklable, safe for worker pools)."""
    return GenericLipschitz(fn=_zero_fn, lipschitz_constant=0.0, name="zero")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = T."""

    n_steps: int
    T: float
    knots: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_steps < 1:
            raise InvalidParameterError("n_steps must be >= 1")
        if not self.T > 0.0:
            raise InvalidParameterError("T must be positive")
        object.__setattr__(self, "knots", np.linspace(0.0, self.T, self.n_steps + 1))

    @property
    def dt(self) -> float:
        return self.T / self.n_steps


def substream(*key: int) -> Generator:
    """Counter-based Philox generator keyed by ``key``: every draw of the package."""
    return Generator(Philox(key=np.array(key, dtype=np.uint64)))


def brownian_increments(rng: Generator, n_steps: int, d: int) -> np.ndarray:
    """The next ``n_steps`` standard-normal step draws of one path's substream.

    ``rng`` is the path's :func:`substream` keyed by (seed, path_index), so
    every path is reproducible independent of chunking, worker count or how
    many paths are simulated in total.  Successive calls continue the stream:
    blocks of draws equal one call for all the steps, bit for bit.
    """
    return rng.standard_normal((n_steps, d))


def antithetic_normals(key, n_half: int, d: int) -> np.ndarray:
    """Antithetic standard-normal rows from the Philox substream ``key``.

    ``n_half`` rows are drawn and stacked with their negatives, so the odd
    sample moments vanish exactly.
    """
    half = substream(*key).standard_normal((n_half, d))
    return np.vstack([half, -half])


def inflated_strike(payoff: BasketCall, a_risk: float, sigma: SpdMatrix) -> float:
    """Strike b + sqrt(A) <a sigma, a>/2 of the inflated basket call (<a, x> + strike)^+."""
    return payoff.b + 0.5 * math.sqrt(a_risk) * quad_form(payoff.a, sigma.entries)


def _as_points(x) -> tuple[np.ndarray, bool]:
    """One point (d,) or a batch (m, d) as (m, d) rows, and whether it was a batch."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.atleast_2d(x), x.ndim == 2


def _search_radius(payoff: Payoff, a_risk: float, sigma: SpdMatrix) -> float:
    # the quadratic penalty dominates the payoff gain beyond this radius:
    # f(x+y) - f(x) <= L ||y|| while <y sigma^{-1}, y>/(2 sqrt A) >= ||y||^2/(2 sqrt A lam_max)
    lip = payoff.lipschitz_constant
    return 2.0 * math.sqrt(a_risk) * sigma.max_eig * lip


def _axis_offsets(radius: float, d: int, points: int) -> np.ndarray:
    axis = np.linspace(-radius, radius, points)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def _search_candidates(d: int, grid_points: int = SEARCH_GRID_POINTS) -> int:
    """Candidates per point of the generic grid search; over NODE_BUDGET raises."""
    candidates = grid_points**d
    if candidates > NODE_BUDGET:
        raise BudgetExceededError(f"search grid {grid_points}^{d} exceeds the {NODE_BUDGET} budget")
    return candidates


def _ridge_terms(payoff: RidgePayoff, sigma: SpdMatrix) -> tuple[np.ndarray, float]:
    """(a sigma, <a sigma, a>) of a ridge payoff."""
    a_sig = payoff.a @ sigma.entries
    return a_sig, float(a_sig @ payoff.a)


def _on_column(h, r: np.ndarray) -> np.ndarray:
    return h(r[..., 0])


def _sup_convolve_batch(
    payoff: Payoff,
    a_risk: float,
    sigma: SpdMatrix,
    x: np.ndarray,
    rounds: int = SEARCH_ROUNDS,
    grid_points: int = SEARCH_GRID_POINTS,
    row_block: int = 2048,
) -> tuple[np.ndarray, np.ndarray]:
    """Values (n,) and argmaxes (n, d) of the transform at (n, d) points.

    A ridge payoff is searched as its 1-D problem in r (:func:`sup_convolve`);
    a generic row block holds (rows, grid_points^d, d) candidates, so it
    shrinks as the grid grows (49 rows at d = 3); a grid over NODE_BUDGET
    raises.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, d = x.shape
    if isinstance(payoff, BasketCall):
        shift = payoff.a @ sigma.entries * math.sqrt(a_risk)
        inflated = x @ payoff.a + inflated_strike(payoff, a_risk, sigma)
        vals = np.maximum(inflated, 0.0)
        ys = np.where(inflated[:, None] > 0.0, shift[None, :], 0.0)
        return vals, ys
    if isinstance(payoff, RidgePayoff):
        a_sig, quad = _ridge_terms(payoff, sigma)
        scale = math.sqrt(a_risk) * quad
        if scale == 0.0:
            return payoff.evaluate(x), np.zeros_like(x)
        # sup_z h(r + z) - z^2/(2c): the search with A = 1, sigma = [[c]], slope 1
        vals, zs = _grid_search(
            partial(_on_column, payoff.h), 2.0 * scale, 0.5, np.array([[1.0 / scale]]),
            (x @ payoff.a + payoff.b)[:, None], rounds, grid_points, row_block,
        )
        return vals, zs * (a_sig / quad)[None, :]

    radius0 = _search_radius(payoff, a_risk, sigma)
    if radius0 == 0.0:
        return payoff.evaluate(x), np.zeros_like(x)
    candidates = _search_candidates(d, grid_points)
    row_block = max(1, min(row_block, row_block * SEARCH_GRID_POINTS**2 // candidates))
    return _grid_search(
        payoff.evaluate, radius0, 1.0 / (2.0 * math.sqrt(a_risk)), inverse(sigma).entries,
        x, rounds, grid_points, row_block,
    )


def _grid_search(evaluate, radius0, inv_two_sqrt_a, sig_inv, x, rounds, grid_points, row_block):
    """Best values and displacements of evaluate(x + y) - inv_two_sqrt_a <y sig_inv, y>.

    A grid of ``grid_points`` per axis over the ball of ``radius0``, then
    ``rounds`` grids shrunk by SEARCH_SHRINK around each row's best point.
    """
    n, d = x.shape
    best_val = evaluate(x)
    best_y = np.zeros_like(x)
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
            obj = evaluate(xb[:, None, :] + cand) - penalty
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


def sup_convolve(payoff: Payoff, a_risk: float, sigma: SpdMatrix, x):
    """Inflated payoff sup_y [f(x+y) - <y sigma^{-1}, y>/(2 sqrt(a_risk))].

    This is the effective claim in the small-impact scaling limit.  Basket
    calls use the closed form (<a,x> + :func:`inflated_strike`)^+.  A ridge
    payoff h(<a,x> + b) is the scalar sup over z of h(r + z) - z^2/(2c) at
    r = <a,x> + b, c = sqrt(a_risk) <a sigma, a>, attained at
    y = z* a sigma / <a sigma, a>: one 41-point grid search in any d.  Other
    generic payoffs are maximised by a bounded-ball grid search in R^d with
    local refinement (the maximiser provably lies within
    2 sqrt(a_risk) lam_max(sigma) L of the origin), refused from d = 4 by the
    node budget.  Always >= f(x).
    ``x`` is one point (d,), giving a float, or a batch (m, d), giving (m,).
    """
    if a_risk <= 0.0:
        raise InvalidParameterError("a_risk must be positive")
    points, batch = _as_points(x)
    vals, _ = _sup_convolve_batch(payoff, a_risk, sigma, points)
    return vals if batch else float(vals[0])


def sup_convolve_argmax(
    payoff: Payoff,
    a_risk: float,
    sigma: SpdMatrix,
    x,
    eps: float = 1e-9,
) -> np.ndarray:
    """A displacement y achieving the inflated payoff within ``eps``.

    For basket calls returns sqrt(a_risk) * a sigma on the inflated-positive
    branch and 0 otherwise (ties at the kink resolve to 0, which keeps the
    selector bounded and measurable).  Ridge payoffs refine their 1-D search
    until its resolution is below ``eps`` and return z* a sigma / <a sigma, a>;
    other generic payoffs refine the grid search in R^d the same way.  ``x``
    is one point (d,) or a batch (m, d); the result is (d,) or (m, d).
    """
    if a_risk <= 0.0 or eps <= 0.0:
        raise InvalidParameterError("a_risk and eps must be positive")
    points, batch = _as_points(x)
    rounds = _rounds_for_eps(payoff, a_risk, sigma, eps)
    _, ys = _sup_convolve_batch(payoff, a_risk, sigma, points, rounds=rounds)
    return ys if batch else ys[0]


def _rounds_for_eps(payoff: Payoff, a_risk: float, sigma: SpdMatrix, eps: float) -> int:
    # basket calls never reach the search, so their rounds are never read
    if isinstance(payoff, RidgePayoff):
        # the 1-D problem: slope 1, radius 2c, penalty z^2/(2c)
        scale = math.sqrt(a_risk) * _ridge_terms(payoff, sigma)[1]
        lipschitz, radius, curvature = 1.0, 2.0 * scale, scale
    else:
        lipschitz = payoff.lipschitz_constant
        radius = _search_radius(payoff, a_risk, sigma)
        curvature = math.sqrt(a_risk) * sigma.min_eig
    if radius == 0.0:
        return SEARCH_ROUNDS
    # objective is Lipschitz in y with constant at most slope_bound near the
    # ball; one grid spacing of resolution error per round
    slope_bound = lipschitz + radius / curvature
    rounds = SEARCH_ROUNDS
    spacing = 2.0 * radius / (SEARCH_GRID_POINTS - 1)
    while slope_bound * spacing * SEARCH_SHRINK**rounds > eps and rounds < 12:
        rounds += 1
    return rounds
