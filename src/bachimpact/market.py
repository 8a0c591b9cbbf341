"""Bachelier market data, payoffs, keyed random substreams and the payoff
inflation transform used throughout the scaling analysis.

Price dynamics are arithmetic: S_t = s0 + mu*t + W_t sigma with W a standard
d-dimensional Brownian motion and sigma a fixed SPD volatility matrix.  All
vectors are row vectors; ``z sigma`` means the row-vector/matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


def _read_only(a) -> np.ndarray:
    """A read-only float copy of the vector ``a``, so nothing cached from it goes stale."""
    arr = np.array(a, dtype=float, ndmin=1)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class BasketCall:
    """Payoff (<a, x> + b)^+ with closed forms for everything downstream."""

    a: np.ndarray
    b: float
    lipschitz_constant: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", _read_only(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "lipschitz_constant", float(np.linalg.norm(self.a)))

    def __reduce__(self):
        # rebuilt through __init__, so a copy's vector is read-only too
        return BasketCall, (self.a, self.b)

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
    """Payoff h(<a, x> + b) of a convex profile h(y) = max_i(slopes_i y + intercepts_i).

    Every slope lies in [-1, 1].  The profile is data, not a callable, so the
    payoff pickles for worker pools; its pieces are kept in ascending slope
    order (then intercept), which fixes the tie rule at a kink.  The
    inflation transform of a ridge payoff is exact in any d (see
    :func:`sup_convolve`).
    """

    a: np.ndarray
    b: float
    slopes: np.ndarray
    intercepts: np.ndarray
    name: str = "ridge"
    lipschitz_constant: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", _read_only(self.a))
        object.__setattr__(self, "b", float(self.b))
        slopes = np.atleast_1d(np.asarray(self.slopes, dtype=float))
        intercepts = np.atleast_1d(np.asarray(self.intercepts, dtype=float))
        if slopes.ndim != 1 or slopes.shape != intercepts.shape or slopes.size == 0:
            raise DimensionMismatchError("slopes and intercepts must be 1-D, non-empty, one length")
        pieces = np.concatenate([self.a, [self.b], slopes, intercepts])
        if not np.all(np.isfinite(pieces)):
            raise InvalidParameterError("ridge payoff data must be finite")
        if np.abs(slopes).max() > 1.0:
            raise InvalidParameterError("ridge profile slopes must lie in [-1, 1]")
        order = np.lexsort((intercepts, slopes))
        object.__setattr__(self, "slopes", _read_only(slopes[order]))
        object.__setattr__(self, "intercepts", _read_only(intercepts[order]))
        lip = float(np.linalg.norm(self.a)) * float(np.abs(self.slopes).max())
        object.__setattr__(self, "lipschitz_constant", lip)

    def __reduce__(self):
        # rebuilt through __init__, so a copy's arrays are read-only too
        return RidgePayoff, (self.a, self.b, self.slopes, self.intercepts, self.name)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        r = np.asarray(x, dtype=float) @ self.a + self.b
        return np.max(r[..., None] * self.slopes + self.intercepts, axis=-1)


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


def _ridge_hull(payoff: RidgePayoff, a_risk: float, sigma: SpdMatrix):
    """The pieces of a ridge payoff's inflated claim that count, and a sigma.

    Sup and max commute, so piece i inflates to s_i r + beta_i + c s_i^2/2,
    c = sqrt(a_risk) <a sigma, a>.  Returns the slopes and intercepts of the
    inflated pieces that are somewhere on top (the upper envelope, walked in
    ascending slope), the knots where consecutive ones cross (ascending) and
    a sigma.
    """
    a_sig = payoff.a @ sigma.entries
    half_c = 0.5 * math.sqrt(a_risk) * float(a_sig @ payoff.a)
    hull: list[tuple[float, float]] = []
    for slope, beta in zip(payoff.slopes.tolist(), payoff.intercepts.tolist()):
        piece = (slope, beta + half_c * slope * slope)
        if hull and hull[-1][0] == slope:
            hull.pop()  # equal slopes ascend in intercept: the later piece is on top
        while len(hull) > 1 and _meet(hull[-2], hull[-1]) >= _meet(hull[-1], piece):
            hull.pop()
        hull.append(piece)
    slopes, levels = np.array(hull).T
    return slopes, levels, np.array([_meet(p, q) for p, q in zip(hull, hull[1:])]), a_sig


def _meet(p, q) -> float:
    """Where the lines r -> p[0] r + p[1] and q[0] r + q[1] cross."""
    return (p[1] - q[1]) / (q[0] - p[0])


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

    A ridge payoff is exact (:func:`sup_convolve`); a generic row block
    holds (rows, grid_points^d, d) candidates, so it shrinks as the grid
    grows (49 rows at d = 3); a grid over NODE_BUDGET raises.
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
        # piece i attains its sup at y = sqrt(A) s_i a sigma; argmax takes the
        # first, so the smaller slope, at a kink
        slopes, levels, _, a_sig = _ridge_hull(payoff, a_risk, sigma)
        pieces = (x @ payoff.a + payoff.b)[:, None] * slopes + levels
        best = np.argmax(pieces, axis=1)
        ys = (math.sqrt(a_risk) * slopes[best])[:, None] * a_sig[None, :]
        return pieces[np.arange(n), best], ys

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
    payoff h(<a,x> + b), h(y) = max_i(s_i y + beta_i), is exact in any d:
    g(x) = max_i(s_i r + beta_i + c s_i^2/2) at r = <a,x> + b,
    c = sqrt(a_risk) <a sigma, a>, because the sup of a max is the max of the
    per-piece sups.  Other generic payoffs are maximised by a bounded-ball
    grid search in R^d with local refinement (the maximiser provably lies
    within 2 sqrt(a_risk) lam_max(sigma) L of the origin), refused from d = 4
    by the node budget.  Always >= f(x).
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
    selector bounded and measurable).  Ridge payoffs return the exact
    sqrt(a_risk) s_i a sigma of their winning piece, the smaller slope at a
    kink; other generic payoffs refine the grid search in R^d until its
    resolution is below ``eps``.  ``x`` is one point (d,) or a batch (m, d);
    the result is (d,) or (m, d).
    """
    if a_risk <= 0.0 or eps <= 0.0:
        raise InvalidParameterError("a_risk and eps must be positive")
    points, batch = _as_points(x)
    rounds = _rounds_for_eps(payoff, a_risk, sigma, eps)
    _, ys = _sup_convolve_batch(payoff, a_risk, sigma, points, rounds=rounds)
    return ys if batch else ys[0]


def _rounds_for_eps(payoff: Payoff, a_risk: float, sigma: SpdMatrix, eps: float) -> int:
    # basket calls and ridge payoffs never reach the search, so their rounds are never read
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
