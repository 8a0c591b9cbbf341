"""Bachelier market data, payoffs, keyed random substreams and the payoff
inflation transform used throughout the scaling analysis.

Price dynamics are arithmetic: S_t = s0 + mu*t + W_t sigma with W a standard
d-dimensional Brownian motion and sigma a fixed SPD volatility matrix.  All
vectors are row vectors; ``z sigma`` means the row-vector/matrix product.
Every payoff is a ridge payoff of a convex max-of-affine profile (the basket
call is the profile y^+), so the inflated claim and its maximiser are exact
in any d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.random import Generator, Philox

from .errors import DimensionMismatchError, InvalidParameterError
from .linalg import SpdMatrix, quad_form, row_dot

# no search runs here: bench/spans.py's sup-convolution counter reads these
# two, and the grid-search oracle of the tests takes them as its defaults
SEARCH_GRID_POINTS = 41
SEARCH_ROUNDS = 3


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


# eq=False: == and hash() by identity; generated ones compare the arrays and raise in d >= 2
@dataclass(frozen=True, eq=False)
class RidgePayoff:
    """Payoff h(<a, x> + b) of a convex profile h(y) = max_i(slopes_i y + intercepts_i).

    Every slope lies in [-1, 1].  The profile is data, not a callable, so the
    payoff pickles for worker pools; its pieces are kept in ascending slope
    order (then intercept), which fixes the tie rule at a kink.  The
    inflation transform of a ridge payoff is exact in any d (see
    :func:`sup_convolve`).  ``is_call`` records whether the sorted pieces are
    exactly those of the basket call y^+, which has closed forms everywhere.
    """

    a: np.ndarray
    b: float
    slopes: np.ndarray
    intercepts: np.ndarray
    name: str = "ridge"
    lipschitz_constant: float = field(init=False, repr=False)
    is_call: bool = field(init=False, repr=False)

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
        call = self.slopes.tolist() == [0.0, 1.0] and self.intercepts.tolist() == [0.0, 0.0]
        object.__setattr__(self, "is_call", call)

    def __reduce__(self):
        # rebuilt through __init__, so a copy's arrays are read-only too
        return RidgePayoff, (self.a, self.b, self.slopes, self.intercepts, self.name)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        r = row_dot(np.asarray(x, dtype=float), self.a, self.b)
        if self.is_call:
            return np.maximum(r, 0.0)
        return np.max(r[..., None] * self.slopes + self.intercepts, axis=-1)


def BasketCall(a, b) -> RidgePayoff:
    """The basket call (<a, x> + b)^+: the ridge payoff of the profile y^+."""
    return RidgePayoff(a, b, (0.0, 1.0), (0.0, 0.0), name="basket_call")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = T, compared and hashed by (n_steps, T)."""

    n_steps: int
    T: float

    def __post_init__(self):
        if self.n_steps < 1:
            raise InvalidParameterError("n_steps must be >= 1")
        if not self.T > 0.0:
            raise InvalidParameterError("T must be positive")

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @cached_property
    def knots(self) -> np.ndarray:
        """The n_steps + 1 grid times, built on first use: the engine never reads them."""
        return np.linspace(0.0, self.T, self.n_steps + 1)


def substreams(seed: int) -> Callable[..., Generator]:
    """``index ->`` the counter-based Philox stream keyed ``(seed, index)``.

    Every call returns the same generator, set to the state a fresh
    ``Generator(Philox(key=(seed, index)))`` starts in: that key, counter 0,
    an empty buffer (``buffer_pos`` 4) and no cached uint32.  That is its
    whole state, so nothing drawn before survives; setting it costs about
    1 µs, where building a generator costs 10-20 µs of seeding work that
    the key then overrides.  A one-off stream is ``substreams(seed)(tag)``.
    The streams are not independent objects: a caller that leaves a stream
    part-way saves its place with :func:`stream_place` and passes it back
    as ``place`` to resume there instead of at the start.
    """
    rng = Generator(Philox(key=np.array([seed, 0], dtype=np.uint64)))
    bitgen = rng.bit_generator
    key = [seed, 0]
    start = {
        "bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }

    def stream(index: int, place: np.ndarray | None = None) -> Generator:
        key[1] = index
        if place is None:
            bitgen.state = start
        else:
            w = place.tolist()
            bitgen.state = {
                "bit_generator": "Philox", "state": {"counter": w[:4], "key": key},
                "buffer": w[4:8], "buffer_pos": w[8], "has_uint32": w[9], "uinteger": w[10],
            }
        return rng

    return stream


# uint64 words of a saved place in a stream (see stream_place)
STREAM_PLACE_WORDS = 11


def stream_place(rng: Generator, out: np.ndarray) -> None:
    """Write where ``rng``'s Philox stream stands into the uint64 words ``out``.

    The words are the counter (4), the buffer (4), ``buffer_pos``,
    ``has_uint32`` and ``uinteger``: with the key, all a stream of
    :func:`substreams` needs to resume.
    """
    state = rng.bit_generator.state
    out[:4], out[4:8] = state["state"]["counter"], state["buffer"]
    out[8:] = state["buffer_pos"], state["has_uint32"], state["uinteger"]


def brownian_increments(
    rng: Generator, n_steps: int, d: int, out: np.ndarray | None = None
) -> np.ndarray:
    """The next ``n_steps`` standard-normal step draws of one path's stream.

    ``rng`` draws the path's Philox stream keyed ``(seed, path_index)`` (in
    the engine, one generator re-keyed per path by :func:`substreams`), so every path is
    reproducible independent of chunking, worker count or how many paths are
    simulated in total.  Successive calls continue the stream: blocks of
    draws equal one call for all the steps, bit for bit.  ``out``, a
    C-contiguous (n_steps, d) array, receives the draws in place.
    """
    return rng.standard_normal((n_steps, d), out=out)


def inflated_strike(payoff: RidgePayoff, a_risk: float, sigma: SpdMatrix) -> float:
    """Strike b + sqrt(A) <a sigma, a>/2 of the inflated basket call (<a, x> + strike)^+."""
    return payoff.b + 0.5 * math.sqrt(a_risk) * quad_form(payoff.a, sigma.entries)


def _as_points(x) -> tuple[np.ndarray, bool]:
    """One point (d,) or a batch (m, d) as (m, d) rows, and whether it was a batch."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.atleast_2d(x), x.ndim == 2


def _search_radius(payoff: RidgePayoff, a_risk: float, sigma: SpdMatrix) -> float:
    # the optimal selector's declared bound: every maximiser lies within this
    # radius, as beyond it the quadratic penalty dominates the payoff gain:
    # f(x+y) - f(x) <= L ||y|| while <y sigma^{-1}, y>/(2 sqrt A) >= ||y||^2/(2 sqrt A lam_max)
    return 2.0 * math.sqrt(a_risk) * sigma.max_eig * payoff.lipschitz_constant


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
    payoff: RidgePayoff, a_risk: float, sigma: SpdMatrix, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Values (n,) and argmaxes (n, d) of the transform at (n, d) points, exactly."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if payoff.is_call:
        shift = payoff.a @ sigma.entries * math.sqrt(a_risk)
        inflated = row_dot(x, payoff.a, inflated_strike(payoff, a_risk, sigma))
        vals = np.maximum(inflated, 0.0)
        ys = np.where(inflated[:, None] > 0.0, shift[None, :], 0.0)
        return vals, ys
    # piece i attains its sup at y = sqrt(A) s_i a sigma; argmax takes the
    # first, so the smaller slope, at a kink
    slopes, levels, _, a_sig = _ridge_hull(payoff, a_risk, sigma)
    pieces = row_dot(x, payoff.a, payoff.b)[:, None] * slopes + levels
    best = np.argmax(pieces, axis=1)
    ys = (math.sqrt(a_risk) * slopes[best])[:, None] * a_sig[None, :]
    return pieces[np.arange(len(x)), best], ys


def sup_convolve(payoff: RidgePayoff, a_risk: float, sigma: SpdMatrix, x):
    """Inflated payoff sup_y [f(x+y) - <y sigma^{-1}, y>/(2 sqrt(a_risk))].

    This is the effective claim in the small-impact scaling limit, exact in
    any d.  The basket call (``is_call``) takes the closed form
    (<a,x> + :func:`inflated_strike`)^+.  Any other ridge payoff
    h(<a,x> + b), h(y) = max_i(s_i y + beta_i), inflates to
    g(x) = max_i(s_i r + beta_i + c s_i^2/2) at r = <a,x> + b,
    c = sqrt(a_risk) <a sigma, a>, because the sup of a max is the max of the
    per-piece sups.  Always >= f(x).
    ``x`` is one point (d,), giving a float, or a batch (m, d), giving (m,).
    """
    if a_risk <= 0.0:
        raise InvalidParameterError("a_risk must be positive")
    points, batch = _as_points(x)
    vals, _ = _sup_convolve_batch(payoff, a_risk, sigma, points)
    return vals if batch else float(vals[0])


def sup_convolve_argmax(payoff: RidgePayoff, a_risk: float, sigma: SpdMatrix, x) -> np.ndarray:
    """A displacement y achieving the inflated payoff exactly.

    The basket call (``is_call``) returns sqrt(a_risk) * a sigma on the
    inflated-positive branch and 0 otherwise (ties at the kink resolve to 0,
    which keeps the selector bounded and measurable).  Any other ridge
    payoff returns sqrt(a_risk) s_i a sigma of its winning piece, the
    smaller slope at a kink.  ``x`` is one point (d,) or a batch (m, d); the
    result is (d,) or (m, d).
    """
    if a_risk <= 0.0:
        raise InvalidParameterError("a_risk must be positive")
    points, batch = _as_points(x)
    _, ys = _sup_convolve_batch(payoff, a_risk, sigma, points)
    return ys if batch else ys[0]
