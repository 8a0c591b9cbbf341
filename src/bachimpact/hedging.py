"""Tracking hedge along simulated paths: one vectorised engine for the
stiff-ODE integration, wealth with quadratic trading costs and the
supermartingale diagnostics that certify the upper bound of the scaling limit.

The position follows the relaxation ODE

    dPhi/dt = (sqrt(A)/lam) * (target(t, S_t, Phi_t) - Phi_t) sigma,

whose rate sqrt(A) sigma / lam blows up as the impact lam vanishes.  Explicit
Euler is unstable once the step exceeds 2*lam/(sqrt(A) sigma); we instead
freeze the target per step and apply the exact frozen-coefficient solution

    Phi_{k+1} = Theta_k + (Phi_k - Theta_k) exp(-sqrt(A) h sigma / lam),

which is unconditionally stable and exact whenever the target is constant.
The target is the claim's exact delta at the inventory-shifted spot, from
one closed-form evaluator built per chunk, so no quadrature rule or finite
difference enters the loop.

One loop, :func:`_hedge_chunk`, produces every hedge: :func:`run_hedge_batch`
keeps terminal summaries, :func:`hedge_paths` also records every knot so the
independent references below (Duhamel, wealth) can check it.
:func:`supermartingale_check_mc` is a hedge followed by the reducer
:func:`_certificate_ratio`; ``bachimpact check`` calls the reducer on the one
batch that also gives its certainty equivalent, so the certificate and the
sandwich bound are read off the same 2000 hedged paths.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, OverflowGuardError
from .linalg import SpdMatrix, inverse, mat_exp, row_vec_mul
from .market import (
    STREAM_PLACE_WORDS, BachelierModel, RidgePayoff, TimeGrid, brownian_increments, stream_place,
    substreams,
)
# delta_u is not called here: bench/spans.py looks its boundary up in this
# module, and traced runs silently drop the delta_u metrics without the binding
from .pricing import _closed_form_delta_factory, delta_u, price_u  # noqa: F401

AUTO_STEPS_FLOOR = 1000
AUTO_STEPS_CAP = 100_000
DEFAULT_CHUNK = 4096
# increments are drawn in step blocks of about this many doubles (16 MB)
DRAW_BLOCK_DOUBLES = 1 << 21
# paths per path-major tile that a block of draws passes through
DRAW_TILE_PATHS = 256


@dataclass(frozen=True)
class HedgeBatch:
    """Vectorised terminal summary over a block of paths."""

    s_terminal: np.ndarray  # (n_paths, d)
    phi_terminal: np.ndarray  # (n_paths, d)
    terminal_wealth: np.ndarray  # (n_paths,)
    payoff_value: np.ndarray  # (n_paths,)
    utility_exponent: np.ndarray  # (n_paths,) (A/lam) * (payoff - wealth)
    cost_integral: np.ndarray  # (n_paths,) (lam/2) * int ||rate||^2 dt
    sup_position_norm: np.ndarray  # (n_paths,)


@dataclass(frozen=True)
class HedgePaths:
    """Every knot of a block of hedged paths, as the batch engine stepped them.

    Step k holds the target frozen over [t_k, t_{k+1}] and the step's
    average trading rate; ``batch`` is the terminal summary.
    """

    grid: TimeGrid
    prices: np.ndarray  # (n_paths, n+1, d)
    positions: np.ndarray  # (n_paths, n+1, d)
    rates: np.ndarray  # (n_paths, n, d)
    targets: np.ndarray  # (n_paths, n, d)
    batch: HedgeBatch


def auto_n_steps(a_risk: float, lam: float, model: BachelierModel) -> int:
    """Step count resolving the relaxation boundary layer without tuning."""
    n = max(
        AUTO_STEPS_FLOOR,
        math.ceil(20.0 * model.T * math.sqrt(a_risk) * model.sigma.max_eig / lam),
    )
    if n > AUTO_STEPS_CAP:
        warnings.warn(
            f"auto step rule wants {n} steps; capping at {AUTO_STEPS_CAP}",
            RuntimeWarning,
            stacklevel=2,
        )
        n = AUTO_STEPS_CAP
    return n


def step_matrix(a_risk: float, lam: float, sigma: SpdMatrix, h: float) -> np.ndarray:
    """Frozen-coefficient relaxation factor exp(-sqrt(A) h sigma / lam)."""
    if lam <= 0.0 or h <= 0.0:
        raise InvalidParameterError("lam and h must be positive")
    return mat_exp(sigma, -math.sqrt(a_risk) * h / lam)


def duhamel_solution(
    a_risk: float,
    lam: float,
    model: BachelierModel,
    theta_path: np.ndarray,
    phi0,
    grid: TimeGrid,
) -> np.ndarray:
    """Convolution solution of the relaxation ODE for piecewise-constant targets.

    Independent oracle for the engine: the homogeneous decay of the initial
    position plus exact per-step matrix-exponential weights on each frozen
    target.  O(n^2) in the step count, intended for verification runs.
    """
    theta_path = np.asarray(theta_path, dtype=float)
    n, d = grid.n_steps, model.d
    if theta_path.shape != (n, d):
        raise DimensionMismatchError(f"theta_path must be ({n}, {d})")
    phi0 = np.atleast_1d(np.asarray(phi0, dtype=float))
    rate = math.sqrt(a_risk) / lam
    h = grid.dt
    q = model.sigma.eig_vectors
    lam_eigs = model.sigma.eig_values
    phi0_e = phi0 @ q
    theta_e = theta_path @ q
    out = np.empty((n + 1, d))
    out[0] = phi0
    for m_idx in range(1, n + 1):
        t_m = m_idx * h
        acc = phi0_e * np.exp(-rate * t_m * lam_eigs)
        for k in range(m_idx):
            w_hi = np.exp(-rate * (t_m - (k + 1) * h) * lam_eigs)
            w_lo = np.exp(-rate * (t_m - k * h) * lam_eigs)
            acc = acc + theta_e[k] * (w_hi - w_lo)
        out[m_idx] = acc @ q.T
    return out


def _knot_arrays(prices, positions, rates) -> tuple:
    prices = np.asarray(prices, dtype=float)
    positions = np.asarray(positions, dtype=float)
    rates = np.asarray(rates, dtype=float)
    n = prices.shape[0] - 1
    if positions.shape[0] != n + 1 or rates.shape[0] != n:
        raise DimensionMismatchError("positions/rates do not match the price knots")
    return prices, positions, rates


def wealth(prices, positions, rates, lam: float, h: float) -> float:
    """Terminal wealth: left-point stochastic sum minus the quadratic cost.

    ``prices`` and ``positions`` are (n+1, d) knot values, ``rates`` the (n, d)
    per-step trading rates on a grid of step ``h``.  Exact for the
    piecewise-constant-rate strategies the engine produces.
    """
    prices, positions, rates = _knot_arrays(prices, positions, rates)
    gains = float(np.sum(positions[:-1] * np.diff(prices, axis=0)))
    cost = 0.5 * lam * float(np.sum(rates * rates)) * h
    return gains - cost


def wealth_by_parts(prices, positions, rates, lam: float, h: float) -> float:
    """Terminal wealth via summation by parts against the terminal price.

    Equals :func:`wealth` in continuous time; the two discretisations differ
    by a Riemann-sum discrepancy that vanishes as the grid refines, which the
    property tests quantify.
    """
    prices, positions, rates = _knot_arrays(prices, positions, rates)
    s_terminal = prices[-1]
    base = float(positions[0] @ (s_terminal - prices[0]))
    gains = float(np.sum(rates * (s_terminal[None, :] - prices[:-1])))
    cost = 0.5 * lam * float(np.sum(rates * rates))
    return base + (gains - cost) * h


def position_bound(payoff: RidgePayoff, phi0, margin: float = 1.0) -> float:
    """A priori sup-norm bound on tracking positions, uniform in the impact.

    The target is a claim-price gradient, bounded by the payoff's Lipschitz
    constant, and each relaxation step is a contraction toward it, so
    positions never leave max(||phi0||, L) up to the safety margin.
    """
    phi0 = np.atleast_1d(np.asarray(phi0, dtype=float))
    return max(float(np.linalg.norm(phi0)), payoff.lipschitz_constant) + margin


def drift_slack(
    a_risk: float, lam: float, model: BachelierModel, payoff: RidgePayoff, phi0
) -> float:
    """Allowance the price drift adds to the upper bound of the limit.

    (lam / sqrt(A)) * 2 * C * T * ||mu sigma^{-1}|| with C the
    :func:`position_bound`; zero for a driftless market.
    """
    mu_siginv_norm = float(np.linalg.norm(row_vec_mul(model.mu, inverse(model.sigma).entries)))
    bound_c = position_bound(payoff, phi0)
    return (lam / math.sqrt(a_risk)) * 2.0 * bound_c * model.T * mu_siginv_norm


def _certificate_log(a_risk, lam, model, payoff, t, s, phi, phi0, wealth):
    """Log of the certification process at time t for (m, d) prices and positions.

    (A/lam) * (claim price at the shifted spot s - sqrt(A) phi sigma +
    inventory value - wealth so far), corrected by
    -sqrt(A) <phi - phi0, mu sigma^{-1}> so the drift of the price does not
    break the supermartingale property.
    """
    sqa = math.sqrt(a_risk)
    sigma = model.sigma.entries
    mu_siginv = row_vec_mul(model.mu, inverse(model.sigma).entries)
    u_vals = price_u(a_risk, model, payoff, t, s - sqa * (phi @ sigma))
    inventory = 0.5 * sqa * np.einsum("ij,jk,ik->i", phi, sigma, phi)
    correction = -sqa * ((phi - phi0) @ mu_siginv)
    return correction + (a_risk / lam) * (u_vals + inventory - wealth)


# ---------------------------------------------------------------------------
# batched engine
# ---------------------------------------------------------------------------


def _as_impacts(lam) -> tuple[tuple, bool]:
    """One impact or a sequence of impacts as a tuple, and whether it was a sequence."""
    if np.ndim(lam) == 0:
        return (lam,), False
    lams = tuple(lam)
    if not lams:
        raise InvalidParameterError("need at least one impact value")
    return lams, True


def _products(d: int) -> tuple:
    """The loop's (matrix product, row dot, squared row norm) for dimension ``d``.

    In d=1 every matrix is 1x1, so each product and dot is one IEEE multiply:
    elementwise, it gives the bits of the one-element BLAS call without the
    call.  The squared norm is the sum of squares ``np.linalg.norm`` takes
    the square root of (in d=1 x*x; |x| differs once x*x underflows).  Dots
    and squared norms write into ``out`` (L, m).
    """
    if d == 1:
        def dot(x, y, out):
            return np.multiply(x[..., 0], y[..., 0], out=out)

        return np.multiply, dot, lambda x, out: dot(x, x, out)

    def dot(x, y, out):
        return np.einsum("lij,lij->li" if y.ndim == 3 else "lij,ij->li", x, y, out=out)

    def square_norm(x, out):
        return np.add.reduce(x * x, axis=-1, out=out)

    return np.matmul, dot, square_norm


def _draw_block(streams, first, dw, tile, rows: int, sqrt_h: float, resume, save) -> None:
    """Fill ``dw[:rows]`` (rows, m, d) with the next ``rows`` draws of each path, times sqrt(h).

    Path p draws from ``streams(first + p)``, one generator re-keyed per path
    (:func:`market.substreams`): from row p of ``resume`` where an earlier
    block left its stream, or from the start if ``resume`` is None.  Unless
    ``save`` is None, its row p receives where this block leaves the
    stream.  A path's draws are one contiguous run; they are drawn straight
    into the path-major ``tile`` and copied transposed into ``dw`` a tile at
    a time, so neither side is written a scattered column at a time.
    """
    width, d = tile.shape[0], tile.shape[2]
    m = dw.shape[1]
    for lo in range(0, m, width):
        count = min(width, m - lo)
        for i in range(count):
            p = lo + i
            rng = streams(first + p, None if resume is None else resume[p])
            brownian_increments(rng, rows, d, out=tile[i, :rows])
            if save is not None:
                stream_place(rng, save[p])
        dst = dw[:rows, lo:lo + count]
        np.multiply(tile[:count, :rows].transpose(1, 0, 2), sqrt_h, out=dst)


def _hedge_chunk(args, record: bool = False, frozen_targets=None) -> tuple:
    """Paths ``start..stop-1`` through the tracking hedge: the one engine loop.

    Every impact in ``lams`` is stepped on the same grid and price paths,
    along a leading impact axis, so each path's increments are drawn once for
    all of them: in blocks of steps from the path's substream, drawn by one
    generator re-keyed per path, with each path's place in its stream saved
    between blocks when there are several (:func:`_draw_block`).  The step
    writes into buffers allocated once per chunk, and in d=1 multiplies
    elementwise where the matrix products are 1x1 (:func:`_products`);
    either way every bit is that of the plain matrix expressions.  Returns
    the seven :class:`HedgeBatch` arrays flattened impact-major (first axis
    L*m), then, if ``record`` is set for a single impact, (prices,
    positions, rates, targets) at every knot, else None.  ``frozen_targets``
    (n, d) replaces the live targets of every path.
    """
    (a_risk, lams, model, payoff, phi0, n, h, seed, start, stop) = args
    d = model.d
    m = stop - start
    n_lam = len(lams)
    sqrt_a, sqrt_h = math.sqrt(a_risk), math.sqrt(h)
    relax = np.stack([step_matrix(a_risk, lam, model.sigma, h) for lam in lams])
    lam_col = np.asarray(lams, dtype=float)[:, None]
    half_lam = 0.5 * lam_col
    target_fn = _closed_form_delta_factory(a_risk, model, payoff)
    prod, dot, square_norm = _products(d)
    streams = substreams(seed)
    block = max(1, min(n, DRAW_BLOCK_DOUBLES // (m * d)))
    places = np.empty((m, STREAM_PLACE_WORDS), dtype=np.uint64) if block < n else None
    dw = np.empty((block, m, d))
    tile = np.empty((min(m, DRAW_TILE_PATHS), block, d))

    s = np.tile(model.s0, (m, 1))
    phi = np.tile(np.atleast_1d(np.asarray(phi0, dtype=float)), (n_lam, m, 1))
    phi_new, shifted, gap, rate = (np.empty_like(phi) for _ in range(4))
    ds = np.empty((m, d))
    v = np.zeros((n_lam, m))
    cost = np.zeros((n_lam, m))
    step_cost, scratch = np.empty((n_lam, m)), np.empty((n_lam, m))
    # the sup of the norms is the root of the sup of their squares, bit for bit
    sup_square = square_norm(phi, np.empty((n_lam, m)))
    mu_h = model.mu * h
    sigma_entries = model.sigma.entries
    if record:
        prices, positions = np.empty((m, n + 1, d)), np.empty((m, n + 1, d))
        rates, targets = np.empty((m, n, d)), np.empty((m, n, d))
        prices[:, 0], positions[:, 0] = s, phi[0]
    for k in range(n):
        j = k % block
        if j == 0:
            resume = places if k else None
            save = places if k + block < n else None
            _draw_block(streams, start, dw, tile, min(block, n - k), sqrt_h, resume, save)
        t_k = k * h
        if frozen_targets is None:
            # shifted = s - sqrt(A) (phi sigma)
            prod(phi, sigma_entries, out=shifted)
            shifted *= sqrt_a
            np.subtract(s, shifted, out=shifted)
            theta = target_fn(t_k, shifted.reshape(n_lam * m, d)).reshape(phi.shape)
        else:
            theta = np.broadcast_to(frozen_targets[k], phi.shape)
        # phi_new = theta + (phi - theta) relax, rate = (phi_new - phi) / h
        np.subtract(phi, theta, out=gap)
        prod(gap, relax, out=phi_new)
        phi_new += theta
        np.subtract(phi_new, phi, out=rate)
        rate /= h
        # ds = mu h + dW sigma
        prod(dw[j], sigma_entries, out=ds)
        ds += mu_h
        v += dot(phi, ds, scratch)
        # step_cost = (lam/2) <rate, rate> h
        dot(rate, rate, step_cost)
        step_cost *= half_lam
        step_cost *= h
        cost += step_cost
        v -= step_cost
        phi, phi_new = phi_new, phi
        s += ds
        np.maximum(sup_square, square_norm(phi, scratch), out=sup_square)
        if record:
            prices[:, k + 1], positions[:, k + 1] = s, phi[0]
            rates[:, k], targets[:, k] = rate[0], theta[0]
    f_t = np.asarray(payoff.evaluate(s), dtype=float)
    exponent = (a_risk / lam_col) * (f_t - v)
    knots = (prices, positions, rates, targets) if record else None
    return (
        np.tile(s, (n_lam, 1)), phi.reshape(n_lam * m, d), v.ravel(), np.tile(f_t, n_lam),
        exponent.ravel(), cost.ravel(), np.sqrt(sup_square).ravel(), knots,
    )


def run_hedge_batch(
    a_risk: float,
    lam: float | Sequence[float],
    model: BachelierModel,
    payoff: RidgePayoff,
    phi0,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
) -> HedgeBatch | list[HedgeBatch]:
    """Tracking hedge over many paths without materialising path objects.

    ``lam`` is one impact, giving one :class:`HedgeBatch`, or a sequence of
    impacts sharing ``grid``, giving one batch per impact in order; the
    impacts are stepped together on the same draws.  Paths are keyed
    substreams, chunk boundaries are fixed by ``chunk_size`` alone, and chunk
    results are reduced in index order, so output is bit-identical for any
    worker count.  The pool never exceeds the chunk count or the CPU count.
    """
    if n_paths < 1:
        raise InvalidParameterError("n_paths must be >= 1")
    lams, many = _as_impacts(lam)
    chunk_size = max(256, chunk_size // max(1, model.d))
    bounds = [(lo, min(lo + chunk_size, n_paths)) for lo in range(0, n_paths, chunk_size)]
    jobs = [
        (a_risk, lams, model, payoff, np.atleast_1d(np.asarray(phi0, dtype=float)),
         grid.n_steps, grid.dt, seed, lo, hi)
        for lo, hi in bounds
    ]
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        try:
            import multiprocessing as mp

            ctx = mp.get_context("fork")
            with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
                parts = list(pool.map(_hedge_chunk, jobs))
        except (OSError, ValueError, ImportError):  # pragma: no cover
            warnings.warn("process pool unavailable; running serially", RuntimeWarning)
            parts = [_hedge_chunk(j) for j in jobs]
    else:
        parts = [_hedge_chunk(j) for j in jobs]
    n_lam = len(lams)
    stacked = [
        np.concatenate([p[i].reshape(n_lam, -1, *p[i].shape[1:]) for p in parts], axis=1)
        for i in range(7)
    ]
    batches = [HedgeBatch(*(arr[l] for arr in stacked)) for l in range(n_lam)]
    return batches if many else batches[0]


def hedge_paths(
    a_risk: float,
    lam: float,
    model: BachelierModel,
    payoff: RidgePayoff,
    phi0,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    theta=None,
) -> HedgePaths:
    """Paths ``0..n_paths-1`` of :func:`run_hedge_batch`, with every knot kept.

    One chunk of the same engine at the same seed, so path i is the same
    whatever ``n_paths`` is and the terminal summary equals the batch's.
    ``theta`` (n, d) freezes the targets of every path, which makes the
    positions the frozen-coefficient solution :func:`duhamel_solution`
    reproduces independently.  Memory is O(n_paths * n * d): meant for
    verification, not production runs.
    """
    if n_paths < 1:
        raise InvalidParameterError("n_paths must be >= 1")
    n, d = grid.n_steps, model.d
    phi0 = np.atleast_1d(np.asarray(phi0, dtype=float))
    if phi0.shape != (d,):
        raise DimensionMismatchError(f"phi0 must have length {d}")
    if theta is not None:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (n, d):
            raise DimensionMismatchError(f"theta must be ({n}, {d})")
    job = (a_risk, (lam,), model, payoff, phi0, n, grid.dt, seed, 0, n_paths)
    *summary, knots = _hedge_chunk(job, record=True, frozen_targets=theta)
    return HedgePaths(grid, *knots, batch=HedgeBatch(*summary))


def supermartingale_check_mc(
    a_risk: float,
    lam: float,
    model: BachelierModel,
    payoff: RidgePayoff,
    phi0,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> tuple[float, float]:
    """Empirical mean and standard error of the corrected terminal ratio.

    Uses only the terminal entry of the certification process relative to its
    deterministic initial value; the continuous-time theory puts the mean at
    or below one.  Ratios whose mean or spread overflows raise
    :class:`OverflowGuardError`.
    """
    batch = run_hedge_batch(a_risk, lam, model, payoff, phi0, grid, n_paths, seed, workers)
    return _certificate_ratio(a_risk, lam, model, payoff, phi0, batch)


def _certificate_ratio(
    a_risk: float, lam: float, model: BachelierModel, payoff: RidgePayoff, phi0, batch: HedgeBatch
) -> tuple[float, float]:
    """Mean and standard error of the corrected terminal ratio over ``batch``.

    The reducer of :func:`supermartingale_check_mc`, for a caller that also
    needs the batch for something else (``check`` builds its certainty
    equivalent from the same paths).
    """
    n_paths = len(batch.terminal_wealth)
    phi0 = np.atleast_1d(np.asarray(phi0, dtype=float))[None, :]
    log_m_t = _certificate_log(
        a_risk, lam, model, payoff, model.T, batch.s_terminal, batch.phi_terminal,
        phi0, batch.terminal_wealth,
    )
    log_m_0 = _certificate_log(a_risk, lam, model, payoff, 0.0, model.s0[None, :], phi0, phi0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.exp(log_m_t - log_m_0)
        mean = float(ratios.mean())
        se = float(ratios.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise OverflowGuardError("certificate ratios left the representable range")
    return mean, se
