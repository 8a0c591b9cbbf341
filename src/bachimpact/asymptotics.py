"""Certainty-equivalent estimators, the dual lower-bound functional, and the
hyperbolic kernel family with its small-impact limits.

The two sides of the scaling limit are checked from here: the Monte Carlo
certainty equivalent along the tracking hedge approaches the limit from the
primal side, while the dual functional evaluated at any bounded selector
bounds the limit from below, with equality at the optimal selector; one
call evaluates it at many selectors in one pass per node set.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InvalidParameterError,
    OverflowGuardError,
    SingularDenominatorError,
)
from .linalg import (
    SpdMatrix, from_spectrum, hyperbolic_ratio, inverse, row_dot, row_sq_norms, row_vec_mul,
)
from .market import (
    BachelierModel,
    RidgePayoff,
    TimeGrid,
    _search_radius,
    substreams,
    sup_convolve_argmax,
)
from .hedging import HedgeBatch, _as_impacts, run_hedge_batch
from .pricing import QuadratureRule, coarsen_rule, default_quadrature

LAM_DESK_FLOOR = 0.02
# Monte Carlo sample count of the dual where no default rule exists (d >= 4)
DUAL_MC_SAMPLES = 100_000


@dataclass(frozen=True)
class CeEstimate:
    """Log-domain Monte Carlo estimate of a certainty equivalent."""

    value: float
    std_error: float
    n_paths: int
    lam: float
    a_risk: float


@dataclass(frozen=True)
class DualSpec:
    """A candidate selector for the dual functional.

    ``h`` maps terminal Brownian values (m, d) to displacement rows (m, d).
    ``bound`` documents the selector's sup-norm when ``bounded`` is set and is
    checked on the sampled points as a diagnostic.
    """

    h: Callable[[np.ndarray], np.ndarray]
    bounded: bool = True
    bound: float = float("inf")
    name: str = "dual"

    def displacements(self, w_terminal: np.ndarray) -> np.ndarray:
        y = np.asarray(self.h(w_terminal), dtype=float)
        if self.bounded and np.isfinite(self.bound):
            # the root of the largest squared norm is the largest norm, bit for bit in
            # d <= 7; from d = 8 only where the warning starts can move
            worst = math.sqrt(row_sq_norms(y).max(initial=0.0))
            if worst > self.bound * (1.0 + 1e-9) + 1e-12:
                warnings.warn(
                    f"dual spec {self.name!r} exceeded its declared bound "
                    f"({worst:.4g} > {self.bound:.4g})",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return y


def _log_mean_exp(exponents: np.ndarray) -> tuple[float, float, float]:
    """Shifted log-sum-exp with the pieces needed for the delta method."""
    if not np.all(np.isfinite(exponents)):
        raise OverflowGuardError("utility exponents left the representable range")
    mx = float(exponents.max())
    w = np.exp(exponents - mx)
    mean_w = float(w.mean())
    sd_w = float(w.std(ddof=1)) if len(w) > 1 else 0.0
    return math.log(mean_w) + mx, mean_w, sd_w


def certainty_equivalent_mc(
    a_risk: float,
    lam: float | Sequence[float],
    model: BachelierModel,
    payoff: RidgePayoff,
    phi0,
    n_paths: int,
    grid: TimeGrid,
    seed: int,
    workers: int = 1,
) -> CeEstimate | list[CeEstimate]:
    """Certainty equivalent along the tracking hedge, by simulation.

    Exponents (A/lam)(payoff - wealth) are aggregated with a shifted
    log-sum-exp so large ratios never overflow; the standard error comes from
    the delta method on the exponential mean.  The tracking family is
    asymptotically optimal rather than exactly infimising, so for finite
    impact this is an upper-bound proxy that converges to the limit value.
    ``lam`` is one impact, giving one :class:`CeEstimate`, or a sequence of
    impacts sharing ``grid``, giving one estimate per impact in order from
    one pass over the same paths.  Fewer than 2 paths raise
    :class:`InvalidParameterError`: one path has no standard error.
    """
    if n_paths < 2:
        raise InvalidParameterError(f"n_paths = {n_paths}: a standard error needs at least 2 paths")
    lams, many = _as_impacts(lam)
    for impact in lams:
        if impact <= 0.0 or a_risk <= 0.0:
            raise InvalidParameterError("lam and a_risk must be positive")
        if impact < LAM_DESK_FLOOR:
            warnings.warn(
                f"lam={impact} below the desk floor {LAM_DESK_FLOOR}; "
                "exponential-moment variance may be extreme",
                RuntimeWarning,
                stacklevel=2,
            )
    batches = run_hedge_batch(
        a_risk, lams, model, payoff, phi0, grid, n_paths, seed, workers=workers
    )
    estimates = [_ce_estimate(a_risk, impact, batch) for impact, batch in zip(lams, batches)]
    return estimates if many else estimates[0]


def _ce_estimate(a_risk: float, lam: float, batch: HedgeBatch) -> CeEstimate:
    """Certainty equivalent at one impact from that impact's hedged ``batch``.

    The per-impact reducer of :func:`certainty_equivalent_mc`, for a caller
    that also needs the batch for something else.
    """
    n_paths = len(batch.utility_exponent)
    log_mean, mean_w, sd_w = _log_mean_exp(batch.utility_exponent)
    std_error = 0.0
    if sd_w > 0.0:
        std_error = (lam / a_risk) * sd_w / (mean_w * math.sqrt(n_paths))
    return CeEstimate(
        value=(lam / a_risk) * log_mean, std_error=std_error, n_paths=n_paths,
        lam=lam, a_risk=a_risk,
    )


def dual_lower_bound(
    a_risk: float,
    model: BachelierModel,
    payoff: RidgePayoff,
    phi0,
    spec: DualSpec | Sequence[DualSpec],
    rule: QuadratureRule | None = None,
    seed: int = 0,
) -> tuple[float, float] | list[tuple[float, float]]:
    """Value of the dual functional at one selector or at each of several.

    Expectation over the terminal Brownian value of

        f(s0 + w sigma - Y) + <phi0, Y> - <Y, Y sigma^{-1}>/(2 sqrt A),

    with Y = spec(w).  Any bounded measurable selector yields a valid lower
    bound for the scaling limit.  On ``rule``, by default the dimension's
    default rule (d <= 3), it reports the half-resolution refinement gap as
    its tolerance.  Without one (d >= 4) it draws DUAL_MC_SAMPLES antithetic
    normals from the stream ``(seed, 0xD0A1)``, so the odd sample moments
    vanish exactly, and reports a standard error.  ``spec`` is one selector,
    giving one ``(value, tol)``, or a sequence of selectors, giving one pair
    per selector in order: each node set, and its s0 + w sigma, is then
    built once for all of them, and the sample is drawn once per call.
    """
    if a_risk <= 0.0:
        raise InvalidParameterError("a_risk must be positive")
    many = not isinstance(spec, DualSpec)
    specs = list(spec) if many else [spec]
    phi0 = np.atleast_1d(np.asarray(phi0, dtype=float))
    sig_inv = inverse(model.sigma).entries
    scale = 2.0 * math.sqrt(a_risk)

    def terms(z: np.ndarray):
        """The integrand at each selector in turn, on standard normal nodes z."""
        w_terminal = math.sqrt(model.T) * z
        base = model.s0[None, :] + w_terminal @ model.sigma.entries
        for s in specs:
            y = s.displacements(w_terminal)
            payoff_vals = np.asarray(payoff.evaluate(base - y), dtype=float)
            yield row_dot(y, phi0, payoff_vals) - _penalty(y, sig_inv) / scale

    def on_rule(r: QuadratureRule) -> list[float]:
        # a fixed-order sum: a BLAS dot rounds differently with its thread count
        return [float(np.sum(r.weights * t)) for t in terms(r.nodes)]

    rule = rule if rule is not None else default_quadrature(model.d)
    if rule is not None:
        coarse = on_rule(coarsen_rule(rule))
        results = [(value, abs(value - c)) for value, c in zip(on_rule(rule), coarse)]
    else:
        half = substreams(seed)(0xD0A1).standard_normal((DUAL_MC_SAMPLES // 2, model.d))
        results = [
            (float(t.mean()), float(t.std(ddof=1) / math.sqrt(len(t))))
            for t in terms(np.vstack([half, -half]))
        ]
    return results if many else results[0]


def _penalty(y: np.ndarray, sig_inv: np.ndarray) -> np.ndarray:
    """Row-wise <y, y sig_inv>, summed in ``np.einsum("ij,jk,ik->i")``'s
    order so it keeps its bits: j outside, k inside, each term (y_j s_jk) y_k,
    the sum starting from the first term."""
    cols = np.ascontiguousarray(y.T)
    terms = ((cols[j] * sig_inv[j, k]) * cols[k] for j, k in np.ndindex(sig_inv.shape))
    return functools.reduce(np.add, terms)


def optimal_dual_Y(a_risk: float, model: BachelierModel, payoff: RidgePayoff, phi0) -> DualSpec:
    """Selector achieving the scaling limit in the dual functional.

    At each terminal Brownian value w, evaluate the inflated payoff's exact
    displacement at x = s0 - sqrt(A) phi0 sigma + w sigma; the selector is
    the NEGATED displacement plus the constant inventory shift
    sqrt(A) phi0 sigma.  (The dual functional evaluates the payoff at
    s0 + w sigma - Y, so recovering f(x + y*) requires Y to carry -y*.)
    """
    phi0 = np.atleast_1d(np.asarray(phi0, dtype=float))
    sqa = math.sqrt(a_risk)
    base_shift = sqa * row_vec_mul(phi0, model.sigma.entries)

    def selector(w_terminal: np.ndarray) -> np.ndarray:
        x = model.s0[None, :] - base_shift[None, :] + w_terminal @ model.sigma.entries
        return -sup_convolve_argmax(payoff, a_risk, model.sigma, x) + base_shift[None, :]

    # the maximiser lies within the search radius of the origin
    bound = _search_radius(payoff, a_risk, model.sigma) + float(np.linalg.norm(base_shift))
    return DualSpec(h=selector, bounded=True, bound=bound, name="optimal")


# ---------------------------------------------------------------------------
# kernel family
# ---------------------------------------------------------------------------


def _kernel_pre(lam: float, T: float, t: float, s: float, s_strict: bool) -> None:
    if lam <= 0.0:
        raise InvalidParameterError("lam must be positive")
    if not (0.0 <= s <= t <= T):
        raise InvalidParameterError(f"need 0 <= s <= t <= T, got s={s}, t={t}, T={T}")
    if s_strict and s >= T:
        raise SingularDenominatorError("kernel denominator vanishes at s = T")


def kernel_K(
    a_risk: float, lam: float, sigma: SpdMatrix, T: float, t: float, s: float
) -> np.ndarray:
    """cosh(sqrt(A)(T-t) sigma/lam) sinh(sqrt(A)(T-s) sigma/lam)^{-1}."""
    _kernel_pre(lam, T, t, s, s_strict=True)
    c = math.sqrt(a_risk) / lam
    return hyperbolic_ratio(sigma, "cosh", "sinh", c * (T - t), c * (T - s))


def kernel_G(a_risk: float, lam: float, sigma: SpdMatrix, T: float, t: float) -> np.ndarray:
    """sinh(sqrt(A)(T-t) sigma/lam) sinh(sqrt(A) T sigma/lam)^{-1}."""
    _kernel_pre(lam, T, t, 0.0, s_strict=True)
    c = math.sqrt(a_risk) / lam
    return hyperbolic_ratio(sigma, "sinh", "sinh", c * (T - t), c * T)


def kernel_L(
    a_risk: float, lam: float, sigma: SpdMatrix, T: float, t: float, s: float
) -> np.ndarray:
    """sinh(sqrt(A)(T-t) sigma/lam) sinh(sqrt(A)(T-s) sigma/lam)^{-1}."""
    _kernel_pre(lam, T, t, s, s_strict=True)
    c = math.sqrt(a_risk) / lam
    return hyperbolic_ratio(sigma, "sinh", "sinh", c * (T - t), c * (T - s))


def _stable_inv_sinh_sq(y: np.ndarray) -> np.ndarray:
    # 1/sinh^2(y) = 4 e^{-2y} / (1 - e^{-2y})^2  for y > 0
    e = np.exp(-2.0 * y)
    return 4.0 * e / (1.0 - e) ** 2


def _stable_coth(y: np.ndarray) -> np.ndarray:
    e = np.exp(-2.0 * y)
    return (1.0 + e) / (1.0 - e)


def kernel_limit_integral(
    a_risk: float,
    lam: float,
    sigma: SpdMatrix,
    T: float,
    s: float,
    which: str = "K",
) -> np.ndarray:
    """(1/(2 lam)) * integral over t in [s, T] of the squared kernel.

    Evaluated per eigenvalue by the closed antiderivative of cosh^2/sinh^2,
    in overflow-free exponential form; converges to sigma^{-1}/(4 sqrt A) as
    the impact vanishes, exponentially fast.
    """
    _kernel_pre(lam, T, s, s, s_strict=True)
    if which not in ("K", "L"):
        raise InvalidParameterError("which must be 'K' or 'L'")
    tau = T - s
    c = math.sqrt(a_risk) * sigma.eig_values / lam
    y = c * tau
    boundary = 0.5 * tau * _stable_inv_sinh_sq(y)
    bulk = _stable_coth(y) / (2.0 * c)
    vals = (boundary + bulk) if which == "K" else (bulk - boundary)
    return from_spectrum(sigma.eig_vectors, vals / (2.0 * lam))


def kernel_time_integral(
    a_risk: float, lam: float, sigma: SpdMatrix, T: float, s: float
) -> np.ndarray:
    """Adaptive time quadrature of kernel_K over [s, T], as a cross-check.

    The identity (sqrt A / lam) * integral = sigma^{-1} holds for every s;
    this routine intentionally avoids the closed antiderivative so it can
    verify the kernels independently.  The integrand's boundary layer near
    t = s is split off explicitly for the adaptive integrator.
    """
    from scipy.integrate import quad  # only this cross-check integrates adaptively

    _kernel_pre(lam, T, s, s, s_strict=True)
    c = math.sqrt(a_risk) / lam
    vals = np.empty(sigma.dim)
    for i, eig in enumerate(sigma.eig_values):

        def integrand(t, eig=eig):
            p = c * (T - t) * eig
            q_ = c * (T - s) * eig
            return math.exp(p - q_) * (1.0 + math.exp(-2.0 * p)) / (1.0 - math.exp(-2.0 * q_))

        split = min(s + 10.0 / (c * eig), T)
        total, _ = quad(integrand, s, split, limit=200)
        if split < T:
            tail, _ = quad(integrand, split, T, limit=200)
            total += tail
        vals[i] = total
    return from_spectrum(sigma.eig_vectors, vals)
