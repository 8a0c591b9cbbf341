"""Closed-form references and small statistics helpers for the benchmark.

Everything here is written from the formulas alone, in plain Python, so the
gates in :mod:`workloads` do not trust the code they check.

Notation: ``sigma`` is the d x d volatility matrix as nested rows, ``a`` the
ridge direction, ``b`` the offset, ``A`` the risk parameter.  For a ridge
payoff h(<a, x> + b) the inflated claim only sees the scalar
z = <a, x> + b and the scale s = sqrt(T - t) |a sigma|.
"""

from __future__ import annotations

import math

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def norm_cdf(m: float) -> float:
    return 0.5 * math.erfc(-m / SQRT2)


def norm_pdf(m: float) -> float:
    return INV_SQRT_2PI * math.exp(-0.5 * m * m)


def _a_sigma(a, sigma) -> list[float]:
    d = len(a)
    return [sum(float(a[i]) * float(sigma[i][j]) for i in range(d)) for j in range(d)]


def _dot(u, v) -> float:
    return sum(float(x) * float(y) for x, y in zip(u, v))


def _ridge_terms(a_risk, a, b, sigma, T, t, x):
    """(z, s, <a sigma, a>) for the ridge payoff at time t and spot x."""
    a_sig = _a_sigma(a, sigma)
    z = _dot(a, x) + float(b)
    s = math.sqrt(max(T - t, 0.0) * _dot(a_sig, a_sig))
    return z, s, _dot(a_sig, a)


def basket_call(a_risk, a, b, sigma, T, t, x) -> tuple[float, list[float]]:
    """Inflated basket call: s (m Phi(m) + phi(m)), delta a Phi(m).

    m = (<a, x> + b + sqrt(A) <a sigma, a> / 2) / s.
    """
    z, s, quad = _ridge_terms(a_risk, a, b, sigma, T, t, x)
    m = (z + 0.5 * math.sqrt(a_risk) * quad) / s
    cdf = norm_cdf(m)
    return s * (m * cdf + norm_pdf(m)), [float(ai) * cdf for ai in a]


def straddle(a_risk, a, b, sigma, T, t, x) -> tuple[float, list[float]]:
    """Inflated straddle |<a, x> + b|.

    The sup-convolution shifts the kink away by sqrt(A) a sigma in the sign
    direction, so g(x) = |z| + sqrt(A) <a sigma, a> / 2 and
    u = s (m (2 Phi(m) - 1) + 2 phi(m)) + sqrt(A) <a sigma, a> / 2 with
    m = z / s; delta = a (2 Phi(m) - 1).
    """
    z, s, quad = _ridge_terms(a_risk, a, b, sigma, T, t, x)
    m = z / s
    odd = 2.0 * norm_cdf(m) - 1.0
    price = s * (m * odd + 2.0 * norm_pdf(m)) + 0.5 * math.sqrt(a_risk) * quad
    return price, [float(ai) * odd for ai in a]


def ess_frac_from_se(se: float, lam: float, a_risk: float, n: int) -> float:
    """ESS / n of the CE weights implied by the reported CE standard error.

    The CE is (lam/A) log mean(w) and its delta-method error is
    se = (lam/A) sd1(w) / (mean(w) sqrt(n)), with sd1 the ddof=1 deviation.
    Kish's ESS is (sum w)^2 / sum w^2 = n / (1 + cv0^2), where cv0 uses the
    ddof=0 variance, cv0^2 = cv1^2 (n - 1) / n and cv1^2 = n (A se / lam)^2.
    Without the (n - 1)/n factor this is the 1 / (1 + n (A se / lam)^2) form.
    """
    cv1_sq = n * (a_risk * se / lam) ** 2
    return 1.0 / (1.0 + cv1_sq * (n - 1) / n)


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)
