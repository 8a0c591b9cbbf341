"""Dense SPD matrix functions via spectral decomposition.

Everything downstream (volatility powers, relaxation matrices, hyperbolic
kernels) is a scalar function of one symmetric positive definite matrix, so
we eigendecompose once at construction and evaluate all functions on the
spectrum.  Dimensions are desk scale (d <= 4); no attempt at sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NonFiniteResultError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SingularDenominatorError,
)

SYMMETRY_RTOL = 1e-12
ORTHOGONALITY_TOL = 1e-10


@dataclass(frozen=True)
class SpdMatrix:
    """Symmetric positive definite matrix with cached spectral decomposition.

    Immutable after construction; all operations on it are pure, so instances
    are safe to share across workers.  Use :func:`make_spd` to build one.
    """

    entries: np.ndarray
    eig_values: np.ndarray
    eig_vectors: np.ndarray
    dim: int = field(default=0)

    @property
    def max_eig(self) -> float:
        return float(self.eig_values[-1])

    @property
    def min_eig(self) -> float:
        return float(self.eig_values[0])


def make_spd(entries) -> SpdMatrix:
    """Validate and decompose a symmetric positive definite matrix.

    Raises
    ------
    NotSymmetricError
        If ``entries`` deviates from its transpose by more than a 1e-12
        relative tolerance.
    NotPositiveDefiniteError
        If the smallest eigenvalue is <= 0.
    InvalidParameterError
        If an entry is NaN or infinite.
    """
    m = np.array(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidParameterError("matrix entries must be finite")
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > SYMMETRY_RTOL * scale:
        raise NotSymmetricError("matrix is not symmetric within 1e-12 relative tolerance")
    m = 0.5 * (m + m.T)
    eig_values, eig_vectors = np.linalg.eigh(m)
    if eig_values[0] <= 0.0:
        raise NotPositiveDefiniteError(f"minimum eigenvalue {eig_values[0]:.3e} is not positive")
    # eigh output is orthogonal to machine precision; assert the contract anyway
    gram_err = np.abs(eig_vectors.T @ eig_vectors - np.eye(m.shape[0])).max()
    if gram_err > ORTHOGONALITY_TOL:
        raise NotPositiveDefiniteError(f"eigenvector basis lost orthogonality ({gram_err:.1e})")
    return SpdMatrix(entries=m, eig_values=eig_values, eig_vectors=eig_vectors, dim=m.shape[0])


def from_spectrum(q: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Q diag(vals) Q^T, symmetrised so rounding leaves it exactly symmetric."""
    out = (q * vals) @ q.T
    return 0.5 * (out + out.T)


def apply_scalar_function(m: SpdMatrix, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Evaluate a scalar function on the spectrum: Q diag(fn(lambda)) Q^T.

    ``fn`` must be finite on the spectrum; overflow raises
    :class:`NonFiniteResultError`, which signals that the caller should switch
    to a stable ratio form (see :func:`hyperbolic_ratio`).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(fn(m.eig_values), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteResultError("scalar function overflowed on the spectrum")
    return from_spectrum(m.eig_vectors, vals)


def _hyp_half_terms(kind: str, y: np.ndarray) -> np.ndarray:
    # cosh(y) = e^y (1 + e^{-2y})/2, sinh(y) = e^y (1 - e^{-2y})/2 for y >= 0;
    # only the parenthesised correction is returned, the e^y is handled as a
    # shared exponent so no overflowing intermediate is ever formed.
    if kind == "cosh":
        return 1.0 + np.exp(-2.0 * y)
    if kind == "sinh":
        return 1.0 - np.exp(-2.0 * y)
    raise InvalidParameterError(f"unknown hyperbolic kind {kind!r}")


def hyperbolic_ratio(
    m: SpdMatrix,
    num: str,
    den: str,
    num_scale: float,
    den_scale: float,
) -> np.ndarray:
    """Stable hyperbolic ratio num(num_scale*lambda)/den(den_scale*lambda).

    Computes Q diag(r(lambda)) Q^T with

        r(lam) = e^{(p-q)} * corr_num(p) / corr_den(q),   p = num_scale*lam,
                                                          q = den_scale*lam,

    where corr are the (1 +- e^{-2y}) factors of cosh/sinh.  For the kernel
    family the numerator scale never exceeds the denominator scale, so the
    shared exponent e^{p-q} cannot overflow no matter how small the impact
    parameter gets.

    Parameters
    ----------
    num, den : {"cosh", "sinh"}
    num_scale, den_scale : float
        Non-negative spectral scale factors.
    """
    if num_scale < 0.0 or den_scale < 0.0:
        raise InvalidParameterError("hyperbolic_ratio requires non-negative scale factors")
    p = num_scale * m.eig_values
    q = den_scale * m.eig_values
    den_corr = _hyp_half_terms(den, q)
    if np.any(den_corr == 0.0):
        raise SingularDenominatorError(f"{den} vanishes at scale {den_scale}")
    vals = np.exp(p - q) * _hyp_half_terms(num, p) / den_corr
    if not np.all(np.isfinite(vals)):
        raise NonFiniteResultError("hyperbolic ratio overflowed (num_scale > den_scale?)")
    return from_spectrum(m.eig_vectors, vals)


def inverse(m: SpdMatrix) -> SpdMatrix:
    """Inverse via reciprocal eigenvalues, sharing the eigenbasis."""
    inv_vals = 1.0 / m.eig_values
    q = m.eig_vectors
    order = np.argsort(inv_vals)
    return SpdMatrix(
        entries=from_spectrum(q, inv_vals),
        eig_values=inv_vals[order],
        eig_vectors=q[:, order],
        dim=m.dim,
    )


def row_vec_mul(v, m) -> np.ndarray:
    """Row-vector times matrix, v M, with shape checking."""
    v = np.asarray(v, dtype=float)
    m = np.asarray(m, dtype=float)
    if v.shape[-1] != m.shape[0]:
        raise DimensionMismatchError(f"cannot multiply vector {v.shape} by matrix {m.shape}")
    return v @ m


def quad_form(v, m) -> float:
    """Quadratic form v M v^T for a row vector v."""
    v = np.asarray(v, dtype=float)
    m = np.asarray(m, dtype=float)
    if v.shape[-1] != m.shape[0] or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"quad_form shapes {v.shape}, {m.shape}")
    return float(v @ m @ v)


def mat_exp(m: SpdMatrix, scale: float) -> np.ndarray:
    """Matrix exponential exp(scale * M); scale <= 0 is always safe."""
    return apply_scalar_function(m, lambda lam: np.exp(scale * lam))
