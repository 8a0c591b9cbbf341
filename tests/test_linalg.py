import math

import numpy as np
import pytest

from bachimpact import (
    DimensionMismatchError,
    InvalidParameterError,
    NonFiniteResultError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SingularDenominatorError,
    apply_scalar_function,
    hyperbolic_ratio,
    inverse,
    make_spd,
    mat_exp,
    quad_form,
    row_vec_mul,
)
from bachimpact.linalg import from_spectrum


def random_spd(rng, d, scale=1.0):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    eigs = rng.uniform(0.2, 1.0, size=d) * scale
    return make_spd((q * eigs) @ q.T)


class TestMakeSpd:
    def test_identity(self):
        m = make_spd(np.eye(2))
        assert np.allclose(m.eig_values, [1.0, 1.0])
        assert m.dim == 2

    def test_diagonal(self):
        m = make_spd([[2.0, 0.0], [0.0, 3.0]])
        assert np.allclose(sorted(m.eig_values), [2.0, 3.0])

    def test_indefinite_rejected(self):
        # eigenvalues (a+c +- sqrt((a-c)^2 + 4 b^2))/2 = 3, -1
        with pytest.raises(NotPositiveDefiniteError):
            make_spd([[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetricError):
            make_spd([[1.0, 0.1], [0.0, 1.0]])

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParameterError, match="finite"):
                make_spd([[bad]])
            with pytest.raises(InvalidParameterError, match="finite"):
                make_spd([[1.0, bad], [bad, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            make_spd(np.ones((2, 3)))

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        for d in (1, 2, 3, 4):
            m = random_spd(rng, d)
            assert np.abs(from_spectrum(m.eig_vectors, m.eig_values) - m.entries).max() < 1e-10
            gram = m.eig_vectors.T @ m.eig_vectors
            assert np.abs(gram - np.eye(d)).max() < 1e-10


class TestScalarFunctions:
    def test_exp_diagonal(self):
        m = make_spd([[math.log(2.0)]])
        assert apply_scalar_function(m, np.exp)[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_cosh_at_zero_scale(self):
        m = make_spd([[1.0]])
        out = apply_scalar_function(m, lambda lam: np.cosh(0.0 * lam))
        assert out[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_sinh_diagonal(self):
        m = make_spd([[1.0, 0.0], [0.0, 2.0]])
        out = apply_scalar_function(m, np.sinh)
        assert out[0, 0] == pytest.approx(math.sinh(1.0), abs=1e-12)
        assert out[1, 1] == pytest.approx(math.sinh(2.0), abs=1e-12)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_overflow_raises(self):
        m = make_spd([[800.0]])
        with pytest.raises(NonFiniteResultError):
            apply_scalar_function(m, np.exp)


class TestRatioFunction:
    """Ratios of spectral functions, evaluated directly on the spectrum."""

    def test_equal_arguments_identity(self):
        rng = np.random.default_rng(3)
        m = random_spd(rng, 3)
        out = apply_scalar_function(m, lambda lam: np.sinh(lam) / np.sinh(lam))
        assert np.abs(out - np.eye(3)).max() < 1e-12

    def test_matches_apply_and_inverse(self):
        rng = np.random.default_rng(5)
        for d in (1, 2, 4):
            m = random_spd(rng, d, scale=2.0)
            direct = apply_scalar_function(m, lambda lam: np.cosh(lam) / np.sinh(lam))
            sinh_m = make_spd(apply_scalar_function(m, np.sinh))
            composed = apply_scalar_function(m, np.cosh) @ inverse(sinh_m).entries
            assert np.abs(direct - composed).max() < 1e-9


class TestHyperbolicRatio:
    def test_coth_like_value(self):
        m = make_spd([[1.0]])
        out = hyperbolic_ratio(m, "cosh", "sinh", 0.0, 1.0)
        assert out[0, 0] == pytest.approx(1.0 / math.sinh(1.0), abs=1e-9)

    def test_equal_sinh_identity(self):
        rng = np.random.default_rng(11)
        m = random_spd(rng, 3)
        out = hyperbolic_ratio(m, "sinh", "sinh", 2.5, 2.5)
        assert np.abs(out - np.eye(3)).max() < 1e-12

    def test_large_arguments_no_overflow(self):
        m = make_spd([[1.0]])
        out = hyperbolic_ratio(m, "cosh", "sinh", 400.0, 420.0)
        expected = math.exp(-20.0) * (1.0 + math.exp(-800.0)) / (1.0 - math.exp(-840.0))
        assert out[0, 0] == pytest.approx(expected, rel=1e-12)
        assert out[0, 0] == pytest.approx(2.0612e-9, rel=1e-4)

    def test_extreme_scales_stay_finite(self):
        rng = np.random.default_rng(13)
        m = random_spd(rng, 2)
        out = hyperbolic_ratio(m, "cosh", "sinh", 1e6, 1.2e6)
        assert np.all(np.isfinite(out))

    def test_zero_denominator_scale(self):
        m = make_spd([[1.0]])
        with pytest.raises(SingularDenominatorError):
            hyperbolic_ratio(m, "cosh", "sinh", 0.0, 0.0)

    def test_matches_direct_ratio(self):
        rng = np.random.default_rng(17)
        m = random_spd(rng, 3, scale=2.0)
        stable = hyperbolic_ratio(m, "cosh", "sinh", 0.7, 1.3)
        direct = apply_scalar_function(m, lambda lam: np.cosh(0.7 * lam) / np.sinh(1.3 * lam))
        assert np.abs(stable - direct).max() < 1e-12


def test_hyperbolic_identity_property():
    # cosh^2 - sinh^2 = I on random SPD matrices up to d = 4
    rng = np.random.default_rng(23)
    for d in (1, 2, 3, 4):
        for _ in range(5):
            m = random_spd(rng, d, scale=3.0)
            c = apply_scalar_function(m, np.cosh)
            s = apply_scalar_function(m, np.sinh)
            assert np.abs(c @ c - s @ s - np.eye(d)).max() < 1e-9


class TestInverseAndForms:
    def test_inverse_diagonal(self):
        m = make_spd([[2.0, 0.0], [0.0, 4.0]])
        inv = inverse(m)
        assert np.allclose(np.diag(inv.entries), [0.5, 0.25])

    def test_inverse_identity_property(self):
        rng = np.random.default_rng(29)
        for d in (1, 2, 3, 4):
            m = random_spd(rng, d)
            assert np.abs(inverse(m).entries @ m.entries - np.eye(d)).max() < 1e-10

    def test_quad_form_identity(self):
        assert quad_form([1.0, 1.0], np.eye(2)) == pytest.approx(2.0)

    def test_quad_form_expansion(self):
        assert quad_form([1.0, 2.0], [[2.0, 1.0], [1.0, 3.0]]) == pytest.approx(18.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            quad_form([1.0, 2.0, 3.0], np.eye(2))
        with pytest.raises(DimensionMismatchError):
            row_vec_mul([1.0], np.eye(2))

    def test_mat_exp_decay(self):
        m = make_spd([[2.0]])
        assert mat_exp(m, -0.5)[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-14)
