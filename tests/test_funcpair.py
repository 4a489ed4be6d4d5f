import math

import numpy as np
import pytest

from numrad.errors import InvalidFunctionError, OutOfRangeError
from numrad.funcpair import (
    FunctionPair,
    HolderPair,
    conjugate_exponent,
    pow_of_pair,
    power_pair,
    validate_pair,
)
from numrad.linalg import adjoint, polar_eigen, spectral_norm
from reference import fn_of_abs


class TestPowerPair:
    def test_half_is_sqrt(self):
        pair = power_pair(0.5)
        t = np.array([0.0, 1.0, 4.0, 9.0])
        assert np.allclose(pair.f(t), np.sqrt(t))
        assert np.allclose(pair.g(t), np.sqrt(t))

    def test_alpha_zero_convention(self):
        pair = power_pair(0.0)
        assert pair.f(2.0) == 1.0
        assert pair.g(2.0) == 2.0
        assert pair.f(0.0) == 1.0  # 0**0 = 1

    def test_product_identity(self):
        pair = power_pair(0.3)
        assert pair.f(5.0) * pair.g(5.0) == pytest.approx(5.0, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            power_pair(1.5)
        with pytest.raises(OutOfRangeError):
            power_pair(-0.1)


class TestValidatePair:
    def test_power_pairs_pass(self):
        samples = [0.0, 0.5, 1.0, 10.0, 123.4]
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            validate_pair(power_pair(alpha), samples)

    def test_product_mismatch_fails(self):
        bad = FunctionPair(f=lambda t: np.asarray(t, float),
                           g=lambda t: np.asarray(t, float), tag="t*t")
        with pytest.raises(InvalidFunctionError, match="max deviation 2.000e"):
            validate_pair(bad, [2.0])

    def test_negativity_fails(self):
        # f g = t holds here, so only the sign rule rejects the pair
        bad = FunctionPair(f=lambda t: -np.sqrt(np.asarray(t, float)),
                           g=lambda t: -np.sqrt(np.asarray(t, float)), tag="neg")
        with pytest.raises(InvalidFunctionError, match="min f=-"):
            validate_pair(bad, [1.0, 4.0])

    def test_fails_when_f_rejects_arrays(self):
        bad = FunctionPair(f=lambda t: math.sqrt(t), g=lambda t: np.sqrt(t), tag="scalar f")
        with pytest.raises(InvalidFunctionError, match="sample array"):
            validate_pair(bad, [1.0, 4.0])

    def test_rejects_bad_samples(self):
        with pytest.raises(OutOfRangeError):
            validate_pair(power_pair(0.5), [-1.0])


class TestPowOfPair:
    def test_half_squared_is_identity(self):
        fe, ge = pow_of_pair(power_pair(0.5), 2.0)
        t = np.array([0.0, 2.0, 7.0])
        assert np.allclose(fe(t), t)
        assert np.allclose(ge(t), t)

    def test_exponent_arithmetic(self):
        alpha, r = 0.3, 2.0
        fe, ge = pow_of_pair(power_pair(alpha), 2 * r)
        t = np.array([0.5, 1.0, 3.0])
        assert np.allclose(fe(t), t ** (2 * r * alpha))
        assert np.allclose(ge(t), t ** (2 * r * (1 - alpha)))

    def test_zero_exponent_is_one(self):
        fe, ge = pow_of_pair(power_pair(0.7), 0.0)
        t = np.array([0.0, 1.0, 5.0])
        assert np.allclose(fe(t), 1.0)
        assert np.allclose(ge(t), 1.0)

    def test_rejects_negative_exponent(self):
        with pytest.raises(OutOfRangeError):
            pow_of_pair(power_pair(0.5), -1.0)


class TestHolderPair:
    def test_conjugates_accepted(self):
        HolderPair(2.0, 2.0)
        HolderPair(1.25, 5.0)
        HolderPair(4.0, 4.0 / 3.0)

    def test_mismatch_rejected(self):
        with pytest.raises(OutOfRangeError):
            HolderPair(2.0, 3.0)

    def test_infinite_conjugate_rejected(self):
        with pytest.raises(OutOfRangeError):
            HolderPair(1.0, np.inf)

    def test_conjugate_exponent(self):
        hp = conjugate_exponent(4.0)
        assert hp.q == pytest.approx(4.0 / 3.0)
        with pytest.raises(OutOfRangeError):
            conjugate_exponent(1.0)


def test_power_pair_homogeneity_through_matrix_functions():
    # f**(2r)(|cX|) scales like c**(2 r alpha) for c > 0
    g = np.random.default_rng(0)
    x = (g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3)))
    alpha, r, c = 0.25, 1.5, 3.0
    fe, _ = pow_of_pair(power_pair(alpha), 2 * r)
    scaled = fn_of_abs(c * x, fe)
    base = fn_of_abs(x, fe)
    diff = spectral_norm(scaled - c ** (2 * r * alpha) * base)
    assert diff <= 1e-9 * spectral_norm(scaled)


def test_adjoint_spectra_share_validation_samples():
    g = np.random.default_rng(1)
    x = (g.standard_normal((3, 2)) + 1j * g.standard_normal((3, 2)))
    pair = power_pair(0.6)
    s_x, _ = polar_eigen(x)[0]
    s_xs, _ = polar_eigen(adjoint(x))[0]
    samples = np.concatenate([s_x, s_xs, [0.0, 1.0]])
    validate_pair(pair, samples)
