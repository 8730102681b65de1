"""Prior construction, sampling, and smoothed-marginal identities."""

import math

import numpy as np
import pytest

from pnpmmse import (
    BernoulliGaussianPrior,
    marginal_density,
    neg_log_marginal,
    neg_log_marginal_prime,
    neg_log_marginal_second,
    sample_signal,
)

from oracles import central_diff, gaussian_pdf, quad_marginal_density

PARAMS = [
    BernoulliGaussianPrior(0.2),
    BernoulliGaussianPrior(0.1),
    BernoulliGaussianPrior(0.5, 1.7),
    BernoulliGaussianPrior(0.9, 0.8),
    BernoulliGaussianPrior(1.0, 1.0),
]
SIGMAS = [0.05, 0.25, 0.5, 1.0, 0.37]


def wide_grid(prior, sigma, points=201):
    half = 10.0 * (prior.sigma_x + sigma)
    return np.linspace(-half, half, points)


class TestPriorConstruction:
    def test_default_ties_variance_to_sparsity(self):
        prior = BernoulliGaussianPrior(0.25)
        assert prior.sigma_x == pytest.approx(2.0)
        assert prior.variance == pytest.approx(1.0)

    def test_explicit_sigma_x_decouples(self):
        prior = BernoulliGaussianPrior(0.25, sigma_x=3.0)
        assert prior.sigma_x == 3.0
        assert prior.variance == pytest.approx(0.25 * 9.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_invalid_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            BernoulliGaussianPrior(alpha)

    def test_invalid_sigma_x_rejected(self):
        with pytest.raises(ValueError):
            BernoulliGaussianPrior(0.5, sigma_x=0.0)


class TestSampling:
    def test_pure_gaussian_moments(self):
        n = 100_000
        x = sample_signal(BernoulliGaussianPrior(1.0, 1.0), n, np.random.default_rng(11))
        assert abs(np.mean(x)) < 3.0 / math.sqrt(n)
        assert np.var(x) == pytest.approx(1.0, rel=0.05)

    def test_zero_fraction_tracks_sparsity(self):
        n = 100_000
        x = sample_signal(BernoulliGaussianPrior(0.2), n, np.random.default_rng(12))
        assert np.mean(x == 0.0) == pytest.approx(0.8, abs=0.01)

    def test_deterministic_given_seed(self):
        prior = BernoulliGaussianPrior(0.3)
        a = sample_signal(prior, 64, np.random.default_rng(99))
        b = sample_signal(prior, 64, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_empty_draw_rejected(self):
        with pytest.raises(ValueError):
            sample_signal(BernoulliGaussianPrior(0.5), 0, np.random.default_rng(0))


class TestMarginalDensity:
    def test_no_atom_reduces_to_gaussian(self):
        prior = BernoulliGaussianPrior(1.0, 1.3)
        sigma = 0.4
        z = np.linspace(-8, 8, 33)
        expected = gaussian_pdf(math.sqrt(prior.sigma_x**2 + sigma**2), z)
        np.testing.assert_allclose(marginal_density(prior, sigma, z), expected, rtol=1e-12)

    def test_matches_quadrature(self):
        prior = BernoulliGaussianPrior(0.2, math.sqrt(5.0))
        value = marginal_density(prior, 0.5, 1.3)
        oracle = quad_marginal_density(prior, 0.5, 1.3)
        assert value == pytest.approx(oracle, rel=1e-10)

    def test_tails_decay_monotonically(self):
        prior = BernoulliGaussianPrior(0.2)
        sigma = 0.5
        start = 3.0 * (prior.sigma_x + sigma)
        z = np.linspace(start, 4 * start, 200)
        vals = marginal_density(prior, sigma, z)
        assert np.all(np.diff(vals) < 0)
        vals_neg = marginal_density(prior, sigma, -z)
        assert np.all(np.diff(vals_neg) < 0)

    def test_nonfinite_z_rejected(self):
        prior = BernoulliGaussianPrior(0.2)
        with pytest.raises(ValueError):
            marginal_density(prior, 0.5, np.inf)
        with pytest.raises(ValueError):
            marginal_density(prior, 0.5, np.array([0.0, np.nan]))

    @pytest.mark.parametrize("prior", PARAMS)
    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_positive_on_wide_grid(self, prior, sigma):
        assert np.all(marginal_density(prior, sigma, wide_grid(prior, sigma)) > 0)

    @pytest.mark.parametrize("prior", PARAMS[:3])
    def test_integrates_to_one(self, prior):
        from scipy.integrate import quad

        sigma = 0.5
        half = 14.0 * (prior.sigma_x + sigma)
        total, _ = quad(lambda t: marginal_density(prior, sigma, t), -half, half, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("prior", PARAMS)
    def test_even_symmetry(self, prior):
        z = wide_grid(prior, 0.3, 41)
        np.testing.assert_allclose(
            marginal_density(prior, 0.3, z), marginal_density(prior, 0.3, -z), rtol=1e-13
        )


class TestNegLogMarginal:
    def test_gaussian_closed_form(self):
        prior = BernoulliGaussianPrior(1.0, 1.0)
        sigma = 0.7
        s2 = prior.sigma_x**2 + sigma**2
        z = np.linspace(-6, 6, 25)
        expected = z**2 / (2 * s2) + 0.5 * math.log(2 * math.pi * s2)
        np.testing.assert_allclose(neg_log_marginal(prior, sigma, z), expected, rtol=1e-12)
        np.testing.assert_allclose(neg_log_marginal_prime(prior, sigma, z), z / s2, rtol=1e-12)

    @pytest.mark.parametrize("prior", PARAMS)
    @pytest.mark.parametrize("sigma", [0.25, 0.8])
    def test_prime_matches_finite_difference(self, prior, sigma):
        z = wide_grid(prior, sigma, 41)
        fd = central_diff(lambda t: neg_log_marginal(prior, sigma, t), z, 1e-5)
        np.testing.assert_allclose(neg_log_marginal_prime(prior, sigma, z), fd, atol=1e-6)

    @pytest.mark.parametrize("prior", PARAMS)
    @pytest.mark.parametrize("sigma", [0.25, 0.8])
    def test_second_matches_finite_difference(self, prior, sigma):
        z = wide_grid(prior, sigma, 41)
        fd = central_diff(lambda t: neg_log_marginal_prime(prior, sigma, t), z, 1e-5)
        np.testing.assert_allclose(neg_log_marginal_second(prior, sigma, z), fd, atol=1e-5)

    @pytest.mark.parametrize("prior", PARAMS)
    def test_prime_vanishes_at_origin(self, prior):
        assert neg_log_marginal_prime(prior, 0.5, 0.0) == 0.0

    @pytest.mark.parametrize("prior", PARAMS)
    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_scalar_jacobian_positivity(self, prior, sigma):
        z = wide_grid(prior, sigma)
        curvature = neg_log_marginal_second(prior, sigma, z)
        assert np.all(1.0 - sigma**2 * curvature > 0.0)

    def test_finite_deep_in_tails(self):
        # log-domain evaluation must not produce infinities at huge iterates
        prior = BernoulliGaussianPrior(0.2)
        value = neg_log_marginal(prior, 0.1, 1e6)
        assert np.isfinite(value)
        assert np.isfinite(neg_log_marginal_prime(prior, 0.1, 1e6))
        assert np.isfinite(neg_log_marginal_second(prior, 0.1, 1e6))
