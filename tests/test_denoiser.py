"""Denoiser identities, the inverse map, and the induced regularizer."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pnpmmse import (
    BernoulliGaussianPrior,
    InducedRegularizer,
    MmseDenoiser,
    neg_log_marginal,
    posterior_mean,
    posterior_moments,
)
from pnpmmse.denoiser import _INVERT_TOL, _induced_terms

from oracles import brentq_invert, central_diff, gaussian_pdf, grad_central_diff, quad_posterior_stats

SETTINGS = [
    (BernoulliGaussianPrior(0.2), 0.5),
    (BernoulliGaussianPrior(0.1), 0.25),
    (BernoulliGaussianPrior(0.5, 1.7), 1.0),
    (BernoulliGaussianPrior(0.9, 0.8), 0.05),
    (BernoulliGaussianPrior(1.0, 1.0), 0.37),
]


@st.composite
def levels_and_block(draw):
    """Denoiser levels and a block of unit-free inputs with one column per level."""
    sigmas = draw(st.lists(st.floats(1e-3, 1e2), min_size=1, max_size=6))
    rows = draw(st.integers(1, 12))
    return sigmas, draw(arrays(np.float64, (rows, len(sigmas)), elements=st.floats(-1e3, 1e3)))


def wide_grid(prior, sigma, points=201):
    half = 10.0 * (prior.sigma_x + sigma)
    return np.linspace(-half, half, points)


# The whole parameter space of the channel; the input is z = u * (sigma_x + sigma).
CHANNELS = dict(
    alpha=st.floats(1e-4, 1.0),
    sigma_x=st.floats(1e-2, 1e2),
    sigma=st.floats(1e-3, 1e2),
    u=st.floats(-1e3, 1e3),
)
# Cases the five fixed settings miss.
CHANNEL_EXAMPLES = [
    # deep in the tail: the spike responsibility underflows to exactly zero
    dict(alpha=0.05, sigma_x=1.0, sigma=0.01, u=50.0),
    # the flattest slope, about 1e-12: a rare, narrow slab under wide noise, at the origin
    dict(alpha=1e-4, sigma_x=1e-2, sigma=1e2, u=0.0),
    # a rare, wide slab under narrow noise near the origin: slab responsibility about 1e-9
    dict(alpha=1e-4, sigma_x=1e2, sigma=1e-3, u=1e-6),
    # both responsibilities one half
    dict(alpha=0.2, sigma_x=math.sqrt(5.0), sigma=0.5, u=0.4516390155562553),
    # a pure slab far out, beyond where the fixed grids reach
    dict(alpha=1.0, sigma_x=1e-2, sigma=1e2, u=-1e3),
]


def over_channels(test):
    """Run ``test(self, alpha, sigma_x, sigma, u)`` over :data:`CHANNELS` and its examples."""
    for values in CHANNEL_EXAMPLES:
        test = example(**values)(test)
    return settings(max_examples=200, deadline=None)(given(**CHANNELS)(test))


def channel(alpha, sigma_x, sigma, u):
    """The denoiser of one drawn channel and its input."""
    return MmseDenoiser(BernoulliGaussianPrior(alpha, sigma_x), sigma), u * (sigma_x + sigma)


class TestDenoise:
    def test_wiener_filter_case(self):
        d = MmseDenoiser(BernoulliGaussianPrior(1.0, 1.0), 1.0)
        assert d.denoise(2.0) == pytest.approx(1.0, rel=1e-14)
        z = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(d.denoise(z), 0.5 * z, rtol=1e-14)

    def test_zero_maps_to_zero(self):
        for prior, sigma in SETTINGS:
            assert MmseDenoiser(prior, sigma).denoise(0.0) == 0.0

    def test_matches_posterior_quadrature(self):
        prior = BernoulliGaussianPrior(0.2, math.sqrt(5.0))
        d = MmseDenoiser(prior, 0.5)
        _, mean, _ = quad_posterior_stats(prior, 0.5, 1.0)
        assert d.denoise(1.0) == pytest.approx(mean, abs=1e-9)

    def test_vector_is_componentwise(self):
        prior = BernoulliGaussianPrior(0.3)
        d = MmseDenoiser(prior, 0.4)
        rng = np.random.default_rng(5)
        z = rng.normal(scale=3.0, size=100)
        vector = d.denoise(z)
        scalars = np.array([d.denoise(v) for v in z])
        np.testing.assert_array_equal(vector, scalars)

        perm = rng.permutation(100)
        np.testing.assert_array_equal(d.denoise(z[perm]), vector[perm])
        np.testing.assert_array_equal(d.denoise(np.zeros(7)), np.zeros(7))

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            MmseDenoiser(BernoulliGaussianPrior(0.5), 0.0)

    def test_nonfinite_input_rejected(self):
        d = MmseDenoiser(BernoulliGaussianPrior(0.5), 0.3)
        with pytest.raises(ValueError):
            d.denoise(np.array([1.0, np.inf]))

    @pytest.mark.parametrize("prior,sigma", SETTINGS)
    def test_strictly_increasing(self, prior, sigma):
        d = MmseDenoiser(prior, sigma)
        values = d.denoise(wide_grid(prior, sigma, 801))
        assert np.all(np.diff(values) > 0)

    @settings(max_examples=300, deadline=None)
    @given(
        alpha=st.floats(1e-4, 1.0),
        sigma_x=st.floats(1e-2, 1e2),
        levels=levels_and_block(),
    )
    # a pure slab, whose spike responsibility is exactly zero
    @example(alpha=1.0, sigma_x=1.0, levels=([0.05, 0.3, 2.0], np.array([[-4.0, 0.0, 0.5], [1e-3, 7.0, -2.0]])))
    # |z| near 1e160, where z*z overflows
    @example(alpha=0.05, sigma_x=1.0, levels=([0.01, 0.37], np.array([[1e160, -1e160], [-3e159, 0.2]])))
    def test_level_per_column_matches_single_level(self, alpha, sigma_x, levels):
        # the batched PnP prox: column j at level sigmas[j] is that level's denoiser;
        # |z| reaches 1e3 * (sigma_x + sigma), where the spike responsibility underflows
        sigmas, u = levels
        prior = BernoulliGaussianPrior(alpha, sigma_x)
        z = u * (sigma_x + np.array(sigmas))
        batched = posterior_mean(prior, np.array(sigmas), z)
        for j, sigma in enumerate(sigmas):
            single = MmseDenoiser(prior, sigma).denoise(z[:, j])
            np.testing.assert_allclose(batched[:, j], single, rtol=1e-14, atol=0.0)
        # the mean alone is the mean of the moments, bit for bit
        np.testing.assert_array_equal(batched, posterior_moments(prior, np.array(sigmas), z)[0])


class TestPosteriorVariance:
    def test_gaussian_case_constant(self):
        d = MmseDenoiser(BernoulliGaussianPrior(1.0, 1.0), 0.6)
        c = d.slab_gain
        z = np.linspace(-4, 4, 9)
        np.testing.assert_allclose(d.posterior_variance(z), c * 0.36, rtol=1e-13)

    def test_hand_value_at_origin(self):
        # alpha = 1/2 cancels in the responsibility at z = 0
        prior = BernoulliGaussianPrior(0.5, 1.0)
        d = MmseDenoiser(prior, 1.0)
        pi0 = gaussian_pdf(math.sqrt(2.0), 0.0) / (
            gaussian_pdf(math.sqrt(2.0), 0.0) + gaussian_pdf(1.0, 0.0)
        )
        hand = pi0 * d.slab_gain * 1.0
        assert d.posterior_variance(0.0) == pytest.approx(hand, rel=1e-12)
        _, _, var = quad_posterior_stats(prior, 1.0, 0.0)
        assert d.posterior_variance(0.0) == pytest.approx(var, abs=1e-8)

    @pytest.mark.parametrize("z", [-2.5, -0.3, 0.7, 1.9])
    def test_matches_posterior_quadrature(self, z):
        prior = BernoulliGaussianPrior(0.2, math.sqrt(5.0))
        d = MmseDenoiser(prior, 0.5)
        _, _, var = quad_posterior_stats(prior, 0.5, z)
        assert d.posterior_variance(z) == pytest.approx(var, abs=1e-8)

    @pytest.mark.parametrize("prior,sigma", SETTINGS)
    def test_strictly_positive(self, prior, sigma):
        d = MmseDenoiser(prior, sigma)
        assert np.all(d.posterior_variance(wide_grid(prior, sigma)) > 0)


class TestDerivative:
    def test_gaussian_case_is_slab_gain(self):
        d = MmseDenoiser(BernoulliGaussianPrior(1.0, 1.0), 0.8)
        z = np.linspace(-6, 6, 13)
        np.testing.assert_allclose(d.derivative(z), d.slab_gain, rtol=1e-13)

    @pytest.mark.parametrize("prior,sigma", SETTINGS)
    def test_matches_finite_difference(self, prior, sigma):
        d = MmseDenoiser(prior, sigma)
        z = wide_grid(prior, sigma, 81)
        fd = central_diff(d.denoise, z, 1e-5)
        np.testing.assert_allclose(d.derivative(z), fd, atol=1e-6)

    @pytest.mark.parametrize("prior,sigma", SETTINGS)
    def test_variance_identity(self, prior, sigma):
        d = MmseDenoiser(prior, sigma)
        z = wide_grid(prior, sigma)
        np.testing.assert_allclose(
            d.derivative(z), d.posterior_variance(z) / sigma**2, atol=1e-8
        )
        assert np.all(d.derivative(z) > 0)

    def test_expansive_somewhere(self):
        d = MmseDenoiser(BernoulliGaussianPrior(0.2), 0.5)
        slopes = d.derivative(np.linspace(-4, 4, 1601))
        assert np.max(slopes) > 1.0


class TestTweedieResidual:
    def test_gaussian_case_machine_zero(self):
        d = MmseDenoiser(BernoulliGaussianPrior(1.0, 1.0), 0.5)
        z = np.linspace(-8, 8, 41)
        assert np.max(np.abs(d.tweedie_residual(z))) < 1e-14

    def test_zero_at_origin(self):
        for prior, sigma in SETTINGS:
            assert MmseDenoiser(prior, sigma).tweedie_residual(0.0) == 0.0

    def test_reference_setting_grid(self):
        d = MmseDenoiser(BernoulliGaussianPrior(0.2, math.sqrt(5.0)), 0.5)
        z = np.linspace(-8, 8, 201)
        scaled = np.abs(d.tweedie_residual(z)) / np.maximum(1.0, np.abs(z))
        assert np.max(scaled) < 1e-9

    @pytest.mark.parametrize("prior,sigma", SETTINGS)
    def test_scaled_residual_on_wide_grid(self, prior, sigma):
        d = MmseDenoiser(prior, sigma)
        z = wide_grid(prior, sigma)
        scaled = np.abs(d.tweedie_residual(z)) / np.maximum(1.0, np.abs(z))
        assert np.max(scaled) < 1e-9


class TestInvert:
    def test_zero(self):
        d = MmseDenoiser(BernoulliGaussianPrior(0.2), 0.5)
        assert d.invert(0.0) == 0.0

    @pytest.mark.parametrize("prior,sigma", SETTINGS)
    def test_round_trip_both_ways(self, prior, sigma):
        d = MmseDenoiser(prior, sigma)
        z = wide_grid(prior, sigma, 81)
        np.testing.assert_allclose(d.invert(d.denoise(z)), z, atol=1e-9)
        x = np.linspace(-3, 3, 41)
        np.testing.assert_allclose(d.denoise(d.invert(x)), x, atol=1e-9)

    def test_linear_inverse_when_gaussian(self):
        d = MmseDenoiser(BernoulliGaussianPrior(1.0, 1.0), 1.0)
        x = np.linspace(-4, 4, 17)
        np.testing.assert_allclose(d.invert(x), x / d.slab_gain, rtol=1e-12)

    def test_matches_bracketing_oracle(self):
        d = MmseDenoiser(BernoulliGaussianPrior(0.2), 0.5)
        for x in [-3.7, -0.9, -1e-4, 0.02, 0.8, 2.4, 11.0]:
            assert d.invert(x) == pytest.approx(brentq_invert(d, x), abs=1e-9)

    def test_residual_contract(self):
        d = MmseDenoiser(BernoulliGaussianPrior(0.15), 0.8)
        x = np.linspace(-20, 20, 101)
        z = d.invert(x)
        resid = np.abs(d.denoise(z) - x)
        assert np.all(resid <= 1e-12 * np.maximum(1.0, np.abs(x)))

    def test_nonfinite_rejected(self):
        d = MmseDenoiser(BernoulliGaussianPrior(0.2), 0.5)
        with pytest.raises(ValueError):
            d.invert(np.nan)


class TestIdentitiesOverParameterSpace:
    """The analytic identities over ``(alpha, sigma_x, sigma, z)``, not just fixed settings.

    ``|z|`` reaches ``1e3 * (sigma_x + sigma)``, far enough into the tails
    that the spike responsibility underflows to zero.
    """

    @over_channels
    def test_score_form(self, alpha, sigma_x, sigma, u):
        d, z = channel(alpha, sigma_x, sigma, u)
        assert abs(d.tweedie_residual(z)) <= 1e-9 * max(1.0, abs(z))

    @over_channels
    def test_slope_positive_and_variance_identity(self, alpha, sigma_x, sigma, u):
        d, z = channel(alpha, sigma_x, sigma, u)
        slope = d.derivative(z)
        assert slope > 0.0
        assert abs(slope - d.posterior_variance(z) / sigma**2) <= 1e-8 * max(1.0, slope)

    @over_channels
    def test_invert_round_trip(self, alpha, sigma_x, sigma, u):
        d, z = channel(alpha, sigma_x, sigma, u)
        x = d.denoise(z)
        back = d.invert(x)
        assert abs(d.denoise(back) - x) <= _INVERT_TOL * max(1.0, abs(x))
        # the inverse misses z by at most its residual tolerance over the slope
        assert abs(back - z) <= 2.0 * _INVERT_TOL * max(1.0, abs(x)) / d.derivative(z)

    @over_channels
    def test_prox_equivalence(self, alpha, sigma_x, sigma, u):
        # D(z) is the prox of the induced regularizer at z: over the pre-image u of
        # x = D(u), the prox objective is smallest at u = z (it does not depend on gamma)
        d, z = channel(alpha, sigma_x, sigma, u)
        reg = InducedRegularizer(d, 1.0)
        center = reg.prox_objective(z, z)
        offsets = np.array([-3.0, -1.0, -0.1, -1e-3, 1e-3, 0.1, 1.0, 3.0]) * (sigma_x + sigma)
        assert np.all(reg.prox_objective(z + offsets, z) >= center - 1e-12 * max(1.0, abs(center)))


class TestInducedRegularizer:
    def test_gamma_must_be_positive(self):
        d = MmseDenoiser(BernoulliGaussianPrior(0.2), 0.5)
        with pytest.raises(ValueError):
            InducedRegularizer(d, 0.0)

    def test_gaussian_case_closed_form(self):
        prior = BernoulliGaussianPrior(1.0, 1.4)
        sigma, gamma = 0.6, 0.3
        d = MmseDenoiser(prior, sigma)
        reg = InducedRegularizer(d, gamma)
        s2 = prior.sigma_x**2 + sigma**2
        rng = np.random.default_rng(2)
        x = rng.normal(size=6)
        expected = sigma**2 / (2 * gamma * prior.sigma_x**2) * float(x @ x) + 6 * (
            sigma**2 / gamma
        ) * 0.5 * math.log(2 * math.pi * s2)
        assert reg.value(x) == pytest.approx(expected, rel=1e-10)

    def test_value_at_zero(self):
        prior = BernoulliGaussianPrior(0.2)
        sigma, gamma, n = 0.5, 0.4, 9
        reg = InducedRegularizer(MmseDenoiser(prior, sigma), gamma)
        expected = n * sigma**2 / gamma * neg_log_marginal(prior, sigma, 0.0)
        assert reg.value(np.zeros(n)) == pytest.approx(expected, rel=1e-12)

    def test_finite_for_any_finite_input(self):
        reg = InducedRegularizer(MmseDenoiser(BernoulliGaussianPrior(0.2), 0.1), 0.2)
        assert np.isfinite(reg.value(np.array([-50.0, -0.001, 0.0, 0.3, 400.0])))

    def test_gradient_matches_finite_difference(self):
        prior = BernoulliGaussianPrior(0.2)
        reg = InducedRegularizer(MmseDenoiser(prior, 0.4), 0.3)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.normal(scale=1.5, size=5)
            fd = grad_central_diff(reg.value, x, 1e-6)
            grad = reg.gradient(x)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)

    def test_gradient_at_zero(self):
        reg = InducedRegularizer(MmseDenoiser(BernoulliGaussianPrior(0.3), 0.5), 0.7)
        np.testing.assert_array_equal(reg.gradient(np.zeros(4)), np.zeros(4))

    def test_gradient_gaussian_case(self):
        d = MmseDenoiser(BernoulliGaussianPrior(1.0, 1.0), 1.0)
        gamma = 0.5
        reg = InducedRegularizer(d, gamma)
        x = np.linspace(-2, 2, 5)
        expected = (1.0 / d.slab_gain - 1.0) * x / gamma
        np.testing.assert_allclose(reg.gradient(x), expected, rtol=1e-10, atol=1e-14)

    def test_prox_consistency_on_grid(self):
        prior = BernoulliGaussianPrior(0.2)
        sigma, gamma = 0.5, 0.35
        d = MmseDenoiser(prior, sigma)
        rng = np.random.default_rng(8)
        for _ in range(5):
            z = rng.uniform(-4, 4)
            center = d.denoise(z)
            grid = center + np.arange(-150, 151) * 1e-4
            u = d.invert(grid)
            h = -0.5 / gamma * (grid - u) ** 2 + sigma**2 / gamma * neg_log_marginal(
                prior, sigma, u
            )
            objective = 0.5 * (grid - z) ** 2 + gamma * h
            assert abs(grid[np.argmin(objective)] - center) <= 1e-4

    @settings(max_examples=300, deadline=None)
    @given(
        alpha=st.floats(1e-4, 1.0),
        sigma_x=st.floats(1e-2, 1e2),
        sigma=st.floats(1e-3, 1e2),
        gamma=st.floats(1e-3, 1e3),
        data=st.data(),
    )
    def test_preimage_route_matches_inversion(self, alpha, sigma_x, sigma, gamma, data):
        # PnP-ISTA evaluates the regularizer at x = D(z) with u = z, the pre-image it
        # already holds; the class inverts x instead.  |z| spans 1e-3 to 1e2 * (sigma_x + sigma).
        size = data.draw(st.integers(1, 6))
        magnitude = data.draw(arrays(np.float64, size, elements=st.floats(1e-3, 1e2)))
        sign = data.draw(arrays(np.float64, size, elements=st.sampled_from([-1.0, 1.0])))
        prior = BernoulliGaussianPrior(alpha, sigma_x)
        d = MmseDenoiser(prior, sigma)
        z = sign * magnitude * (sigma_x + sigma)
        x = d.denoise(z)
        terms, grad = _induced_terms(prior, sigma, gamma, x, z)
        value, grad_inverted = InducedRegularizer(d, gamma).value_and_gradient(x)
        assert abs(float(np.sum(terms)) - value) <= 1e-12 * max(1.0, abs(value))
        # the inverse misses z by at most its residual tolerance over the slope, which
        # is large where the denoiser is flat
        slack = 2.0 * _INVERT_TOL * np.maximum(1.0, np.abs(x)) / d.derivative(z)
        assert np.all(np.abs(gamma * (grad - grad_inverted)) <= slack)


class TestProxObjective:
    def test_center_value_reduces_to_smoothed_nll(self):
        # at u = z the quadratic and score terms cancel exactly
        prior = BernoulliGaussianPrior(0.2)
        sigma = 0.5
        reg = InducedRegularizer(MmseDenoiser(prior, sigma), 0.3)
        for z in [-2.2, 0.0, 0.4, 3.1]:
            expected = sigma**2 * neg_log_marginal(prior, sigma, z)
            assert reg.prox_objective(z, z) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_center_is_global_minimizer(self):
        rng = np.random.default_rng(21)
        reg = InducedRegularizer(MmseDenoiser(BernoulliGaussianPrior(0.2), 0.5), 0.4)
        for _ in range(20):
            z = rng.uniform(-5, 5)
            phi_center = reg.prox_objective(z, z)
            for offset in (-0.5, 0.5):
                assert reg.prox_objective(z + offset, z) > phi_center

    def test_gaussian_case_unique_minimum(self):
        reg = InducedRegularizer(MmseDenoiser(BernoulliGaussianPrior(1.0, 1.0), 0.7), 0.4)
        z = 1.3
        u = np.linspace(z - 3, z + 3, 601)
        values = reg.prox_objective(u, z)
        assert abs(u[np.argmin(values)] - z) <= (u[1] - u[0])

    def test_matches_composed_objective(self):
        # the simplified form must equal 0.5*(D(u)-z)^2 + gamma*h(D(u))
        prior = BernoulliGaussianPrior(0.35)
        sigma, gamma = 0.6, 0.25
        d = MmseDenoiser(prior, sigma)
        reg = InducedRegularizer(d, gamma)
        rng = np.random.default_rng(4)
        for _ in range(10):
            u, z = rng.uniform(-4, 4, size=2)
            composed = 0.5 * (d.denoise(u) - z) ** 2 + gamma * reg.value(
                np.array([d.denoise(u)])
            )
            assert reg.prox_objective(u, z) == pytest.approx(composed, rel=1e-9, abs=1e-10)
