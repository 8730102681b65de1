"""Prior construction, sampling, and smoothed-marginal identities."""

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from pnpmmse import (
    BernoulliGaussianPrior,
    MmseDenoiser,
    marginal_density,
    neg_log_marginal,
    neg_log_marginal_prime,
    neg_log_marginal_second,
    posterior_mean,
    posterior_moments,
    sample_signal,
)
from pnpmmse import solvers
from pnpmmse.prior import _Levels, _logistic

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


# every function that takes a denoising level, called at one level
Z = np.array([1e-3, 1.0])
LEVEL_TAKERS = {
    "MmseDenoiser": lambda prior, sigma: MmseDenoiser(prior, sigma),
    "posterior_mean": lambda prior, sigma: posterior_mean(prior, sigma, Z),
    "posterior_moments": lambda prior, sigma: posterior_moments(prior, sigma, Z),
    "neg_log_marginal": lambda prior, sigma: neg_log_marginal(prior, sigma, Z),
    "neg_log_marginal_prime": lambda prior, sigma: neg_log_marginal_prime(prior, sigma, Z),
    "neg_log_marginal_second": lambda prior, sigma: neg_log_marginal_second(prior, sigma, Z),
    "marginal_density": lambda prior, sigma: marginal_density(prior, sigma, Z),
    "_pnp_group": lambda prior, sigma: solvers._pnp_group(prior, [0.1, sigma], 0.5, True),
}


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


class TestLogistic:
    def test_matches_scipy_expit(self):
        x = np.concatenate(
            [
                [0.0, -0.0, np.inf, -np.inf, 1e4, -1e4],
                np.linspace(-40.0, 40.0, 8001),
                np.linspace(36.0, 40.0, 4001),
                np.linspace(-40.0, -36.0, 4001),
                # exp(-x) overflows below about -709.8; the result is subnormal below about -708.4
                np.linspace(-745.0, -700.0, 9001),
            ]
        )
        np.testing.assert_array_max_ulp(_logistic(x), expit(x), maxulp=4)

    def test_exact_at_infinities_and_zero(self):
        assert _logistic(-np.inf) == 0.0
        assert _logistic(0.0) == 0.5
        assert _logistic(np.inf) == 1.0


class TestSpread:
    def test_clamped_log_odds_leave_every_bit(self, monkeypatch):
        # below about -37, 1 + e**gap rounds to exactly 1, so clamping the log odds
        # at -700 before exp changes no bit; -inf still maps to 1 and nan to nan
        gap = np.concatenate([np.linspace(-800.0, 40.0, 840_001), [np.inf, -np.inf, np.nan, -1e308]])
        levels = _Levels(BernoulliGaussianPrior(0.05), 0.5)
        monkeypatch.setattr(levels, "_gap_into", lambda z, out: np.copyto(out, gap) or out)
        with np.errstate(over="ignore"):
            spread = levels.spread_into(gap, np.empty_like(gap))
            unclamped = 1.0 + np.exp(gap)
        assert spread.tobytes() == unclamped.tobytes()


# pi to 52 significant digits, for the 50-digit references below
PI = Decimal("3.141592653589793238462643383279502884197169399375106")


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


class TestChannelConstants:
    """``_Levels``' constants against a 50-digit evaluation from the same float ``sigma`` and ``sigma_x``."""

    @settings(max_examples=300, deadline=None)
    @given(sigma=_log_uniform(1.5e-154, 1.3e154), alpha=_log_uniform(1e-300, 1.0 - 2.0**-53))
    # where 1/sigma**2 - 1/(sigma_x**2 + sigma**2) has lost half its digits
    @example(sigma=9.08e3, alpha=0.67)
    # where 2*pi*(sigma_x**2 + sigma**2) overflows
    @example(sigma=5.3e153, alpha=0.05)
    @example(sigma=5.4e153, alpha=0.05)
    # where (sigma_x**2 + sigma**2) / sigma**2 overflows
    @example(sigma=math.sqrt(20.0) / 1.3e154, alpha=0.05)
    @example(sigma=math.sqrt(20.0) / 1.4e154, alpha=0.05)
    def test_within_rounding_of_the_closed_forms(self, sigma, alpha):
        alpha = min(alpha, 1.0 - 2.0**-53)
        prior = BernoulliGaussianPrior(alpha)
        levels = _Levels(prior, sigma)
        with localcontext() as ctx:
            ctx.prec = 50
            v = Decimal(sigma) ** 2
            s2 = Decimal(prior.sigma_x) ** 2 + v
            curvature = Decimal(prior.sigma_x) ** 2 / (v * s2)
            log_slab_norm = ((2 * PI).ln() + s2.ln()) / 2
            log_prior_odds = (1 - Decimal(alpha)).ln() - Decimal(alpha).ln()
            half_log_ratio = (s2 / v).ln() / 2
            gap0 = log_prior_odds + half_log_ratio
        # relative where the reference is a normal float, absolute below that
        tol = Decimal("1e-15") * curvature if curvature >= Decimal(sys.float_info.min) else Decimal("1e-322")
        assert abs(Decimal(float(levels.curvature)) - curvature) <= tol
        scale = max(Decimal(1), abs(log_slab_norm))
        assert abs(Decimal(float(levels.log_slab_norm)) - log_slab_norm) <= Decimal("1e-15") * scale
        scale = max(Decimal(1), abs(log_prior_odds), abs(half_log_ratio))
        assert abs(Decimal(float(levels.gap0)) - gap0) <= Decimal("1e-15") * scale


class TestLevelRule:
    """One rule for every level: positive, with a square that is a normal float."""

    @pytest.mark.parametrize("name", LEVEL_TAKERS)
    @pytest.mark.parametrize("sigma", [0.0, -0.1, math.nan, math.inf, 1e-300, 1e155])
    def test_unusable_level_rejected(self, name, sigma):
        with pytest.raises(ValueError, match="normal-float square"):
            LEVEL_TAKERS[name](BernoulliGaussianPrior(0.05), sigma)

    @pytest.mark.parametrize("name", LEVEL_TAKERS)
    @pytest.mark.parametrize("sigma", [1.5e-154, 1.3e154])
    def test_extreme_normal_levels_accepted(self, name, sigma):
        LEVEL_TAKERS[name](BernoulliGaussianPrior(0.05), sigma)

    def test_smallest_level_passes_its_input_through(self):
        # sigma_x**2 / sigma**2 overflows here; the log odds at z = 0 stay finite
        prior = BernoulliGaussianPrior(0.05)
        mean = posterior_mean(prior, 1.5e-154, Z)
        np.testing.assert_allclose(mean, Z, rtol=1e-15)
        np.testing.assert_array_equal(mean, posterior_moments(prior, 1.5e-154, Z)[0])

    def test_largest_level_keeps_the_log_density_finite(self):
        # 2*pi*(sigma_x**2 + sigma**2) overflows here; both components are N(0, sigma**2)
        # to double precision, whose negative log density at |z| << sigma is log(sigma*sqrt(2*pi))
        prior, sigma = BernoulliGaussianPrior(0.05), 1.3e154
        expected = math.log(sigma) + 0.5 * math.log(2.0 * math.pi)
        np.testing.assert_allclose(neg_log_marginal(prior, sigma, Z), expected, rtol=1e-14)
        np.testing.assert_allclose(marginal_density(prior, sigma, Z), math.exp(-expected), rtol=1e-12)
