"""Exact scalar MMSE denoiser for the Bernoulli-Gaussian prior.

For the additive-Gaussian channel ``z = x + noise(sigma)`` with a
Bernoulli-Gaussian ``x``, the posterior is a spike at zero plus a Gaussian
slab, so the posterior mean (the denoiser), the posterior variance, the
map's derivative, and its inverse are all available essentially in closed
form.  The module also exposes the regularizer that the denoiser is the
proximal operator of: an explicit function assembled from the inverse map
and the smoothed-marginal negative log density, bound to a step size so
that objective traces can never mix step sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import NumericalFailureError
from .prior import (
    BernoulliGaussianPrior,
    _log_odds,
    _match_input_shape,
    _mixture_stats,
    _validated_finite,
    neg_log_marginal,
    neg_log_marginal_prime,
    neg_log_marginal_second,
)

__all__ = [
    "MmseDenoiser",
    "InducedRegularizer",
    "posterior_mean",
    "posterior_moments",
]

# |D(z) - x| <= _INVERT_TOL * max(1, |x|) at the returned root.
_INVERT_TOL = 1e-12
_MAX_BRACKET_DOUBLINGS = 200
_MAX_NEWTON_ITER = 200


def posterior_moments(prior: BernoulliGaussianPrior, sigma, z):
    """Posterior mean and variance of ``x`` given ``z = x + noise(sigma)``.

    ``sigma`` may be a scalar or an array broadcastable against ``z``; the
    message-passing solver relies on the per-component form.  The variance
    is assembled as ``w*c*sigma**2 + w*(1-w)*(c*z)**2`` (responsibility
    ``w``, slab gain ``c``), a sum of nonnegative terms, so it never goes
    negative by cancellation.
    """
    z = np.asarray(z, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    w_slab, w_spike, s2, v = _mixture_stats(prior, sigma, z)
    c = prior.sigma_x**2 / s2
    mean = w_slab * c * z
    ww = w_slab * w_spike
    with np.errstate(over="ignore", invalid="ignore"):
        spread = np.where(ww == 0.0, 0.0, ww * (c * z) ** 2)
    var = w_slab * c * v + spread
    return mean, var


def posterior_mean(prior: BernoulliGaussianPrior, sigma, z):
    """Posterior mean of ``x`` given ``z = x + noise(sigma)``.

    The same expression as the mean of :func:`posterior_moments`, from the
    log odds alone: no marginal density, no variance.
    """
    z = np.asarray(z, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    gap, s2, _ = _log_odds(prior, sigma, z)
    return expit(-gap) * (prior.sigma_x**2 / s2) * z


def _induced_terms(prior: BernoulliGaussianPrior, sigma, gamma, x, u):
    """Componentwise terms and gradient of the induced regularizer at ``x = D(u)``.

    The terms are ``-(x - u)**2/(2*gamma) + (sigma**2/gamma) * nll(u)`` and
    the gradient is ``(u - x)/gamma``, where ``u`` is the pre-image of ``x``
    under the denoiser at level ``sigma``.  ``sigma`` may be one level per
    column of a block.
    """
    nll = neg_log_marginal(prior, sigma, u)
    terms = -0.5 / gamma * (x - u) ** 2 + sigma**2 / gamma * nll
    return terms, (u - x) / gamma


@dataclass(frozen=True)
class MmseDenoiser:
    """Posterior-mean denoiser at a fixed channel noise level ``sigma``.

    The scalar map is odd, strictly increasing, and onto the real line, so
    the inverse is defined for every finite input.
    """

    prior: BernoulliGaussianPrior
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @property
    def slab_gain(self) -> float:
        """Wiener gain of the slab branch, ``sigma_x**2 / (sigma_x**2 + sigma**2)``."""
        sx2 = self.prior.sigma_x**2
        return sx2 / (sx2 + self.sigma**2)

    def denoise(self, z) -> np.ndarray:
        """Componentwise posterior mean."""
        z = _validated_finite(z)
        out = posterior_mean(self.prior, self.sigma, z)
        return _match_input_shape(out, z)

    def posterior_variance(self, z):
        """Componentwise posterior variance of the denoising channel."""
        z = _validated_finite(z)
        out = posterior_moments(self.prior, self.sigma, z)[1]
        return _match_input_shape(out, z)

    def derivative(self, z):
        """Slope of the denoiser, ``1 - sigma**2 * (d2/dz2)(-log p_z)``.

        Positive everywhere; equals the posterior variance divided by
        ``sigma**2``, which tests check as an identity between the two
        independently coded routes.
        """
        z = _validated_finite(z)
        out = 1.0 - self.sigma**2 * neg_log_marginal_second(self.prior, self.sigma, z)
        return _match_input_shape(out, z)

    def tweedie_residual(self, z):
        """Gap between the posterior mean and the score-based form of it.

        Evaluates ``D(z) - (z - sigma**2 * (d/dz)(-log p_z)(z))`` through the
        two separate code paths; both sides agree analytically, so anything
        beyond rounding noise indicates a broken derivation.
        """
        z = _validated_finite(z)
        score_form = z - self.sigma**2 * neg_log_marginal_prime(self.prior, self.sigma, z)
        out = posterior_mean(self.prior, self.sigma, z) - score_form
        return _match_input_shape(out, z)

    def invert(self, x):
        """Solve ``denoise(z) = x`` componentwise.

        Bracketing plus safeguarded Newton: the map is odd so only
        magnitudes are solved; ``|x|/slab_gain`` is always a valid lower
        bracket (the responsibility never exceeds one) and the upper
        bracket is found by doubling.  Newton steps that would leave the
        bracket fall back to bisection.  The residual tolerance is
        ``1e-12 * max(1, |x|)``.
        """
        x = _validated_finite(x, "x")
        a = np.atleast_1d(np.abs(np.asarray(x, dtype=float)))
        z = np.zeros_like(a)
        active = a > 0.0
        if np.any(active):
            z[active] = self._invert_positive(a[active])
        out = np.sign(x) * z.reshape(np.shape(x))
        return _match_input_shape(out, x)

    def _invert_positive(self, a: np.ndarray) -> np.ndarray:
        prior, sigma = self.prior, self.sigma
        tol = _INVERT_TOL * np.maximum(1.0, a)

        lo = a / self.slab_gain
        hi = lo.copy()
        unbracketed = posterior_mean(prior, sigma, hi) < a
        for _ in range(_MAX_BRACKET_DOUBLINGS):
            if not np.any(unbracketed):
                break
            hi[unbracketed] *= 2.0
            unbracketed &= posterior_mean(prior, sigma, hi) < a
        else:
            raise NumericalFailureError(
                "bracket expansion for the denoiser inverse did not terminate"
            )

        z = 0.5 * (lo + hi)
        converged = np.zeros(a.shape, dtype=bool)
        for _ in range(_MAX_NEWTON_ITER):
            mean, var = posterior_moments(prior, sigma, z)
            f = mean - a
            converged |= np.abs(f) <= tol
            if np.all(converged):
                return z
            lo = np.where(~converged & (f < 0.0), z, lo)
            hi = np.where(~converged & (f > 0.0), z, hi)
            step = f / (var / sigma**2)
            z_new = z - step
            inside = (z_new > lo) & (z_new < hi) & np.isfinite(z_new)
            z = np.where(converged, z, np.where(inside, z_new, 0.5 * (lo + hi)))
        raise NumericalFailureError("denoiser inverse did not reach tolerance")


@dataclass(frozen=True)
class InducedRegularizer:
    """The explicit regularizer whose proximal operator is the denoiser.

    On the denoiser's image (all of the real line for this prior) the value
    at ``x`` is the componentwise sum of

        -(1/(2*gamma)) * (x - u)**2 + (sigma**2/gamma) * nll(u),
        u = denoiser.invert(x),

    with ``nll`` the negative log smoothed density.  The function depends
    on both the denoiser level and the step size ``gamma``, which is why it
    is bound to both here rather than exposed as a free function.
    """

    denoiser: MmseDenoiser
    gamma: float

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    def value_and_gradient(self, x) -> tuple[float, np.ndarray]:
        """Value and gradient from a single componentwise inversion.

        This is the route for an arbitrary ``x``, and the inversion
        dominates its cost.  PnP-ISTA does not take it: its iterate is
        ``D(z)`` with ``z`` at hand, so a traced record costs one
        ``neg_log_marginal`` evaluation per component and no inversion.
        """
        x = np.asarray(x, dtype=float)
        d = self.denoiser
        u = np.asarray(d.invert(x))
        terms, grad = _induced_terms(d.prior, d.sigma, self.gamma, x, u)
        return float(np.sum(terms)), grad

    def value(self, x) -> float:
        return self.value_and_gradient(x)[0]

    def gradient(self, x) -> np.ndarray:
        """Gradient of :meth:`value`, ``(invert(x) - x) / gamma``.

        The head-on differentiation of the value produces two extra terms
        through the inverse map; they cancel exactly by the score identity,
        leaving this two-point form.
        """
        return self.value_and_gradient(x)[1]

    def prox_objective(self, u, z):
        """Denoiser-composed prox objective used as a minimality oracle.

        Simplified form ``0.5*(D(u)-z)**2 - (sigma**4/2)*nll'(u)**2
        + sigma**2*nll(u)``; for each fixed ``z`` the unique global
        minimizer over ``u`` is ``z`` itself, which tests probe directly.
        """
        u = _validated_finite(u, "u")
        z = _validated_finite(z, "z")
        d = self.denoiser
        mean = posterior_mean(d.prior, d.sigma, u)
        nll = neg_log_marginal(d.prior, d.sigma, u)
        nll_prime = neg_log_marginal_prime(d.prior, d.sigma, u)
        out = 0.5 * (mean - z) ** 2 - 0.5 * d.sigma**4 * nll_prime**2 + d.sigma**2 * nll
        return _match_input_shape(out, u, z)
