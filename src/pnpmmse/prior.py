"""Bernoulli-Gaussian signal prior and its Gaussian-smoothed marginal.

Each signal component is, independently, drawn from a zero-mean Gaussian
slab with probability ``alpha`` and is exactly zero otherwise.  Observing
such a component through additive Gaussian noise of standard deviation
``sigma`` gives a marginal that is again a two-component Gaussian mixture
(slab convolved with the noise, plus the noise density itself), so the
smoothed density, its negative log, and the first two derivatives of the
negative log all have closed forms.  Everything is evaluated in the log
domain so that tails stay finite and mixture responsibilities never
degrade to 0/0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

__all__ = [
    "BernoulliGaussianPrior",
    "sample_signal",
    "marginal_density",
    "neg_log_marginal",
    "neg_log_marginal_prime",
    "neg_log_marginal_second",
]


@dataclass(frozen=True)
class BernoulliGaussianPrior:
    """Sparsity level ``alpha`` in (0, 1] and slab deviation ``sigma_x > 0``.

    By default ``sigma_x`` is tied to the sparsity so that the signal has
    unit variance (``sigma_x**2 = 1/alpha``).  Passing ``sigma_x``
    explicitly decouples the two parameters.
    """

    alpha: float
    sigma_x: float | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.sigma_x is None:
            object.__setattr__(self, "sigma_x", 1.0 / math.sqrt(self.alpha))
        if not self.sigma_x > 0.0:
            raise ValueError(f"sigma_x must be positive, got {self.sigma_x}")

    @property
    def variance(self) -> float:
        """Marginal signal variance, ``alpha * sigma_x**2``."""
        return self.alpha * self.sigma_x**2


def sample_signal(prior: BernoulliGaussianPrior, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` i.i.d. Bernoulli-Gaussian components.

    A full vector of slab values is drawn regardless of the mask so the
    stream of random draws, and hence the result, depends only on the rng
    state and ``n``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    mask = rng.random(n) < prior.alpha
    slab = rng.normal(0.0, prior.sigma_x, n)
    return np.where(mask, slab, 0.0)


def _validated_sigma(sigma):
    s = np.asarray(sigma, dtype=float)
    if not np.all(s > 0.0):
        raise ValueError("sigma must be positive")
    return s


def _validated_finite(z, name="z"):
    a = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def _match_input_shape(out, *inputs):
    if all(np.ndim(v) == 0 for v in inputs):
        return float(out)
    return out


def _log_odds(prior, sigma, z):
    """``(gap, s2, v)``: the log spike term minus the log slab term at ``z``.

    ``gap`` is ``-inf`` when ``alpha`` is 1; ``s2`` and ``v`` are as in
    :func:`_mixture_stats`, and the slab responsibility is ``expit(-gap)``.
    """
    v = sigma**2
    s2 = prior.sigma_x**2 + v
    if prior.alpha == 1.0:
        shape = np.broadcast_shapes(np.shape(z), np.shape(sigma))
        return np.full(shape, -np.inf), s2, v
    with np.errstate(over="ignore"):
        # assembled directly so that an overflowing z*z yields -inf rather
        # than inf - inf
        gap = (
            math.log1p(-prior.alpha)
            - math.log(prior.alpha)
            + 0.5 * np.log(s2 / v)
            - 0.5 * z * z * (1.0 / v - 1.0 / s2)
        )
    return gap, s2, v


def _log_density(prior, sigma, z):
    """Log density of the smoothed marginal at ``z``, from the log odds."""
    gap, s2, _ = _log_odds(prior, sigma, z)
    with np.errstate(over="ignore"):
        log_slab = math.log(prior.alpha) - 0.5 * z * z / s2 - 0.5 * np.log(2.0 * np.pi * s2)
        return log_slab + np.logaddexp(0.0, gap)


def _mixture_stats(prior, sigma, z):
    """Mixture responsibilities of the smoothed marginal at ``z``.

    Returns ``(w_slab, w_spike, s2, v)`` where ``s2`` is the slab channel
    variance ``sigma_x**2 + sigma**2`` and ``v = sigma**2``.  The
    responsibilities are a logistic transform of the log-density gap,
    which stays exact when one component underflows.
    """
    gap, s2, v = _log_odds(prior, sigma, z)
    return expit(-gap), expit(gap), s2, v


def marginal_density(prior: BernoulliGaussianPrior, sigma, z):
    """Density of the smoothed marginal: the slab-plus-noise and pure-noise mixture."""
    sigma = _validated_sigma(sigma)
    z = _validated_finite(z)
    return _match_input_shape(np.exp(_log_density(prior, sigma, z)), sigma, z)


def neg_log_marginal(prior: BernoulliGaussianPrior, sigma, z):
    """Negative log density of the smoothed marginal."""
    sigma = _validated_sigma(sigma)
    z = _validated_finite(z)
    return _match_input_shape(-_log_density(prior, sigma, z), sigma, z)


def neg_log_marginal_prime(prior: BernoulliGaussianPrior, sigma, z):
    """First derivative in ``z`` of the negative log smoothed density."""
    sigma = _validated_sigma(sigma)
    z = _validated_finite(z)
    w_slab, w_spike, s2, v = _mixture_stats(prior, sigma, z)
    out = z * (w_slab / s2 + w_spike / v)
    return _match_input_shape(out, sigma, z)


def neg_log_marginal_second(prior: BernoulliGaussianPrior, sigma, z):
    """Second derivative in ``z`` of the negative log smoothed density.

    Uses the grouping ``w1/s2 + w2/v - z**2 * w1*w2 * (1/v - 1/s2)**2``,
    whose cross term vanishes exactly (instead of as a difference of large
    numbers) once either responsibility underflows.
    """
    sigma = _validated_sigma(sigma)
    z = _validated_finite(z)
    w_slab, w_spike, s2, v = _mixture_stats(prior, sigma, z)
    ww = w_slab * w_spike
    with np.errstate(over="ignore", invalid="ignore"):
        cross = np.where(ww == 0.0, 0.0, z * z * ww * (1.0 / v - 1.0 / s2) ** 2)
    out = w_slab / s2 + w_spike / v - cross
    return _match_input_shape(out, sigma, z)
