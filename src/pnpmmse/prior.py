"""Bernoulli-Gaussian signal prior and its Gaussian-smoothed marginal.

Each signal component is, independently, drawn from a zero-mean Gaussian
slab with probability ``alpha`` and is exactly zero otherwise.  Observing
such a component through additive Gaussian noise of standard deviation
``sigma`` gives a marginal that is again a two-component Gaussian mixture
(slab convolved with the noise, plus the noise density itself), so the
smoothed density, its negative log, and the first two derivatives of the
negative log all have closed forms.  Everything is evaluated in the log
domain so that tails stay finite and mixture responsibilities never
degrade to 0/0.  The channel at a level, with its log odds and the rule
for which levels are usable, is :class:`_Levels`, which the denoiser
and the solvers read too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

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


def _validated_finite(z, name="z"):
    a = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def _match_input_shape(out, *inputs):
    if all(np.ndim(v) == 0 for v in inputs):
        return float(out)
    return out


def _usable_level(sigma) -> bool:
    """Whether every level in ``sigma`` is positive with a normal-float square.

    :class:`_Levels` divides by ``sigma**2``; a square that underflows to
    a subnormal or zero, or overflows, would turn its constants infinite.
    That admits levels from about ``1.5e-154`` to ``1.3e154``.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size == 0:
        return True
    # the square grows with a positive level, so the extremes decide
    lo, hi = float(sigma.min()), float(sigma.max())
    return lo > 0.0 and lo * lo >= sys.float_info.min and hi * hi <= sys.float_info.max


# Above this log odds, e**gap overflows: log(DBL_MAX) is about 709.78.
_EXP_LIMIT = 709.0
# Log odds are clamped up to this before exp: 1 + e**-700 is exactly 1, as is 1 + e**gap below it.
_EXP_FLOOR = -700.0


class _Levels:
    """The Bernoulli-Gaussian channel at one level, or at a column of levels, one per row of a block.

    Holds each level's constants that do not depend on the input: the
    noise variance ``sigma**2``, the slab variance ``sigma_x**2 +
    sigma**2``, the slab gain, the slab's log normalizer
    ``log(2*pi*(sigma_x**2 + sigma**2))/2``, and the log odds ``gap0`` of
    the spike against the slab at ``z = 0`` (``-inf`` at ``alpha = 1``,
    which every formula takes as it comes) with their curvature in
    ``z``.  Every closed form in the package reads its log odds and log
    normalizer from here, and the constructor is the one place a level
    is checked: it raises :class:`ValueError` unless :func:`_usable_level`
    holds.

    The posterior mean of a block is one short chain of in-place passes.
    That chain fills the block ``spread = 1 + e**gap``, and the induced
    regularizer at the same inputs reads ``log(1 + e**gap)`` from it
    instead of forming the log density again.  Overflows here are
    expected and exact (an ``e**gap`` beyond range is an infinite
    ``spread``, whose mean is 0), so callers run the methods under
    ``np.errstate(over="ignore")``.
    """

    def __init__(self, prior: BernoulliGaussianPrior, sigma):
        if not _usable_level(sigma):
            raise ValueError(f"sigma must be positive with a normal-float square, got {np.ravel(sigma).tolist()}")
        self.alpha = prior.alpha
        self.variance = np.asarray(sigma, dtype=float) ** 2
        self.slab_variance = prior.sigma_x**2 + self.variance
        self.gain = prior.sigma_x**2 / self.slab_variance
        # not 1/sigma**2 - 1/(sigma_x**2 + sigma**2), which cancels as sigma outgrows sigma_x
        self.curvature = self.gain / self.variance
        # a sum of logs: 2*pi*(sigma_x**2 + sigma**2) overflows once sigma is above about 5.3e153
        self.log_slab_norm = 0.5 * (math.log(2.0 * math.pi) + np.log(self.slab_variance))
        with np.errstate(over="ignore"):
            log_ratio = np.log(self.slab_variance / self.variance)
        # the ratio overflows once sigma is below about sigma_x / 1.3e154; the logs' difference does not,
        # but it loses digits where the logs nearly cancel, so it takes over only there
        if np.isinf(log_ratio).any():
            log_ratio = np.where(np.isinf(log_ratio), np.log(self.slab_variance) - np.log(self.variance), log_ratio)
        # gap at z = 0, its largest value; -inf when alpha is 1 and there is no spike
        log_spike = math.log1p(-prior.alpha) if prior.alpha < 1.0 else -math.inf
        self.gap0 = log_spike - math.log(prior.alpha) + 0.5 * log_ratio

    def _gap_into(self, z, out):
        """``gap0 - 0.5*z*z*curvature`` into ``out``: ``-inf`` without a spike or where ``z*z`` overflows.

        It is ``nan`` instead where ``z*z`` overflows and the curvature underflowed to 0.
        """
        np.multiply(z, 0.5, out=out)
        out *= z
        out *= self.curvature
        return np.subtract(self.gap0, out, out=out)

    def log_odds(self, z):
        """The log odds ``gap`` of the spike against the slab at ``z``, in a new array."""
        return self._gap_into(z, np.empty(np.broadcast_shapes(np.shape(z), np.shape(self.variance))))

    def spread_into(self, z, out):
        """``1 + e**gap`` at ``z`` into ``out``: exactly 1 without a spike, inf where ``e**gap`` overflows."""
        # 1 + e**gap rounds to 1 once gap is below about -37; the clamp keeps exp off its slow underflow path
        np.maximum(self._gap_into(z, out), _EXP_FLOOR, out=out)
        np.exp(out, out=out)
        out += 1.0
        return out

    def mean_into(self, z, out, spread):
        """Posterior mean ``gain * z / (1 + e**gap)`` into ``out``, keeping ``1 + e**gap`` in ``spread``."""
        self.spread_into(z, spread)
        np.divide(1.0, spread, out=out)
        out *= self.gain
        out *= z
        return out

    def regularizer_terms(self, gamma, x, u, spread):
        """Componentwise induced regularizer at ``x = D(u)``, given ``spread = 1 + e**gap`` at ``u``.

        ``nll(u)`` is ``-log(alpha) + log(2*pi*(sigma_x**2 + sigma**2))/2 +
        u**2/(2*(sigma_x**2 + sigma**2)) - log(1 + e**gap)``, the negative
        log of the smoothed marginal written around its slab term.
        """
        terms = np.log(spread)
        # gap is largest at z = 0; where e**gap overflowed, log(1 + e**gap) is gap to double precision
        if np.max(self.gap0) > _EXP_LIMIT:
            np.copyto(terms, self._gap_into(u, np.empty_like(terms)), where=np.isinf(terms))
        nll0 = -math.log(self.alpha) + self.log_slab_norm
        np.subtract(nll0, terms, out=terms)
        quadratic = np.multiply(u, 0.5)
        quadratic *= u
        quadratic /= self.slab_variance
        terms += quadratic
        terms *= self.variance / gamma
        residual = np.subtract(x, u, out=quadratic)
        residual *= residual
        residual *= 0.5 / gamma
        terms -= residual
        return terms


def _logistic(x):
    """``1 / (1 + exp(-x))``, exactly 0, 1/2 and 1 at ``-inf``, 0 and ``inf``.

    ``exp(-x)`` overflows for ``x`` below about -709.8; the quotient is then
    0, within a few subnormals of the true value, so the overflow is not
    reported.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _log_density(prior, sigma, z):
    """Log density of the smoothed marginal at ``z``, from the log odds."""
    levels = _Levels(prior, sigma)
    with np.errstate(over="ignore"):
        gap = levels.log_odds(z)
        s2 = levels.slab_variance
        log_slab = math.log(prior.alpha) - 0.5 * z * z / s2 - levels.log_slab_norm
        return log_slab + np.logaddexp(0.0, gap)


def _mixture_stats(prior, sigma, z):
    """Mixture responsibilities of the smoothed marginal at ``z``.

    Returns ``(w_slab, w_spike, levels)``, the channel's :class:`_Levels`
    last.  The responsibilities are :func:`_logistic` of the log odds,
    which stays exact when one component underflows.
    """
    levels = _Levels(prior, sigma)
    with np.errstate(over="ignore"):
        gap = levels.log_odds(z)
    return _logistic(-gap), _logistic(gap), levels


def marginal_density(prior: BernoulliGaussianPrior, sigma, z):
    """Density of the smoothed marginal: the slab-plus-noise and pure-noise mixture."""
    z = _validated_finite(z)
    return _match_input_shape(np.exp(_log_density(prior, sigma, z)), sigma, z)


def neg_log_marginal(prior: BernoulliGaussianPrior, sigma, z):
    """Negative log density of the smoothed marginal."""
    z = _validated_finite(z)
    return _match_input_shape(-_log_density(prior, sigma, z), sigma, z)


def neg_log_marginal_prime(prior: BernoulliGaussianPrior, sigma, z):
    """First derivative in ``z`` of the negative log smoothed density."""
    z = _validated_finite(z)
    w_slab, w_spike, levels = _mixture_stats(prior, sigma, z)
    out = z * (w_slab / levels.slab_variance + w_spike / levels.variance)
    return _match_input_shape(out, sigma, z)


def neg_log_marginal_second(prior: BernoulliGaussianPrior, sigma, z):
    """Second derivative in ``z`` of the negative log smoothed density.

    Uses the grouping ``w1/s2 + w2/v - z**2 * w1*w2 * (1/v - 1/s2)**2``,
    whose cross term vanishes exactly (instead of as a difference of large
    numbers) once either responsibility underflows.
    """
    z = _validated_finite(z)
    w_slab, w_spike, levels = _mixture_stats(prior, sigma, z)
    ww = w_slab * w_spike
    with np.errstate(over="ignore", invalid="ignore"):
        cross = np.where(ww == 0.0, 0.0, z * z * ww * levels.curvature**2)
    out = w_slab / levels.slab_variance + w_spike / levels.variance - cross
    return _match_input_shape(out, sigma, z)
