"""Independent oracles the tests check production code against.

Everything here deliberately avoids the package's closed forms: posterior
moments come from adaptive quadrature, inverses from scipy's bracketing
root finder, the LASSO optimum from coordinate descent, the soft
threshold from its sign-and-max form, spectral norms from a dense
eigensolver, and derivatives from finite differences.  The one loop that
does use a closed form, warm-started PnP-ISTA, runs the package's
posterior mean from a start the package's ISTA loop does not offer.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from pnpmmse import data_fidelity, posterior_mean


def gaussian_pdf(sigma, x):
    """Zero-mean Gaussian density with standard deviation ``sigma`` at ``x``."""
    return np.exp(-0.5 * (np.asarray(x, dtype=float) / sigma) ** 2) / np.sqrt(2.0 * np.pi * sigma**2)


def _slab_integrand_factory(prior, sigma, z, power):
    sx = prior.sigma_x

    def integrand(x):
        slab = np.exp(-0.5 * (x / sx) ** 2) / np.sqrt(2 * np.pi * sx**2)
        noise = np.exp(-0.5 * ((z - x) / sigma) ** 2) / np.sqrt(2 * np.pi * sigma**2)
        return x**power * slab * noise

    return integrand


def quad_posterior_stats(prior, sigma, z):
    """Posterior density normalizer, mean, and variance by quadrature.

    The atom at zero contributes ``(1 - alpha) * phi_sigma(z)`` to the
    normalizer and nothing to the first or second moment; the slab part is
    integrated adaptively over a generous window.
    """
    lo = min(z, 0.0) - 12.0 * (prior.sigma_x + sigma)
    hi = max(z, 0.0) + 12.0 * (prior.sigma_x + sigma)
    opts = dict(limit=400, epsabs=1e-14, epsrel=1e-13)
    moments = [
        quad(_slab_integrand_factory(prior, sigma, z, p), lo, hi, **opts)[0] for p in (0, 1, 2)
    ]
    atom = (1.0 - prior.alpha) * np.exp(-0.5 * (z / sigma) ** 2) / np.sqrt(2 * np.pi * sigma**2)
    density = prior.alpha * moments[0] + atom
    mean = prior.alpha * moments[1] / density
    second = prior.alpha * moments[2] / density
    return density, mean, second - mean**2


def quad_marginal_density(prior, sigma, z):
    return quad_posterior_stats(prior, sigma, z)[0]


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def grad_central_diff(f, x, h):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


def brentq_invert(denoiser, x):
    """Independent scalar inverse through scipy's bracketing root finder."""
    if x == 0.0:
        return 0.0
    a = abs(x)
    lo = 0.0
    hi = a / denoiser.slab_gain
    while denoiser.denoise(hi) < a:
        hi *= 2.0
    root = brentq(lambda z: denoiser.denoise(z) - a, lo, hi, xtol=1e-14, rtol=1e-15)
    return root if x > 0 else -root


def sign_max_soft_threshold(z, tau):
    """The soft threshold written as ``sign(z) * max(|z| - tau, 0)``; a zero keeps the sign of ``z``."""
    return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)


def lasso_objective(problem, lam, x):
    return data_fidelity(problem, x) + lam * float(np.sum(np.abs(x)))


def lasso_coordinate_descent(problem, lam, sweeps=2000, x0=None):
    """Cyclic coordinate descent on the l1-regularized least squares."""
    h = problem.operator.matrix
    y = problem.y
    n = h.shape[1]
    col_sq = np.einsum("ij,ij->j", h, h)
    x = np.zeros(n) if x0 is None else x0.copy()
    residual = y - h @ x
    for _ in range(sweeps):
        for j in range(n):
            if col_sq[j] == 0.0:
                continue
            old = x[j]
            rho = h[:, j] @ residual + col_sq[j] * old
            new = np.sign(rho) * max(abs(rho) - lam, 0.0) / col_sq[j]
            if new != old:
                residual += h[:, j] * (old - new)
                x[j] = new
    return x


def dense_largest_eigenvalue(operator):
    gram = operator.matrix.T @ operator.matrix
    return float(np.max(np.linalg.eigvalsh(gram)))


def n_space_power_iteration(operator, tol=1e-10, max_iter=2000, seed=0):
    """The power iteration on ``H^T H`` stepped in n-space, as ``lipschitz_constant`` once was.

    Each step multiplies the unit vector ``v`` by ``H^T H``: through the
    Gram matrix when ``2m > n``, else as ``H^T (H v)``.  Returns
    ``(value, converged, iterations)``.
    """
    h = operator.matrix
    m, n = h.shape
    gram = h.T @ h
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for it in range(1, max_iter + 1):
        w = gram @ v if 2 * m > n else (h @ v) @ h
        new_estimate = float(v @ w)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            continue
        v = w / norm_w
        if it > 1 and abs(new_estimate - estimate) <= tol * abs(new_estimate):
            return new_estimate, True, it
        estimate = new_estimate
    return estimate, False, max_iter


def warm_started_pnp(problem, prior, sigmas, gamma, x0, iterations):
    """PnP-ISTA started from ``x0``, one denoiser level per row of one block.

    Every row steps ``x <- posterior_mean(prior, sigma, x - gamma * H^T (H x - y))``
    at its own level, ``iterations`` times; returns the block, one row per
    entry of ``sigmas``.
    """
    operator = problem.operator
    hty = operator.adjoint(problem.y)
    levels = np.asarray(sigmas, dtype=float)[:, None]
    x = np.tile(x0, (len(levels), 1))
    for _ in range(iterations):
        x = posterior_mean(prior, levels, x - gamma * (operator.normal(x) - hty))
    return x


def ridge_stationary_point(problem, denoiser, gamma):
    """Exact stationary point of the PnP objective in the pure-Gaussian case.

    With a Gaussian prior the induced regularizer is the quadratic
    ``sigma**2/(2*gamma*sigma_x**2) * |x|^2`` (plus a constant), so the
    stationarity condition is a ridge-type linear system.
    """
    h = problem.operator.matrix
    weight = denoiser.sigma**2 / (gamma * denoiser.prior.sigma_x**2)
    lhs = h.T @ h + weight * np.eye(h.shape[1])
    return np.linalg.solve(lhs, h.T @ problem.y)


# gamp's final SNR (dB) on the sweep-low problem of program seed 1000 at
# rate 0.3 (n=1024, alpha=0.05, damping 0.9), run all 500 iterations with
# no fixed-point stop.
GAMP_SEED_1000_SNR_500_DB = 23.943806656256257
# gamp's SNR (dB) when its SNR rule stops the same problem at program seed 3,
# at iteration 12; kept to the bit.
GAMP_SEED_3_SNR_AT_STOP_DB = float.fromhex("-0x1.5680fc7de37f5p+5")
