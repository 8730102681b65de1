"""Iterative solvers: PnP-ISTA, LASSO via ISTA, and MMSE message passing.

All solvers start from the zero vector, run at most a fixed number of
iterations, and return a :class:`SolverTrace` with per-iteration records
and the reason the run stopped; message passing stops at its fixed point.
PnP-ISTA additionally evaluates the explicit objective (fidelity plus the
induced regularizer) and its gradient along the trajectory, which is what
the descent and stationarity checks consume.  PnP-ISTA and LASSO share one
ISTA loop.  It runs a block of iterates, one run per row, made of run
groups, each a grid of parameter values for one prox, and every run
shares each matrix product; a trial's denoiser-level grid and its
LASSO-weight grid run as one such block.  Each iteration's fidelity
gradient costs one ``op.normal`` product for the whole block.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .denoiser import InducedRegularizer, MmseDenoiser, posterior_moments
from .errors import NumericalFailureError
from .linear_model import (
    MeasurementOperator,
    ProblemInstance,
    _capped_snr_db,
    _reference_energy,
    data_fidelity,
    grad_data_fidelity,
    snr_db,
)
from .prior import BernoulliGaussianPrior, _Levels

__all__ = [
    "SolverTrace",
    "pnp_ista",
    "soft_threshold",
    "lasso_ista",
    "gamp",
    "mm_surrogate",
]

# Per-step slack on the objective decrease, relative to |f(x^0)|.
MONOTONE_RTOL = 1e-9


@dataclass
class SolverTrace:
    """Per-iteration records plus the final iterate.

    ``objective`` and ``grad_norm`` are ``None`` for solvers that do not
    minimize an explicit objective (message passing) or do not track the
    quantity.  Every solver records every iteration, so ``iterations`` is
    ``0, 1, ..., iterations_run``.  ``stop_reason`` says why the run
    ended at ``iterations_run``: ``"max_iter"`` (the budget ran out; ISTA
    always stops so) or ``"fixed_point"`` (message passing stopped changing).
    """

    final_iterate: np.ndarray
    iterations_run: int
    objective: np.ndarray | None = None
    grad_norm: np.ndarray | None = None
    snr_db: np.ndarray | None = None
    stop_reason: str = "max_iter"

    @property
    def iterations(self) -> np.ndarray:
        """The recorded iterations, ``0, 1, ..., iterations_run``."""
        return np.arange(self.iterations_run + 1)

    @property
    def diverged(self) -> bool:
        """Always ``False``: no run stops as diverged.  ``perfbench/tracing.py`` counts it."""
        return False


def exceeds_step_bound(gamma: float, operator: MeasurementOperator) -> bool:
    """Whether ``gamma`` leaves the guaranteed region ``gamma <= 1/L`` of ``operator``.

    ``L`` is the operator's kept estimate; the slack lets ``gamma = 1/L``
    pass despite rounding.
    """
    return gamma * operator.lipschitz.value > 1.0 + 1e-12


def _require_finite(x: np.ndarray, t: int, what: str = "iterate") -> None:
    if not np.all(np.isfinite(x)):
        raise NumericalFailureError(f"non-finite {what} at iteration {t}")


@dataclass(frozen=True)
class _RunGroup:
    """Adjacent rows of an ISTA block that share a prox and what they record.

    ``prox(Z, X)`` writes the prox of the group's ``width x n`` slice ``Z``
    of pre-denoise iterates into ``X``, so each run may carry its own
    parameter.  A group with a ``penalty`` records its objective:
    ``penalty(X, Z)`` returns the per-run regularizer values at ``X =
    prox(Z)``, with ``Z`` the last slice the prox took.  A group with a
    penalty and a ``gradient`` also records its gradient norm:
    ``gradient(X, Z)`` returns the regularizer's gradient at the same
    iterates.  Both may read what that prox call left behind, so a group
    serves one block at a time.  A group with neither records only its SNR.
    """

    prox: Callable[[np.ndarray, np.ndarray], object]
    width: int
    penalty: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    gradient: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


def _ista(problem, gamma, groups, max_iter, allow_large_step):
    """The ISTA loop over one ``K x n`` block of iterates, one run per row.

    The block is the run groups stacked.  Each run steps ``x <- prox(x -
    gamma * grad)`` from zero with its group's prox, written into its row.
    The fidelity gradient ``G = X H^T H - H^T y`` at the new iterate comes
    for every group at once from one ``op.normal`` product per iteration.  It
    serves both the record (fidelity, gradient ``G + grad h``) and the next
    step: each run's fidelity ``0.5 * |y - H x|^2`` is read from it as
    ``0.5 * (x^T g - (H^T y)^T x + |y|^2)``, once for the whole block per
    record when any group has a penalty.  Every run records its SNR at
    every iteration, all runs' in one pass over the block; a group with a
    penalty records its objective there too and, with a gradient, its
    gradient norm.  Each group records each quantity into one ``(max_iter
    + 1) x width`` array, written a row per record, and each returned
    trace's series is a copy of its run's column.  Measurements whose
    ``|y|^2`` or ``H^T y`` overflow, and a run that turns non-finite or
    records a non-finite SNR, objective or gradient norm, or breaks
    descent, fail the whole block with a :class:`NumericalFailureError`
    naming the iteration; otherwise the block runs all ``max_iter``
    iterations.  Returns one list of traces per group, in order.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not allow_large_step and exceeds_step_bound(gamma, problem.operator):
        raise ValueError(
            f"gamma={gamma} exceeds 1/L={1.0 / problem.operator.lipschitz.value:.6g}; "
            "pass allow_large_step=True to experiment outside the guaranteed region"
        )

    operator, y = problem.operator, problem.y
    edges = np.cumsum([0] + [group.width for group in groups])
    rows = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    x = np.zeros((edges[-1], problem.n))
    # each record's SNR reads x_true's energy once per block and forms its errors in one buffer
    err = np.empty_like(x)
    ref_energy = _reference_energy(problem.x_true)

    # one array per group and quantity, one row per record and one column per run
    def series(group, recorded):
        return np.empty((max_iter + 1, group.width)) if recorded else None

    snr = [series(group, True) for group in groups]
    objective = [series(group, group.penalty is not None) for group in groups]
    grad_norm = [series(group, group.penalty is not None and group.gradient is not None) for group in groups]
    traced = any(f is not None for f in objective)
    # the descent check's per-run slack, fixed by the first objective record
    slack = np.empty(len(x))

    def gradient(x):
        g = operator.normal(x)
        g -= hty
        return g

    def record(t, z, g):
        np.subtract(x, problem.x_true, out=err)
        block_snr = _capped_snr_db(ref_energy, np.einsum("ij,ij->i", err, err))
        _require_finite(block_snr, t, "SNR")
        if traced:
            fidelity = 0.5 * (np.einsum("ij,ij->i", x, g) - x @ hty + y_energy)
        for i, (group, r) in enumerate(zip(groups, rows)):
            snr[i][t] = block_snr[r]
            if objective[i] is None:
                continue
            f = np.add(fidelity[r], group.penalty(x[r], z[r]), out=objective[i][t])
            _require_finite(f, t, "objective")
            if t == 0:
                slack[r] = MONOTONE_RTOL * np.maximum(np.abs(f), 1e-300)
            elif not allow_large_step:
                f_prev = objective[i][t - 1]
                rises = np.flatnonzero(f > f_prev + slack[r])
                if rises.size:
                    j = rises[0]
                    raise NumericalFailureError(
                        f"objective increased at iteration {t}: {float(f_prev[j])} -> {float(f[j])}"
                    )
            if grad_norm[i] is not None:
                grad_norm[i][t] = np.linalg.norm(g[r] + group.gradient(x[r], z[r]), axis=1)
                _require_finite(grad_norm[i][t], t, "gradient norm")

    # A step too large for the problem, or measurements too large for their
    # energy, overflow in here, and each value they make non-finite is
    # rejected before anything keeps it: the measurement terms at once, the
    # iterate (and with it the step) by its step's check, the gradient by the
    # next step's, and the recorded SNR, objective and gradient norm by
    # ``record``.
    with np.errstate(over="ignore", invalid="ignore"):
        hty, y_energy = operator.adjoint(y), float(y @ y)
        if not (np.isfinite(y_energy) and np.all(np.isfinite(hty))):
            raise NumericalFailureError("non-finite measurement terms at iteration 0")
        g = gradient(x)
        # both proxes are odd, so the zero start is its own pre-image; the
        # prox there also leaves what each penalty reads at the first record
        z = np.zeros_like(x)
        for group, r in zip(groups, rows):
            group.prox(z[r], x[r])
        record(0, z, g)
        for t in range(1, max_iter + 1):
            # z = x - gamma * g, formed in g's buffer: g is not read again.
            # Both proxes map a non-finite input to a non-finite output, so
            # the iterate's check also catches a non-finite z.
            z = np.add(x, np.multiply(g, -gamma, out=g), out=g)
            for group, r in zip(groups, rows):
                group.prox(z[r], x[r])
            _require_finite(x, t)
            g = gradient(x)
            record(t, z, g)

    # a copy, not a view: a trace kept alone must not hold its group's other runs' records
    def column(records, j):
        return None if records is None else records[:, j].copy()

    return [
        [SolverTrace(xj.copy(), max_iter, column(f, j), column(gn, j), column(s, j)) for j, xj in enumerate(x[r])]
        for r, s, f, gn in zip(rows, snr, objective, grad_norm)
    ]


def _pnp_group(prior, sigmas, gamma, objective):
    """PnP-ISTA runs, one denoiser level per row; ``objective`` records it and its gradient norm.

    The prox is the posterior mean, which leaves ``1 + e**gap`` behind;
    the penalty at the same iterates reads the log density from there.
    """
    levels = _Levels(prior, np.array(sigmas, dtype=float)[:, None])
    # 1 + e**gap at the last prox call's input, which the penalty reads
    spread = None

    def prox(z, out):
        nonlocal spread
        spread = np.empty_like(z)
        levels.mean_into(z, out, spread)

    def penalty(x, z):
        return np.sum(levels.regularizer_terms(gamma, x, z, spread), axis=1)

    if not objective:
        return _RunGroup(prox, len(sigmas))
    return _RunGroup(prox, len(sigmas), penalty, lambda x, z: (z - x) / gamma)


def _lasso_group(lams, gamma):
    """LASSO-ISTA runs, one weight per row, recording their objective; the l1 penalty has no gradient."""
    for lam in lams:
        if not lam > 0.0:
            raise ValueError(f"lam must be positive, got {lam}")
    lam_row = np.array(lams, dtype=float)
    # an overflowing gamma * lam is an infinite threshold, whose prox (zero) is still exact
    with np.errstate(over="ignore"):
        tau_col = gamma * lam_row[:, None]

    def penalty(x, z):
        return lam_row * np.sum(np.abs(x), axis=1)

    return _RunGroup(lambda z, out: _shrink_into(z, tau_col, out), len(lam_row), penalty)


def pnp_ista(
    problem: ProblemInstance,
    denoiser: MmseDenoiser,
    gamma: float,
    max_iter: int = 500,
    *,
    allow_large_step: bool = False,
) -> SolverTrace:
    """Gradient step on the fidelity followed by the MMSE denoiser, ``max_iter`` times.

    With a step size no larger than the reciprocal Lipschitz constant,
    read from the operator's kept estimate ``problem.operator.lipschitz``, the
    traced objective (fidelity plus induced regularizer at this ``gamma``)
    is checked to be nonincreasing at every record and the run aborts with
    a numerical failure if it is not; ``allow_large_step=True`` skips both
    the step-size check and that assertion.  The objective, its gradient
    norm and the SNR are recorded at every iteration.  A run costs one
    ``op.normal`` product per iteration, plus a few elementwise passes at
    each record: the fidelity and its gradient come from the product the
    next step needs anyway, and the regularizer is evaluated at the
    pre-denoise iterate, which is the denoised iterate's pre-image, from
    the ``1 + e**gap`` block the denoising step left behind, so no
    inversion and no second log-density evaluation runs.
    """
    group = _pnp_group(denoiser.prior, (denoiser.sigma,), gamma, True)
    return _ista(problem, gamma, [group], max_iter, allow_large_step)[0][0]


def soft_threshold(z, tau):
    """Shrink toward zero by ``tau``: ``sign(z) * max(|z| - tau, 0)``.

    ``tau`` may be an array broadcasting against ``z``, such as one
    threshold per row of a run-major block.
    """
    tau = np.asarray(tau, dtype=float)
    if not np.all(tau >= 0.0):
        raise ValueError(f"tau must be nonnegative, got {tau}")
    z = np.asarray(z, dtype=float)
    out = _shrink_into(z, tau, np.empty(np.broadcast_shapes(z.shape, tau.shape)))
    return float(out) if out.ndim == 0 else out


def _shrink_into(z, tau, out):
    """The soft threshold of ``z`` at ``tau`` into ``out``, as ``z - clip(z, -tau, tau)``.

    The clip is ``sign(z) * min(|z|, tau)``, formed in ``out``; a zero
    comes out ``+0.0``, also from a negative input.
    """
    np.abs(z, out=out)
    np.minimum(out, tau, out=out)
    np.copysign(out, z, out=out)
    return np.subtract(z, out, out=out)


def lasso_ista(
    problem: ProblemInstance,
    lam: float,
    gamma: float,
    max_iter: int = 500,
    *,
    allow_large_step: bool = False,
) -> SolverTrace:
    """ISTA on the l1-regularized least-squares objective.

    The proximal step is the componentwise soft threshold at ``gamma*lam``;
    the traced objective is ``0.5*|y - Hx|^2 + lam*|x|_1`` and is checked
    to be nonincreasing under a valid step size.  The objective and the
    SNR are recorded at every iteration; no gradient is traced.
    """
    return _ista(problem, gamma, [_lasso_group((lam,), gamma)], max_iter, allow_large_step)[0][0]


_GAMP_SLOPE_EPS = 1e-12
# Message passing stops once no component of the estimate moves by more
# than this share of the estimate's largest magnitude in one iteration.
_GAMP_FIXED_POINT_RTOL = 1e-12
_GAMP_PREC_MIN = 1e-12
_GAMP_PREC_MAX = 1e12
# Weight of each new extrinsic message against the previous one (1 would be undamped).
_GAMP_DAMPING = 0.9


def _lmmse(problem: ProblemInstance, r: np.ndarray, prec: float) -> tuple[np.ndarray, float]:
    """The LMMSE estimate ``(H^T H + a I)^-1 (H^T y + a r)``, ``a = sigma_e**2 * prec``, and its divergence.

    From the kept spectrum it is ``r + H^T U (Lam + a)^-1 U^T (y - H r)``
    when ``m < n`` (the SVD form of vector AMP; no ``n x m`` basis is
    formed), else ``r + V (Lam + a)^-1 V^T H^T (y - H r)``.  Directions
    ``H`` does not see, and modes with ``Lam + a = 0``, keep ``r`` exactly;
    the divergence is the mean of ``a / (Lam + a)``, 1 for each kept one.
    """
    h = problem.operator.matrix
    values, vectors = problem.operator.spectrum
    a = problem.sigma_e**2 * prec
    denom = values + a
    seen = denom > 0.0
    gain = np.divide(1.0, denom, out=np.zeros_like(denom), where=seen)
    resid = problem.y - h @ r
    if problem.m < problem.n:
        x = r + (vectors @ (gain * (resid @ vectors))) @ h
    else:
        x = r + vectors @ (gain * ((resid @ h) @ vectors))
    return x, (problem.n - np.count_nonzero(seen) + a * float(np.sum(gain))) / problem.n


def gamp(
    problem: ProblemInstance,
    prior: BernoulliGaussianPrior,
    max_iter: int = 500,
) -> SolverTrace:
    """MMSE message passing with the true statistical parameters.

    Two moment-matched Gaussian blocks exchange extrinsic messages: the
    scalar MMSE denoiser handles the prior, and an LMMSE block
    (:func:`_lmmse`) handles the measurements in the eigenbasis of the
    operator's kept ``spectrum``: the decomposition the step size was
    estimated from, so a trial decomposes its operator once.
    On a decoupled operator (``H = I``) the likelihood-side extrinsic
    message is exactly the raw measurement channel, so the converged
    estimate reproduces the scalar denoiser applied to ``y``.  Each new
    extrinsic message is blended with the previous one at a fixed damping
    of 0.9.  The SNR is recorded at every iteration; no objective is
    recorded: the iteration minimizes no explicit cost, and nothing but
    the record reads the true signal.

    The run stops at its fixed point, with ``stop_reason="fixed_point"``,
    once one iteration moves no component of the estimate by more than
    ``1e-12`` times its largest magnitude (the zero start does not count).
    A non-finite state or SNR record fails the run with a
    :class:`NumericalFailureError`.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    # x_hat is the denoiser block's posterior mean; r_prior and prec_prior
    # parametrize the extrinsic Gaussian message feeding it
    x_hat = np.zeros(problem.n)
    r_prior = np.zeros(problem.n)
    prec_prior = 1.0 / prior.variance

    snrs = [snr_db(x_hat, problem.x_true)]

    stop_reason = "max_iter"
    t = 0
    for t in range(1, max_iter + 1):
        x_prev = x_hat
        v1 = 1.0 / prec_prior
        x_hat, tau_x = posterior_moments(prior, np.sqrt(v1), r_prior)
        if not (np.all(np.isfinite(x_hat)) and np.all(np.isfinite(tau_x))):
            raise NumericalFailureError(f"non-finite state at iteration {t}")
        if np.any(tau_x < 0.0):
            raise NumericalFailureError(f"negative variance at iteration {t}")

        slope = min(max(float(np.mean(tau_x)) / v1, _GAMP_SLOPE_EPS), 1.0 - _GAMP_SLOPE_EPS)
        prec_lik = prec_prior * (1.0 - slope) / slope
        r_lik = (x_hat - slope * r_prior) / (1.0 - slope)

        x_lmmse, slope_lik = _lmmse(problem, r_lik, prec_lik)
        slope_lik = min(max(slope_lik, _GAMP_SLOPE_EPS), 1.0 - _GAMP_SLOPE_EPS)

        prec_new = prec_lik * (1.0 - slope_lik) / slope_lik
        prec_new = min(max(prec_new, _GAMP_PREC_MIN), _GAMP_PREC_MAX)
        r_new = (x_lmmse - slope_lik * r_lik) / (1.0 - slope_lik)
        prec_prior = _GAMP_DAMPING * prec_new + (1.0 - _GAMP_DAMPING) * prec_prior
        r_prior = _GAMP_DAMPING * r_new + (1.0 - _GAMP_DAMPING) * r_prior

        # an estimate far from the signal overflows the error energy: -inf dB, rejected here
        with np.errstate(over="ignore"):
            current = snr_db(x_hat, problem.x_true)
        _require_finite(current, t, "SNR")
        snrs.append(current)
        scale = float(np.max(np.abs(x_hat)))
        if scale > 0.0 and float(np.max(np.abs(x_hat - x_prev))) <= _GAMP_FIXED_POINT_RTOL * scale:
            stop_reason = "fixed_point"
            break
    return SolverTrace(x_hat, t, snr_db=np.array(snrs), stop_reason=stop_reason)


def mm_surrogate(
    problem: ProblemInstance,
    regularizer: InducedRegularizer,
    x: np.ndarray,
    s: np.ndarray,
) -> float:
    """Quadratic upper model of the objective around ``s``, evaluated at ``x``.

    Fidelity linearized at ``s`` plus a proximal quadratic at step
    ``regularizer.gamma`` plus the regularizer at ``x``.  For step sizes no
    larger than the reciprocal Lipschitz constant this majorizes the true
    objective and touches it at ``x = s``; tests use it as the descent
    oracle.
    """
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    d = x - s
    value = (
        data_fidelity(problem, s)
        + float(grad_data_fidelity(problem, s) @ d)
        + 0.5 / regularizer.gamma * float(d @ d)
        + regularizer.value(x)
    )
    return value
