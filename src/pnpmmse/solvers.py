"""Iterative solvers: PnP-ISTA, LASSO via ISTA, and MMSE message passing.

All solvers start from the zero vector, run at most a fixed number of
iterations, and return a :class:`SolverTrace` with per-iteration records
and the reason the run stopped; message passing stops at its fixed point.
PnP-ISTA additionally evaluates the explicit objective (fidelity plus the
induced regularizer) and its gradient along the trajectory, which is what
the descent and stationarity checks consume.  PnP-ISTA and LASSO share one
ISTA loop.  It runs a block of iterates made of column groups, each group
a grid of parameter values for one prox, and every column of the block
shares each matrix product; a trial's denoiser-level grid and its
LASSO-weight grid run as one such block.  Each iteration's fidelity
gradient costs one ``op.normal`` product (:meth:`MeasurementOperator.normal`)
for the whole block.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .denoiser import InducedRegularizer, MmseDenoiser, _induced_terms, posterior_mean, posterior_moments
from .errors import NumericalFailureError
from .linear_model import (
    MeasurementOperator,
    ProblemInstance,
    data_fidelity,
    grad_data_fidelity,
    snr_db,
)
from .prior import BernoulliGaussianPrior

__all__ = [
    "TraceOptions",
    "SolverTrace",
    "pnp_ista",
    "pnp_ista_grid",
    "soft_threshold",
    "lasso_ista",
    "lasso_ista_grid",
    "gamp",
    "mm_surrogate",
]

# Per-step slack on the objective decrease, relative to |f(x^0)|.
MONOTONE_RTOL = 1e-9
# A solver is declared divergent once its SNR stays this far below its peak
# for DIVERGENCE_PATIENCE consecutive records; message-passing transients can
# dip hard for a few iterations and then recover.
DIVERGENCE_DROP_DB = 20.0
DIVERGENCE_PATIENCE = 10


@dataclass(frozen=True)
class TraceOptions:
    """What to record along a run and how often.

    Objective and gradient tracing evaluate the regularizer at every
    record; for PnP-ISTA that is one ``neg_log_marginal`` evaluation per
    component and no inversion.  Sweeps that only need SNR can switch them
    off.
    """

    objective: bool = True
    gradient: bool = True
    snr: bool = True
    interval: int = 1

    def __post_init__(self):
        if self.interval < 1:
            raise ValueError("trace interval must be >= 1")


@dataclass
class SolverTrace:
    """Per-iteration records plus the final iterate.

    ``objective`` and ``grad_norm`` are ``None`` for solvers that do not
    minimize an explicit objective (message passing) or do not track the
    quantity.  ``iterations`` holds the iteration numbers the records
    correspond to, always starting at 0.  ``stop_reason`` says why the run
    ended at ``iterations_run``: ``"max_iter"`` (the budget ran out),
    ``"grad_rtol"`` (ISTA's opt-in gradient tolerance was met),
    ``"fixed_point"`` (message passing stopped changing) or ``"diverged"``
    (message passing's SNR rule fired, which ``diverged`` also says).
    """

    iterations: np.ndarray
    final_iterate: np.ndarray
    iterations_run: int
    objective: np.ndarray | None = None
    grad_norm: np.ndarray | None = None
    snr_db: np.ndarray | None = None
    diverged: bool = False
    stop_reason: str = "max_iter"


@dataclass
class _Recorder:
    options: TraceOptions
    iterations: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    snr: list = field(default_factory=list)

    def due(self, t: int, max_iter: int) -> bool:
        return t % self.options.interval == 0 or t == max_iter

    def build(
        self, x: np.ndarray, t: int, stop_reason: str = "max_iter", column: int | None = None
    ) -> SolverTrace:
        """Trace of one run; ``column`` picks one run of a block whose records are rows."""
        opts = self.options

        def series(values, enabled):
            if not (enabled and values):
                return None
            values = np.asarray(values)
            return values if column is None else values[:, column]

        return SolverTrace(
            iterations=np.asarray(self.iterations, dtype=int),
            final_iterate=x,
            iterations_run=t,
            objective=series(self.objective, opts.objective),
            grad_norm=series(self.grad_norm, opts.gradient),
            snr_db=series(self.snr, opts.snr),
            diverged=stop_reason == "diverged",
            stop_reason=stop_reason,
        )


def exceeds_step_bound(gamma: float, operator: MeasurementOperator) -> bool:
    """Whether ``gamma`` leaves the guaranteed region ``gamma <= 1/L`` of ``operator``.

    ``L`` is the operator's kept estimate; the slack lets ``gamma = 1/L``
    pass despite rounding.
    """
    return gamma * operator.lipschitz.value > 1.0 + 1e-12


def _require_finite(x: np.ndarray, t: int) -> None:
    if not np.all(np.isfinite(x)):
        raise NumericalFailureError(f"non-finite iterate at iteration {t}", iteration=t)


@dataclass(frozen=True)
class _ColumnGroup:
    """Adjacent columns of an ISTA block that share a prox, a penalty and a trace.

    ``prox`` maps the group's ``n x width`` slice of pre-denoise iterates,
    so each column may carry its own parameter; ``penalty(X, Z)`` returns
    the per-column regularizer values and gradients at ``X = prox(Z)``.
    """

    prox: Callable[[np.ndarray], np.ndarray]
    penalty: Callable[[np.ndarray, np.ndarray], tuple]
    width: int
    trace: TraceOptions


def _ista(problem, gamma, groups, max_iter, allow_large_step, grad_rtol=None):
    """The ISTA loop over one block of iterates, one run per column.

    The block is the column groups side by side.  Each column steps
    ``x <- prox(x - gamma * grad)`` from zero with its group's prox.  The
    fidelity gradient ``G = H^T H X - H^T y`` at the new iterate comes for
    every group at once from one ``op.normal`` product per iteration.  It
    serves both the record (fidelity, gradient ``G + grad h``) and the next
    step: each column's fidelity ``0.5 * |y - H x|^2`` is read from it as
    ``0.5 * (x^T g - (H^T y)^T x + |y|^2)``.  Each group records what its
    own ``TraceOptions`` asks for; its penalty runs only when the objective
    or the gradient is traced.  A column that turns non-finite or breaks
    descent fails the whole block, and ``grad_rtol`` stops it only once
    every column traces its gradient and has met the tolerance.  Returns
    one list of traces per group, in order.
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
    hty, y_energy = operator.adjoint(y), float(y @ y)

    def gradient(x):
        g = operator.normal(x)
        g -= hty[:, None]
        return g

    edges = np.cumsum([0] + [group.width for group in groups])
    columns = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    recs = [_Recorder(group.trace) for group in groups]
    x = np.zeros((problem.n, edges[-1]))

    def record_group(rec, group, t, cols, x, z, g):
        opts = rec.options
        x, z, g = x[:, cols], z[:, cols], g[:, cols]
        if opts.objective or opts.gradient:
            h_val, h_grad = group.penalty(x, z)
        rec.iterations.append(t)
        if opts.objective:
            f = 0.5 * (np.einsum("ij,ij->j", x, g) - hty @ x + y_energy) + h_val
            if rec.objective and not allow_large_step:
                f_prev = rec.objective[-1]
                f_scale = np.maximum(np.abs(rec.objective[0]), 1e-300)
                rises = np.flatnonzero(f > f_prev + MONOTONE_RTOL * f_scale)
                if rises.size:
                    j = rises[0]
                    raise NumericalFailureError(
                        f"objective increased at iteration {t}: {float(f_prev[j])} -> {float(f[j])}",
                        iteration=t,
                    )
            rec.objective.append(f)
        if opts.gradient:
            rec.grad_norm.append(np.linalg.norm(g + h_grad, axis=0))
        if opts.snr:
            rec.snr.append(snr_db(x, problem.x_true))

    def record(t, x, z, g):
        for rec, group, cols in zip(recs, groups, columns):
            if rec.due(t, max_iter):
                record_group(rec, group, t, cols, x, z, g)

    g = gradient(x)
    # both proxes are odd, so the zero start is its own pre-image
    record(0, x, x, g)
    stop_reason = "max_iter"
    t = 0
    for t in range(1, max_iter + 1):
        z = x - gamma * g
        _require_finite(z, t)
        x = np.concatenate([group.prox(z[:, cols]) for group, cols in zip(groups, columns)], axis=1)
        _require_finite(x, t)
        g = gradient(x)
        record(t, x, z, g)
        # grad_norm[1] is each column's gradient norm at the first record after the start
        if grad_rtol is not None and all(
            len(rec.grad_norm) > 1 and np.all(rec.grad_norm[-1] <= grad_rtol * rec.grad_norm[1]) for rec in recs
        ):
            stop_reason = "grad_rtol"
            break
    return [
        [rec.build(xj.copy(), t, stop_reason, column=j) for j, xj in enumerate(x[:, cols].T)]
        for rec, cols in zip(recs, columns)
    ]


def _pnp_group(prior, sigmas, gamma, trace):
    """PnP-ISTA columns, one denoiser level per column."""
    for sigma in sigmas:
        if not sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {sigma}")
    sigma_row = np.array(sigmas, dtype=float)

    def penalty(x, z):
        terms, grad = _induced_terms(prior, sigma_row, gamma, x, z)
        return np.sum(terms, axis=0), grad

    return _ColumnGroup(lambda z: posterior_mean(prior, sigma_row, z), penalty, len(sigma_row), trace)


def _lasso_group(lams, gamma, trace):
    """LASSO-ISTA columns, one weight per column; no gradient is traced."""
    for lam in lams:
        if not lam > 0.0:
            raise ValueError(f"lam must be positive, got {lam}")
    lam_row = np.array(lams, dtype=float)
    tau_row = gamma * lam_row
    return _ColumnGroup(
        lambda z: soft_threshold(z, tau_row),
        lambda x, z: (lam_row * np.sum(np.abs(x), axis=0), None),
        len(lam_row),
        replace(trace, gradient=False),
    )


def pnp_ista_grid(
    problem: ProblemInstance,
    prior: BernoulliGaussianPrior,
    sigmas: Sequence[float],
    gamma: float,
    max_iter: int = 500,
    trace: TraceOptions = TraceOptions(),
    *,
    allow_large_step: bool = False,
    grad_rtol: float | None = None,
) -> list[SolverTrace]:
    """:func:`pnp_ista` at every denoiser level in ``sigmas`` as one block.

    Returns one trace per level, in order.  The levels share each
    iteration's one ``op.normal`` product, and the posterior mean takes one
    level per column, so each trace equals the single-level run up to
    rounding.  Any level that fails fails the call, and ``grad_rtol``
    stops the block once every level has met it.
    """
    return _ista(problem, gamma, [_pnp_group(prior, sigmas, gamma, trace)], max_iter, allow_large_step, grad_rtol)[0]


def pnp_ista(
    problem: ProblemInstance,
    denoiser: MmseDenoiser,
    gamma: float,
    max_iter: int = 500,
    trace: TraceOptions = TraceOptions(),
    *,
    allow_large_step: bool = False,
    grad_rtol: float | None = None,
) -> SolverTrace:
    """Gradient step on the fidelity followed by the MMSE denoiser.

    With a step size no larger than the reciprocal Lipschitz constant,
    read from the operator's kept estimate ``problem.operator.lipschitz``, the
    traced objective (fidelity plus induced regularizer at this ``gamma``)
    is checked to be nonincreasing at every record and the run aborts with
    a numerical failure if it is not; ``allow_large_step=True`` skips both
    the step-size check and that assertion.  ``grad_rtol`` enables an
    opt-in early stop once the traced gradient norm falls below
    ``grad_rtol`` times its value at the first record after the start,
    which is iteration ``min(trace.interval, max_iter)``.  A fully traced
    run costs one ``op.normal`` product per iteration, plus one
    ``neg_log_marginal`` evaluation per component at each record: the
    fidelity and its gradient come from the product the next step needs
    anyway, and the regularizer is evaluated at the pre-denoise iterate,
    which is the denoised iterate's pre-image, so no inversion runs.
    """
    return pnp_ista_grid(
        problem, denoiser.prior, (denoiser.sigma,), gamma, max_iter, trace,
        allow_large_step=allow_large_step, grad_rtol=grad_rtol,
    )[0]


def soft_threshold(z, tau):
    """Shrink toward zero by ``tau``: ``sign(z) * max(|z| - tau, 0)``.

    ``tau`` may be an array broadcasting against ``z``, such as one
    threshold per column of a block.
    """
    tau = np.asarray(tau, dtype=float)
    if not np.all(tau >= 0.0):
        raise ValueError(f"tau must be nonnegative, got {tau}")
    z = np.asarray(z, dtype=float)
    out = np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)
    return float(out) if out.ndim == 0 else out


def lasso_ista_grid(
    problem: ProblemInstance,
    lams: Sequence[float],
    gamma: float,
    max_iter: int = 500,
    trace: TraceOptions = TraceOptions(objective=True, gradient=False, snr=True),
    *,
    allow_large_step: bool = False,
) -> list[SolverTrace]:
    """:func:`lasso_ista` at every weight in ``lams`` as one block.

    Returns one trace per weight, in order; the weights share each matrix
    product and the soft threshold takes one ``gamma*lam`` per column.
    """
    return _ista(problem, gamma, [_lasso_group(lams, gamma, trace)], max_iter, allow_large_step)[0]


def lasso_ista(
    problem: ProblemInstance,
    lam: float,
    gamma: float,
    max_iter: int = 500,
    trace: TraceOptions = TraceOptions(objective=True, gradient=False, snr=True),
    *,
    allow_large_step: bool = False,
) -> SolverTrace:
    """ISTA on the l1-regularized least-squares objective.

    The proximal step is the componentwise soft threshold at ``gamma*lam``;
    the traced objective is ``0.5*|y - Hx|^2 + lam*|x|_1`` and is checked
    to be nonincreasing under a valid step size.  No gradient is traced.
    """
    return lasso_ista_grid(problem, (lam,), gamma, max_iter, trace, allow_large_step=allow_large_step)[0]


_GAMP_SLOPE_EPS = 1e-12
# Message passing stops once no component of the estimate moves by more
# than this share of the estimate's largest magnitude in one iteration.
_GAMP_FIXED_POINT_RTOL = 1e-12
_GAMP_PREC_MIN = 1e-12
_GAMP_PREC_MAX = 1e12


def gamp(
    problem: ProblemInstance,
    prior: BernoulliGaussianPrior,
    max_iter: int = 500,
    damping: float = 0.9,
    trace: TraceOptions = TraceOptions(objective=False, gradient=False, snr=True),
) -> SolverTrace:
    """MMSE message passing with the true statistical parameters.

    Two moment-matched Gaussian blocks exchange extrinsic messages: the
    scalar MMSE denoiser handles the prior, and an LMMSE block handles the
    measurements through a single eigendecomposition per call of the
    operator's kept Gram matrix ``H^T H``, the matrix ``op.normal`` steps
    through when ``2m > n``, so the two share one formation.
    On a decoupled operator (``H = I``) the likelihood-side extrinsic
    message is exactly the raw measurement channel, so the converged
    estimate reproduces the scalar denoiser applied to ``y``.  ``damping``
    in (0, 1] blends each new extrinsic message with the previous one
    (1 means undamped).  No objective is recorded: the iteration minimizes
    no explicit cost.

    The run stops at its fixed point, with ``stop_reason="fixed_point"``,
    once one iteration moves no component of the estimate by more than
    ``1e-12`` times its largest magnitude (the zero start does not count);
    the iteration that stops is always recorded.  A second rule reads the
    true signal and stays only until the benchmark reference is captured
    again without it: the run also stops, with ``diverged=True`` and
    ``stop_reason="diverged"``, once the traced SNR has stayed more than
    20 dB below its running peak for 10 consecutive records.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {damping}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    h = problem.operator.matrix
    se2 = problem.sigma_e**2
    eigvals, basis = np.linalg.eigh(problem.operator.gram)
    eigvals = np.clip(eigvals, 0.0, None)
    data_modes = basis.T @ (h.T @ problem.y)

    # x_hat is the denoiser block's posterior mean; r_prior and prec_prior
    # parametrize the extrinsic Gaussian message feeding it
    x_hat = np.zeros(problem.n)
    r_prior = np.zeros(problem.n)
    prec_prior = 1.0 / prior.variance

    rec = _Recorder(trace)
    rec.iterations.append(0)
    if trace.snr:
        rec.snr.append(snr_db(x_hat, problem.x_true))

    best_snr = -np.inf
    below_peak = 0
    stop_reason = "max_iter"
    t = 0
    for t in range(1, max_iter + 1):
        x_prev = x_hat
        v1 = 1.0 / prec_prior
        x_hat, tau_x = posterior_moments(prior, np.sqrt(v1), r_prior)
        if not (np.all(np.isfinite(x_hat)) and np.all(np.isfinite(tau_x))):
            raise NumericalFailureError(f"non-finite state at iteration {t}", iteration=t)
        if np.any(tau_x < 0.0):
            raise NumericalFailureError(f"negative variance at iteration {t}", iteration=t)
        tau_x = np.maximum(tau_x, 1e-300)

        slope = min(max(float(np.mean(tau_x)) / v1, _GAMP_SLOPE_EPS), 1.0 - _GAMP_SLOPE_EPS)
        prec_lik = prec_prior * (1.0 - slope) / slope
        r_lik = (x_hat - slope * r_prior) / (1.0 - slope)

        modes = basis.T @ r_lik
        denom = eigvals + se2 * prec_lik
        safe = np.where(denom > 0.0, denom, 1.0)
        x_lmmse = basis @ np.where(denom > 0.0, (data_modes + se2 * prec_lik * modes) / safe, modes)
        shrink = np.where(denom > 0.0, se2 * prec_lik / safe, 1.0)
        slope_lik = min(max(float(np.mean(shrink)), _GAMP_SLOPE_EPS), 1.0 - _GAMP_SLOPE_EPS)

        prec_new = prec_lik * (1.0 - slope_lik) / slope_lik
        prec_new = min(max(prec_new, _GAMP_PREC_MIN), _GAMP_PREC_MAX)
        r_new = (x_lmmse - slope_lik * r_lik) / (1.0 - slope_lik)
        prec_prior = damping * prec_new + (1.0 - damping) * prec_prior
        r_prior = damping * r_new + (1.0 - damping) * r_prior

        scale = float(np.max(np.abs(x_hat)))
        settled = scale > 0.0 and float(np.max(np.abs(x_hat - x_prev))) <= _GAMP_FIXED_POINT_RTOL * scale
        if settled or rec.due(t, max_iter):
            rec.iterations.append(t)
            if trace.snr:
                current = snr_db(x_hat, problem.x_true)
                rec.snr.append(current)
                best_snr = max(best_snr, current)
                below_peak = below_peak + 1 if current < best_snr - DIVERGENCE_DROP_DB else 0
                if below_peak >= DIVERGENCE_PATIENCE:
                    stop_reason = "diverged"
                    break
        if settled:
            stop_reason = "fixed_point"
            break
    return rec.build(x_hat, t, stop_reason)


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
