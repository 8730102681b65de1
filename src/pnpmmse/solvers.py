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
from dataclasses import dataclass, field, replace

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
    "TraceOptions",
    "SolverTrace",
    "pnp_ista",
    "soft_threshold",
    "lasso_ista",
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

    The SNR against the problem's ``x_true`` is recorded at every record.
    Objective and gradient tracing evaluate the regularizer at every
    record; for PnP-ISTA that is a few elementwise passes over the block,
    reading the log density's one transcendental term from what the
    denoising step left behind: no inversion and no second log-density
    evaluation.  Sweeps that only need SNR can switch them off.
    """

    objective: bool = True
    gradient: bool = True
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
    ended at ``iterations_run``: ``"max_iter"`` (the budget ran out; ISTA
    always stops so), ``"fixed_point"`` (message passing stopped changing)
    or ``"diverged"`` (message passing's SNR rule fired).
    """

    iterations: np.ndarray
    final_iterate: np.ndarray
    iterations_run: int
    objective: np.ndarray | None = None
    grad_norm: np.ndarray | None = None
    snr_db: np.ndarray | None = None
    stop_reason: str = "max_iter"

    @property
    def diverged(self) -> bool:
        """Whether message passing's SNR rule stopped the run."""
        return self.stop_reason == "diverged"


@dataclass
class _Recorder:
    options: TraceOptions
    iterations: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    snr: list = field(default_factory=list)
    # the descent check's per-run slack, fixed by the first objective record
    slack: np.ndarray | None = None

    def due(self, t: int, max_iter: int) -> bool:
        return t % self.options.interval == 0 or t == max_iter

    def build(
        self, x: np.ndarray, t: int, stop_reason: str = "max_iter", run: int | None = None
    ) -> SolverTrace:
        """Trace of one run; ``run`` picks one run of a block's records."""
        opts = self.options

        def series(values, enabled):
            if not (enabled and values):
                return None
            values = np.asarray(values)
            return values if run is None else values[:, run]

        return SolverTrace(
            iterations=np.asarray(self.iterations, dtype=int),
            final_iterate=x,
            iterations_run=t,
            objective=series(self.objective, opts.objective),
            grad_norm=series(self.grad_norm, opts.gradient),
            snr_db=series(self.snr, True),
            stop_reason=stop_reason,
        )


def exceeds_step_bound(gamma: float, operator: MeasurementOperator) -> bool:
    """Whether ``gamma`` leaves the guaranteed region ``gamma <= 1/L`` of ``operator``.

    ``L`` is the operator's kept estimate; the slack lets ``gamma = 1/L``
    pass despite rounding.
    """
    return gamma * operator.lipschitz.value > 1.0 + 1e-12


def _require_finite(x: np.ndarray, t: int, what: str = "iterate") -> None:
    if not np.all(np.isfinite(x)):
        raise NumericalFailureError(f"non-finite {what} at iteration {t}", iteration=t)


@dataclass(frozen=True)
class _RunGroup:
    """Adjacent rows of an ISTA block that share a prox, a penalty and a trace.

    ``prox(Z, X)`` writes the prox of the group's ``width x n`` slice ``Z``
    of pre-denoise iterates into ``X``, so each run may carry its own
    parameter.  ``penalty(X, Z, gradient)`` returns the per-run regularizer
    values at ``X = prox(Z)``, with ``Z`` the last slice the prox took, and
    their gradients if ``gradient`` is set, else ``None``.  The penalty may
    read what that prox call left behind, so a group serves one block at a
    time.
    """

    prox: Callable[[np.ndarray, np.ndarray], object]
    penalty: Callable[[np.ndarray, np.ndarray, bool], tuple]
    width: int
    trace: TraceOptions


def _ista(problem, gamma, groups, max_iter, allow_large_step):
    """The ISTA loop over one ``K x n`` block of iterates, one run per row.

    The block is the run groups stacked.  Each run steps ``x <- prox(x -
    gamma * grad)`` from zero with its group's prox, written into its row.
    The fidelity gradient ``G = X H^T H - H^T y`` at the new iterate comes
    for every group at once from one ``op.normal`` product per iteration.  It
    serves both the record (fidelity, gradient ``G + grad h``) and the next
    step: each run's fidelity ``0.5 * |y - H x|^2`` is read from it as
    ``0.5 * (x^T g - (H^T y)^T x + |y|^2)``, once for the whole block at a
    record where any group traces its objective.  Each group records what
    its own ``TraceOptions`` asks for; its penalty runs only when the
    objective or the gradient is traced, and forms the gradient only when
    that is.  Measurements whose ``|y|^2`` or ``H^T y`` overflow, and a run
    that turns non-finite or records a non-finite objective, gradient norm
    or SNR, or breaks descent, fail the whole block with a
    :class:`NumericalFailureError` naming the iteration; otherwise the
    block runs all ``max_iter`` iterations.  Returns one list of traces per
    group, in order.
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
    recs = [_Recorder(group.trace) for group in groups]
    x = np.zeros((edges[-1], problem.n))
    # each record's SNR reads x_true's energy once per block and forms its errors in one buffer
    err_block = np.empty_like(x)
    ref_energy = _reference_energy(problem.x_true)

    def gradient(x):
        g = operator.normal(x)
        g -= hty
        return g

    def record(t, z, g):
        due = [(rec, group, r) for rec, group, r in zip(recs, groups, rows) if rec.due(t, max_iter)]
        if any(rec.options.objective for rec, _, _ in due):
            fidelity = 0.5 * (np.einsum("ij,ij->i", x, g) - x @ hty + y_energy)
        for rec, group, r in due:
            opts, xr = rec.options, x[r]
            if opts.objective or opts.gradient:
                h_val, h_grad = group.penalty(xr, z[r], opts.gradient)
            rec.iterations.append(t)
            if opts.objective:
                f = fidelity[r] + h_val
                _require_finite(f, t, "objective")
                if rec.slack is None:
                    rec.slack = MONOTONE_RTOL * np.maximum(np.abs(f), 1e-300)
                elif not allow_large_step:
                    f_prev = rec.objective[-1]
                    rises = np.flatnonzero(f > f_prev + rec.slack)
                    if rises.size:
                        j = rises[0]
                        raise NumericalFailureError(
                            f"objective increased at iteration {t}: {float(f_prev[j])} -> {float(f[j])}",
                            iteration=t,
                        )
                rec.objective.append(f)
            if opts.gradient:
                grad_norm = np.linalg.norm(g[r] + h_grad, axis=1)
                _require_finite(grad_norm, t, "gradient norm")
                rec.grad_norm.append(grad_norm)
            err = np.subtract(xr, problem.x_true, out=err_block[r])
            snr = _capped_snr_db(ref_energy, np.einsum("ij,ij->i", err, err))
            _require_finite(snr, t, "SNR")
            rec.snr.append(snr)

    # A step too large for the problem, or measurements too large for their
    # energy, overflow in here, and each value they make non-finite is
    # rejected before anything keeps it: the measurement terms at once, the
    # iterate (and with it the step) by its step's check, the gradient by the
    # next step's, and the traced objective, gradient norm and SNR by
    # ``record``.
    with np.errstate(over="ignore", invalid="ignore"):
        hty, y_energy = operator.adjoint(y), float(y @ y)
        if not (np.isfinite(y_energy) and np.all(np.isfinite(hty))):
            raise NumericalFailureError("non-finite measurement terms at iteration 0", iteration=0)
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
    return [[rec.build(xj.copy(), max_iter, run=j) for j, xj in enumerate(x[r])] for rec, r in zip(recs, rows)]


def _pnp_group(prior, sigmas, gamma, trace):
    """PnP-ISTA runs, one denoiser level per row.

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

    def penalty(x, z, gradient):
        value = np.sum(levels.regularizer_terms(gamma, x, z, spread), axis=1)
        return value, ((z - x) / gamma if gradient else None)

    return _RunGroup(prox, penalty, len(sigmas), trace)


def _lasso_group(lams, gamma, trace):
    """LASSO-ISTA runs, one weight per row; no gradient is traced."""
    for lam in lams:
        if not lam > 0.0:
            raise ValueError(f"lam must be positive, got {lam}")
    lam_row = np.array(lams, dtype=float)
    # an overflowing gamma * lam is an infinite threshold, whose prox (zero) is still exact
    with np.errstate(over="ignore"):
        tau_col = gamma * lam_row[:, None]

    return _RunGroup(
        lambda z, out: _shrink_into(z, tau_col, out),
        lambda x, z, gradient: (lam_row * np.sum(np.abs(x), axis=1), None),
        len(lam_row),
        replace(trace, gradient=False),
    )


def pnp_ista(
    problem: ProblemInstance,
    denoiser: MmseDenoiser,
    gamma: float,
    max_iter: int = 500,
    trace: TraceOptions = TraceOptions(),
    *,
    allow_large_step: bool = False,
) -> SolverTrace:
    """Gradient step on the fidelity followed by the MMSE denoiser, ``max_iter`` times.

    With a step size no larger than the reciprocal Lipschitz constant,
    read from the operator's kept estimate ``problem.operator.lipschitz``, the
    traced objective (fidelity plus induced regularizer at this ``gamma``)
    is checked to be nonincreasing at every record and the run aborts with
    a numerical failure if it is not; ``allow_large_step=True`` skips both
    the step-size check and that assertion.  A fully traced
    run costs one ``op.normal`` product per iteration, plus a few
    elementwise passes at each record: the fidelity and its gradient come
    from the product the next step needs anyway, and the regularizer is
    evaluated at the pre-denoise iterate, which is the denoised iterate's
    pre-image, from the ``1 + e**gap`` block the denoising step left
    behind, so no inversion and no second log-density evaluation runs.
    """
    group = _pnp_group(denoiser.prior, (denoiser.sigma,), gamma, trace)
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
    trace: TraceOptions = TraceOptions(objective=True, gradient=False),
    *,
    allow_large_step: bool = False,
) -> SolverTrace:
    """ISTA on the l1-regularized least-squares objective.

    The proximal step is the componentwise soft threshold at ``gamma*lam``;
    the traced objective is ``0.5*|y - Hx|^2 + lam*|x|_1`` and is checked
    to be nonincreasing under a valid step size.  No gradient is traced.
    """
    return _ista(problem, gamma, [_lasso_group((lam,), gamma, trace)], max_iter, allow_large_step)[0][0]


_GAMP_SLOPE_EPS = 1e-12
# Message passing stops once no component of the estimate moves by more
# than this share of the estimate's largest magnitude in one iteration.
_GAMP_FIXED_POINT_RTOL = 1e-12
_GAMP_PREC_MIN = 1e-12
_GAMP_PREC_MAX = 1e12
# Weight of each new extrinsic message against the previous one (1 would be undamped).
_GAMP_DAMPING = 0.9


def gamp(
    problem: ProblemInstance,
    prior: BernoulliGaussianPrior,
    max_iter: int = 500,
) -> SolverTrace:
    """MMSE message passing with the true statistical parameters.

    Two moment-matched Gaussian blocks exchange extrinsic messages: the
    scalar MMSE denoiser handles the prior, and an LMMSE block handles the
    measurements in the eigenbasis of ``H^T H``, read from the operator's
    kept ``spectrum``: the decomposition the step size was estimated from,
    so a trial decomposes its operator once.
    On a decoupled operator (``H = I``) the likelihood-side extrinsic
    message is exactly the raw measurement channel, so the converged
    estimate reproduces the scalar denoiser applied to ``y``.  Each new
    extrinsic message is blended with the previous one at a fixed damping
    of 0.9.  The SNR is recorded at every iteration; no objective is
    recorded: the iteration minimizes no explicit cost.

    The run stops at its fixed point, with ``stop_reason="fixed_point"``,
    once one iteration moves no component of the estimate by more than
    ``1e-12`` times its largest magnitude (the zero start does not count).
    A second rule reads the true signal and stays only until the benchmark
    reference is captured again without it: the run also stops, with
    ``diverged=True`` and ``stop_reason="diverged"``, once the traced SNR
    has stayed more than 20 dB below its running peak for 10 consecutive
    iterations.  A non-finite state or SNR record fails the run with a
    :class:`NumericalFailureError`.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    h = problem.operator.matrix
    se2 = problem.sigma_e**2
    eigvals, basis = problem.operator.spectrum
    data_modes = basis.T @ (h.T @ problem.y)

    # x_hat is the denoiser block's posterior mean; r_prior and prec_prior
    # parametrize the extrinsic Gaussian message feeding it
    x_hat = np.zeros(problem.n)
    r_prior = np.zeros(problem.n)
    prec_prior = 1.0 / prior.variance

    rec = _Recorder(TraceOptions(objective=False, gradient=False))
    rec.iterations.append(0)
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
        prec_prior = _GAMP_DAMPING * prec_new + (1.0 - _GAMP_DAMPING) * prec_prior
        r_prior = _GAMP_DAMPING * r_new + (1.0 - _GAMP_DAMPING) * r_prior

        rec.iterations.append(t)
        # an estimate far from the signal overflows the error energy: -inf dB, rejected here
        with np.errstate(over="ignore"):
            current = snr_db(x_hat, problem.x_true)
        _require_finite(current, t, "SNR")
        rec.snr.append(current)
        best_snr = max(best_snr, current)
        below_peak = below_peak + 1 if current < best_snr - DIVERGENCE_DROP_DB else 0
        if below_peak >= DIVERGENCE_PATIENCE:
            stop_reason = "diverged"
            break
        scale = float(np.max(np.abs(x_hat)))
        if scale > 0.0 and float(np.max(np.abs(x_hat - x_prev))) <= _GAMP_FIXED_POINT_RTOL * scale:
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
