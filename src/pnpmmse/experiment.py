"""Seeded multi-trial experiments, hyperparameter grids, and CSV emission.

The driver reproduces the data behind three kinds of plots: per-iteration
normalized cost, per-iteration SNR, and final SNR against measurement
rate.  One master seed plus (rate index, trial index, role) subseeds make
every trial reproducible and let all solvers within a trial consume the
identical problem realization.  A validation subcommand re-runs the
package's analytic identities at small scale and reports a machine
readable pass/fail table.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
import math
import numbers
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .denoiser import InducedRegularizer, MmseDenoiser, _induced_terms
from .errors import ConfigurationError, NumericalFailureError
from .linear_model import (
    MeasurementOperator,
    ProblemInstance,
    build_instance,
    data_fidelity,
    generate_operator,
    grad_data_fidelity,
)
from .prior import BernoulliGaussianPrior, _usable_level, marginal_density, sample_signal
from .solvers import (
    _ista,
    _lasso_group,
    _pnp_group,
    exceeds_step_bound,
    gamp,
    mm_surrogate,
    pnp_ista,
    soft_threshold,
)

__all__ = [
    "ExperimentConfig",
    "CheckResult",
    "ValidationReport",
    "run_convergence_experiment",
    "run_rate_sweep",
    "run_validation_suite",
    "DEFAULT_VALIDATION_TOLERANCES",
]

log = logging.getLogger("pnpmmse")

ROLE_SIGNAL, ROLE_MATRIX, ROLE_NOISE = 0, 1, 2

KNOWN_SOLVERS = ("pnp", "lasso", "gamp")

# Fraction of trials that may fail numerically before the whole run fails.
FAILURE_BUDGET = 0.05

COST_HEADER = ["iter", "f_norm_mean", "f_norm_min", "f_norm_max"]
SNR_HEADER = ["iter", "solver", "snr_mean", "snr_min", "snr_max"]
RATE_HEADER = ["rate", "solver", "snr_mean", "snr_min", "snr_max"]
SELECTION_HEADER = ["rate", "trial", "solver", "param_name", "param_value"]
VALIDATION_HEADER = ["check", "status", "detail"]


def _log_grid(lo: float, hi: float, count: int) -> tuple[float, ...]:
    return tuple(float(v) for v in np.geomspace(lo, hi, count))


# The largest n whose n x n float64 Gram matrix, which a trial forms where
# 2m > n, numpy can form: its byte count must fit in an intp.
_MAX_N = math.isqrt(np.iinfo(np.intp).max // 8)

# Types that a scalar config field's value must have, keyed by its annotation.
_SCALAR_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}


def _has_type(value, kind) -> bool:
    # JSON's true and false load as bools, which Python also counts as ints
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; file values and CLI flags both land here.

    ``lambda_grid`` entries are relative: each trial's LASSO grid is the
    entries times that instance's ``max|H^T y|``.  ``sigma_grid`` entries
    are absolute denoiser levels.  ``gamma_policy`` is ``"auto"`` for
    0.99 over the estimated Lipschitz constant, or an explicit step size;
    explicit values beyond the guaranteed region are allowed and switch
    off the in-solver descent assertion.  A config is checked by
    :meth:`validate` when it is built, so none is ever invalid.
    """

    seed: int = 1009
    n: int = 1024
    measurement_rates: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    alpha: float = 0.05
    input_snr_db: float = 20.0
    trials: int = 20
    solvers: tuple[str, ...] = ("pnp", "lasso", "gamp")
    max_iter: int = 500
    lambda_grid: tuple[float, ...] = _log_grid(1e-4, 1.0, 15)
    sigma_grid: tuple[float, ...] = _log_grid(0.01, 0.37, 9)
    gamma_policy: str | float = "auto"
    workers: int = 1
    output_dir: str = "results"

    def __post_init__(self):
        for name in ("solvers", "measurement_rates", "lambda_grid", "sigma_grid"):
            value = getattr(self, name)
            # a string is iterable too, and would be read one character per entry
            if isinstance(value, str):
                raise ConfigurationError(f"{name} must be a list, got the string {value!r}")
        object.__setattr__(self, "solvers", tuple(str(s) for s in self.solvers))
        for name in ("measurement_rates", "lambda_grid", "sigma_grid"):
            values = tuple(getattr(self, name))
            if not all(_has_type(v, numbers.Real) for v in values):
                raise ConfigurationError(f"{name} entries must be numbers, got {list(values)!r}")
            object.__setattr__(self, name, tuple(float(v) for v in values))
        self.validate()

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type in _SCALAR_TYPES and not _has_type(value, _SCALAR_TYPES[f.type]):
                raise ConfigurationError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if not 1 <= self.n <= _MAX_N:
            raise ConfigurationError(f"n must be in [1, {_MAX_N}], so that the n x n Gram matrix can be formed")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError("alpha must be in (0, 1]")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.max_iter < 1:
            raise ConfigurationError("max_iter must be >= 1")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if not self.measurement_rates:
            raise ConfigurationError("measurement_rates must be nonempty")
        if any(not 0.0 < r <= 1.0 for r in self.measurement_rates):
            raise ConfigurationError("measurement rates must lie in (0, 1]")
        if any(lo >= hi for lo, hi in zip(self.measurement_rates, self.measurement_rates[1:])):
            raise ConfigurationError("measurement rates must be strictly increasing")
        if not self.solvers:
            raise ConfigurationError("at least one solver must be enabled")
        unknown = set(self.solvers) - set(KNOWN_SOLVERS)
        if unknown:
            raise ConfigurationError(f"unknown solvers: {sorted(unknown)}")
        if "pnp" in self.solvers and not self.sigma_grid:
            raise ConfigurationError("sigma_grid must be nonempty when pnp is enabled")
        if "lasso" in self.solvers and not self.lambda_grid:
            raise ConfigurationError("lambda_grid must be nonempty when lasso is enabled")
        if not all(0.0 < v < math.inf for v in self.sigma_grid + self.lambda_grid):
            raise ConfigurationError("grid values must be positive and finite")
        if not _usable_level(self.sigma_grid):
            raise ConfigurationError("sigma_grid entries must square to a normal float (about 1.5e-154 to 1.3e154)")
        # the documented CLI range (README: 4000 and -4000 exit 2), not a limit of the noise calibration
        with np.errstate(over="ignore"):
            snr_power = np.power(10.0, self.input_snr_db / 10.0)
        if not sys.float_info.min <= snr_power <= sys.float_info.max:
            raise ConfigurationError("input_snr_db must make 10**(snr/10) a normal float (about -3076 to 3082 dB)")
        if isinstance(self.gamma_policy, str):
            if self.gamma_policy != "auto":
                raise ConfigurationError("gamma_policy must be 'auto' or a positive number")
        elif not (_has_type(self.gamma_policy, numbers.Real) and 0.0 < self.gamma_policy < math.inf):
            raise ConfigurationError("explicit gamma must be positive and finite")

    @classmethod
    def from_dict(cls, values: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**values)
        except TypeError as exc:
            raise ConfigurationError(f"invalid config value: {exc}") from exc


def trial_rng(seed: int, rate_index: int, trial: int, role: int) -> np.random.Generator:
    """Independent generator for one (rate, trial, role) cell of the design."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(rate_index, trial, role))
    return np.random.default_rng(ss)


# Redraws allowed before an all-zero signal stream is given up on; at
# alpha * n = 1e-3 the chance of exhausting them is below 1e-4.
_MAX_SIGNAL_DRAWS = 10_000


def _nonzero_signal(prior: BernoulliGaussianPrior, n: int, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli-Gaussian draw conditioned on at least one nonzero component.

    An all-zero signal has no input SNR to calibrate and no reconstruction
    SNR, so it is not an instance of the experiment: it is drawn again
    from the same generator.  A first draw with a nonzero component is
    returned as is, leaving the stream of every such draw unchanged.
    """
    for _ in range(_MAX_SIGNAL_DRAWS):
        x = sample_signal(prior, n, rng)
        if np.any(x):
            return x
    raise ValueError(
        f"{_MAX_SIGNAL_DRAWS} signal draws at alpha={prior.alpha}, n={n} were all zero"
    )


def make_problem(config: ExperimentConfig, rate_index: int, trial: int) -> ProblemInstance:
    """Fresh (x_true, H, e) realization from the trial's subseeds.

    The signal is i.i.d. Bernoulli-Gaussian conditioned on having a nonzero
    component: an all-zero draw is drawn again from the same signal-role
    generator.  The matrix and noise roles have their own generators, so
    a trial whose first signal draw is nonzero is unaffected by the rule.
    """
    rate = config.measurement_rates[rate_index]
    m = max(1, int(round(rate * config.n)))
    prior = BernoulliGaussianPrior(config.alpha)
    x_true = _nonzero_signal(prior, config.n, trial_rng(config.seed, rate_index, trial, ROLE_SIGNAL))
    operator = generate_operator(m, config.n, trial_rng(config.seed, rate_index, trial, ROLE_MATRIX))
    return build_instance(
        operator,
        x_true,
        trial_rng(config.seed, rate_index, trial, ROLE_NOISE),
        input_snr_db=config.input_snr_db,
    )


def _resolve_gamma(config: ExperimentConfig, operator: MeasurementOperator) -> tuple[float, bool]:
    """Step size and whether it overrides the guaranteed region."""
    estimate = operator.lipschitz
    if not estimate.converged:
        log.warning("power iteration did not converge; using last estimate %.6g", estimate.value)
    if config.gamma_policy == "auto":
        return 0.99 / estimate.value, False
    gamma = float(config.gamma_policy)
    return gamma, exceeds_step_bound(gamma, operator)


@dataclass
class TrialOutcome:
    rate_index: int
    trial: int
    traces: dict = field(default_factory=dict)
    selections: dict = field(default_factory=dict)
    error: str | None = None


def _best_final_snr(grid, traces):
    """Grid value whose run ends at the highest SNR, and that run; the first on ties."""
    best = int(np.argmax([trace.snr_db[-1] for trace in traces]))
    return grid[best], traces[best]


def _run_trial(config: ExperimentConfig, rate_index: int, trial: int, pnp_objective: bool) -> TrialOutcome:
    """One ISTA block over the tuned solvers' grids, then message passing.

    Every run records its SNR at every iteration.  The LASSO grid also
    records its objective, and so does every denoiser level with
    ``pnp_objective``, together with its gradient norm.  Without it the
    trial is a sweep cell, which reads only each level's final SNR, so
    the denoiser levels record only their SNR.
    """
    outcome = TrialOutcome(rate_index, trial)
    try:
        problem = make_problem(config, rate_index, trial)
        prior = BernoulliGaussianPrior(config.alpha)
        gamma, override = _resolve_gamma(config, problem.operator)

        # each tuned solver's grid is one run group of a single ISTA block
        grids = {}
        if "pnp" in config.solvers:
            group = _pnp_group(prior, config.sigma_grid, gamma, pnp_objective)
            grids["pnp"] = ("sigma", config.sigma_grid, group)
        if "lasso" in config.solvers:
            lam_scale = float(np.max(np.abs(problem.operator.adjoint(problem.y))))
            lams = [rel * lam_scale for rel in config.lambda_grid]
            group = _lasso_group(lams, gamma)
            grids["lasso"] = ("lambda", lams, group)
        if grids:
            blocks = _ista(problem, gamma, [group for _, _, group in grids.values()], config.max_iter, override)
            for (solver, (name, grid, _)), traces in zip(grids.items(), blocks):
                value, outcome.traces[solver] = _best_final_snr(grid, traces)
                outcome.selections[solver] = (name, value)

        if "gamp" in config.solvers:
            outcome.traces["gamp"] = gamp(problem, prior, config.max_iter)
    except ConfigurationError:
        raise
    except (NumericalFailureError, ValueError) as exc:
        outcome.error = str(exc)
        log.warning("trial (rate_index=%d, trial=%d) failed: %s", rate_index, trial, exc)
    return outcome


def _run_trials(config: ExperimentConfig, rate_indices, pnp_objective: bool) -> list[TrialOutcome]:
    """Every trial at ``rate_indices`` that succeeded, in task order, if the failures fit the budget."""
    tasks = [(ri, t) for ri in rate_indices for t in range(config.trials)]

    def run_one(task):
        ri, t = task
        return _run_trial(config, ri, t, pnp_objective)

    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(pool.map(run_one, tasks))
    else:
        outcomes = [run_one(task) for task in tasks]

    ok = [o for o in outcomes if o.error is None]
    failed = len(tasks) - len(ok)
    if failed / len(tasks) > FAILURE_BUDGET:
        raise NumericalFailureError(
            f"{failed}/{len(tasks)} trials failed numerically, exceeding the {FAILURE_BUDGET:.0%} budget"
        )
    return ok


def _held_to_length(values: np.ndarray, length: int) -> np.ndarray:
    """Extend a per-iteration series by holding its last value.

    Only message-passing traces are shorter than the common grid: they stop
    at their fixed point, where the estimate no longer changes, so holding
    the last record is the faithful continuation.
    """
    if len(values) >= length:
        return values[:length]
    pad = np.full(length - len(values), values[-1])
    return np.concatenate([values, pad])


def _aggregate_series(series_by_trial) -> list[tuple[float, float, float]]:
    """Mean, min and max across trials at each record of equal-length series."""
    stacked = np.stack(series_by_trial)
    return [
        (float(mu), float(lo), float(hi))
        for mu, lo, hi in zip(stacked.mean(axis=0), stacked.min(axis=0), stacked.max(axis=0))
    ]


def make_output_dir(path: str | Path) -> Path:
    """Create the output directory; a path that cannot be one is a configuration error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {str(out)!r}: {exc}") from exc
    return out


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _selection_rows(config: ExperimentConfig, outcomes: list[TrialOutcome]) -> list[tuple]:
    rows = []
    for outcome in outcomes:
        rate = config.measurement_rates[outcome.rate_index]
        for solver in KNOWN_SOLVERS:
            if solver in outcome.selections:
                name, value = outcome.selections[solver]
                rows.append((rate, outcome.trial, solver, name, float(value)))
    return rows


def run_convergence_experiment(config: ExperimentConfig) -> dict[str, Path]:
    """Per-iteration normalized cost and SNR at a single measurement rate.

    For each trial the PnP denoiser level and the LASSO weight are chosen
    by grid search maximizing that trial's final SNR.  The grids run as one
    ISTA block that also traces the objective of every denoiser level, so
    the cost trace is the winning level's run in that block.  Emits
    ``convergence_cost.csv``, ``convergence_snr.csv``, ``selections.csv``
    into ``config.output_dir``.
    """
    if "pnp" not in config.solvers:
        raise ConfigurationError("the convergence experiment requires the pnp solver")
    if len(config.measurement_rates) != 1:
        raise ConfigurationError("the convergence experiment uses a single measurement rate")
    out = make_output_dir(config.output_dir)

    outcomes = _run_trials(config, [0], pnp_objective=True)

    records = config.max_iter + 1
    normalized = [o.traces["pnp"].objective / o.traces["pnp"].objective[0] for o in outcomes]
    cost_rows = [(t, *stats) for t, stats in enumerate(_aggregate_series(normalized))]

    enabled = [solver for solver in KNOWN_SOLVERS if solver in config.solvers]
    snr_stats = {
        solver: _aggregate_series([_held_to_length(o.traces[solver].snr_db, records) for o in outcomes])
        for solver in enabled
    }
    snr_rows = [(t, solver, *snr_stats[solver][t]) for t in range(records) for solver in enabled]

    paths = {
        "cost": out / "convergence_cost.csv",
        "snr": out / "convergence_snr.csv",
        "selections": out / "selections.csv",
    }
    _write_csv(paths["cost"], COST_HEADER, cost_rows)
    _write_csv(paths["snr"], SNR_HEADER, snr_rows)
    _write_csv(paths["selections"], SELECTION_HEADER, _selection_rows(config, outcomes))
    return paths


def run_rate_sweep(config: ExperimentConfig) -> dict[str, Path]:
    """Final SNR of every enabled solver across measurement rates.

    All solvers within a (rate, trial) cell consume the identical problem
    realization.  A rate at which every trial failed has no row to write
    and raises :class:`NumericalFailureError`, even within the failure
    budget.  Emits ``rate_sweep.csv`` and ``selections.csv`` into
    ``config.output_dir``.
    """
    if len(config.measurement_rates) < 2:
        raise ConfigurationError("the rate sweep needs at least two measurement rates")
    out = make_output_dir(config.output_dir)

    outcomes = _run_trials(config, range(len(config.measurement_rates)), pnp_objective=False)

    rows = []
    for rate_index, rate in enumerate(config.measurement_rates):
        cell = [o for o in outcomes if o.rate_index == rate_index]
        if not cell:
            raise NumericalFailureError(f"every trial at rate {rate} failed numerically")
        for solver in KNOWN_SOLVERS:
            if solver not in config.solvers:
                continue
            finals = [float(o.traces[solver].snr_db[-1]) for o in cell]
            rows.append((rate, solver, float(np.mean(finals)), float(np.min(finals)), float(np.max(finals))))

    paths = {"rates": out / "rate_sweep.csv", "selections": out / "selections.csv"}
    _write_csv(paths["rates"], RATE_HEADER, rows)
    _write_csv(paths["selections"], SELECTION_HEADER, _selection_rows(config, outcomes))
    return paths


# --- validation suite ---------------------------------------------------

DEFAULT_VALIDATION_TOLERANCES = {
    "tweedie_identity": 1e-9,
    "prox_phi_minimum": 0.0,
    "prox_grid_minimizer": 1e-4,
    "derivative_finite_difference": 1e-6,
    "derivative_variance_identity": 1e-8,
    "inverse_round_trip": 1e-9,
    "jacobian_positivity": 0.0,
    "marginal_normalization": 1e-8,
    "fidelity_gradient_fd": 1e-5,
    "regularizer_gradient_fd": 1e-5,
    "mm_sandwich": 1e-9,
    "pnp_monotonicity": 1e-9,
    "soft_threshold_prox": 1e-3,
    "lipschitz_dense": 1e-4,
    "gamp_decoupled": 1e-6,
}

_VALIDATION_PRIORS = [
    (0.2, None, 0.5),
    (0.1, None, 0.25),
    (0.5, None, 1.0),
    (0.9, 1.3, 0.05),
    (1.0, 1.0, 0.37),
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS, FAIL, or SKIP
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.status != "FAIL" for c in self.checks)


def _grid_for(prior: BernoulliGaussianPrior, sigma: float, points: int = 201) -> np.ndarray:
    half = 10.0 * (prior.sigma_x + sigma)
    return np.linspace(-half, half, points)


def _reference_channels():
    """Each channel of :data:`_VALIDATION_PRIORS` as ``(prior, sigma, denoiser)``."""
    for alpha, sigma_x, sigma in _VALIDATION_PRIORS:
        prior = BernoulliGaussianPrior(alpha, sigma_x)
        yield prior, sigma, MmseDenoiser(prior, sigma)


def _verdict(worst: float, tol: float, what: str) -> tuple[str, str]:
    """``PASS`` when ``worst < tol``, else ``FAIL``, and a detail naming ``what``, ``worst`` and ``tol``."""
    return ("PASS" if worst < tol else "FAIL"), f"{what} {worst:.3e} (tol {tol:.3e})"


def _gradient_gap(f, grad, points) -> float:
    """Largest relative distance of ``grad`` from ``f``'s central differences at step 1e-6 over ``points``.

    Each distance is taken relative to ``max(1, |grad|)``.
    """
    worst = 0.0
    for x in points:
        g = grad(x)
        fd = np.array([(f(x + e) - f(x - e)) / 2e-6 for e in 1e-6 * np.eye(x.size)])
        worst = max(worst, float(np.linalg.norm(fd - g)) / max(1.0, float(np.linalg.norm(g))))
    return worst


def _small_problem(config: ExperimentConfig, n=64, m=48):
    prior = BernoulliGaussianPrior(0.2)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(97,)))
    x_true = _nonzero_signal(prior, n, rng)
    operator = generate_operator(m, n, rng)
    problem = build_instance(operator, x_true, rng, input_snr_db=config.input_snr_db)
    return prior, problem


def run_validation_suite(config: ExperimentConfig) -> ValidationReport:
    """Run every analytic invariant at small scale with fixed seeds.

    Each check's tolerance is its entry in :data:`DEFAULT_VALIDATION_TOLERANCES`.
    Failures are results, not exceptions: each check lands in the report as
    PASS, FAIL, or SKIP.
    """
    checks: list[CheckResult] = []

    def run_check(name, fn):
        try:
            status, detail = fn(DEFAULT_VALIDATION_TOLERANCES[name])
        except Exception as exc:  # noqa: BLE001 - failures are results here
            status, detail = "FAIL", f"raised {exc!r}"
        checks.append(CheckResult(name, status, detail))

    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(101,)))

    def check_tweedie(tol):
        worst = 0.0
        for prior, sigma, denoiser in _reference_channels():
            z = _grid_for(prior, sigma)
            resid = np.abs(denoiser.tweedie_residual(z)) / np.maximum(1.0, np.abs(z))
            worst = max(worst, float(np.max(resid)))
        return _verdict(worst, tol, "max scaled residual")

    def check_prox_phi(tol):
        violations = 0
        for _ in range(40):
            alpha = rng.uniform(0.05, 1.0)
            prior = BernoulliGaussianPrior(alpha)
            sigma = rng.uniform(0.05, 1.5)
            gamma = rng.uniform(0.05, 2.0)
            z = rng.uniform(-6.0, 6.0)
            reg = InducedRegularizer(MmseDenoiser(prior, sigma), gamma)
            phi_z = reg.prox_objective(z, z)
            u = z + rng.uniform(-3.0, 3.0, size=20)
            u = u[np.abs(u - z) > 1e-6]
            violations += int(np.sum(reg.prox_objective(u, z) <= phi_z + tol))
        status = "PASS" if violations == 0 else "FAIL"
        return status, f"{violations} perturbations at or below the center value"

    def check_prox_grid(tol):
        worst = 0.0
        for _ in range(10):
            alpha = rng.uniform(0.05, 1.0)
            prior = BernoulliGaussianPrior(alpha)
            sigma = rng.uniform(0.1, 1.0)
            gamma = rng.uniform(0.1, 1.0)
            z = rng.uniform(-4.0, 4.0)
            denoiser = MmseDenoiser(prior, sigma)
            center = denoiser.denoise(z)
            grid = center + np.arange(-200, 201) * tol
            h, _ = _induced_terms(prior, sigma, gamma, grid, denoiser.invert(grid))
            values = 0.5 * (grid - z) ** 2 + gamma * h
            best = grid[int(np.argmin(values))]
            worst = max(worst, abs(best - center))
        status = "PASS" if worst <= tol else "FAIL"
        return status, f"max grid-minimizer offset {worst:.3e} (grid step {tol:.1e})"

    def check_derivative_fd(tol):
        worst = 0.0
        step = 1e-5
        for prior, sigma, denoiser in _reference_channels():
            z = _grid_for(prior, sigma, 101)
            fd = (denoiser.denoise(z + step) - denoiser.denoise(z - step)) / (2 * step)
            worst = max(worst, float(np.max(np.abs(fd - denoiser.derivative(z)))))
        return _verdict(worst, tol, "max |fd - analytic|")

    def check_derivative_identity(tol):
        worst = 0.0
        for prior, sigma, denoiser in _reference_channels():
            z = _grid_for(prior, sigma)
            gap = denoiser.derivative(z) - denoiser.posterior_variance(z) / sigma**2
            worst = max(worst, float(np.max(np.abs(gap))))
        return _verdict(worst, tol, "max identity gap")

    def check_inverse(tol):
        worst = 0.0
        for prior, sigma, denoiser in _reference_channels():
            z = _grid_for(prior, sigma, 81)
            worst = max(worst, float(np.max(np.abs(denoiser.invert(denoiser.denoise(z)) - z))))
            x = np.linspace(-3.0, 3.0, 41)
            worst = max(worst, float(np.max(np.abs(denoiser.denoise(denoiser.invert(x)) - x))))
        return _verdict(worst, tol, "max round-trip error")

    def check_jacobian(tol):
        min_slope = np.inf
        for prior, sigma, denoiser in _reference_channels():
            slopes = denoiser.derivative(_grid_for(prior, sigma))
            min_slope = min(min_slope, float(np.min(slopes)))
        expansive = MmseDenoiser(BernoulliGaussianPrior(0.2), 0.5)
        max_slope = float(np.max(expansive.derivative(np.linspace(-4.0, 4.0, 801))))
        ok = min_slope > tol and max_slope > 1.0
        status = "PASS" if ok else "FAIL"
        return status, f"min slope {min_slope:.3e}, expansive max slope {max_slope:.3f}"

    def check_normalization(tol):
        worst = 0.0
        for prior, sigma, _ in _reference_channels():
            half = 14.0 * (prior.sigma_x + sigma)
            density = marginal_density(prior, sigma, np.linspace(-half, half, 4001))
            # trapezoid rule; a step read as t[1] - t[0] carries rounding that costs about 1e-12
            total = (density.sum() - 0.5 * (density[0] + density[-1])) * (2 * half / 4000)
            worst = max(worst, abs(total - 1.0))
        return _verdict(worst, tol, "max |integral - 1|")

    def check_fidelity_grad(tol):
        # noiseless, so that 0.5 * |y - Hx|^2 is not flat at double precision when |y| >> |Hx|
        _, noisy = _small_problem(config, n=8, m=12)
        op, x = noisy.operator, noisy.x_true
        problem = ProblemInstance(op, x, op.forward(x), 0.0)
        points = (rng.normal(size=8) for _ in range(20))
        worst = _gradient_gap(lambda x: data_fidelity(problem, x), lambda x: grad_data_fidelity(problem, x), points)
        return _verdict(worst, tol, "max relative gradient gap")

    def check_regularizer_grad(tol):
        prior = BernoulliGaussianPrior(0.2)
        reg = InducedRegularizer(MmseDenoiser(prior, 0.4), 0.3)
        worst = _gradient_gap(reg.value, reg.gradient, (rng.normal(size=5) for _ in range(10)))
        return _verdict(worst, tol, "max relative gradient gap")

    def check_mm_sandwich(tol):
        prior, problem = _small_problem(config)
        gamma, _ = _resolve_gamma(dataclasses.replace(config, gamma_policy="auto"), problem.operator)
        denoiser = MmseDenoiser(prior, 0.3)
        reg = InducedRegularizer(denoiser, gamma)
        x = np.zeros(problem.n)
        worst = 0.0
        for _ in range(10):
            x_prev = x
            x = denoiser.denoise(x - gamma * grad_data_fidelity(problem, x))
            f_new = data_fidelity(problem, x) + reg.value(x)
            f_old = data_fidelity(problem, x_prev) + reg.value(x_prev)
            mu = mm_surrogate(problem, reg, x, x_prev)
            slack = tol * max(1.0, abs(f_old))
            worst = max(worst, f_new - mu, mu - f_old)
            if f_new > mu + slack or mu > f_old + slack:
                return "FAIL", f"sandwich violated by {worst:.3e}"
        return "PASS", f"max sandwich slack used {worst:.3e}"

    def check_monotonicity(tol):
        prior, problem = _small_problem(config)
        gamma, override = _resolve_gamma(config, problem.operator)
        if override:
            return "SKIP", "explicit gamma exceeds 1/L; descent is not guaranteed"
        trace = pnp_ista(problem, MmseDenoiser(prior, 0.3), gamma, max_iter=150)
        diffs = np.diff(trace.objective)
        worst = float(np.max(diffs)) if len(diffs) else 0.0
        ok = np.all(diffs <= tol * abs(trace.objective[0]))
        return ("PASS" if ok else "FAIL"), f"max objective increase {worst:.3e}"

    def check_soft_threshold(tol):
        worst = 0.0
        for _ in range(20):
            z = rng.uniform(-4.0, 4.0)
            tau = rng.uniform(0.0, 2.0)
            grid = np.arange(-6.0, 6.0, tol)
            values = 0.5 * (grid - z) ** 2 + tau * np.abs(grid)
            best = grid[int(np.argmin(values))]
            worst = max(worst, abs(best - soft_threshold(z, tau)))
        status = "PASS" if worst <= 2 * tol else "FAIL"
        return status, f"max offset from grid argmin {worst:.3e} (grid step {tol:.1e})"

    def check_lipschitz(tol):
        rng_l = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(103,)))
        worst = 0.0
        # the shapes cover m < n, m > n and m = n, and the spectrum with and without a kept Gram matrix
        for m, n in [(20, 30), (30, 20), (25, 25), (10, 30)]:
            operator = generate_operator(m, n, rng_l)
            estimate = operator.lipschitz.value
            exact = float(np.max(np.linalg.eigvalsh(operator.matrix.T @ operator.matrix)))
            worst = max(worst, abs(estimate - exact) / exact)
        return _verdict(worst, tol, "max relative eigenvalue gap")

    def check_gamp_decoupled(tol):
        prior = BernoulliGaussianPrior(0.2)
        rng_g = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(105,)))
        n = 64
        x_true = _nonzero_signal(prior, n, rng_g)
        operator = MeasurementOperator(np.eye(n))
        problem = build_instance(operator, x_true, rng_g, input_snr_db=config.input_snr_db)
        trace = gamp(problem, prior, max_iter=200)
        exact = MmseDenoiser(prior, problem.sigma_e).denoise(problem.y)
        worst = float(np.max(np.abs(trace.final_iterate - exact)))
        return _verdict(worst, tol, "max deviation from scalar denoiser")

    run_check("tweedie_identity", check_tweedie)
    run_check("prox_phi_minimum", check_prox_phi)
    run_check("prox_grid_minimizer", check_prox_grid)
    run_check("derivative_finite_difference", check_derivative_fd)
    run_check("derivative_variance_identity", check_derivative_identity)
    run_check("inverse_round_trip", check_inverse)
    run_check("jacobian_positivity", check_jacobian)
    run_check("marginal_normalization", check_normalization)
    run_check("fidelity_gradient_fd", check_fidelity_grad)
    run_check("regularizer_gradient_fd", check_regularizer_grad)
    run_check("mm_sandwich", check_mm_sandwich)
    run_check("pnp_monotonicity", check_monotonicity)
    run_check("soft_threshold_prox", check_soft_threshold)
    run_check("lipschitz_dense", check_lipschitz)
    run_check("gamp_decoupled", check_gamp_decoupled)
    return ValidationReport(checks)


def write_validation_report(report: ValidationReport, out_dir: str | Path) -> Path:
    path = make_output_dir(out_dir) / "validation.csv"
    _write_csv(path, VALIDATION_HEADER, [(c.name, c.status, c.detail) for c in report.checks])
    return path
