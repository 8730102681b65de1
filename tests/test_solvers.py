"""Solver behavior: descent, fixed points, oracles, and failure modes."""

import dataclasses

import numpy as np
import pytest

from pnpmmse import (
    BernoulliGaussianPrior,
    InducedRegularizer,
    MeasurementOperator,
    MmseDenoiser,
    NumericalFailureError,
    TraceOptions,
    build_instance,
    data_fidelity,
    gamp,
    generate_operator,
    grad_data_fidelity,
    lasso_ista,
    mm_surrogate,
    pnp_ista,
    sample_signal,
    soft_threshold,
)

from pnpmmse.experiment import ExperimentConfig
from pnpmmse.experiment import make_problem as make_trial_problem

from oracles import (
    GAMP_SEED_1000_SNR_500_DB,
    GAMP_SEED_3_SNR_AT_STOP_DB,
    lasso_coordinate_descent,
    lasso_objective,
    ridge_stationary_point,
)


def make_problem(rng, n=64, m=48, alpha=0.2, snr=20.0, sigma_e=None):
    prior = BernoulliGaussianPrior(alpha)
    x = sample_signal(prior, n, rng)
    op = generate_operator(m, n, rng)
    if sigma_e is None:
        problem = build_instance(op, x, rng, input_snr_db=snr)
    else:
        problem = build_instance(op, x, rng, sigma_e=sigma_e)
    return prior, problem


class TestSoftThreshold:
    def test_basic_values(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-0.5, 1.0) == 0.0
        assert soft_threshold(-3.0, 1.0) == -2.0
        # one threshold per column of a block
        block = soft_threshold(np.array([[3.0, 3.0], [-0.5, -3.0]]), np.array([1.0, 2.0]))
        np.testing.assert_array_equal(block, [[2.0, 1.0], [0.0, -1.0]])

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)
        with pytest.raises(ValueError):
            soft_threshold(np.ones((3, 2)), np.array([0.5, -0.1]))

    def test_matches_grid_prox(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.uniform(-4, 4)
            tau = rng.uniform(0, 2)
            grid = np.arange(-6, 6, 1e-4)
            values = 0.5 * (grid - z) ** 2 + tau * np.abs(grid)
            assert abs(grid[np.argmin(values)] - soft_threshold(z, tau)) <= 1e-4


class TestPnpIsta:
    def test_single_step_reaches_denoised_data(self):
        # identity operator, no noise, unit step: z^1 = y, x^1 = D(y)
        rng = np.random.default_rng(1)
        prior = BernoulliGaussianPrior(0.3)
        x_true = sample_signal(prior, 32, rng)
        op = MeasurementOperator(np.eye(32))
        problem = build_instance(op, x_true, rng, sigma_e=0.0)
        denoiser = MmseDenoiser(prior, 0.4)
        trace = pnp_ista(problem, denoiser, gamma=1.0, max_iter=1)
        np.testing.assert_allclose(trace.final_iterate, denoiser.denoise(problem.y), rtol=1e-13)

    def test_gaussian_prior_reaches_ridge_solution(self):
        rng = np.random.default_rng(2)
        prior, problem = make_problem(rng, n=24, m=32, alpha=1.0)
        lip = problem.operator.lipschitz.value
        gamma = 0.99 / lip
        denoiser = MmseDenoiser(prior, 0.5)
        trace = pnp_ista(problem, denoiser, gamma, max_iter=2000)
        assert trace.grad_norm[-1] < 1e-8
        x_star = ridge_stationary_point(problem, denoiser, gamma)
        reg = InducedRegularizer(denoiser, gamma)
        f_star = data_fidelity(problem, x_star) + reg.value(x_star)
        assert trace.objective[-1] == pytest.approx(f_star, rel=1e-8)

    def test_objective_monotone_and_gradient_vanishes(self):
        rng = np.random.default_rng(3)
        prior, problem = make_problem(rng, n=256, m=205)
        lip = problem.operator.lipschitz.value
        trace = pnp_ista(problem, MmseDenoiser(prior, 0.2), 0.99 / lip, max_iter=400)
        diffs = np.diff(trace.objective)
        assert np.all(diffs <= 1e-9 * abs(trace.objective[0]))
        assert trace.grad_norm[-1] <= 1e-3 * trace.grad_norm[1]
        # the traced objective, evaluated at the pre-denoise iterate, equals the
        # objective through the denoiser inverse at the final iterate
        x = trace.final_iterate
        reg = InducedRegularizer(MmseDenoiser(prior, 0.2), 0.99 / lip)
        assert trace.objective[-1] == pytest.approx(data_fidelity(problem, x) + reg.value(x), rel=1e-9)

    def test_fully_traced_run_never_inverts(self, monkeypatch):
        rng = np.random.default_rng(3)
        prior, problem = make_problem(rng, n=64, m=51)
        lip = problem.operator.lipschitz.value

        def refuse(self, x):
            raise AssertionError("the solver inverted the denoiser")

        monkeypatch.setattr(MmseDenoiser, "invert", refuse)
        trace = pnp_ista(problem, MmseDenoiser(prior, 0.2), 0.99 / lip, max_iter=50)
        assert trace.iterations_run == 50
        assert trace.stop_reason == "max_iter"
        assert np.all(np.isfinite(trace.objective)) and np.all(np.isfinite(trace.grad_norm))

    def test_fixed_point_consistency_at_convergence(self):
        rng = np.random.default_rng(4)
        prior, problem = make_problem(rng, n=64, m=51)
        lip = problem.operator.lipschitz.value
        gamma = 0.99 / lip
        denoiser = MmseDenoiser(prior, 0.3)
        trace = pnp_ista(problem, denoiser, gamma, max_iter=3000)
        x = trace.final_iterate
        residual = x - denoiser.denoise(x - gamma * grad_data_fidelity(problem, x))
        assert np.linalg.norm(residual) <= 1e-6 * np.linalg.norm(x)

    def test_step_size_guard_and_override(self):
        rng = np.random.default_rng(5)
        prior, problem = make_problem(rng)
        lip = problem.operator.lipschitz.value
        with pytest.raises(ValueError):
            pnp_ista(problem, MmseDenoiser(prior, 0.3), 2.0 / lip, max_iter=5)
        trace = pnp_ista(
            problem,
            MmseDenoiser(prior, 0.3),
            2.0 / lip,
            max_iter=5,
            allow_large_step=True,
            trace=TraceOptions(objective=False, gradient=False, snr=True),
        )
        assert trace.iterations_run == 5

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_iterate_reports_iteration(self):
        rng = np.random.default_rng(6)
        prior, problem = make_problem(rng, n=16, m=16)
        broken = dataclasses.replace(problem, y=np.full(16, 1e300))
        with pytest.raises(NumericalFailureError) as info:
            pnp_ista(
                problem=broken,
                denoiser=MmseDenoiser(prior, 0.3),
                gamma=1e6,
                max_iter=50,
                allow_large_step=True,
                trace=TraceOptions(objective=False, gradient=False, snr=False),
            )
        assert info.value.iteration is not None

    def test_trace_interval_and_density(self):
        rng = np.random.default_rng(7)
        prior, problem = make_problem(rng, n=32, m=24)
        lip = problem.operator.lipschitz.value
        trace = pnp_ista(
            problem,
            MmseDenoiser(prior, 0.3),
            0.99 / lip,
            max_iter=20,
            trace=TraceOptions(interval=5),
        )
        np.testing.assert_array_equal(trace.iterations, [0, 5, 10, 15, 20])
        dense = pnp_ista(problem, MmseDenoiser(prior, 0.3), 0.99 / lip, max_iter=7)
        np.testing.assert_array_equal(dense.iterations, np.arange(8))
        assert len(dense.objective) == len(dense.grad_norm) == len(dense.snr_db) == 8

    def test_gradient_early_stop(self):
        rng = np.random.default_rng(8)
        prior, problem = make_problem(rng, n=24, m=32, alpha=1.0)
        lip = problem.operator.lipschitz.value
        trace = pnp_ista(
            problem,
            MmseDenoiser(prior, 0.5),
            0.99 / lip,
            max_iter=5000,
            grad_rtol=1e-6,
        )
        assert trace.iterations_run < 5000
        assert trace.stop_reason == "grad_rtol"
        assert trace.grad_norm[-1] <= 1e-6 * trace.grad_norm[1]


@pytest.mark.parametrize("m", [31, 33, 128])
def test_traced_objectives_match_oracles_on_both_normal_routes(m):
    # n = 64: 2m < n, 2m > n, and m > n
    rng = np.random.default_rng(m)
    prior, problem = make_problem(rng, n=64, m=m)
    gamma = 0.99 / problem.operator.lipschitz.value
    denoiser = MmseDenoiser(prior, 0.2)
    trace = pnp_ista(problem, denoiser, gamma, max_iter=50)
    x = trace.final_iterate
    expected = data_fidelity(problem, x) + InducedRegularizer(denoiser, gamma).value(x)
    assert trace.objective[-1] == pytest.approx(expected, rel=1e-9)
    lam = 0.05 * float(np.max(np.abs(problem.operator.adjoint(problem.y))))
    trace = lasso_ista(problem, lam, gamma, max_iter=50)
    assert trace.objective[-1] == pytest.approx(lasso_objective(problem, lam, trace.final_iterate), rel=1e-9)


class TestLassoIsta:
    def test_huge_weight_collapses_to_zero(self):
        rng = np.random.default_rng(9)
        _, problem = make_problem(rng)
        lam = 10.0 * float(np.max(np.abs(problem.operator.adjoint(problem.y))))
        lip = problem.operator.lipschitz.value
        trace = lasso_ista(problem, lam, 0.99 / lip, max_iter=50)
        np.testing.assert_array_equal(trace.final_iterate, np.zeros(problem.n))

    def test_small_weight_approaches_least_squares(self):
        rng = np.random.default_rng(10)
        prior, problem = make_problem(rng, n=24, m=48, sigma_e=0.0)
        lip = problem.operator.lipschitz.value
        trace = lasso_ista(problem, 1e-6, 0.99 / lip, max_iter=2000)
        assert trace.snr_db[-1] > 80.0
        assert trace.snr_db[-1] >= trace.snr_db[1]

    def test_objective_monotone(self):
        rng = np.random.default_rng(11)
        _, problem = make_problem(rng)
        lam_scale = float(np.max(np.abs(problem.operator.adjoint(problem.y))))
        lip = problem.operator.lipschitz.value
        trace = lasso_ista(problem, 0.05 * lam_scale, 0.99 / lip, max_iter=300)
        assert np.all(np.diff(trace.objective) <= 1e-9 * abs(trace.objective[0]))

    def test_matches_coordinate_descent_oracle(self):
        rng = np.random.default_rng(12)
        n, m = 64, 128
        x_true = np.zeros(n)
        support = rng.choice(n, size=3, replace=False)
        x_true[support] = rng.normal(scale=2.0, size=3)
        op = generate_operator(m, n, rng)
        problem = build_instance(op, x_true, rng, sigma_e=0.0)
        lam = 0.01 * float(np.max(np.abs(op.adjoint(problem.y))))
        lip = op.lipschitz.value
        trace = lasso_ista(problem, lam, 0.99 / lip, max_iter=4000)
        assert set(support) <= set(np.flatnonzero(trace.final_iterate))
        oracle_x = lasso_coordinate_descent(problem, lam, sweeps=3000)
        assert lasso_objective(problem, lam, trace.final_iterate) == pytest.approx(
            lasso_objective(problem, lam, oracle_x), rel=1e-6
        )

    def test_requires_positive_weight(self):
        rng = np.random.default_rng(13)
        _, problem = make_problem(rng)
        with pytest.raises(ValueError):
            lasso_ista(problem, 0.0, 0.1, max_iter=5, allow_large_step=True)


class TestGamp:
    def test_decoupled_matches_scalar_denoiser(self):
        rng = np.random.default_rng(14)
        prior = BernoulliGaussianPrior(0.2)
        n = 128
        x_true = sample_signal(prior, n, rng)
        problem = build_instance(MeasurementOperator(np.eye(n)), x_true, rng, input_snr_db=20.0)
        trace = gamp(problem, prior, max_iter=200)
        exact = MmseDenoiser(prior, problem.sigma_e).denoise(problem.y)
        assert np.max(np.abs(trace.final_iterate - exact)) < 1e-6
        assert trace.objective is None and trace.grad_norm is None

    def test_noiseless_identity_returns_data(self):
        rng = np.random.default_rng(15)
        prior = BernoulliGaussianPrior(0.2)
        n = 64
        x_true = sample_signal(prior, n, rng)
        problem = build_instance(MeasurementOperator(np.eye(n)), x_true, rng, sigma_e=0.0)
        trace = gamp(problem, prior, max_iter=200)
        np.testing.assert_allclose(trace.final_iterate, problem.y, atol=1e-8)

    def test_beats_pnp_on_shared_instances(self):
        gamp_final, pnp_final = [], []
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            prior, problem = make_problem(rng, n=256, m=205)
            lip = problem.operator.lipschitz.value
            gamp_final.append(gamp(problem, prior, max_iter=300).snr_db[-1])
            best = -np.inf
            for sigma in np.geomspace(0.01, 0.37, 9):
                trace = pnp_ista(
                    problem,
                    MmseDenoiser(prior, sigma),
                    0.99 / lip,
                    max_iter=300,
                    trace=TraceOptions(objective=False, gradient=False, snr=True),
                )
                best = max(best, trace.snr_db[-1])
            pnp_final.append(best)
        assert np.mean(gamp_final) >= np.mean(pnp_final)

    @pytest.mark.parametrize("damping", [0.0, -0.5, 1.5])
    def test_damping_domain(self, damping):
        rng = np.random.default_rng(16)
        prior, problem = make_problem(rng, n=16, m=16)
        with pytest.raises(ValueError):
            gamp(problem, prior, max_iter=5, damping=damping)

    def test_snr_trace_dense_from_zero(self):
        rng = np.random.default_rng(17)
        prior, problem = make_problem(rng, n=32, m=26)
        trace = gamp(problem, prior, max_iter=25)
        np.testing.assert_array_equal(trace.iterations, np.arange(trace.iterations_run + 1))
        assert len(trace.snr_db) == trace.iterations_run + 1
        assert not trace.diverged

    @staticmethod
    def sweep_low_problem(program_seed):
        """The rate-0.3 cell of the benchmark's sweep-low command at ``program_seed``."""
        config = ExperimentConfig(seed=program_seed, n=1024, alpha=0.05, measurement_rates=(0.3, 0.4), trials=1)
        return make_trial_problem(config, 0, 0)

    def test_stops_at_its_fixed_point(self):
        trace = gamp(self.sweep_low_problem(1000), BernoulliGaussianPrior(0.05))
        assert trace.stop_reason == "fixed_point" and not trace.diverged
        assert trace.iterations_run <= 150
        # the stopping iteration is recorded
        assert trace.iterations[-1] == trace.iterations_run
        assert abs(trace.snr_db[-1] - GAMP_SEED_1000_SNR_500_DB) <= 1e-9

    def test_snr_rule_stops_the_overshooting_cell_as_before(self):
        trace = gamp(self.sweep_low_problem(3), BernoulliGaussianPrior(0.05))
        assert trace.stop_reason == "diverged" and trace.diverged
        assert trace.iterations_run == 12
        assert trace.snr_db[-1] == GAMP_SEED_3_SNR_AT_STOP_DB


class TestMmSurrogate:
    def setup_method(self):
        rng = np.random.default_rng(18)
        self.prior, self.problem = make_problem(rng, n=8, m=12)
        self.lip = self.problem.operator.lipschitz.value
        self.gamma = 0.99 / self.lip
        self.denoiser = MmseDenoiser(self.prior, 0.4)
        self.reg = InducedRegularizer(self.denoiser, self.gamma)
        self.rng = rng

    def objective(self, x):
        return data_fidelity(self.problem, x) + self.reg.value(x)

    def test_touches_objective_at_anchor(self):
        for _ in range(10):
            s = self.rng.normal(size=8)
            assert mm_surrogate(self.problem, self.reg, s, s) == pytest.approx(
                self.objective(s), rel=1e-10
            )

    def test_majorizes_objective(self):
        for _ in range(100):
            x = self.rng.normal(scale=1.5, size=8)
            s = self.rng.normal(scale=1.5, size=8)
            assert mm_surrogate(self.problem, self.reg, x, s) >= self.objective(x) - 1e-9

    def test_sandwich_along_trajectory(self):
        x = np.zeros(8)
        for _ in range(10):
            x_prev = x
            x = self.denoiser.denoise(x - self.gamma * grad_data_fidelity(self.problem, x))
            f_new, f_old = self.objective(x), self.objective(x_prev)
            mu = mm_surrogate(self.problem, self.reg, x, x_prev)
            slack = 1e-9 * max(1.0, abs(f_old))
            assert f_new <= mu + slack
            assert mu <= f_old + slack
