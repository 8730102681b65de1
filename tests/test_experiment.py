"""Experiment driver: config handling, determinism, CSV schemas, validation."""

import re

import numpy as np
import pytest

from pnpmmse import ConfigurationError, MmseDenoiser, TraceOptions, experiment, lasso_ista, pnp_ista
from pnpmmse.cli import main
from pnpmmse.experiment import (
    ROLE_MATRIX,
    ROLE_NOISE,
    ROLE_SIGNAL,
    ExperimentConfig,
    make_problem,
    run_convergence_experiment,
    run_rate_sweep,
    run_validation_suite,
    trial_rng,
)
from pnpmmse.prior import BernoulliGaussianPrior, sample_signal
from pnpmmse.solvers import lasso_ista_grid, pnp_ista_grid

TINY = dict(
    seed=424242,
    n=48,
    alpha=0.2,
    trials=2,
    max_iter=25,
    lambda_grid=tuple(np.geomspace(1e-3, 0.5, 4)),
    sigma_grid=tuple(np.geomspace(0.05, 0.4, 3)),
)


def tiny_config(**overrides):
    values = dict(TINY)
    values.update(overrides)
    return ExperimentConfig(**values)


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    @pytest.mark.parametrize(
        "changes",
        [
            dict(trials=0),
            dict(alpha=0.0),
            dict(measurement_rates=()),
            dict(measurement_rates=(0.5, 0.3)),
            dict(measurement_rates=(0.0, 0.5)),
            dict(solvers=()),
            dict(solvers=("pnp", "bogus")),
            dict(solvers=("pnp",), sigma_grid=()),
            dict(solvers=("lasso",), lambda_grid=()),
            dict(gamma_policy="fast"),
            dict(gamma_policy=-0.5),
            dict(gamp_damping=0.0),
            dict(workers=0),
        ],
    )
    def test_invalid_configs_rejected(self, changes):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**changes).validate()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({"n": 64, "mystery": 1})

    def test_replace_produces_new_config(self):
        base = ExperimentConfig()
        other = base.replace(n=128)
        assert other.n == 128 and base.n == 1024


class TestSubseeds:
    def test_roles_yield_distinct_streams(self):
        draws = {
            role: trial_rng(7, 0, 0, role).random(4)
            for role in (ROLE_SIGNAL, ROLE_MATRIX, ROLE_NOISE)
        }
        assert not np.allclose(draws[ROLE_SIGNAL], draws[ROLE_MATRIX])
        assert not np.allclose(draws[ROLE_SIGNAL], draws[ROLE_NOISE])

    def test_trials_yield_distinct_instances(self):
        config = tiny_config(measurement_rates=(0.75,))
        a = make_problem(config, 0, 0)
        b = make_problem(config, 0, 1)
        assert not np.array_equal(a.x_true, b.x_true)
        assert not np.array_equal(a.operator.matrix, b.operator.matrix)

    def test_instances_are_reproducible(self):
        config = tiny_config(measurement_rates=(0.75,))
        a = make_problem(config, 0, 1)
        b = make_problem(config, 0, 1)
        np.testing.assert_array_equal(a.x_true, b.x_true)
        np.testing.assert_array_equal(a.operator.matrix, b.operator.matrix)
        np.testing.assert_array_equal(a.y, b.y)

    def test_all_zero_signal_draw_is_redrawn(self):
        config = ExperimentConfig(seed=9, n=48, alpha=0.05, trials=1, measurement_rates=(0.8,))
        prior = BernoulliGaussianPrior(config.alpha)
        rng = trial_rng(config.seed, 0, 0, ROLE_SIGNAL)
        draws = [sample_signal(prior, config.n, rng)]
        assert not np.any(draws[0]), "this cell's first signal draw is the all-zero case"
        while not np.any(draws[-1]):
            draws.append(sample_signal(prior, config.n, rng))
        problem = make_problem(config, 0, 0)
        np.testing.assert_array_equal(problem.x_true, draws[-1])
        assert np.isfinite(problem.sigma_e) and problem.sigma_e > 0.0

    @pytest.mark.parametrize("trial", [0, 1])
    def test_nonzero_first_draw_is_kept(self, trial):
        config = tiny_config(measurement_rates=(0.75,))
        expected = sample_signal(
            BernoulliGaussianPrior(config.alpha),
            config.n,
            trial_rng(config.seed, 0, trial, ROLE_SIGNAL),
        )
        assert np.any(expected)
        np.testing.assert_array_equal(make_problem(config, 0, trial).x_true, expected)


def first_best(grid, traces):
    """The per-value selection rule: strictly higher final SNR replaces the best so far."""
    best = None
    for value, trace in zip(grid, traces):
        if best is None or trace.snr_db[-1] > best[1]:
            best = (value, trace.snr_db[-1])
    return best[0]


class TestBatchedGridSearch:
    @pytest.mark.parametrize(
        "config",
        [
            tiny_config(measurement_rates=(0.3,)),
            tiny_config(n=128, measurement_rates=(0.8,), max_iter=60),
        ],
        ids=["tiny", "m_above_half_n"],
    )
    def test_block_matches_single_value_runs(self, config):
        problem = make_problem(config, 0, 0)
        prior = BernoulliGaussianPrior(config.alpha)
        gamma, _, lip = experiment._resolve_gamma(config, problem.operator)
        lam_scale = float(np.max(np.abs(problem.operator.adjoint(problem.y))))
        lams = [rel * lam_scale for rel in config.lambda_grid]
        full = TraceOptions()
        with_objective = TraceOptions(objective=True, gradient=False, snr=True)
        pnp_block = pnp_ista_grid(problem, prior, config.sigma_grid, gamma, config.max_iter, full, lipschitz=lip)
        pnp_single = [
            pnp_ista(problem, MmseDenoiser(prior, s), gamma, config.max_iter, full, lipschitz=lip)
            for s in config.sigma_grid
        ]
        lasso_block = lasso_ista_grid(problem, lams, gamma, config.max_iter, with_objective, lipschitz=lip)
        lasso_single = [
            lasso_ista(problem, lam, gamma, config.max_iter, with_objective, lipschitz=lip) for lam in lams
        ]
        for block, single in [(pnp_block, pnp_single), (lasso_block, lasso_single)]:
            assert len(block) == len(single)
            for b, s in zip(block, single):
                assert b.iterations_run == s.iterations_run
                np.testing.assert_array_equal(b.iterations, s.iterations)
                np.testing.assert_allclose(b.snr_db, s.snr_db, rtol=0.0, atol=1e-9)
                np.testing.assert_allclose(b.objective, s.objective, rtol=1e-9, atol=0.0)
        for b, s in zip(pnp_block, pnp_single):
            np.testing.assert_allclose(b.grad_norm, s.grad_norm, rtol=1e-9, atol=1e-9 * s.grad_norm[1])

        outcome = experiment._run_trial(config, 0, 0, full_pnp_trace=False)
        assert outcome.error is None
        assert outcome.selections == {
            "pnp": ("sigma", first_best(config.sigma_grid, pnp_single)),
            "lasso": ("lambda", first_best(lams, lasso_single)),
        }

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid", "ignore:divide by zero")
    def test_diverging_block_fails_the_trial(self):
        config = tiny_config(measurement_rates=(0.8,), gamma_policy=1e20)
        outcome = experiment._run_trial(config, 0, 0, full_pnp_trace=False)
        assert re.fullmatch(r"non-finite iterate at iteration \d+", outcome.error)
        assert not outcome.selections


class TestConvergenceExperiment:
    def test_requires_pnp_and_single_rate(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_convergence_experiment(
                tiny_config(measurement_rates=(0.8,), solvers=("lasso",)), tmp_path
            )
        with pytest.raises(ConfigurationError):
            run_convergence_experiment(
                tiny_config(measurement_rates=(0.5, 0.8), solvers=("pnp",)), tmp_path
            )

    def test_outputs_and_schema(self, tmp_path):
        config = tiny_config(measurement_rates=(0.8,), solvers=("pnp", "lasso"))
        paths = run_convergence_experiment(config, tmp_path)
        cost = (tmp_path / "convergence_cost.csv").read_text().splitlines()
        assert cost[0] == "iter,f_norm_mean,f_norm_min,f_norm_max"
        first = cost[1].split(",")
        assert first[0] == "0"
        assert all(v == "1.0" for v in first[1:])
        # normalized cost columns are nonincreasing in every aggregate
        rows = np.array([[float(v) for v in line.split(",")] for line in cost[1:]])
        assert rows.shape[0] == config.max_iter + 1
        for col in (1, 2, 3):
            assert np.all(np.diff(rows[:, col]) <= 1e-12)

        snr = (tmp_path / "convergence_snr.csv").read_text().splitlines()
        assert snr[0] == "iter,solver,snr_mean,snr_min,snr_max"
        solvers = {line.split(",")[1] for line in snr[1:]}
        assert solvers == {"pnp", "lasso"}

        selections = (tmp_path / "selections.csv").read_text().splitlines()
        assert selections[0] == "rate,trial,solver,param_name,param_value"
        assert len(selections) == 1 + 2 * config.trials
        assert paths["cost"].exists() and paths["snr"].exists()

    def test_byte_identical_reruns(self, tmp_path):
        config = tiny_config(measurement_rates=(0.8,), solvers=("pnp", "lasso"))
        run_convergence_experiment(config, tmp_path / "a")
        run_convergence_experiment(config, tmp_path / "b")
        for name in ("convergence_cost.csv", "convergence_snr.csv", "selections.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_worker_pool_matches_serial(self, tmp_path):
        config = tiny_config(measurement_rates=(0.8,), solvers=("pnp",), trials=3)
        run_convergence_experiment(config, tmp_path / "serial")
        run_convergence_experiment(config.replace(workers=3), tmp_path / "pool")
        for name in ("convergence_cost.csv", "selections.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "pool" / name).read_bytes()


class TestRateSweep:
    def test_requires_multiple_rates(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_rate_sweep(tiny_config(measurement_rates=(0.8,)), tmp_path)

    def test_empty_solver_set_fails_before_compute(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_rate_sweep(tiny_config(solvers=(), measurement_rates=(0.4, 0.8)), tmp_path)

    def test_outputs_and_schema(self, tmp_path):
        config = tiny_config(measurement_rates=(0.4, 0.8), solvers=("pnp", "gamp"))
        run_rate_sweep(config, tmp_path)
        lines = (tmp_path / "rate_sweep.csv").read_text().splitlines()
        assert lines[0] == "rate,solver,snr_mean,snr_min,snr_max"
        assert len(lines) == 1 + 2 * 2
        for line in lines[1:]:
            rate, solver, mean, lo, hi = line.split(",")
            assert solver in ("pnp", "gamp")
            assert float(lo) <= float(mean) <= float(hi)


class TestValidationSuite:
    def test_default_suite_passes(self):
        report = run_validation_suite(tiny_config())
        assert report.passed
        assert all(c.status == "PASS" for c in report.checks)

    def test_corrupted_tolerance_fails_loudly(self):
        report = run_validation_suite(tiny_config(), {"tweedie_identity": 1e-30})
        statuses = {c.name: c.status for c in report.checks}
        assert statuses["tweedie_identity"] == "FAIL"
        assert not report.passed

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(ConfigurationError):
            run_validation_suite(tiny_config(), {"not_a_check": 1.0})

    def test_gamma_override_skips_monotonicity(self):
        report = run_validation_suite(tiny_config(gamma_policy=5.0))
        statuses = {c.name: c.status for c in report.checks}
        assert statuses["pnp_monotonicity"] == "SKIP"
        assert report.passed


class TestCli:
    def test_validate_exit_code_zero(self, tmp_path, capsys):
        code = main(["validate", "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "validation.csv").exists()
        out = capsys.readouterr().out
        assert "tweedie_identity" in out

    def test_configuration_error_exit_code(self, tmp_path):
        assert main(["sweep", "--rates", "0.8", "--out", str(tmp_path)]) == 2
        assert main(["converge", "--rates", "0.8", "--solvers", "nope", "--out", str(tmp_path)]) == 2

    def test_config_file_plus_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"n": 48, "trials": 1, "max_iter": 10, "measurement_rates": [0.8],'
            ' "solvers": ["pnp"], "sigma_grid": [0.1, 0.3], "lambda_grid": [0.01]}'
        )
        code = main(
            ["converge", "--config", str(cfg), "--seed", "9", "--out", str(tmp_path / "out")]
        )
        assert code == 0
        assert (tmp_path / "out" / "convergence_cost.csv").exists()

    def test_validate_all_zero_small_problem_draw(self, tmp_path, capsys):
        # seed 2 draws an all-zero signal first for the n=8 fidelity-gradient problem
        code = main(["validate", "--seed", "2", "--out", str(tmp_path)])
        assert code == 0
        assert "PASS fidelity_gradient_fd:" in capsys.readouterr().out

    @pytest.mark.parametrize("error, exit_code", [(ValueError, 3), (ConfigurationError, 2)])
    def test_value_error_inside_trial(self, tmp_path, monkeypatch, caplog, error, exit_code):
        def failing_pnp(*args, **kwargs):
            raise error("injected failure")

        monkeypatch.setattr(experiment, "pnp_ista", failing_pnp)
        argv = ["converge", "--seed", "5", "--n", "16", "--alpha", "0.5", "--trials", "1"]
        argv += ["--rates", "0.8", "--solvers", "pnp", "--max-iter", "5", "--out", str(tmp_path)]
        code = main(argv)
        assert code == exit_code
        failed = "trial (rate_index=0, trial=0) failed: injected failure" in caplog.text
        assert failed == (error is ValueError)

    def test_signal_redraws_are_bounded(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(experiment, "_MAX_SIGNAL_DRAWS", 3)
        argv = ["converge", "--n", "16", "--alpha", "1e-12", "--trials", "1", "--rates", "0.8"]
        assert main(argv + ["--solvers", "pnp", "--out", str(tmp_path)]) == 3
        assert "3 signal draws at alpha=1e-12, n=16 were all zero" in caplog.text

    def test_bad_config_file_exit_code(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["validate", "--config", str(cfg)]) == 2
