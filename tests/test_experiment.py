"""Experiment driver: config handling, determinism, CSV schemas, validation."""

import dataclasses
import functools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pnpmmse import (
    ConfigurationError,
    InducedRegularizer,
    MmseDenoiser,
    data_fidelity,
    experiment,
    lasso_ista,
    pnp_ista,
)
from pnpmmse.cli import main
from pnpmmse.experiment import (
    DEFAULT_VALIDATION_TOLERANCES,
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
from pnpmmse import cli, linear_model, solvers
from pnpmmse.linear_model import MeasurementOperator

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
            # message passing's damping and the trace interval are not config keys
            dict(gamp_damping=0.9),
            dict(workers=0),
            dict(sigma_grid=(math.inf,)),
            dict(lambda_grid=(math.nan,)),
            dict(input_snr_db=math.nan),
            dict(input_snr_db=4000.0),
            dict(input_snr_db=-4000.0),
            dict(gamma_policy=math.inf),
            # levels whose square is not a normal float
            dict(sigma_grid=(0.1, 1e-300)),
            dict(sigma_grid=(1e155,)),
            # a repeated rate would write two rows for one rate
            dict(measurement_rates=(0.5, 0.5)),
            dict(trace_interval=1),
            # the n x n Gram matrix every trial decomposes would exceed numpy's largest array
            dict(n=2**30),
        ],
    )
    def test_invalid_configs_rejected(self, changes):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict(changes).validate()

    def test_largest_formable_n_validates(self):
        ExperimentConfig(n=2**30 - 1).validate()

    def test_highest_admitted_snr_keeps_the_noise_positive(self):
        # m * 10**(snr/10) overflows here at m = 8, which used to give a noise-free problem
        config = ExperimentConfig(n=16, measurement_rates=(0.5,), input_snr_db=3082.0)
        config.validate()
        problem = make_problem(config, 0, 0)
        assert problem.m == 8 and problem.sigma_e > 0.0
        energy = np.linalg.norm(problem.operator.forward(problem.x_true))
        assert problem.sigma_e == pytest.approx(energy / math.sqrt(8) / 10.0**154.1, rel=1e-12)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({"n": 64, "mystery": 1})


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
            tiny_config(measurement_rates=(0.3,), solvers=("pnp",)),
            tiny_config(measurement_rates=(0.3,), solvers=("lasso",)),
        ],
        ids=["tiny", "m_above_half_n", "pnp_only", "lasso_only"],
    )
    def test_block_matches_single_value_runs(self, config):
        problem = make_problem(config, 0, 0)
        prior = BernoulliGaussianPrior(config.alpha)
        gamma, _ = experiment._resolve_gamma(config, problem.operator)
        lam_scale = float(np.max(np.abs(problem.operator.adjoint(problem.y))))
        lams = [rel * lam_scale for rel in config.lambda_grid]
        [pnp_block] = solvers._ista(
            problem, gamma, [solvers._pnp_group(prior, config.sigma_grid, gamma, True)], config.max_iter, False
        )
        pnp_single = [pnp_ista(problem, MmseDenoiser(prior, s), gamma, config.max_iter) for s in config.sigma_grid]
        [lasso_block] = solvers._ista(
            problem, gamma, [solvers._lasso_group(lams, gamma, True)], config.max_iter, False
        )
        lasso_single = [lasso_ista(problem, lam, gamma, config.max_iter) for lam in lams]
        # both grids as the two column groups of one block, as a trial runs them
        groups = [
            solvers._pnp_group(prior, config.sigma_grid, gamma, True),
            solvers._lasso_group(lams, gamma, True),
        ]
        pnp_joint, lasso_joint = solvers._ista(problem, gamma, groups, config.max_iter, False)
        for block, single in [
            (pnp_block, pnp_single),
            (lasso_block, lasso_single),
            (pnp_joint, pnp_single),
            (lasso_joint, lasso_single),
        ]:
            assert len(block) == len(single)
            for b, s in zip(block, single):
                assert b.iterations_run == s.iterations_run
                np.testing.assert_array_equal(b.iterations, s.iterations)
                np.testing.assert_allclose(b.snr_db, s.snr_db, rtol=0.0, atol=1e-9)
                np.testing.assert_allclose(b.objective, s.objective, rtol=1e-9, atol=0.0)
        for block in (pnp_block, pnp_joint):
            for b, s in zip(block, pnp_single):
                np.testing.assert_allclose(b.grad_norm, s.grad_norm, rtol=1e-9, atol=1e-9 * s.grad_norm[1])
        for b in lasso_joint:
            assert b.grad_norm is None

        outcome = experiment._run_trial(config, 0, 0, pnp_objective=False)
        assert outcome.error is None
        expected = {
            "pnp": ("sigma", first_best(config.sigma_grid, pnp_single)),
            "lasso": ("lambda", first_best(lams, lasso_single)),
        }
        assert outcome.selections == {solver: expected[solver] for solver in config.solvers if solver in expected}

    @staticmethod
    def run_counted_trial(monkeypatch, config, pnp_objective, gram_route=False):
        """Run one trial, requiring one block product per iteration and no single-value PnP run.

        The product is a forward and an adjoint product, or on the Gram route
        one product ``X @ gram`` of the run-major block with the operator's
        Gram matrix, which the trial forms at most once.
        """
        block_products = {"forward": 0, "adjoint": 0, "gram": 0}
        for name in ("forward", "adjoint"):

            def counted(self, v, _name=name, _original=getattr(MeasurementOperator, name)):
                if np.ndim(v) == 2:
                    block_products[_name] += 1
                return _original(self, v)

            monkeypatch.setattr(MeasurementOperator, name, counted)

        class CountedGram(np.ndarray):
            def __rmatmul__(self, other):
                if np.ndim(other) == 2:
                    block_products["gram"] += 1
                return other @ np.asarray(self)

        grams_formed = []

        def gram(self, _original=MeasurementOperator.gram.func):
            grams_formed.append(self)
            return _original(self).view(CountedGram)

        counted_gram = functools.cached_property(gram)
        counted_gram.__set_name__(MeasurementOperator, "gram")
        monkeypatch.setattr(MeasurementOperator, "gram", counted_gram)
        decomposed = []

        def eigh(a, _original=np.linalg.eigh, **kwargs):
            decomposed.append(a.shape)
            return _original(a, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        single_runs = []
        for name in ("pnp_ista", "MmseDenoiser"):

            def recorded(*args, _name=name, _original=getattr(experiment, name), **kwargs):
                single_runs.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(experiment, name, recorded)
        outcome = experiment._run_trial(config, 0, 0, pnp_objective)
        assert outcome.error is None
        # one product at the zero start and after every iteration, for both grids
        runs = config.max_iter + 1
        if gram_route:
            assert block_products == {"forward": 0, "adjoint": 0, "gram": runs}
        else:
            assert block_products == {"forward": runs, "adjoint": runs, "gram": 0}
        # the step size and message passing read one decomposition, of the m x m H H^T
        # as m < n; only the Gram route forms the n x n H^T H, for its products
        m = make_problem(config, 0, 0).m
        assert m < config.n
        assert len(grams_formed) == int(gram_route)
        assert decomposed == [(m, m)]
        assert single_runs == []
        return outcome

    def test_both_grids_share_each_matrix_product(self, monkeypatch):
        config = tiny_config(measurement_rates=(0.3,), solvers=("pnp", "lasso"))
        outcome = self.run_counted_trial(monkeypatch, config, pnp_objective=False)
        assert outcome.traces["pnp"].objective is None and outcome.traces["pnp"].grad_norm is None

    def test_sweep_trial_records_every_iteration(self):
        config = tiny_config(measurement_rates=(0.3,), solvers=("pnp", "lasso"))
        outcome = experiment._run_trial(config, 0, 0, pnp_objective=False)
        assert outcome.error is None
        for solver in ("pnp", "lasso"):
            trace = outcome.traces[solver]
            np.testing.assert_array_equal(trace.iterations, np.arange(config.max_iter + 1))
            assert len(trace.snr_db) == config.max_iter + 1

    def test_gram_route_forms_one_gram_per_trial(self, monkeypatch):
        # m = 38 > n/2 = 24
        config = tiny_config(measurement_rates=(0.8,), solvers=("pnp", "lasso", "gamp"))
        outcome = self.run_counted_trial(monkeypatch, config, pnp_objective=False, gram_route=True)
        assert outcome.traces["gamp"].snr_db is not None

    def test_converge_block_traces_the_selected_level(self, monkeypatch):
        config = tiny_config(measurement_rates=(0.3,), solvers=("pnp", "lasso"))
        outcome = self.run_counted_trial(monkeypatch, config, pnp_objective=True)
        trace = outcome.traces["pnp"]
        # the selected level's cost, starting from its value at the zero start
        problem = make_problem(config, 0, 0)
        gamma, _ = experiment._resolve_gamma(config, problem.operator)
        sigma = outcome.selections["pnp"][1]
        regularizer = InducedRegularizer(MmseDenoiser(BernoulliGaussianPrior(config.alpha), sigma), gamma)
        zero = np.zeros(problem.n)
        start = data_fidelity(problem, zero) + regularizer.value(zero)
        assert len(trace.objective) == config.max_iter + 1
        assert trace.objective[0] == pytest.approx(start, rel=1e-12)
        assert np.all(np.diff(trace.objective) <= 1e-9 * abs(trace.objective[0]))
        assert len(trace.grad_norm) == config.max_iter + 1
        assert np.all(np.isfinite(trace.grad_norm))

    def test_converge_gradient_norm_matches_the_single_run(self):
        config = tiny_config(measurement_rates=(0.3,), solvers=("pnp", "lasso"))
        outcome = experiment._run_trial(config, 0, 0, pnp_objective=True)
        assert outcome.error is None
        problem = make_problem(config, 0, 0)
        gamma, _ = experiment._resolve_gamma(config, problem.operator)
        sigma = outcome.selections["pnp"][1]
        single = pnp_ista(problem, MmseDenoiser(BernoulliGaussianPrior(config.alpha), sigma), gamma, config.max_iter)
        block = outcome.traces["pnp"].grad_norm
        np.testing.assert_allclose(block, single.grad_norm, rtol=1e-9, atol=1e-9 * single.grad_norm[1])

    def test_diverging_block_fails_the_trial(self):
        config = tiny_config(measurement_rates=(0.8,), gamma_policy=1e20)
        outcome = experiment._run_trial(config, 0, 0, pnp_objective=False)
        # every run records its SNR at every iteration, the denoiser levels first, and the
        # levels' error energy overflows in the record where the LASSO runs' objective does
        assert outcome.error == "non-finite SNR at iteration 8"
        assert not outcome.selections


class TestStepSize:
    def test_one_power_iteration_per_operator(self, monkeypatch):
        # a trial, then PnP and LASSO on the same problem, all read the operator's kept estimate
        config = tiny_config(measurement_rates=(0.3,))
        problem = make_problem(config, 0, 0)
        expected = linear_model.lipschitz_constant(problem.operator)
        monkeypatch.setattr(experiment, "make_problem", lambda *args: problem)
        runs = []
        for module in (linear_model, experiment, solvers):
            if hasattr(module, "lipschitz_constant"):

                def counted(*args, _original=module.lipschitz_constant, **kwargs):
                    runs.append(args)
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, "lipschitz_constant", counted)
        assert experiment._run_trial(config, 0, 0, pnp_objective=False).error is None
        gamma = 0.99 / expected.value
        pnp_ista(problem, MmseDenoiser(BernoulliGaussianPrior(config.alpha), 0.1), gamma, 5)
        lasso_ista(problem, 0.01, gamma, 5)
        assert len(runs) == 1
        assert problem.operator.lipschitz == expected


class TestConvergenceExperiment:
    def test_requires_pnp_and_single_rate(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_convergence_experiment(
                tiny_config(measurement_rates=(0.8,), solvers=("lasso",), output_dir=str(tmp_path))
            )
        with pytest.raises(ConfigurationError):
            run_convergence_experiment(
                tiny_config(measurement_rates=(0.5, 0.8), solvers=("pnp",), output_dir=str(tmp_path))
            )

    def test_outputs_and_schema(self, tmp_path):
        config = tiny_config(measurement_rates=(0.8,), solvers=("pnp", "lasso"), output_dir=str(tmp_path))
        paths = run_convergence_experiment(config)
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
        for name in ("a", "b"):
            run_convergence_experiment(dataclasses.replace(config, output_dir=str(tmp_path / name)))
        for name in ("convergence_cost.csv", "convergence_snr.csv", "selections.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_worker_pool_matches_serial(self, tmp_path):
        config = tiny_config(measurement_rates=(0.8,), solvers=("pnp",), trials=3)
        run_convergence_experiment(dataclasses.replace(config, output_dir=str(tmp_path / "serial")))
        run_convergence_experiment(dataclasses.replace(config, workers=3, output_dir=str(tmp_path / "pool")))
        for name in ("convergence_cost.csv", "selections.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "pool" / name).read_bytes()


class TestRateSweep:
    def test_requires_multiple_rates(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_rate_sweep(tiny_config(measurement_rates=(0.8,), output_dir=str(tmp_path)))

    def test_empty_solver_set_fails_before_compute(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_rate_sweep(tiny_config(solvers=(), measurement_rates=(0.4, 0.8), output_dir=str(tmp_path)))

    def test_outputs_and_schema(self, tmp_path):
        run_rate_sweep(tiny_config(measurement_rates=(0.4, 0.8), solvers=("pnp", "gamp"), output_dir=str(tmp_path)))
        lines = (tmp_path / "rate_sweep.csv").read_text().splitlines()
        assert lines[0] == "rate,solver,snr_mean,snr_min,snr_max"
        assert len(lines) == 1 + 2 * 2
        for line in lines[1:]:
            rate, solver, mean, lo, hi = line.split(",")
            assert solver in ("pnp", "gamp")
            assert float(lo) <= float(mean) <= float(hi)


class TestValidationSuite:
    @pytest.mark.parametrize("input_snr_db", [20.0, -300.0])
    def test_default_suite_passes(self, input_snr_db):
        report = run_validation_suite(tiny_config(input_snr_db=input_snr_db))
        assert report.passed
        assert all(c.status == "PASS" for c in report.checks)

    def test_normalization_check_fails_on_a_scaled_density(self, monkeypatch):
        def status():
            checks = run_validation_suite(tiny_config()).checks
            return {c.name: c.status for c in checks}["marginal_normalization"]

        assert status() == "PASS"
        density = experiment.marginal_density
        monkeypatch.setattr(experiment, "marginal_density", lambda prior, sigma, z: density(prior, sigma, z) * (1 + 1e-6))
        assert status() == "FAIL"

    def test_report_names_and_details_keep_their_shape(self):
        value = r"\d\.\d{3}e[+-]\d{2}"
        expected = {
            "tweedie_identity": rf"max scaled residual {value} \(tol 1\.000e-09\)",
            "prox_phi_minimum": r"\d+ perturbations at or below the center value",
            "prox_grid_minimizer": rf"max grid-minimizer offset {value} \(grid step 1\.0e-04\)",
            "derivative_finite_difference": rf"max \|fd - analytic\| {value} \(tol 1\.000e-06\)",
            "derivative_variance_identity": rf"max identity gap {value} \(tol 1\.000e-08\)",
            "inverse_round_trip": rf"max round-trip error {value} \(tol 1\.000e-09\)",
            "jacobian_positivity": rf"min slope {value}, expansive max slope \d+\.\d{{3}}",
            "marginal_normalization": rf"max \|integral - 1\| {value} \(tol 1\.000e-08\)",
            "fidelity_gradient_fd": rf"max relative gradient gap {value} \(tol 1\.000e-05\)",
            "regularizer_gradient_fd": rf"max relative gradient gap {value} \(tol 1\.000e-05\)",
            "mm_sandwich": rf"max sandwich slack used -?{value}",
            "pnp_monotonicity": rf"max objective increase -?{value}",
            "soft_threshold_prox": rf"max offset from grid argmin {value} \(grid step 1\.0e-03\)",
            "lipschitz_dense": rf"max relative eigenvalue gap {value} \(tol 1\.000e-04\)",
            "gamp_decoupled": rf"max deviation from scalar denoiser {value} \(tol 1\.000e-06\)",
        }
        checks = run_validation_suite(tiny_config()).checks
        assert [c.name for c in checks] == list(expected)
        for check in checks:
            assert re.fullmatch(expected[check.name], check.detail), (check.name, check.detail)

    def test_corrupted_tolerance_fails_loudly(self, monkeypatch):
        monkeypatch.setitem(DEFAULT_VALIDATION_TOLERANCES, "tweedie_identity", 1e-30)
        report = run_validation_suite(tiny_config())
        statuses = {c.name: c.status for c in report.checks}
        assert statuses["tweedie_identity"] == "FAIL"
        assert not report.passed

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
        # a repeated rate passes the sweep's two-rate check but would write two rows for one rate
        assert main(["sweep", "--n", "32", "--trials", "1", "--rates", "0.5,0.5", "--out", str(tmp_path)]) == 2

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
        def failing_block(*args, **kwargs):
            raise error("injected failure")

        monkeypatch.setattr(experiment, "_ista", failing_block)
        argv = ["converge", "--seed", "5", "--n", "16", "--alpha", "0.5", "--trials", "1"]
        argv += ["--rates", "0.8", "--solvers", "pnp", "--max-iter", "5", "--out", str(tmp_path)]
        code = main(argv)
        assert code == exit_code
        failed = "trial (rate_index=0, trial=0) failed: injected failure" in caplog.text
        assert failed == (error is ValueError)

    @pytest.mark.parametrize("gamma", ["5", "1e308"])
    def test_diverging_step_exits_three_without_warnings(self, tmp_path, caplog, gamma):
        # the suite turns a RuntimeWarning into an error, so a warning fails this test
        argv = ["sweep", "--n", "64", "--trials", "1", "--rates", "0.5,0.6", "--gamma", gamma]
        assert main([*argv, "--out", str(tmp_path)]) == 3
        failures = re.findall(r"failed: non-finite \w+ at iteration \d+", caplog.text)
        assert len(failures) == 2

    def test_diverged_sweep_cell_is_a_numerical_failure(self, tmp_path, caplog):
        # every denoiser level's iterate grows without bound but stays finite, and a sweep's
        # PnP runs trace no objective: the SNR record is -inf once the error energy overflows
        argv = ["sweep", "--n", "64", "--trials", "1", "--rates", "0.5,0.6", "--gamma", "0.7", "--solvers", "pnp,gamp"]
        assert main([*argv, "--out", str(tmp_path)]) == 3
        failures = re.findall(r"failed: (non-finite \w+ at iteration \d+)", caplog.text)
        assert failures == ["non-finite SNR at iteration 317", "non-finite SNR at iteration 408"]
        assert not (tmp_path / "rate_sweep.csv").exists()

    @pytest.mark.parametrize("snr", [4000, -4000])
    def test_input_snr_without_a_normal_power_is_a_configuration_error(self, tmp_path, capsys, snr):
        # 10**400 overflows and 10**-400 underflows to zero in the noise calibration
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 16, "trials": 1, "max_iter": 3, "input_snr_db": snr}))
        argv = ["sweep", "--config", str(cfg), "--rates", "0.5,0.6", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "input_snr_db must make 10**(snr/10) a normal float" in capsys.readouterr().err

    def test_nonfinite_gamp_snr_fails_its_trial(self, tmp_path, caplog, monkeypatch):
        # measurements 1e200 times too large for their signal carry GAMP's estimate far
        # enough from it to overflow the error energy: an SNR of -inf, which the suite
        # would also see as an overflow warning
        def inconsistent(*args, _original=experiment.make_problem):
            problem = _original(*args)
            return dataclasses.replace(problem, y=1e200 * problem.y)

        monkeypatch.setattr(experiment, "make_problem", inconsistent)
        argv = ["sweep", "--n", "16", "--trials", "1", "--rates", "0.5,0.6", "--solvers", "gamp"]
        assert main([*argv, "--max-iter", "3", "--out", str(tmp_path / "out")]) == 3
        assert len(re.findall(r"failed: non-finite SNR at iteration \d+", caplog.text)) == 2
        assert not (tmp_path / "out" / "rate_sweep.csv").exists()

    def test_level_without_a_normal_square_is_a_configuration_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": 16, "trials": 1, "max_iter": 5, "sigma_grid": [1e-300]}')
        argv = ["sweep", "--config", str(cfg), "--rates", "0.5,0.8", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "sigma_grid entries must square to a normal float" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values, flags",
        [
            ({"n": "16"}, []),
            ({"n": True}, []),
            ({"input_snr_db": "20"}, []),
            ({"trials": 1.5}, []),
            ({"measurement_rates": ["a", 0.5]}, []),
            ({"sigma_grid": ["0.1", 0.2]}, []),
            ({"measurement_rates": [0.5, True]}, []),
            ({"output_dir": 5}, []),
            ({}, ["--seed", "-1"]),
        ],
        ids=[
            "str_n", "bool_n", "str_snr", "float_trials", "str_rate", "str_sigma", "bool_rate",
            "int_output_dir", "negative_seed",
        ],
    )
    @pytest.mark.parametrize("command", ["sweep", "validate"])
    def test_malformed_config_value_is_a_configuration_error(
        self, tmp_path, monkeypatch, capsys, command, values, flags
    ):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 16, "trials": 1, "max_iter": 3, "measurement_rates": [0.5, 0.8], **values}))
        assert main([command, "--config", str(cfg), *flags]) == 2
        assert "configuration error:" in capsys.readouterr().err

    def test_signal_redraws_are_bounded(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(experiment, "_MAX_SIGNAL_DRAWS", 3)
        argv = ["converge", "--n", "16", "--alpha", "1e-12", "--trials", "1", "--rates", "0.8"]
        assert main(argv + ["--solvers", "pnp", "--out", str(tmp_path)]) == 3
        assert "3 signal draws at alpha=1e-12, n=16 were all zero" in caplog.text

    def test_rate_where_every_trial_failed_is_a_numerical_failure(self, tmp_path, monkeypatch, capsys):
        # one failed trial in twenty is within the failure budget, but leaves its rate with no cell
        def first_rate_fails(config, rate_index, trial):
            if rate_index == 0:
                raise ValueError("injected failure")
            return make_problem(config, rate_index, trial)

        monkeypatch.setattr(experiment, "make_problem", first_rate_fails)
        rates = ",".join(str(round(0.05 * k, 2)) for k in range(1, 21))
        argv = ["sweep", "--n", "16", "--trials", "1", "--rates", rates, "--solvers", "lasso"]
        assert main(argv + ["--max-iter", "5", "--out", str(tmp_path)]) == 3
        assert "every trial at rate 0.05 failed" in capsys.readouterr().err

    def test_infinite_gamma_is_a_configuration_error(self, tmp_path):
        argv = ["sweep", "--n", "16", "--trials", "1", "--rates", "0.5,0.8", "--max-iter", "5"]
        assert main(argv + ["--gamma", "inf", "--out", str(tmp_path)]) == 2

    def test_nan_grid_value_in_config_file_is_a_configuration_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": 16, "trials": 1, "max_iter": 5, "lambda_grid": [0.01, NaN]}')
        argv = ["sweep", "--config", str(cfg), "--rates", "0.5,0.8", "--out", str(tmp_path / "out")]
        assert main(argv) == 2

    # the CLI calls the validation suite through its own imported name
    @pytest.mark.parametrize(
        "command, module, runner",
        [("sweep", experiment, "_run_trials"), ("validate", cli, "run_validation_suite")],
        ids=["sweep", "validate"],
    )
    def test_unusable_output_dir_is_a_configuration_error(self, tmp_path, monkeypatch, capsys, command, module, runner):
        def refuse(*args, **kwargs):
            raise AssertionError("ran before the output directory was checked")

        monkeypatch.setattr(module, runner, refuse)
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = [command, "--n", "16", "--trials", "1", "--rates", "0.5,0.8", "--max-iter", "3"]
        assert main(argv + ["--out", str(blocker / "sub")]) == 2
        assert "configuration error: cannot create output directory" in capsys.readouterr().err

    def test_bad_config_file_exit_code(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["validate", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [("solvers", "pnp,lasso"), ("measurement_rates", "0.3"), ("lambda_grid", "0.01"), ("sigma_grid", "0.1")],
    )
    def test_string_for_a_list_is_a_configuration_error(self, tmp_path, capsys, field, value):
        # iterated as a list, the string would be read one character per entry
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"{field} must be a list, got the string {value!r}" in capsys.readouterr().err


NO_SCIPY_PROBE = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from pnpmmse.cli import main
tiny = ["--n", "16", "--trials", "1", "--max-iter", "5"]
codes = [
    main(["sweep", *tiny, "--rates", "0.5,0.8", "--out", sys.argv[1] + "/sweep"]),
    main(["converge", *tiny, "--rates", "0.5", "--out", sys.argv[1] + "/converge"]),
    main(["validate", "--out", sys.argv[1] + "/validate"]),
]
print(json.dumps(codes))
"""


def test_start_up_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy is for the tests' oracles
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PROBE, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [0, 0, 0]
