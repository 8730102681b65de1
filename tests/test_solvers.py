"""Solver behavior: descent, fixed points, oracles, and failure modes."""

import dataclasses
import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pnpmmse import (
    BernoulliGaussianPrior,
    InducedRegularizer,
    MeasurementOperator,
    MmseDenoiser,
    NumericalFailureError,
    ProblemInstance,
    build_instance,
    data_fidelity,
    gamp,
    generate_operator,
    grad_data_fidelity,
    lasso_ista,
    mm_surrogate,
    neg_log_marginal,
    pnp_ista,
    posterior_mean,
    posterior_moments,
    sample_signal,
    snr_db,
    soft_threshold,
)
from pnpmmse import denoiser as denoiser_module
from pnpmmse import prior as prior_module
from pnpmmse import solvers
from pnpmmse.denoiser import _induced_terms

from pnpmmse.experiment import ExperimentConfig, _nonzero_signal
from pnpmmse.experiment import make_problem as make_trial_problem

from oracles import (
    GAMP_SEED_1000_SNR_500_DB,
    dense_largest_eigenvalue,
    lasso_coordinate_descent,
    lasso_objective,
    n_space_lmmse,
    ridge_stationary_point,
    sign_max_soft_threshold,
)


def make_problem(rng, n=64, m=48, alpha=0.2, snr=20.0):
    """A seeded instance at input SNR ``snr``, or a noiseless one where ``snr`` is None."""
    prior = BernoulliGaussianPrior(alpha)
    x = sample_signal(prior, n, rng)
    op = generate_operator(m, n, rng)
    if snr is None:
        return prior, ProblemInstance(op, x, op.forward(x), 0.0)
    return prior, build_instance(op, x, rng, input_snr_db=snr)


class TestSoftThreshold:
    def test_basic_values(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-0.5, 1.0) == 0.0
        # a zero is +0.0, also from a negative input
        assert math.copysign(1.0, soft_threshold(-0.5, 1.0)) == 1.0
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
        problem = ProblemInstance(op, x_true, op.forward(x_true), 0.0)
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
        )
        assert trace.iterations_run == 5

    def test_nonfinite_iterate_reports_iteration(self):
        rng = np.random.default_rng(6)
        prior, problem = make_problem(rng, n=16, m=16)
        broken = dataclasses.replace(problem, y=np.full(16, 1e300))
        with pytest.raises(NumericalFailureError, match=r"at iteration \d+"):
            pnp_ista(
                problem=broken,
                denoiser=MmseDenoiser(prior, 0.3),
                gamma=1e6,
                max_iter=50,
                allow_large_step=True,
            )

    def test_overflowing_measurement_terms_fail_at_iteration_zero(self):
        # |y|^2 overflows although y is finite; the suite fails the test on any RuntimeWarning
        rng = np.random.default_rng(6)
        prior, problem = make_problem(rng, n=16, m=16)
        broken = dataclasses.replace(problem, y=np.full(16, 1e160))
        with pytest.raises(NumericalFailureError, match="non-finite measurement terms at iteration 0"):
            pnp_ista(broken, MmseDenoiser(prior, 0.3), 0.99 / problem.operator.lipschitz.value, max_iter=5)

    def test_traced_run_calls_no_second_log_density(self, monkeypatch):
        # the penalty reads log(1 + e**gap) from the block the posterior mean left behind
        rng = np.random.default_rng(3)
        prior, problem = make_problem(rng, n=64, m=51)

        def refuse(*args, **kwargs):
            raise AssertionError("the block evaluated the log density again")

        monkeypatch.setattr(np, "logaddexp", refuse)
        monkeypatch.setattr(prior_module, "neg_log_marginal", refuse)
        monkeypatch.setattr(denoiser_module, "neg_log_marginal", refuse)
        gamma = 0.99 / problem.operator.lipschitz.value
        group = solvers._pnp_group(prior, (0.05, 0.2), gamma, True)
        [traces] = solvers._ista(problem, gamma, [group], 20, False)
        assert all(np.all(np.isfinite(trace.objective)) for trace in traces)

    def test_every_iteration_is_recorded(self):
        rng = np.random.default_rng(7)
        prior, problem = make_problem(rng, n=32, m=24)
        lip = problem.operator.lipschitz.value
        dense = pnp_ista(problem, MmseDenoiser(prior, 0.3), 0.99 / lip, max_iter=7)
        np.testing.assert_array_equal(dense.iterations, np.arange(8))
        assert len(dense.objective) == len(dense.grad_norm) == len(dense.snr_db) == 8

    def test_block_records_each_runs_own_snr(self):
        # the block forms every run's SNR in one buffer; each must be that run's snr_db
        rng = np.random.default_rng(8)
        prior, problem = make_problem(rng, n=32, m=24)
        gamma = 0.99 / problem.operator.lipschitz.value
        groups = [
            solvers._pnp_group(prior, (0.05, 0.3), gamma, True),
            solvers._lasso_group((0.01, 0.1), gamma),
        ]
        for traces in solvers._ista(problem, gamma, groups, 15, False):
            for trace in traces:
                assert trace.snr_db[0] == pytest.approx(0.0, abs=1e-12)
                assert trace.snr_db[-1] == pytest.approx(snr_db(trace.final_iterate, problem.x_true), abs=1e-12)


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


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(0.05, 0.5),
    rate=st.floats(0.1, 1.2),
    step=st.floats(0.05, 0.999),
    sigma=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(alpha=0.2, rate=0.8, step=0.99, sigma=0.1, seed=0)
@example(alpha=0.05, rate=0.3, step=0.99, sigma=0.05, seed=1)
@example(alpha=0.1, rate=0.9, step=0.999, sigma=0.3, seed=2)
def test_gradient_energy_is_bounded_by_the_objective_decrease(alpha, rate, step, sigma, seed):
    """The theorem's rate: ``sum_{t=1..T} |grad f(x_t)|^2 <= C (f(x_0) - f(x_T))``.

    ``f = g + h`` with ``g`` the fidelity, ``L``-smooth for the exact
    ``L``, and ``h`` the induced regularizer, whose prox at step ``gamma``
    is the denoiser, so ``x_{t+1} = D(z_t)`` with ``z_t = x_t - gamma
    grad g(x_t)``.  Prox optimality of ``x_{t+1}`` against ``x_t`` gives
    ``h(x_{t+1}) + <grad g(x_t), x_{t+1} - x_t> + |x_{t+1} - x_t|^2/(2 gamma)
    <= h(x_t)``, and the descent lemma gives ``g(x_{t+1}) <= g(x_t) +
    <grad g(x_t), x_{t+1} - x_t> + (L/2)|x_{t+1} - x_t|^2``.  Together:
    ``f(x_{t+1}) <= f(x_t) - (1/(2 gamma) - L/2) |x_{t+1} - x_t|^2``.
    The regularizer's gradient at ``x_{t+1}`` is ``(z_t - x_{t+1})/gamma``,
    so ``grad f(x_{t+1}) = grad g(x_{t+1}) - grad g(x_t) + (x_t -
    x_{t+1})/gamma``, of norm at most ``(L + 1/gamma)|x_{t+1} - x_t|``.
    Squaring, chaining and summing over ``t = 0..T-1`` gives the bound with
    ``C = (L + 1/gamma)^2 / (1/(2 gamma) - L/2)``, finite only for
    ``gamma L < 1``, so ``gamma L = 1`` and ``allow_large_step`` runs are
    left out.  Both sides come from the trace's ``objective`` and
    ``grad_norm``; the only slack is ``1e-12 |f(x_0)|`` of rounding in
    the objective records.
    """
    n = 256
    prior, problem = make_problem(np.random.default_rng(seed), n=n, m=max(1, round(rate * n)), alpha=alpha)
    lip = dense_largest_eigenvalue(problem.operator)
    gamma = step / lip
    trace = pnp_ista(problem, MmseDenoiser(prior, sigma), gamma, max_iter=200)
    f, grad_norm = trace.objective, trace.grad_norm
    bound = (lip + 1.0 / gamma) ** 2 / (0.5 / gamma - 0.5 * lip)
    assert np.sum(grad_norm[1:] ** 2) <= bound * (f[0] - f[-1] + 1e-12 * abs(f[0]))


# |z| from 1.35e154 up: z*z overflows, and the denoiser is then its slab's gain times z
HUGE = st.floats(1.35e154, 1e300)
BLOCK_INPUTS = st.one_of(st.just(0.0), st.floats(-1e3, 1e3), HUGE, HUGE.map(lambda v: -v))


@st.composite
def pnp_block(draw):
    """A prior, denoiser levels, a step and a block of inputs, one row per level."""
    alpha = draw(st.one_of(st.just(1.0), st.floats(1e-4, 1.0)))
    prior = BernoulliGaussianPrior(alpha, draw(st.floats(1e-2, 1e2)))
    sigmas = draw(st.lists(st.floats(1e-3, 1e2), min_size=1, max_size=4))
    z = draw(arrays(np.float64, (len(sigmas), draw(st.integers(1, 8))), elements=BLOCK_INPUTS))
    return prior, sigmas, draw(st.floats(1e-3, 1e3)), z


def run_pnp_group(prior, sigmas, gamma, z):
    group = solvers._pnp_group(prior, sigmas, gamma, True)
    x = np.empty_like(z)
    # the block runs its proxes where an overflowing z*z or e**gap is expected and exact
    with np.errstate(over="ignore"):
        group.prox(z, x)
    return x, group


class TestRunGroups:
    """The ISTA block's in-place proxes and penalty against the library's own routes."""

    @settings(max_examples=200, deadline=None)
    @given(block=pnp_block())
    @example(block=(BernoulliGaussianPrior(1.0, 1.0), [0.3], 0.5, np.array([[0.0, 1.5, -1e200]])))
    @example(block=(BernoulliGaussianPrior(0.05), [0.01, 0.37], 0.5, np.array([[0.0, 2e154], [-3e250, 0.7]])))
    def test_pnp_prox_is_the_posterior_mean(self, block):
        # the same operations in the same order as posterior_moments, so the same bits
        prior, sigmas, gamma, z = block
        x, _ = run_pnp_group(prior, sigmas, gamma, z)
        for sigma, xj, zj in zip(sigmas, x, z):
            np.testing.assert_array_equal(xj, posterior_moments(prior, sigma, zj)[0])
            np.testing.assert_array_equal(xj, posterior_mean(prior, sigma, zj))

    @settings(max_examples=200, deadline=None)
    @given(block=pnp_block())
    @example(block=(BernoulliGaussianPrior(1.0, 1.0), [0.3], 0.5, np.array([[0.0, 1.5, -1e200]])))
    @example(block=(BernoulliGaussianPrior(0.05), [0.01, 0.37], 0.5, np.array([[0.0, 1.5e154], [-3e250, 0.7]])))
    # a spike so rare and a level so narrow that e**gap overflows near z = 0
    @example(block=(BernoulliGaussianPrior(1e-300, 1.0), [1e-10], 0.5, np.array([[0.0, 1e-10, 3e-9, 1e-8, 1.0]])))
    def test_pnp_penalty_is_the_induced_regularizer(self, block):
        prior, sigmas, gamma, z = block
        x, group = run_pnp_group(prior, sigmas, gamma, z)
        with np.errstate(over="ignore", invalid="ignore"):
            values, grads = group.penalty(x, z), group.gradient(x, z)
            for sigma, value, grad, xj, zj in zip(sigmas, values, grads, x, z):
                terms, expected_grad = _induced_terms(prior, sigma, gamma, xj, zj)
                # the independent route: the prior's own negative log density
                nll = neg_log_marginal(prior, sigma, zj)
                oracle = np.sum(-0.5 / gamma * (xj - zj) ** 2 + sigma**2 / gamma * nll)
                np.testing.assert_array_equal(grad, expected_grad)
                if not np.isfinite(oracle):
                    # z*z overflows in both routes; the objective check rejects either
                    assert not np.isfinite(value)
                    continue
                assert abs(value - np.sum(terms)) <= 1e-12 * abs(value)
                # Either route rounds each of the log density's parts, which can cancel,
                # so the error scale is the sum of the parts' magnitudes.
                levels = prior_module._Levels(prior, sigma)
                gap, s2 = levels.log_odds(zj), levels.slab_variance
                parts = sigma**2 / gamma * (
                    abs(math.log(prior.alpha)) + abs(0.5 * np.log(2 * np.pi * s2)) + 0.5 * zj**2 / s2 + np.abs(gap) + 1.0
                ) + 0.5 / gamma * (xj - zj) ** 2
                assert abs(value - oracle) <= 1e-12 * np.sum(parts)

    @settings(max_examples=100, deadline=None)
    @given(
        alpha=st.floats(1e-4, 1.0),
        sigma_x=st.floats(1e-2, 1e2),
        sigma=st.floats(1e-3, 1e2),
        gamma=st.floats(1e-3, 1e3),
        magnitude=arrays(np.float64, 4, elements=st.floats(1e-3, 1e2)),
    )
    def test_pnp_penalty_matches_the_inverting_route(self, alpha, sigma_x, sigma, gamma, magnitude):
        # as in the denoiser tests, |z| spans 1e-3 to 1e2 * (sigma_x + sigma)
        prior = BernoulliGaussianPrior(alpha, sigma_x)
        z = (magnitude * np.array([1.0, -1.0, 1.0, -1.0]) * (sigma_x + sigma))[None, :]
        x, group = run_pnp_group(prior, [sigma], gamma, z)
        value = InducedRegularizer(MmseDenoiser(prior, sigma), gamma).value(x[0])
        assert abs(group.penalty(x, z)[0] - value) <= 1e-12 * max(1.0, abs(value))

    @pytest.mark.parametrize("sigma", [1e-300, 1e-155, 1e155, math.inf, 0.0, -0.1, math.nan])
    def test_pnp_group_rejects_a_level_without_a_normal_square(self, sigma):
        with pytest.raises(ValueError, match="normal-float square"):
            solvers._pnp_group(BernoulliGaussianPrior(0.2), [0.1, sigma], 0.5, True)

    def test_pnp_group_accepts_the_extreme_normal_levels(self):
        for sigma in (1.5e-154, 1.3e154):
            assert solvers._pnp_group(BernoulliGaussianPrior(0.2), [sigma], 0.5, True).width == 1

    @settings(max_examples=200, deadline=None)
    @given(
        lams=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=4),
        gamma=st.floats(1e-3, 1e3),
        data=st.data(),
    )
    @example(lams=[1e308, 0.5], gamma=10.0, data=None)
    def test_lasso_prox_is_the_soft_threshold(self, lams, gamma, data):
        with np.errstate(over="ignore"):
            tau = gamma * np.array(lams)[:, None]
        if data is None:
            # an infinite threshold (gamma * lam overflows) and inputs at exactly +-tau
            z = np.array([[1e300, -1e300, 0.0], [0.5 * gamma, -0.5 * gamma, 0.25 * gamma]])
        else:
            z = data.draw(arrays(np.float64, (len(lams), data.draw(st.integers(1, 8))), elements=st.floats(-1e4, 1e4)))
            ties = data.draw(arrays(np.bool_, z.shape))
            z = np.where(ties, np.where(z >= 0.0, tau, -tau), z)
        x = np.empty_like(z)
        solvers._lasso_group(lams, gamma).prox(z, x)
        # the prox and soft_threshold share one kernel: the same bits
        np.testing.assert_array_equal(x.view(np.int64), soft_threshold(z, tau).view(np.int64))
        expected = sign_max_soft_threshold(z, tau)
        # equal values; the one difference in bits is that a zero comes out +0.0, where
        # the sign-and-max form gives -0.0 for a negative input
        np.testing.assert_array_equal(x, expected)
        nonzero = expected != 0.0
        np.testing.assert_array_equal(x[nonzero].view(np.int64), expected[nonzero].view(np.int64))


def stub_group(penalty=None, gradient=None, width=2):
    """A run group whose prox is the identity, so its runs are plain gradient descent."""
    return solvers._RunGroup(lambda z, out: np.copyto(out, z), width, penalty, gradient)


def counted(values):
    """A penalty or gradient returning ``values(call, x)`` on its ``call``-th call, counted from 0."""
    calls = itertools.count()
    return lambda x, z: values(next(calls), x)


class TestRecords:
    """The block's record checks, driven through a stub group at n = 16, and the memory its traces hold."""

    @pytest.fixture
    def problem(self):
        return make_problem(np.random.default_rng(14), n=16, m=16)[1]

    def run(self, problem, group, allow_large_step=False):
        gamma = 0.99 / problem.operator.lipschitz.value
        [traces] = solvers._ista(problem, gamma, [group], 5, allow_large_step)
        return traces

    def test_rising_objective_fails_unless_the_step_is_allowed_large(self, problem):
        def rising():
            return counted(lambda call, x: np.full(len(x), 1e6 * call))

        with pytest.raises(NumericalFailureError, match="objective increased at iteration 1"):
            self.run(problem, stub_group(rising()))
        for trace in self.run(problem, stub_group(rising()), allow_large_step=True):
            assert np.all(np.diff(trace.objective) > 0.0)

    def test_non_finite_objective_names_its_iteration(self, problem):
        penalty = counted(lambda call, x: np.full(len(x), np.nan if call == 2 else 0.0))
        with pytest.raises(NumericalFailureError, match="non-finite objective at iteration 2"):
            self.run(problem, stub_group(penalty))

    def test_non_finite_gradient_norm_names_its_iteration(self, problem):
        gradient = counted(lambda call, x: np.full(x.shape, np.inf if call == 3 else 0.0))
        with pytest.raises(NumericalFailureError, match="non-finite gradient norm at iteration 3"):
            self.run(problem, stub_group(lambda x, z: np.zeros(len(x)), gradient))

    @staticmethod
    def held_bytes(problem, k, keep):
        """Bytes held, after a block of ``k`` LASSO runs at 500 iterations, by ``keep(traces)``."""
        gamma = 0.99 / problem.operator.lipschitz.value
        problem.operator.gram  # formed beforehand: the operator keeps it, not the traces
        group = solvers._lasso_group(np.geomspace(1e-3, 1e-1, k), gamma)
        gc.collect()
        tracemalloc.start()
        try:
            [traces] = solvers._ista(problem, gamma, [group], 500, False)
            assert len(traces) == k
            kept = keep(traces)  # noqa: F841 - held while the bytes are counted
            del traces
            gc.collect()
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    def test_held_record_memory_is_linear_in_the_runs(self, problem):
        # the traces of K runs hold O(K) records, not K copies of all K runs'
        assert self.held_bytes(problem, 16, list) / self.held_bytes(problem, 4, list) < 6.0

    def test_a_kept_trace_holds_only_its_own_records(self, problem):
        # a trial keeps one trace per grid; that trace must not pin its group's other runs' records
        def first(traces):
            return traces[0]

        assert self.held_bytes(problem, 16, first) / self.held_bytes(problem, 4, first) < 1.5


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
        prior, problem = make_problem(rng, n=24, m=48, snr=None)
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
        problem = ProblemInstance(op, x_true, op.forward(x_true), 0.0)
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
        op = MeasurementOperator(np.eye(n))
        problem = ProblemInstance(op, x_true, op.forward(x_true), 0.0)
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
                )
                best = max(best, trace.snr_db[-1])
            pnp_final.append(best)
        assert np.mean(gamp_final) >= np.mean(pnp_final)

    def test_snr_trace_dense_from_zero(self):
        rng = np.random.default_rng(17)
        prior, problem = make_problem(rng, n=32, m=26)
        trace = gamp(problem, prior, max_iter=25)
        np.testing.assert_array_equal(trace.iterations, np.arange(trace.iterations_run + 1))
        assert len(trace.snr_db) == trace.iterations_run + 1
        assert not trace.diverged

    def test_reads_the_operators_kept_spectrum(self, monkeypatch):
        rng = np.random.default_rng(19)
        prior, problem = make_problem(rng, n=32, m=26)
        expected = gamp(problem, prior, max_iter=25)
        read = []

        class Read(np.ndarray):
            def __add__(self, other):
                read.append("values")
                return np.asarray(self) + other

            def __matmul__(self, other):
                read.append("vectors")
                return np.asarray(self) @ other

        values, vectors = problem.operator.spectrum
        problem.operator.__dict__["spectrum"] = (values.view(Read), vectors.view(Read))
        monkeypatch.setattr(np.linalg, "eigh", None)
        trace = gamp(problem, prior, max_iter=25)
        assert {"values", "vectors"} <= set(read)
        np.testing.assert_array_equal(trace.final_iterate, expected.final_iterate)

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

    def test_overshooting_cell_recovers_to_its_fixed_point(self):
        # the estimate overshoots to about 1e13 within a dozen iterations, then settles
        trace = gamp(self.sweep_low_problem(3), BernoulliGaussianPrior(0.05))
        assert trace.stop_reason == "fixed_point" and not trace.diverged
        assert trace.snr_db[-1] > 20.0

    @pytest.mark.parametrize("rate_index", [0, 1], ids=["rate-0.5", "rate-0.8"])
    def test_high_input_snr_ends_near_it(self, rate_index):
        # the n - m directions H does not see keep the message exactly: rounding in
        # them is not divided by the tiny noise variance
        config = ExperimentConfig(seed=7, n=256, measurement_rates=(0.5, 0.8), trials=2, input_snr_db=200.0)
        for trial in range(config.trials):
            problem = make_trial_problem(config, rate_index, trial)
            trace = gamp(problem, BernoulliGaussianPrior(config.alpha))
            assert trace.stop_reason == "fixed_point"
            assert trace.snr_db[-1] > 150.0

    @pytest.mark.parametrize("shape", ["m<n", "m=n", "m>n"])
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 48),
        extra=st.integers(1, 48),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.05, 0.5),
        input_snr_db=st.floats(10.0, 30.0),
        log_a=st.floats(-3.0, 1.0),
    )
    def test_lmmse_step_matches_the_n_space_step(self, shape, n, extra, seed, alpha, input_snr_db, log_a):
        # a = sigma_e**2 * prec at least 1e-3: the n-space step divides the rounding
        # in its null modes by it, which at moderate SNR stays far below the tolerance
        m = {"m<n": 1 + extra % (n - 1), "m=n": n, "m>n": n + extra}[shape]
        # drawn without a config, whose rates stop at 1
        rng = np.random.default_rng(seed)
        x_true = _nonzero_signal(BernoulliGaussianPrior(alpha), n, rng)
        problem = build_instance(generate_operator(m, n, rng), x_true, rng, input_snr_db=input_snr_db)
        prec = 10.0**log_a / problem.sigma_e**2
        r = np.random.default_rng(seed).normal(0.0, np.sqrt(1.0 / alpha), n)
        x, divergence = solvers._lmmse(problem, r, prec)
        x_ref, divergence_ref = n_space_lmmse(problem, r, prec)
        assert np.max(np.abs(x - x_ref)) <= 1e-9 * np.max(np.abs(x_ref))
        assert abs(divergence - divergence_ref) <= 1e-9


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
