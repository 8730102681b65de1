"""Measurement model, noise calibration, fidelity, and spectral estimates."""

import numpy as np
import pytest

from pnpmmse import (
    BernoulliGaussianPrior,
    MeasurementOperator,
    ProblemInstance,
    build_instance,
    calibrate_noise_sigma,
    data_fidelity,
    generate_operator,
    grad_data_fidelity,
    lipschitz_constant,
    sample_signal,
    snr_db,
)

from oracles import dense_largest_eigenvalue, grad_central_diff


class TestGenerateOperator:
    def test_column_norms_concentrate(self):
        op = generate_operator(1000, 100, np.random.default_rng(0))
        norms = np.linalg.norm(op.matrix, axis=0)
        assert np.all(np.abs(norms - 1.0) < 0.15)

    def test_deterministic_given_seed(self):
        a = generate_operator(40, 30, np.random.default_rng(7))
        b = generate_operator(40, 30, np.random.default_rng(7))
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_largest_singular_value_near_bulk_edge(self):
        op = generate_operator(2000, 100, np.random.default_rng(1))
        top = np.linalg.svd(op.matrix, compute_uv=False)[0]
        assert 0.9 <= top <= 1.4

    @pytest.mark.parametrize("m,n", [(0, 5), (5, 0)])
    def test_zero_dimension_rejected(self, m, n):
        with pytest.raises(ValueError):
            generate_operator(m, n, np.random.default_rng(0))


class TestMeasurementOperator:
    def test_matrix_and_gram_are_read_only(self):
        op = generate_operator(6, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0
        with pytest.raises(ValueError):
            op.gram[0, 0] = 5.0

    def test_callers_array_stays_writeable(self):
        n = 5
        eye = np.eye(n)
        op = MeasurementOperator(eye)
        eye[0, 0] = 1.0
        np.testing.assert_array_equal(op.gram, np.eye(n))
        assert op.lipschitz.value == pytest.approx(1.0, rel=1e-12)

    def test_later_write_to_callers_array_does_not_reach_the_operator(self):
        a = np.eye(4)
        op = MeasurementOperator(a)
        op.lipschitz
        a[0, 0] = 5.0
        assert op.matrix[0, 0] == 1.0
        assert op.gram[0, 0] == 1.0
        assert op.lipschitz.value == pytest.approx(1.0, rel=1e-12)

    def test_generated_draw_is_handed_over_read_only_and_kept_uncopied(self, monkeypatch):
        handed_over = []
        original = MeasurementOperator.__post_init__

        def spy(self):
            handed_over.append(self.matrix)
            original(self)

        monkeypatch.setattr(MeasurementOperator, "__post_init__", spy)
        op = generate_operator(6, 4, np.random.default_rng(0))
        assert not handed_over[0].flags.writeable
        assert op.matrix is handed_over[0]


class TestNoiseCalibration:
    def test_plug_in_value(self):
        # |Hx|^2 = m exactly for the identity operator on an all-ones signal
        m = 64
        op = MeasurementOperator(np.eye(m))
        sigma = calibrate_noise_sigma(op, np.ones(m), 20.0)
        assert sigma == pytest.approx(0.1, rel=1e-12)

    def test_snr_scaling(self):
        op = generate_operator(50, 80, np.random.default_rng(3))
        x = np.random.default_rng(4).normal(size=80)
        high = calibrate_noise_sigma(op, x, 60.0)
        low = calibrate_noise_sigma(op, x, 0.0)
        assert low / high == pytest.approx(1000.0, rel=1e-10)

    def test_realized_snr_concentrates(self):
        m, n = 3276, 512
        rng = np.random.default_rng(5)
        op = generate_operator(m, n, rng)
        x = sample_signal(BernoulliGaussianPrior(0.2), n, rng)
        sigma = calibrate_noise_sigma(op, x, 20.0)
        hx = op.forward(x)
        e = sigma * rng.standard_normal(m)
        realized = 10 * np.log10(float(hx @ hx) / float(e @ e))
        assert realized == pytest.approx(20.0, abs=0.5)

    def test_zero_signal_rejected(self):
        op = generate_operator(10, 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            calibrate_noise_sigma(op, np.zeros(10), 20.0)


def _fresh_problem(rng, m=24, n=16, snr=20.0):
    prior = BernoulliGaussianPrior(0.4)
    x = sample_signal(prior, n, rng)
    op = generate_operator(m, n, rng)
    return build_instance(op, x, rng, input_snr_db=snr)


class TestDataFidelity:
    def test_noiseless_truth_is_a_root(self):
        rng = np.random.default_rng(6)
        prior = BernoulliGaussianPrior(0.4)
        x = sample_signal(prior, 16, rng)
        op = generate_operator(24, 16, rng)
        problem = build_instance(op, x, rng, sigma_e=0.0)
        assert data_fidelity(problem, x) == pytest.approx(0.0, abs=1e-24)
        np.testing.assert_allclose(grad_data_fidelity(problem, x), 0.0, atol=1e-12)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        problem = _fresh_problem(rng, m=12, n=8)
        for _ in range(5):
            x = rng.normal(size=8)
            fd = grad_central_diff(lambda v: data_fidelity(problem, v), x, 1e-6)
            g = grad_data_fidelity(problem, x)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-9)

    def test_nonnegative_and_exactly_quadratic(self):
        rng = np.random.default_rng(8)
        problem = _fresh_problem(rng)
        for _ in range(10):
            x = rng.normal(size=16)
            d = rng.normal(size=16)
            g = data_fidelity(problem, x)
            assert g >= 0.0
            expansion = (
                g
                + float(grad_data_fidelity(problem, x) @ d)
                + 0.5 * float(np.sum(problem.operator.forward(d) ** 2))
            )
            assert data_fidelity(problem, x + d) == pytest.approx(expansion, rel=1e-10)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        problem = _fresh_problem(rng)
        with pytest.raises(ValueError):
            data_fidelity(problem, np.zeros(5))

    def test_instance_shape_validation(self):
        op = generate_operator(4, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ProblemInstance(op, np.zeros(2), np.zeros(4), 0.1)
        with pytest.raises(ValueError):
            ProblemInstance(op, np.zeros(3), np.zeros(5), 0.1)


class TestNormal:
    @pytest.mark.parametrize("m,n", [(31, 64), (32, 64), (33, 64), (128, 64)])
    def test_both_routes_match_two_products(self, m, n):
        # both sides of 2m = n, and m > n
        op = generate_operator(m, n, np.random.default_rng(m))
        h = op.matrix
        rng = np.random.default_rng(m + 1)
        for x in (rng.normal(size=n), rng.normal(size=(n, 5))):
            expected = h.T @ (h @ x)
            got = op.normal(x)
            assert got.shape == expected.shape
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
        # the Gram matrix is formed only where one product with it is the cheaper route
        assert ("gram" in op.__dict__) == (2 * m > n)


class TestLipschitz:
    def test_identity(self):
        op = MeasurementOperator(np.eye(6))
        estimate = lipschitz_constant(op)
        assert estimate.value == pytest.approx(1.0, rel=1e-9)
        assert estimate.converged

    def test_diagonal(self):
        op = MeasurementOperator(np.diag([3.0, 1.0]))
        assert lipschitz_constant(op).value == pytest.approx(9.0, rel=1e-9)

    def test_matches_dense_eigensolver(self):
        op = generate_operator(50, 100, np.random.default_rng(10))
        estimate = lipschitz_constant(op)
        exact = dense_largest_eigenvalue(op)
        assert estimate.value == pytest.approx(exact, rel=1e-4)
        assert estimate.converged

    def test_never_overshoots_true_value(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            op = generate_operator(30, 40, rng)
            estimate = lipschitz_constant(op, tol=1e-12)
            exact = dense_largest_eigenvalue(op)
            assert estimate.value <= exact * (1.0 + 1e-10)

    def test_zero_operator_rejected(self):
        with pytest.raises(ValueError):
            lipschitz_constant(MeasurementOperator(np.zeros((3, 3))))


class TestSnrDb:
    def test_perfect_reconstruction_capped(self):
        x = np.arange(1.0, 5.0)
        assert snr_db(x, x) == 300.0

    def test_zero_estimate_is_zero_db(self):
        x = np.arange(1.0, 5.0)
        assert snr_db(np.zeros(4), x) == pytest.approx(0.0, abs=1e-12)

    def test_tenth_norm_error_is_twenty_db(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=50)
        unit = rng.normal(size=50)
        unit /= np.linalg.norm(unit)
        eps = np.linalg.norm(x) / 10.0
        assert snr_db(x + eps * unit, x) == pytest.approx(20.0, rel=1e-10)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            snr_db(np.ones(3), np.zeros(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            snr_db(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            snr_db(np.ones((4, 2)), np.ones(3))

    def test_block_is_one_value_per_column(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=50)
        block = np.column_stack([x + rng.normal(scale=s, size=50) for s in (1e-3, 0.1, 1.0)] + [x])
        values = snr_db(block, x)
        assert values.shape == (4,)
        np.testing.assert_allclose(values[:3], [snr_db(column, x) for column in block.T[:3]], rtol=0.0, atol=1e-12)
        assert values[3] == 300.0


class TestBuildInstance:
    def test_requires_exactly_one_noise_spec(self):
        rng = np.random.default_rng(13)
        op = generate_operator(5, 4, rng)
        x = np.ones(4)
        with pytest.raises(ValueError):
            build_instance(op, x, rng)
        with pytest.raises(ValueError):
            build_instance(op, x, rng, input_snr_db=20.0, sigma_e=0.1)

    def test_measurements_consistent_when_noiseless(self):
        rng = np.random.default_rng(14)
        op = generate_operator(5, 4, rng)
        x = np.ones(4)
        problem = build_instance(op, x, rng, sigma_e=0.0)
        np.testing.assert_array_equal(problem.y, op.forward(x))
