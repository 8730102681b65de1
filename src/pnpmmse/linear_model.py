"""Random Gaussian measurement model, least-squares fidelity, and SNR metrics."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "MeasurementOperator",
    "ProblemInstance",
    "LipschitzEstimate",
    "Spectrum",
    "generate_operator",
    "calibrate_noise_sigma",
    "build_instance",
    "data_fidelity",
    "grad_data_fidelity",
    "lipschitz_constant",
    "snr_db",
]

# Sentinel for a perfect reconstruction; keeps SNR traces finite.
SNR_CAP_DB = 300.0
# The power iteration's stop rule: a relative change of its estimate of at
# most POWER_ITERATION_TOL, or POWER_ITERATION_MAX_ITER iterations.
POWER_ITERATION_TOL = 1e-10
POWER_ITERATION_MAX_ITER = 2000


@dataclass(frozen=True)
class MeasurementOperator:
    """Dense real measurement matrix; both m <= n and m > n are allowed.

    ``matrix`` is read-only, so neither a write through it nor a write to
    the caller's array can leave the values kept from it (``lipschitz``,
    ``gram`` and ``spectrum``) stale.  A writeable input is copied; a
    read-only input is kept as is, uncopied, and the caller promises not
    to change it by any other route.  :func:`generate_operator` hands over
    its draw read-only.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise ValueError("operator matrix must be 2-D with positive dimensions")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator matrix must have finite entries")
        if m.flags.writeable:
            m = m.copy()
            m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @cached_property
    def lipschitz(self) -> LipschitzEstimate:
        """:func:`lipschitz_constant` of this operator, computed on first use and kept.

        The solvers read their step-size bound from here, so one operator
        estimates it once however many solver calls share it.
        """
        return lipschitz_constant(self)

    @cached_property
    def gram(self) -> np.ndarray:
        """``H^T H``, read-only, formed on first use and kept."""
        gram = self.matrix.T @ self.matrix
        gram.flags.writeable = False
        return gram

    @cached_property
    def spectrum(self) -> Spectrum:
        """Eigendecomposition of the smaller Gram matrix, read-only, computed on first use and kept.

        The one ``np.linalg.eigh`` per operator, which the step size
        (:func:`lipschitz_constant`) and message passing both read: of the
        ``m x m`` ``H H^T``, formed for the call, when ``m < n``, else of the
        kept :attr:`gram`.
        """
        gram = self.matrix @ self.matrix.T if self.m < self.n else self.gram
        values, vectors = np.linalg.eigh(gram)
        values = np.clip(values, 0.0, None)
        values.flags.writeable = False
        vectors.flags.writeable = False
        return Spectrum(values, vectors)

    def normal(self, x: np.ndarray) -> np.ndarray:
        """``H^T H x`` for a vector, or ``X H^T H`` for a ``K x n`` block, one run per row.

        This is the ISTA loop's fidelity-gradient product.  One product with
        :attr:`gram` costs ``n^2`` multiply-adds per run and a forward plus
        an adjoint product ``2mn``, so the kept Gram matrix is used exactly
        when ``2m > n``; otherwise this product does not form it.
        """
        if 2 * self.m > self.n:
            return x @ self.gram
        return self.adjoint(self.forward(x))

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """``H x`` for a vector, or ``X H^T`` for a ``K x n`` block, one run per row."""
        return self.matrix @ x if np.ndim(x) == 1 else x @ self.matrix.T

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        """``H^T r`` for a vector, or ``R H`` for a ``K x m`` block, one run per row."""
        return r @ self.matrix


@dataclass(frozen=True)
class ProblemInstance:
    """One realization of measurements ``y = H x_true + e``.

    The noise vector itself is not stored; ``y`` is formed at construction
    and ``sigma_e`` records the per-component noise deviation.
    """

    operator: MeasurementOperator
    x_true: np.ndarray
    y: np.ndarray
    sigma_e: float

    def __post_init__(self):
        if self.x_true.shape != (self.operator.n,):
            raise ValueError("x_true length must match operator columns")
        if self.y.shape != (self.operator.m,):
            raise ValueError("y length must match operator rows")
        if self.sigma_e < 0.0:
            raise ValueError("sigma_e must be nonnegative")

    @property
    def m(self) -> int:
        return self.operator.m

    @property
    def n(self) -> int:
        return self.operator.n


def generate_operator(m: int, n: int, rng: np.random.Generator) -> MeasurementOperator:
    """i.i.d. N(0, 1/m) entries, so columns have unit norm in expectation."""
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got m={m}, n={n}")
    matrix = rng.normal(0.0, 1.0 / np.sqrt(m), (m, n))
    # no one else holds the draw, so the operator can keep it without a copy
    matrix.flags.writeable = False
    return MeasurementOperator(matrix)


def calibrate_noise_sigma(
    operator: MeasurementOperator, x_true: np.ndarray, input_snr_db: float
) -> float:
    """Per-component noise deviation hitting a target measurement-domain SNR.

    The input SNR convention is ``|H x|^2 / E|e|^2`` in expectation, i.e.
    ``sigma_e = |H x| / sqrt(m * 10**(snr/10))``, evaluated as
    ``|H x| / sqrt(m) / 10**(snr/20)`` so that no factor leaves the float
    range before the quotient does.
    """
    hx = operator.forward(x_true)
    energy = float(np.linalg.norm(hx))
    if energy == 0.0:
        raise ValueError("x_true maps to zero; input SNR is undefined")
    return energy / np.sqrt(operator.m) / 10.0 ** (input_snr_db / 20.0)


def build_instance(
    operator: MeasurementOperator, x_true: np.ndarray, rng: np.random.Generator, *, input_snr_db: float
) -> ProblemInstance:
    """Sample a noise realization calibrated to ``input_snr_db`` and assemble the measurements."""
    sigma_e = calibrate_noise_sigma(operator, x_true, input_snr_db)
    noise = sigma_e * rng.standard_normal(operator.m)
    y = operator.forward(x_true) + noise
    return ProblemInstance(operator=operator, x_true=np.asarray(x_true, float), y=y, sigma_e=float(sigma_e))


def data_fidelity(problem: ProblemInstance, x: np.ndarray) -> float:
    """Least-squares fidelity ``0.5 * |y - H x|^2``."""
    x = _check_signal(problem, x)
    r = problem.y - problem.operator.forward(x)
    return 0.5 * float(r @ r)


def grad_data_fidelity(problem: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """Gradient ``H^T (H x - y)`` of the least-squares fidelity."""
    x = _check_signal(problem, x)
    return problem.operator.adjoint(problem.operator.forward(x) - problem.y)


def _check_signal(problem: ProblemInstance, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError(f"x must have shape ({problem.n},), got {x.shape}")
    return x


class Spectrum(NamedTuple):
    """``H H^T = U diag(values) U^T`` when ``m < n``, else ``H^T H = V diag(values) V^T``.

    ``values`` ascend, each rounded below zero clipped to 0; ``vectors`` is
    the orthonormal ``U`` or ``V``, one eigenvector per column.
    """

    values: np.ndarray
    vectors: np.ndarray


class LipschitzEstimate(NamedTuple):
    value: float
    converged: bool
    iterations: int


def lipschitz_constant(operator: MeasurementOperator) -> LipschitzEstimate:
    """Largest eigenvalue of ``H^T H`` as the power iteration estimates it.

    The iteration steps a unit vector ``v <- H^T H v / |H^T H v|`` and
    estimates the Rayleigh quotient ``v^T H^T H v``, which never exceeds
    the true value, so the estimate approaches the gradient Lipschitz
    constant of the least-squares term from below.  The start vector is
    drawn from a fixed seed, keeping the estimate deterministic for a given
    matrix; a start with ``|H^T H v| = 0`` lies in the null space and is
    drawn again from the same stream, at the cost of one iteration.  If the
    relative change has not dropped to :data:`POWER_ITERATION_TOL` within
    :data:`POWER_ITERATION_MAX_ITER` iterations the last estimate is
    returned with ``converged=False``.

    No iterate is formed.  With the operator's kept spectrum ``lam`` and
    ``d = (U^T H v)**2`` (``lam * (V^T v)**2`` for ``H^T H``), the first
    estimate from a start is ``|H v|^2 = sum(d)`` and the k-th
    ``sum(lam**(2k-2) d) / sum(lam**(2k-3) d)``, in the ratios ``lam /
    max(lam)``: each step is a few passes over the spectrum, nothing is
    divided by ``lam``, and the estimates, the stop rule, the iteration
    count and the flag are the iteration's own.
    """
    if not np.any(operator.matrix):
        raise ValueError("operator must be nonzero")
    values, vectors = operator.spectrum
    top = float(values[-1])
    if top == 0.0:
        # the Gram matrix rounds to zero, so every start lies in the null space and is drawn again
        return LipschitzEstimate(0.0, False, POWER_ITERATION_MAX_ITER)
    ratio = values / top
    ratio_sq = ratio * ratio
    rng = np.random.default_rng(0)
    # d * (lam / max(lam))**(2k-3), the start's weights for the k-th step
    mass, estimate = None, 0.0
    for it in range(1, POWER_ITERATION_MAX_ITER + 1):
        if mass is None:
            v = rng.standard_normal(operator.n)
            v /= np.linalg.norm(v)
            if operator.m < operator.n:
                d = np.square(operator.forward(v) @ vectors)
            else:
                d = values * np.square(v @ vectors)
            if values @ d == 0.0:
                # |H^T H v|^2 is zero: v landed in the null space; restart deterministically.
                continue
            new_estimate, mass = float(np.sum(d)), ratio * d
        else:
            new_estimate = top * float(ratio @ mass) / float(np.sum(mass))
            mass *= ratio_sq
        if it > 1 and abs(new_estimate - estimate) <= POWER_ITERATION_TOL * abs(new_estimate):
            return LipschitzEstimate(new_estimate, True, it)
        estimate = new_estimate
    return LipschitzEstimate(estimate, False, POWER_ITERATION_MAX_ITER)


def _reference_energy(x_ref: np.ndarray) -> float:
    """``|x_ref|^2``, the numerator of every SNR against ``x_ref``; a zero reference has none."""
    energy = float(x_ref @ x_ref)
    if energy == 0.0:
        raise ValueError("reference signal must be nonzero")
    return energy


def _capped_snr_db(ref_energy, err_energy):
    """``10 log10(ref_energy / err_energy)``, capped at 300 dB; a zero error energy gives the cap."""
    # a perfect reconstruction divides by zero, and the cap turns its inf into 300
    with np.errstate(divide="ignore"):
        return np.minimum(10.0 * np.log10(ref_energy / err_energy), SNR_CAP_DB)


def snr_db(x_hat: np.ndarray, x_ref: np.ndarray) -> float:
    """Reconstruction SNR ``10 log10(|x_ref|^2 / |x_hat - x_ref|^2)`` of one estimate, capped at 300 dB."""
    x_hat = np.asarray(x_hat, dtype=float)
    x_ref = np.asarray(x_ref, dtype=float)
    if x_hat.ndim != 1 or x_hat.shape != x_ref.shape:
        raise ValueError("x_hat and x_ref must be vectors of one length")
    err = x_hat - x_ref
    return float(_capped_snr_db(_reference_energy(x_ref), err @ err))
