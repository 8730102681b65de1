"""Random Gaussian measurement model, least-squares fidelity, and SNR metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "MeasurementOperator",
    "ProblemInstance",
    "LipschitzEstimate",
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


@dataclass(frozen=True)
class MeasurementOperator:
    """Dense real measurement matrix; both m <= n and m > n are allowed."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise ValueError("operator matrix must be 2-D with positive dimensions")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator matrix must have finite entries")
        object.__setattr__(self, "matrix", m)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        """``H^T r`` for a vector or for an ``m x K`` block, one vector per column.

        Formed as ``(r^T H)^T``: the product then reads ``H`` in its stored
        row-major order, which for a block is faster than ``H^T r`` through
        the transposed matrix.  A block result is a column-major view.
        """
        return (r.T @ self.matrix).T


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
    return MeasurementOperator(rng.normal(0.0, 1.0 / np.sqrt(m), (m, n)))


def calibrate_noise_sigma(
    operator: MeasurementOperator, x_true: np.ndarray, input_snr_db: float
) -> float:
    """Per-component noise deviation hitting a target measurement-domain SNR.

    The input SNR convention is ``|H x|^2 / E|e|^2`` in expectation, i.e.
    ``sigma_e = |H x| / sqrt(m * 10**(snr/10))``.
    """
    hx = operator.forward(x_true)
    energy = float(np.linalg.norm(hx))
    if energy == 0.0:
        raise ValueError("x_true maps to zero; input SNR is undefined")
    return energy / np.sqrt(operator.m * 10.0 ** (input_snr_db / 10.0))


def build_instance(
    operator: MeasurementOperator,
    x_true: np.ndarray,
    rng: np.random.Generator,
    *,
    input_snr_db: float | None = None,
    sigma_e: float | None = None,
) -> ProblemInstance:
    """Sample a noise realization and assemble the measurements.

    Exactly one of ``input_snr_db`` (noise calibrated to that SNR) or
    ``sigma_e`` (noise deviation given directly, zero allowed) must be set.
    """
    if (input_snr_db is None) == (sigma_e is None):
        raise ValueError("specify exactly one of input_snr_db or sigma_e")
    if sigma_e is None:
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


class LipschitzEstimate(NamedTuple):
    value: float
    converged: bool
    iterations: int


def lipschitz_constant(
    operator: MeasurementOperator,
    tol: float = 1e-10,
    max_iter: int = 2000,
    seed: int = 0,
) -> LipschitzEstimate:
    """Largest eigenvalue of ``H^T H`` by power iteration.

    The Rayleigh quotient never exceeds the true value, so the estimate
    approaches the gradient Lipschitz constant of the least-squares term
    from below.  The start vector is drawn from a fixed seed, keeping the
    estimate deterministic for a given matrix.  If the relative change has
    not dropped below ``tol`` within ``max_iter`` iterations the last
    estimate is returned with ``converged=False``.
    """
    h = operator.matrix
    if not np.any(h):
        raise ValueError("operator must be nonzero")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(operator.n)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for it in range(1, max_iter + 1):
        w = h.T @ (h @ v)
        new_estimate = float(v @ w)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            # v landed exactly in the null space; restart deterministically.
            v = rng.standard_normal(operator.n)
            v /= np.linalg.norm(v)
            continue
        v = w / norm_w
        if it > 1 and abs(new_estimate - estimate) <= tol * abs(new_estimate):
            return LipschitzEstimate(new_estimate, True, it)
        estimate = new_estimate
    return LipschitzEstimate(estimate, False, max_iter)


def snr_db(x_hat: np.ndarray, x_ref: np.ndarray) -> float:
    """Reconstruction SNR ``10 log10(|x_ref|^2 / |x_hat - x_ref|^2)``, capped at 300 dB."""
    x_hat = np.asarray(x_hat, dtype=float)
    x_ref = np.asarray(x_ref, dtype=float)
    if x_hat.shape != x_ref.shape:
        raise ValueError("x_hat and x_ref must have equal shapes")
    ref_energy = float(x_ref @ x_ref)
    if ref_energy == 0.0:
        raise ValueError("reference signal must be nonzero")
    err = x_hat - x_ref
    err_energy = float(err @ err)
    if err_energy == 0.0:
        return SNR_CAP_DB
    return min(10.0 * np.log10(ref_energy / err_energy), SNR_CAP_DB)
