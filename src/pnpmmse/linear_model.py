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
    """Dense real measurement matrix; both m <= n and m > n are allowed.

    ``matrix`` is a read-only view, so a write through it raises instead of
    leaving the values kept from it (``lipschitz`` and ``gram``) stale.  The
    view copies nothing, and the caller's own array stays writeable.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float).view()
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise ValueError("operator matrix must be 2-D with positive dimensions")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator matrix must have finite entries")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @cached_property
    def lipschitz(self) -> LipschitzEstimate:
        """:func:`lipschitz_constant` of this operator, computed on first use and kept.

        The solvers read their step-size bound from here, so one operator
        runs one power iteration however many solver calls share it.
        """
        return lipschitz_constant(self)

    @cached_property
    def gram(self) -> np.ndarray:
        """``H^T H``, read-only, formed on first use and kept."""
        gram = self.matrix.T @ self.matrix
        gram.flags.writeable = False
        return gram

    @property
    def uses_gram(self) -> bool:
        """Whether products with ``H^T H`` go through :attr:`gram`.

        One Gram product costs ``n^2`` multiply-adds per column and a forward
        plus an adjoint product ``2mn``, so the Gram route is the cheaper one
        exactly when ``2m > n``.
        """
        return 2 * self.m > self.n

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


def _block_fidelity(problem: ProblemInstance):
    """Least-squares gradient and fidelity of ``n x K`` blocks, one signal per column.

    ``evaluate(X)`` returns ``G = H^T (H X - y)`` and a function giving the
    fidelities ``0.5 * |y - H x|^2`` of a column slice, computed only when
    asked.  On the operator's Gram route ``G = gram X - H^T y`` is one
    product and the fidelity is ``0.5 * (x^T g - (H^T y)^T x + |y|^2)``;
    otherwise ``G`` is a forward and an adjoint product and the fidelity
    reads the residual.
    """
    operator, y = problem.operator, problem.y
    if operator.uses_gram:
        gram, hty, y_energy = operator.gram, operator.adjoint(y), float(y @ y)

        def evaluate(x):
            g = gram @ x
            g -= hty[:, None]

            def fidelity(cols):
                xc = x[:, cols]
                return 0.5 * (np.einsum("ij,ij->j", xc, g[:, cols]) - hty @ xc + y_energy)

            return g, fidelity

    else:

        def evaluate(x):
            r = operator.forward(x)
            r -= y[:, None]

            def fidelity(cols):
                rc = r[:, cols]
                return 0.5 * np.einsum("ij,ij->j", rc, rc)

            return operator.adjoint(r), fidelity

    return evaluate


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
    estimate is returned with ``converged=False``.  Each step multiplies by
    the kept Gram matrix when the operator
    :attr:`~MeasurementOperator.uses_gram`, and by ``H`` then ``H^T``
    otherwise.
    """
    h = operator.matrix
    if not np.any(h):
        raise ValueError("operator must be nonzero")
    gram = operator.gram if operator.uses_gram else None
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(operator.n)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for it in range(1, max_iter + 1):
        w = h.T @ (h @ v) if gram is None else gram @ v
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


def snr_db(x_hat: np.ndarray, x_ref: np.ndarray) -> float | np.ndarray:
    """Reconstruction SNR ``10 log10(|x_ref|^2 / |x_hat - x_ref|^2)``, capped at 300 dB.

    ``x_hat`` is one reconstruction, giving a float, or an ``n x K`` block
    of them, one per column, giving an array of ``K`` values.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    x_ref = np.asarray(x_ref, dtype=float)
    if x_hat.shape[:1] != x_ref.shape or x_hat.ndim > 2:
        raise ValueError("x_hat must have x_ref's shape, or be a block of such columns")
    ref_energy = float(x_ref @ x_ref)
    if ref_energy == 0.0:
        raise ValueError("reference signal must be nonzero")
    if x_hat.ndim == 1:
        err = x_hat - x_ref
        err_energy = err @ err
    else:
        err = x_hat - x_ref[:, None]
        err_energy = np.einsum("ij,ij->j", err, err)
    # a perfect reconstruction divides by zero, and the cap turns its inf into 300
    with np.errstate(divide="ignore"):
        snr = np.minimum(10.0 * np.log10(ref_energy / err_energy), SNR_CAP_DB)
    return float(snr) if x_hat.ndim == 1 else snr
