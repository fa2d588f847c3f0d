"""Mahalanobis covariate metric for nearest-neighbor search.

The metric matrix is the inverse of the pooled sample covariance (both arms,
n-1 denominator). A singular covariance is handled by a fixed geometric ridge
schedule rather than a pseudo-inverse, so distance orderings stay strict and
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import _freeze

__all__ = ["MahalanobisMetric", "fit_mahalanobis", "distance"]

# Ridge schedule: start at 1e-10 * trace/p, multiply by 10 up to 1e-2 * trace/p.
_RIDGE_START_FACTOR = 1e-10
_RIDGE_CAP_FACTOR = 1e-2


@dataclass(frozen=True)
class MahalanobisMetric:
    """Inverse-covariance quadratic-form metric; ``ridge`` is 0 unless regularization was needed."""

    v: np.ndarray
    ridge: float

    def __post_init__(self) -> None:
        v = np.asarray(self.v, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"v must be square, got shape {v.shape}")
        _freeze(self, v=v)

    @property
    def p(self) -> int:
        return self.v.shape[0]

    def whitener(self) -> np.ndarray:
        """Matrix L with L L^T = v, so metric distances are Euclidean in x @ L."""
        return np.linalg.cholesky(self.v)


def fit_mahalanobis(x: np.ndarray) -> MahalanobisMetric:
    """Fit the metric from an n x p covariate matrix pooled over both arms.

    If the sample covariance is not positive definite, the smallest ridge from
    the geometric schedule that makes it so is added and recorded.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"x must be 2-d, got shape {x.shape}")
    n, p = x.shape
    if n < 2:
        raise ValueError(f"need n >= 2 to fit a sample covariance, got n={n}")
    if p == 0:
        raise ValueError("x has no columns; a metric needs at least one covariate")
    bad = np.argwhere(~np.isfinite(x))
    if len(bad):
        row, col = bad[0]
        raise ValueError(f"x must be finite; row {row}, column {col} is {x[row, col]}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    cov = (cov + cov.T) / 2.0

    scale = float(np.trace(cov)) / p
    ridge = 0.0
    while True:
        try:
            chol = np.linalg.cholesky(cov + ridge * np.eye(p))
            break
        except np.linalg.LinAlgError:
            pass
        if scale <= 0.0:
            raise ValueError("covariance is identically zero; no usable metric")
        if ridge == 0.0:
            ridge = _RIDGE_START_FACTOR * scale
        else:
            ridge *= 10.0
        if ridge > _RIDGE_CAP_FACTOR * scale * (1 + 1e-12):
            raise ValueError(
                f"covariance not invertible even at ridge cap {_RIDGE_CAP_FACTOR * scale:.3e}"
            )
    identity = np.eye(p)
    inv_chol = np.linalg.solve(chol, identity)
    v = inv_chol.T @ inv_chol
    v = (v + v.T) / 2.0
    return MahalanobisMetric(v=v, ridge=ridge)


def distance(metric: MahalanobisMetric, a: np.ndarray, b: np.ndarray) -> float:
    """Metric distance ((a-b)' V (a-b))^(1/2); symmetric, zero iff a == b for PD v."""
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.shape[0] != metric.p or b.shape[0] != metric.p:
        raise ValueError(
            f"dimension mismatch: metric is {metric.p}-d, got vectors of length "
            f"{a.shape[0]} and {b.shape[0]}"
        )
    d = a - b
    q = float(d @ metric.v @ d)
    return float(np.sqrt(max(q, 0.0)))
