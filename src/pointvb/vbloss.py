"""Redundancy-reduction loss on the cross-channel correlation matrix,
with exact gradients through the column normalization, plus Gaussian
entropy / log-det diagnostics for the information-theoretic objective."""

from __future__ import annotations

import numpy as np

from .config import TrainConfig
from .errors import DataError, NumericError

EPSILON = 1e-12  # floor of a column norm in the normalization


def _normalized(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns centered to mean 0 and divided by their L2 norms floored at
    EPSILON, and those floored norms (1 x D)."""
    if features.ndim != 2 or features.shape[0] < 2:
        raise DataError(f"need a 2-D matrix with >= 2 rows, got {features.shape}")
    centered = features - features.mean(axis=0, keepdims=True)
    norms = np.maximum(np.linalg.norm(centered, axis=0, keepdims=True), EPSILON)
    return centered / norms, norms


def normalize_columns(features: np.ndarray) -> np.ndarray:
    """Center each column to mean 0 and scale it to unit L2 norm.

    The norm is floored at EPSILON, so a constant column maps to zeros.
    """
    return _normalized(features)[0]


def cross_correlation(zp: np.ndarray, zq: np.ndarray) -> np.ndarray:
    """D x D correlations of channel pairs of the column-normalized views.

    Rows of zp and zq must describe the same sampled points under the two
    views; entries are cosine correlations in [-1, 1] up to rounding.
    """
    if zp.shape != zq.shape:
        raise DataError(f"view shapes differ: {zp.shape} vs {zq.shape}")
    return normalize_columns(zp).T @ normalize_columns(zq)


def _scale_off_diagonal(z: np.ndarray, weight: float) -> np.ndarray:
    out = z * weight
    np.fill_diagonal(out, np.diagonal(z))
    return out


def vb_loss(z: np.ndarray, cfg: TrainConfig) -> float:
    """Frobenius distance between the off-diagonal-scaled D x D matrix z and
    identity (squared when cfg.squared_norm, smoother near the optimum)."""
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise DataError(f"cross-correlation must be square, got {z.shape}")
    gamma = _scale_off_diagonal(z, cfg.off_diagonal_weight)
    residual = gamma - np.eye(len(gamma))
    sq = float(np.sum(residual**2))
    return sq if cfg.squared_norm else float(np.sqrt(sq))


def vb_loss_backward(
    zp: np.ndarray, zq: np.ndarray, cfg: TrainConfig
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss and its exact gradients w.r.t. the raw (pre-normalization) views.

    Chains through centering, the norm division, and the off-diagonal
    scaling. At an exact zero of the loss zero gradients are returned (the
    unsquared norm has none there). A non-finite loss raises NumericError.
    It computes in float64 and returns the gradients in the views' dtype.
    """
    if zp.shape != zq.shape:
        raise DataError(f"view shapes differ: {zp.shape} vs {zq.shape}")
    dtype, zp, zq = zp.dtype, zp.astype(np.float64), zq.astype(np.float64)
    (a, a_norms), (b, b_norms) = _normalized(zp), _normalized(zq)
    z = a.T @ b
    loss = vb_loss(z, cfg)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite pretrain loss; cross-correlation "
                           f"extrema [{np.nanmin(z)}, {np.nanmax(z)}]")
    if loss == 0.0:
        return 0.0, np.zeros(zp.shape, dtype), np.zeros(zq.shape, dtype)
    residual = _scale_off_diagonal(z, cfg.off_diagonal_weight) - np.eye(len(z))
    dz = _scale_off_diagonal(residual, cfg.off_diagonal_weight)
    dz = 2.0 * dz if cfg.squared_norm else dz / loss
    return loss, _normalized_backward(a, a_norms, b @ dz.T).astype(dtype), \
        _normalized_backward(b, b_norms, a @ dz).astype(dtype)


def _normalized_backward(y: np.ndarray, norms: np.ndarray,
                         upstream: np.ndarray) -> np.ndarray:
    """Backprop through _normalized for each column independently, from its
    normalized columns y and floored norms."""
    # d/dcentered of (centered / max(norm, eps)); the norm term only flows
    # where the norm is not floored at epsilon
    active = (norms > EPSILON).astype(np.float64)
    dc = upstream / norms - active * y * np.sum(y * upstream, axis=0,
                                                keepdims=True) / norms
    return dc - dc.mean(axis=0, keepdims=True)


def gaussian_entropy(covariance: np.ndarray) -> float:
    """Differential entropy 0.5 * (D ln(2 pi e) + ln det) of a Gaussian.

    The covariance must be symmetric positive definite; the determinant is
    taken from its Cholesky factor.
    """
    covariance = np.asarray(covariance, dtype=np.float64)
    if covariance.ndim != 2 or covariance.shape[0] != covariance.shape[1]:
        raise DataError(f"covariance must be square, got {covariance.shape}")
    if not np.allclose(covariance, covariance.T, atol=1e-10):
        raise NumericError("covariance is not symmetric")
    try:
        chol = np.linalg.cholesky(covariance)
    except np.linalg.LinAlgError:
        raise NumericError("covariance is not positive definite") from None
    d = len(covariance)
    log_det = 2.0 * float(np.sum(np.log(np.diagonal(chol))))
    return 0.5 * (d * np.log(2.0 * np.pi * np.e) + log_det)


def _log_det_ridge(samples: np.ndarray, ridge: float) -> float:
    """ln det of the sample covariance of rows, ridge-regularized to PD."""
    n, d = samples.shape
    if n < d + 1:
        raise DataError(f"need at least D+1 = {d + 1} samples, got {n}")
    centered = samples - samples.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / (n - 1) + ridge * np.eye(d)
    chol = np.linalg.cholesky(cov)
    return 2.0 * float(np.sum(np.log(np.diagonal(chol))))


def vb_objective_estimate(
    pooled_features: np.ndarray,
    per_input_views: list[list[np.ndarray]],
    beta: float,
    ridge: float = 1e-6,
) -> float:
    """Sample-covariance estimate of the information objective.

    pooled_features (N, D) are representation samples across all inputs
    and views, giving the marginal covariance term. per_input_views holds,
    for each input, its >= 2 view feature matrices (H, D) with
    corresponding rows; per-point across-view deviations estimate the
    conditional covariance given that input. Returns

        mean_inputs ln|Sigma_cond + ridge I| + (1 - beta)/beta * ln|Sigma + ridge I|

    Diagnostic only: identical views floor the first term at D * ln(ridge).
    """
    if beta <= 1.0:
        raise DataError("beta must exceed 1")
    conditional_terms = []
    for views in per_input_views:
        if len(views) < 2:
            raise DataError("need at least 2 views per input")
        stack = np.stack(views)                 # (V, H, D)
        deviations = stack - stack.mean(axis=0, keepdims=True)
        flat = deviations.reshape(-1, stack.shape[-1])
        conditional_terms.append(_log_det_ridge(flat, ridge))
    marginal = _log_det_ridge(np.asarray(pooled_features, dtype=np.float64), ridge)
    return float(np.mean(conditional_terms) + (1.0 - beta) / beta * marginal)
