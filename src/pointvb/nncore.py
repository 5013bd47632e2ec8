"""Dense numeric core: the point-feature encoder with explicit forward and
backward passes, a finite-difference gradient checker, and feature-column
normalization.

The encoder is a shared per-point MLP. After each hidden layer the ReLU
activations are concatenated with their mean over each point's k nearest
geometric neighbors, so receptive fields grow with depth. Everything runs
in float64 so 1e-5 gradient tolerances are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import DataError, NumericError
from .geometry import knn_indices
from .pcio import PointCloud

COLOR_SCALE = 255.0  # encoder input uses colors scaled to [0, 1]


@dataclass
class EncoderParams:
    """Weights and biases of the encoder MLP plus the neighbor count k.

    Layer l maps width_in[l] -> width_out[l]; hidden layers are followed by
    ReLU and neighbor-mean concatenation (doubling the width fed to the
    next layer), the final layer is linear.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    knn: int

    @property
    def feature_dim(self) -> int:
        return self.weights[-1].shape[1]

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            [w.copy() for w in self.weights], [b.copy() for b in self.biases], self.knn
        )


@dataclass
class ForwardTape:
    """Activations recorded by encoder_forward for the backward pass."""

    inputs: np.ndarray            # (M, 6) encoder input
    pooling: sparse.csr_matrix    # (M, M) neighbor-mean operator
    pre_activations: list[np.ndarray]
    layer_inputs: list[np.ndarray]
    params: EncoderParams


def init_encoder(
    rng: np.random.Generator,
    feature_dim: int,
    hidden_widths: tuple[int, ...] = (64, 64),
    knn: int = 16,
) -> EncoderParams:
    """He-initialized encoder with widths 6 -> hidden... -> feature_dim."""
    weights, biases = [], []
    fan_in = 6
    for width in hidden_widths:
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, width)))
        biases.append(np.zeros(width))
        fan_in = 2 * width  # ReLU output concatenated with its neighbor mean
    weights.append(rng.normal(0.0, np.sqrt(1.0 / fan_in), size=(fan_in, feature_dim)))
    biases.append(np.zeros(feature_dim))
    return EncoderParams(weights, biases, knn)


def encoder_params_dict(params: EncoderParams, prefix: str = "enc") -> dict[str, np.ndarray]:
    out = {}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        out[f"{prefix}.w{i}"] = w
        out[f"{prefix}.b{i}"] = b
    return out


def _encoder_input(cloud: PointCloud) -> np.ndarray:
    return np.concatenate([cloud.positions, cloud.colors / COLOR_SCALE], axis=1)


def pooling_operator(neighbors: np.ndarray) -> sparse.csr_matrix:
    """Sparse (M, M) row-stochastic operator averaging each point's neighbors.

    k = 0 gives the zero operator.
    """
    m, k = neighbors.shape
    if k == 0:
        return sparse.csr_matrix((m, m))
    rows = np.repeat(np.arange(m), k)
    data = np.full(m * k, 1.0 / k)
    return sparse.csr_matrix((data, (rows, neighbors.ravel())), shape=(m, m))


def encoder_forward(
    params: EncoderParams,
    cloud: PointCloud,
    neighbors: np.ndarray | None = None,
) -> tuple[np.ndarray, ForwardTape]:
    """Per-point features (M, D) plus the tape needed for backprop.

    neighbors may carry precomputed kNN indices for the cloud's positions;
    they are recomputed otherwise. k must be smaller than M.
    """
    if neighbors is None:
        neighbors = knn_indices(cloud.positions, params.knn)
    elif neighbors.shape != (len(cloud), params.knn):
        raise DataError(
            f"neighbors shape {neighbors.shape} does not match "
            f"({len(cloud)}, {params.knn})"
        )
    pooling = pooling_operator(neighbors)
    x = _encoder_input(cloud)
    layer_inputs = []
    pre_activations = []
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        layer_inputs.append(x)
        z = x @ w + b
        pre_activations.append(z)
        a = np.maximum(z, 0.0)
        x = np.concatenate([a, pooling @ a], axis=1)
    layer_inputs.append(x)
    features = x @ params.weights[-1] + params.biases[-1]
    if not np.isfinite(features).all():
        raise NumericError("non-finite encoder output")
    tape = ForwardTape(
        inputs=layer_inputs[0],
        pooling=pooling,
        pre_activations=pre_activations,
        layer_inputs=layer_inputs,
        params=params,
    )
    return features, tape


def encoder_backward(tape: ForwardTape, upstream: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of <upstream, features> w.r.t. every encoder parameter."""
    params = tape.params
    d = params.feature_dim
    if upstream.shape != (len(tape.inputs), d):
        raise DataError(
            f"upstream shape {upstream.shape} does not match "
            f"({len(tape.inputs)}, {d})"
        )
    pooling_t = tape.pooling.T.tocsr()
    grads: dict[str, np.ndarray] = {}
    last = len(params.weights) - 1
    grads[f"enc.w{last}"] = tape.layer_inputs[-1].T @ upstream
    grads[f"enc.b{last}"] = upstream.sum(axis=0)
    dx = upstream @ params.weights[-1].T

    for layer in range(last - 1, -1, -1):
        width = params.weights[layer].shape[1]
        # transpose of the neighbor-mean pooling routes the pooled half back
        da = dx[:, :width] + pooling_t @ dx[:, width:]
        dz = da * (tape.pre_activations[layer] > 0.0)
        grads[f"enc.w{layer}"] = tape.layer_inputs[layer].T @ dz
        grads[f"enc.b{layer}"] = dz.sum(axis=0)
        dx = dz @ params.weights[layer].T
    return grads


def normalize_columns(features: np.ndarray, epsilon: float = 1e-12) -> np.ndarray:
    """Center each column to mean 0 and scale it to unit L2 norm.

    The norm is floored at epsilon, so a constant column maps to zeros.
    """
    if features.ndim != 2 or features.shape[0] < 2:
        raise DataError(f"need a 2-D matrix with >= 2 rows, got {features.shape}")
    centered = features - features.mean(axis=0, keepdims=True)
    norms = np.linalg.norm(centered, axis=0, keepdims=True)
    return centered / np.maximum(norms, epsilon)


@dataclass
class GradCheckEntry:
    name: str
    max_rel_error: float
    checked: int


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry] = field(default_factory=list)
    tolerance: float = 1e-5

    @property
    def max_rel_error(self) -> float:
        return max((e.max_rel_error for e in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def gradient_check(
    loss_fn,
    params: dict[str, np.ndarray],
    analytic: dict[str, np.ndarray],
    step: float = 1e-5,
    tolerance: float = 1e-5,
    samples_per_tensor: int = 200,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    loss_fn maps the parameter dict to a scalar; for each tensor up to
    samples_per_tensor coordinates are perturbed (all of them when the
    tensor is small). Relative error is |a - n| / max(|a|, |n|, 1e-8).
    """
    if step <= 0:
        raise DataError("step must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    report = GradCheckReport(tolerance=tolerance)
    work = {name: value.copy() for name, value in params.items()}
    for name, tensor in work.items():
        flat = tensor.reshape(-1)
        n = flat.size
        if n <= samples_per_tensor:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=samples_per_tensor, replace=False)
        worst = 0.0
        for c in coords:
            original = flat[c]
            flat[c] = original + step
            up = loss_fn(work)
            flat[c] = original - step
            down = loss_fn(work)
            flat[c] = original
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericError(f"non-finite loss while checking {name}")
            numeric = (up - down) / (2.0 * step)
            a = analytic[name].reshape(-1)[c]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
        report.entries.append(GradCheckEntry(name, worst, len(coords)))
    return report
