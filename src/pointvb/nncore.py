"""Dense numeric core: the point-feature encoder with explicit forward and
backward passes, and a finite-difference gradient checker.

The encoder is a shared per-point MLP. After each hidden layer the ReLU
activations are concatenated with their mean over each point's k nearest
geometric neighbors, so receptive fields grow with depth. It computes in
its parameters' dtype: float64 as drawn, so 1e-5 gradient tolerances are
meaningful, or float32, as every training phase and evaluation holds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import DataError, NumericError
from .geometry import knn_indices  # metrics.prepare_scene calls it by this name
from .pcio import PointCloud

COLOR_SCALE = 255.0  # encoder input uses colors scaled to [0, 1]


@dataclass
class EncoderParams:
    """Weights and biases of the encoder MLP.

    Layer l maps width_in[l] -> width_out[l]; hidden layers are followed by
    ReLU and neighbor-mean concatenation (doubling the width fed to the
    next layer), the final layer is linear.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def feature_dim(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].dtype


@dataclass
class RowPlan:
    """What encoder layer l computes over a kNN graph: the points sets[l]
    (None: all M). It depends on the graph, the rows and its encoder's layer
    count and dtype, not on the weights, so it is reused."""

    graph: tuple[int, int]               # the kNN graph's (M, k)
    dtype: np.dtype                      # its encoder's: operators and inputs
    sets: list[np.ndarray | None]
    poolings: list[sparse.csr_matrix]    # hidden layer l: sets[l] -> sets[l + 1]
    transposes: list[sparse.csc_matrix]  # theirs, for the backward
    keeps: list[np.ndarray | slice]      # where sets[l + 1] sit in sets[l]
    order: np.ndarray | None             # the caller's rows[order] == sets[-1]


@dataclass
class ForwardTape(RowPlan):
    """A plan and what one forward over it recorded for the backward."""

    relu_masks: list[np.ndarray]    # hidden layer l's z > 0, as bool
    layer_inputs: list[np.ndarray]
    params: EncoderParams


def layer_shapes(feature_dim: int, hidden_widths: tuple[int, ...]) -> list[tuple]:
    """Each layer's weight shape, 6 -> hidden... -> feature_dim; the input
    after a hidden layer is its ReLU output concatenated with its neighbor mean."""
    return list(zip((6, *(2 * w for w in hidden_widths)), (*hidden_widths, feature_dim)))


def init_encoder(
    rng: np.random.Generator,
    feature_dim: int,
    hidden_widths: tuple[int, ...] = (64, 64),
) -> EncoderParams:
    """He-initialized encoder of layer_shapes; the linear last layer has gain 1."""
    shapes = layer_shapes(feature_dim, hidden_widths)
    gains = [2.0] * len(hidden_widths) + [1.0]
    return EncoderParams(
        [rng.normal(0.0, np.sqrt(gain / fan_in), size=(fan_in, width))
         for gain, (fan_in, width) in zip(gains, shapes)],
        [np.zeros(width) for _, width in shapes])


def encoder_params_dict(params: EncoderParams) -> dict[str, np.ndarray]:
    out = {}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        out[f"enc.w{i}"] = w
        out[f"enc.b{i}"] = b
    return out


def pooling_operator(neighbors: np.ndarray, rows: np.ndarray | None = None,
                     cols: np.ndarray | None = None, dtype=np.float64
                     ) -> sparse.csr_matrix:
    """Sparse row-stochastic dtype operator averaging each point's neighbors,
    (M, M) or its block at sorted point indices rows x cols (cols holding every
    neighbor of rows), each row's columns ascending. k = 0 gives zero."""
    if rows is not None:  # cloud index -> position in cols
        at = np.zeros(len(neighbors), dtype=np.intp)
        at[cols] = np.arange(len(cols))
        neighbors = at[neighbors[rows]]
    n, k = neighbors.shape
    return sparse.csr_matrix(
        (np.full(n * k, 1.0 / max(k, 1), dtype), np.sort(neighbors, axis=1).ravel(),
         np.arange(n + 1) * k), shape=(n, n if cols is None else len(cols)))


def plan_rows(encoder: EncoderParams, neighbors: np.ndarray,
              rows: np.ndarray | None) -> RowPlan:
    """Plan encoder's layers, in its dtype, over the kNN graph neighbors (M, k)
    to compute all M rows (rows None: one pooling operator serves every hidden
    layer) or the distinct point indices rows: each layer what the next
    reads, sorted(rows), then those rows and their neighbors, layer by layer
    inward."""
    m, layers, dtype = len(neighbors), len(encoder.weights), encoder.dtype
    sets: list[np.ndarray | None] = [None] * layers
    order = None
    if rows is not None:
        sets[-1], order = np.unique(rows, return_index=True)
        if len(order) < max(len(rows), 1) or sets[-1][0] < 0 or sets[-1][-1] >= m:
            raise DataError("rows must be one or more distinct point indices")
        for layer in range(layers - 2, -1, -1):
            field = np.zeros(m, dtype=bool)
            field[sets[layer + 1]] = field[neighbors[sets[layer + 1]]] = True
            sets[layer] = np.flatnonzero(field)
    hidden = range(layers - 1)
    poolings = [pooling_operator(neighbors, dtype=dtype)] * len(hidden) if rows is None \
        else [pooling_operator(neighbors, sets[i + 1], sets[i], dtype) for i in hidden]
    keeps = [slice(None) if rows is None else np.searchsorted(sets[i], sets[i + 1])
             for i in hidden]
    return RowPlan(neighbors.shape, dtype, sets, poolings, [p.T for p in poolings],
                   keeps, order)


def encoder_input(cloud: PointCloud, plan: RowPlan) -> np.ndarray:
    """The plan's layer-0 rows of the encoder input in its dtype: positions
    and colors scaled to [0, 1]. The cloud must be the plan's graph's M
    points, every row finite in that dtype."""
    if len(cloud) != plan.graph[0]:
        raise DataError(f"graph shape {plan.graph} does not match {len(cloud)} points")
    x = np.concatenate([cloud.positions, cloud.colors / COLOR_SCALE], axis=1)
    with np.errstate(over="ignore"):  # what overflows dtype fails the check
        x = x.astype(plan.dtype, copy=False)
    if not np.isfinite(x).all():
        raise NumericError("non-finite encoder input")
    return x if plan.sets[0] is None else x[plan.sets[0]]


def encoder_forward(params: EncoderParams, plan: RowPlan, inputs: np.ndarray
                    ) -> tuple[np.ndarray, ForwardTape]:
    """Features (M, D) of every point, or (len(rows), D) of the distinct
    point indices `rows` in their order, as plan_rows planned them, plus the
    tape needed for backprop; inputs is the plan's encoder_input. Layers
    compute only what the next reads."""
    x = inputs
    layer_inputs, relu_masks = [], []
    for layer, (w, b) in enumerate(zip(params.weights[:-1], params.biases[:-1])):
        layer_inputs.append(x)
        z = x @ w + b
        relu_masks.append(z > 0.0)
        a = np.maximum(z, 0.0)
        x = np.concatenate([a[plan.keeps[layer]], plan.poolings[layer] @ a], axis=1)
    layer_inputs.append(x)
    features = x @ params.weights[-1] + params.biases[-1]
    if not np.isfinite(features).all():
        raise NumericError("non-finite encoder output")
    if plan.order is not None:
        features[plan.order] = features.copy()
    return features, ForwardTape(**vars(plan), relu_masks=relu_masks,
                                 layer_inputs=layer_inputs, params=params)


def encoder_backward(tape: ForwardTape, upstream: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of <upstream, features> w.r.t. every encoder parameter;
    each layer's weight and bias sums run over the rows it computed."""
    params = tape.params
    d = params.feature_dim
    n = len(tape.layer_inputs[-1])
    if upstream.shape != (n, d):
        raise DataError(f"upstream shape {upstream.shape} does not match ({n}, {d})")
    if tape.order is not None:
        upstream = upstream[tape.order]
    grads: dict[str, np.ndarray] = {}
    for layer in range(len(params.weights) - 1, -1, -1):
        if layer < len(tape.poolings):
            width = params.weights[layer].shape[1]
            # transpose of the neighbor-mean pooling routes the pooled half back
            da = tape.transposes[layer] @ dx[:, width:]
            da[tape.keeps[layer]] += dx[:, :width]
            dz = da * tape.relu_masks[layer]
        else:
            dz = upstream
        grads[f"enc.w{layer}"] = tape.layer_inputs[layer].T @ dz
        grads[f"enc.b{layer}"] = dz.sum(axis=0)
        if layer:
            dx = dz @ params.weights[layer].T
    return grads


def gradient_check(
    loss_fn,
    params: dict[str, np.ndarray],
    analytic: dict[str, np.ndarray],
    step: float = 1e-5,
    samples_per_tensor: int = 200,
    rng: np.random.Generator | None = None,
) -> dict[str, float]:
    """Each tensor's worst relative error against central finite differences.

    loss_fn maps the parameter dict to a scalar; for each tensor up to
    samples_per_tensor coordinates are perturbed (all of them when the
    tensor is small). Relative error is |a - n| / max(|a|, |n|, 1e-8), but an
    analytic zero (|a| < 1e-12) passes while |n| < 1e-9, since n is then the
    loss's rounding (say, of a parameter the loss is invariant to); a zeroed
    a whose true gradient is real still scores about 1.
    """
    if step <= 0:
        raise DataError("step must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    errors = {}
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
            if abs(a) >= 1e-12 or abs(numeric) >= 1e-9:
                worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
        errors[name] = worst
    return errors
