"""Per-scene losses and gradients of both training phases, SGD with
momentum, the polynomial learning-rate schedule, and binary checkpoint
persistence."""

from __future__ import annotations

import ctypes
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .config import TrainConfig
from .errors import CheckpointError, ConfigError, DataError, NumericError
from .geometry import TransformSpec, apply_transform, farthest_point_sampling, \
    sample_transform
from .geometry import knn_indices  # unused; perfbench/tracer.py traces this name
from .nncore import (
    EncoderParams,
    encoder_backward,
    encoder_forward,
    encoder_input,
    encoder_params_dict,
    init_encoder,
    layer_shapes,
    plan_rows,
)
from .pcio import PointCloud, SparseLabelSet
from .vbloss import vb_loss_backward

CHECKPOINT_MAGIC = b"VPBK"
CHECKPOINT_VERSION = 2


@dataclass
class HeadParams:
    """Affine classification head mapping D features to S class logits."""

    weight: np.ndarray  # (D, S)
    bias: np.ndarray    # (S,)


@dataclass
class TrainState:
    """Everything a run owns: parameters, momentum buffers, step, RNG."""

    encoder: EncoderParams
    head: HeadParams | None
    momentum_buffers: dict[str, np.ndarray]
    step: int
    rng: np.random.Generator

    def param_dict(self) -> dict[str, np.ndarray]:
        params = encoder_params_dict(self.encoder)
        if self.head is not None:
            params["head.w"] = self.head.weight
            params["head.b"] = self.head.bias
        return params


def init_state(cfg: TrainConfig, with_head: bool = False) -> TrainState:
    rng = np.random.default_rng(cfg.seed)
    encoder = init_encoder(rng, cfg.feature_dim, cfg.hidden_widths)
    state = TrainState(encoder, None, {}, 0, rng)
    if with_head:
        attach_head(state, cfg)
    return state


def attach_head(state: TrainState, cfg: TrainConfig) -> None:
    """Add a fresh classification head drawn from state.rng (to a new model,
    or to a pretrained encoder before fine-tuning) and restart the step
    count, dropping stale momentum buffers."""
    state.head = HeadParams(
        state.rng.normal(0.0, np.sqrt(1.0 / cfg.feature_dim),
                         size=(cfg.feature_dim, cfg.num_classes)),
        np.zeros(cfg.num_classes),
    )
    state.momentum_buffers = {}
    state.step = 0


def to_float32(state: TrainState) -> None:
    """Hold state's parameters and momentum buffers in float32, as every phase
    and evaluation does, in new objects: a shallow copy's original keeps its own."""
    f32, enc, head = (lambda a: a.astype(np.float32)), state.encoder, state.head
    state.encoder = EncoderParams([*map(f32, enc.weights)], [*map(f32, enc.biases)])
    state.head = head and HeadParams(f32(head.weight), f32(head.bias))
    state.momentum_buffers = {name: f32(b) for name, b in state.momentum_buffers.items()}


def set_up_process() -> None:
    """Process-wide set-up every phase shares: keep the tens of MB a step or
    scored scene frees on glibc's heap for the next, not handed back to the
    OS to be faulted in again (7.8k minor faults, ~15 ms of a pretrain
    step), and run NumPy's bundled OpenBLAS on one thread, whatever the
    environment says: on two, its GEMMs sum in another order and a run's
    bytes change. Each part is a no-op where its library or setter is
    missing."""
    mallopt = getattr(ctypes.pythonapi, "mallopt", None)  # libc's, on Linux
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's dynamic ceiling
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: twice it, as glibc pairs them
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for lib in libs.glob("libscipy_openblas64_-*.so"):
        setter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads64_",
                         None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def poly_lr(step: int, cfg: TrainConfig) -> float:
    """lr0 * (1 - step/K)^p polynomial decay."""
    if not 0 <= step <= cfg.iterations:
        raise DataError(f"step {step} outside [0, {cfg.iterations}]")
    return cfg.lr0 * (1.0 - step / cfg.iterations) ** cfg.poly_power


def sgd_momentum_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    buffers: dict[str, np.ndarray],
    lr: float,
    momentum: float,
) -> None:
    """Heavy-ball update in place: buf = m*buf + g; p -= lr*buf; NumericError
    if p leaves its dtype's finite range."""
    with np.errstate(over="ignore", invalid="ignore"):  # p is checked instead
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise DataError(f"gradient shape mismatch for {name}")
            buf = buffers.get(name)
            if buf is None:
                buf = np.zeros_like(p)
                buffers[name] = buf
            buf *= momentum
            buf += g
            p -= lr * buf
            if not np.isfinite(p).all():
                raise NumericError(f"non-finite {name} after an SGD step at lr {lr}")


def pretrain_draws(rng: np.random.Generator, clouds: list[PointCloud]
                   ) -> tuple[int, tuple[TransformSpec, TransformSpec, int]]:
    """One pretrain compute's draws from rng, in order: a scene index into
    clouds, that scene's two view transforms and its FPS start. The phase's
    steps and its FPS worker both draw here, so both draw alike."""
    i = int(rng.integers(len(clouds)))  # draws nothing from one cloud
    m = len(clouds[i])
    return i, (sample_transform(rng, m), sample_transform(rng, m), int(rng.integers(m)))


def pretrain_sample(cloud: PointCloud, cfg: TrainConfig, start: int) -> np.ndarray:
    """The rows a pretrain pair correlates: min(H, M) FPS indices from start."""
    return farthest_point_sampling(cloud, min(cfg.fps_count, len(cloud)), start)


def pretrain_grads(
    encoder: EncoderParams,
    cloud: PointCloud,
    neighbors: np.ndarray,
    draws: tuple[TransformSpec, TransformSpec, int],
    sample: np.ndarray,
    cfg: TrainConfig,
) -> tuple[float, dict[str, np.ndarray]]:
    """Viewpoint-bottleneck loss of one cloud's pair of views and its
    gradients with respect to every encoder parameter, p's then q's summed.

    The views are the cloud under draws' two transforms (pretrain_draws);
    sample is pretrain_sample at draws' FPS start, computed on the
    untransformed cloud, so correlated rows describe the same points. Both
    views share the cloud's kNN graph neighbors, planned once for both. cfg
    gives the loss's off_diagonal_weight and squared_norm.
    """
    plan = plan_rows(encoder, neighbors, sample)
    (feats_p, tape_p), (feats_q, tape_q) = (
        encoder_forward(encoder, plan, encoder_input(apply_transform(cloud, t), plan))
        for t in draws[:2])
    loss, grad_p, grad_q = vb_loss_backward(feats_p, feats_q, cfg)
    grads = encoder_backward(tape_p, grad_p)
    for name, g in encoder_backward(tape_q, grad_q).items():
        grads[name] += g
    return loss, grads


def masked_cross_entropy(
    logits: np.ndarray, labels: SparseLabelSet
) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy averaged over labeled rows.

    Unlabeled rows contribute nothing to the loss or gradient; the
    log-sum-exp is max-shifted for stability.
    """
    if logits.shape != (len(labels), labels.num_classes):
        raise DataError(
            f"logits shape {logits.shape} does not match "
            f"({len(labels)}, {labels.num_classes})"
        )
    rows = np.flatnonzero(labels.present_mask)
    if len(rows) == 0:
        raise DataError("no labeled points")
    sub, targets = logits[rows], labels.labels[rows]
    shifted = sub - sub.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    log_probs = shifted - log_z
    picked = np.arange(len(targets)), targets
    loss = -float(np.mean(log_probs[picked]))
    grad_rows = np.exp(log_probs)
    grad_rows[picked] -= 1.0
    grad_rows /= len(targets)
    grad = np.zeros_like(logits)
    grad[rows] = grad_rows
    return loss, grad


def finetune_plan(encoder: EncoderParams, cloud: PointCloud, labels: SparseLabelSet,
                  neighbors: np.ndarray) -> tuple:
    """What one scene's fine-tune steps share: the plan of its labeled voxels'
    receptive field over its kNN graph neighbors, its encoder_input and their
    labels. DataError if the scene has no labeled voxel."""
    rows = np.flatnonzero(labels.present_mask)
    if len(rows) == 0:
        raise DataError("fine-tune scene has no labeled voxel")
    plan = plan_rows(encoder, neighbors, rows)
    return plan, encoder_input(cloud, plan), \
        SparseLabelSet(labels.labels[rows], labels.num_classes)


def finetune_grads(state: TrainState, planned: tuple
                   ) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and gradients for one voxelized scene from planned, its
    finetune_plan."""
    if state.head is None:
        raise DataError("finetune requires a classification head")
    plan, inputs, labeled = planned
    features, tape = encoder_forward(state.encoder, plan, inputs)
    logits = features @ state.head.weight + state.head.bias
    loss, dlogits = masked_cross_entropy(logits, labeled)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite fine-tune loss at step {state.step}")
    grads = encoder_backward(tape, dlogits @ state.head.weight.T)
    grads["head.w"] = features.T @ dlogits
    grads["head.b"] = dlogits.sum(axis=0)
    return loss, grads


# ---------------------------------------------------------------------------
# checkpoint format, version 2: magic "VPBK", u32 version, u32 length and
# UTF-8 JSON metadata (config, step, rng_state, encoder_knn, and `tensors`,
# each tensor's [name, shape] in data order), every tensor's float64
# little-endian data in that order, then the CRC32 of all prior bytes. A
# head is stored when head.w is (float32 values exactly); every shape is
# the stored config's.
# ---------------------------------------------------------------------------


def _state_tensors(state: TrainState) -> dict[str, np.ndarray]:
    return {**state.param_dict(), **{f"momentum.{name}": buf for name, buf
                                     in state.momentum_buffers.items()}}


def _tensor_shapes(cfg: TrainConfig, stored: dict) -> dict[str, tuple]:
    """The tensors a checkpoint of cfg holds and their shapes: the encoder's,
    the head's when stored has head.w, and the momentum buffers stored has."""
    shapes = {}
    for i, (fan_in, width) in enumerate(layer_shapes(cfg.feature_dim, cfg.hidden_widths)):
        shapes[f"enc.w{i}"], shapes[f"enc.b{i}"] = (fan_in, width), (width,)
    if "head.w" in stored:
        shapes["head.w"] = (cfg.feature_dim, cfg.num_classes)
        shapes["head.b"] = (cfg.num_classes,)
    return {**shapes, **{f"momentum.{name}": shape for name, shape in shapes.items()
                         if f"momentum.{name}" in stored}}


def save_checkpoint(state: TrainState, cfg: TrainConfig, path: str | Path) -> None:
    tensors = _state_tensors(state)
    names = sorted(tensors)
    meta = {
        "config": {**asdict(cfg), "hidden_widths": list(cfg.hidden_widths)},
        "step": state.step,
        "rng_state": state.rng.bit_generator.state,
        "encoder_knn": cfg.knn,
        "tensors": [[name, list(tensors[name].shape)] for name in names],
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    blob = b"".join([CHECKPOINT_MAGIC,
                     struct.pack("<II", CHECKPOINT_VERSION, len(meta_bytes)),
                     meta_bytes,
                     *(np.asarray(tensors[name], "<f8").tobytes() for name in names)])
    blob += struct.pack("<I", zlib.crc32(blob))
    tmp = Path(f"{path}.tmp")  # renamed over path only once written whole
    try:
        tmp.write_bytes(blob)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path: str | Path, expect: TrainConfig | None = None
                    ) -> tuple[TrainState, TrainConfig]:
    """The state and config a checkpoint holds. With `expect`, the keys that
    fix the model's shapes and inputs must match it: the encoder's, and
    num_classes when the checkpoint has a head."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read: {exc.strerror}") from None
    if len(raw) < 12 or raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    if zlib.crc32(raw[:-4]) != struct.unpack("<I", raw[-4:])[0]:
        raise CheckpointError(f"{path}: checksum failure")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    try:
        (meta_len,) = struct.unpack_from("<I", raw, 8)
        meta = json.loads(raw[12:12 + meta_len].decode("utf-8"))
        pos, end = 12 + meta_len, len(raw) - 4
        tensors: dict[str, np.ndarray] = {}
        for name, shape in meta["tensors"]:
            if type(name) is not str or \
                    not all(type(n) is int and n >= 0 for n in shape):
                raise ValueError(f"bad tensor entry {name!r}, {shape!r}")
            size = math.prod(shape)
            if pos + 8 * size > end:
                raise ValueError(f"tensor {name!r} of shape {shape} runs past the data")
            tensors[name] = np.frombuffer(raw, "<f8", size, pos).reshape(shape).copy()
            pos += 8 * size
        if pos != end:
            raise ValueError(f"{end - pos} bytes past the last tensor")

        cfg = TrainConfig(**{**meta["config"],
                             "hidden_widths": tuple(meta["config"]["hidden_widths"])})
        shapes = _tensor_shapes(cfg, tensors)
        found = {name: tensor.shape for name, tensor in tensors.items()}
        for name in sorted(shapes.keys() | found.keys()):
            if found.get(name) != shapes.get(name):
                raise ValueError(f"tensor {name!r} has shape {found.get(name)}, "
                                 f"the stored config {shapes.get(name)}")
        if type(meta["step"]) is not int or meta["step"] < 0:
            raise ValueError(f"step {meta['step']!r} is not a step count")
        if meta["encoder_knn"] != cfg.knn:
            raise ValueError(f"encoder_knn {meta['encoder_knn']!r} is not knn {cfg.knn}")
        layers = len(cfg.hidden_widths) + 1
        encoder = EncoderParams([tensors[f"enc.w{i}"] for i in range(layers)],
                                [tensors[f"enc.b{i}"] for i in range(layers)])
        head = HeadParams(tensors["head.w"], tensors["head.b"]) \
            if "head.w" in tensors else None
        buffers = {name[len("momentum."):]: tensor for name, tensor in tensors.items()
                   if name.startswith("momentum.")}
        rng = np.random.default_rng()
        rng.bit_generator.state = meta["rng_state"]
        state = TrainState(encoder, head, buffers, meta["step"], rng)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError,
            struct.error, ConfigError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: {exc!r}") from None
    if expect is not None:
        keys = ("feature_dim", "hidden_widths", "knn", "voxel_size") + \
            ("num_classes",) * (head is not None)
        for key in keys:
            if getattr(cfg, key) != getattr(expect, key):
                raise CheckpointError(
                    f"{path}: checkpoint has {key} = {getattr(cfg, key)!r}, "
                    f"the config {getattr(expect, key)!r}")
    return state, cfg
