"""Confusion-matrix accumulation, mean IoU, and scene-set evaluation."""

from __future__ import annotations

import contextlib
import os
from collections.abc import Iterator
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import nncore
from .errors import DataError
from .geometry import voxel_downsample
from .nncore import encoder_forward, encoder_input, plan_rows
from .pcio import SceneSet
from .training import TrainConfig, TrainState, set_up_process, to_float32


@dataclass
class ConfusionMatrix:
    """S x S counts, rows ground truth, columns prediction."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise DataError(f"confusion matrix must be square, got {self.counts.shape}")
        if (self.counts < 0).any():
            raise DataError("negative confusion counts")

    @staticmethod
    def zeros(num_classes: int) -> "ConfusionMatrix":
        return ConfusionMatrix(np.zeros((num_classes, num_classes), dtype=np.int64))

    def add(self, truth: np.ndarray, predicted: np.ndarray) -> None:
        s = len(self.counts)
        if (truth < 0).any() or (truth >= s).any() or \
                (predicted < 0).any() or (predicted >= s).any():
            raise DataError("class id out of range")
        np.add.at(self.counts, (truth, predicted), 1)


def miou(cm: ConfusionMatrix) -> tuple[list[float | None], float]:
    """Per-class IoU (None where TP+FP+FN = 0) and the mean over the rest."""
    counts = cm.counts
    tp = np.diagonal(counts)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    denom = tp + fp + fn
    per_class = [None if d == 0 else float(t) / float(d) for t, d in zip(tp, denom)]
    included = [iou for iou in per_class if iou is not None]
    if not included:
        raise DataError("all classes degenerate; mIoU undefined")
    return per_class, float(np.mean(included))


@dataclass
class RunReport:
    """Per-class and mean IoU of one evaluation."""

    per_class_iou: list[float | None]
    mean_iou: float


def prepare_scene(cloud, voxel_size: float, knn: int) -> tuple:
    """A raw cloud as the encoder reads it, in training and evaluation: its
    voxels, int32 point-to-voxel mapping and the voxels' int32 kNN graph."""
    voxels, mapping = voxel_downsample(cloud, voxel_size)
    graph = nncore.knn_indices(voxels.positions, knn)
    return voxels, mapping.astype(np.int32), graph.astype(np.int32)


def prepared_scenes(clouds, voxel_size: float, knn: int) -> Iterator[Future]:
    """A future of each cloud's prepare_scene, in order, on one thread per usable core
    and at most that many past the last yielded; the pool ends when the iterator does."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    with ThreadPoolExecutor(cores) as pool:
        ahead = []
        for cloud in clouds:
            ahead.append(pool.submit(prepare_scene, cloud, voxel_size, knn))
            if len(ahead) > cores:
                yield ahead.pop(0)
        yield from ahead


def predict_scene(state: TrainState, prepared: Future) -> np.ndarray:
    """Per-original-point class predictions via the voxel pipeline, from a
    future of the cloud's prepare_scene, waited for here."""
    if state.head is None:
        raise DataError("evaluation requires a classification head")
    encoder = state.encoder
    voxels, mapping, neighbors = prepared.result()
    plan = plan_rows(encoder, neighbors, None)
    features, _ = encoder_forward(encoder, plan, encoder_input(voxels, plan))
    logits = features @ state.head.weight + state.head.bias
    return np.argmax(logits, axis=1)[mapping]


def evaluate(state: TrainState, scenes: SceneSet, cfg: TrainConfig) -> RunReport:
    """Segment every scene and score point-level predictions by mIoU.

    Predictions are made per voxel and projected back to every original
    point; only points with present ground truth enter the confusion
    matrix. Those scenes are scored in order while prepared_scenes builds the
    next ones on one thread per usable core, each waited for in predict_scene.
    """
    if state.head is None:  # before any scene is prepared
        raise DataError("evaluation requires a classification head")
    set_up_process()
    state = replace(state)  # scored as a float32 copy; the caller's arrays stay
    to_float32(state)
    for _, labels in scenes.scenes:
        if labels.num_classes != cfg.num_classes:
            raise DataError(
                f"scene has {labels.num_classes} classes, model expects "
                f"{cfg.num_classes}"
            )
    scored = [scene for scene in scenes.scenes if scene[1].present_mask.any()]
    if not scored:
        raise DataError("no scene carries ground-truth labels")
    cm = ConfusionMatrix.zeros(cfg.num_classes)
    with contextlib.closing(prepared_scenes(
            [cloud for cloud, _ in scored], cfg.voxel_size, cfg.knn)) as ahead:
        for (_, labels), prepared in zip(scored, ahead):
            predicted = predict_scene(state, prepared)
            mask = labels.present_mask
            cm.add(labels.labels[mask], predicted[mask])
    per_class, mean = miou(cm)
    return RunReport(per_class, mean)
