"""Confusion-matrix accumulation, mean IoU, and scene-set evaluation."""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import nncore
from .errors import DataError
from .geometry import voxel_downsample
from .nncore import encoder_forward
from .pcio import SceneSet
from .training import TrainConfig, TrainState, set_up_process


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
    per_class: list[float | None] = []
    included = []
    for c in range(len(counts)):
        if denom[c] == 0:
            per_class.append(None)
        else:
            iou = float(tp[c]) / float(denom[c])
            per_class.append(iou)
            included.append(iou)
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


def predict_scene(state: TrainState, cloud, cfg: TrainConfig,
                  prepared: Future | None = None) -> np.ndarray:
    """Per-original-point class predictions via the voxel pipeline; prepared
    may hold a future of the cloud's prepare_scene, waited for here."""
    if state.head is None:
        raise DataError("evaluation requires a classification head")
    voxels, mapping, neighbors = (prepared.result() if prepared is not None else
                                  prepare_scene(cloud, cfg.voxel_size, state.encoder.knn))
    features, _ = encoder_forward(state.encoder, voxels, neighbors)
    logits = features @ state.head.weight + state.head.bias
    return np.argmax(logits, axis=1)[mapping]


def evaluate(state: TrainState, scenes: SceneSet, cfg: TrainConfig) -> RunReport:
    """Segment every scene and score point-level predictions by mIoU.

    Predictions are made per voxel and projected back to every original
    point; only points with present ground truth enter the confusion
    matrix. Those scenes are scored in order while one helper thread builds
    the next one's voxels and kNN graph, never more than one scene ahead.
    """
    set_up_process()
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
    with ThreadPoolExecutor(1) as pool:
        def prepare(i: int) -> Future | None:
            return pool.submit(prepare_scene, scored[i][0], cfg.voxel_size,
                               state.encoder.knn) if i < len(scored) else None
        ahead = prepare(0)
        for i, (cloud, labels) in enumerate(scored):
            current, ahead = ahead, prepare(i + 1)
            predicted = predict_scene(state, cloud, cfg, current)
            mask = labels.present_mask
            cm.add(labels.labels[mask], predicted[mask])
    per_class, mean = miou(cm)
    return RunReport(per_class, mean)
