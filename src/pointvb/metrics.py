"""Confusion-matrix accumulation, mean IoU, and scene-set evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def predict_scene(state: TrainState, cloud, cfg: TrainConfig) -> np.ndarray:
    """Per-original-point class predictions via the voxel pipeline."""
    if state.head is None:
        raise DataError("evaluation requires a classification head")
    voxels, mapping = voxel_downsample(cloud, cfg.voxel_size)
    features, _ = encoder_forward(state.encoder, voxels)
    logits = features @ state.head.weight + state.head.bias
    return np.argmax(logits, axis=1)[mapping]


def evaluate(state: TrainState, scenes: SceneSet, cfg: TrainConfig) -> RunReport:
    """Segment every scene and score point-level predictions by mIoU.

    Predictions are made per voxel and projected back to every original
    point; only points with present ground truth enter the confusion
    matrix.
    """
    set_up_process()
    cm = ConfusionMatrix.zeros(cfg.num_classes)
    any_truth = False
    for cloud, labels in scenes.scenes:
        if labels.num_classes != cfg.num_classes:
            raise DataError(
                f"scene has {labels.num_classes} classes, model expects "
                f"{cfg.num_classes}"
            )
        mask = labels.present_mask
        if not mask.any():
            continue
        any_truth = True
        predicted = predict_scene(state, cloud, cfg)
        cm.add(labels.labels[mask], predicted[mask])
    if not any_truth:
        raise DataError("no scene carries ground-truth labels")
    per_class, mean = miou(cm)
    return RunReport(per_class, mean)
