"""Geometric/chromatic augmentations, farthest point sampling, voxelization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DataError
from .pcio import ABSENT, PointCloud, SparseLabelSet

COLOR_JITTER_SIGMA = 255.0 * 0.05


@dataclass
class TransformSpec:
    """One draw from the augmentation distribution.

    z_rotation in [0, 2*pi); one mirror flag per axis; color_jitter is a
    per-point (M, 3) additive RGB noise array.
    """

    z_rotation: float
    mirror_flags: tuple[bool, bool, bool]
    color_jitter: np.ndarray


def sample_transform(rng: np.random.Generator, num_points: int) -> TransformSpec:
    """Draw rotation ~ U[0, 2pi), mirrors ~ Bernoulli(0.5), jitter ~ N(0, 12.75)."""
    angle = rng.uniform(0.0, 2.0 * np.pi)
    flags = tuple(bool(b) for b in rng.random(3) < 0.5)
    jitter = rng.normal(0.0, COLOR_JITTER_SIGMA, size=(num_points, 3))
    return TransformSpec(angle, flags, jitter)


def apply_transform(cloud: PointCloud, t: TransformSpec) -> PointCloud:
    """Rotate about z, mirror per flag, add color jitter (PointCloud clamps it)."""
    if t.color_jitter.shape != cloud.colors.shape:
        raise DataError(
            f"jitter shape {t.color_jitter.shape} does not match cloud "
            f"{cloud.colors.shape}"
        )
    c, s = np.cos(t.z_rotation), np.sin(t.z_rotation)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    positions = cloud.positions @ rot.T
    for axis, flag in enumerate(t.mirror_flags):
        if flag:
            positions[:, axis] = -positions[:, axis]
    return PointCloud(positions, cloud.colors + t.color_jitter)


def farthest_point_sampling(cloud: PointCloud, h: int, start: int) -> np.ndarray:
    """(h,) int64 indices of a greedy max-min-distance subset, from start.

    Each step picks the point maximizing the minimum Euclidean distance to
    the already selected set; ties break to the lowest index.
    """
    m = len(cloud)
    if not 1 <= h <= m:
        raise DataError(f"h must be in [1, {m}], got {h}")
    if not 0 <= start < m:
        raise DataError(f"start index {start} out of range")
    cols = cloud.positions.T.copy()  # one contiguous row per axis
    indices = np.empty(h, dtype=np.int64)
    # squared distances preserve the ordering and the tie structure;
    # selected points are dropped to -1 so duplicates cannot be re-picked
    min_sq = np.full(m, np.inf)
    sq, diff = np.empty(m), np.empty(m)
    nxt = start
    for i in range(h):
        indices[i] = nxt
        # (dx^2 + dy^2) + dz^2, np.sum(axis=1)'s order, with no (m, 3) temporary
        np.square(np.subtract(cols[0], cols[0, nxt], out=sq), out=sq)
        for col in cols[1:]:
            sq += np.square(np.subtract(col, col[nxt], out=diff), out=diff)
        np.minimum(min_sq, sq, out=min_sq)
        min_sq[nxt] = -1.0
        nxt = int(np.argmax(min_sq))  # argmax returns the lowest tied index
    return indices


def voxel_downsample(cloud: PointCloud, voxel_size: float
                     ) -> tuple[PointCloud, np.ndarray]:
    """Merge points per occupied voxel into centroids.

    Returns (downsampled cloud, mapping) where mapping[i] is the output
    index of original point i; vote_labels merges labels by it. Voxels are
    ordered by first occurrence.
    """
    if voxel_size <= 0:
        raise DataError("voxel_size must be positive")
    with np.errstate(over="ignore"):  # an infinite quotient fails the check
        scaled = np.floor(cloud.positions / voxel_size)
    if not ((scaled >= -2.0**63) & (scaled < 2.0**63)).all():
        raise DataError(f"a coordinate over voxel_size {voxel_size!r} does not "
                        "fit an int64 voxel key")
    keys = scaled.astype(np.int64)
    by_key = np.lexsort(keys.T)  # stable: each voxel's run starts at its first point
    sorted_keys = keys[by_key]
    starts = np.r_[True, (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)]
    first_pos = by_key[starts]
    # number voxels by first occurrence so output order is stable
    rank = np.empty_like(first_pos)
    rank[np.argsort(first_pos)] = np.arange(len(first_pos))
    mapping = np.empty_like(by_key)
    mapping[by_key] = rank[np.cumsum(starts) - 1]

    v = len(first_pos)
    counts = np.bincount(mapping, minlength=v).astype(np.float64)
    positions = np.zeros((v, 3))
    colors = np.zeros((v, 3))
    for axis in range(3):
        positions[:, axis] = np.bincount(
            mapping, weights=cloud.positions[:, axis], minlength=v
        )
        colors[:, axis] = np.bincount(
            mapping, weights=cloud.colors[:, axis], minlength=v
        )
    positions /= counts[:, None]
    colors /= counts[:, None]

    return PointCloud(positions, colors), mapping


def vote_labels(labels: SparseLabelSet, mapping: np.ndarray) -> SparseLabelSet:
    """Majority present label of the points mapped to each of the
    mapping.max() + 1 voxels; lowest class id on ties, ABSENT if none."""
    present = labels.present_mask
    votes = np.zeros((mapping.max() + 1, labels.num_classes), dtype=np.int64)
    np.add.at(votes, (mapping[present], labels.labels[present]), 1)
    # argmax: the lowest class wins ties
    merged = np.where(votes.any(axis=1), np.argmax(votes, axis=1), ABSENT)
    return SparseLabelSet(merged, labels.num_classes)


def knn_indices(positions: np.ndarray, k: int) -> np.ndarray:
    """(M, k) indices of each point's k nearest other points, nearest first,
    ties to the lowest index; k = 0 yields an empty (M, 0) array.

    Rows are queried in the KD-tree's leaf order. Candidates get exact
    squared distances, by difference, and self gets -1 so it sorts first
    (duplicates sit at 0); only rows the tree left out of (distance, index)
    order are sorted. A row whose farthest candidate is not strictly farther
    than its k-th neighbor may miss a tie: it is queried again with twice as
    many candidates, up to M."""
    m = len(positions)
    if k >= m:
        raise DataError(f"k = {k} must be smaller than point count {m}")
    if k == 0:
        return np.zeros((m, 0), dtype=np.int64)
    tree = cKDTree(positions)
    cols = positions.T.copy()  # one contiguous row per axis
    out = np.empty((m, k), dtype=np.int64)
    rows = tree.indices  # neighboring queries walk neighboring leaves
    width = min(k + 3, m)  # self, k and 2 spare: the fastest of 1-16 spare
    while len(rows):
        _, cand = tree.query(positions[rows], k=width)
        dist = np.zeros(cand.shape)  # (dx^2 + dy^2) + dz^2, np.sum(axis=2)'s order
        for col in cols:
            dist += np.square(col[cand] - col[rows, None])
        dist[cand == rows[:, None]] = -1.0
        a, b = dist[:, :-1], dist[:, 1:]  # each column and the next
        unsorted = ((a > b) | (a == b) & (cand[:, :-1] > cand[:, 1:])).any(axis=1)
        order = np.lexsort((cand[unsorted], dist[unsorted]), axis=1)
        cand[unsorted] = np.take_along_axis(cand[unsorted], order, axis=1)
        dist[unsorted] = np.take_along_axis(dist[unsorted], order, axis=1)
        # the farthest strictly past the k-th, by more than the tree's rounding
        done = (dist[:, -1] > dist[:, k] * (1.0 + 1e-12)) | (width == m)
        out[rows[done]] = cand[done, 1:k + 1]
        rows, width = rows[~done], min(2 * width, m)
    return out
