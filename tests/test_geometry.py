import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from pointvb import geometry
from pointvb.errors import DataError
from pointvb.experiment import make_synthetic_dataset
from pointvb.geometry import (
    COLOR_JITTER_SIGMA,
    TransformSpec,
    apply_transform,
    farthest_point_sampling,
    knn_indices,
    sample_transform,
    vote_labels,
    voxel_downsample,
)
from pointvb.pcio import ABSENT, PointCloud, SparseLabelSet


def random_cloud(rng, m):
    return PointCloud(rng.normal(scale=2.0, size=(m, 3)),
                      rng.uniform(0, 255, size=(m, 3)))


def fps_reference(positions, h, start):
    """Brute-force max-min selection with lowest-index tie-break."""
    selected = [start]
    for _ in range(h - 1):
        best, best_d = None, -1.0
        for i in range(len(positions)):
            if i in selected:
                continue
            d = min(np.linalg.norm(positions[i] - positions[j]) for j in selected)
            if d > best_d:
                best, best_d = i, d
        selected.append(best)
    return selected


class TestSampleTransform:
    def test_deterministic(self):
        a = sample_transform(np.random.default_rng(11), 100)
        b = sample_transform(np.random.default_rng(11), 100)
        assert a.z_rotation == b.z_rotation
        assert a.mirror_flags == b.mirror_flags
        np.testing.assert_array_equal(a.color_jitter, b.color_jitter)

    def test_mirror_rate(self):
        # Bernoulli(0.5) over 10k draws: 5 sigma is ~0.025
        rng = np.random.default_rng(0)
        flags = np.array([sample_transform(rng, 1).mirror_flags
                          for _ in range(10_000)])
        rates = flags.mean(axis=0)
        assert np.all(rates > 0.47) and np.all(rates < 0.53)

    def test_jitter_scale_and_rotation_range(self):
        rng = np.random.default_rng(1)
        jitter = np.concatenate(
            [sample_transform(rng, 10).color_jitter.ravel() for _ in range(400)]
        )
        assert 12.4 < jitter.std() < 13.1
        assert abs(COLOR_JITTER_SIGMA - 12.75) < 1e-12
        angles = [sample_transform(rng, 1).z_rotation for _ in range(10_000)]
        assert 0.0 <= min(angles) and max(angles) < 2 * np.pi
        assert 2.8 < np.mean(angles) < 3.5  # ~pi for U[0, 2pi)


class TestApplyTransform:
    def test_identity(self):
        rng = np.random.default_rng(2)
        cloud = random_cloud(rng, 60)
        spec = TransformSpec(0.0, (False,) * 3, np.zeros((60, 3)))
        out = apply_transform(cloud, spec)
        np.testing.assert_array_equal(out.positions, cloud.positions)
        np.testing.assert_array_equal(out.colors, cloud.colors)

    def test_quarter_turn(self):
        cloud = PointCloud(np.array([[1.0, 0.0, 0.0]]), np.zeros((1, 3)))
        spec = TransformSpec(np.pi / 2, (False, False, False), np.zeros((1, 3)))
        out = apply_transform(cloud, spec)
        np.testing.assert_allclose(out.positions, [[0.0, 1.0, 0.0]], atol=1e-12)

    def test_mirror_x(self):
        cloud = PointCloud(np.array([[1.0, 2.0, 3.0]]), np.zeros((1, 3)))
        spec = TransformSpec(0.0, (True, False, False), np.zeros((1, 3)))
        out = apply_transform(cloud, spec)
        np.testing.assert_array_equal(out.positions, [[-1.0, 2.0, 3.0]])

    def test_jitter_clamped(self):
        cloud = PointCloud(np.zeros((1, 3)), np.array([[250.0, 5.0, 100.0]]))
        spec = TransformSpec(0.0, (False, False, False),
                             np.array([[20.0, -20.0, 3.0]]))
        out = apply_transform(cloud, spec)
        np.testing.assert_array_equal(out.colors, [[255.0, 0.0, 103.0]])

    def test_jitter_length_mismatch(self):
        cloud = random_cloud(np.random.default_rng(0), 5)
        spec = TransformSpec(0.0, (False,) * 3, np.zeros((4, 3)))
        with pytest.raises(DataError):
            apply_transform(cloud, spec)

    def test_isometry(self):
        rng = np.random.default_rng(3)
        cloud = random_cloud(rng, 40)
        spec = sample_transform(rng, 40)
        out = apply_transform(cloud, spec)
        before = np.linalg.norm(
            cloud.positions[:, None] - cloud.positions[None, :], axis=-1)
        after = np.linalg.norm(
            out.positions[:, None] - out.positions[None, :], axis=-1)
        np.testing.assert_allclose(after, before, atol=1e-9)

    def test_rotation_composition(self):
        rng = np.random.default_rng(4)
        cloud = random_cloud(rng, 30)
        a, b = 1.1, 2.7
        m = len(cloud)
        once = apply_transform(
            apply_transform(cloud, TransformSpec(a, (False,) * 3, np.zeros((m, 3)))),
            TransformSpec(b, (False,) * 3, np.zeros((m, 3))),
        )
        combined = apply_transform(
            cloud, TransformSpec((a + b) % (2 * np.pi), (False,) * 3,
                                 np.zeros((m, 3))))
        np.testing.assert_allclose(once.positions, combined.positions, atol=1e-9)


class TestFarthestPointSampling:
    def test_collinear_oracle(self):
        positions = np.zeros((10, 3))
        positions[:, 0] = np.arange(10)
        cloud = PointCloud(positions, np.zeros((10, 3)))
        out = farthest_point_sampling(cloud, 3, start=0)
        np.testing.assert_array_equal(out, [0, 9, 4])

    def test_single(self):
        cloud = random_cloud(np.random.default_rng(0), 8)
        assert list(farthest_point_sampling(cloud, 1, start=5)) == [5]

    def test_exhaustion_is_permutation(self):
        cloud = random_cloud(np.random.default_rng(1), 33)
        out = farthest_point_sampling(cloud, 33, start=7)
        assert sorted(out) == list(range(33))

    def test_exhaustion_with_duplicates(self):
        positions = np.zeros((6, 3))
        positions[:3, 0] = [0.0, 1.0, 2.0]
        positions[3:, 0] = [0.0, 1.0, 2.0]
        cloud = PointCloud(positions, np.zeros((6, 3)))
        out = farthest_point_sampling(cloud, 6, start=0)
        assert sorted(out) == list(range(6))

    def test_h_too_large(self):
        cloud = random_cloud(np.random.default_rng(2), 5)
        with pytest.raises(DataError):
            farthest_point_sampling(cloud, 6, start=0)

    @given(st.integers(0, 10_000), st.integers(2, 64))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed, m):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, m)
        h = int(rng.integers(1, m + 1))
        start = int(rng.integers(m))
        out = farthest_point_sampling(cloud, h, start)
        np.testing.assert_array_equal(
            out, fps_reference(cloud.positions, h, start))

    def test_min_distance_non_increasing(self):
        rng = np.random.default_rng(9)
        cloud = random_cloud(rng, 128)
        full = farthest_point_sampling(cloud, 128, start=0)
        last = np.inf
        for h in range(2, 129):
            sel = cloud.positions[full[:h]]
            d = np.linalg.norm(sel[:, None] - sel[None, :], axis=-1)
            np.fill_diagonal(d, np.inf)
            current = d.min()
            assert current <= last + 1e-12
            last = current


class TestVoxelDownsample:
    def test_no_merging_when_sparse(self):
        rng = np.random.default_rng(5)
        positions = rng.uniform(0, 10, size=(30, 3))
        cloud = PointCloud(positions, rng.uniform(0, 255, size=(30, 3)))
        labels = SparseLabelSet(rng.integers(0, 4, size=30), 4)
        out_cloud, mapping = voxel_downsample(cloud, 1e-6)
        out_labels = vote_labels(labels, mapping)
        assert len(out_cloud) == 30
        np.testing.assert_allclose(
            out_cloud.positions[mapping], cloud.positions, atol=1e-9)
        np.testing.assert_array_equal(out_labels.labels[mapping], labels.labels)

    def test_centroid(self):
        cloud = PointCloud(np.array([[0.0, 0, 0], [0.005, 0, 0]]),
                           np.array([[10.0, 0, 0], [20.0, 0, 0]]))
        labels = SparseLabelSet(np.array([ABSENT, ABSENT]), 4)
        out_cloud, mapping = voxel_downsample(cloud, 0.02)
        out_labels = vote_labels(labels, mapping)
        assert len(out_cloud) == 1
        np.testing.assert_allclose(out_cloud.positions, [[0.0025, 0, 0]])
        np.testing.assert_allclose(out_cloud.colors, [[15.0, 0, 0]])
        assert out_labels.labels[0] == ABSENT
        np.testing.assert_array_equal(mapping, [0, 0])

    def test_majority_label(self):
        cloud = PointCloud(np.zeros((3, 3)) + 0.001, np.zeros((3, 3)))
        labels = SparseLabelSet(np.array([1, 1, 2]), 4)
        out_labels = vote_labels(labels, voxel_downsample(cloud, 0.02)[1])
        assert out_labels.labels[0] == 1

    def test_majority_tie_lowest_class(self):
        cloud = PointCloud(np.zeros((2, 3)) + 0.001, np.zeros((2, 3)))
        labels = SparseLabelSet(np.array([3, 1]), 4)
        out_labels = vote_labels(labels, voxel_downsample(cloud, 0.02)[1])
        assert out_labels.labels[0] == 1

    def test_mapping_total_and_count_bound(self):
        rng = np.random.default_rng(6)
        cloud = random_cloud(rng, 300)
        out_cloud, mapping = voxel_downsample(cloud, 0.5)
        assert len(out_cloud) <= 300
        assert mapping.shape == (300,)
        assert mapping.min() >= 0 and mapping.max() == len(out_cloud) - 1

    def test_bad_voxel_size(self):
        cloud = random_cloud(np.random.default_rng(0), 4)
        with pytest.raises(DataError):
            voxel_downsample(cloud, 0.0)

    @pytest.mark.parametrize("x, voxel_size", [(1e19, 0.05), (1.0, 1e-310)])
    def test_key_past_int64_raises(self, x, voxel_size):
        """Points whose keys overflow int64 would merge into one voxel."""
        cloud = PointCloud(np.array([[-x, 0.0, 0.0], [x, 0.0, 0.0]]),
                           np.zeros((2, 3)))
        with pytest.raises(DataError, match="int64 voxel key"):
            voxel_downsample(cloud, voxel_size)

    def test_keys_at_the_int64_limits(self):
        """-2**63 and the largest float below 2**63 are keys of their own."""
        x = np.array([-2.0**63, np.nextafter(2.0**63, 0), 0.0])
        cloud = PointCloud(np.c_[x, np.zeros((3, 2))], np.zeros((3, 3)))
        out, mapping = voxel_downsample(cloud, 1.0)
        assert len(out) == 3
        np.testing.assert_array_equal(mapping, [0, 1, 2])


def voxel_mapping_reference(positions, voxel_size):
    """voxel_downsample's point-to-voxel mapping through np.unique(axis=0),
    voxels numbered by first occurrence."""
    keys = np.floor(positions / voxel_size).astype(np.int64)
    _, first_pos, mapping = np.unique(keys, axis=0, return_index=True,
                                      return_inverse=True)
    rank = np.empty(len(first_pos), dtype=np.intp)
    rank[np.argsort(first_pos, kind="stable")] = np.arange(len(first_pos))
    return rank[mapping.reshape(-1)]


class TestVoxelGrouping:
    """The sorted-key grouping gives np.unique(axis=0)'s voxels and order."""

    @staticmethod
    def positions(kind, rng):
        if kind == "random":
            return rng.normal(scale=2.0, size=(500, 3))
        if kind == "duplicated":  # repeated points, shuffled
            return rng.permutation(np.repeat(rng.normal(size=(60, 3)), 5, axis=0))
        if kind == "negative":
            return rng.uniform(-7.0, -0.01, size=(400, 3))
        # spans wider than 2**21 voxels a side, where keys packed into 21 bits
        # an axis would collide, e.g. 0 and 2**21
        base = np.concatenate([[[0.5, 0.5, 0.5], [2.0**21 + 0.5, 0.5, 0.5],
                                [0.5, 2.0**22 + 0.5, 0.5], [-2.0**21 + 0.5, 0.5, 0.5]],
                               rng.uniform(-3e6, 3e6, size=(196, 3))])
        return rng.permutation(np.concatenate(
            [base, base + rng.uniform(-0.2, 0.2, size=base.shape)]))

    @pytest.mark.parametrize("kind", ["random", "duplicated", "negative", "wide"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_unique_rows(self, kind, seed):
        rng = np.random.default_rng(seed)
        positions = self.positions(kind, rng)
        voxel = 1.0 if kind == "wide" else 0.25
        cloud = PointCloud(positions, rng.uniform(0, 255, size=positions.shape))
        out, mapping = voxel_downsample(cloud, voxel)
        expected = voxel_mapping_reference(positions, voxel)
        assert len(out) == expected.max() + 1 < len(positions)
        np.testing.assert_array_equal(mapping, expected)


def knn_reference(positions, k, rows=None):
    """Per-row brute force: exact squared distances by difference, self
    excluded, sorted by (distance, index)."""
    m = len(positions)
    rows = range(m) if rows is None else rows
    out = []
    for i in rows:
        d = np.sum((positions - positions[i]) ** 2, axis=1)
        order = np.lexsort((np.arange(m), d))
        out.append(order[order != i][:k])
    return np.array(out, dtype=np.int64).reshape(len(out), k)


def lattice(n):
    g = np.arange(n, dtype=np.float64)
    return np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)


class TestKnnIndices:
    @pytest.mark.parametrize("k", [1, 6, 16])
    @pytest.mark.parametrize("cloud", ["lattice", "lattice_duplicates",
                                       "all_equal", "random"])
    def test_matches_brute_force(self, cloud, k):
        rng = np.random.default_rng(k)
        if cloud == "lattice":
            positions = lattice(6)
        elif cloud == "lattice_duplicates":
            base = lattice(6)
            positions = np.concatenate(
                [base, base[rng.choice(len(base), 20, replace=False)]])
            positions = positions[rng.permutation(len(positions))]
        elif cloud == "all_equal":
            positions = np.full((40, 3), 0.3)
        else:
            positions = rng.normal(size=(500, 3))
        np.testing.assert_array_equal(knn_indices(positions, k),
                                      knn_reference(positions, k))

    @pytest.mark.parametrize("cloud", ["lattice", "random"])
    def test_distances_of_duplicates_and_ties(self, cloud, monkeypatch):
        """The per-axis candidate distances equal np.sum's over an (M, w, 3)
        gather, bit for bit, where duplicates (distance 0 beside self) and
        exact ties (a lattice's equal offsets) meet; the graph is brute
        force's. A tree that hands back each row's candidates farthest first
        leaves every row out of order, so every row reaches the sort, whose
        keys are recorded."""
        rng = np.random.default_rng(11)
        base = lattice(5) if cloud == "lattice" else rng.uniform(0.0, 1.3, (125, 3))
        positions = np.concatenate([base, base[:30], base[:5]])
        positions = positions[rng.permutation(len(positions))]

        class FarthestFirst(cKDTree):
            def query(self, x, k):
                d, i = super().query(x, k=k)
                return d[:, ::-1], i[:, ::-1]

        keys = []
        sorted_by = types.SimpleNamespace(**vars(np))  # geometry's np, recording
        sorted_by.lexsort = lambda k, **kw: keys.append(k) or np.lexsort(k, **kw)
        monkeypatch.setattr(geometry, "np", sorted_by)
        monkeypatch.setattr(geometry, "cKDTree", FarthestFirst)
        nbrs = knn_indices(positions, 8)
        monkeypatch.undo()
        cand, dist = keys[0]  # the first pass: every row, in the tree's order
        rows = cKDTree(positions).indices
        assert len(cand) == len(positions)
        old = np.sum((positions[cand] - positions[rows, None]) ** 2, axis=2)
        old[cand == rows[:, None]] = -1.0  # self sorts first
        np.testing.assert_array_equal(dist, old)
        assert (old == 0.0).any() and len(keys) > 1  # duplicates; a tie re-query
        np.testing.assert_array_equal(nbrs, knn_reference(positions, 8))

    @pytest.mark.parametrize("seed", range(2))
    def test_desk_scenes(self, seed):
        """The graphs training and evaluation build: voxelized 2,048-point
        synthetic scenes at 5 cm, and one raw scene."""
        scenes = make_synthetic_dataset(seed, 2, 2048, 5).scenes
        clouds = [voxel_downsample(cloud, 0.05)[0] for cloud, _ in scenes]
        for cloud in clouds + [scenes[0][0]]:
            np.testing.assert_array_equal(knn_indices(cloud.positions, 16),
                                          knn_reference(cloud.positions, 16))

    def test_twenty_thousand_points(self):
        rng = np.random.default_rng(7)
        positions = rng.uniform(0.0, 10.0, size=(20_000, 3))
        tracemalloc.start()
        try:
            nbrs = knn_indices(positions, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one dense 20k x 20k float64 matrix alone would be 3.2 GB
        assert peak < 256 * 2**20
        assert nbrs.shape == (20_000, 16) and nbrs.dtype == np.int64
        assert not (nbrs == np.arange(20_000)[:, None]).any()
        rows = rng.choice(20_000, 50, replace=False)
        np.testing.assert_array_equal(nbrs[rows],
                                      knn_reference(positions, 16, rows))

    def test_simple_line(self):
        positions = np.zeros((4, 3))
        positions[:, 0] = [0.0, 1.0, 2.0, 10.0]
        nbrs = knn_indices(positions, 2)
        np.testing.assert_array_equal(nbrs[0], [1, 2])
        np.testing.assert_array_equal(nbrs[3], [2, 1])

    def test_k_zero(self):
        assert knn_indices(np.zeros((5, 3)), 0).shape == (5, 0)

    def test_k_too_large(self):
        with pytest.raises(DataError):
            knn_indices(np.zeros((3, 3)), 3)
