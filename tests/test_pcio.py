import struct
import tracemalloc

import numpy as np
import pytest

from pointvb.errors import DataError, LabelError, PlyParseError
from pointvb.pcio import (
    ABSENT,
    PointCloud,
    SceneSet,
    SparseLabelSet,
    generate_synthetic_scene,
    load_labels,
    load_ply,
    load_scene_set,
    save_labels,
    save_ply,
    subsample_labels,
    write_scene_set,
)

ASCII_PLY = """ply
format ascii 1.0
comment three points
element vertex 3
property float x
property float y
property float z
property uchar red
property uchar green
property uchar blue
end_header
0 0 0 255 0 0
1 0 0 255 0 0
0 1 0 255 0 0
"""


def small_cloud():
    positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    colors = np.full((3, 3), [255.0, 0.0, 0.0])
    return PointCloud(positions, colors)


class TestPointCloud:
    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            PointCloud(np.zeros((3, 3)), np.zeros((2, 3)))

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            PointCloud(np.zeros((0, 3)), np.zeros((0, 3)))

    def test_colors_clamped(self):
        cloud = PointCloud(np.zeros((1, 3)), np.array([[-5.0, 300.0, 128.0]]))
        np.testing.assert_array_equal(cloud.colors, [[0.0, 255.0, 128.0]])

    def test_clamp_leaves_the_callers_colors(self):
        colors = np.array([[300.0, -5.0, 10.0]])
        first = PointCloud(np.zeros((1, 3)), colors)
        np.testing.assert_array_equal(colors, [[300.0, -5.0, 10.0]])
        second = PointCloud(first.positions, first.colors)
        assert not np.shares_memory(first.colors, second.colors)

    def test_nonfinite_positions(self):
        with pytest.raises(DataError):
            PointCloud(np.array([[np.nan, 0, 0]]), np.zeros((1, 3)))


class TestLoadPly:
    def test_ascii_literal(self, tmp_path):
        path = tmp_path / "tri.ply"
        path.write_text(ASCII_PLY)
        cloud = load_ply(path)
        assert len(cloud) == 3
        np.testing.assert_array_equal(cloud.positions, small_cloud().positions)
        np.testing.assert_array_equal(cloud.colors, small_cloud().colors)

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.normal(size=(50, 3)),
                           rng.integers(0, 256, size=(50, 3)).astype(float))
        path = tmp_path / "rt.ply"
        save_ply(cloud, path)
        loaded = load_ply(path)
        np.testing.assert_array_equal(loaded.positions, cloud.positions)
        np.testing.assert_array_equal(loaded.colors, cloud.colors)
        reference = b"".join(
            struct.pack("<dddBBB", *p, *c.astype(np.uint8))
            for p, c in zip(cloud.positions, cloud.colors)
        )
        assert path.read_bytes().split(b"end_header\n", 1)[1] == reference

    def test_ascii_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        cloud = PointCloud(rng.normal(size=(20, 3)),
                           rng.integers(0, 256, size=(20, 3)).astype(float))
        header = ASCII_PLY.split("end_header\n")[0].replace("vertex 3", "vertex 20")
        path = tmp_path / "rt.ply"
        path.write_text(header + "end_header\n" + "".join(
            "%.17g %.17g %.17g %d %d %d\n" % (*p, *c)
            for p, c in zip(cloud.positions, cloud.colors)))
        loaded = load_ply(path)
        np.testing.assert_allclose(loaded.positions, cloud.positions, rtol=0,
                                   atol=0)  # %.17g round-trips float64
        np.testing.assert_array_equal(loaded.colors, cloud.colors)

    def test_nonfinite_ascii_color(self, tmp_path):
        # np.clip keeps a NaN, so the cloud must reject it before the clamp
        path = tmp_path / "nan.ply"
        path.write_text(ASCII_PLY.replace("1 0 0 255 0 0", "1 0 0 nan 0 0"))
        with pytest.raises(DataError, match="non-finite colors"):
            load_ply(path)

    def test_ascii_and_binary_agree(self, tmp_path):
        path = tmp_path / "tri.ply"
        path.write_text(ASCII_PLY)
        ascii_cloud = load_ply(path)
        bin_path = tmp_path / "tri_bin.ply"
        save_ply(ascii_cloud, bin_path)
        bin_cloud = load_ply(bin_path)
        np.testing.assert_array_equal(ascii_cloud.positions, bin_cloud.positions)
        np.testing.assert_array_equal(ascii_cloud.colors, bin_cloud.colors)

    def test_truncated_ascii_payload(self, tmp_path):
        path = tmp_path / "trunc.ply"
        path.write_text(ASCII_PLY.replace("element vertex 3", "element vertex 4"))
        with pytest.raises(PlyParseError, match="truncated at vertex 3 of 4"):
            load_ply(path)

    def test_huge_ascii_vertex_count_fails_before_allocating(self, tmp_path):
        path = tmp_path / "huge.ply"
        path.write_text(ASCII_PLY.replace("element vertex 3",
                                          "element vertex 10000000"))
        tracemalloc.start()
        try:
            with pytest.raises(PlyParseError, match="truncated at vertex 3 of"):
                load_ply(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20  # a (10^7, 6) float64 array is 480 MB

    def test_truncated_binary_payload(self, tmp_path):
        path = tmp_path / "rt.ply"
        save_ply(small_cloud(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(PlyParseError, match="truncated"):
            load_ply(path)
        try:
            load_ply(path)
        except PlyParseError as exc:
            assert exc.offset > 0

    def test_missing_property(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(ASCII_PLY.replace("property uchar blue\n", ""))
        with pytest.raises(PlyParseError, match="blue"):
            load_ply(path)

    def test_big_endian_rejected(self, tmp_path):
        path = tmp_path / "be.ply"
        path.write_text(ASCII_PLY.replace("ascii", "binary_big_endian"))
        with pytest.raises(PlyParseError, match="unsupported format"):
            load_ply(path)

    def test_missing_magic(self, tmp_path):
        path = tmp_path / "nomagic.ply"
        path.write_text(ASCII_PLY.replace("ply\n", "plz\n", 1))
        with pytest.raises(PlyParseError):
            load_ply(path)

    def test_trailing_face_element_ignored(self, tmp_path):
        text = ASCII_PLY.replace(
            "end_header\n",
            "element face 1\nproperty list uchar int vertex_indices\nend_header\n",
        ) + "3 0 1 2\n"
        path = tmp_path / "faces.ply"
        path.write_text(text)
        with pytest.warns(UserWarning, match="skipping trailing"):
            cloud = load_ply(path)
        assert len(cloud) == 3


class TestLabels:
    def test_literal_parse(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("0 3\n5 1\n")
        labels = load_labels(path, num_classes=20, num_points=8)
        expected = np.full(8, ABSENT)
        expected[0], expected[5] = 3, 1
        np.testing.assert_array_equal(labels.labels, expected)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("")
        labels = load_labels(path, 20, 8)
        assert labels.present_mask.sum() == 0

    def test_comments_allowed(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("# header\n0 3  # trailing\n\n5 1\n")
        labels = load_labels(path, 20, 8)
        assert labels.present_mask.sum() == 2

    def test_class_out_of_range(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("2 25\n")
        with pytest.raises(LabelError, match="class 25"):
            load_labels(path, 20, 8)

    def test_duplicate_index(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("2 1\n2 3\n")
        with pytest.raises(LabelError, match="duplicate"):
            load_labels(path, 20, 8)

    @pytest.mark.parametrize("text", ["-1 1\n", "-5 1\n", "2 1\n-1 3\n"])
    def test_negative_index(self, tmp_path, text):
        """A negative index is named as such, not as a duplicate of, or
        below, the index before the first line."""
        path = tmp_path / "l.txt"
        path.write_text(text)
        with pytest.raises(LabelError, match=r":\d+: negative index -\d$"):
            load_labels(path, 20, 8)

    def test_decreasing_index(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("5 1\n2 3\n")
        with pytest.raises(LabelError, match="non-increasing"):
            load_labels(path, 20, 8)

    def test_index_beyond_cloud(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("9 1\n")
        with pytest.raises(LabelError, match="point count 8"):
            load_labels(path, 20, 8)

    def test_save_load_round_trip(self, tmp_path):
        labels = SparseLabelSet(np.array([ABSENT, 2, ABSENT, 0, 5]), 6)
        path = tmp_path / "l.txt"
        save_labels(labels, path)
        loaded = load_labels(path, 6, 5)
        np.testing.assert_array_equal(loaded.labels, labels.labels)


def save_labels_reference(labels, path):
    """save_labels as a line-at-a-time writer."""
    with open(path, "w", encoding="ascii") as fh:
        for index in np.flatnonzero(labels.present_mask):
            fh.write(f"{index} {labels.labels[index]}\n")


class TestLabelFastPaths:
    def test_writer_bytes_equal_line_writer(self, tmp_path):
        """Sparse and full label sets, and one with no present label (an
        empty file)."""
        sets = [subsample_labels(generate_synthetic_scene(seed, 2048, 4)[1],
                                 1 + seed * 100, seed) for seed in range(20)]
        sets.append(SparseLabelSet(np.full(2048, ABSENT), 4))
        for labels in sets:
            save_labels(labels, tmp_path / "a.labels")
            save_labels_reference(labels, tmp_path / "b.labels")
            assert (tmp_path / "a.labels").read_bytes() == \
                (tmp_path / "b.labels").read_bytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_one_pass_parse_equals_line_loop(self, tmp_path, seed, monkeypatch):
        """A canonical file parses in one pass; the same file with a comment
        goes line by line; both give the same labels."""
        rng = np.random.default_rng(seed)
        _, full = generate_synthetic_scene(seed, 512, 4)
        labels = subsample_labels(full, int(rng.integers(1, 512)), seed)
        canonical = tmp_path / "canonical.labels"
        save_labels(labels, canonical)
        commented = tmp_path / "commented.labels"
        commented.write_text(canonical.read_text() + "# end\n")
        one_pass = []
        parse = np.fromstring
        monkeypatch.setattr(np, "fromstring",
                            lambda *a, **k: one_pass.append(1) or parse(*a, **k))
        fast = load_labels(canonical, 4, 512)
        assert one_pass == [1]
        slow = load_labels(commented, 4, 512)
        assert one_pass == [1]
        np.testing.assert_array_equal(fast.labels, labels.labels)
        np.testing.assert_array_equal(slow.labels, labels.labels)

    def test_leading_zeros_and_long_numbers(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("0003 01\n7 2\n")
        np.testing.assert_array_equal(load_labels(path, 4, 8).labels,
                                      [ABSENT, ABSENT, ABSENT, 1, ABSENT,
                                       ABSENT, ABSENT, 2])
        path.write_text("1 1\n" + "9" * 30 + " 1\n")
        with pytest.raises(LabelError, match="point count 8"):
            load_labels(path, 4, 8)


class TestSyntheticScene:
    def test_deterministic(self):
        a_cloud, a_labels = generate_synthetic_scene(7, 2048, 4)
        b_cloud, b_labels = generate_synthetic_scene(7, 2048, 4)
        np.testing.assert_array_equal(a_cloud.positions, b_cloud.positions)
        np.testing.assert_array_equal(a_cloud.colors, b_cloud.colors)
        np.testing.assert_array_equal(a_labels.labels, b_labels.labels)

    def test_fully_labeled(self):
        _, labels = generate_synthetic_scene(7, 2048, 4)
        assert labels.present_mask.sum() == 2048
        assert labels.labels.max() < 4
        assert set(np.unique(labels.labels)) == {0, 1, 2, 3}

    def test_seeds_differ(self):
        a, _ = generate_synthetic_scene(7, 2048, 4)
        b, _ = generate_synthetic_scene(8, 2048, 4)
        assert not np.array_equal(a.positions, b.positions)

    def test_too_few_points(self):
        with pytest.raises(DataError):
            generate_synthetic_scene(0, 3, 4)


class TestSubsampleLabels:
    def full(self, m=2048, s=4, seed=0):
        rng = np.random.default_rng(seed)
        return SparseLabelSet(rng.integers(0, s, size=m), s)

    def test_identity_when_k_equals_present(self):
        labels = self.full(m=50)
        out = subsample_labels(labels, 50, seed=1)
        np.testing.assert_array_equal(out.labels, labels.labels)

    def test_exact_subset(self):
        labels = self.full()
        out = subsample_labels(labels, 20, seed=1)
        assert out.present_mask.sum() == 20
        kept = np.flatnonzero(out.present_mask)
        np.testing.assert_array_equal(out.labels[kept], labels.labels[kept])

    def test_deterministic(self):
        labels = self.full()
        a = subsample_labels(labels, 20, seed=5)
        b = subsample_labels(labels, 20, seed=5)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_too_few_present(self):
        labels = SparseLabelSet(np.array([ABSENT, 1, ABSENT]), 4)
        with pytest.raises(LabelError):
            subsample_labels(labels, 2, seed=0)


class TestSceneSet:
    def test_manifest_round_trip(self, tmp_path):
        scenes = SceneSet(
            [generate_synthetic_scene(i, 256, 4) for i in range(3)],
            split="train",
        )
        write_scene_set(scenes, tmp_path / "data")
        loaded = load_scene_set(tmp_path / "data", 4, "train")
        assert len(loaded) == 3
        assert loaded.split == "train"
        for (c1, l1), (c2, l2) in zip(scenes.scenes, loaded.scenes):
            np.testing.assert_array_equal(c1.positions, c2.positions)
            np.testing.assert_array_equal(l1.labels, l2.labels)
            # colors round through uint8
            np.testing.assert_allclose(c1.colors, c2.colors, atol=0.5)

    def test_old_split_file_ignored(self, tmp_path):
        """Directories written with a split.txt still load; the file is
        neither read nor written."""
        scenes = SceneSet([generate_synthetic_scene(0, 64, 4)], split="val")
        write_scene_set(scenes, tmp_path)
        assert not (tmp_path / "split.txt").exists()
        (tmp_path / "split.txt").mkdir()  # unreadable as a file
        assert load_scene_set(tmp_path, 4, "val").split == "val"

    def test_duplicate_ids_rejected(self):
        scene = generate_synthetic_scene(0, 64, 4)
        with pytest.raises(DataError):
            SceneSet([scene, scene], scene_ids=["a", "a"])
