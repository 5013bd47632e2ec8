import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointvb import metrics
from pointvb.cli import main
from pointvb.errors import DataError
from pointvb.experiment import make_synthetic_dataset
from pointvb.metrics import ConfusionMatrix, RunReport, evaluate, miou, \
    predict_scene
from pointvb.pcio import ABSENT, SceneSet, SparseLabelSet, \
    generate_synthetic_scene, write_scene_set
from pointvb.training import TrainConfig, init_state, save_checkpoint


def miou_reference(truth, predicted, num_classes):
    """Set-based oracle: IoU is |pred ∩ truth| / |pred ∪ truth| per class."""
    per_class = []
    included = []
    for c in range(num_classes):
        truth_set = set(np.flatnonzero(truth == c))
        pred_set = set(np.flatnonzero(predicted == c))
        union = truth_set | pred_set
        if not union:
            per_class.append(None)
            continue
        iou = len(truth_set & pred_set) / len(union)
        per_class.append(iou)
        included.append(iou)
    return per_class, float(np.mean(included))


class TestConfusionMatrix:
    def test_zeros_shape(self):
        cm = ConfusionMatrix.zeros(5)
        assert cm.counts.shape == (5, 5)
        assert cm.counts.sum() == 0

    def test_total_equals_points_added(self):
        cm = ConfusionMatrix.zeros(3)
        rng = np.random.default_rng(0)
        cm.add(rng.integers(0, 3, 40), rng.integers(0, 3, 40))
        cm.add(rng.integers(0, 3, 25), rng.integers(0, 3, 25))
        assert cm.counts.sum() == 65

    def test_single_pair_lands_in_cell(self):
        cm = ConfusionMatrix.zeros(4)
        cm.add(np.array([2]), np.array([1]))
        assert cm.counts[2, 1] == 1
        assert cm.counts.sum() == 1

    def test_out_of_range_class_raises(self):
        cm = ConfusionMatrix.zeros(3)
        with pytest.raises(DataError):
            cm.add(np.array([3]), np.array([0]))
        with pytest.raises(DataError):
            cm.add(np.array([0]), np.array([-1]))
        assert cm.counts.sum() == 0  # failed add leaves the counts untouched

    def test_non_square_raises(self):
        with pytest.raises(DataError):
            ConfusionMatrix(np.zeros((2, 3), dtype=np.int64))

    def test_negative_counts_raise(self):
        with pytest.raises(DataError):
            ConfusionMatrix(np.array([[1, -1], [0, 2]]))


class TestMiou:
    def test_hand_case(self):
        # tp=3, fp=1, fn=1 for both classes: IoU = 3/5 each
        cm = ConfusionMatrix(np.array([[3, 1], [1, 3]]))
        per_class, mean = miou(cm)
        assert per_class == [pytest.approx(0.6), pytest.approx(0.6)]
        assert mean == pytest.approx(0.6)

    def test_perfect_prediction(self):
        cm = ConfusionMatrix(np.diag([5, 2, 9]))
        per_class, mean = miou(cm)
        assert per_class == [1.0, 1.0, 1.0]
        assert mean == 1.0

    def test_degenerate_class_excluded(self):
        # class 2 never appears in truth or prediction
        counts = np.zeros((3, 3), dtype=np.int64)
        counts[0, 0] = 4
        counts[1, 0] = 4
        per_class, mean = miou(ConfusionMatrix(counts))
        assert per_class[2] is None
        assert per_class[0] == pytest.approx(0.5)
        assert per_class[1] == pytest.approx(0.0)
        assert mean == pytest.approx(0.25)

    def test_all_degenerate_raises(self):
        with pytest.raises(DataError):
            miou(ConfusionMatrix.zeros(3))

    def test_constant_prediction_quarter_miou(self):
        # equal truth counts over 4 classes, predict class 0 always:
        # IoU_0 = n/(4n) = 1/4, others 0 -> mean = 1/16
        truth = np.repeat(np.arange(4), 10)
        predicted = np.zeros_like(truth)
        cm = ConfusionMatrix.zeros(4)
        cm.add(truth, predicted)
        per_class, mean = miou(cm)
        assert per_class[0] == pytest.approx(0.25)
        assert mean == pytest.approx((0.25 + 0 + 0 + 0) / 4)

    def test_matches_set_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            s = int(rng.integers(2, 8))
            n = int(rng.integers(1, 60))
            truth = rng.integers(0, s, n)
            predicted = rng.integers(0, s, n)
            ref_classes, ref_mean = miou_reference(truth, predicted, s)
            if all(c is None for c in ref_classes):
                continue
            cm = ConfusionMatrix.zeros(s)
            cm.add(truth, predicted)
            per_class, mean = miou(cm)
            for got, want in zip(per_class, ref_classes):
                if want is None:
                    assert got is None
                else:
                    assert got == pytest.approx(want, abs=1e-12)
            assert mean == pytest.approx(ref_mean, abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_set_oracle_property(self, seed):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(2, 6))
        n = int(rng.integers(1, 40))
        truth = rng.integers(0, s, n)
        predicted = rng.integers(0, s, n)
        _, ref_mean = miou_reference(truth, predicted, s)
        cm = ConfusionMatrix.zeros(s)
        cm.add(truth, predicted)
        _, mean = miou(cm)
        assert mean == pytest.approx(ref_mean, abs=1e-12)


def small_cfg() -> TrainConfig:
    return TrainConfig(
        phase="finetune", iterations=10, lr0=0.05, momentum=0.0,
        fps_count=32, feature_dim=8, hidden_widths=(16,), knn=8, seed=0,
        voxel_size=0.05, num_classes=4,
    )


class TestEvaluate:
    def test_predict_scene_shape_and_range(self):
        cfg = small_cfg()
        state = init_state(cfg, with_head=True)
        cloud, _ = generate_synthetic_scene(3, 512, 4)
        predicted = predict_scene(state, cloud, cfg)
        assert predicted.shape == (512,)
        assert predicted.min() >= 0 and predicted.max() < 4

    def test_predict_requires_head(self):
        cfg = small_cfg()
        state = init_state(cfg)
        cloud, _ = generate_synthetic_scene(3, 128, 4)
        with pytest.raises(DataError):
            predict_scene(state, cloud, cfg)

    def test_evaluate_deterministic(self):
        cfg = small_cfg()
        scenes = SceneSet(
            [generate_synthetic_scene(10 + i, 256, 4) for i in range(3)],
            split="val", scene_ids=[f"v{i}" for i in range(3)],
        )
        state = init_state(cfg, with_head=True)
        first = evaluate(state, scenes, cfg)
        second = evaluate(state, scenes, cfg)
        assert first.mean_iou == second.mean_iou
        assert first.per_class_iou == second.per_class_iou

    def test_evaluate_returns_run_report(self):
        cfg = small_cfg()
        scenes = SceneSet(
            [generate_synthetic_scene(4, 256, 4)], split="val",
            scene_ids=["v0"],
        )
        report = evaluate(init_state(cfg, with_head=True), scenes, cfg)
        assert isinstance(report, RunReport)
        assert len(report.per_class_iou) == cfg.num_classes
        assert 0.0 <= report.mean_iou <= 1.0

    def test_class_count_mismatch_raises(self, monkeypatch):
        """A second scene of another class count is refused before any
        scene is prepared or scored."""
        cfg = small_cfg()
        scenes = SceneSet(
            [generate_synthetic_scene(4, 256, 4),
             generate_synthetic_scene(5, 256, 3)], split="val",
            scene_ids=["v0", "v1"],
        )
        calls = []
        monkeypatch.setattr(metrics, "prepare_scene", lambda *a: calls.append(a))
        monkeypatch.setattr(metrics, "predict_scene", lambda *a: calls.append(a))
        with pytest.raises(DataError, match="scene has 3 classes"):
            evaluate(init_state(cfg, with_head=True), scenes, cfg)
        assert calls == []


class TestLookAhead:
    """evaluate builds the next scored scene's voxels and kNN graph on a
    helper thread while it scores the current one, each scored scene once
    through metrics.prepare_scene, the preparation training uses."""

    @staticmethod
    def check_equals_scenes_alone(scenes, cfg, monkeypatch):
        state = init_state(cfg, with_head=True)
        alone = [predict_scene(state, cloud, cfg) for cloud, _ in scenes.scenes]
        cm = ConfusionMatrix.zeros(cfg.num_classes)
        for (_, labels), predicted in zip(scenes.scenes, alone):
            mask = labels.present_mask
            cm.add(labels.labels[mask], predicted[mask])
        prepared, predictions, dtypes = [], [], set()
        prepare, predict = metrics.prepare_scene, metrics.predict_scene

        def recorded_prepare(cloud, *args):
            prepared.append(id(cloud))
            _, mapping, neighbors = result = prepare(cloud, *args)
            dtypes.update((mapping.dtype, neighbors.dtype))
            return result

        def recorded_predict(state, cloud, *args):
            predictions.append((id(cloud), predict(state, cloud, *args)))
            return predictions[-1][1]

        monkeypatch.setattr(metrics, "prepare_scene", recorded_prepare)
        monkeypatch.setattr(metrics, "predict_scene", recorded_predict)
        assert evaluate(state, scenes, cfg) == RunReport(*miou(cm))
        scored = [(id(cloud), predicted) for (cloud, labels), predicted
                  in zip(scenes.scenes, alone) if labels.present_mask.any()]
        assert [i for i, _ in predictions] == prepared == [i for i, _ in scored]
        assert dtypes == {np.dtype(np.int32)}
        for (_, got), (_, expected) in zip(predictions, scored):
            np.testing.assert_array_equal(got, expected)

    def test_desk_scenes_equal_scenes_alone(self, monkeypatch):
        cfg = small_cfg()
        scenes = make_synthetic_dataset(3, 4, 2048, 4, split="val")
        self.check_equals_scenes_alone(scenes, cfg, monkeypatch)

    def test_scene_without_truth_is_never_prepared(self, monkeypatch):
        cfg = small_cfg()
        scenes = make_synthetic_dataset(4, 3, 2048, 4, split="val")
        cloud, _ = scenes.scenes[1]
        scenes.scenes[1] = (cloud, SparseLabelSet(np.full(len(cloud), ABSENT), 4))
        self.check_equals_scenes_alone(scenes, cfg, monkeypatch)

    def test_too_few_voxels_raises_and_ends_the_helper(self, tmp_path, capsys):
        """A second scene with fewer voxels than knn + 1 fails its graph on
        the helper thread; the error reaches the caller and the CLI's exit
        code, and no thread outlives evaluate."""
        cfg = small_cfg()
        scenes = SceneSet(
            [generate_synthetic_scene(6, 256, 4),
             generate_synthetic_scene(7, cfg.knn, 4),
             generate_synthetic_scene(8, 256, 4)],
            split="val", scene_ids=["v0", "v1", "v2"],
        )
        state = init_state(cfg, with_head=True)
        threads = threading.active_count()
        with pytest.raises(DataError, match="must be smaller than point count"):
            evaluate(state, scenes, cfg)
        assert threading.active_count() == threads
        write_scene_set(scenes, tmp_path / "data" / "val")
        config = tmp_path / "tiny.cfg"
        config.write_text(f"data_dir = {tmp_path / 'data'}\nfeature_dim = 8\n"
                          "hidden_widths = 16\nknn = 8\nnum_classes = 4\n")
        save_checkpoint(state, cfg, tmp_path / "head.ckpt")
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--checkpoint", str(tmp_path / "head.ckpt")]) == 2
        assert "must be smaller than point count" in capsys.readouterr().err
        assert threading.active_count() == threads
