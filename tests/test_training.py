import copy
import gc
import multiprocessing
import os
import signal
import threading
import time
import weakref
from dataclasses import replace
from multiprocessing.process import BaseProcess
from pathlib import Path

import numpy as np
import pytest

from pointvb import training
from pointvb.errors import CheckpointError, ConfigError, DataError, NumericError
from pointvb import experiment, geometry, metrics, nncore
from pointvb.config import default_config, train_config
from pointvb.experiment import (
    VoxelizedScenes,
    _accumulated_step,
    load_split,
    make_synthetic_dataset,
    run_experiment,
    run_phase,
)
from pointvb.geometry import (
    apply_transform,
    farthest_point_sampling,
    knn_indices,
    sample_transform,
    vote_labels,
    voxel_downsample,
)
from pointvb.nncore import (
    encoder_backward,
    encoder_forward,
    encoder_input,
    gradient_check,
    plan_rows,
)
from pointvb.pcio import (
    PointCloud,
    SparseLabelSet,
    generate_synthetic_scene,
    load_scene_set,
    make_directory,
    subsample_labels,
    write_scene_set,
)
from pointvb.vbloss import vb_loss_backward
from pointvb.training import (
    CHECKPOINT_MAGIC,
    HeadParams,
    TrainConfig,
    attach_head,
    finetune_grads,
    finetune_plan,
    init_state,
    load_checkpoint,
    masked_cross_entropy,
    pair_loss_and_grads,
    poly_lr,
    pretrain_grads,
    save_checkpoint,
    sgd_momentum_step,
    to_float32,
)


def graph(cloud, cfg):
    """The cloud's kNN graph at the config's k."""
    return knn_indices(cloud.positions, cfg.knn)


def forward(encoder, cloud, neighbors, rows=None):
    """The encoder's features of the cloud's rows (None: all) over its kNN
    graph neighbors, and the tape."""
    plan = plan_rows(neighbors, rows, len(encoder.weights), encoder.dtype)
    return encoder_forward(encoder, plan, encoder_input(cloud, plan, encoder.dtype))


def pretrain_step(state, cloud, cfg):
    """One optimizer step on a single cloud."""
    return _accumulated_step(state, cfg,
                             lambda: pretrain_grads(state, cloud, cfg, graph(cloud, cfg)))


def finetune_step(state, cloud, labels, cfg):
    """One optimizer step on a single labeled cloud."""
    return _accumulated_step(state, cfg, lambda: finetune_grads(
        state, finetune_plan(state.encoder, cloud, labels, graph(cloud, cfg))))


def tiny_config(**overrides) -> TrainConfig:
    base = dict(
        phase="pretrain",
        iterations=50,
        lr0=0.05,
        momentum=0.9,
        off_diagonal_weight=1.0 / 16.0,
        fps_count=32,
        feature_dim=16,
        hidden_widths=(16,),
        knn=8,
        seed=0,
        voxel_size=0.05,
        num_classes=4,
    )
    base.update(overrides)
    return TrainConfig(**base)


def tiny_scene(seed=0, points=256, classes=4, voxel=0.05):
    cloud, labels = generate_synthetic_scene(seed, points, classes)
    voxels, mapping = voxel_downsample(cloud, voxel)
    return voxels, vote_labels(labels, mapping)


class TestMaskedCrossEntropy:
    def test_uniform_logits_log_num_classes(self):
        # softmax of constant logits is uniform, so -log p = ln S exactly
        m, s = 7, 20
        labels = SparseLabelSet(np.arange(m, dtype=np.int64) % s, s)
        loss, _ = masked_cross_entropy(np.zeros((m, s)), labels)
        assert loss == pytest.approx(np.log(s), abs=1e-12)

    def test_confident_correct_logits_near_zero(self):
        m, s = 5, 4
        target = np.array([0, 1, 2, 3, 0], dtype=np.int64)
        logits = np.zeros((m, s))
        logits[np.arange(m), target] = 20.0
        loss, _ = masked_cross_entropy(logits, SparseLabelSet(target, s))
        assert 0.0 <= loss < 1e-8

    def test_unlabeled_rows_ignored(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(6, 3))
        full = np.array([0, 1, 2, 0, 1, 2], dtype=np.int64)
        sparse = full.copy()
        sparse[3:] = -1
        loss_sparse, grad_sparse = masked_cross_entropy(
            logits, SparseLabelSet(sparse, 3)
        )
        loss_head, _ = masked_cross_entropy(
            logits[:3], SparseLabelSet(full[:3], 3)
        )
        assert loss_sparse == pytest.approx(loss_head, rel=1e-15)
        np.testing.assert_array_equal(grad_sparse[3:], 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(8, 5))
        labels_arr = rng.integers(0, 5, size=8).astype(np.int64)
        labels_arr[2] = -1
        labels = SparseLabelSet(labels_arr, 5)
        _, grad = masked_cross_entropy(logits, labels)
        step = 1e-6
        numeric = np.zeros_like(logits)
        for i in range(logits.shape[0]):
            for j in range(logits.shape[1]):
                orig = logits[i, j]
                logits[i, j] = orig + step
                up, _ = masked_cross_entropy(logits, labels)
                logits[i, j] = orig - step
                down, _ = masked_cross_entropy(logits, labels)
                logits[i, j] = orig
                numeric[i, j] = (up - down) / (2 * step)
        assert np.max(np.abs(grad - numeric)) < 1e-6

    def test_fully_labeled_rows_match_rows_beside_an_unlabeled_one(self):
        """Every row labeled: the loss and gradient equal those of the
        same rows beside an unlabeled one, bit for bit."""
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(9, 4))
        targets = rng.integers(0, 4, size=8)
        padded = SparseLabelSet(np.append(targets, -1), 4)
        expected_loss, expected_grad = masked_cross_entropy(logits, padded)
        loss, grad = masked_cross_entropy(logits[:8], SparseLabelSet(targets, 4))
        assert loss == expected_loss
        np.testing.assert_array_equal(grad, expected_grad[:8])

    def test_no_labels_raises(self):
        labels = SparseLabelSet(np.full(4, -1, dtype=np.int64), 3)
        with pytest.raises(DataError):
            masked_cross_entropy(np.zeros((4, 3)), labels)

    def test_shape_mismatch_raises(self):
        labels = SparseLabelSet(np.zeros(4, dtype=np.int64), 3)
        with pytest.raises(DataError):
            masked_cross_entropy(np.zeros((4, 5)), labels)

    def test_max_shift_handles_huge_logits(self):
        labels = SparseLabelSet(np.array([0, 1], dtype=np.int64), 2)
        logits = np.array([[1e4, 0.0], [0.0, 1e4]])
        loss, grad = masked_cross_entropy(logits, labels)
        assert np.isfinite(loss) and np.isfinite(grad).all()


class TestSgdMomentum:
    def test_momentum_zero_is_plain_sgd(self):
        p = {"w": np.array([1.0, 2.0])}
        g = {"w": np.array([0.5, -1.0])}
        sgd_momentum_step(p, g, {}, lr=0.1, momentum=0.0)
        np.testing.assert_allclose(p["w"], [0.95, 2.1])

    def test_zero_gradient_keeps_parameters(self):
        p = {"w": np.array([3.0, -4.0])}
        before = p["w"].copy()
        sgd_momentum_step(p, {"w": np.zeros(2)}, {}, lr=0.5, momentum=0.9)
        np.testing.assert_array_equal(p["w"], before)

    def test_zero_learning_rate_is_null_update(self):
        p = {"w": np.array([3.0, -4.0])}
        before = p["w"].copy()
        buffers = {}
        sgd_momentum_step(p, {"w": np.ones(2)}, buffers, lr=0.0, momentum=0.9)
        np.testing.assert_array_equal(p["w"], before)
        # the velocity still accumulates, the parameters just do not move
        np.testing.assert_allclose(buffers["w"], 1.0)

    def test_constant_gradient_reaches_geometric_limit(self):
        # buf_t = g (1 - m^t)/(1 - m), so the per-step displacement tends
        # to lr * g / (1 - m)
        m, lr, g = 0.9, 0.01, 1.0
        p = {"w": np.array([0.0])}
        buffers = {}
        prev = p["w"][0]
        for _ in range(500):
            prev = p["w"][0]
            sgd_momentum_step(p, {"w": np.array([g])}, buffers, lr, m)
        last_delta = prev - p["w"][0]
        assert last_delta == pytest.approx(lr * g / (1 - m), rel=1e-2)

    def test_shape_mismatch_raises(self):
        with pytest.raises(DataError):
            sgd_momentum_step(
                {"w": np.zeros(3)}, {"w": np.zeros(4)}, {}, 0.1, 0.0
            )


class TestPolyLr:
    def test_initial_rate_is_lr0(self):
        cfg = tiny_config(iterations=100, lr0=0.1)
        assert poly_lr(0, cfg) == pytest.approx(0.1)

    def test_final_rate_is_zero(self):
        cfg = tiny_config(iterations=100, lr0=0.1)
        assert poly_lr(100, cfg) == 0.0

    def test_halfway_closed_form(self):
        cfg = tiny_config(iterations=100, lr0=0.1, poly_power=0.9)
        assert poly_lr(50, cfg) == pytest.approx(0.1 * 0.5**0.9, rel=1e-12)

    def test_monotone_decreasing(self):
        cfg = tiny_config(iterations=64)
        rates = [poly_lr(k, cfg) for k in range(65)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_out_of_range_raises(self):
        cfg = tiny_config(iterations=10)
        with pytest.raises(DataError):
            poly_lr(11, cfg)
        with pytest.raises(DataError):
            poly_lr(-1, cfg)


class TestPretrain:
    def test_deterministic_loss_sequence(self):
        cloud, _ = tiny_scene()
        losses = []
        for _ in range(2):
            cfg = tiny_config(iterations=5)
            state = init_state(cfg)
            losses.append([pretrain_step(state, cloud, cfg) for _ in range(5)])
        assert losses[0] == losses[1]

    def test_loss_halves_in_200_steps(self):
        cloud, _ = tiny_scene(points=2048)
        cfg = tiny_config(iterations=200)
        state = init_state(cfg)
        first = pretrain_step(state, cloud, cfg)
        last = first
        for _ in range(199):
            last = pretrain_step(state, cloud, cfg)
        assert last < 0.5 * first

    def test_head_gradients_zero_during_pretraining(self):
        cloud, _ = tiny_scene()
        cfg = tiny_config()
        state = init_state(cfg, with_head=True)
        _, grads = pretrain_grads(state, cloud, cfg, graph(cloud, cfg))
        np.testing.assert_array_equal(grads["head.w"], 0.0)
        np.testing.assert_array_equal(grads["head.b"], 0.0)

    def test_gradient_matches_finite_differences(self):
        cloud, _ = tiny_scene(points=96)
        cfg = tiny_config(feature_dim=6, hidden_widths=(8,), fps_count=16,
                          knn=4)
        state = init_state(cfg)
        frozen = copy.deepcopy(state)
        _, grads = pretrain_grads(state, cloud, cfg, graph(cloud, cfg))

        def loss_fn(params):
            probe = copy.deepcopy(frozen)
            for i in range(len(probe.encoder.weights)):
                probe.encoder.weights[i] = params[f"enc.w{i}"]
                probe.encoder.biases[i] = params[f"enc.b{i}"]
            loss, _ = pretrain_grads(probe, cloud, cfg, graph(cloud, cfg))
            return loss

        errors = gradient_check(
            loss_fn, frozen.param_dict(), grads,
            samples_per_tensor=40, rng=np.random.default_rng(3),
        )
        assert max(errors.values()) < 1e-5, errors


class TestFinetune:
    def test_fully_labeled_scene_reaches_high_accuracy(self):
        cloud, labels = tiny_scene(points=512)
        cfg = tiny_config(phase="finetune", iterations=150, lr0=0.1,
                          momentum=0.9)
        state = init_state(cfg, with_head=True)
        for _ in range(cfg.iterations):
            finetune_step(state, cloud, labels, cfg)
        feats, _ = forward(state.encoder, cloud, graph(cloud, cfg))
        predicted = np.argmax(feats @ state.head.weight + state.head.bias,
                              axis=1)
        accuracy = np.mean(predicted == labels.labels)
        assert accuracy > 0.95

    def test_unlabeled_scene_is_skipped(self):
        """A scene without a labeled voxel is not skipped but refused: the
        step raises DataError and changes nothing."""
        cloud, labels = tiny_scene()
        empty = SparseLabelSet(
            np.full(len(cloud), -1, dtype=np.int64), labels.num_classes
        )
        cfg = tiny_config(phase="finetune")
        state = init_state(cfg, with_head=True)
        before = {k: v.copy() for k, v in state.param_dict().items()}
        with pytest.raises(DataError, match="no labeled voxel"):
            finetune_step(state, cloud, empty, cfg)
        assert state.step == 0
        for name, value in state.param_dict().items():
            np.testing.assert_array_equal(value, before[name])

    def test_requires_head(self):
        cloud, labels = tiny_scene()
        cfg = tiny_config(phase="finetune")
        state = init_state(cfg)
        with pytest.raises(DataError):
            finetune_grads(state, finetune_plan(state.encoder, cloud, labels,
                                                graph(cloud, cfg)))

    def test_deterministic_loss_sequence(self):
        cloud, labels = tiny_scene()
        runs = []
        for _ in range(2):
            cfg = tiny_config(phase="finetune", iterations=5)
            state = init_state(cfg, with_head=True)
            runs.append(
                [finetune_step(state, cloud, labels, cfg) for _ in range(5)]
            )
        assert runs[0] == runs[1]

    def test_gradient_matches_finite_differences(self):
        cloud, labels = tiny_scene(points=96)
        cfg = tiny_config(phase="finetune", feature_dim=6, hidden_widths=(8,),
                          knn=4)
        state = init_state(cfg, with_head=True)
        planned = finetune_plan(state.encoder, cloud, labels, graph(cloud, cfg))
        _, grads = finetune_grads(state, planned)

        def loss_fn(params):
            probe = copy.deepcopy(state)
            for i in range(len(probe.encoder.weights)):
                probe.encoder.weights[i] = params[f"enc.w{i}"]
                probe.encoder.biases[i] = params[f"enc.b{i}"]
            probe.head = HeadParams(params["head.w"], params["head.b"])
            loss, _ = finetune_grads(probe, planned)
            return loss

        errors = gradient_check(
            loss_fn, state.param_dict(), grads,
            samples_per_tensor=40, rng=np.random.default_rng(4),
        )
        assert max(errors.values()) < 1e-5, errors


def full_graph_pair_loss_and_grads(encoder, view_p, view_q, sample, vb_cfg,
                                   neighbors):
    """pair_loss_and_grads through all-rows forwards and upstreams that are
    zero off the sample."""
    feats_p, tape_p = forward(encoder, view_p, neighbors)
    feats_q, tape_q = forward(encoder, view_q, neighbors)
    loss, grad_p, grad_q = vb_loss_backward(feats_p[sample], feats_q[sample],
                                            vb_cfg)
    grads = None
    for tape, grad in ((tape_p, grad_p), (tape_q, grad_q)):
        upstream = np.zeros_like(feats_p)
        upstream[sample] = grad
        view_grads = encoder_backward(tape, upstream)
        if grads is None:
            grads = view_grads
        else:
            for name, g in view_grads.items():
                grads[name] += g
    return loss, grads


def full_graph_finetune_grads(state, cloud, labels, neighbors):
    """finetune_grads through an all-rows forward; the head's logits and
    gradients span every row."""
    features, tape = forward(state.encoder, cloud, neighbors)
    logits = features @ state.head.weight + state.head.bias
    loss, dlogits = masked_cross_entropy(logits, labels)
    grads = encoder_backward(tape, dlogits @ state.head.weight.T)
    grads["head.w"] = features.T @ dlogits
    grads["head.b"] = dlogits.sum(axis=0)
    return loss, grads


class TestFullGraphReference:
    """Both phases compute only the rows their loss reads, at the acceptance
    shapes (widths (64, 64), D = 32, k = 16, H = 256), yet give the loss of
    the all-rows pass bit for bit and its gradients up to rounding: each
    layer sums over the rows it computed, in another order."""

    @staticmethod
    def scene(seed):
        cloud, labels = generate_synthetic_scene(seed, 2048, 4)
        voxels, mapping = voxel_downsample(cloud, 0.05)
        return voxels, vote_labels(labels, mapping), knn_indices(voxels.positions, 16)

    @staticmethod
    def assert_same(a, b):
        assert a[0] == b[0]
        assert sorted(a[1]) == sorted(b[1])
        for name in a[1]:
            scale = np.abs(b[1][name]).max()
            np.testing.assert_allclose(a[1][name], b[1][name], rtol=0,
                                       atol=1e-12 * scale, err_msg=name)

    @pytest.mark.parametrize("seed", range(2))
    def test_pretrain_grads(self, seed, monkeypatch):
        cloud, _, nbrs = self.scene(seed)
        cfg = TrainConfig(seed=seed)
        restricted = pretrain_grads(init_state(cfg), cloud, cfg, nbrs)
        monkeypatch.setattr(training, "pair_loss_and_grads",
                            full_graph_pair_loss_and_grads)
        full = pretrain_grads(init_state(cfg), cloud, cfg, nbrs)
        self.assert_same(restricted, full)

    @pytest.mark.parametrize("labeled", [2, 20, None])
    def test_finetune_grads(self, labeled):
        cloud, labels, nbrs = self.scene(3)
        if labeled is not None:
            labels = subsample_labels(labels, labeled, 5)
        cfg = TrainConfig(phase="finetune")
        state = init_state(cfg, with_head=True)
        self.assert_same(
            finetune_grads(state, finetune_plan(state.encoder, cloud, labels, nbrs)),
            full_graph_finetune_grads(state, cloud, labels, nbrs))


class TestFloat32AgainstFloat64:
    """float64, in which init_state draws, is the reference the float32 every
    phase trains in is checked against: on the same inputs a pretrain pair
    and a fine-tune compute agree in loss, features and every gradient
    within a relative tolerance fixed from float32's epsilon."""

    TOLERANCE = 1000 * np.finfo(np.float32).eps  # about 1.2e-4

    def assert_close(self, got, reference, name, scale=None):
        """|got - reference| relative to |reference|, or to scale."""
        got, reference = np.asarray(got), np.asarray(reference)
        assert reference.dtype == np.float64, name
        error = np.linalg.norm(got - reference) / (scale or np.linalg.norm(reference))
        assert error < self.TOLERANCE, (name, error)

    def test_pair_and_finetune_compute(self):
        cfg = tiny_config()
        data = VoxelizedScenes(make_synthetic_dataset(5, 1, 1024, 4), cfg)
        cloud, mapping, neighbors = data.clouds[0], data.mappings[0], data.neighbors[0]
        labels = vote_labels(data.point_labels[0], mapping)
        rng = np.random.default_rng(0)
        view_p, view_q = (apply_transform(cloud, sample_transform(rng, len(cloud)))
                          for _ in range(2))
        sample = training.pretrain_sample(cloud, cfg, 0)
        wide = init_state(cfg, with_head=True)
        narrow = copy.deepcopy(wide)
        to_float32(narrow)
        results = []
        for state in (narrow, wide):
            features, _ = forward(state.encoder, view_p, neighbors)
            results.append((features, pair_loss_and_grads(
                state.encoder, view_p, view_q, sample, cfg, neighbors),
                finetune_grads(state, finetune_plan(state.encoder, cloud, labels,
                                                    neighbors))))
        (features, *computes), (reference, *references) = results
        assert features.dtype == np.float32
        self.assert_close(features, reference, "features")
        for kind, (loss, grads), (ref_loss, ref_grads) in zip(
                ("pretrain", "finetune"), computes, references):
            self.assert_close(loss, ref_loss, f"{kind} loss")
            assert sorted(grads) == sorted(ref_grads)
            whole = np.sqrt(sum(np.sum(g ** 2) for g in ref_grads.values()))
            for name, g in grads.items():
                assert g.dtype == np.float32, (kind, name)
                # a reference at float64 rounding is an exact zero (the last
                # bias under the shift-invariant VB loss): scale it by the whole
                at_rounding = np.linalg.norm(ref_grads[name]) < \
                    1000 * np.finfo(np.float64).eps * whole
                self.assert_close(g, ref_grads[name], f"{kind} {name}",
                                  whole if at_rounding else None)


class TestPrecisionBoundary:
    """A checkpoint's <f8 data hold a trained state's float32 values exactly,
    and a phase casts a loaded state back to those bits."""

    @pytest.mark.parametrize("phase", ["pretrain", "finetune"])
    def test_phase_resumed_from_a_checkpoint(self, phase, tmp_path):
        cfg = tiny_config(iterations=8)
        data = VoxelizedScenes(make_synthetic_dataset(3, 3, 256, 4), cfg)
        run = getattr(experiment, phase)
        state = init_state(cfg, with_head=phase == "finetune")
        run(state, data, replace(cfg, iterations=3))
        assert state.momentum_buffers
        for tensor in training._state_tensors(state).values():
            assert tensor.dtype == np.float32
        save_checkpoint(state, cfg, tmp_path / "mid.ckpt")
        loaded, _ = load_checkpoint(tmp_path / "mid.ckpt")
        assert loaded.encoder.dtype == np.float64
        traces = run(state, data, cfg), run(loaded, data, cfg)
        TestFpsWorker.assert_same(tmp_path, cfg, loaded, state, traces)


class TestVoxelizedScenes:
    def test_equals_a_serial_build(self, monkeypatch):
        """The pool builds each scene as a serial loop does, in scene order,
        through nncore's knn_indices, and leaves no thread behind."""
        scenes = make_synthetic_dataset(5, 7, 512, 4)
        cfg = tiny_config()
        threads = threading.active_count()
        builders = []
        knn = nncore.knn_indices
        monkeypatch.setattr(nncore, "knn_indices", lambda *a: builders.append(
            threading.get_ident()) or knn(*a))
        data = VoxelizedScenes(scenes, cfg)
        assert threading.active_count() == threads
        assert len(builders) == len(data.clouds) == 7
        assert threading.get_ident() not in builders
        for i, (cloud, labels) in enumerate(scenes.scenes):
            voxels, mapping = voxel_downsample(cloud, cfg.voxel_size)
            np.testing.assert_array_equal(data.clouds[i].positions, voxels.positions)
            np.testing.assert_array_equal(data.clouds[i].colors, voxels.colors)
            assert data.mappings[i].dtype == data.neighbors[i].dtype == np.int32
            np.testing.assert_array_equal(data.mappings[i], mapping)
            assert data.point_labels[i] is labels
            np.testing.assert_array_equal(data.neighbors[i],
                                          knn_indices(voxels.positions, cfg.knn))

    def test_prepares_each_scene_once_through_prepare_scene(self, monkeypatch):
        """Training's scenes are prepared by the function evaluation uses:
        one metrics.prepare_scene call a scene."""
        scenes = make_synthetic_dataset(6, 5, 256, 4)
        cfg = tiny_config()
        prepared, prepare = [], metrics.prepare_scene
        monkeypatch.setattr(metrics, "prepare_scene", lambda cloud, *a: prepared.append(
            id(cloud)) or prepare(cloud, *a))
        VoxelizedScenes(scenes, cfg)
        assert sorted(prepared) == sorted(id(cloud) for cloud, _ in scenes.scenes)

    @pytest.mark.parametrize("cpus, bound", [(2, 2), (None, 1)])
    def test_pool_without_affinity_has_one_thread_per_cpu(self, cpus, bound,
                                                          monkeypatch):
        """Where os.sched_getaffinity is missing, the pool holds os.cpu_count()
        threads, or one where that is None, not ThreadPoolExecutor's default."""
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        threads, prepare = set(), metrics.prepare_scene

        def recorded(*args):
            threads.add(threading.get_ident())
            time.sleep(0.005)  # so that every pool thread takes a scene
            return prepare(*args)

        monkeypatch.setattr(metrics, "prepare_scene", recorded)
        VoxelizedScenes(make_synthetic_dataset(2, 8, 256, 4), tiny_config())
        assert 1 <= len(threads) <= bound

    def test_run_experiment_bytes_do_not_depend_on_preparation_timing(
            self, tmp_path, monkeypatch):
        """Seeded random 0-5 ms sleeps in every metrics.prepare_scene call
        reorder the set-up pool's completions and move evaluation's helper
        thread against its scoring loop; every output byte stays the same."""
        values = {**default_config(), "num_scenes": 4, "val_scenes": 3,
                  "points_per_scene": 256, "feature_dim": 8, "hidden_widths": (16,),
                  "knn": 8, "fps_count": 32, "pretrain_steps": 3,
                  "finetune_steps": 3, "labels_per_scene": 20}
        run_experiment(values, tmp_path / "steady")
        prepare, lock, delays = metrics.prepare_scene, threading.Lock(), []
        rng = np.random.default_rng(3)

        def perturbed(*args):
            with lock:  # one generator, drawn from the pool's threads
                delays.append(rng.uniform(0.0, 0.005))
                delay = delays[-1]
            time.sleep(delay)
            return prepare(*args)

        monkeypatch.setattr(metrics, "prepare_scene", perturbed)
        run_experiment(values, tmp_path / "perturbed")
        assert len(delays) == 4 + 3  # every training and validation scene
        for name in ("trace.csv", "report.csv", "final.ckpt"):
            assert (tmp_path / "steady" / name).read_bytes() == \
                (tmp_path / "perturbed" / name).read_bytes(), name

    def test_run_experiment_frees_the_raw_training_clouds(self, tmp_path,
                                                          monkeypatch):
        """Once pretraining starts, no raw training cloud is alive: the
        prepared scenes hold all that the phases read."""
        values = {**default_config(), "num_scenes": 3, "val_scenes": 1,
                  "points_per_scene": 256, "feature_dim": 8, "hidden_widths": (16,),
                  "knn": 8, "fps_count": 32, "pretrain_steps": 2,
                  "finetune_steps": 2, "labels_per_scene": 20}
        clouds, alive = [], []
        load, pretrain = experiment.load_split, experiment.pretrain

        def loading(values, split):
            scenes = load(values, split)
            if split == "train":
                clouds.extend(weakref.ref(cloud) for cloud, _ in scenes.scenes)
            return scenes

        def pretraining(*args):
            gc.collect()
            alive.append(sum(ref() is not None for ref in clouds))
            return pretrain(*args)

        monkeypatch.setattr(experiment, "load_split", loading)
        monkeypatch.setattr(experiment, "pretrain", pretraining)
        run_experiment(values, tmp_path)
        assert len(clouds) == 3 and alive == [0]


class TestOneGraphPerScene:
    """metrics.prepare_scene builds every kNN graph, one a scene, with the
    config's knn; nothing else in a run builds one."""

    @staticmethod
    def counting_builds(monkeypatch):
        """(positions digest, k) of every knn_indices call, under each name
        the package could call it by."""
        builds, build = [], knn_indices
        for module in (geometry, nncore, training, experiment):
            monkeypatch.setattr(module, "knn_indices", lambda positions, k: builds.append(
                (positions.tobytes(), k)) or build(positions, k))
        return builds

    def test_run_builds_each_scene_graph_once(self, tmp_path, monkeypatch):
        values = {**default_config(), "num_scenes": 3, "val_scenes": 2,
                  "points_per_scene": 256, "feature_dim": 8, "hidden_widths": (16,),
                  "knn": 5, "fps_count": 32, "pretrain_steps": 3,
                  "finetune_steps": 3, "labels_per_scene": 20, "batch_size": 2}
        builds = self.counting_builds(monkeypatch)
        run_experiment(values, tmp_path)
        assert len(builds) == len({positions for positions, _ in builds}) == 3 + 2
        assert {k for _, k in builds} == {5}

    def test_evaluate_prepares_with_the_config_knn(self, monkeypatch):
        """The state's origin does not choose k: a model of a k = 4 config,
        scored under a k = 6 config, is scored over k = 6 graphs."""
        cfg = tiny_config(phase="finetune", knn=4)
        state = init_state(cfg, with_head=True)
        scenes = make_synthetic_dataset(2, 2, 256, 4, split="val")
        builds = self.counting_builds(monkeypatch)
        metrics.evaluate(state, scenes, replace(cfg, knn=6))
        assert [k for _, k in builds] == [6, 6]


class TestLabelVotes:
    """Fine-tuning votes each scene's point labels once, before its first
    step; preparing the scenes and pretraining vote none."""

    VALUES = {**default_config(), "num_scenes": 3, "points_per_scene": 256,
              "feature_dim": 8, "hidden_widths": (16,), "knn": 8, "fps_count": 32,
              "pretrain_steps": 3, "finetune_steps": 4, "labels_per_scene": 20}

    @staticmethod
    def counting(monkeypatch):
        """The label sets experiment.vote_labels votes, and the number voted
        by the time each fine-tune compute starts."""
        voted, at_compute = [], []
        vote, grads = experiment.vote_labels, experiment.finetune_grads
        monkeypatch.setattr(experiment, "vote_labels",
                            lambda labels, *a: voted.append(labels) or vote(labels, *a))
        monkeypatch.setattr(experiment, "finetune_grads",
                            lambda *a: at_compute.append(len(voted)) or grads(*a))
        return voted, at_compute

    def test_run_phase(self, tmp_path, monkeypatch):
        """Both phases train on one prepared value; fine-tuning votes the
        labels it carries, pretraining none."""
        values = self.VALUES
        voted, at_compute = self.counting(monkeypatch)
        scenes = experiment.sparsify_scenes(load_split(values, "train"),
                                            values["labels_per_scene"], values["seed"])
        data = VoxelizedScenes(scenes, train_config(values, "finetune"))
        assert not hasattr(data, "labels") and voted == []
        state, _ = run_phase(train_config(values, "pretrain"), data, None, tmp_path)
        assert voted == []
        run_phase(train_config(values, "finetune"), data, state, tmp_path)
        assert at_compute == [3] * 4
        assert [id(labels) for labels in voted] == \
            [id(labels) for _, labels in scenes.scenes]

    def test_sparsified_scenes(self, monkeypatch):
        """The benchmark's in-process path: scenes sparsified before they
        are prepared."""
        values = self.VALUES
        cfg = train_config(values, "finetune")
        voted, at_compute = self.counting(monkeypatch)
        scenes = experiment.sparsify_scenes(load_split(values, "train"), 20, 1)
        data = VoxelizedScenes(scenes, cfg)
        assert voted == []
        experiment.finetune(init_state(cfg, with_head=True), data, cfg)
        assert at_compute == [3] * 4
        assert [id(labels) for labels in voted] == \
            [id(labels) for _, labels in scenes.scenes]


class TestInProcessSequence:
    """The call sequence the benchmark's in-process workload times
    (perfbench/workloads.py, _inprocess), copied here, computes what
    `pointvb run` computes from the same files."""

    def test_equals_run_experiment(self, tmp_path):
        values = {**default_config(), "num_scenes": 3, "val_scenes": 2,
                  "points_per_scene": 256, "feature_dim": 8, "hidden_widths": (16,),
                  "knn": 8, "fps_count": 32, "pretrain_steps": 3, "finetune_steps": 3,
                  "labels_per_scene": 20, "momentum": 0.5, "batch_size": 2,
                  "seed": 2, "data_dir": str(tmp_path / "data")}
        for split, count in (("train", 3), ("val", 2)):
            write_scene_set(make_synthetic_dataset(2, count, 256, values["num_classes"],
                                                   split), tmp_path / "data" / split)
        report = run_experiment(values, tmp_path / "run")

        pre_cfg = train_config(values, "pretrain")
        fine_cfg = train_config(values, "finetune")
        out = make_directory(tmp_path / "inprocess")
        train = load_scene_set(tmp_path / "data" / "train", values["num_classes"], "train")
        val = load_scene_set(tmp_path / "data" / "val", values["num_classes"], "val")
        state = init_state(pre_cfg)
        trace = experiment.pretrain(state, VoxelizedScenes(train, pre_cfg), pre_cfg)
        experiment.write_trace_csv(trace, out / "pretrain_trace.csv")
        save_checkpoint(state, pre_cfg, out / "pretrain.ckpt")
        sparse = experiment.sparsify_scenes(train, values["labels_per_scene"], values["seed"])
        fine_data = VoxelizedScenes(sparse, fine_cfg)
        attach_head(state, fine_cfg)
        trace = experiment.finetune(state, fine_data, fine_cfg)
        experiment.write_trace_csv(trace, out / "finetune_trace.csv")
        save_checkpoint(state, fine_cfg, out / "final.ckpt")

        for name in ("pretrain_trace.csv", "pretrain.ckpt", "finetune_trace.csv",
                     "final.ckpt"):
            assert (out / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name
        assert metrics.evaluate(state, val, fine_cfg).mean_iou == report.mean_iou


class TestPairThreads:
    @pytest.mark.parametrize("failing", ["p", "q"])
    def test_numeric_error_in_one_view(self, failing):
        """A view whose encoder input is not finite fails the pair with its
        NumericError, whichever view it is."""
        cloud, _ = tiny_scene()
        cfg = tiny_config()
        encoder = init_state(cfg).encoder
        nan = PointCloud(cloud.positions, cloud.colors.copy())
        nan.colors[:] = np.nan  # a cloud rejects NaN colors only when built
        views = {"p": cloud, "q": cloud}
        views[failing] = nan
        sample = farthest_point_sampling(cloud, cfg.fps_count, 0)
        with pytest.raises(NumericError, match="non-finite encoder input"):
            pair_loss_and_grads(encoder, views["p"], views["q"], sample, cfg,
                                graph(cloud, cfg))


class TestPlannedSteps:
    """Steps that reuse a plan compute what steps that plan afresh compute,
    bit for bit."""

    @staticmethod
    def counting(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        return calls

    def test_finetune_keeps_one_plan_per_scene(self, tmp_path, monkeypatch):
        values = {**default_config(), "num_scenes": 4, "points_per_scene": 512,
                  "feature_dim": 8, "hidden_widths": (16, 16), "knn": 8,
                  "finetune_steps": 24, "momentum": 0.5, "labels_per_scene": 6}
        cfg = train_config(values, "finetune")
        data = VoxelizedScenes(experiment.sparsify_scenes(
            load_split(values, "train"), values["labels_per_scene"], values["seed"]), cfg)
        plans = self.counting(monkeypatch, experiment, "finetune_plan")
        kept, kept_trace = run_phase(cfg, data, None, make_directory(tmp_path / "kept"))
        assert 3 <= len(plans) <= 4  # one plan per scene drawn

        def replan_every_step(state, data, cfg):
            def compute():
                i = int(state.rng.integers(len(data.clouds)))
                labels = vote_labels(data.point_labels[i], data.mappings[i])
                return finetune_grads(state, finetune_plan(
                    state.encoder, data.clouds[i], labels, data.neighbors[i]))
            return experiment._train(state, cfg, compute)

        monkeypatch.setattr(experiment, "finetune", replan_every_step)
        replans = self.counting(monkeypatch, training, "plan_rows")
        fresh, fresh_trace = run_phase(cfg, data, None, make_directory(tmp_path / "fresh"))
        assert len(replans) == 24
        assert kept_trace == fresh_trace
        for name, value in fresh.param_dict().items():
            np.testing.assert_array_equal(kept.param_dict()[name], value,
                                          err_msg=name)
        assert (tmp_path / "kept" / "final.ckpt").read_bytes() == \
            (tmp_path / "fresh" / "final.ckpt").read_bytes()

    @pytest.mark.parametrize("seed", range(2))
    def test_pair_shares_one_plan(self, seed, monkeypatch):
        cloud, _, nbrs = TestFullGraphReference.scene(seed)
        cfg = TrainConfig(seed=seed)
        encoder = init_state(cfg).encoder
        rng = np.random.default_rng(seed)
        views = [apply_transform(cloud, sample_transform(rng, len(cloud)))
                 for _ in range(2)]
        sample = farthest_point_sampling(cloud, 256, seed)
        plans = self.counting(monkeypatch, training, "plan_rows")
        loss, grads = pair_loss_and_grads(encoder, *views, sample,
                                          cfg, nbrs)
        assert len(plans) == 1
        (fp, tape_p), (fq, tape_q) = [forward(encoder, view, nbrs, sample)
                                      for view in views]
        expected, grad_p, grad_q = vb_loss_backward(fp, fq, cfg)
        assert loss == expected
        reference = encoder_backward(tape_p, grad_p)
        for name, g in encoder_backward(tape_q, grad_q).items():
            reference[name] += g
        assert sorted(grads) == sorted(reference)
        for name, g in reference.items():
            np.testing.assert_array_equal(grads[name], g, err_msg=name)


def inline_pretrain(state, data, cfg):
    """The pretrain phase as a loop of steps whose every FPS runs in this
    process, at the phase's float32: the reference the prefetched phase must
    equal."""
    to_float32(state)

    def compute():
        i = int(state.rng.integers(len(data.clouds)))
        return pretrain_grads(state, data.clouds[i], cfg, data.neighbors[i])
    trace = []
    while state.step < cfg.iterations:
        step, lr = state.step, poly_lr(state.step, cfg)
        trace.append((step, lr, _accumulated_step(state, cfg, compute)))
    return trace


class TestFpsWorker:
    """experiment.pretrain, whose FPS samples a forked worker computes
    ahead, writes what the inline loop writes, byte for byte, and leaves no
    process behind."""

    CASES = {
        "batch1": dict(iterations=12),
        "batch2": dict(iterations=8, batch_size=2),
        "resumed": dict(iterations=12, batch_size=2),
        "h_at_least_m": dict(iterations=6, fps_count=100_000),
    }

    @staticmethod
    def data_and_states(case):
        cfg = tiny_config(**TestFpsWorker.CASES[case])
        data = VoxelizedScenes(make_synthetic_dataset(3, 3, 256, 4), cfg)
        state = init_state(cfg)
        if case == "resumed":  # the phase starts at step 4, with momentum
            inline_pretrain(state, data, replace(cfg, iterations=4))
        return cfg, data, state, copy.deepcopy(state)

    @staticmethod
    def in_process_fps(monkeypatch):
        """Counts the FPS calls this process makes (a forked worker counts
        in its own copy)."""
        return TestPlannedSteps.counting(monkeypatch, training,
                                         "farthest_point_sampling")

    @staticmethod
    def process_starts(monkeypatch):
        return TestPlannedSteps.counting(monkeypatch, BaseProcess, "start")

    @staticmethod
    def assert_same(tmp_path, cfg, prefetched, inline, traces):
        assert traces[0] == traces[1]
        for name, value in inline.param_dict().items():
            np.testing.assert_array_equal(prefetched.param_dict()[name], value,
                                          err_msg=name)
        assert sorted(prefetched.momentum_buffers) == sorted(inline.momentum_buffers)
        for name, value in inline.momentum_buffers.items():
            np.testing.assert_array_equal(prefetched.momentum_buffers[name], value,
                                          err_msg=name)
        assert prefetched.rng.bit_generator.state == inline.rng.bit_generator.state
        for name, state in (("prefetched", prefetched), ("inline", inline)):
            save_checkpoint(state, cfg, tmp_path / f"{name}.ckpt")
        assert (tmp_path / "prefetched.ckpt").read_bytes() == \
            (tmp_path / "inline.ckpt").read_bytes()

    @pytest.mark.parametrize("case", list(CASES))
    def test_equals_the_inline_loop(self, case, tmp_path, monkeypatch):
        cfg, data, prefetched, inline = self.data_and_states(case)
        reference = inline_pretrain(inline, data, cfg)
        fps = self.in_process_fps(monkeypatch)
        started = self.process_starts(monkeypatch)
        trace = experiment.pretrain(prefetched, data, cfg)
        assert len(started) == 1
        assert len(fps) == 1  # the worker served every later compute
        self.assert_same(tmp_path, cfg, prefetched, inline, (trace, reference))
        assert multiprocessing.active_children() == []

    def test_two_phases_in_one_process(self, tmp_path, monkeypatch):
        """Two pretrain phases in a row each equal the inline loop; every
        view's forward runs on the calling thread, no thread is started
        beside it, and each phase leaves no thread or process behind."""
        cfg, data, prefetched, inline = self.data_and_states("batch1")
        threads = threading.active_count()
        at_fork, viewers = [], set()
        start, forward = BaseProcess.start, training.encoder_forward
        monkeypatch.setattr(BaseProcess, "start", lambda process: at_fork.append(
            threading.active_count()) or start(process))
        monkeypatch.setattr(training, "encoder_forward", lambda *a, **k: viewers.add(
            (threading.get_ident(), threading.active_count())) or forward(*a, **k))
        for iterations in (5, 12):
            phase_cfg = replace(cfg, iterations=iterations)
            reference = inline_pretrain(inline, data, phase_cfg)
            trace = experiment.pretrain(prefetched, data, phase_cfg)
            self.assert_same(tmp_path, phase_cfg, prefetched, inline,
                             (trace, reference))
            assert threading.active_count() == threads
            assert multiprocessing.active_children() == []
        assert at_fork == [threads, threads]
        assert viewers == {(threading.get_ident(), threads)}

    def test_killed_worker(self, tmp_path, monkeypatch):
        """A worker that dies after two samples: the phase reads those, then
        runs FPS in process for the rest."""
        cfg, data, prefetched, inline = self.data_and_states("batch2")
        reference = inline_pretrain(inline, data, cfg)
        phase = os.getpid()
        sent = []

        def die_on_third(*args):
            if os.getpid() != phase and len(sent) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            sent.append(1)
            return training.pretrain_sample(*args)

        monkeypatch.setattr(experiment, "pretrain_sample", die_on_third)
        fps = self.in_process_fps(monkeypatch)
        trace = experiment.pretrain(prefetched, data, cfg)
        computes = cfg.iterations * cfg.batch_size
        assert len(fps) == computes - 2
        self.assert_same(tmp_path, cfg, prefetched, inline, (trace, reference))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("variant", ["delayed", "killed"])
    def test_perturbed_worker(self, variant, seed, tmp_path, monkeypatch):
        """A worker that sleeps a seeded 0-5 ms before each send, or kills
        itself at a seeded sample count: the phase still writes what the
        inline loop writes, and leaves no process behind."""
        cfg, data, prefetched, inline = self.data_and_states("batch2")
        reference = inline_pretrain(inline, data, cfg)
        computes = cfg.iterations * cfg.batch_size
        rng = np.random.default_rng(seed)
        kill_at = int(rng.integers(computes - 1)) if variant == "killed" else None
        phase, sent = os.getpid(), []

        def perturbed(*args):
            if os.getpid() != phase and len(sent) == kill_at:
                os.kill(os.getpid(), signal.SIGKILL)
            sent.append(1)
            sample = training.pretrain_sample(*args)
            if variant == "delayed":
                time.sleep(rng.uniform(0.0, 0.005))
            return sample

        monkeypatch.setattr(experiment, "pretrain_sample", perturbed)
        fps = self.in_process_fps(monkeypatch)
        trace = experiment.pretrain(prefetched, data, cfg)
        assert len(fps) == (1 if kill_at is None else computes - kill_at)
        self.assert_same(tmp_path, cfg, prefetched, inline, (trace, reference))
        assert multiprocessing.active_children() == []

    def test_worker_that_draws_otherwise(self, tmp_path, monkeypatch):
        """A sample whose start is not the compute's own is not used."""
        cfg, data, prefetched, inline = self.data_and_states("batch1")
        reference = inline_pretrain(inline, data, cfg)
        phase = os.getpid()

        def draws(rng, clouds):
            i, (t_p, t_q, start) = training.pretrain_draws(rng, clouds)
            return i, (t_p, t_q, start + (os.getpid() != phase))

        monkeypatch.setattr(experiment, "pretrain_draws", draws)
        fps = self.in_process_fps(monkeypatch)
        trace = experiment.pretrain(prefetched, data, cfg)
        assert len(fps) == cfg.iterations
        self.assert_same(tmp_path, cfg, prefetched, inline, (trace, reference))
        assert multiprocessing.active_children() == []

    def test_platform_without_fork(self, tmp_path, monkeypatch):
        cfg, data, prefetched, inline = self.data_and_states("batch1")
        reference = inline_pretrain(inline, data, cfg)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        started = self.process_starts(monkeypatch)
        fps = self.in_process_fps(monkeypatch)
        trace = experiment.pretrain(prefetched, data, cfg)
        assert len(fps) == cfg.iterations and started == []
        self.assert_same(tmp_path, cfg, prefetched, inline, (trace, reference))

    def test_one_compute_starts_no_worker(self, monkeypatch):
        cfg, data, state, _ = self.data_and_states("batch1")
        cfg.iterations = 1
        started = self.process_starts(monkeypatch)
        assert len(experiment.pretrain(state, data, cfg)) == 1
        assert started == []

    def test_phase_that_raises_leaves_no_process(self, monkeypatch):
        """The worker of a phase that raises at step 3 is stopped, though it
        still has samples to send (more than the pipe holds)."""
        cfg, data, state, _ = self.data_and_states("batch1")
        cfg.iterations = 2000
        workers = []
        original = experiment.pretrain_grads

        def fail_at_step_3(*args):
            workers.extend(p.pid for p in multiprocessing.active_children())
            if state.step == 3:
                raise NumericError("non-finite pretrain loss")
            return original(*args)

        monkeypatch.setattr(experiment, "pretrain_grads", fail_at_step_3)
        with pytest.raises(NumericError):
            experiment.pretrain(state, data, cfg)
        assert workers and multiprocessing.active_children() == []
        for pid in set(workers):
            with pytest.raises(ProcessLookupError):  # exited and reaped
                os.kill(pid, 0)


class TestAttachHead:
    def test_resets_step_and_buffers(self):
        cloud, _ = tiny_scene()
        cfg = tiny_config(iterations=5)
        state = init_state(cfg)
        for _ in range(3):
            pretrain_step(state, cloud, cfg)
        attach_head(state, cfg)
        assert state.step == 0
        assert state.momentum_buffers == {}
        assert state.head.weight.shape == (cfg.feature_dim, cfg.num_classes)


class TestCheckpoint:
    def test_round_trip_is_byte_identical(self, tmp_path):
        cloud, _ = tiny_scene()
        cfg = tiny_config(iterations=5)
        state = init_state(cfg, with_head=True)
        for _ in range(3):
            pretrain_step(state, cloud, cfg)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(state, cfg, first)
        loaded, loaded_cfg = load_checkpoint(first)
        save_checkpoint(loaded, loaded_cfg, second)
        assert first.read_bytes() == second.read_bytes()

    def test_restores_config_and_state(self, tmp_path):
        cfg = tiny_config(iterations=7, lr0=0.03, seed=11)
        state = init_state(cfg, with_head=True)
        path = tmp_path / "state.ckpt"
        save_checkpoint(state, cfg, path)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        assert loaded.step == state.step
        for name, value in state.param_dict().items():
            np.testing.assert_array_equal(loaded.param_dict()[name], value)

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        cloud, _ = tiny_scene()
        cfg = tiny_config(iterations=10)

        state = init_state(cfg)
        straight = [pretrain_step(state, cloud, cfg) for _ in range(10)]

        state = init_state(cfg)
        resumed = [pretrain_step(state, cloud, cfg) for _ in range(4)]
        path = tmp_path / "mid.ckpt"
        save_checkpoint(state, cfg, path)
        state, cfg2 = load_checkpoint(path)
        resumed += [pretrain_step(state, cloud, cfg2) for _ in range(6)]

        assert straight == resumed

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path,
                                                    monkeypatch):
        cfg = tiny_config()
        state = init_state(cfg, with_head=True)
        path = tmp_path / "state.ckpt"
        save_checkpoint(state, cfg, path)
        before = path.read_bytes()

        def write_half_then_fail(target, data):
            with open(target, "wb") as fh:
                fh.write(data[:len(data) // 2])
            raise OSError("no space left on device")

        state.step = 3
        monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
        with pytest.raises(OSError):
            save_checkpoint(state, cfg, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        cfg = tiny_config()
        state = init_state(cfg)
        path = tmp_path / "flip.ckpt"
        save_checkpoint(state, cfg, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_magic_constant(self):
        assert CHECKPOINT_MAGIC == b"VPBK"


class TestTrainConfigValidation:
    def test_unknown_phase_raises(self):
        with pytest.raises(ConfigError):
            TrainConfig(phase="warmup")

    def test_nonpositive_lr_raises(self):
        with pytest.raises(ConfigError):
            tiny_config(lr0=0.0)

    @pytest.mark.parametrize("field, value", [
        ("iterations", float("inf")), ("knn", 2.5), ("batch_size", True),
        ("seed", np.int64(3)), ("fps_count", "256"), ("hidden_widths", [64, 64]),
        ("hidden_widths", (64.0,)), ("hidden_widths", (True,)),
    ])
    def test_int_fields_must_be_ints(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("lr0", "0.1"), ("momentum", "0.5"), ("poly_power", None),
        ("voxel_size", True), ("squared_norm", "no"), ("squared_norm", 1),
        ("off_diagonal_weight", np.float32(0.5)),
    ])
    def test_fields_must_have_their_defaults_type(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field}: .* is not of the type"):
            tiny_config(**{field: value})

    def test_int_stands_for_float(self):
        assert tiny_config(lr0=1, voxel_size=2).lr0 == 1

    def test_momentum_one_raises(self):
        with pytest.raises(ConfigError):
            tiny_config(momentum=1.0)
