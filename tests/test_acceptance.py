"""Acceptance suite: nine go/no-go checks for the full toolkit.

Every test prints one `criterion N (<name>): PASS|FAIL [elapsed]` line
directly to the terminal (capture is bypassed) and enforces its runtime
budget. The suite is deterministic; reruns reproduce the same numbers
bit for bit.
"""

import copy
import time

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from pointvb.experiment import (
    VoxelizedScenes,
    _accumulated_step,
    finetune,
    make_synthetic_dataset,
    pretrain,
    run_experiment,
    sparsify_scenes,
)
from pointvb.geometry import (
    apply_transform,
    farthest_point_sampling,
    knn_indices,
    sample_transform,
    voxel_downsample,
)
from pointvb.metrics import ConfusionMatrix, evaluate, miou
from pointvb.nncore import (
    EncoderParams,
    encoder_forward,
    encoder_input,
    gradient_check,
    init_encoder,
    plan_rows,
)
from pointvb.pcio import PointCloud, SparseLabelSet, generate_synthetic_scene
from pointvb.training import (
    TrainConfig,
    attach_head,
    finetune_grads,
    finetune_plan,
    init_state,
    load_checkpoint,
    masked_cross_entropy,
    pretrain_draws,
    pretrain_grads,
    pretrain_sample,
    save_checkpoint,
)
from pointvb.vbloss import (
    cross_correlation,
    gaussian_entropy,
    vb_loss,
    vb_loss_backward,
    vb_objective_estimate,
)


def announce(capsys, number, name, ok, elapsed):
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} " \
           f"[{elapsed:.1f}s]"
    with capsys.disabled():
        print(line, flush=True)


def shared_pretrain_config(seed, iterations=1500):
    return TrainConfig(
        phase="pretrain", iterations=iterations, lr0=0.08, momentum=0.0,
        off_diagonal_weight=0.22, fps_count=256, feature_dim=32,
        hidden_widths=(64, 64), knn=16, seed=seed, voxel_size=0.05,
    )


def finetune_config(seed):
    return TrainConfig(
        phase="finetune", iterations=150, lr0=0.05, momentum=0.0,
        fps_count=256, feature_dim=32, hidden_widths=(64, 64), knn=16,
        seed=seed, voxel_size=0.05, num_classes=4,
    )


def run_pretrain(seed, scenes, iterations=1500):
    cfg = shared_pretrain_config(seed, iterations)
    data = VoxelizedScenes(scenes, cfg)
    state = init_state(cfg)
    pretrain(state, data, cfg)
    return state


def heldout_views(state, num_scenes=4):
    """Augmented view feature pairs of held-out scenes at sampled points."""
    rng = np.random.default_rng(999)
    pairs = []
    for i in range(num_scenes):
        cloud, _ = generate_synthetic_scene(10_000 + i, 2048, 4)
        voxels, _ = voxel_downsample(cloud, 0.05)
        m = len(voxels)
        t_p = sample_transform(rng, m)
        t_q = sample_transform(rng, m)
        # both views over the scene's one kNN graph, as pretraining pairs them
        plan = plan_rows(state.encoder, knn_indices(voxels.positions, 16), None)
        feats_p, feats_q = (encoder_forward(state.encoder, plan, encoder_input(
            apply_transform(voxels, t), plan))[0] for t in (t_p, t_q))
        sample = farthest_point_sampling(voxels, 256, 0)
        pairs.append((feats_p[sample], feats_q[sample]))
    return pairs


def finetune_and_score(pre_state, fine_cfg, train_scenes, val_scenes,
                       labels_per_scene, seed):
    sparse = sparsify_scenes(train_scenes, labels_per_scene, seed)
    data = VoxelizedScenes(sparse, fine_cfg)
    if pre_state is None:
        state = init_state(fine_cfg, with_head=True)
    else:
        state = copy.deepcopy(pre_state)
        attach_head(state, fine_cfg)
    finetune(state, data, fine_cfg)
    return evaluate(state, val_scenes, fine_cfg).mean_iou


@pytest.fixture(scope="module")
def seed0_assets():
    """Seed-0 dataset and pretrained encoder shared by criteria 6 and 7."""
    started = time.perf_counter()
    train = make_synthetic_dataset(0, 64, 2048, 4, "train")
    val = make_synthetic_dataset(0, 16, 2048, 4, "val")
    state = run_pretrain(0, train)
    return {
        "train": train,
        "val": val,
        "state": state,
        "elapsed": time.perf_counter() - started,
    }


class TestCriterion1GradientFidelity:
    """Analytic gradients of both losses match central finite differences
    with max relative error < 1e-5 over >= 20 seeds; < 60 s."""

    @staticmethod
    def vb_instance(seed):
        cloud, _ = generate_synthetic_scene(seed, 48, 2)
        rng = np.random.default_rng(seed)
        draws = (sample_transform(rng, len(cloud)), sample_transform(rng, len(cloud)), 0)
        sample = farthest_point_sampling(cloud, 16, 0)
        encoder = init_encoder(rng, 8, (8,))
        vb_cfg = TrainConfig(off_diagonal_weight=0.1)
        # both views over the cloud's one kNN graph, as pretraining pairs them;
        # the reference computes every row of it
        nbrs = knn_indices(cloud.positions, 4)
        plan = plan_rows(encoder, nbrs, None)
        inputs = [encoder_input(apply_transform(cloud, t), plan) for t in draws[:2]]

        def loss_fn(params):
            probe = EncoderParams(
                [params[f"enc.w{i}"] for i in range(2)],
                [params.get(f"enc.b{i}", encoder.biases[i]) for i in range(2)],
            )
            fp, fq = (encoder_forward(probe, plan, x)[0][sample] for x in inputs)
            loss, _, _ = vb_loss_backward(fp, fq, vb_cfg)
            return loss

        _, grads = pretrain_grads(encoder, cloud, nbrs, draws, sample, vb_cfg)
        params = {f"enc.w{i}": w for i, w in enumerate(encoder.weights)}
        params |= {f"enc.b{i}": b for i, b in enumerate(encoder.biases)}
        # column mean-centering makes the loss exactly invariant to the
        # final per-channel bias, so its true gradient is identically
        # zero; finite differences there measure only rounding noise.
        # Assert the analytic zero directly and keep the bias out of the
        # finite-difference comparison.
        last = len(encoder.weights) - 1
        invariant_grad_max = float(np.abs(grads[f"enc.b{last}"]).max())
        del params[f"enc.b{last}"]
        del grads[f"enc.b{last}"]
        return loss_fn, params, grads, invariant_grad_max

    @staticmethod
    def ce_instance(seed):
        cloud, labels = generate_synthetic_scene(seed, 48, 2)
        sparse = labels.labels.copy()
        sparse[::2] = -1
        labels = SparseLabelSet(sparse, 2)
        cfg = TrainConfig(
            phase="finetune", iterations=10, lr0=0.05, momentum=0.0,
            fps_count=16, feature_dim=8, hidden_widths=(8,), knn=4,
            seed=seed, num_classes=2,
        )
        state = init_state(cfg, with_head=True)
        planned = finetune_plan(state.encoder, cloud, labels,
                                knn_indices(cloud.positions, cfg.knn))
        _, grads = finetune_grads(state, planned)

        def loss_fn(params):
            probe = copy.deepcopy(state)
            probe.encoder.weights = [params[f"enc.w{i}"] for i in range(2)]
            probe.encoder.biases = [params[f"enc.b{i}"] for i in range(2)]
            probe.head.weight = params["head.w"]
            probe.head.bias = params["head.b"]
            loss, _ = finetune_grads(probe, planned)
            return loss

        return loss_fn, state.param_dict(), grads, 0.0

    def test_gradient_fidelity(self, capsys):
        """Through nncore.gradient_check, whose exact-zero rule scores a
        coordinate with an analytic zero (a dead rectifier unit makes the
        loss locally invariant) by its finite difference staying below 1e-9,
        not by a relative error of rounding noise."""
        started = time.perf_counter()
        worst = 0.0
        ok = True
        for seed in range(20):
            for instance in (self.vb_instance, self.ce_instance):
                loss_fn, params, grads, invariant_max = instance(seed)
                ok = ok and invariant_max < 1e-12
                # gradient_check perturbs every coordinate of a tensor this small
                assert max(p.size for p in params.values()) <= 200
                worst = max(worst, *gradient_check(loss_fn, params, grads).values())
        elapsed = time.perf_counter() - started
        ok = ok and worst < 1e-5 and elapsed < 60.0
        announce(capsys, 1, "gradient fidelity", ok, elapsed)
        assert ok, f"worst relative error {worst}, elapsed {elapsed:.1f}s"


class TestCriterion2ClosedFormLosses:
    """Identity correlation gives exactly zero; two hand-derived 2x2 cases
    match to 1e-12."""

    def test_closed_forms(self, capsys):
        started = time.perf_counter()
        cfg = TrainConfig(off_diagonal_weight=0.01)
        identity_ok = all(
            vb_loss(np.eye(5),
                    TrainConfig(off_diagonal_weight=lam)) == 0.0
            for lam in (0.01, 0.5, 2.0)
        )
        # only the two off-diagonal 0.5 entries deviate, each scaled by
        # 0.01: ||.|| = sqrt(2 * 0.005^2)
        half = vb_loss(
            np.array([[1.0, 0.5], [0.5, 1.0]]), cfg
        )
        # all-ones: off-diagonal deviations are 1, scaled to 0.01 each
        ones = vb_loss(np.ones((2, 2)), cfg)
        ok = (
            identity_ok
            and abs(half - np.sqrt(2.0) * 0.005) < 1e-12
            and abs(ones - np.sqrt(2.0) * 0.01) < 1e-12
        )
        elapsed = time.perf_counter() - started
        announce(capsys, 2, "closed-form loss cases", ok, elapsed)
        assert ok


class TestCriterion3FpsOracle:
    """Sampler equals the brute-force max-min reference index for index on
    200 random clouds (M <= 512) plus all start indices on 20 clouds;
    < 30 s."""

    @staticmethod
    def reference(positions, h, start):
        """Recompute min distance to the selected set from scratch each
        round; ties resolve to the lowest index via argmax."""
        selected = [start]
        for _ in range(h - 1):
            dists = cdist(positions, positions[selected]).min(axis=1)
            dists[selected] = -1.0
            selected.append(int(np.argmax(dists)))
        return selected

    def test_matches_reference(self, capsys):
        started = time.perf_counter()
        rng = np.random.default_rng(42)
        ok = True
        for _ in range(200):
            m = int(rng.integers(2, 513))
            h = int(rng.integers(2, min(m, 128) + 1))
            start = int(rng.integers(m))
            positions = rng.normal(size=(m, 3))
            cloud = PointCloud(positions,
                               rng.uniform(0, 255, size=(m, 3)))
            got = farthest_point_sampling(cloud, h, start)
            ok = ok and list(got) == self.reference(positions, h, start)
        for _ in range(20):
            m = int(rng.integers(4, 49))
            h = int(rng.integers(2, m + 1))
            positions = rng.normal(size=(m, 3))
            cloud = PointCloud(positions,
                               rng.uniform(0, 255, size=(m, 3)))
            for start in range(m):
                got = farthest_point_sampling(cloud, h, start)
                ok = ok and list(got) == self.reference(positions, h, start)
        elapsed = time.perf_counter() - started
        ok = ok and elapsed < 30.0
        announce(capsys, 3, "farthest-point sampling oracle", ok, elapsed)
        assert ok, f"elapsed {elapsed:.1f}s"


class TestCriterion4EntropyDiagnostic:
    """gaussian_entropy matches the eigenvalue log-det oracle to 1e-8 on
    100 PD matrices; 500 pretraining steps strictly decrease the
    information-objective estimate (beta = 2); < 2 min."""

    @staticmethod
    def objective(state):
        pairs = heldout_views(state)
        pooled = np.vstack([z for pair in pairs for z in pair])
        return vb_objective_estimate(pooled, [list(p) for p in pairs], 2.0)

    def test_entropy_and_objective(self, capsys):
        started = time.perf_counter()
        rng = np.random.default_rng(5)
        entropy_ok = True
        for _ in range(100):
            d = int(rng.integers(1, 17))
            a = rng.normal(size=(d, d))
            cov = a @ a.T + d * np.eye(d)
            eigenvalues = np.linalg.eigvalsh(cov)
            oracle = 0.5 * (
                d * np.log(2.0 * np.pi * np.e) + np.sum(np.log(eigenvalues))
            )
            entropy_ok = entropy_ok and \
                abs(gaussian_entropy(cov) - oracle) < 1e-8

        train = make_synthetic_dataset(0, 8, 2048, 4, "train")
        cfg = shared_pretrain_config(0, iterations=500)
        data = VoxelizedScenes(train, cfg)
        state = init_state(cfg)
        before = self.objective(state)
        pretrain(state, data, cfg)
        after = self.objective(state)
        decreased = after < before

        elapsed = time.perf_counter() - started
        ok = entropy_ok and decreased and elapsed < 120.0
        announce(capsys, 4, "entropy diagnostic", ok, elapsed)
        assert ok, (
            f"entropy_ok={entropy_ok} before={before:.2f} after={after:.2f} "
            f"elapsed={elapsed:.1f}s"
        )


class TestCriterion5InvarianceDecorrelation:
    """After pretraining (D = 32, 256 sampled points per view), held-out
    augmented view pairs correlate with mean diagonal > 0.9 and mean
    absolute off-diagonal < 0.1; < 5 min."""

    def test_invariance_decorrelation(self, capsys):
        started = time.perf_counter()
        train = make_synthetic_dataset(0, 8, 2048, 4, "train")
        state = run_pretrain(0, train, iterations=6000)
        diagonals, off_diagonals = [], []
        for zp, zq in heldout_views(state):
            z = cross_correlation(zp, zq)
            d = z.shape[0]
            diagonals.append(np.mean(np.diagonal(z)))
            off_diagonals.append(
                (np.abs(z).sum() - np.abs(np.diagonal(z)).sum())
                / (z.size - d)
            )
        mean_diag = float(np.mean(diagonals))
        mean_off = float(np.mean(off_diagonals))
        elapsed = time.perf_counter() - started
        ok = mean_diag > 0.9 and mean_off < 0.1 and elapsed < 300.0
        announce(capsys, 5, "invariance/decorrelation", ok, elapsed)
        assert ok, (
            f"mean diagonal {mean_diag:.4f}, mean |off-diagonal| "
            f"{mean_off:.4f}, elapsed {elapsed:.1f}s"
        )


class TestCriterion6PretrainingHelps:
    """On 64 scenes with 20 labels each, fine-tuning from the pretrained
    encoder beats random initialization in 3 of 3 paired seeds with mean
    improvement > 3 mIoU points; < 15 min."""

    def test_paired_seeds(self, capsys, seed0_assets):
        started = time.perf_counter()
        improvements = []
        for seed in (0, 1, 2):
            if seed == 0:
                train = seed0_assets["train"]
                val = seed0_assets["val"]
                pre_state = seed0_assets["state"]
            else:
                train = make_synthetic_dataset(seed, 64, 2048, 4, "train")
                val = make_synthetic_dataset(seed, 16, 2048, 4, "val")
                pre_state = run_pretrain(seed, train)
            fine_cfg = finetune_config(seed)
            pretrained = finetune_and_score(pre_state, fine_cfg, train, val,
                                            20, seed)
            random_init = finetune_and_score(None, fine_cfg, train, val,
                                             20, seed)
            improvements.append(100.0 * (pretrained - random_init))
        mean_gain = float(np.mean(improvements))
        elapsed = time.perf_counter() - started + seed0_assets["elapsed"]
        ok = (
            all(gain > 0.0 for gain in improvements)
            and mean_gain > 3.0
            and elapsed < 900.0
        )
        announce(capsys, 6, "pretraining beats random init", ok, elapsed)
        assert ok, (
            f"per-seed gains {['%.1f' % g for g in improvements]} points, "
            f"mean {mean_gain:.1f}, elapsed {elapsed:.1f}s"
        )


class TestCriterion7MonotoneSupervisionTrend:
    """Validation mIoU of the pretrained model is non-decreasing over
    20/50/100/200 labels per scene within a 1-point tolerance; < 30 min."""

    def test_label_budget_trend(self, capsys, seed0_assets):
        started = time.perf_counter()
        scores = []
        for labels_per_scene in (20, 50, 100, 200):
            fine_cfg = finetune_config(0)
            scores.append(
                finetune_and_score(
                    seed0_assets["state"], fine_cfg, seed0_assets["train"],
                    seed0_assets["val"], labels_per_scene, 0,
                )
            )
        elapsed = time.perf_counter() - started + seed0_assets["elapsed"]
        monotone = all(b >= a - 0.01 for a, b in zip(scores, scores[1:]))
        ok = monotone and elapsed < 1800.0
        announce(capsys, 7, "monotone supervision trend", ok, elapsed)
        assert ok, (
            f"mIoU at 20/50/100/200 labels: "
            f"{['%.4f' % s for s in scores]}, elapsed {elapsed:.1f}s"
        )


class TestCriterion8DeterminismPersistence:
    """Identical config+seed reruns are byte-identical; resuming from a
    mid-run checkpoint reproduces the uninterrupted run exactly."""

    CONFIG = {
        "num_scenes": 3, "val_scenes": 2, "points_per_scene": 256,
        "feature_dim": 8, "hidden_widths": (16,), "knn": 8,
        "fps_count": 32, "pretrain_steps": 6, "finetune_steps": 6,
        "momentum": 0.0, "labels_per_scene": 20,
    }

    def test_determinism_and_resume(self, capsys, tmp_path):
        from pointvb.config import default_config

        started = time.perf_counter()
        values = {**default_config(), **self.CONFIG}
        first = tmp_path / "first"
        second = tmp_path / "second"
        run_experiment(values, first)
        run_experiment(values, second)
        rerun_ok = all(
            (first / name).read_bytes() == (second / name).read_bytes()
            for name in ("trace.csv", "report.csv", "pretrain.ckpt",
                         "final.ckpt")
        )

        cloud, _ = generate_synthetic_scene(0, 512, 4)
        cfg = TrainConfig(
            phase="pretrain", iterations=10, lr0=0.05, momentum=0.9,
            off_diagonal_weight=1 / 16, fps_count=32, feature_dim=16,
            hidden_widths=(16,), knn=8, seed=0,
        )
        nbrs = knn_indices(cloud.positions, cfg.knn)

        def pair(state, cfg):
            _, draws = pretrain_draws(state.rng, [cloud])
            return pretrain_grads(state.encoder, cloud, nbrs, draws,
                                  pretrain_sample(cloud, cfg, draws[2]), cfg)

        def steps(state, cfg, count):
            return [_accumulated_step(state, cfg, lambda: pair(state, cfg))
                    for _ in range(count)]

        straight = steps(init_state(cfg), cfg, 10)
        state = init_state(cfg)
        resumed = steps(state, cfg, 4)
        save_checkpoint(state, cfg, tmp_path / "mid.ckpt")
        state, cfg = load_checkpoint(tmp_path / "mid.ckpt")
        resumed += steps(state, cfg, 6)
        resume_ok = straight == resumed

        elapsed = time.perf_counter() - started
        ok = rerun_ok and resume_ok
        announce(capsys, 8, "determinism and persistence", ok, elapsed)
        assert ok, f"rerun_ok={rerun_ok} resume_ok={resume_ok}"


class TestCriterion9MiouCorrectness:
    """The metric equals the brute-force set computation on 1000 random
    instances."""

    @staticmethod
    def reference(truth, predicted, num_classes):
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
        mean = float(np.mean(included)) if included else None
        return per_class, mean

    def test_matches_set_oracle(self, capsys):
        started = time.perf_counter()
        rng = np.random.default_rng(13)
        checked = 0
        ok = True
        while checked < 1000:
            s = int(rng.integers(2, 10))
            n = int(rng.integers(1, 100))
            truth = rng.integers(0, s, n)
            predicted = rng.integers(0, s, n)
            ref_classes, ref_mean = self.reference(truth, predicted, s)
            if ref_mean is None:
                continue
            checked += 1
            cm = ConfusionMatrix.zeros(s)
            cm.add(truth, predicted)
            per_class, mean = miou(cm)
            ok = ok and mean == pytest.approx(ref_mean, abs=1e-12)
            for got, want in zip(per_class, ref_classes):
                if want is None:
                    ok = ok and got is None
                else:
                    ok = ok and got == pytest.approx(want, abs=1e-12)
        elapsed = time.perf_counter() - started
        announce(capsys, 9, "mIoU correctness", ok, elapsed)
        assert ok
