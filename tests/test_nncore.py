import numpy as np
import pytest
from scipy import sparse

from pointvb.errors import DataError, NumericError
from pointvb.geometry import knn_indices, voxel_downsample
from pointvb.nncore import (
    EncoderParams,
    encoder_backward,
    encoder_forward,
    encoder_input,
    encoder_params_dict,
    gradient_check,
    init_encoder,
    plan_rows,
    pooling_operator,
)
from pointvb.pcio import PointCloud, generate_synthetic_scene


def random_cloud(rng, m):
    return PointCloud(rng.normal(size=(m, 3)), rng.uniform(0, 255, size=(m, 3)))


def params_of(encoder):
    return encoder_params_dict(encoder)


def forward(enc, cloud, neighbors, rows=None):
    """The encoder's features of the cloud's rows (None: all) over its kNN
    graph neighbors, and the tape."""
    plan = plan_rows(enc, neighbors, rows)
    return encoder_forward(enc, plan, encoder_input(cloud, plan))


def encoder_loss_fn(cloud, nbrs, upstream, template, rows=None):
    """<upstream, features> as a function of the parameter dict."""

    def loss_fn(params):
        enc = EncoderParams(
            [params[f"enc.w{i}"] for i in range(len(template.weights))],
            [params[f"enc.b{i}"] for i in range(len(template.biases))],
        )
        features, _ = forward(enc, cloud, nbrs, rows)
        return float(np.sum(upstream * features))

    return loss_fn


class TestEncoderForward:
    def test_zero_network_single_point(self):
        cloud = PointCloud(np.zeros((1, 3)), np.zeros((1, 3)))
        enc = init_encoder(np.random.default_rng(0), 4, (8,))
        for w in enc.weights:
            w[:] = 0.0
        features, _ = forward(enc, cloud, knn_indices(cloud.positions, 0))
        np.testing.assert_array_equal(features, np.zeros((1, 4)))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        cloud = random_cloud(rng, 40)
        enc = init_encoder(rng, 8, (16,))
        features, _ = forward(enc, cloud, knn_indices(cloud.positions, 5))
        perm = rng.permutation(40)
        permuted = PointCloud(cloud.positions[perm], cloud.colors[perm])
        permuted_features, _ = forward(enc, permuted, knn_indices(permuted.positions, 5))
        np.testing.assert_allclose(permuted_features, features[perm], atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        cloud = random_cloud(rng, 30)
        enc = init_encoder(rng, 8, (16, 16))
        a, _ = forward(enc, cloud, knn_indices(cloud.positions, 4))
        b, _ = forward(enc, cloud, knn_indices(cloud.positions, 4))
        np.testing.assert_array_equal(a, b)

    def test_tape_keeps_boolean_relu_masks(self):
        """The tape holds each hidden layer's z > 0 as bool, not z."""
        rng = np.random.default_rng(5)
        cloud = random_cloud(rng, 30)
        enc = init_encoder(rng, 8, (16, 12))
        _, tape = forward(enc, cloud, knn_indices(cloud.positions, 4))
        assert [(m.dtype, m.shape) for m in tape.relu_masks] == \
            [(np.dtype(bool), (30, 16)), (np.dtype(bool), (30, 12))]
        for layer, mask in enumerate(tape.relu_masks):
            z = tape.layer_inputs[layer] @ enc.weights[layer] + enc.biases[layer]
            np.testing.assert_array_equal(mask, z > 0.0)


class TestEncoderBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(5)
        cloud = random_cloud(rng, 20)
        enc = init_encoder(rng, 8, (16,))
        _, tape = forward(enc, cloud, knn_indices(cloud.positions, 3))
        grads = encoder_backward(tape, np.zeros((20, 8)))
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_linear_encoder_analytic(self):
        # no hidden layers: features = X W + b, so dW = X^T upstream
        rng = np.random.default_rng(6)
        cloud = random_cloud(rng, 10)
        enc = init_encoder(rng, 2, ())
        features, tape = forward(enc, cloud, knn_indices(cloud.positions, 0))
        upstream = rng.normal(size=(10, 2))
        grads = encoder_backward(tape, upstream)
        np.testing.assert_allclose(
            grads["enc.w0"], tape.layer_inputs[0].T @ upstream, atol=1e-12)
        np.testing.assert_allclose(
            grads["enc.b0"], upstream.sum(axis=0), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, 16)
        enc = init_encoder(rng, 6, (8, 8))
        nbrs = knn_indices(cloud.positions, 4)
        features, tape = forward(enc, cloud, nbrs)
        upstream = rng.normal(size=features.shape)
        analytic = encoder_backward(tape, upstream)
        errors = gradient_check(
            encoder_loss_fn(cloud, nbrs, upstream, enc), params_of(enc), analytic,
            rng=rng,
        )
        # central differences straddle ReLU kinks on occasion, so the
        # practical bound is the 1e-5 acceptance tolerance, not exactness
        assert max(errors.values()) < 1e-5, errors

    def test_shape_mismatch(self):
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, 12)
        enc = init_encoder(rng, 4, (8,))
        _, tape = forward(enc, cloud, knn_indices(cloud.positions, 2))
        with pytest.raises(DataError):
            encoder_backward(tape, np.zeros((12, 5)))


def acceptance_scene(seed):
    """A voxelized 2,048-point scene (about 1,700 voxels), its kNN graph and
    an encoder of the acceptance shapes: widths (64, 64), D = 32, k = 16."""
    cloud, _ = generate_synthetic_scene(seed, 2048, 4)
    voxels = voxel_downsample(cloud, 0.05)[0]
    enc = init_encoder(np.random.default_rng(seed), 32, (64, 64))
    return voxels, knn_indices(voxels.positions, 16), enc


class TestRestrictedRows:
    def test_pooling_operator_matches_coo_reference(self):
        rng = np.random.default_rng(12)
        cloud = random_cloud(rng, 60)
        nbrs = knn_indices(cloud.positions, 5)
        reference = sparse.csr_matrix(
            (np.full(300, 0.2), (np.repeat(np.arange(60), 5), nbrs.ravel())),
            shape=(60, 60))
        full = pooling_operator(nbrs)
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(full, name),
                                          getattr(reference, name))
        rows = np.sort(rng.choice(60, 10, replace=False))
        cols = np.union1d(rows, nbrs[rows])
        block = pooling_operator(nbrs, rows, cols)
        np.testing.assert_array_equal(block.toarray(),
                                      reference.toarray()[rows][:, cols])
        assert (np.diff(block.indices.reshape(10, 5), axis=1) > 0).all()

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_equal_full_forward_at_acceptance_shapes(self, seed):
        voxels, nbrs, enc = acceptance_scene(seed)
        m = len(voxels)
        full, _ = forward(enc, voxels, nbrs)
        rng = np.random.default_rng(seed)
        # one row goes through NumPy's matrix-vector path, whose sums may
        # differ from the matrix product's in the last bit: sizes start at 2
        for size in (2, 20, 256, int(rng.integers(2, m)), m):
            rows = rng.choice(m, size, replace=False)
            features, _ = forward(enc, voxels, nbrs, rows)
            np.testing.assert_array_equal(features, full[rows])

    @pytest.mark.parametrize("widths, knn", [((8, 8), 4), ((8,), 0), ((), 3)])
    @pytest.mark.parametrize("seed", range(3))
    def test_backward_matches_finite_differences(self, widths, knn, seed):
        rng = np.random.default_rng(20 + seed)
        cloud = random_cloud(rng, 24)
        enc = init_encoder(rng, 5, widths)
        nbrs = knn_indices(cloud.positions, knn)
        rows = rng.choice(24, int(rng.integers(1, 12)), replace=False)
        features, tape = forward(enc, cloud, nbrs, rows)
        assert features.shape == (len(rows), 5)
        upstream = rng.normal(size=features.shape)
        errors = gradient_check(
            encoder_loss_fn(cloud, nbrs, upstream, enc, rows), params_of(enc),
            encoder_backward(tape, upstream), rng=rng,
        )
        assert max(errors.values()) < 1e-5, errors

    @pytest.mark.parametrize("rows", [[], [3, 3], [-1, 2], [2, 20]])
    def test_rows_must_be_distinct_cloud_indices(self, rows):
        rng = np.random.default_rng(13)
        cloud = random_cloud(rng, 20)
        enc = init_encoder(rng, 4, (8,))
        with pytest.raises(DataError):
            forward(enc, cloud, knn_indices(cloud.positions, 3),
                    np.array(rows, dtype=np.int64))

    def test_nan_outside_receptive_field_raises(self):
        rng = np.random.default_rng(14)
        cloud = random_cloud(rng, 200)
        enc = init_encoder(rng, 4, (8,))
        nbrs, rows = knn_indices(cloud.positions, 3), np.array([0, 1])
        _, tape = forward(enc, cloud, nbrs, rows)
        outside = np.setdiff1d(np.arange(200), tape.sets[0])[0]
        cloud.colors[outside, 1] = np.nan
        with pytest.raises(NumericError):
            forward(enc, cloud, nbrs, rows)


class TestRowPlan:
    def test_reused_plan_and_inputs_equal_a_fresh_forward(self):
        voxels, nbrs, enc = acceptance_scene(4)
        rows = np.random.default_rng(4).choice(len(voxels), 20, replace=False)
        plan = plan_rows(enc, nbrs, rows)
        inputs = encoder_input(voxels, plan)
        fresh, fresh_tape = forward(enc, voxels, nbrs, rows)
        upstream = np.random.default_rng(5).normal(size=fresh.shape)
        for _ in range(2):  # nothing a forward does changes the plan or inputs
            features, tape = encoder_forward(enc, plan, inputs)
            np.testing.assert_array_equal(features, fresh)
            grads = encoder_backward(tape, upstream)
            for name, g in encoder_backward(fresh_tape, upstream).items():
                np.testing.assert_array_equal(grads[name], g, err_msg=name)

    def test_full_plan_shares_one_pooling_operator(self):
        rng = np.random.default_rng(16)
        nbrs = knn_indices(random_cloud(rng, 40).positions, 4)
        plan = plan_rows(init_encoder(rng, 4, (8, 8, 8)), nbrs, None)
        assert len(plan.poolings) == 3
        assert all(p is plan.poolings[0] for p in plan.poolings)
        np.testing.assert_array_equal(plan.poolings[0].toarray(),
                                      pooling_operator(nbrs).toarray())

    @pytest.mark.parametrize("rows", [None, np.array([7, 0, 3])], ids=["all", "rows"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_plan_computes_in_its_encoders_dtype(self, dtype, rows):
        """A plan takes its encoder's dtype: its pooling operators, their
        transposes, its encoder_input rows and the features computed over it."""
        rng = np.random.default_rng(17)
        cloud = random_cloud(rng, 40)
        drawn = init_encoder(rng, 4, (8, 8))
        enc = EncoderParams([w.astype(dtype) for w in drawn.weights],
                            [b.astype(dtype) for b in drawn.biases])
        plan = plan_rows(enc, knn_indices(cloud.positions, 4), rows)
        assert plan.dtype == dtype
        assert all(op.dtype == dtype for op in plan.poolings + plan.transposes)
        inputs = encoder_input(cloud, plan)
        assert inputs.dtype == dtype
        assert encoder_forward(enc, plan, inputs)[0].dtype == dtype

    @pytest.mark.parametrize("points, knn", [(30, 3)])
    def test_plan_of_another_graph_raises(self, points, knn):
        """encoder_input refuses a cloud whose point count is not the plan's graph's."""
        rng = np.random.default_rng(15)
        cloud = random_cloud(rng, 20)
        other = knn_indices(random_cloud(rng, points).positions, knn)
        plan = plan_rows(init_encoder(rng, 4, (8,)), other, np.array([0, 1]))
        with pytest.raises(DataError, match="graph shape"):
            encoder_input(cloud, plan)


class TestGradientCheck:
    def test_quadratic_exact(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(5, 4))

        def loss_fn(params):
            return 0.5 * float(np.sum(params["w"] ** 2))

        errors = gradient_check(loss_fn, {"w": w}, {"w": w.copy()}, rng=rng)
        assert list(errors) == ["w"]
        assert errors["w"] < 1e-9

    def test_corrupted_gradient_fails(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(5, 4)) + 1.0
        bad = w.copy()
        bad[0, 0] *= 2.0

        def loss_fn(params):
            return 0.5 * float(np.sum(params["w"] ** 2))

        errors = gradient_check(loss_fn, {"w": w}, {"w": bad}, rng=rng)
        # every coordinate is checked; the doubled one is off by |2w - w| / |2w|
        assert errors["w"] == pytest.approx(0.5, rel=1e-6)

    def test_invariant_parameter_passes(self):
        """Centering each column makes the loss exactly invariant to b, so
        its analytic gradient is zero and its finite differences are the
        loss's rounding alone (2.2e-3 as a relative error against the 1e-8
        floor): the exact-zero rule passes them."""
        rng = np.random.default_rng(11)
        w, b, v = rng.normal(size=(6, 4)), rng.normal(size=4), rng.normal(size=(6, 4))

        def loss_fn(params):
            x = params["w"] + params["b"]
            return float(np.sum(np.tanh(x - x.mean(axis=0)) * v))

        outer = (1.0 - np.tanh(w - w.mean(axis=0)) ** 2) * v
        errors = gradient_check(loss_fn, {"w": w, "b": b},
                                {"w": outer - outer.mean(axis=0), "b": np.zeros(4)},
                                rng=rng)
        assert errors["b"] == 0.0
        assert errors["w"] < 1e-6

    def test_zeroed_coordinate_fails(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(5, 4)) + 1.0
        zeroed = w.copy()
        zeroed[2, 1] = 0.0

        def loss_fn(params):
            return 0.5 * float(np.sum(params["w"] ** 2))

        errors = gradient_check(loss_fn, {"w": w}, {"w": zeroed}, rng=rng)
        # the analytic zero's true gradient is real: |0 - n| / |n|
        assert errors["w"] == pytest.approx(1.0, rel=1e-12)

    def test_nonfinite_loss_raises(self):
        def loss_fn(params):
            return float("nan")

        with pytest.raises(NumericError):
            gradient_check(loss_fn, {"w": np.ones((2, 2))},
                           {"w": np.zeros((2, 2))})

    def test_bad_step(self):
        with pytest.raises(DataError):
            gradient_check(lambda p: 0.0, {}, {}, step=0.0)
