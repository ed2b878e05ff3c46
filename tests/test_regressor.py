"""Regressor: layer gradients, shape algebra, training loop, scalers, checkpoints."""

import ast
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rqpkit.regressor
from gradcheck import check_layer, check_network
from rqpkit.evaluate import net_predictor
from rqpkit.features import CuRect, GrayFrame, PuMode, stack_from_coding
from rqpkit.ingest import CodingMetadata
from rqpkit.model import ModelSpec, OperationalPoint
from rqpkit.regressor import (
    Adam,
    CheckpointError,
    DegenerateLabelsError,
    Network,
    NetworkConfig,
    TargetScaler,
    TrainConfig,
    TrainingError,
    load_checkpoint,
    mean_predictor_mse,
    mse_loss,
    normalize_stack,
    save_checkpoint,
    train,
)
from rqpkit.regressor.layers import AvgPool2d, Conv2d, Dense, ReLU
from rqpkit.regressor.network import parameter_shapes


def toy_stack(rng, channels=2, size=8) -> np.ndarray:
    return rng.integers(0, 256, (channels, size, size)).astype(np.uint8)


TOY_SPEC = ModelSpec("quadratic", True, OperationalPoint(10.0, 5000.0))
TOY_CHANNELS = ("rec", "seg")


def toy_frame(rng, size=8) -> tuple[GrayFrame, CodingMetadata]:
    """A random frame coded as one unit and one block, anchored where TOY_SPEC is."""
    frame = GrayFrame(rng.integers(0, 256, (size, size)).astype(np.uint8))
    md = CodingMetadata("toy", size, size, (CuRect(0, 0, size, size),), (PuMode(0, 0, 3),),
                        TOY_SPEC.anchor)
    return frame, md


def toy_dataset(rng, n, channels=2, size=8, outputs=2):
    """n normalized random stacks (n, channels, size, size) and (n, outputs) coefficients."""
    x, y = [], []
    for _ in range(n):
        y.append(rng.normal(0.0, 2.0, outputs))
        x.append(normalize_stack(toy_stack(rng, channels, size)))
    return np.stack(x), np.array(y)


class TestLayerGradients:
    def test_conv_stride_one(self):
        rng = np.random.default_rng(0)
        layer = Conv2d(3, 4, rng=np.random.default_rng(1))
        check_layer(layer, rng.standard_normal((2, 3, 6, 6)), rng)

    def test_avg_pool(self):
        rng = np.random.default_rng(6)
        check_layer(AvgPool2d(4), rng.standard_normal((2, 3, 8, 8)), rng, check_params=False)
        check_layer(AvgPool2d(2), rng.standard_normal((2, 3, 6, 6)), rng, check_params=False)

    def test_dense(self):
        rng = np.random.default_rng(7)
        layer = Dense(5, 3, rng=np.random.default_rng(8))
        check_layer(layer, rng.standard_normal((4, 5)), rng)

    def test_dense_reads_flattened_volume(self):
        rng = np.random.default_rng(36)
        layer = Dense(2 * 3 * 3, 4, rng=np.random.default_rng(37))
        check_layer(layer, rng.standard_normal((5, 2, 3, 3)), rng)

    def test_pool_window_must_pool(self):
        with pytest.raises(ValueError, match="window"):
            AvgPool2d(1)

    def test_relu_propagates_nan(self):
        out = ReLU().forward(np.array([np.nan, -1.0, 2.0]))
        assert np.isnan(out[0]) and out[1] == 0.0 and out[2] == 2.0

    def test_relu_backward_multiplies_by_mask(self):
        """`dout * mask` equals np.where(mask, dout, 0.0) under == wherever dout is a number.

        Where the mask is false, a negative dout gives -0.0 (np.where gave
        +0.0), and a NaN in dout reaches the input gradient (np.where gave 0.0).
        """
        relu = ReLU()
        relu.forward(np.array([1.0, -1.0, 2.0, -2.0, 3.0, 0.0]))
        dout = np.array([0.5, np.nan, -4.0, -3.0, np.nan, 7.0])
        dx = relu.backward(dout)
        assert np.isnan(dx[1]) and np.isnan(dx[4])
        real = ~np.isnan(dout)
        assert np.all(dx[real] == np.where(relu.mask, dout, 0.0)[real])
        assert np.signbit(dx[3]) and not np.signbit(dx[5])

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 2, 4, 4))
        x = np.where(np.abs(x) < 0.1, x + 0.5, x)  # keep probes off the kink
        check_layer(ReLU(), x, rng, check_params=False)

    def test_mse_loss_gradient(self):
        rng = np.random.default_rng(10)
        pred = rng.standard_normal((4, 3))
        target = rng.standard_normal((4, 3))
        _, grad = mse_loss(pred, target)
        h = 1e-6
        for idx in ((0, 0), (1, 2), (3, 1)):
            bump = pred.copy()
            bump[idx] += h
            dip = pred.copy()
            dip[idx] -= h
            numeric = (mse_loss(bump, target)[0] - mse_loss(dip, target)[0]) / (2 * h)
            assert grad[idx] == pytest.approx(numeric, rel=1e-6, abs=1e-10)

    def test_full_network(self):
        for seed in (0, 1):
            net = Network(NetworkConfig(2, 8, 3, seed=seed))
            rng = np.random.default_rng(seed + 100)
            x = rng.uniform(0.0, 1.0, (3, 2, 8, 8))
            y = rng.standard_normal((3, 3))
            checked, skipped = check_network(net, x, y, rng)
            assert checked > 100
            assert skipped <= checked // 10


class TestPoolForward:
    @given(
        window=st.sampled_from([2, 4]),
        batch=st.integers(1, 12),
        channels=st.integers(1, 32),
        rows=st.integers(1, 16),
        cols=st.integers(1, 16),
        transposed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_sums_along_w_then_h(self, window, batch, channels, rows, cols, transposed, seed):
        """Bit-equal to a W-then-H sum, and to mean() unless one block is one contiguous run.

        The transposed draw is the (B, O, H, W) view of an (O, B, H, W) array
        that Conv2d.forward returns.  Values are Cauchy draws scaled over 16
        decades, so rounding differs between any two summation orders.
        """
        k, rng = window, np.random.default_rng(seed)
        h, w = k * rows, k * cols
        shape = (channels, batch, h, w) if transposed else (batch, channels, h, w)
        x = rng.standard_cauchy(shape) * 10.0 ** rng.integers(-8, 9, shape)
        if transposed:
            x = x.transpose(1, 0, 2, 3)
        out = AvgPool2d(k).forward(x)
        blocks = x.reshape(batch, channels, rows, k, cols, k)
        assert np.array_equal(out, blocks.sum(axis=5).sum(axis=3) / (k * k))
        if cols > 1:
            assert np.array_equal(out, blocks.mean(axis=(3, 5)))


def naive_conv_input_grad(layer: Conv2d, dout: np.ndarray, x_shape) -> np.ndarray:
    """Input gradient of a 3x3 stride-1 conv layer, one output position at a time."""
    b, c, h, w = x_shape
    dx = np.zeros((b, c, h + 2, w + 2))
    for n in range(b):
        for o in range(layer.out_channels):
            for y in range(dout.shape[2]):
                for x in range(dout.shape[3]):
                    for ci in range(c):
                        for i in range(3):
                            for j in range(3):
                                dx[n, ci, y + i, x + j] += dout[n, o, y, x] * layer.w[o, ci, i, j]
    return dx[:, :, 1 : 1 + h, 1 : 1 + w]


def naive_conv_forward_and_dw(layer: Conv2d, x: np.ndarray, dout: np.ndarray):
    """Output and weight gradient of a 3x3 stride-1 conv layer, one kernel tap at a time."""
    h, w = x.shape[2:]
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((len(x), layer.out_channels, h, w)) + layer.b[None, :, None, None]
    dw = np.zeros_like(layer.w)
    for i in range(3):
        for j in range(3):
            tap = padded[:, :, i : i + h, j : j + w]
            out += np.einsum("bchw,oc->bohw", tap, layer.w[:, :, i, j])
            dw[:, :, i, j] = np.einsum("bohw,bchw->oc", dout, tap)
    return out, dw


class TestConvAgainstTapLoop:
    @pytest.mark.parametrize(
        "in_ch,out_ch,size",
        [(3, 8, 64), (8, 16, 16), (16, 32, 4), (32, 32, 1)],
        ids=["stage0", "stage1", "stage2", "stage3"],
    )
    def test_forward_and_weight_grad_match_naive(self, in_ch, out_ch, size):
        rng = np.random.default_rng(36)
        layer = Conv2d(in_ch, out_ch, rng=np.random.default_rng(37))
        layer.b = rng.standard_normal(out_ch)
        x = rng.uniform(0.0, 1.0, (10, in_ch, size, size))
        out = layer.forward(x)
        dout = rng.standard_normal(out.shape)
        layer.backward(dout, input_grad=False)
        ref_out, ref_dw = naive_conv_forward_and_dw(layer, x, dout)
        assert out.shape == ref_out.shape
        assert np.max(np.abs(out - ref_out)) <= 1e-12 * np.max(np.abs(ref_out))
        assert np.max(np.abs(layer.dw - ref_dw)) <= 1e-12 * np.max(np.abs(ref_dw))

    def test_backward_repeats_until_next_forward(self):
        # The forward cache, like ReLU's mask, lives until the next forward.
        rng = np.random.default_rng(38)
        layer = Conv2d(3, 4, rng=np.random.default_rng(39))
        x = rng.standard_normal((2, 3, 8, 8))
        dout = rng.standard_normal(layer.forward(x).shape)
        dx = layer.backward(dout)
        dw = layer.dw.copy()
        assert np.array_equal(layer.backward(dout), dx)
        assert np.array_equal(layer.dw, dw)


class TestConvBackward:
    @pytest.mark.parametrize(
        "in_ch,out_ch,shape",
        [(3, 5, (6, 6)), (3, 5, (7, 7)), (2, 4, (8, 8)), (2, 4, (9, 9)), (1, 3, (6, 9))],
    )
    def test_input_grad_matches_naive(self, in_ch, out_ch, shape):
        rng = np.random.default_rng(30)
        layer = Conv2d(in_ch, out_ch, rng=np.random.default_rng(31))
        x = rng.standard_normal((2, in_ch, *shape))
        dout = rng.standard_normal(layer.forward(x).shape)
        dx = layer.backward(dout)
        ref = naive_conv_input_grad(layer, dout, x.shape)
        assert dx.shape == x.shape
        assert np.max(np.abs(dx - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("batch", [1, 2])
    def test_parameter_only_backward(self, batch):
        rng = np.random.default_rng(32)
        full, bare = (Conv2d(3, 4, rng=np.random.default_rng(33)) for _ in range(2))
        x = rng.standard_normal((batch, 3, 8, 8))
        dout = rng.standard_normal(full.forward(x).shape)
        bare.forward(x)
        assert full.backward(dout) is not None
        assert bare.backward(dout, input_grad=False) is None
        assert np.array_equal(bare.dw, full.dw)
        assert np.array_equal(bare.db, full.db)

    def test_network_gradients_match_full_backward(self):
        net, twin = (Network(NetworkConfig(3, 16, 2, seed=34)) for _ in range(2))
        rng = np.random.default_rng(35)
        x = rng.uniform(0.0, 1.0, (4, 3, 16, 16))
        _, grad = mse_loss(net.forward(x), rng.standard_normal((4, 2)))
        twin.forward(x)
        net.backward(grad)
        dout = grad
        for layer in reversed(twin.layers):
            dout = layer.backward(dout)
        assert dout.shape == x.shape
        for got, want in zip(net.gradients(), twin.gradients()):
            assert np.array_equal(got, want)


class TestShapeAlgebra:
    @pytest.mark.parametrize("size", [8, 16, 32, 48, 64, 512])
    def test_default_config_is_consistent(self, size):
        net = Network(NetworkConfig(3, size, 2))
        assert net.forward(np.zeros((2, 3, size, size))).shape == (2, 2)

    @pytest.mark.parametrize("size", [7, 8, 64])
    def test_parameter_shapes_match_network(self, size):
        cfg = NetworkConfig(2, size, 3)
        assert parameter_shapes(cfg) == [p.shape for p in Network(cfg).parameters()]

    def test_unpoolable_stage_has_no_pool_layer(self):
        # 64 -> 16 -> 4 -> 1: the fourth stage's size allows no pooling.
        net = Network(NetworkConfig(1, 64, 2))
        assert [type(layer) for layer in net.layers[-3:]] == [Conv2d, ReLU, Dense]
        assert sum(isinstance(layer, AvgPool2d) for layer in net.layers) == 3

    def test_forward_shape_matches_config(self):
        cfg = NetworkConfig(1, 16, 3, seed=2)
        net = Network(cfg)
        out = net.forward(np.zeros((5, 1, 16, 16)))
        assert out.shape == (5, 3)

    def test_channel_count_bounds(self):
        with pytest.raises(ValueError):
            NetworkConfig(4, 16, 2)

    def test_input_shape_validated(self):
        net = Network(NetworkConfig(2, 8, 2))
        with pytest.raises(ValueError, match="shape"):
            net.forward(np.zeros((1, 3, 8, 8)))
        with pytest.raises(ValueError, match="shape"):
            net.forward(np.zeros((1, 2, 16, 16)))


class TestForward:
    def test_deterministic(self):
        net = Network(NetworkConfig(2, 8, 2, seed=4))
        x = np.random.default_rng(0).uniform(0, 1, (2, 2, 8, 8))
        assert np.array_equal(net.forward(x), net.forward(x))

    def test_zero_weights_zero_output(self):
        net = Network(NetworkConfig(2, 8, 2, seed=4))
        for p in net.parameters():
            p[...] = 0.0
        x = np.random.default_rng(0).uniform(0, 1, (3, 2, 8, 8))
        assert (net.forward(x) == 0).all()

    def test_seeded_init_reproducible(self):
        a = Network(NetworkConfig(2, 8, 2, seed=11))
        b = Network(NetworkConfig(2, 8, 2, seed=11))
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)


class TestTargetScaler:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        scaler = TargetScaler.fit(rng.normal(3.0, 5.0, (40, 3)))
        vec = rng.standard_normal(3)
        assert np.allclose(scaler.inverse(scaler.transform(vec)), vec, atol=1e-9)
        assert np.allclose(scaler.transform(scaler.inverse(vec)), vec, atol=1e-9)

    def test_standardizes(self):
        rng = np.random.default_rng(2)
        labels = rng.normal(-7.0, 0.5, (200, 2))
        z = TargetScaler.fit(labels).transform(labels)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-9)

    def test_zero_variance_rejected_for_multiple_samples(self):
        labels = np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
        with pytest.raises(DegenerateLabelsError, match=r"\[0\]"):
            TargetScaler.fit(labels)

    def test_single_sample_falls_back_to_unit_scale(self):
        scaler = TargetScaler.fit(np.array([[3.0, -1.0]]))
        assert np.array_equal(scaler.scale, [1.0, 1.0])
        assert np.allclose(scaler.transform([[3.0, -1.0]]), 0.0)

    def test_normalize_stack_range(self):
        x = normalize_stack(np.array([[[0, 255], [128, 7]]], dtype=np.uint8))
        assert x.dtype == np.float64
        assert x.min() == 0.0 and x.max() == 1.0


class TestAdam:
    def test_minimizes_quadratic(self):
        w = np.array([5.0, -3.0])
        opt = Adam([w], learning_rate=0.1)
        for _ in range(500):
            opt.step([2.0 * w])
        assert np.abs(w).max() < 1e-3

    def test_gradient_count_checked(self):
        opt = Adam([np.zeros(2)], learning_rate=0.1)
        with pytest.raises(ValueError):
            opt.step([np.zeros(2), np.zeros(2)])


class TestTraining:
    def test_zero_learning_rate_freezes_loss(self):
        rng = np.random.default_rng(3)
        data = toy_dataset(rng, 6)
        net = Network(NetworkConfig(2, 8, 2, seed=0))
        result = train(net, *data, TrainConfig(learning_rate=0.0, epochs=5, seed=0))
        assert len(set(result.train_loss)) == 1

    def test_loss_decreases(self):
        rng = np.random.default_rng(4)
        data = toy_dataset(rng, 8)
        net = Network(NetworkConfig(2, 8, 2, seed=1))
        result = train(net, *data, TrainConfig(learning_rate=1e-3, epochs=40, seed=1))
        assert result.train_loss[-1] < result.train_loss[0]

    def test_memorizes_single_sample(self):
        rng = np.random.default_rng(5)
        data = toy_dataset(rng, 1)
        net = Network(NetworkConfig(2, 8, 2, seed=2))
        result = train(net, *data, TrainConfig(epochs=200, seed=2))
        assert result.train_loss[-1] < 1e-3 * result.train_loss[0]

    def test_validation_history(self):
        rng = np.random.default_rng(6)
        data = toy_dataset(rng, 6)
        val = toy_dataset(rng, 2)
        net = Network(NetworkConfig(2, 8, 2, seed=3))
        result = train(net, *data, TrainConfig(epochs=4, seed=3), val)
        assert len(result.train_loss) == 4 and len(result.val_loss) == 4

    def test_seeded_determinism(self):
        rng = np.random.default_rng(7)
        data = toy_dataset(rng, 6)
        histories = []
        for _ in range(2):
            net = Network(NetworkConfig(2, 8, 2, seed=4))
            histories.append(train(net, *data, TrainConfig(epochs=6, seed=4)).train_loss)
        assert histories[0] == histories[1]

    def test_epoch_telemetry(self):
        rng = np.random.default_rng(19)
        data = toy_dataset(rng, 12)
        net = Network(NetworkConfig(2, 8, 2, seed=18))
        result = train(net, *data, TrainConfig(epochs=3, seed=18))
        assert len(result.epoch_s) == 3 and all(s > 0 for s in result.epoch_s)
        assert len(result.grad_norms) == 3
        assert all(len(norms) == len(net.parameters()) for norms in result.grad_norms)
        # The last epoch's norms are those of the gradients its last step left behind.
        assert result.grad_norms[-1] == tuple(float(np.linalg.norm(g)) for g in net.gradients())

    def test_update_ratios(self):
        # Six samples make one step per epoch, so a run one epoch shorter
        # holds the weights the longer run's last step started from.
        data = toy_dataset(np.random.default_rng(20), 6)
        long, short = (Network(NetworkConfig(2, 8, 2, seed=21)) for _ in range(2))
        result = train(long, *data, TrainConfig(epochs=3, seed=21))
        shorter = train(short, *data, TrainConfig(epochs=2, seed=21))
        assert result.update_ratios[:2] == shorter.update_ratios
        assert result.update_ratios[-1] == tuple(
            float(np.linalg.norm(p - q) / np.linalg.norm(q))
            for p, q in zip(long.parameters(), short.parameters())
        )
        # The biases start at zero, so the first step moves them by an infinite ratio.
        assert all(np.isinf(r) for r in result.update_ratios[0][1::2])
        assert all(0 < r < np.inf for r in result.update_ratios[-1])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_loss_aborts(self):
        rng = np.random.default_rng(8)
        data = toy_dataset(rng, 4)
        net = Network(NetworkConfig(2, 8, 2, seed=5))
        with pytest.raises(TrainingError, match="non-finite"):
            train(net, *data, TrainConfig(learning_rate=1e30, epochs=10, seed=5))

    @pytest.mark.parametrize("learning_rate", [np.nan, np.inf])
    def test_learning_rate_must_be_finite(self, learning_rate):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=learning_rate)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_weights_abort(self):
        # One batch, one epoch: the loss is checked before the only step, so
        # only a check of the weights themselves sees what the step did.
        data = toy_dataset(np.random.default_rng(38), 4)
        net = Network(NetworkConfig(2, 8, 2, seed=39))
        cfg = TrainConfig(epochs=1, batch_size=4)
        object.__setattr__(cfg, "learning_rate", np.inf)  # past TrainConfig's own check
        with pytest.raises(TrainingError, match="non-finite weights"):
            train(net, *data, cfg)

    def test_empty_dataset_rejected(self):
        net = Network(NetworkConfig(2, 8, 2, seed=6))
        with pytest.raises(ValueError, match="empty"):
            train(net, np.empty((0, 2, 8, 8)), np.empty((0, 2)), TrainConfig())

    @pytest.mark.parametrize("short", ["training", "validation"])
    def test_label_rows_must_match_inputs(self, short):
        x, y = toy_dataset(np.random.default_rng(9), 4)
        net = Network(NetworkConfig(2, 8, 2, seed=7))
        train_y, val_y = (y[:1], y) if short == "training" else (y, y[:1])
        with pytest.raises(ValueError, match="4 rows"):
            train(net, x, train_y, TrainConfig(), (x, val_y))

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        data = toy_dataset(rng, 2, size=16)
        net = Network(NetworkConfig(2, 8, 2, seed=8))
        with pytest.raises(ValueError, match="does not match"):
            train(net, *data, TrainConfig())

    def test_label_width_must_match_outputs(self):
        rng = np.random.default_rng(11)
        data = toy_dataset(rng, 4, outputs=3)
        net = Network(NetworkConfig(2, 8, 2, seed=9))
        with pytest.raises(ValueError, match="coefficients"):
            train(net, *data, TrainConfig())

    def test_mean_predictor_baseline(self):
        rng = np.random.default_rng(12)
        data = toy_dataset(rng, 10)
        val = toy_dataset(rng, 4)
        net = Network(NetworkConfig(2, 8, 2, seed=10))
        result = train(net, *data, TrainConfig(epochs=1, seed=10), val)
        z = result.scaler.transform(val[1])
        assert mean_predictor_mse(result.scaler, val[1]) == pytest.approx(float(np.mean(z * z)))


class TestPredictParams:
    """evaluate.net_predictor: a frame's stack, one forward pass, inverse standardization."""

    def make_trained(self, outputs=2):
        rng = np.random.default_rng(13)
        data = toy_dataset(rng, 4, outputs=outputs)
        net = Network(NetworkConfig(2, 8, outputs, seed=11))
        result = train(net, *data, TrainConfig(epochs=1, seed=11))
        return net, result.scaler

    def test_round_trip_with_scaler(self):
        net, scaler = self.make_trained()
        frame, md = toy_frame(np.random.default_rng(16))
        params = net_predictor(net, scaler, "quadratic", True, TOY_CHANNELS)(frame, md)
        x = normalize_stack(stack_from_coding(frame, md.cus, md.pus, TOY_CHANNELS))
        assert np.array_equal(params.coeffs, scaler.inverse(net.forward(x[None])[0]))
        assert params.spec == TOY_SPEC

    @pytest.mark.parametrize(
        "form,fastened,count",
        [("linear", False, 2), ("linear", True, 1), ("quadratic", False, 3), ("quadratic", True, 2)],
    )
    def test_output_width_per_spec(self, form, fastened, count):
        rng = np.random.default_rng(14)
        net = Network(NetworkConfig(2, 8, count, seed=12))
        scaler = TargetScaler.fit(rng.normal(0, 1, (5, count)))
        params = net_predictor(net, scaler, form, fastened, TOY_CHANNELS)(*toy_frame(rng))
        assert len(params.coeffs) == count

    def test_spec_width_mismatch(self):
        net, scaler = self.make_trained(outputs=2)
        predict = net_predictor(net, scaler, "quadratic", False, TOY_CHANNELS)
        with pytest.raises(ValueError, match="takes 3 coefficients, got 2"):
            predict(*toy_frame(np.random.default_rng(15)))

    def test_nan_weights_are_not_hidden(self):
        # The rectifier must let NaN through, or all-NaN conv0 weights
        # would come out as finite coefficients.
        net, scaler = self.make_trained()
        net.layers[0].w[...] = np.nan
        predict = net_predictor(net, scaler, "quadratic", True, TOY_CHANNELS)
        with pytest.raises(ValueError, match="finite"):
            predict(*toy_frame(np.random.default_rng(16)))


def test_regressor_imports_neither_features_nor_model():
    """The regressor sees arrays only; rqpkit.evaluate joins it to frames and models."""
    banned = ("..features", "..model", "rqpkit.features", "rqpkit.model")
    offenders = []
    for path in sorted(Path(rqpkit.regressor.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                sep = "." if node.module else ""
                names = [base] + [base + sep + alias.name for alias in node.names]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if any(name == b or name.startswith(b + ".") for b in banned)]
    assert offenders == []


def _rewrite(path, edit):
    """Apply edit(arrays) to a saved checkpoint's arrays and save them again."""
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    edit(arrays)
    np.savez(path, **arrays)


def _edit_meta(change):
    """A file edit that replaces the checkpoint's meta document with change(meta)."""
    def edit(arrays):
        doc = change(json.loads(bytes(arrays["meta"])))
        arrays["meta"] = np.frombuffer(json.dumps(doc).encode(), dtype=np.uint8)
    return lambda path: _rewrite(path, edit)


def _stale_crc(path):
    """Halve param_2's dtype in its npy header without updating the zip CRC."""
    data = path.read_bytes()
    at = data.index(b"'<f8'", data.index(b"param_2.npy"))
    path.write_bytes(data[:at] + b"'<f4'" + data[at + 5:])


MALFORMED_CHECKPOINTS = {
    "truncated": lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
    "empty": lambda p: p.write_bytes(b""),
    "missing_param": lambda p: _rewrite(p, lambda a: a.pop("param_3")),
    "non_utf8_meta": lambda p: _rewrite(
        p, lambda a: a.update(meta=np.frombuffer(b"\xff\xfe{}", dtype=np.uint8))),
    "meta_is_list": _edit_meta(lambda doc: [doc]),
    "config_is_string": _edit_meta(lambda doc: {**doc, "config": "2x8x8"}),
    "config_unknown_key": _edit_meta(lambda doc: {**doc, "config": {**doc["config"], "kernel": 5}}),
    "conv0_nan": lambda p: _rewrite(p, lambda a: a["param_0"].fill(np.nan)),
    "wrong_weight_shape": lambda p: _rewrite(p, lambda a: a.update(param_0=np.zeros((1, 1)))),
    "stale_crc": _stale_crc,
}


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        data = toy_dataset(rng, 5)
        net = Network(NetworkConfig(2, 8, 2, seed=14))
        result = train(net, *data, TrainConfig(epochs=2, seed=14))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, net, result.scaler, extra={"note": "test"})
        loaded_net, loaded_scaler, extra = load_checkpoint(path)
        assert extra == {"note": "test"}
        x = data[0][:1]
        assert np.array_equal(loaded_net.forward(x), net.forward(x))
        assert np.array_equal(loaded_scaler.mean, result.scaler.mean)
        assert np.array_equal(loaded_scaler.scale, result.scaler.scale)

    @pytest.mark.parametrize("mean,scale", [
        ([5.0], [1.0]),
        ([[5.0, 5.0]], [[1.0, 1.0]]),
        ([5.0, np.nan], [1.0, 1.0]),
        ([5.0, 5.0], [1.0, np.inf]),
        ([5.0, 5.0], [1.0, 0.0]),
    ], ids=["one_entry", "two_d", "nan_mean", "inf_scale", "zero_scale"])
    def test_scaler_that_does_not_fit_network_rejected(self, tmp_path, mean, scale):
        net = Network(NetworkConfig(2, 8, 2, seed=15))
        path = tmp_path / "x.npz"
        save_checkpoint(path, net, TargetScaler(mean, scale))
        with pytest.raises(CheckpointError, match="checkpoint scaler") as info:
            load_checkpoint(path)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("version", [1, 2, 999])
    def test_version_guard(self, tmp_path, version):
        rng = np.random.default_rng(18)
        net = Network(NetworkConfig(2, 8, 2, seed=16))
        scaler = TargetScaler.fit(rng.normal(0, 1, (4, 2)))
        path = tmp_path / "c.npz"
        save_checkpoint(path, net, scaler)
        _edit_meta(lambda doc: {**doc, "format_version": version})(path)
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(path)

    @pytest.mark.parametrize("corrupt", MALFORMED_CHECKPOINTS.values(),
                             ids=MALFORMED_CHECKPOINTS.keys())
    def test_malformed_file_raises_checkpoint_error(self, tmp_path, corrupt):
        net = Network(NetworkConfig(2, 8, 2, seed=19))
        path = tmp_path / "m.npz"
        save_checkpoint(path, net, TargetScaler(np.zeros(2), np.ones(2)))
        corrupt(path)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        message = str(info.value)
        assert "\n" not in message and str(path) in message

    def test_oversized_config_refused_before_building(self, tmp_path):
        # An odd input size admits no pooling, so Network would allocate a
        # dense layer of 32 * 301**2 * 2 floats (and its gradient) first.
        path = tmp_path / "big.npz"
        save_checkpoint(path, Network(NetworkConfig(2, 8, 2, seed=20)),
                        TargetScaler(np.zeros(2), np.ones(2)))
        _edit_meta(lambda doc: {**doc, "config": {**doc["config"], "input_size": 301}})(path)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="shape"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
