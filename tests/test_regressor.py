"""Regressor: layer gradients, shape algebra, training loop, scalers, checkpoints."""

import ast
import hashlib
import json
import re
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rqpkit.regressor
from gradcheck import check_layer, check_network
from rqpkit.evaluate import make_labels, net_predictor, run_training
from rqpkit.features import CuRect, GrayFrame, PuMode, stack_from_coding
from rqpkit.ingest import CodingMetadata, DatasetSplit
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
    mse_loss,
    save_checkpoint,
    train,
)
from rqpkit.regressor.layers import AvgPool2d, Conv2d, Dense, GlobalAvgPool2d, ReLU, _cols


def in_units(planes: np.ndarray) -> np.ndarray:
    """Reference map of uint8 planes onto [0, 1] as float64, shape unchanged."""
    return planes.astype(np.float64) * (1.0 / 255.0)


def toy_stack(rng, channels=2, size=8) -> np.ndarray:
    return rng.integers(0, 256, (channels, size, size)).astype(np.uint8)


TOY_SPEC = ModelSpec("quadratic", anchor=OperationalPoint(10.0, 5000.0))
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
        x.append(in_units(toy_stack(rng, channels, size)))
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
        check_layer(AvgPool2d(4), rng.standard_normal((2, 3, 6, 10)), rng, check_params=False)
        check_layer(GlobalAvgPool2d(), rng.standard_normal((2, 3, 3, 5)), rng,
                    check_params=False)

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

    @pytest.mark.parametrize("layer, args, message", [
        (Conv2d, (0, 8), "in_channels must be an integer >= 1, got 0"),
        (Conv2d, (3, 0), "out_channels must be an integer >= 1, got 0"),
        (Conv2d, (3.0, 8), "in_channels must be an integer >= 1, got 3.0"),
        (Dense, (0, 2), "in_features must be an integer >= 1, got 0"),
        (Dense, (4, -1), "out_features must be an integer >= 1, got -1"),
        (Dense, (True, 2), "in_features must be an integer >= 1, got True"),
        (AvgPool2d, (2.5,), "pooling window must be an integer >= 2, got 2.5"),
        (AvgPool2d, (np.True_,), "pooling window must be an integer >= 2, got np.True_"),
    ], ids=["conv-in-0", "conv-out-0", "conv-in-float", "dense-in-0", "dense-out-negative",
            "dense-in-bool", "pool-float", "pool-numpy-bool"])
    def test_layer_sizes_are_checked_integers(self, layer, args, message):
        kwargs = {} if layer is AvgPool2d else {"rng": np.random.default_rng(0)}
        with pytest.raises(ValueError) as info:
            layer(*args, **kwargs)
        assert str(info.value) == message

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
            net = Network(NetworkConfig(2, 3, seed=seed))
            rng = np.random.default_rng(seed + 100)
            x = rng.uniform(0.0, 1.0, (3, 2, 8, 8))
            y = rng.standard_normal((3, 3))
            checked, skipped = check_network(net, x, y, rng)
            assert checked > 100
            assert skipped <= checked // 10


class TestPoolForward:
    def test_block_is_largest_halving_that_divides(self):
        x = np.random.default_rng(49).standard_normal((2, 3, 6, 10))
        assert np.array_equal(AvgPool2d(4).forward(x), AvgPool2d(2).forward(x))
        odd = x[:, :, :5, :7]
        assert np.array_equal(AvgPool2d(4).forward(odd), odd)

    def test_global_average_reads_the_whole_plane(self):
        x = np.random.default_rng(50).standard_normal((2, 3, 3, 5))
        out = GlobalAvgPool2d().forward(x)
        assert out.shape == (2, 3, 1, 1)
        np.testing.assert_allclose(out[:, :, 0, 0], x.mean(axis=(2, 3)), rtol=1e-14)
        square = x[:, :, :3, :3].copy()
        assert np.array_equal(GlobalAvgPool2d().forward(square), AvgPool2d(3).forward(square))

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


def naive_conv_dx(layer: Conv2d, dout: np.ndarray, x_shape) -> np.ndarray:
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


def reference_cols(x: np.ndarray) -> np.ndarray:
    """im2col of x zero-padded by one pixel, from NumPy's own sliding windows."""
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    win = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(2, 3))
    return win.transpose(1, 4, 5, 0, 2, 3).reshape(x.shape[1] * 9, -1)


class TestCols:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (7, 7), (16, 16)])
    @pytest.mark.parametrize("batch", [1, 3, 10])
    @pytest.mark.parametrize("channels", [1, 3, 8, 16])
    def test_matches_sliding_window_view(self, shape, batch, channels):
        x = np.random.default_rng(batch * 100 + channels).standard_normal((batch, channels, *shape))
        got, want = _cols(x), reference_cols(x)
        assert got.shape == want.shape == (channels * 9, batch * shape[0] * shape[1])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
        layer.backward(dout)
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
        "batch,in_ch,out_ch,shape",
        [
            pytest.param(2, 3, 5, (6, 6), id="3-5-shape0"),
            pytest.param(2, 3, 5, (7, 7), id="3-5-shape1"),
            pytest.param(2, 2, 4, (8, 8), id="2-4-shape2"),
            pytest.param(2, 2, 4, (9, 9), id="2-4-shape3"),
            pytest.param(2, 1, 3, (6, 9), id="1-3-shape4"),
            pytest.param(1, 3, 5, (6, 6), id="batch1"),
            pytest.param(3, 2, 4, (9, 9), id="batch3"),
            # The network's own shapes: conv1 and conv2 of a 64x64 frame at
            # batch 10, conv2 of a 16x16 frame (a 1x1 plane) and of a 48x80 one.
            pytest.param(10, 8, 16, (16, 16), id="conv1-64x64"),
            pytest.param(10, 16, 32, (4, 4), id="conv2-64x64"),
            pytest.param(3, 16, 32, (1, 1), id="conv2-16x16"),
            pytest.param(3, 16, 32, (3, 5), id="conv2-48x80"),
        ],
    )
    def test_input_grad_matches_naive(self, batch, in_ch, out_ch, shape):
        rng = np.random.default_rng(30)
        layer = Conv2d(in_ch, out_ch, rng=np.random.default_rng(31))
        x = rng.standard_normal((batch, in_ch, *shape))
        dout = rng.standard_normal(layer.forward(x).shape)
        dx = layer.backward(dout)
        ref = naive_conv_dx(layer, dout, x.shape)
        assert dx.shape == x.shape
        assert np.max(np.abs(dx - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_backward_builds_no_batch_wide_dout_columns(self):
        # The input gradient is formed a frame at a time: the backward pass
        # peaks below the O·9 x B·H·W float64 column matrix of the whole dout.
        rng = np.random.default_rng(36)
        layer = Conv2d(8, 16, rng=np.random.default_rng(37))
        x = rng.standard_normal((10, 8, 16, 16))
        dout = rng.standard_normal(layer.forward(x).shape)
        layer.backward(dout)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            layer.backward(dout)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 16 * 9 * 10 * 16 * 16 * 8

    @pytest.mark.parametrize("batch", [1, 2])
    def test_parameter_only_backward(self, batch):
        # weight_gradients reads any input it is given, cached or not, and
        # forms backward's dw/db bit for bit.
        rng = np.random.default_rng(32)
        layer = Conv2d(3, 4, rng=np.random.default_rng(33))
        x = rng.standard_normal((batch, 3, 8, 8))
        dout = rng.standard_normal(layer.forward(x).shape)
        dw, db = layer.weight_gradients(x, dout)
        assert layer.backward(dout).shape == x.shape
        assert dw.tobytes() == layer.dw.tobytes()
        assert db.tobytes() == layer.db.tobytes()

    def test_network_gradients_match_full_backward(self):
        # Network.backward runs the first stage one frame at a time and sums
        # conv0's dw/db in frame order; the later layers run on the batch.
        net, twin = (Network(NetworkConfig(3, 2, seed=34)) for _ in range(2))
        rng = np.random.default_rng(35)
        x = rng.uniform(0.0, 1.0, (4, 3, 16, 16))
        _, grad = mse_loss(net.forward(x), rng.standard_normal((4, 2)))
        net.backward(grad)
        first, rest = twin.layers[:3], twin.layers[3:]
        out = np.concatenate([run_layers(first, frame[None]) for frame in x])
        run_layers(rest, out)
        dout = grad
        for layer in reversed(rest):
            dout = layer.backward(dout)
        dws, dbs = [], []
        for i, frame in enumerate(x):
            run_layers(first, frame[None])
            frame_dout = dout[i : i + 1]
            for layer in reversed(first[1:]):
                frame_dout = layer.backward(frame_dout)
            first[0].backward(frame_dout)
            dws.append(first[0].dw)
            dbs.append(first[0].db)
        per_frame = [sum(dws), sum(dbs)] + [g.copy() for g in twin.gradients()[2:]]
        for got, want in zip(net.gradients(), per_frame, strict=True):
            assert np.array_equal(got, want)
        # The whole batch through every layer at once differs only in the
        # order conv0's per-frame terms are summed.
        run_layers(twin.layers, x)
        dout = grad
        for layer in reversed(twin.layers):
            dout = layer.backward(dout)
        assert dout.shape == x.shape
        for got, want in zip(net.gradients(), twin.gradients(), strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-12)


def run_layers(layers, x: np.ndarray) -> np.ndarray:
    for layer in layers:
        x = layer.forward(x)
    return x


class TestFirstStagePerFrame:
    @pytest.mark.parametrize("size", [7, 8, 16, 64])
    @pytest.mark.parametrize("batch", [1, 3, 10])
    def test_forward_matches_full_batch_layers(self, size, batch):
        cfg = NetworkConfig(3, 2, seed=40)
        x = np.random.default_rng(41).uniform(0.0, 1.0, (batch, 3, size, size))
        got = Network(cfg).forward(x)
        want = run_layers(Network(cfg).layers, x)
        if size * size % 16 == 0 or batch == 1:
            assert np.array_equal(got, want)
        else:
            # A 7x7 frame is 49 conv0 columns.  OpenBLAS rounds the last
            # columns of a product whose width is no multiple of its kernel's
            # differently, so a frame's columns alone and inside the batch's
            # longer product can differ in the last bit.
            first = Network(cfg).layers
            stage0 = np.concatenate([run_layers(first[:2], frame[None]) for frame in x])
            assert np.array_equal(got, run_layers(first[2:], stage0))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_first_relu_mask_covers_the_batch(self):
        cfg = NetworkConfig(3, 2, seed=42)
        net = Network(cfg)
        x = np.random.default_rng(43).uniform(0.0, 1.0, (10, 3, 64, 64))
        out = net.forward(x)
        conv0_out = Network(cfg).layers[0].forward(x)
        relu = net.layers[1]
        assert relu.mask.shape == conv0_out.shape == (10, 8, 64, 64)
        assert np.array_equal(relu.mask, conv0_out > 0)
        net.backward(np.ones_like(out))
        assert np.array_equal(relu.mask, conv0_out > 0)

    def test_training_step_working_set(self):
        # One batch-10 64x64 step peaks below the batch's conv0 column matrix
        # (27 x 40 960 float64), which the first stage never builds, whether
        # the batch is float64 network units or uint8 planes.
        net = Network(NetworkConfig(3, 2, seed=44))
        optimizer = Adam(net.parameters(), 1e-4)
        rng = np.random.default_rng(45)
        x = rng.uniform(0.0, 1.0, (10, 3, 64, 64))
        y = rng.standard_normal((10, 2))
        planes = rng.integers(0, 256, x.shape, dtype=np.uint8)

        def step(batch):
            _, grad = mse_loss(net.forward(batch), y)
            net.backward(grad)
            optimizer.step(net.gradients())

        for batch in (x, planes):
            step(batch)
            tracemalloc.start()
            try:
                step(batch)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 27 * 10 * 64 * 64 * 8
        # After a uint8 forward the network keeps the uint8 batch and one
        # frame's conv0 window, not a float64 copy of the batch.
        net.forward(planes)
        assert held_float64_bytes(net) < planes.size * 8

    def test_network_keeps_the_uint8_batch(self):
        # The network holds the uint8 batch itself; conv0 caches only the
        # last frame it read, mapped to network units.
        net = Network(NetworkConfig(3, 2, seed=49))
        planes = np.random.default_rng(49).integers(0, 256, (3, 3, 16, 16), dtype=np.uint8)
        net.forward(planes)
        assert np.shares_memory(net._x, planes)
        cached = net.layers[0]._cache
        assert cached.shape == (1, 3, 16, 16) and cached.dtype == np.float64
        assert cached.tobytes() == in_units(planes[-1:]).tobytes()


def held_float64_bytes(net: Network) -> int:
    """Bytes of the distinct float64 buffers the network and its layers reference."""
    owners = {}
    for obj in [net] + net.layers:
        for value in vars(obj).values():
            for a in value if isinstance(value, (list, tuple)) else [value]:
                if isinstance(a, np.ndarray):
                    while getattr(a, "base", None) is not None:  # a view's base, or a window's
                        a = a.base
                    owners[id(a)] = a
    return sum(a.nbytes for a in owners.values() if a.dtype == np.float64)


class TestUint8Input:
    """uint8 planes are mapped onto [0, 1] inside forward, with the bits in_units gives."""

    @settings(max_examples=30, deadline=None)
    @given(
        batch=st.sampled_from([1, 3, 10]),
        shape=st.sampled_from([(8, 8), (16, 16), (48, 80)]),
        channels=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_forward_and_gradients_equal_normalized_input(self, batch, shape, channels, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 256, (batch, channels) + shape, dtype=np.uint8)
        cfg = NetworkConfig(channels, 2, seed=seed)
        net, twin = Network(cfg), Network(cfg)
        out = net.forward(x)
        assert out.tobytes() == twin.forward(in_units(x)).tobytes()
        assert np.array_equal(net.layers[1].mask, twin.layers[1].mask)
        dout = rng.standard_normal(out.shape)
        net.backward(dout)
        twin.backward(dout)
        for got, want in zip(net.gradients(), twin.gradients(), strict=True):
            assert got.tobytes() == want.tobytes()

    def test_train_equals_train_on_normalized_input(self):
        rng = np.random.default_rng(50)
        # Seven frames at batch 3: two full batches and a ragged one of 1.
        x = rng.integers(0, 256, (7, 3, 16, 16), dtype=np.uint8)
        val_x = rng.integers(0, 256, (4, 3, 16, 16), dtype=np.uint8)
        y, val_y = rng.normal(0.0, 2.0, (7, 2)), rng.normal(0.0, 2.0, (4, 2))
        cfg = TrainConfig(learning_rate=1e-3, batch_size=3, epochs=3, seed=51)
        runs = []
        for xs, val_xs in [(x, val_x), (in_units(x), in_units(val_x))]:
            net = Network(NetworkConfig(3, 2, seed=52))
            result = train(net, xs, y, cfg, (val_xs, val_y))
            runs.append((repr(result.train_loss), repr(result.val_loss),
                         b"".join(p.tobytes() for p in net.parameters())))
        assert runs[0] == runs[1]

    def test_conv0_reads_bytes_0_and_255_as_0_and_1(self):
        net = Network(NetworkConfig(1, 2))
        net.forward(np.array([[[[0, 255], [128, 7]]]], dtype=np.uint8))
        cached = net.layers[0]._cache
        assert cached.dtype == np.float64
        assert cached[0, 0, 0, 0] == 0.0 and cached[0, 0, 0, 1] == 1.0

    def test_full_scale_planes_are_ones(self):
        net = Network(NetworkConfig(3, 2))
        got = net.forward(np.full((1, 3, 8, 8), 255, np.uint8))
        assert np.array_equal(got, net.forward(np.ones((1, 3, 8, 8))))

    @pytest.mark.parametrize("dtype", ["int64", "int8", "uint16", "bool"])
    def test_other_non_floating_dtypes_refused(self, dtype):
        net = Network(NetworkConfig(3, 2))
        with pytest.raises(ValueError, match=f"dtype {dtype}$") as exc:
            net.forward(np.ones((1, 3, 8, 8), dtype))
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("dtype", ["uint8", "float64"])
    def test_empty_batch_names_its_shape(self, dtype):
        with pytest.raises(ValueError, match=re.escape("(0, 3, 8, 8)")):
            Network(NetworkConfig(3, 2)).forward(np.zeros((0, 3, 8, 8), dtype))

    @pytest.mark.parametrize("dtype", ["uint8", "float64"])
    @pytest.mark.parametrize("shape", [(1, 3, 0, 64), (2, 3, 64, 0), (1, 3, 0, 0)])
    def test_zero_side_names_its_shape(self, dtype, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))) as exc:
            Network(NetworkConfig(3, 2)).forward(np.zeros(shape, dtype))
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("bad", ["training", "validation"])
    def test_train_checks_dtype_before_fitting_the_scaler(self, bad):
        # Constant labels would fail TargetScaler.fit; the dtype is refused first.
        good, wrong = np.ones((4, 2, 8, 8), np.uint8), np.ones((4, 2, 8, 8), np.int64)
        x, val_x = (wrong, good) if bad == "training" else (good, wrong)
        y = np.ones((4, 2))
        with pytest.raises(ValueError, match="dtype int64") as exc:
            train(Network(NetworkConfig(2, 2)), x, y, TrainConfig(), (val_x, y))
        assert not isinstance(exc.value, DegenerateLabelsError)


class TestShapeAlgebra:
    @pytest.mark.parametrize("size", [8, 16, 32, 48, 64, 512])
    def test_default_config_is_consistent(self, size):
        net = Network(NetworkConfig(3, 2))
        assert net.forward(np.zeros((2, 3, size, size))).shape == (2, 2)

    @pytest.mark.parametrize("size", [7, 8, 64])
    def test_parameter_shapes_match_network(self, size):
        cfg = NetworkConfig(2, 3)
        assert Network(cfg).forward(np.zeros((1, 2, size, size))).shape == (1, 3)

    def test_parameter_count(self):
        # 224 + 1 168 + 4 640 conv weights and biases, 1 056 hidden, 66 output.
        assert sum(p.size for p in Network(NetworkConfig(3, 2)).parameters()) == 7154

    @pytest.mark.parametrize("shape,planes", [
        ((64, 64), [(64, 64), (16, 16), (4, 4)]),
        ((32, 64), [(32, 64), (8, 16), (2, 4)]),
        ((48, 80), [(48, 80), (12, 20), (3, 5)]),
        ((8, 12), [(8, 12), (2, 3), (2, 3)]),
    ], ids=["64x64", "32x64", "48x80", "8x12"])
    def test_planes_each_conv_reads(self, shape, planes):
        # No Conv2d reads a 1x1 plane, where only its centre taps would see data.
        net = Network(NetworkConfig(3, 2, seed=46))
        assert net.forward(np.zeros((2, 3) + shape)).shape == (2, 2)
        convs = [layer for layer in net.layers if isinstance(layer, Conv2d)]
        assert [conv._cache.shape[2:4] for conv in convs] == planes

    def test_non_square_gradients(self):
        # 8x12 pools by 4 to 2x3, passes 2x3 through and averages it whole.
        net = Network(NetworkConfig(2, 3, seed=47))
        rng = np.random.default_rng(48)
        x = rng.uniform(0.0, 1.0, (3, 2, 8, 12))
        checked, skipped = check_network(net, x, rng.standard_normal((3, 3)), rng)
        assert checked > 100
        assert skipped <= checked // 10

    def test_forward_shape_matches_config(self):
        cfg = NetworkConfig(1, 3, seed=2)
        net = Network(cfg)
        out = net.forward(np.zeros((5, 1, 16, 16)))
        assert out.shape == (5, 3)

    def test_channel_count_bounds(self):
        with pytest.raises(ValueError):
            NetworkConfig(4, 2)

    @pytest.mark.parametrize("outputs", [4, 200_000])
    def test_output_count_bounds(self, outputs):
        # 1-3 are the coefficient counts of the R-QP forms.
        with pytest.raises(ValueError, match=f"outputs must be 1, 2, or 3, got {outputs}"):
            NetworkConfig(2, outputs)

    @pytest.mark.parametrize("name, value", [
        ("input_channels", 2.0), ("input_channels", True), ("outputs", 2.5), ("outputs", True),
        ("seed", 0.5), ("seed", -1),
    ])
    def test_integer_fields(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            NetworkConfig(**{"input_channels": 2, "outputs": 2, name: value})

    def test_input_shape_validated(self):
        net = Network(NetworkConfig(2, 2))
        with pytest.raises(ValueError, match="shape"):
            net.forward(np.zeros((1, 3, 8, 8)))
        with pytest.raises(ValueError, match="shape"):
            net.forward(np.zeros((2, 16, 16)))
        # Only the channel count is fixed: any height and width is read.
        assert net.forward(np.zeros((1, 2, 16, 16))).shape == (1, 2)


class TestForward:
    def test_deterministic(self):
        net = Network(NetworkConfig(2, 2, seed=4))
        x = np.random.default_rng(0).uniform(0, 1, (2, 2, 8, 8))
        assert np.array_equal(net.forward(x), net.forward(x))

    def test_zero_weights_zero_output(self):
        net = Network(NetworkConfig(2, 2, seed=4))
        for p in net.parameters():
            p[...] = 0.0
        x = np.random.default_rng(0).uniform(0, 1, (3, 2, 8, 8))
        assert (net.forward(x) == 0).all()

    def test_seeded_init_reproducible(self):
        a = Network(NetworkConfig(2, 2, seed=11))
        b = Network(NetworkConfig(2, 2, seed=11))
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)

    @pytest.mark.parametrize("seed,digest", [
        (0, "ff99341d7f40210e447e492344bf89f3f26b147997e1846886b7c59209fb5207"),
        (7, "8d49f9d0a51d04e2e76f5db513d2fe6d92f3f8fbfdae1890921da2e87fb1cfff"),
        (2020, "a5c337f226c693a4e7f83b135d0b31b12073c0e66941b2e3d6d65fc86310cacb"),
    ])
    def test_initial_parameters_match_four_stage_network(self, seed, digest):
        # SHA-256 of the float64 parameters a 64x64, 3-channel, 2-output network
        # drew when it had a fourth 3x3 conv stage on its 1x1 plane: conv0..conv2,
        # that conv's centre taps [:, :, 1, 1] and bias, then the dense layer.
        h = hashlib.sha256()
        for p in Network(NetworkConfig(3, 2, seed=seed)).parameters():
            h.update(np.ascontiguousarray(p, dtype=np.float64).tobytes())
        assert h.hexdigest() == digest

    def test_conv_on_one_pixel_is_dense_of_centre_taps(self):
        rng = np.random.default_rng(51)
        conv = Conv2d(32, 32, rng=np.random.default_rng(52))
        conv.b = rng.standard_normal(32)
        dense = Dense(32, 32, rng=np.random.default_rng(53))
        dense.w, dense.b = conv.w[:, :, 1, 1].copy(), conv.b.copy()
        for batch in (1, 10):
            x = rng.standard_normal((batch, 32, 1, 1))
            want = conv.forward(x)[:, :, 0, 0]
            assert np.max(np.abs(dense.forward(x) - want)) <= 1e-15 * np.max(np.abs(want))


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
        net = Network(NetworkConfig(2, 2, seed=0))
        result = train(net, *data, TrainConfig(learning_rate=0.0, epochs=5, seed=0))
        assert len(set(result.train_loss)) == 1

    def test_loss_decreases(self):
        rng = np.random.default_rng(4)
        data = toy_dataset(rng, 8)
        net = Network(NetworkConfig(2, 2, seed=1))
        result = train(net, *data, TrainConfig(learning_rate=1e-3, epochs=40, seed=1))
        assert result.train_loss[-1] < result.train_loss[0]

    def test_memorizes_single_sample(self):
        rng = np.random.default_rng(5)
        data = toy_dataset(rng, 1)
        net = Network(NetworkConfig(2, 2, seed=2))
        result = train(net, *data, TrainConfig(epochs=200, seed=2))
        assert result.train_loss[-1] < 1e-3 * result.train_loss[0]

    def test_validation_history(self):
        rng = np.random.default_rng(6)
        data = toy_dataset(rng, 6)
        val = toy_dataset(rng, 2)
        net = Network(NetworkConfig(2, 2, seed=3))
        result = train(net, *data, TrainConfig(epochs=4, seed=3), val)
        assert len(result.train_loss) == 4 and len(result.val_loss) == 4

    def test_seeded_determinism(self):
        rng = np.random.default_rng(7)
        data = toy_dataset(rng, 6)
        histories = []
        for _ in range(2):
            net = Network(NetworkConfig(2, 2, seed=4))
            histories.append(train(net, *data, TrainConfig(epochs=6, seed=4)).train_loss)
        assert histories[0] == histories[1]

    def test_epoch_telemetry(self):
        rng = np.random.default_rng(19)
        data = toy_dataset(rng, 12)
        net = Network(NetworkConfig(2, 2, seed=18))
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
        long, short = (Network(NetworkConfig(2, 2, seed=21)) for _ in range(2))
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
        net = Network(NetworkConfig(2, 2, seed=5))
        with pytest.raises(TrainingError, match="non-finite"):
            train(net, *data, TrainConfig(learning_rate=1e30, epochs=10, seed=5))

    @pytest.mark.parametrize("learning_rate", [np.nan, np.inf, True, np.True_, "1e-3", None, 1j])
    def test_learning_rate_must_be_finite(self, learning_rate):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=learning_rate)

    @pytest.mark.parametrize("name, value", [
        ("epochs", 2.5), ("batch_size", 2.5), ("batch_size", True), ("epochs", np.float64(3.0)),
        ("seed", 1.5), ("seed", -1), ("seed", np.int64(-2)),
    ])
    def test_integer_fields(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            TrainConfig(**{name: value})

    def test_numpy_integers_accepted(self):
        cfg = TrainConfig(batch_size=np.int32(4), epochs=np.uint8(2), seed=np.int64(7))
        assert (cfg.batch_size, cfg.epochs, cfg.seed) == (4, 2, 7)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_weights_abort(self):
        # One batch, one epoch: the loss is checked before the only step, so
        # only a check of the weights themselves sees what the step did.
        data = toy_dataset(np.random.default_rng(38), 4)
        net = Network(NetworkConfig(2, 2, seed=39))
        cfg = TrainConfig(epochs=1, batch_size=4)
        object.__setattr__(cfg, "learning_rate", np.inf)  # past TrainConfig's own check
        with pytest.raises(TrainingError, match="non-finite weights"):
            train(net, *data, cfg)

    def test_empty_dataset_rejected(self):
        net = Network(NetworkConfig(2, 2, seed=6))
        with pytest.raises(ValueError, match="empty"):
            train(net, np.empty((0, 2, 8, 8)), np.empty((0, 2)), TrainConfig())

    @pytest.mark.parametrize("short", ["training", "validation"])
    def test_label_rows_must_match_inputs(self, short):
        x, y = toy_dataset(np.random.default_rng(9), 4)
        net = Network(NetworkConfig(2, 2, seed=7))
        train_y, val_y = (y[:1], y) if short == "training" else (y, y[:1])
        with pytest.raises(ValueError, match="4 rows"):
            train(net, x, train_y, TrainConfig(), (x, val_y))

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        data = toy_dataset(rng, 2, size=16)
        net = Network(NetworkConfig(3, 2, seed=8))
        with pytest.raises(ValueError, match="does not match"):
            train(net, *data, TrainConfig())

    def test_label_width_must_match_outputs(self):
        rng = np.random.default_rng(11)
        data = toy_dataset(rng, 4, outputs=3)
        net = Network(NetworkConfig(2, 2, seed=9))
        with pytest.raises(ValueError, match="coefficients"):
            train(net, *data, TrainConfig())

    def test_mean_predictor_baseline(self, tiny_corpus):
        ids = [md.frame_id for _, md in tiny_corpus]
        split = DatasetSplit(train=tuple(ids[:7]), validation=tuple(ids[7:11]), test=(ids[11],))
        run = run_training(tiny_corpus, split, "quadratic", True, ("rec",),
                           TrainConfig(epochs=1, seed=10))
        by_id = {md.frame_id: md for _, md in tiny_corpus}
        val_y = [make_labels(md, "quadratic", True).coeffs
                 for md in (by_id[i] for i in split.validation)]
        z = run.scaler.transform(np.array(val_y))
        assert run.baseline_val_mse == float(np.mean(z * z))

    @pytest.mark.parametrize("batch_size", [1, 3, 7])
    def test_val_loss_is_mse_loss_over_the_whole_set(self, batch_size):
        # Frozen weights and 7 validation frames: batches of 3 end in a ragged batch of 1.
        rng = np.random.default_rng(12)
        data = toy_dataset(rng, 10)
        val_x, val_y = toy_dataset(rng, 7)
        net = Network(NetworkConfig(2, 2, seed=10))
        cfg = TrainConfig(learning_rate=0.0, batch_size=batch_size, epochs=2, seed=10)
        result = train(net, *data, cfg, (val_x, val_y))
        want = mse_loss(net.forward(val_x), result.scaler.transform(val_y))[0]
        assert result.val_loss == pytest.approx([want, want], rel=1e-15, abs=0.0)
        if batch_size == 7:
            assert result.val_loss == [want, want]


class TestPredictParams:
    """TrainedRun.params, through evaluate.net_predictor: a frame's stack, one forward
    pass, inverse standardization."""

    def make_trained(self, outputs=2):
        rng = np.random.default_rng(13)
        data = toy_dataset(rng, 4, outputs=outputs)
        net = Network(NetworkConfig(2, outputs, seed=11))
        result = train(net, *data, TrainConfig(epochs=1, seed=11))
        return net, result.scaler

    def test_round_trip_with_scaler(self):
        net, scaler = self.make_trained()
        frame, md = toy_frame(np.random.default_rng(16))
        params = net_predictor(net, scaler, "quadratic", True, TOY_CHANNELS)(frame, md)
        x = in_units(stack_from_coding(frame, md, TOY_CHANNELS))
        assert np.array_equal(params.coeffs, scaler.inverse(net.forward(x[None])[0]))
        assert params.spec == TOY_SPEC

    @pytest.mark.parametrize(
        "form,fastened,count",
        [("linear", False, 2), ("linear", True, 1), ("quadratic", False, 3), ("quadratic", True, 2)],
    )
    def test_output_width_per_spec(self, form, fastened, count):
        rng = np.random.default_rng(14)
        net = Network(NetworkConfig(2, count, seed=12))
        scaler = TargetScaler.fit(rng.normal(0, 1, (5, count)))
        params = net_predictor(net, scaler, form, fastened, TOY_CHANNELS)(*toy_frame(rng))
        assert len(params.coeffs) == count

    def test_spec_width_mismatch(self):
        net, scaler = self.make_trained(outputs=2)
        with pytest.raises(ValueError, match="takes 3 coefficients but the network emits 2"):
            net_predictor(net, scaler, "quadratic", False, TOY_CHANNELS)

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


STORED_ARRAYS = ["scaler_mean", "scaler_scale"] + [f"param_{i}" for i in range(10)]


class TestCheckpoint:
    def test_member_list_is_pinned(self, tmp_path):
        path = tmp_path / "c.npz"
        save_checkpoint(path, Network(NetworkConfig(3, 2)), TargetScaler(np.zeros(2), np.ones(2)))
        with zipfile.ZipFile(path) as archive:
            assert archive.namelist() == [f"{name}.npy" for name in ["meta"] + STORED_ARRAYS]

    @pytest.mark.parametrize("name", STORED_ARRAYS)
    @pytest.mark.parametrize("fault", ["nan", "cut"])
    def test_every_stored_array_is_checked(self, tmp_path, name, fault):
        path = tmp_path / "c.npz"
        save_checkpoint(path, Network(NetworkConfig(3, 2)), TargetScaler(np.zeros(2), np.ones(2)))
        spoil = {"nan": lambda a: np.full_like(a, np.nan), "cut": lambda a: a.ravel()[:1]}[fault]
        _rewrite(path, lambda arrays: arrays.update({name: spoil(arrays[name])}))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        message = str(info.value)
        assert "\n" not in message and str(path) in message and f"checkpoint {name} " in message

    @pytest.mark.parametrize("name,spoil,dtype", [
        ("scaler_mean", lambda a: a + 2j, "complex128"),
        ("param_3", lambda a: np.full(a.shape, "w"), "<U1"),
    ], ids=["complex_scaler_mean", "string_param_3"])
    def test_stored_array_dtype_is_checked(self, tmp_path, name, spoil, dtype):
        path = tmp_path / "c.npz"
        save_checkpoint(path, Network(NetworkConfig(3, 2)), TargetScaler(np.zeros(2), np.ones(2)))
        _rewrite(path, lambda arrays: arrays.update({name: spoil(arrays[name])}))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == (
            f"{path}: checkpoint {name} has dtype {dtype}; expected float64")

    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        data = toy_dataset(rng, 5)
        net = Network(NetworkConfig(2, 2, seed=14))
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
        net = Network(NetworkConfig(2, 2, seed=15))
        path = tmp_path / "x.npz"
        save_checkpoint(path, net, TargetScaler(mean, scale))
        with pytest.raises(CheckpointError, match="checkpoint scaler") as info:
            load_checkpoint(path)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("version", [1, 2, 3, 999])
    def test_version_guard(self, tmp_path, version):
        rng = np.random.default_rng(18)
        net = Network(NetworkConfig(2, 2, seed=16))
        scaler = TargetScaler.fit(rng.normal(0, 1, (4, 2)))
        path = tmp_path / "c.npz"
        save_checkpoint(path, net, scaler)
        _edit_meta(lambda doc: {**doc, "format_version": version})(path)
        with pytest.raises(CheckpointError, match="format") as info:
            load_checkpoint(path)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("corrupt", MALFORMED_CHECKPOINTS.values(),
                             ids=MALFORMED_CHECKPOINTS.keys())
    def test_malformed_file_raises_checkpoint_error(self, tmp_path, corrupt):
        net = Network(NetworkConfig(2, 2, seed=19))
        path = tmp_path / "m.npz"
        save_checkpoint(path, net, TargetScaler(np.zeros(2), np.ones(2)))
        corrupt(path)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        message = str(info.value)
        assert "\n" not in message and str(path) in message

    def test_oversized_config_refused_before_building(self, tmp_path):
        # NetworkConfig refuses the outputs before Network would allocate an
        # output layer of 200 000 * 32 floats (and its gradient).
        path = tmp_path / "big.npz"
        save_checkpoint(path, Network(NetworkConfig(2, 2, seed=20)),
                        TargetScaler(np.zeros(2), np.ones(2)))
        _edit_meta(lambda doc: {**doc, "config": {**doc["config"], "outputs": 200_000}})(path)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="outputs"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
