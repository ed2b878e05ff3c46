"""Five-layer regression network: four conv stages and a dense readout.

Each conv stage is a 3x3 convolution -> rectifier -> average pooling, with
8/16/32/32 output channels and the pooling window chosen from the input
size (a stage whose size allows no pooling has no pool layer); the dense
layer reads the flattened final volume and emits one value per model
coefficient.  The architecture is fixed and deliberately small so it
trains on a CPU in minutes.

`Network` runs the first stage (conv0, its rectifier and its pool when
there is one) one frame at a time, for every batch size, and the later
stages and the dense layer on the whole batch.  At 64x64 a frame's
first-stage column matrix is 885 KB and its activations 262 KB, so they
stay in a core's cache, where the whole batch's would not.  Forward keeps
each frame's conv0 window view for backward, which sums conv0's `dw`/`db`
over the frames in frame order.  After a forward, the first rectifier's
`mask` covers the whole batch, so callers can read every frame's kinks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import KERNEL, AvgPool2d, Conv2d, Dense, ReLU

CONV_CHANNELS = (8, 16, 32, 32)


@dataclass(frozen=True)
class NetworkConfig:
    """The four values a caller chooses; the conv stages follow from them."""

    input_channels: int
    input_size: int
    outputs: int
    seed: int = 0

    def __post_init__(self):
        if self.input_channels not in (1, 2, 3):
            raise ValueError(f"input_channels must be 1, 2, or 3, got {self.input_channels}")
        if self.input_size < 1:
            raise ValueError(f"input_size must be positive, got {self.input_size}")
        if self.outputs < 1:
            raise ValueError(f"outputs must be >= 1, got {self.outputs}")


def _stages(config: NetworkConfig) -> tuple[list[tuple[int, int, int]], int]:
    """Each conv stage's (in, out channels, pool window); the dense layer's input width."""
    stages, in_ch, size = [], config.input_channels, config.input_size
    for out_ch in CONV_CHANNELS:
        # Pool as hard as the size allows, so one recipe covers 512x512
        # production frames and 8x8 toy inputs.
        pool = 4 if size % 4 == 0 else 2 if size % 2 == 0 else 1
        stages.append((in_ch, out_ch, pool))
        in_ch, size = out_ch, size // pool
    return stages, in_ch * size * size


def parameter_shapes(config: NetworkConfig) -> list[tuple[int, ...]]:
    """Shapes of Network(config).parameters(), without building the network."""
    stages, features = _stages(config)
    shapes = []
    for in_ch, out_ch, _ in stages:
        shapes += [(out_ch, in_ch, KERNEL, KERNEL), (out_ch,)]
    return shapes + [(config.outputs, features), (config.outputs,)]


class Network:
    """The learnable stack; parameters update in place via .parameters()."""

    def __init__(self, config: NetworkConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.layers = []
        stages, features = _stages(config)
        for in_ch, out_ch, pool in stages:
            self.layers += [Conv2d(in_ch, out_ch, rng=rng), ReLU()]
            if pool > 1:
                self.layers.append(AvgPool2d(pool))
        self.layers.append(Dense(features, config.outputs, rng=rng))
        # How many layers the first stage has: conv0, its ReLU, its pool if any.
        self._stage0 = 3 if stages[0][2] > 1 else 2
        self._conv0_windows = []

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.config.input_channels or (
            x.shape[2] != self.config.input_size or x.shape[3] != self.config.input_size
        ):
            raise ValueError(
                f"input shape {x.shape} does not match (batch, {self.config.input_channels}, "
                f"{self.config.input_size}, {self.config.input_size})"
            )
        conv, relu = self.layers[:2]
        mask = np.empty((len(x), conv.out_channels) + x.shape[2:], dtype=bool)
        outs, self._conv0_windows = [], []
        for i, frame in enumerate(x):
            out = frame[None]
            for layer in self.layers[: self._stage0]:
                out = layer.forward(out)
            outs.append(out)
            self._conv0_windows.append(conv._cache)
            mask[i] = relu.mask[0]
        relu.mask = mask
        out = np.concatenate(outs)
        for layer in self.layers[self._stage0 :]:
            out = layer.forward(out)
        return out

    def backward(self, dout: np.ndarray) -> None:
        """Store every layer's parameter gradients.

        Nothing reads the gradient with respect to the input planes, so the
        first conv stage computes parameter gradients only.
        """
        for layer in reversed(self.layers[self._stage0 :]):
            dout = layer.backward(dout)
        conv, relu = self.layers[:2]
        mask = relu.mask
        dw, db = np.zeros_like(conv.w), np.zeros_like(conv.b)
        for i, win in enumerate(self._conv0_windows):
            # Point conv0's cache and the rectifier's mask at frame i.
            conv._cache, relu.mask = win, mask[i : i + 1]
            frame_dout = dout[i : i + 1]
            for layer in reversed(self.layers[1 : self._stage0]):
                frame_dout = layer.backward(frame_dout)
            conv.backward(frame_dout, input_grad=False)
            dw += conv.dw
            db += conv.db
        relu.mask = mask
        conv.dw, conv.db = dw, db

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.parameters()]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.gradients()]
