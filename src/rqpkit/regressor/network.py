"""Size-free regression network: three conv stages, a global average, two dense layers.

Each conv stage is a 3x3 convolution -> rectifier -> average pooling, with
8/16/32 output channels.  The first two stages pool by 4, or by the
largest of 4, 2, 1 that divides both sides of their plane; the third
averages its whole plane (a global average pool, Lin et al., "Network in
Network", 2014).  A hidden dense layer with a rectifier and an output
dense layer map the 32 averages to one value per model coefficient, so
the network reads frames of any height and width.  The architecture is
fixed and deliberately small so it trains on a CPU in minutes: `Network`
states it once, and a `NetworkConfig` (1-3 input channels, 1-3 outputs)
builds at most ~7.2 K parameters, so a checkpoint's loader builds the
network before it reads the stored weights into it.

The network reads a batch of feature stacks, (batch, C, H, W).  A uint8
batch holds 8-bit planes; `_in_units`, the one map from planes to network
units, multiplies each frame by 1/255 into float64 as conv0 reads it, so
no float64 copy of the batch is made.  A floating batch is taken as
already in network units.  Any other dtype, and a batch with no pixel
(no frame, or a side of 0), is a ValueError.

`Network` runs the first stage (conv0, its rectifier and its pool) one
frame at a time, for every batch size, and the later layers on the whole
batch.  At 64x64 a frame's first-stage column matrix is 885 KB and its
activations 262 KB, so they stay in a core's cache, where the whole
batch's would not.  Forward keeps a reference to its input batch, not a
float64 copy of it.  Backward multiplies each frame's pooled gradient by
that frame's row of the first rectifier's batch-wide `mask` and sums
conv0's `weight_gradients` of that frame, mapped again from the batch, in
frame order.  So the batch must not change between a forward and its
backward.  After a forward, the first rectifier's `mask` covers the whole
batch, so callers can read every frame's kinks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..checks import check_int
from .layers import AvgPool2d, Conv2d, Dense, GlobalAvgPool2d, ReLU

CONV_CHANNELS = (8, 16, 32)
POOL = 4
STAGE = 3  # layers per conv stage: the conv, its rectifier, its pool


def _in_units(frame: np.ndarray) -> np.ndarray:
    """frame in network units: uint8 planes onto [0, 1] as float64, floating values as they are."""
    return frame * (1.0 / 255.0) if frame.dtype == np.uint8 else frame


def check_input_dtype(x: np.ndarray) -> None:
    """Refuse a batch that is neither uint8 planes nor floating network units."""
    if x.dtype != np.uint8 and not np.issubdtype(x.dtype, np.floating):
        raise ValueError(f"network input must be uint8 planes or floating network units, "
                         f"got dtype {x.dtype}")


@dataclass(frozen=True)
class NetworkConfig:
    """The three values a caller chooses; the layers follow from them.

    `outputs` is a coefficient count of an R-QP form, 1 to 3, so every
    accepted config builds a network of at most ~7.2 K parameters.
    """

    input_channels: int
    outputs: int
    seed: int = 0

    def __post_init__(self):
        check_int("input_channels", self.input_channels, 1)
        check_int("outputs", self.outputs, 1)
        check_int("seed", self.seed, 0)
        if self.input_channels not in (1, 2, 3):
            raise ValueError(f"input_channels must be 1, 2, or 3, got {self.input_channels}")
        if self.outputs not in (1, 2, 3):
            raise ValueError(f"outputs must be 1, 2, or 3, got {self.outputs}")


class Network:
    """The learnable stack; parameters update in place via .parameters().

    `learned` names the layers that hold parameters (conv0..conv2, hidden,
    dense); parameters() and gradients() list their arrays in that order.
    """

    def __init__(self, config: NetworkConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.learned, self.layers, in_ch = {}, [], config.input_channels
        for k, out_ch in enumerate(CONV_CHANNELS):
            conv = self.learned[f"conv{k}"] = Conv2d(in_ch, out_ch, rng=rng)
            self.layers += [conv, ReLU(), AvgPool2d(POOL)]
            in_ch = out_ch
        self.layers[-1] = GlobalAvgPool2d()
        # hidden = the centre taps of the 1x1-plane conv stage it replaced: seeds keep their outputs.
        taps = Conv2d(in_ch, in_ch, rng=rng).w[:, :, 1, 1].copy()
        head = Dense(in_ch, config.outputs, rng=rng)
        hidden = Dense(in_ch, in_ch, rng=rng)
        hidden.w = taps
        self.learned.update(hidden=hidden, dense=head)
        self.layers += [hidden, ReLU(), head]
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.config.input_channels:
            raise ValueError(f"input shape {x.shape} does not match "
                             f"(batch, {self.config.input_channels}, height, width)")
        if 0 in x.shape:
            raise ValueError(f"input shape {x.shape} holds no pixel")
        check_input_dtype(x)
        conv, relu, pool = self.layers[:STAGE]
        mask = np.empty((len(x), conv.out_channels) + x.shape[2:], dtype=bool)
        outs, self._x = [], x
        for i in range(len(x)):
            outs.append(pool.forward(relu.forward(conv.forward(_in_units(x[i : i + 1])))))
            mask[i] = relu.mask[0]
        relu.mask = mask
        out = np.concatenate(outs)
        for layer in self.layers[STAGE:]:
            out = layer.forward(out)
        return out

    def backward(self, dout: np.ndarray) -> None:
        """Store every layer's parameter gradients.

        Nothing reads the gradient with respect to the input planes, so the
        first conv stage computes parameter gradients only.
        """
        for layer in reversed(self.layers[STAGE:]):
            dout = layer.backward(dout)
        conv, relu, pool = self.layers[:STAGE]
        dw, db = np.zeros_like(conv.w), np.zeros_like(conv.b)
        for i in range(len(self._x)):
            d = pool.backward(dout[i : i + 1]) * relu.mask[i : i + 1]
            frame_dw, frame_db = conv.weight_gradients(_in_units(self._x[i : i + 1]), d)
            dw += frame_dw
            db += frame_db
        conv.dw, conv.db = dw, db

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.learned.values() for p in layer.parameters()]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.learned.values() for g in layer.gradients()]
