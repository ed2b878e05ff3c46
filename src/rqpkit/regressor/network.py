"""Five-layer regression network: four conv stages and a dense readout.

Each conv stage is a 3x3 convolution -> rectifier -> average pooling, with
8/16/32/32 output channels and the pooling window chosen from the input
size; the dense layer consumes the flattened final volume and emits one
value per model coefficient.  The architecture is fixed and deliberately
small so it trains on a CPU in minutes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import AvgPool2d, Conv2d, Dense, Flatten, ReLU

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


class Network:
    """The learnable stack; parameters update in place via .parameters()."""

    def __init__(self, config: NetworkConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.layers = []
        in_ch, size = config.input_channels, config.input_size
        for out_ch in CONV_CHANNELS:
            # Pool as hard as the size allows, so one recipe covers 512x512
            # production frames and 8x8 toy inputs.
            pool = 4 if size % 4 == 0 else 2 if size % 2 == 0 else 1
            self.layers += [Conv2d(in_ch, out_ch, 3, rng=rng), ReLU(), AvgPool2d(pool)]
            in_ch, size = out_ch, size // pool
        self.layers.append(Flatten())
        self.layers.append(Dense(in_ch * size * size, config.outputs, rng=rng))

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.config.input_channels or (
            x.shape[2] != self.config.input_size or x.shape[3] != self.config.input_size
        ):
            raise ValueError(
                f"input shape {x.shape} does not match (batch, {self.config.input_channels}, "
                f"{self.config.input_size}, {self.config.input_size})"
            )
        out = x
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, dout: np.ndarray) -> None:
        """Store every layer's parameter gradients.

        Nothing reads the gradient with respect to the input planes, so the
        first conv stage computes parameter gradients only.
        """
        for layer in reversed(self.layers[1:]):
            dout = layer.backward(dout)
        self.layers[0].backward(dout, input_grad=False)

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.parameters()]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.gradients()]

    def set_parameters(self, values) -> None:
        params = self.parameters()
        if len(values) != len(params):
            raise ValueError(f"expected {len(params)} parameter arrays, got {len(values)}")
        for target, value in zip(params, values):
            if target.shape != value.shape:
                raise ValueError(f"parameter shape {value.shape} != expected {target.shape}")
            target[...] = value
