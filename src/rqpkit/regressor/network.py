"""Five-layer regression network: four conv stages and a dense readout.

Each conv stage is convolution -> rectifier -> average pooling; the dense
layer consumes the flattened final volume and emits one value per model
coefficient.  The architecture is deliberately small so it trains on a
CPU in minutes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .layers import AvgPool2d, Conv2d, Dense, Flatten, ReLU

DEFAULT_CONV_CHANNELS = (8, 16, 32, 32)


@dataclass(frozen=True)
class ConvLayerSpec:
    """One conv stage: channel count, odd kernel, stride, pooling window."""

    out_channels: int
    kernel: int = 3
    stride: int = 1
    pool: int = 4

    def __post_init__(self):
        if self.out_channels < 1:
            raise ValueError(f"out_channels must be positive, got {self.out_channels}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd and positive, got {self.kernel}")
        if self.stride < 1 or self.pool < 1:
            raise ValueError(f"stride and pool must be >= 1, got {self}")


@dataclass(frozen=True)
class NetworkConfig:
    input_channels: int
    input_size: int
    conv: tuple[ConvLayerSpec, ...]
    outputs: int
    seed: int = 0

    def __post_init__(self):
        if self.input_channels not in (1, 2, 3):
            raise ValueError(f"input_channels must be 1, 2, or 3, got {self.input_channels}")
        if self.input_size < 1:
            raise ValueError(f"input_size must be positive, got {self.input_size}")
        if len(self.conv) != 4:
            raise ValueError(f"exactly 4 conv stages are required, got {len(self.conv)}")
        if self.outputs < 1:
            raise ValueError(f"outputs must be >= 1, got {self.outputs}")
        self.spatial_sizes()  # raises if the shape chain breaks

    def spatial_sizes(self) -> list[int]:
        """Spatial size after each conv stage; validates the chain."""
        size = self.input_size
        sizes = []
        for i, spec in enumerate(self.conv):
            size = Conv2d.out_size(size, spec.kernel, spec.stride)
            if size < 1:
                raise ValueError(f"conv[{i}]: spatial size collapsed to {size}")
            if size % spec.pool:
                raise ValueError(
                    f"conv[{i}]: pooling window {spec.pool} does not divide size {size}"
                )
            size //= spec.pool
            sizes.append(size)
        return sizes

    @property
    def flat_features(self) -> int:
        return self.conv[-1].out_channels * self.spatial_sizes()[-1] ** 2

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "NetworkConfig":
        doc = json.loads(text)
        doc["conv"] = tuple(ConvLayerSpec(**c) for c in doc["conv"])
        return cls(**doc)


def _auto_pool(size: int) -> int:
    if size >= 4 and size % 4 == 0:
        return 4
    if size >= 2 and size % 2 == 0:
        return 2
    return 1


def default_config(input_channels: int, input_size: int, outputs: int,
                   seed: int = 0) -> NetworkConfig:
    """Stock architecture: 8/16/32/32 channels, 3x3 kernels, aggressive pooling.

    Pooling windows shrink automatically once the spatial size runs out, so
    the same recipe covers 512x512 production frames and 8x8 toy inputs.
    """
    size = input_size
    conv = []
    for out_channels in DEFAULT_CONV_CHANNELS:
        pool = _auto_pool(size)
        conv.append(ConvLayerSpec(out_channels=out_channels, pool=pool))
        size //= pool
    return NetworkConfig(
        input_channels=input_channels,
        input_size=input_size,
        conv=tuple(conv),
        outputs=outputs,
        seed=seed,
    )


class Network:
    """The learnable stack; parameters update in place via .parameters()."""

    def __init__(self, config: NetworkConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.layers = []
        in_ch = config.input_channels
        for spec in config.conv:
            self.layers.append(Conv2d(in_ch, spec.out_channels, spec.kernel, spec.stride, rng=rng))
            self.layers.append(ReLU())
            self.layers.append(AvgPool2d(spec.pool))
            in_ch = spec.out_channels
        self.layers.append(Flatten())
        self.layers.append(Dense(config.flat_features, config.outputs, rng=rng))

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
