"""Network layers with explicit forward and backward passes.

Every layer caches what its backward pass needs during forward; backward
consumes the cache, stores parameter gradients on the layer (dw/db), and
returns the gradient with respect to its input (which Conv2d can skip).
All math is float64 so the analytic gradients can be checked against
central finite differences.
"""

from __future__ import annotations

import numpy as np


def _windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Sliding (batch, ch, out_h, out_w, kernel, kernel) view of a padded input."""
    b, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    sb, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        (b, c, out_h, out_w, kernel, kernel),
        (sb, sc, stride * sh, stride * sw, sh, sw),
        writeable=False,
    )


class Conv2d:
    """2-d convolution with symmetric zero padding (kernel // 2 per side)."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int = 3,
                 stride: int = 1, *, rng: np.random.Generator):
        if kernel < 1 or kernel % 2 == 0:
            raise ValueError(f"kernel must be odd and positive, got {kernel}")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        scale = 1.0 / np.sqrt(in_channels * kernel * kernel)
        self.w = rng.uniform(-scale, scale, (out_channels, in_channels, kernel, kernel))
        self.b = np.zeros(out_channels)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        pad = self.kernel // 2
        padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        win = _windows(padded, self.kernel, self.stride)
        out = np.einsum("bchwij,ocij->bohw", win, self.w, optimize=True)
        out += self.b[None, :, None, None]
        self._cache = (x.shape, win)
        return out

    def backward(self, dout: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Store dw/db; return the input gradient, or None when input_grad is False."""
        x_shape, win = self._cache
        self.dw = np.einsum("bchwij,bohw->ocij", win, dout, optimize=True)
        self.db = dout.sum(axis=(0, 2, 3))
        if not input_grad:
            return None
        pad = self.kernel // 2
        b, c, h, w = x_shape
        _, _, out_h, out_w = dout.shape
        dx_padded = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
        # One contraction gives every tap's contribution; col2im scatters
        # each back onto the padded input grid.
        taps = np.einsum("bohw,ocij->ijbchw", dout, self.w, optimize=True)
        for i in range(self.kernel):
            for j in range(self.kernel):
                dx_padded[
                    :, :,
                    i : i + self.stride * out_h : self.stride,
                    j : j + self.stride * out_w : self.stride,
                ] += taps[i, j]
        return dx_padded[:, :, pad : pad + h, pad : pad + w]

    def parameters(self):
        return [self.w, self.b]

    def gradients(self):
        return [self.dw, self.db]


class ReLU:
    """Rectifier; gradient is the positive-input mask.

    The mask survives until the next forward pass, so callers can tell
    whether a finite-difference probe crossed the kink.
    """

    def __init__(self):
        self.mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self.mask = x > 0
        return np.maximum(x, 0.0)  # NaN propagates

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return np.where(self.mask, dout, 0.0)

    def parameters(self):
        return []

    def gradients(self):
        return []


class AvgPool2d:
    """Non-overlapping average pooling over window x window blocks."""

    def __init__(self, window: int):
        if window < 2:
            raise ValueError(f"pooling window must be >= 2, got {window}")
        self.window = window
        self._in_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        b, c, h, w = x.shape
        if h % self.window or w % self.window:
            raise ValueError(f"pooling window {self.window} does not divide {h}x{w}")
        self._in_shape = x.shape
        return x.reshape(b, c, h // self.window, self.window, w // self.window, self.window).mean(
            axis=(3, 5)
        )

    def backward(self, dout: np.ndarray) -> np.ndarray:
        shape = self._in_shape
        spread = dout / (self.window * self.window)
        spread = np.repeat(np.repeat(spread, self.window, axis=2), self.window, axis=3)
        return spread.reshape(shape)

    def parameters(self):
        return []

    def gradients(self):
        return []


class Dense:
    """Fully connected layer over the flattened input: y = x.reshape(batch, -1) @ w.T + b."""

    def __init__(self, in_features: int, out_features: int, *, rng: np.random.Generator):
        scale = 1.0 / np.sqrt(in_features)
        self.w = rng.uniform(-scale, scale, (out_features, in_features))
        self.b = np.zeros(out_features)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._x = None
        self._in_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._in_shape = x.shape
        self._x = x.reshape(len(x), -1)
        return self._x @ self.w.T + self.b

    def backward(self, dout: np.ndarray) -> np.ndarray:
        self.dw = dout.T @ self._x
        self.db = dout.sum(axis=0)
        return (dout @ self.w).reshape(self._in_shape)

    def parameters(self):
        return [self.w, self.b]

    def gradients(self):
        return [self.dw, self.db]
