"""Network layers with explicit forward and backward passes.

Every layer caches what its backward pass needs during forward, until the
next forward; backward reads the cache, stores parameter gradients on the
layer (dw/db), and returns the gradient with respect to its input (which
Conv2d can skip).  All math is float64 so the analytic gradients can be
checked against central finite differences.

Conv2d is the network's one convolution: 3x3, stride 1, zero padding 1.
It runs as im2col GEMMs in the Caffe layout (Chellapilla et al., 2006):
forward copies the padded input's sliding windows into a (C·9, B·H·W)
column matrix and multiplies the (O, C·9) weights by it.  It caches only
the window view, which costs no memory, and backward rebuilds the columns
for dW rather than holding the first stage's large copy.  Unless told not
to (the network's first stage), backward also forms every tap's input
gradient with one more product and scatters it back (col2im).

AvgPool2d sums with strided slices, in a fixed order: the window's column
phases along W, then the row phases of that result along H, then one
division by window².  ReLU's backward multiplies by its mask.  Neither
makes a reduction or `where` pass over the first stage's large output.
"""

from __future__ import annotations

import numpy as np

KERNEL = 3


def _windows(x: np.ndarray) -> np.ndarray:
    """Sliding (batch, ch, out_h, out_w, 3, 3) stride-1 view of a padded input."""
    b, c, h, w = x.shape
    sb, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        (b, c, h - KERNEL + 1, w - KERNEL + 1, KERNEL, KERNEL),
        (sb, sc, sh, sw, sh, sw),
        writeable=False,
    )


def _cols(win: np.ndarray) -> np.ndarray:
    """im2col matrix (ch·3·3, batch·out_h·out_w) of a window view."""
    cols = np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3))
    return cols.reshape(win.shape[1] * KERNEL * KERNEL, -1)


class Conv2d:
    """3x3 stride-1 convolution, zero-padded by one pixel: the output keeps the input's size."""

    def __init__(self, in_channels: int, out_channels: int, *, rng: np.random.Generator):
        self.in_channels = in_channels
        self.out_channels = out_channels
        scale = 1.0 / np.sqrt(in_channels * KERNEL * KERNEL)
        self.w = rng.uniform(-scale, scale, (out_channels, in_channels, KERNEL, KERNEL))
        self.b = np.zeros(out_channels)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        b, c, h, w = x.shape
        padded = np.zeros((b, c, h + 2, w + 2), dtype=x.dtype)
        padded[:, :, 1 : 1 + h, 1 : 1 + w] = x
        win = _windows(padded)
        out = self.w.reshape(self.out_channels, -1) @ _cols(win)
        out = out.reshape(self.out_channels, b, h, w).transpose(1, 0, 2, 3)
        out += self.b[None, :, None, None]
        self._cache = win
        return out

    def backward(self, dout: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Store dw/db; return the input gradient, or None when input_grad is False."""
        win = self._cache
        d2 = dout.transpose(1, 0, 2, 3).reshape(self.out_channels, -1)
        self.dw = (d2 @ _cols(win).T).reshape(self.w.shape)
        self.db = dout.sum(axis=(0, 2, 3))
        if not input_grad:
            return None
        b, c, h, w = win.shape[:4]
        dx_padded = np.zeros((b, c, h + 2, w + 2))
        # One GEMM gives every tap's contribution; col2im scatters each
        # back onto the padded input grid.
        taps = (self.w.reshape(self.out_channels, -1).T @ d2).reshape(c, KERNEL, KERNEL, b, h, w)
        taps = taps.transpose(1, 2, 3, 0, 4, 5)
        for i in range(KERNEL):
            for j in range(KERNEL):
                dx_padded[:, :, i : i + h, j : j + w] += taps[i, j]
        return dx_padded[:, :, 1 : 1 + h, 1 : 1 + w]

    def parameters(self):
        return [self.w, self.b]

    def gradients(self):
        return [self.dw, self.db]


class ReLU:
    """Rectifier; gradient is the positive-input mask.

    The mask survives until the next forward pass, so callers can tell
    whether a finite-difference probe crossed the kink.  Backward is
    `dout * mask`: its values equal `np.where(mask, dout, 0.0)` under `==`,
    but a negative `dout` under a false mask gives -0.0, and a NaN in
    `dout` reaches the input gradient even where the mask is false.
    """

    def __init__(self):
        self.mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self.mask = x > 0
        return np.maximum(x, 0.0)  # NaN propagates

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout * self.mask

    def parameters(self):
        return []

    def gradients(self):
        return []


class AvgPool2d:
    """Non-overlapping average pooling over window x window blocks.

    Forward sums each block along W (column phase 0, 1, ... added in
    turn), then sums those partial sums along H the same way, then divides
    by window².  That is `x.reshape(b, c, h/k, k, w/k, k).sum(axis=5)
    .sum(axis=3) / k²` bit for bit.  It also equals `mean(axis=(3, 5))`
    bit for bit unless the pooled plane is one value wide: each block is
    then one contiguous run, which NumPy sums in row-major order (or
    pairwise, from 8 values up).  In the network's square planes that is
    only a pool down to 1x1.
    """

    def __init__(self, window: int):
        if window < 2:
            raise ValueError(f"pooling window must be >= 2, got {window}")
        self.window = window
        self._in_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.window
        h, w = x.shape[2:]
        if h % k or w % k:
            raise ValueError(f"pooling window {k} does not divide {h}x{w}")
        self._in_shape = x.shape
        cols = x[..., 0::k] + x[..., 1::k]
        for j in range(2, k):
            cols += x[..., j::k]
        rows = cols[:, :, 0::k] + cols[:, :, 1::k]
        for i in range(2, k):
            rows += cols[:, :, i::k]
        return rows / (k * k)

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
