"""Network layers with explicit forward and backward passes.

Every layer caches what its backward pass needs during forward, until the
next forward; backward reads the cache and returns the gradient with
respect to its input.  Conv2d and Dense, the layers that learn, also
store their parameter gradients (dw/db) and list their arrays in
`parameters()`/`gradients()`.  All math is float64 so the analytic
gradients can be checked against central finite differences.

Conv2d is the network's one convolution: 3x3, stride 1, zero padding 1.
It runs as im2col GEMMs in the Caffe layout (Chellapilla et al., 2006).
`_cols` is the one im2col: it zero-pads its input and copies the sliding
windows into a (C·9, B·H·W) column matrix, which `_convolve` multiplies
by (O, C·9) weights.  Forward adds the bias to `_convolve` of its input
and caches a reference to that input, not a padded copy.
`weight_gradients` is the one place a conv's dW and db are formed, from
`_cols` of an input.  Backward stores those and returns the input
gradient: `_convolve` of the output gradient, one frame at a time, with
the kernel flipped and its in/out channels swapped.

AvgPool2d sums with strided slices, in a fixed order: the block's column
phases along W, then the row phases of that result along H, then one
division by the block's area; GlobalAvgPool2d's one block is the plane.
ReLU's backward multiplies by its mask.  Neither makes a reduction or
`where` pass over its input.

Each layer keeps the cache of its last forward only.  `Network` calls
the first stage's layers (conv0, its ReLU and its pool) one frame at a
time and gathers the frames' ReLU masks into one batch-wide `mask`.  Its
backward reads that mask a frame's row at a time and sums conv0's
per-frame `weight_gradients` in frame order; it writes no layer's cache.
"""

from __future__ import annotations

import numpy as np

from ..checks import check_int

KERNEL = 3


def _cols(x: np.ndarray) -> np.ndarray:
    """im2col matrix (C·3·3, B·H·W) of x (B, C, H, W) zero-padded by one pixel."""
    b, c, h, w = x.shape
    padded = np.zeros((b, c, h + 2, w + 2), dtype=x.dtype)
    padded[:, :, 1 : 1 + h, 1 : 1 + w] = x
    sb, sc, sh, sw = padded.strides
    # A writeable view aliasing padded: it is copied at once and never leaves _cols.
    win = np.ndarray((c, KERNEL, KERNEL, b, h, w), padded.dtype, padded, 0,
                     (sc, sh, sw, sb, sh, sw))
    return np.ascontiguousarray(win).reshape(c * KERNEL * KERNEL, -1)


def _convolve(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """3x3 convolution (B, O, H, W) of x (B, C, H, W) by weights w (O, C, 3, 3), without bias."""
    b, _, h, width = x.shape
    out = w.reshape(len(w), -1) @ _cols(x)
    return out.reshape(len(w), b, h, width).transpose(1, 0, 2, 3)


class Conv2d:
    """3x3 stride-1 convolution, zero-padded by one pixel: the output keeps the input's size."""

    def __init__(self, in_channels: int, out_channels: int, *, rng: np.random.Generator):
        check_int("in_channels", in_channels, 1)
        check_int("out_channels", out_channels, 1)
        self.in_channels = in_channels
        self.out_channels = out_channels
        scale = 1.0 / np.sqrt(in_channels * KERNEL * KERNEL)
        self.w = rng.uniform(-scale, scale, (out_channels, in_channels, KERNEL, KERNEL))
        self.b = np.zeros(out_channels)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = _convolve(x, self.w)
        out += self.b[None, :, None, None]
        self._cache = x
        return out

    def weight_gradients(self, x: np.ndarray, dout: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """dW and db, given the output gradient dout of forward(x)."""
        cols = _cols(x)
        d2 = dout.transpose(1, 0, 2, 3).reshape(self.out_channels, -1)
        # The bits of d2 @ cols.T; OpenBLAS forms this order faster at conv1's shape.
        dw = (cols @ d2.T).T
        return dw.reshape(self.w.shape), dout.sum(axis=(0, 2, 3))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Store dw/db; return the input gradient, dout convolved with the flipped kernel.

        One frame at a time: dout's column matrix has O·9 rows, more than
        the input's C·9, so a batch-wide one would raise the peak memory.
        """
        self.dw, self.db = self.weight_gradients(self._cache, dout)
        flipped = self.w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return np.concatenate([_convolve(frame[None], flipped) for frame in dout])

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


class AvgPool2d:
    """Average pooling over k x k blocks, k the largest of window, window/2,
    ... that divides both sides of the plane (at k = 1 it passes through).

    Forward sums each block along W (column phase 0, 1, ... added in
    turn), then sums those partial sums along H the same way, then divides
    by k².  That is `x.reshape(b, c, h/k, k, w/k, k).sum(axis=5)
    .sum(axis=3) / k²` bit for bit.  It also equals `mean(axis=(3, 5))`
    bit for bit unless the pooled plane is one value wide: each block is
    then one contiguous run, which NumPy sums in row-major order (or
    pairwise, from 8 values up), as in a global average pool.
    """

    def __init__(self, window: int):
        check_int("pooling window", window, 2)
        self.window = window
        self._block = None

    def _block_size(self, h: int, w: int) -> tuple[int, int]:
        k = self.window
        while h % k or w % k:
            k //= 2
        return k, k

    def forward(self, x: np.ndarray) -> np.ndarray:
        kh, kw = self._block = self._block_size(*x.shape[2:])
        cols = x[..., 0::kw].copy()
        for j in range(1, kw):
            cols += x[..., j::kw]
        rows = cols[:, :, 0::kh].copy()
        for i in range(1, kh):
            rows += cols[:, :, i::kh]
        return rows / (kh * kw)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        kh, kw = self._block
        return np.repeat(np.repeat(dout / (kh * kw), kh, axis=2), kw, axis=3)


class GlobalAvgPool2d(AvgPool2d):
    """Average of each whole plane, of any height and width: one block the plane's size."""

    def __init__(self):
        self._block = None

    def _block_size(self, h: int, w: int) -> tuple[int, int]:
        return h, w


class Dense:
    """Fully connected layer over the flattened input: y = x.reshape(batch, -1) @ w.T + b."""

    def __init__(self, in_features: int, out_features: int, *, rng: np.random.Generator):
        check_int("in_features", in_features, 1)
        check_int("out_features", out_features, 1)
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
