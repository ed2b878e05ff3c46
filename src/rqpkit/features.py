"""Referenceless feature planes built from a decoded frame and its coding tree.

Three planes share the frame's geometry so they can be stacked as network
input channels; a feature stack is a plain (channels, height, width) uint8
array whose channels follow channel_order:

  rec   - the reconstructed luma plane itself (texture),
  seg   - each coding-unit rectangle flooded with its mean pixel value
          (partition structure),
  intra - each 16x16 prediction block flooded with mode*7, spreading the
          35 intra modes uniformly over [0, 238].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CHANNEL_ORDER = ("rec", "seg", "intra")

PU_SIZE = 16
INTRA_MODE_COUNT = 35
INTRA_MODE_STEP = 7  # 238 / 34: the unique uniform integer spacing over [0, 238]


class TilingError(ValueError):
    """Coding-unit rectangles do not tile the frame (gap, overlap, or overhang)."""


class CoverageError(ValueError):
    """Prediction-unit blocks do not cover the 16-pixel grid exactly once."""


@dataclass(frozen=True, eq=False)
class GrayFrame:
    """8-bit grayscale frame; pixels are a read-only (height, width) array."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"pixels must be a nonempty 2-d array, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"pixels must be integers, got dtype {arr.dtype}")
        if arr.min() < 0 or arr.max() > 255:
            raise ValueError("pixel values must lie in [0, 255]")
        arr = arr.astype(np.uint8, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrayFrame):
            return NotImplemented
        return np.array_equal(self.pixels, other.pixels)


@dataclass(frozen=True)
class CuRect:
    """One coding-unit rectangle in pixel coordinates."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.x < 0 or self.y < 0:
            raise ValueError(f"rectangle origin must be nonnegative, got {self}")
        if self.w < 1 or self.h < 1:
            raise ValueError(f"rectangle sides must be positive, got {self}")


@dataclass(frozen=True)
class PuMode:
    """Intra prediction mode of one 16-aligned prediction block."""

    x: int
    y: int
    mode: int

    def __post_init__(self):
        if self.x < 0 or self.y < 0 or self.x % PU_SIZE or self.y % PU_SIZE:
            raise ValueError(f"block origin must align to the {PU_SIZE}-pixel grid, got {self}")
        if not 0 <= self.mode < INTRA_MODE_COUNT:
            raise ValueError(f"mode must lie in [0, {INTRA_MODE_COUNT - 1}], got {self.mode}")


def channel_order(channels) -> tuple[str, ...]:
    """The named channels once each, in CHANNEL_ORDER; the one rule for a channel set.

    An empty selection, an unknown name or a bare string raises ValueError.
    """
    if isinstance(channels, str):
        raise ValueError(f"channels must be a collection of names, not the string {channels!r}")
    names = tuple(channels)
    if not names or any(c not in CHANNEL_ORDER for c in names):
        raise ValueError(f"channels must name a nonempty subset of {CHANNEL_ORDER}, got {names}")
    return tuple(c for c in CHANNEL_ORDER if c in names)


def validate_tiling(width: int, height: int, cus) -> np.ndarray:
    """Check that the rectangles tile width x height exactly; return the owner map.

    The map is a (height, width) array holding each pixel's rectangle
    index.  Raises TilingError naming the offending rectangle (and, for
    overlaps, the one it collides with).
    """
    owner = np.full((height, width), -1, dtype=np.intp)
    for i, r in enumerate(cus):
        if r.x + r.w > width or r.y + r.h > height:
            raise TilingError(f"{r} overhangs the {width}x{height} frame")
        region = owner[r.y : r.y + r.h, r.x : r.x + r.w]
        if (region != -1).any():
            other = int(region[region != -1][0])
            raise TilingError(f"{r} overlaps {cus[other]}")
        region[...] = i
    if (owner == -1).any():
        gap_y, gap_x = np.argwhere(owner == -1)[0]
        raise TilingError(f"tiling leaves pixel ({int(gap_x)}, {int(gap_y)}) uncovered")
    return owner


def build_seg(frame: GrayFrame, cus) -> np.ndarray:
    """Partition plane: every coding-unit rectangle flooded with its mean.

    Means are taken over the reconstructed pixels and rounded half-up to
    keep the plane 8-bit; the rectangles must tile the frame.  The pixel
    sums are float64, exact below 2**53.
    """
    owner = validate_tiling(frame.width, frame.height, list(cus))
    counts = np.bincount(owner.ravel())
    sums = np.bincount(owner.ravel(), weights=frame.pixels.ravel())
    return ((2 * sums + counts) // (2 * counts)).astype(np.uint8)[owner]


def validate_coverage(width: int, height: int, pus) -> np.ndarray:
    """Check that the blocks cover the ceil(width/16) x ceil(height/16) grid exactly once.

    Returns the grid of each cell's intra mode.  Raises CoverageError
    naming the offending block or the first empty cell.
    """
    modes = np.full((-(-height // PU_SIZE), -(-width // PU_SIZE)), -1)
    for p in pus:
        gx, gy = p.x // PU_SIZE, p.y // PU_SIZE
        if gx >= modes.shape[1] or gy >= modes.shape[0]:
            raise CoverageError(f"{p} lies outside the {width}x{height} frame")
        if modes[gy, gx] != -1:
            raise CoverageError(f"grid cell ({p.x}, {p.y}) is covered twice")
        modes[gy, gx] = p.mode
    if (modes == -1).any():
        gy, gx = np.argwhere(modes == -1)[0]
        raise CoverageError(
            f"grid cell ({int(gx) * PU_SIZE}, {int(gy) * PU_SIZE}) has no prediction block"
        )
    return modes


def build_intra(width: int, height: int, pus) -> np.ndarray:
    """Mode plane: each 16x16 grid cell flooded with its mode * 7.

    The blocks must cover the grid (validate_coverage); blocks at the
    right/bottom edge are truncated to the frame.
    """
    if width < 1 or height < 1:
        raise ValueError(f"frame dimensions must be positive, got {width}x{height}")
    modes = validate_coverage(width, height, pus)
    plane = (modes * INTRA_MODE_STEP).astype(np.uint8)
    return plane.repeat(PU_SIZE, 0).repeat(PU_SIZE, 1)[:height, :width]


def stack_from_coding(frame: GrayFrame, cus, pus, channels=CHANNEL_ORDER) -> np.ndarray:
    """The (C, H, W) uint8 stack of one frame's planes, in channel_order(channels)."""
    build = {"rec": lambda: frame.pixels, "seg": lambda: build_seg(frame, cus),
             "intra": lambda: build_intra(frame.width, frame.height, pus)}
    return np.stack([build[c]() for c in channel_order(channels)])
