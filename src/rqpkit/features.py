"""Referenceless feature planes read off a decoded frame and its coding tree.

Three planes share the frame's geometry so they can be stacked as network
input channels; a feature stack is a plain (channels, height, width) uint8
array whose channels follow channel_order:

  rec   - the reconstructed luma plane itself (texture),
  seg   - each coding-unit rectangle flooded with its mean pixel value,
          read off the owner map a CodingMetadata keeps,
  intra - each 16x16 prediction block flooded with mode*7, read off the
          mode grid a CodingMetadata keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pgm import check_pixels

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
        arr = check_pixels(self.pixels).astype(np.uint8, copy=True)
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

    The map is a read-only (height, width) array of each pixel's rectangle
    index in the smallest signed dtype that holds them.  The check counts:
    when every rectangle lies inside the frame, their areas sum to
    width*height and the filled map has no pixel left at -1, no pixel can
    be covered twice.  Only a tiling that fails the count is walked again,
    rectangle by rectangle, to raise TilingError naming the first
    overhanging rectangle, the first overlap (and the rectangle it hits)
    or the first uncovered pixel.
    """
    owner = np.full((height, width), -1, dtype=np.min_scalar_type(-max(len(cus), 1)))
    if all(r.x + r.w <= width and r.y + r.h <= height for r in cus):
        for i, r in enumerate(cus):
            owner[r.y : r.y + r.h, r.x : r.x + r.w] = i
        if sum(r.w * r.h for r in cus) == width * height and not (owner == -1).any():
            owner.setflags(write=False)
            return owner
    owner.fill(-1)
    raise TilingError(_tiling_fault(owner, cus))


def _tiling_fault(owner: np.ndarray, cus) -> str:
    """The first fault, in rectangle order, of rectangles that do not tile an all -1 owner map."""
    height, width = owner.shape
    for i, r in enumerate(cus):
        if r.x + r.w > width or r.y + r.h > height:
            return f"{r} overhangs the {width}x{height} frame"
        region = owner[r.y : r.y + r.h, r.x : r.x + r.w]
        if (region != -1).any():
            return f"{r} overlaps {cus[int(region[region != -1][0])]}"
        region[...] = i
    # No overhang and no overlap, yet the count failed: the areas fall short, so a pixel is left.
    gap_y, gap_x = np.argwhere(owner == -1)[0]
    return f"tiling leaves pixel ({int(gap_x)}, {int(gap_y)}) uncovered"


def build_seg(frame: GrayFrame, owner: np.ndarray) -> np.ndarray:
    """Partition plane: every rectangle of the owner map flooded with its mean.

    Means are taken over the reconstructed pixels and rounded half-up to keep
    the plane 8-bit.  The pixel sums are float64, exact below 2**53.
    """
    counts = np.bincount(owner.ravel())
    sums = np.bincount(owner.ravel(), weights=frame.pixels.ravel())
    return ((2 * sums + counts) // (2 * counts)).astype(np.uint8).take(owner)


def validate_coverage(width: int, height: int, pus) -> np.ndarray:
    """Check that the blocks cover the ceil(width/16) x ceil(height/16) grid exactly once.

    Returns the read-only grid of each cell's intra mode.  Raises CoverageError
    naming the first empty cell or the offending block.  Too few blocks are
    refused before the grid is allocated, so its size is bounded by len(pus).
    """
    cols, rows = -(-width // PU_SIZE), -(-height // PU_SIZE)
    if cols * rows > len(pus):
        # By pigeonhole the first empty raster cell is among the first len(pus) + 1.
        taken = {(p.x, p.y) for p in pus}
        cells = ((x, y) for y in range(0, height, PU_SIZE) for x in range(0, width, PU_SIZE))
        x, y = next(cell for cell in cells if cell not in taken)
        raise CoverageError(f"grid cell ({x}, {y}) has no prediction block "
                            f"({len(pus)} prediction blocks for {cols * rows} cells)")
    # Now blocks are at least as many as cells: any gap shows as a block outside or twice.
    modes = np.full((rows, cols), -1)
    for p in pus:
        gx, gy = p.x // PU_SIZE, p.y // PU_SIZE
        if gx >= cols or gy >= rows:
            raise CoverageError(f"{p} lies outside the {width}x{height} frame")
        if modes[gy, gx] != -1:
            raise CoverageError(f"grid cell ({p.x}, {p.y}) is covered twice")
        modes[gy, gx] = p.mode
    modes.setflags(write=False)
    return modes


def build_intra(modes: np.ndarray, width: int, height: int) -> np.ndarray:
    """Mode plane: each 16x16 cell of the mode grid flooded with mode * 7, cropped to the frame."""
    plane = (modes * INTRA_MODE_STEP).astype(np.uint8)
    return plane.repeat(PU_SIZE, 0).repeat(PU_SIZE, 1)[:height, :width]


def stack_from_coding(frame: GrayFrame, md, channels=CHANNEL_ORDER) -> np.ndarray:
    """The (C, H, W) uint8 stack of a frame and its CodingMetadata, in channel_order(channels)."""
    if (frame.width, frame.height) != (md.width, md.height):
        raise ValueError(f"frame {md.frame_id!r} is {frame.width}x{frame.height} but its "
                         f"coding tree describes {md.width}x{md.height}")
    build = {"rec": lambda: frame.pixels, "seg": lambda: build_seg(frame, md.owner),
             "intra": lambda: build_intra(md.modes, md.width, md.height)}
    return np.stack([build[c]() for c in channel_order(channels)])
