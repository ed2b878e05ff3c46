"""Binary 8-bit PGM (P5) reader and writer."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np


# One header token after any whitespace and # comments.  A comment ends at a line
# break or at the end of the data, so backtracking cannot cut a token out of it.
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?:[\r\n]|\Z))*([^\s#]+)")
# Comments after the max value, each ending at its first CR or LF, then the
# one whitespace byte that ends the header.
_HEADER_END = re.compile(rb"(?:#[^\r\n]*[\r\n])*\s")


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM file into a (height, width) uint8 array.

    Only 8-bit P5 is supported; a max value above 255 (16-bit data) is
    rejected as an unsupported depth, and so is any sample above the
    header's max value.
    """
    data = Path(path).read_bytes()
    pos, fields = 0, []
    while len(fields) < 4:
        token = _TOKEN.match(data, pos)
        if token is None:
            raise ValueError("truncated PGM header")
        tok, pos = token[1], token.end()
        if not fields and tok != b"P5":
            raise ValueError(f"unsupported raster magic {tok!r}; only binary PGM (P5) is read")
        try:
            fields.append(int(tok) if fields else tok)
        except ValueError:
            raise ValueError(f"bad PGM header token {tok!r}") from None
    _, width, height, maxval = fields
    if width < 1 or height < 1:
        raise ValueError(f"bad PGM dimensions {width}x{height}")
    if maxval > 255:
        raise ValueError(f"unsupported bit depth: max value {maxval} exceeds 8 bits")
    if maxval < 1:
        raise ValueError(f"bad PGM max value {maxval}")
    end = _HEADER_END.match(data, pos)
    if end is None:
        raise ValueError("PGM header does not end in one whitespace byte before the raster")
    raster = data[end.end() : end.end() + width * height]
    if len(raster) != width * height:
        raise ValueError(
            f"PGM raster truncated: expected {width * height} bytes, got {len(raster)}"
        )
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()
    peak = int(pixels.max())
    if peak > maxval:
        raise ValueError(f"PGM sample {peak} exceeds the header's max value {maxval}")
    return pixels


def check_pixels(pixels) -> np.ndarray:
    """pixels as an array; ValueError unless a nonempty 2-d array of integers in [0, 255]."""
    arr = np.asarray(pixels)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"pixels must be a nonempty 2-d array, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"pixels must be integers, got dtype {arr.dtype}")
    if arr.dtype != np.uint8 and (arr.min() < 0 or arr.max() > 255):
        raise ValueError("pixel values must lie in [0, 255]")
    return arr


def write_pgm(path, pixels: np.ndarray) -> None:
    """Write pixels that pass check_pixels as binary PGM, so they read back equal."""
    arr = check_pixels(pixels).astype(np.uint8, copy=False)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + arr.tobytes())
