"""Binary 8-bit PGM (P5) reader and writer."""

from __future__ import annotations

from pathlib import Path

import numpy as np


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next header token, skipping whitespace and # comments."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise ValueError("truncated PGM header")
    return data[start:pos], pos


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM file into a (height, width) uint8 array.

    Only 8-bit P5 is supported; a max value above 255 (16-bit data) is
    rejected as an unsupported depth, and so is any sample above the
    header's max value.
    """
    data = Path(path).read_bytes()
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise ValueError(f"unsupported raster magic {magic!r}; only binary PGM (P5) is read")
    fields = []
    for _ in range(3):
        tok, pos = _next_token(data, pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise ValueError(f"bad PGM header token {tok!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ValueError(f"bad PGM dimensions {width}x{height}")
    if maxval > 255:
        raise ValueError(f"unsupported bit depth: max value {maxval} exceeds 8 bits")
    if maxval < 1:
        raise ValueError(f"bad PGM max value {maxval}")
    pos += 1  # single whitespace byte after the header
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise ValueError(
            f"PGM raster truncated: expected {width * height} bytes, got {len(raster)}"
        )
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()
    peak = int(pixels.max())
    if peak > maxval:
        raise ValueError(f"PGM sample {peak} exceeds the header's max value {maxval}")
    return pixels


def write_pgm(path, pixels: np.ndarray) -> None:
    """Write a nonempty (height, width) array of integers in [0, 255] as binary PGM.

    Anything else raises ValueError, so what is written reads back equal.
    """
    arr = np.asarray(pixels)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"pixels must be a nonempty 2-d array, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"pixels must be integers, got dtype {arr.dtype}")
    if arr.dtype != np.uint8 and (arr.min() < 0 or arr.max() > 255):
        raise ValueError("pixel values must lie in [0, 255]")
    arr = arr.astype(np.uint8, copy=False)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + arr.tobytes())
