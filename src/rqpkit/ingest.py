"""Sidecar parsing, corpus I/O, and the synthetic desk-scale corpus.

Each frame travels as a pair of files: an 8-bit PGM raster and a JSON
sidecar holding what the encoder knew about it - coding-unit rectangles,
per-block intra modes, the one-pass operating point, and (for training
and evaluation) the measured rate at each label QP.  A plain-text
manifest lists the pairs.

The synthetic generator manufactures frames whose high-frequency energy
follows a drawn Cauchy scale, partitions them more finely where local
variance is higher, derives plausible intra modes from local gradient
orientation, and labels them with scaled entropy curves, so the texture
genuinely predicts the rate curve without running an encoder.  Each
stage runs once over a chunk of frames of at most 2^16 pixels: one FFT
pair makes the chunk's textures, exact integer block sums give every
quadtree node's deviation in closed form, and one batched gradient over
all 16x16 blocks gives the intra modes.  Each frame draws from its own
RNG in a fixed order, so no frame depends on the chunking or on how many
follow it.  Sidecars are written as compact JSON and read in any layout.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checks import check_finite, check_int
from .entropy import CauchyParams, synth_curve
from .features import CuRect, GrayFrame, PuMode, PU_SIZE, validate_coverage, validate_tiling
from .model import OperationalPoint, RQPCurve, RQPSample
from .pgm import read_pgm, write_pgm

LABEL_QPS = (10.0, 14.0, 18.0, 22.0, 26.0, 30.0, 34.0, 38.0)
DEFAULT_QP0 = 10.0

VALIDATION_FRACTION = 0.1  # of the non-test pool

_ANCHOR_RTOL = 1e-6


# Each sidecar object by its key in the document: the class it builds, the JSON type of
# its values, and its (JSON key, attribute) pairs in argument order.
_OBJECTS = {
    "anchor": (OperationalPoint, float, (("qp0", "qp0"), ("r0_bits", "r0"))),
    "cus": (CuRect, int, (("x", "x"), ("y", "y"), ("w", "w"), ("h", "h"))),
    "pus": (PuMode, int, (("x", "x"), ("y", "y"), ("mode", "mode"))),
    "labels": (RQPSample, float, (("qp", "qp"), ("bits", "rate"))),
}


class MetadataError(ValueError):
    """Sidecar document violates the schema or a structural invariant."""


@dataclass(frozen=True)
class CodingMetadata:
    """Everything the one-pass encode reports about a frame, and the one walk of its
    coding tree: `owner` and `modes` are the read-only maps that validate_tiling and
    validate_coverage derive, which equality, hashing, repr and sidecars ignore."""

    frame_id: str
    width: int
    height: int
    cus: tuple[CuRect, ...]
    pus: tuple[PuMode, ...]
    anchor: OperationalPoint
    labels: RQPCurve | None = None
    owner: np.ndarray = field(init=False, repr=False, compare=False)
    modes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # The id names the frame's output files and its manifest line.
        fid = self.frame_id
        if fid in ("", ".", "..") or "/" in fid or "\\" in fid or not fid.isprintable():
            raise MetadataError(f"frame_id {fid!r} is not one printable file-name component")
        if self.width < 1 or self.height < 1:
            raise MetadataError(f"bad frame dimensions {self.width}x{self.height}")
        try:
            # Coverage first: it bounds the owner map's size by the sidecar's length.
            object.__setattr__(self, "modes", validate_coverage(self.width, self.height, self.pus))
            object.__setattr__(self, "owner", validate_tiling(self.width, self.height, self.cus))
        except ValueError as exc:
            raise MetadataError(f"frame {self.frame_id!r}: {exc}") from exc
        if self.labels is not None:
            try:
                r_at_anchor = self.labels.rate_at(self.anchor.qp0)
            except KeyError:
                raise MetadataError(
                    f"frame {self.frame_id!r}: labels do not include the anchor qp "
                    f"{self.anchor.qp0:g}"
                ) from None
            if abs(r_at_anchor - self.anchor.r0) / self.anchor.r0 >= _ANCHOR_RTOL:
                raise MetadataError(
                    f"frame {self.frame_id!r}: label rate {r_at_anchor:g} at qp0 disagrees "
                    f"with anchor r0 {self.anchor.r0:g}"
                )


def _require(doc: dict, key: str, kind, path: str):
    """doc[key] when its type is exactly kind; where a number is wanted, an integer that
    fits a double also passes.  json.loads yields exact types, so true is no int."""
    if key not in doc:
        raise MetadataError(f"{path}: missing required field {key!r}")
    value = doc[key]
    if type(value) is kind:
        return value
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise MetadataError(f"{path}.{key}: integer too large for a number") from None
    expected = "a number" if kind is float else kind.__name__
    raise MetadataError(f"{path}.{key}: expected {expected}, got {type(value).__name__}")


def _parse_object(value, name: str, where: str):
    """The _OBJECTS[name] instance one JSON object holds; every error names it as where."""
    cls, kind, pairs = _OBJECTS[name]
    if type(value) is not dict:
        raise MetadataError(f"{where}: expected an object")
    args = [_require(value, key, kind, where) for key, _ in pairs]
    try:
        return cls(*args)
    except ValueError as exc:
        raise MetadataError(f"{where}: {exc}") from exc


def parse_metadata(text: str) -> CodingMetadata:
    """Parse and fully validate one sidecar document."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: a decode error or an overlong int
        raise MetadataError(f"sidecar is not valid JSON: {exc}") from exc
    if type(doc) is not dict:
        raise MetadataError("sidecar root must be an object")

    items = lambda name, values: tuple([
        _parse_object(v, name, f"$.{name}[{i}]") for i, v in enumerate(values)])
    frame_id = _require(doc, "frame_id", str, "$")
    width = _require(doc, "width", int, "$")
    height = _require(doc, "height", int, "$")
    anchor = _parse_object(_require(doc, "anchor", dict, "$"), "anchor", "$.anchor")
    cus = items("cus", _require(doc, "cus", list, "$"))
    pus = items("pus", _require(doc, "pus", list, "$"))
    labels = doc.get("labels")
    if labels is not None:
        if type(labels) is not list:
            raise MetadataError("$.labels: expected a list")
        samples = items("labels", labels)  # outside the try: each item names its own path
        try:
            labels = RQPCurve(samples)
        except ValueError as exc:
            raise MetadataError(f"$.labels: {exc}") from exc
    return CodingMetadata(frame_id=frame_id, width=width, height=height, cus=cus, pus=pus,
                          anchor=anchor, labels=labels)


def serialize_metadata(md: CodingMetadata) -> str:
    """Sidecar JSON text; parse_metadata(serialize_metadata(md)) == md."""
    obj = lambda name, value: {key: getattr(value, attr) for key, attr in _OBJECTS[name][2]}
    doc = {"frame_id": md.frame_id, "width": md.width, "height": md.height,
           "anchor": obj("anchor", md.anchor), "cus": [obj("cus", r) for r in md.cus],
           "pus": [obj("pus", p) for p in md.pus]}
    if md.labels is not None:
        doc["labels"] = [obj("labels", s) for s in md.labels.samples]
    return json.dumps(doc)


def load_metadata(path) -> CodingMetadata:
    """Read and parse one sidecar file; every MetadataError names the file."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MetadataError(
            f"{path}: sidecar is not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    try:
        return parse_metadata(text)
    except MetadataError as exc:
        raise MetadataError(f"{path}: {exc}") from exc


def load_frame(path) -> GrayFrame:
    """Read an 8-bit grayscale PGM into a GrayFrame; every ValueError names the file."""
    try:
        return GrayFrame(read_pgm(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_pair(frame_path, sidecar_path) -> tuple[GrayFrame, CodingMetadata]:
    """Read a frame and its sidecar; a size mismatch raises MetadataError naming both."""
    frame, md = load_frame(frame_path), load_metadata(sidecar_path)
    if (frame.width, frame.height) != (md.width, md.height):
        raise MetadataError(f"{frame_path} is {frame.width}x{frame.height} but its sidecar "
                            f"{sidecar_path} describes {md.width}x{md.height}")
    return frame, md


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------

_SCALE_RANGE = (1.0, 50.0)       # drawn Cauchy scale (texture complexity knob)
_SPECTRAL_FALLOFF = (2.6, 0.4)   # power-law exponent: smooth frames fall off fast
_CTU_SIZE = 64
_MIN_CU = 8
# Local-deviation thresholds above which a coding unit of the given size splits.
_SPLIT_THRESHOLDS = {64: 31.0, 32: 33.0, 16: 35.0}
_FLAT_GRADIENT_ENERGY = 60.0
# Pixels per generator chunk: 16 frames at 64x64, 4 at 128x128.  Each stage runs
# once over a chunk, so a corpus's working set does not grow with its count.  A
# stage holds up to ~35 bytes a pixel; a 2^18 chunk ran no faster over 200 64x64
# frames and held ~6 MB more at its peak.
_CHUNK_PIXELS = 1 << 16


@functools.lru_cache(maxsize=8)
def _frequency_radius(height: int, width: int) -> np.ndarray:
    """Read-only |f| over an rfft2 grid, with the DC bin set to 1."""
    radius = np.hypot(np.fft.fftfreq(height)[:, None], np.fft.rfftfreq(width)[None, :])
    radius[0, 0] = 1.0
    radius.setflags(write=False)
    return radius


def _textures(rngs, scales, width: int, height: int) -> np.ndarray:
    """Power-law noise whose high-frequency share rises with each frame's Cauchy scale.

    Draws each frame's white noise from its rng; returns the (n, height, width)
    uint8 textures.  Every step after the draw runs once over the whole chunk.
    """
    lo, hi = _SCALE_RANGE
    smooth, busy = _SPECTRAL_FALLOFF
    falloff = np.empty((len(scales), 1, 1))
    for k, scale in enumerate(scales):
        t = (math.log(scale) - math.log(lo)) / (math.log(hi) - math.log(lo))
        falloff[k] = smooth + (busy - smooth) * min(max(t, 0.0), 1.0)
    white = np.empty((len(rngs), height, width))
    for rng, plane in zip(rngs, white):
        rng.standard_normal(out=plane)
    # Each chunk-sized buffer is dropped, or reused in place, once read.
    spectrum = np.fft.rfft2(white)
    del white
    spectrum *= _frequency_radius(height, width) ** -falloff
    spectrum[:, 0, 0] = 0.0
    tex = np.fft.irfft2(spectrum, s=(height, width))
    del spectrum
    tex -= tex.mean(axis=(1, 2), keepdims=True)
    sd = tex.std(axis=(1, 2), keepdims=True)
    # A zero deviation leaves only zeros (or underflow), which map to 128 either way.
    tex /= np.where(sd > 0, sd, 1.0)
    tex *= 36.0
    tex += 128.0
    return np.clip(np.rint(tex, out=tex), 0, 255, out=tex).astype(np.uint8)


def _block_moments(pixels: np.ndarray) -> dict[int, tuple[list, list]]:
    """Exact pixel sum and sum of squares of every block at each quadtree size.

    pixels is an (n, height, width) stack.  Each plane is zero-padded to whole
    CTUs, so a block that overhangs the frame sums its in-frame pixels only.
    Each size maps to two nested lists of ints indexed [frame][y // size][x // size].
    """
    n, height, width = pixels.shape
    padded = np.zeros((n, -(-height // _CTU_SIZE) * _CTU_SIZE, -(-width // _CTU_SIZE) * _CTU_SIZE),
                      dtype=np.int64)
    padded[:, :height, :width] = pixels
    grid = (n, padded.shape[1] // _MIN_CU, _MIN_CU, padded.shape[2] // _MIN_CU, _MIN_CU)
    s = padded.reshape(grid).sum(axis=(2, 4))
    q = (padded * padded).reshape(grid).sum(axis=(2, 4))
    moments = {_MIN_CU: (s.tolist(), q.tolist())}
    size = _MIN_CU
    while size < _CTU_SIZE:
        size *= 2
        s = s[:, 0::2, 0::2] + s[:, 0::2, 1::2] + s[:, 1::2, 0::2] + s[:, 1::2, 1::2]
        q = q[:, 0::2, 0::2] + q[:, 0::2, 1::2] + q[:, 1::2, 0::2] + q[:, 1::2, 1::2]
        moments[size] = (s.tolist(), q.tolist())
    return moments


def _quadtree_cus(rngs, pixels: np.ndarray) -> list[tuple[CuRect, ...]]:
    """Per frame of an (n, height, width) stack: a random valid quadtree tiling that
    splits where local deviation is high, with one jitter per node from the frame's rng."""
    _, height, width = pixels.shape
    moments = _block_moments(pixels)
    tilings = []
    for k, rng in enumerate(rngs):
        rects: list[CuRect] = []

        def visit(x: int, y: int, size: int) -> None:
            if x >= width or y >= height:
                return
            w = min(size, width - x)
            h = min(size, height - y)
            sums, squares = moments[size]
            s, q, n = sums[k][y // size][x // size], squares[k][y // size][x // size], w * h
            local_sd = math.sqrt((n * q - s * s) / (n * n))
            jitter = rng.uniform(0.85, 1.2)
            threshold = _SPLIT_THRESHOLDS.get(size)
            if threshold is not None and size > _MIN_CU and local_sd * jitter > threshold:
                half = size // 2
                visit(x, y, half)
                visit(x + half, y, half)
                visit(x, y + half, half)
                visit(x + half, y + half, half)
            else:
                rects.append(CuRect(x, y, w, h))

        for cy in range(0, height, _CTU_SIZE):
            for cx in range(0, width, _CTU_SIZE):
                visit(cx, cy, _CTU_SIZE)
        tilings.append(tuple(rects))
    return tilings


def _intra_modes(rngs, pixels: np.ndarray) -> list[tuple[PuMode, ...]]:
    """Per 16x16 block of each frame of an (n, height, width) stack: angular mode along
    the dominant gradient, DC/planar (drawn from the frame's rng) when flat."""
    n, height, width = pixels.shape
    rows, cols = height // PU_SIZE, width // PU_SIZE
    area = PU_SIZE * PU_SIZE
    blocks = (pixels.reshape(n, rows, PU_SIZE, cols, PU_SIZE).swapaxes(2, 3)
              .astype(np.float64, order="C"))
    # One pass over every block; each takes one-sided differences at its own edges.
    gy, gx = np.gradient(blocks, axis=(3, 4))
    del blocks

    def block_sums(values: np.ndarray) -> np.ndarray:
        return values.reshape(n, rows, cols, area).sum(axis=-1)

    # Squares in place, so the pass holds two chunk-sized arrays and one temporary.
    cross = block_sums(gx * gy).tolist()
    gx *= gx
    gy *= gy
    energy = (block_sums(gx + gy) / area).tolist()
    spread = block_sums(np.subtract(gx, gy, out=gx)).tolist()
    frames = []
    for k, rng in enumerate(rngs):
        pus: list[PuMode] = []
        for i in range(rows):
            for j in range(cols):
                if energy[k][i][j] < _FLAT_GRADIENT_ENERGY:
                    mode = int(rng.integers(0, 2))  # planar or DC
                else:
                    theta = 0.5 * math.atan2(2.0 * cross[k][i][j], spread[k][i][j])
                    frac = (theta + math.pi / 2.0) / math.pi
                    mode = 2 + min(32, int(round(frac * 32.0)))
                pus.append(PuMode(j * PU_SIZE, i * PU_SIZE, mode))
        frames.append(tuple(pus))
    return frames


def _synth_chunk(frame_ids, rngs, width: int, height: int):
    """Items for one chunk of frames.  Each frame draws from its own rng in a fixed
    order - scale, white noise, quadtree jitters, flat-block modes, bits scale - so
    the chunking never changes a frame."""
    lo, hi = _SCALE_RANGE
    scales = [math.exp(rng.uniform(math.log(lo), math.log(hi))) for rng in rngs]
    pixels = _textures(rngs, scales, width, height)
    items = []
    for frame_id, rng, scale, plane, cus, pus in zip(
            frame_ids, rngs, scales, pixels, _quadtree_cus(rngs, pixels), _intra_modes(rngs, pixels)):
        bits_scale = width * height * rng.uniform(0.9, 1.1)
        labels = synth_curve(CauchyParams(scale), LABEL_QPS, bits_scale)
        anchor = OperationalPoint(DEFAULT_QP0, labels.rate_at(DEFAULT_QP0))
        md = CodingMetadata(
            frame_id=frame_id,
            width=width,
            height=height,
            cus=cus,
            pus=pus,
            anchor=anchor,
            labels=labels,
        )
        items.append((GrayFrame(plane), md))
    return items


def synth_corpus(count: int, seed: int, size: tuple[int, int] = (64, 64)):
    """Deterministic list of (GrayFrame, CodingMetadata) synthetic frames.

    Dimensions must be positive multiples of 16 so the prediction-block
    grid is exact.  The first k items do not depend on count.
    """
    check_int("count", count, 1)
    check_int("seed", seed, 0)
    width, height = size
    check_int("width", width, PU_SIZE)
    check_int("height", height, PU_SIZE)
    if width % PU_SIZE or height % PU_SIZE:
        raise ValueError(f"frame dimensions must be positive multiples of {PU_SIZE}, got {size}")
    children = np.random.SeedSequence(seed).spawn(count)
    per_chunk = max(1, _CHUNK_PIXELS // (width * height))
    items = []
    for start in range(0, count, per_chunk):
        stop = min(start + per_chunk, count)
        items += _synth_chunk([f"s{seed}f{i:04d}" for i in range(start, stop)],
                              [np.random.default_rng(c) for c in children[start:stop]],
                              width, height)
    return items


# ---------------------------------------------------------------------------
# Dataset split
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint train/validation/test frame ids; validation is 10% of the non-test pool."""

    train: tuple[str, ...]
    validation: tuple[str, ...]
    test: tuple[str, ...]

    def __post_init__(self):
        _refuse_repeated_ids([*self.train, *self.validation, *self.test], "split")


def _refuse_repeated_ids(ids, where: str) -> None:
    """ValueError naming the first frame id that occurs twice in ids."""
    seen = set()
    for frame_id in ids:
        if frame_id in seen:
            raise ValueError(f"frame id {frame_id!r} appears more than once in the {where}")
        seen.add(frame_id)


def split_dataset(ids, seed: int, test_fraction: float) -> DatasetSplit:
    """Deterministic partition into test, then 90/10 train/validation; ValueError
    unless ids are distinct and nonempty and test_fraction lies in [0, 1)."""
    check_int("seed", seed, 0)
    ids = list(ids)
    if not ids:
        raise ValueError("cannot split an empty id list")
    _refuse_repeated_ids(ids, "id list")
    if not 0.0 <= check_finite("test_fraction", test_fraction) < 1.0:
        raise ValueError(f"test_fraction must lie in [0, 1), got {test_fraction}")
    order = np.random.default_rng(seed).permutation(len(ids))
    shuffled = [ids[i] for i in order]
    n_test = round(len(ids) * test_fraction)
    pool = shuffled[n_test:]
    n_val = round(len(pool) * VALIDATION_FRACTION)
    return DatasetSplit(
        train=tuple(pool[n_val:]),
        validation=tuple(pool[:n_val]),
        test=tuple(shuffled[:n_test]),
    )


# ---------------------------------------------------------------------------
# Corpus on disk
# ---------------------------------------------------------------------------


def save_corpus(items, out_dir) -> Path:
    """Write frames, sidecars, and a manifest; returns the manifest path.

    Frame ids name the files, so a repeated id is refused before anything is written.
    """
    items = list(items)
    _refuse_repeated_ids((md.frame_id for _, md in items), "corpus")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = [(f"{md.frame_id}.pgm", f"{md.frame_id}.rqp.json") for _, md in items]
    for (frame, md), (frame_name, sidecar_name) in zip(items, names):
        write_pgm(out / frame_name, frame.pixels)
        (out / sidecar_name).write_text(serialize_metadata(md) + "\n")
    manifest = out / "manifest.txt"
    manifest.write_text("".join(f"{f}\t{s}\n" for f, s in names))
    return manifest


def read_manifest(manifest_path) -> list[tuple[Path, Path]]:
    """(frame path, sidecar path) pairs, resolved relative to the manifest."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    try:
        text = manifest_path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{manifest_path}: manifest is not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not all(parts):
            raise ValueError(f"{manifest_path}:{lineno}: expected 'frame<TAB>sidecar'")
        pairs.append((base / parts[0], base / parts[1]))
    return pairs


def load_corpus(manifest_path) -> list[tuple[GrayFrame, CodingMetadata]]:
    """Load every (frame, sidecar) pair listed in a manifest; a repeated frame id is refused."""
    items = [load_pair(frame_path, sidecar_path)
             for frame_path, sidecar_path in read_manifest(manifest_path)]
    if not items:
        raise ValueError(f"manifest {manifest_path} lists no frames")
    _refuse_repeated_ids((md.frame_id for _, md in items), f"manifest {manifest_path}")
    return items
