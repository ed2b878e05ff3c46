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
genuinely predicts the rate curve without running an encoder.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .entropy import CauchyParams, synth_curve
from .features import CuRect, GrayFrame, PuMode, PU_SIZE, validate_coverage, validate_tiling
from .model import OperationalPoint, RQPCurve, RQPSample
from .pgm import read_pgm, write_pgm

LABEL_QPS = (10.0, 14.0, 18.0, 22.0, 26.0, 30.0, 34.0, 38.0)
DEFAULT_QP0 = 10.0

VALIDATION_FRACTION = 0.1  # of the non-test pool

_ANCHOR_RTOL = 1e-6


class MetadataError(ValueError):
    """Sidecar document violates the schema or a structural invariant."""


@dataclass(frozen=True)
class CodingMetadata:
    """Everything the one-pass encode reports about a frame."""

    frame_id: str
    width: int
    height: int
    cus: tuple[CuRect, ...]
    pus: tuple[PuMode, ...]
    anchor: OperationalPoint
    labels: RQPCurve | None = None

    def __post_init__(self):
        # The id names the frame's output files and its manifest line.
        fid = self.frame_id
        if fid in ("", ".", "..") or "/" in fid or "\\" in fid or not fid.isprintable():
            raise MetadataError(f"frame_id {fid!r} is not one printable file-name component")
        if self.width < 1 or self.height < 1:
            raise MetadataError(f"bad frame dimensions {self.width}x{self.height}")
        try:
            validate_tiling(self.width, self.height, self.cus)
            validate_coverage(self.width, self.height, self.pus)
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
    if key not in doc:
        raise MetadataError(f"{path}: missing required field {key!r}")
    value = doc[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MetadataError(f"{path}.{key}: expected a number, got {type(value).__name__}")
        return float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is int:
        raise MetadataError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _parse_items(items: list, path: str, make, keys: tuple[str, ...], kind) -> list:
    """make(*values) per object of a JSON list; errors name the item as path[i]."""
    parsed = []
    for i, item in enumerate(items):
        where = f"{path}[{i}]"
        if not isinstance(item, dict):
            raise MetadataError(f"{where}: expected an object")
        try:
            parsed.append(make(*(_require(item, key, kind, where) for key in keys)))
        except ValueError as exc:
            raise MetadataError(f"{where}: {exc}") from exc
    return parsed


def parse_metadata(text: str) -> CodingMetadata:
    """Parse and fully validate one sidecar document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MetadataError(f"sidecar is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MetadataError("sidecar root must be an object")

    frame_id = _require(doc, "frame_id", str, "$")
    width = _require(doc, "width", int, "$")
    height = _require(doc, "height", int, "$")

    anchor_doc = _require(doc, "anchor", dict, "$")
    qp0 = _require(anchor_doc, "qp0", float, "$.anchor")
    r0 = _require(anchor_doc, "r0_bits", float, "$.anchor")
    try:
        anchor = OperationalPoint(qp0, r0)
    except ValueError as exc:
        raise MetadataError(f"$.anchor: {exc}") from exc

    cus = _parse_items(_require(doc, "cus", list, "$"), "$.cus", CuRect, ("x", "y", "w", "h"), int)
    pus = _parse_items(_require(doc, "pus", list, "$"), "$.pus", PuMode, ("x", "y", "mode"), int)

    labels = None
    if doc.get("labels") is not None:
        if not isinstance(doc["labels"], list):
            raise MetadataError("$.labels: expected a list")
        samples = _parse_items(doc["labels"], "$.labels", RQPSample, ("qp", "bits"), float)
        try:
            labels = RQPCurve(tuple(samples))
        except ValueError as exc:
            raise MetadataError(f"$.labels: {exc}") from exc

    return CodingMetadata(
        frame_id=frame_id,
        width=width,
        height=height,
        cus=tuple(cus),
        pus=tuple(pus),
        anchor=anchor,
        labels=labels,
    )


def serialize_metadata(md: CodingMetadata) -> str:
    """Sidecar JSON text; parse_metadata(serialize_metadata(md)) == md."""
    doc = {
        "frame_id": md.frame_id,
        "width": md.width,
        "height": md.height,
        "anchor": {"qp0": md.anchor.qp0, "r0_bits": md.anchor.r0},
        "cus": [{"x": r.x, "y": r.y, "w": r.w, "h": r.h} for r in md.cus],
        "pus": [{"x": p.x, "y": p.y, "mode": p.mode} for p in md.pus],
    }
    if md.labels is not None:
        doc["labels"] = [{"qp": s.qp, "bits": s.rate} for s in md.labels.samples]
    return json.dumps(doc, indent=2)


def load_metadata(path) -> CodingMetadata:
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MetadataError(
            f"{path}: sidecar is not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    return parse_metadata(text)


def save_metadata(path, md: CodingMetadata) -> None:
    Path(path).write_text(serialize_metadata(md) + "\n")


def load_frame(path) -> GrayFrame:
    """Read an 8-bit grayscale PGM into a GrayFrame."""
    return GrayFrame(read_pgm(path))


def load_pair(frame_path, sidecar_path) -> tuple[GrayFrame, CodingMetadata]:
    """Read a frame and its sidecar; a size mismatch raises MetadataError naming both."""
    frame, md = load_frame(frame_path), load_metadata(sidecar_path)
    if (frame.width, frame.height) != (md.width, md.height):
        raise MetadataError(f"{frame_path} is {frame.width}x{frame.height} but its sidecar "
                            f"{sidecar_path} describes {md.width}x{md.height}")
    return frame, md


def save_frame(path, frame: GrayFrame) -> None:
    write_pgm(path, frame.pixels)


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


def _textured_frame(rng: np.random.Generator, width: int, height: int, scale: float) -> GrayFrame:
    """Power-law noise whose high-frequency share rises with the Cauchy scale."""
    lo, hi = _SCALE_RANGE
    t = (math.log(scale) - math.log(lo)) / (math.log(hi) - math.log(lo))
    smooth, busy = _SPECTRAL_FALLOFF
    falloff = smooth + (busy - smooth) * min(max(t, 0.0), 1.0)
    white = rng.standard_normal((height, width))
    spectrum = np.fft.rfft2(white)
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.rfftfreq(width)[None, :]
    radius = np.hypot(fy, fx)
    radius[0, 0] = 1.0
    spectrum *= radius ** (-falloff)
    spectrum[0, 0] = 0.0
    tex = np.fft.irfft2(spectrum, s=(height, width))
    tex = tex - tex.mean()
    sd = tex.std()
    if sd > 0:
        tex = tex / sd * 36.0
    pixels = np.clip(np.rint(tex + 128.0), 0, 255).astype(np.uint8)
    return GrayFrame(pixels)


def _quadtree_cus(rng: np.random.Generator, frame: GrayFrame) -> tuple[CuRect, ...]:
    """Random valid quadtree tiling, splitting where local deviation is high."""
    pixels = frame.pixels.astype(np.float64)
    rects: list[CuRect] = []

    def visit(x: int, y: int, size: int) -> None:
        if x >= frame.width or y >= frame.height:
            return
        w = min(size, frame.width - x)
        h = min(size, frame.height - y)
        local_sd = float(pixels[y : y + h, x : x + w].std())
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

    for cy in range(0, frame.height, _CTU_SIZE):
        for cx in range(0, frame.width, _CTU_SIZE):
            visit(cx, cy, _CTU_SIZE)
    return tuple(rects)


def _intra_modes(rng: np.random.Generator, frame: GrayFrame) -> tuple[PuMode, ...]:
    """Per 16x16 block: angular mode along the dominant gradient, DC/planar when flat."""
    pixels = frame.pixels.astype(np.float64)
    pus: list[PuMode] = []
    for y in range(0, frame.height, PU_SIZE):
        for x in range(0, frame.width, PU_SIZE):
            block = pixels[y : y + PU_SIZE, x : x + PU_SIZE]
            gy, gx = np.gradient(block)
            energy = float(np.mean(gx * gx + gy * gy))
            if energy < _FLAT_GRADIENT_ENERGY:
                mode = int(rng.integers(0, 2))  # planar or DC
            else:
                theta = 0.5 * math.atan2(
                    2.0 * float(np.sum(gx * gy)), float(np.sum(gx * gx - gy * gy))
                )
                frac = (theta + math.pi / 2.0) / math.pi
                mode = 2 + min(32, int(round(frac * 32.0)))
            pus.append(PuMode(x, y, mode))
    return tuple(pus)


def _synth_item(frame_id: str, rng: np.random.Generator, width: int, height: int):
    lo, hi = _SCALE_RANGE
    scale = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    frame = _textured_frame(rng, width, height, scale)
    cus = _quadtree_cus(rng, frame)
    pus = _intra_modes(rng, frame)
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
    return frame, md


def synth_corpus(count: int, seed: int, size: tuple[int, int] = (64, 64)):
    """Deterministic list of (GrayFrame, CodingMetadata) synthetic frames.

    Dimensions must be positive multiples of 16 so the prediction-block
    grid is exact.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    width, height = size
    if width < PU_SIZE or height < PU_SIZE or width % PU_SIZE or height % PU_SIZE:
        raise ValueError(f"frame dimensions must be positive multiples of {PU_SIZE}, got {size}")
    children = np.random.SeedSequence(seed).spawn(count)
    return [
        _synth_item(f"s{seed}f{i:04d}", np.random.default_rng(children[i]), width, height)
        for i in range(count)
    ]


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
        groups = (set(self.train), set(self.validation), set(self.test))
        total = sum(len(g) for g in groups)
        if total != len(set().union(*groups)):
            raise ValueError("split groups must be disjoint")


def split_dataset(ids, seed: int, test_fraction: float) -> DatasetSplit:
    """Deterministic partition into test, then 90/10 train/validation."""
    ids = list(ids)
    if not ids:
        raise ValueError("cannot split an empty id list")
    if not 0.0 <= test_fraction < 1.0:
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
    """Write frames, sidecars, and a manifest; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pairs = []
    for frame, md in items:
        frame_path = out / f"{md.frame_id}.pgm"
        sidecar_path = out / f"{md.frame_id}.rqp.json"
        save_frame(frame_path, frame)
        save_metadata(sidecar_path, md)
        pairs.append((frame_path.name, sidecar_path.name))
    manifest = out / "manifest.txt"
    manifest.write_text("".join(f"{f}\t{s}\n" for f, s in pairs))
    return manifest


def read_manifest(manifest_path) -> list[tuple[Path, Path]]:
    """(frame path, sidecar path) pairs, resolved relative to the manifest."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    pairs = []
    for lineno, line in enumerate(manifest_path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{manifest_path}:{lineno}: expected 'frame<TAB>sidecar'")
        pairs.append((base / parts[0], base / parts[1]))
    return pairs


def load_corpus(manifest_path) -> list[tuple[GrayFrame, CodingMetadata]]:
    """Load every (frame, sidecar) pair listed in a manifest."""
    items = [load_pair(frame_path, sidecar_path)
             for frame_path, sidecar_path in read_manifest(manifest_path)]
    if not items:
        raise ValueError(f"manifest {manifest_path} lists no frames")
    return items
