"""Sidecar parsing, synthetic corpus, dataset splits, corpus I/O."""

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rqpkit.features import PU_SIZE, CuRect, GrayFrame, PuMode
from rqpkit.ingest import (
    LABEL_QPS,
    DatasetSplit,
    MetadataError,
    _CHUNK_PIXELS,
    _CTU_SIZE,
    _FLAT_GRADIENT_ENERGY,
    _MIN_CU,
    _OBJECTS,
    _SPLIT_THRESHOLDS,
    _intra_modes,
    _quadtree_cus,
    _textures,
    load_corpus,
    load_frame,
    load_metadata,
    parse_metadata,
    read_manifest,
    save_corpus,
    serialize_metadata,
    split_dataset,
    synth_corpus,
)
from rqpkit.model import OperationalPoint, RQPCurve, RQPSample
from rqpkit.pgm import write_pgm


def minimal_doc(**overrides):
    doc = {
        "frame_id": "frame0",
        "width": 16,
        "height": 16,
        "anchor": {"qp0": 10.0, "r0_bits": 5000.0},
        "cus": [{"x": 0, "y": 0, "w": 16, "h": 16}],
        "pus": [{"x": 0, "y": 0, "mode": 7}],
    }
    doc.update(overrides)
    return doc


# Each sidecar object: the path of its first instance in a document, its keys in order,
# and the type a wrong-typed value is reported against.
SIDECAR_OBJECTS = {
    "anchor": ("$.anchor", ("qp0", "r0_bits"), "a number"),
    "cus": ("$.cus[0]", ("x", "y", "w", "h"), "int"),
    "pus": ("$.pus[0]", ("x", "y", "mode"), "int"),
    "labels": ("$.labels[0]", ("qp", "bits"), "a number"),
}


class TestParseMetadata:
    def test_minimal_document(self):
        md = parse_metadata(json.dumps(minimal_doc()))
        assert md.frame_id == "frame0"
        assert md.cus == (CuRect(0, 0, 16, 16),)
        assert md.pus == (PuMode(0, 0, 7),)
        assert md.anchor == OperationalPoint(10.0, 5000.0)
        assert md.labels is None

    def test_labels_parsed(self):
        labels = [{"qp": 10.0, "bits": 5000.0}, {"qp": 22.0, "bits": 2000.0}]
        md = parse_metadata(json.dumps(minimal_doc(labels=labels)))
        assert md.labels == RQPCurve((RQPSample(10.0, 5000.0), RQPSample(22.0, 2000.0)))

    def test_overlapping_cus(self):
        doc = minimal_doc(
            cus=[{"x": 0, "y": 0, "w": 16, "h": 16}, {"x": 0, "y": 0, "w": 8, "h": 8}]
        )
        with pytest.raises(MetadataError, match="overlaps"):
            parse_metadata(json.dumps(doc))

    def test_gap_in_tiling(self):
        doc = minimal_doc(cus=[{"x": 0, "y": 0, "w": 16, "h": 8}])
        with pytest.raises(MetadataError, match="uncovered"):
            parse_metadata(json.dumps(doc))

    def test_mode_out_of_range(self):
        doc = minimal_doc(pus=[{"x": 0, "y": 0, "mode": 35}])
        with pytest.raises(MetadataError, match=r"pus\[0\]"):
            parse_metadata(json.dumps(doc))

    @pytest.mark.parametrize("pus,message", [
        ([], r"\(0, 0\) has no prediction block"),
        ([{"x": 0, "y": 0, "mode": 7}, {"x": 16, "y": 0, "mode": 1}], "outside the 16x16 frame"),
    ], ids=["missing_block", "block_past_edge"])
    def test_prediction_grid_checked(self, pus, message):
        with pytest.raises(MetadataError, match=f"frame 'frame0': .*{message}"):
            parse_metadata(json.dumps(minimal_doc(pus=pus)))

    def test_missing_field_names_path(self):
        doc = minimal_doc()
        del doc["anchor"]
        with pytest.raises(MetadataError, match="anchor"):
            parse_metadata(json.dumps(doc))
        doc = minimal_doc(cus=[{"x": 0, "y": 0, "w": 16}])
        with pytest.raises(MetadataError, match=r"cus\[0\].*h"):
            parse_metadata(json.dumps(doc))

    def test_wrong_types(self):
        with pytest.raises(MetadataError, match="width"):
            parse_metadata(json.dumps(minimal_doc(width="wide")))
        with pytest.raises(MetadataError, match="expected"):
            parse_metadata(json.dumps(minimal_doc(pus=["nope"])))

    @pytest.mark.parametrize("anchor", [
        {"qp0": float("nan"), "r0_bits": 5000.0},
        {"qp0": 10.0, "r0_bits": -1.0},
    ], ids=["nan_qp0", "negative_r0"])
    def test_anchor_value_errors_name_path(self, anchor):
        with pytest.raises(MetadataError, match=r"^\$\.anchor: "):
            parse_metadata(json.dumps(minimal_doc(anchor=anchor)))

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "frame0.json"
        text = json.dumps(minimal_doc(frame_id="frame\u00e9"), ensure_ascii=False)
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(MetadataError, match="UTF-8") as info:
            load_metadata(path)
        assert str(info.value).count(str(path)) == 1

    def test_schema_error_names_the_file(self, tmp_path):
        path = tmp_path / "frame0.rqp.json"
        path.write_text(json.dumps(minimal_doc(cus=[{"x": 0, "y": 0, "w": 16, "h": "16"}])))
        with pytest.raises(MetadataError) as info:
            load_metadata(path)
        assert str(info.value) == f"{path}: $.cus[0].h: expected int, got str"

    def test_invalid_json(self):
        with pytest.raises(MetadataError, match="JSON"):
            parse_metadata("{not json")
        with pytest.raises(MetadataError, match="object"):
            parse_metadata("[1, 2]")

    def test_label_anchor_consistency(self):
        labels = [{"qp": 10.0, "bits": 4000.0}, {"qp": 22.0, "bits": 2000.0}]
        with pytest.raises(MetadataError, match="disagrees"):
            parse_metadata(json.dumps(minimal_doc(labels=labels)))
        labels = [{"qp": 14.0, "bits": 4000.0}, {"qp": 22.0, "bits": 2000.0}]
        with pytest.raises(MetadataError, match="anchor qp"):
            parse_metadata(json.dumps(minimal_doc(labels=labels)))

    @pytest.mark.parametrize("frame_id", [
        "", ".", "..", "../../escaped", "a/b", "/abs", "a\\b", "tab\there", "line\nbreak", "nul\x00",
    ])
    def test_frame_id_must_be_one_file_name_component(self, frame_id):
        with pytest.raises(MetadataError, match="frame_id") as exc:
            parse_metadata(json.dumps(minimal_doc(frame_id=frame_id)))
        assert repr(frame_id) in str(exc.value) and "\n" not in str(exc.value)

    @pytest.mark.parametrize("frame_id", ["frameé", "a b", "..x", "x.."])
    def test_unusual_frame_ids_stay_valid(self, frame_id):
        assert parse_metadata(json.dumps(minimal_doc(frame_id=frame_id))).frame_id == frame_id

    def test_round_trip(self):
        labels = [{"qp": 10.0, "bits": 5000.0}, {"qp": 22.0, "bits": 1234.5678}]
        original = parse_metadata(json.dumps(minimal_doc(labels=labels)))
        assert parse_metadata(serialize_metadata(original)) == original
        bare = parse_metadata(json.dumps(minimal_doc()))
        assert parse_metadata(serialize_metadata(bare)) == bare

    def test_serialized_sidecar_is_one_line(self, tiny_corpus):
        md = tiny_corpus[0][1]
        text = serialize_metadata(md)
        assert "\n" not in text
        assert parse_metadata(text) == md
        # Readers take any layout.
        assert parse_metadata(json.dumps(json.loads(text), indent=2)) == md


class TestSidecarObjects:
    """Every object and key of the sidecar table: its parse errors and its copy in the README."""

    def test_table_lists_every_key(self):
        assert {name: tuple(key for key, _ in pairs) for name, (_, _, pairs) in _OBJECTS.items()} \
            == {name: keys for name, (_, keys, _) in SIDECAR_OBJECTS.items()}

    @pytest.mark.parametrize("name,key", [
        (name, key) for name, (_, keys, _) in SIDECAR_OBJECTS.items() for key in keys])
    @pytest.mark.parametrize("fault", ["missing", "wrong_type", "bool"])
    def test_bad_key_names_object_and_key(self, name, key, fault):
        doc = minimal_doc(labels=[{"qp": 10.0, "bits": 5000.0}])
        obj = doc[name] if name == "anchor" else doc[name][0]
        path, _, expected = SIDECAR_OBJECTS[name]
        if fault == "missing":
            del obj[key]
            message = f"{path}: missing required field {key!r}"
        elif fault == "wrong_type":
            obj[key] = "7"
            message = f"{path}.{key}: expected {expected}, got str"
        else:
            obj[key] = True
            message = f"{path}.{key}: expected {expected}, got bool"
        with pytest.raises(MetadataError) as info:
            parse_metadata(json.dumps(doc))
        assert str(info.value) == message

    @pytest.mark.parametrize("overrides,message", [
        ({"anchor": {"qp0": 10.0, "r0_bits": -1.0}},
         "$.anchor: r0 must be positive and finite, got -1.0"),
        ({"cus": [{"x": 0, "y": 0, "w": 0, "h": 16}]},
         "$.cus[0]: rectangle sides must be positive, got CuRect(x=0, y=0, w=0, h=16)"),
        ({"pus": [{"x": 0, "y": 0, "mode": 35}]}, "$.pus[0]: mode must lie in [0, 34], got 35"),
        ({"labels": [{"qp": 10.0, "bits": 0}]},
         "$.labels[0]: rate must be positive and finite, got 0.0"),
        ({"labels": [{"qp": 22.0, "bits": 2000.0}, {"qp": 10.0, "bits": 5000.0}]},
         "$.labels: qp values must be strictly increasing, got [22.0, 10.0]"),
        ({"labels": []}, "$.labels: curve needs at least one sample"),
        ({"cus": ["nope"]}, "$.cus[0]: expected an object"),
        ({"labels": [{"qp": 10.0, "bits": 5000.0}, 7]}, "$.labels[1]: expected an object"),
        ({"labels": {}}, "$.labels: expected a list"),
        ({"anchor": []}, "$.anchor: expected dict, got list"),
        ({"pus": {}}, "$.pus: expected list, got dict"),
    ], ids=["anchor", "cus", "pus", "label", "label_order", "no_labels", "cus_item",
            "label_item", "labels_type", "anchor_type", "pus_type"])
    def test_value_errors_name_their_object(self, overrides, message):
        with pytest.raises(MetadataError) as info:
            parse_metadata(json.dumps(minimal_doc(**overrides)))
        assert str(info.value) == message

    # Sidecars that once escaped as a bare OverflowError, ValueError or RecursionError, and
    # how the message each now raises begins; json.loads words the rest of the last two.
    ESCAPES = {
        "long_int_number": (json.dumps(minimal_doc()).replace("5000.0", "1" + "0" * 400),
                            "$.anchor.r0_bits: integer too large for a number"),
        "int_past_digit_limit": (json.dumps(minimal_doc()).replace("5000.0", "1" + "0" * 4999),
                                 "sidecar is not valid JSON: Exceeds the limit (4300 digits) "),
        "deep_nesting": ("[" * 100_000,
                         "sidecar is not valid JSON: maximum recursion depth exceeded "),
    }

    @pytest.mark.parametrize("name", ESCAPES)
    def test_malformed_sidecar_raises_metadata_error(self, tmp_path, name):
        text, message = self.ESCAPES[name]
        if message.startswith("sidecar"):
            with pytest.raises((ValueError, RecursionError)) as raw:
                json.loads(text)
            assert f"sidecar is not valid JSON: {raw.value}".startswith(message)
            message = f"sidecar is not valid JSON: {raw.value}"
        with pytest.raises(MetadataError) as info:
            parse_metadata(text)
        assert str(info.value) == message
        path = tmp_path / "frame0.rqp.json"
        path.write_text(text)
        with pytest.raises(MetadataError) as info:
            load_metadata(path)
        assert str(info.value) == f"{path}: {message}"

    def test_errors_are_found_in_document_order(self):
        broken = {"frame_id": 5, "width": "w", "height": "h", "anchor": [], "cus": {},
                  "pus": {}, "labels": {}}
        for i, key in enumerate(broken):
            doc = minimal_doc(**dict(list(broken.items())[i:]))
            with pytest.raises(MetadataError, match=rf"^\$\.{key}: "):
                parse_metadata(json.dumps(doc))

    def test_readme_shows_the_table(self):
        """The README's sidecar block quotes each object's keys in order, with their types."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"\*\*Sidecar\*\*.*?```\w*\n(.*?)```", readme, re.S).group(1)
        for name, (_, kind, pairs) in _OBJECTS.items():
            body = re.search(rf'"{name}": *\[?\{{(.*?)\}}', block).group(1)
            shown = re.findall(r'"(\w+)": *(\w+)', body)
            json_type = "number" if kind is float else "integer"
            assert shown == [(key, json_type) for key, _ in pairs], name


class TestSynthCorpus:
    def test_deterministic(self):
        a = synth_corpus(6, seed=42, size=(32, 32))
        b = synth_corpus(6, seed=42, size=(32, 32))
        assert all(fa == fb and ma == mb for (fa, ma), (fb, mb) in zip(a, b))

    def test_different_seeds_differ(self):
        a = synth_corpus(2, seed=1, size=(32, 32))
        b = synth_corpus(2, seed=2, size=(32, 32))
        assert any(fa != fb for (fa, _), (fb, _) in zip(a, b))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            synth_corpus(0, seed=0)
        with pytest.raises(ValueError):
            synth_corpus(2, seed=0, size=(30, 32))

    @pytest.mark.parametrize("count, seed, size, message", [
        (True, 0, (32, 32), "count must be an integer >= 1, got True"),
        (2.5, 0, (32, 32), "count must be an integer >= 1, got 2.5"),
        (1, 1.5, (32, 32), "seed must be an integer >= 0, got 1.5"),
        (1, -1, (32, 32), "seed must be an integer >= 0, got -1"),
        (1, 0, (32.0, 32), "width must be an integer >= 16, got 32.0"),
        (1, 0, (32, False), "height must be an integer >= 16, got False"),
        (1, 0, (0, 32), "width must be an integer >= 16, got 0"),
    ], ids=["bool_count", "float_count", "float_seed", "negative_seed", "float_width",
            "bool_height", "zero_width"])
    def test_arguments_checked_by_name(self, count, seed, size, message):
        with pytest.raises(ValueError) as exc:
            synth_corpus(count, seed, size)
        assert str(exc.value) == message

    def test_numpy_integer_arguments_accepted(self):
        a = synth_corpus(np.int64(2), np.uint8(3), size=(np.int32(32), 32))
        assert a == synth_corpus(2, 3, size=(32, 32))
        assert a[0][1].frame_id == "s3f0000"

    def test_items_pass_all_invariants(self, tiny_corpus):
        # Construction enforces the invariants; re-parsing proves the
        # serialized form does too.
        for frame, md in tiny_corpus:
            assert (frame.width, frame.height) == (md.width, md.height)
            assert parse_metadata(serialize_metadata(md)) == md
            rates = md.labels.rates()
            assert (rates > 0).all()
            assert (np.diff(rates) < 0).all()
            assert md.labels.qps().tolist() == list(LABEL_QPS)
            assert md.anchor.qp0 == 10.0
            assert abs(md.labels.rate_at(10.0) - md.anchor.r0) / md.anchor.r0 < 1e-6

    def test_validator_sweep_over_thousand_items(self):
        # Corpus-scale sweep: every generated item must survive the full
        # parse-level validation (tiling, ranges, anchor consistency) after
        # a serialize/parse round trip.  Its 8000 label points cost ~0.05 ms
        # of entropy each, so the sweep itself dominates.
        items = synth_corpus(1000, seed=31, size=(32, 32))
        assert len({md.frame_id for _, md in items}) == 1000
        for _, md in items:
            assert parse_metadata(serialize_metadata(md)) == md

    def test_texture_tracks_partition_depth(self):
        # Busier frames (finer partitions) should be common at one end and
        # rare at the other; correlation over a corpus must be positive.
        items = synth_corpus(24, seed=77, size=(64, 64))
        high_freq, cu_counts = [], []
        for frame, md in items:
            px = frame.pixels.astype(float)
            gy, gx = np.gradient(px)
            high_freq.append(float(np.mean(gx * gx + gy * gy)))
            cu_counts.append(len(md.cus))
        corr = np.corrcoef(high_freq, cu_counts)[0, 1]
        assert corr > 0.5


def _reference_quadtree_cus(rng, frame):
    """The per-node np.std recursion that _quadtree_cus replaces."""
    pixels = frame.pixels.astype(np.float64)
    rects = []

    def visit(x, y, size):
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


def _reference_intra_modes(rng, frame):
    """The per-block np.gradient loop that _intra_modes replaces."""
    pixels = frame.pixels.astype(np.float64)
    pus = []
    for y in range(0, frame.height, PU_SIZE):
        for x in range(0, frame.width, PU_SIZE):
            gy, gx = np.gradient(pixels[y : y + PU_SIZE, x : x + PU_SIZE])
            energy = float(np.mean(gx * gx + gy * gy))
            if energy < _FLAT_GRADIENT_ENERGY:
                mode = int(rng.integers(0, 2))
            else:
                theta = 0.5 * math.atan2(
                    2.0 * float(np.sum(gx * gy)), float(np.sum(gx * gx - gy * gy))
                )
                frac = (theta + math.pi / 2.0) / math.pi
                mode = 2 + min(32, int(round(frac * 32.0)))
            pus.append(PuMode(x, y, mode))
    return tuple(pus)


class TestGeneratorsMatchReference:
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 8), height=st.integers(1, 8),
           scale=st.floats(1.0, 50.0))
    @example(seed=0, width=3, height=5, scale=7.0)     # 48x80
    @example(seed=1, width=1, height=1, scale=50.0)    # 16x16
    @example(seed=2, width=7, height=2, scale=20.0)    # 112x32
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_same_tiling_modes_and_stream(self, seed, width, height, scale):
        frame = GrayFrame(_textures([np.random.default_rng(seed)], [scale], width * PU_SIZE,
                                    height * PU_SIZE)[0])
        for generate, reference in ((_quadtree_cus, _reference_quadtree_cus),
                                    (_intra_modes, _reference_intra_modes)):
            rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
            assert generate([rng], frame.pixels[None])[0] == reference(ref_rng, frame)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def _corpus_digest(items) -> str:
    h = hashlib.sha256()
    for frame, md in items:
        h.update(frame.pixels.tobytes())
        values = (
            [(r.x, r.y, r.w, r.h) for r in md.cus],
            [(p.x, p.y, p.mode) for p in md.pus],
            [(s.qp, s.rate) for s in md.labels.samples],
            (md.anchor.qp0, md.anchor.r0),
        )
        h.update(repr(values).encode())
    return h.hexdigest()[:16]


def test_synthetic_corpus_is_pinned():
    # Pixels and every label value of a fixed corpus; any drift in the
    # generator, the entropy labels or the anchor changes the digest.
    assert _corpus_digest(synth_corpus(8, 5)) == "cc32c54333c91dfe"


@pytest.mark.parametrize("count, seed, size, digest", [
    (6, 9, (48, 80), "3ce149d9d59eae85"),      # CTUs cut short by the frame's edge
    (20, 3, (128, 128), "38561731f20be548"),   # several generator chunks
    (70, 4, (32, 32), "495ff13fdfdc96b3"),
])
def test_synthetic_corpus_is_pinned_at_more_shapes(count, seed, size, digest):
    assert _corpus_digest(synth_corpus(count, seed, size)) == digest


def test_a_pinned_corpus_spans_chunks():
    assert 20 * 128 * 128 > _CHUNK_PIXELS


_PER_CHUNK = _CHUNK_PIXELS // (128 * 128)


@pytest.mark.parametrize("k", [1, _PER_CHUNK, _PER_CHUNK + 1, 2 * _PER_CHUNK + 1])
def test_corpus_prefix_does_not_depend_on_count(k):
    # 2 * _PER_CHUNK + 1 frames of 128x128 span three chunks; k ends on either side of an edge.
    assert _PER_CHUNK > 1
    n = 2 * _PER_CHUNK + 1
    assert synth_corpus(k, 6, (128, 128)) == synth_corpus(n, 6, (128, 128))[:k]


class TestSplitDataset:
    def test_documented_sizes(self):
        ids = [f"f{i}" for i in range(100)]
        split = split_dataset(ids, seed=0, test_fraction=0.1)
        assert (len(split.train), len(split.validation), len(split.test)) == (81, 9, 10)

    def test_deterministic(self):
        ids = [f"f{i}" for i in range(37)]
        assert split_dataset(ids, 5, 0.2) == split_dataset(ids, 5, 0.2)
        assert split_dataset(ids, 5, 0.2) != split_dataset(ids, 6, 0.2)

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            ids = [f"f{i}" for i in range(n)]
            split = split_dataset(ids, int(rng.integers(0, 1000)), float(rng.uniform(0, 0.5)))
            everything = list(split.train) + list(split.validation) + list(split.test)
            assert sorted(everything) == sorted(ids)

    def test_validation_is_tenth_of_pool(self):
        ids = [f"f{i}" for i in range(200)]
        split = split_dataset(ids, seed=1, test_fraction=0.2)
        pool = len(split.train) + len(split.validation)
        assert pool == 160
        assert len(split.validation) == round(0.1 * pool)

    @pytest.mark.parametrize("test_fraction", [0.0, 0.5])
    def test_repeated_id_refused(self, test_fraction):
        with pytest.raises(ValueError, match="frame id 'a' appears more than once"):
            split_dataset(["a", "a", "b"], 0, test_fraction)

    @pytest.mark.parametrize("groups", [
        (("a", "a"), (), ()),
        (("a", "b"), ("c",), ("b",)),
        ((), ("c", "c"), ()),
    ], ids=["within_train", "train_and_test", "within_validation"])
    def test_split_refuses_repeated_id(self, groups):
        with pytest.raises(ValueError, match="frame id '[abc]' appears more than once"):
            DatasetSplit(*groups)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_checked_by_name(self, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer >= 0, got {seed!r}")):
            split_dataset(["a", "b"], seed, 0.5)

    def test_errors(self):
        with pytest.raises(ValueError):
            split_dataset([], 0, 0.1)
        with pytest.raises(ValueError):
            split_dataset(["a"], 0, 1.0)
        with pytest.raises(ValueError):
            split_dataset(["a"], 0, -0.1)


class TestCorpusOnDisk:
    def test_save_load_round_trip(self, tiny_corpus, tmp_path):
        manifest = save_corpus(tiny_corpus[:3], tmp_path)
        loaded = load_corpus(manifest)
        assert len(loaded) == 3
        for (f0, m0), (f1, m1) in zip(tiny_corpus[:3], loaded):
            assert f0 == f1 and m0 == m1

    def test_manifest_paths_relative(self, tiny_corpus, tmp_path):
        manifest = save_corpus(tiny_corpus[:2], tmp_path / "sub")
        pairs = read_manifest(manifest)
        assert len(pairs) == 2
        assert all(p.exists() for pair in pairs for p in pair)

    def test_written_bytes_are_pinned(self, tmp_path):
        # The manifest's bytes, then each listed file's, in manifest order: any
        # change to the PGM header, the sidecar text or the manifest moves it.
        manifest = save_corpus(synth_corpus(3, 7), tmp_path)
        h = hashlib.sha256(manifest.read_bytes())
        for pair in read_manifest(manifest):
            for path in pair:
                h.update(path.read_bytes())
        assert h.hexdigest() == (
            "52d8e8581443e29893a4ac1fc6ce67ef9cf22d54925206263d101ecb49989b3a")

    def test_frame_round_trip(self, tiny_corpus, tmp_path):
        frame = tiny_corpus[0][0]
        path = tmp_path / "one.pgm"
        write_pgm(path, frame.pixels)
        assert load_frame(path) == frame

    def test_frame_size_must_match_sidecar(self, tiny_corpus, tmp_path):
        manifest = save_corpus(tiny_corpus[:2], tmp_path)
        frame_path, sidecar_path = read_manifest(manifest)[1]
        write_pgm(frame_path, np.zeros((16, 16), dtype=np.uint8))
        with pytest.raises(MetadataError, match="16x16") as exc:
            load_corpus(manifest)
        assert str(frame_path) in str(exc.value) and str(sidecar_path) in str(exc.value)

    def test_malformed_frame_names_its_file(self, tiny_corpus, tmp_path):
        manifest = save_corpus(tiny_corpus[:3], tmp_path)
        frame_path = read_manifest(manifest)[1][0]
        frame_path.write_bytes(frame_path.read_bytes()[:-32 * 32])  # the header alone
        with pytest.raises(ValueError, match="PGM raster truncated") as exc:
            load_corpus(manifest)
        assert str(exc.value).startswith(f"{frame_path}: ")

    def test_repeated_frame_id_refused_before_writing(self, tiny_corpus, tmp_path):
        items = [tiny_corpus[0], tiny_corpus[1], tiny_corpus[0]]
        out = tmp_path / "corpus"
        with pytest.raises(ValueError, match="frame id 's1234f0000' appears more than once"):
            save_corpus(items, out)
        assert not out.exists()

    def test_manifest_listing_a_frame_twice_refused(self, tiny_corpus, tmp_path):
        manifest = save_corpus(tiny_corpus[:2], tmp_path)
        first = manifest.read_text().splitlines()[0]
        manifest.write_text(manifest.read_text() + first + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"frame id 's1234f0000' appears more than once in the manifest {manifest}")):
            load_corpus(manifest)

    def test_bad_manifest_line(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("only_one_column\n")
        with pytest.raises(ValueError, match="frame<TAB>sidecar"):
            read_manifest(path)
