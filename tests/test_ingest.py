"""Sidecar parsing, synthetic corpus, dataset splits, corpus I/O."""

import json

import numpy as np
import pytest

from rqpkit.features import CuRect, GrayFrame, PuMode
from rqpkit.ingest import (
    LABEL_QPS,
    MetadataError,
    load_corpus,
    load_frame,
    load_metadata,
    parse_metadata,
    read_manifest,
    save_corpus,
    save_frame,
    serialize_metadata,
    split_dataset,
    synth_corpus,
)
from rqpkit.model import OperationalPoint, RQPCurve, RQPSample


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
        assert str(path) in str(info.value)

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

    def test_frame_round_trip(self, tiny_corpus, tmp_path):
        frame = tiny_corpus[0][0]
        path = tmp_path / "one.pgm"
        save_frame(path, frame)
        assert load_frame(path) == frame

    def test_frame_size_must_match_sidecar(self, tiny_corpus, tmp_path):
        manifest = save_corpus(tiny_corpus[:2], tmp_path)
        frame_path, sidecar_path = read_manifest(manifest)[1]
        save_frame(frame_path, GrayFrame(np.zeros((16, 16), dtype=np.uint8)))
        with pytest.raises(MetadataError, match="16x16") as exc:
            load_corpus(manifest)
        assert str(frame_path) in str(exc.value) and str(sidecar_path) in str(exc.value)

    def test_bad_manifest_line(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("only_one_column\n")
        with pytest.raises(ValueError, match="frame<TAB>sidecar"):
            read_manifest(path)
