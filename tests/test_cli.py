"""Command-line interface, run in-process against a temporary corpus."""

import hashlib
import json

import numpy as np
import pytest

from rqpkit.cli import build_parser, main
from rqpkit.evaluate import AblationConfig
from rqpkit.features import CHANNEL_ORDER, stack_from_coding
from rqpkit.ingest import load_frame, load_metadata, read_manifest
from rqpkit.pgm import read_pgm, write_pgm
from rqpkit.regressor import load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def corpus_dir(workdir):
    out = workdir / "corpus"
    assert main(["synth", "--count", "10", "--seed", "7", "--size", "32x32",
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def checkpoint(workdir, corpus_dir):
    out = workdir / "trained"
    code = main([
        "train",
        "--corpus", str(corpus_dir / "manifest.txt"),
        "--seed", "7",
        "--test-fraction", "0.2",
        "--epochs", "2",
        "--spec", "quadratic",
        "--fasten",
        "--features", "rec,seg,intra",
        "--out", str(out),
    ])
    assert code == 0
    return out / "checkpoint.npz"


class TestSynth:
    def test_outputs_exist(self, corpus_dir):
        pairs = read_manifest(corpus_dir / "manifest.txt")
        assert len(pairs) == 10
        for frame_path, sidecar_path in pairs:
            assert frame_path.exists() and sidecar_path.exists()

    def test_sidecar_parses(self, corpus_dir):
        pairs = read_manifest(corpus_dir / "manifest.txt")
        md = load_metadata(pairs[0][1])
        assert md.labels is not None
        assert md.anchor.qp0 == 10.0

    def test_bad_size_is_reported(self, workdir, capsys):
        code = main(["synth", "--count", "1", "--size", "30x30",
                     "--out", str(workdir / "bad")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestExtract:
    def test_planes_match_library(self, workdir, corpus_dir):
        pairs = read_manifest(corpus_dir / "manifest.txt")
        frame_path, sidecar_path = pairs[0]
        out = workdir / "planes"
        assert main(["extract", "--frame", str(frame_path), "--sidecar", str(sidecar_path),
                     "--out", str(out)]) == 0
        frame = load_frame(frame_path)
        md = load_metadata(sidecar_path)
        planes = stack_from_coding(frame, md.cus, md.pus)
        for channel, plane in zip(CHANNEL_ORDER, planes):
            disk = read_pgm(out / f"{md.frame_id}_{channel}.pgm")
            assert np.array_equal(disk, plane)

    def test_frame_id_cannot_leave_out_dir(self, workdir, corpus_dir, capsys):
        pairs = read_manifest(corpus_dir / "manifest.txt")
        frame_path, sidecar_path = pairs[0]
        doc = json.loads(sidecar_path.read_text())
        doc["frame_id"] = "../../escaped"
        root = workdir / "traversal"
        sidecar = root / "bad.rqp.json"
        sidecar.parent.mkdir()
        sidecar.write_text(json.dumps(doc))
        code = main(["extract", "--frame", str(frame_path), "--sidecar", str(sidecar),
                     "--out", str(root / "deep" / "a" / "out")])
        assert code == 2
        assert "'../../escaped'" in capsys.readouterr().err
        assert sorted(p.name for p in root.rglob("*")) == ["bad.rqp.json"]


class TestFitLabels:
    def test_writes_row_per_frame(self, workdir, corpus_dir):
        out = workdir / "labels"
        assert main(["fit-labels", "--corpus", str(corpus_dir / "manifest.txt"),
                     "--out", str(out)]) == 0
        lines = (out / "labels.csv").read_text().strip().splitlines()
        assert len(lines) == 11
        assert lines[0] == "frame_id,coefficients"
        assert len(lines[1].split(",")) == 3  # id + two fastened coefficients


class TestTrainPredict:
    def test_history_written(self, checkpoint):
        history = (checkpoint.parent / "history.csv").read_text().strip().splitlines()
        assert history[0] == "epoch,train_loss,val_loss"
        assert len(history) == 3

    def test_telemetry_written(self, checkpoint):
        rows = (checkpoint.parent / "telemetry.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header[:2] == ["epoch", "epoch_s"]
        assert header[2:4] == ["grad_norm_conv0_w", "grad_norm_conv0_b"]
        assert header[10:12] == ["grad_norm_dense_w", "grad_norm_dense_b"]
        assert header[12:14] == ["update_ratio_conv0_w", "update_ratio_conv0_b"]
        assert header[-2:] == ["update_ratio_dense_w", "update_ratio_dense_b"]
        assert len(header) == 2 + 2 * 10  # four conv stages and the dense layer, w and b each
        assert len(rows) == 3
        for i, row in enumerate(rows[1:]):
            values = row.split(",")
            assert len(values) == len(header) and values[0] == str(i)
            assert all(float(v) >= 0 for v in values[1:])

    def test_checkpoint_records_provenance(self, corpus_dir, checkpoint):
        _, _, extra = load_checkpoint(checkpoint)
        manifest = (corpus_dir / "manifest.txt").read_bytes()
        assert extra["corpus_sha256"] == hashlib.sha256(manifest).hexdigest()
        assert extra["numpy"] == np.__version__
        assert (extra["seed"], extra["test_fraction"]) == (7, 0.2)
        assert (extra["epochs"], extra["batch_size"]) == (2, 10)
        assert extra["learning_rate"] == 1e-4

    def test_predict_at_anchor_returns_r0(self, corpus_dir, checkpoint, capsys):
        pairs = read_manifest(corpus_dir / "manifest.txt")
        frame_path, sidecar_path = pairs[0]
        md = load_metadata(sidecar_path)
        code = main(["predict", "--checkpoint", str(checkpoint),
                     "--frame", str(frame_path), "--sidecar", str(sidecar_path),
                     "--qp", "10"])
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(md.anchor.r0, rel=1e-6)

    def test_checkpoint_without_channels_is_reported(self, workdir, corpus_dir, checkpoint,
                                                     capsys):
        network, scaler, extra = load_checkpoint(checkpoint)
        del extra["channels"]
        stripped = workdir / "no_channels.npz"
        save_checkpoint(stripped, network, scaler, extra=extra)
        frame_path, sidecar_path = read_manifest(corpus_dir / "manifest.txt")[0]
        code = main(["predict", "--checkpoint", str(stripped),
                     "--frame", str(frame_path), "--sidecar", str(sidecar_path), "--qp", "26"])
        assert code == 2
        assert "'channels'" in capsys.readouterr().err

    def test_frame_and_sidecar_sizes_must_agree(self, workdir, corpus_dir, checkpoint, capsys):
        small = workdir / "small.pgm"
        write_pgm(small, np.zeros((16, 16), dtype=np.uint8))
        sidecar = read_manifest(corpus_dir / "manifest.txt")[0][1]
        code = main(["predict", "--checkpoint", str(checkpoint),
                     "--frame", str(small), "--sidecar", str(sidecar), "--qp", "26"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(small) in err and str(sidecar) in err

    def test_missing_file_is_reported(self, checkpoint, capsys):
        code = main(["predict", "--checkpoint", str(checkpoint),
                     "--frame", "nope.pgm", "--sidecar", "nope.json", "--qp", "10"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestEvaluate:
    def test_reports_written_and_reproducible(self, workdir, corpus_dir, checkpoint):
        args = ["evaluate", "--corpus", str(corpus_dir / "manifest.txt"),
                "--checkpoint", str(checkpoint)]
        out_a, out_b = workdir / "eval_a", workdir / "eval_b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        report_a = (out_a / "report.csv").read_bytes()
        assert report_a == (out_b / "report.csv").read_bytes()
        assert (out_a / "report.txt").exists()
        detail = (out_a / "report_detail.csv").read_text().splitlines()
        assert detail[0] == "frame_id,qp,actual_bits,predicted_bits,delta_pct"
        assert len(detail) == 1 + 2 * 7  # 2 test frames x 7 non-anchor label QPs

    @pytest.mark.parametrize("thresholds", ["nan", "inf", "10,nan"])
    def test_non_finite_thresholds_rejected(self, workdir, corpus_dir, checkpoint, thresholds):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--corpus", str(corpus_dir / "manifest.txt"),
                  "--checkpoint", str(checkpoint), "--thresholds", thresholds,
                  "--out", str(workdir / "eval_bad")])
        assert exc.value.code == 2

    def test_foreign_corpus_rejected(self, workdir, checkpoint, capsys):
        other = workdir / "other"
        assert main(["synth", "--count", "2", "--seed", "99", "--size", "32x32",
                     "--out", str(other)]) == 0
        code = main(["evaluate", "--corpus", str(other / "manifest.txt"),
                     "--checkpoint", str(checkpoint), "--out", str(workdir / "eval_x")])
        assert code == 2
        assert "test frames" in capsys.readouterr().err

    def test_missing_checkpoint_leaves_no_out_dir(self, workdir, corpus_dir, capsys):
        out = workdir / "eval_missing"
        code = main(["evaluate", "--corpus", str(corpus_dir / "manifest.txt"),
                     "--checkpoint", str(workdir / "missing.npz"), "--out", str(out)])
        assert code == 2
        assert "missing.npz" in capsys.readouterr().err
        assert not out.exists()


class TestAblate:
    def test_small_grid(self, workdir, corpus_dir):
        out = workdir / "ablate"
        code = main([
            "ablate",
            "--corpus", str(corpus_dir / "manifest.txt"),
            "--seed", "7",
            "--epochs", "1",
            "--forms", "quadratic:fastened",
            "--feature-sets", "rec|rec,seg,intra",
            "--out", str(out),
        ])
        assert code == 0
        lines = (out / "report.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("quadratic,yes,rec,")
        assert lines[2].startswith("quadratic,yes,rec+seg+intra,")

    def test_grid_defaults_are_ablation_config_defaults(self):
        args = build_parser().parse_args(["ablate", "--corpus", "m", "--out", "o"])
        default = AblationConfig()
        assert args.forms == default.forms
        assert args.feature_sets == default.feature_sets
        assert args.thresholds == default.thresholds

    def test_bad_forms_rejected(self, corpus_dir, workdir, capsys):
        # Flag validation fails in argparse itself, which exits with code 2.
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--corpus", str(corpus_dir / "manifest.txt"),
                  "--forms", "cubic:fastened", "--out", str(workdir / "x")])
        assert exc.value.code == 2


class TestCurves:
    def test_anchor_passthrough(self, workdir, corpus_dir, checkpoint):
        pairs = read_manifest(corpus_dir / "manifest.txt")
        md = load_metadata(pairs[0][1])
        out = workdir / "curves"
        code = main(["curves", "--corpus", str(corpus_dir / "manifest.txt"),
                     "--frame-id", md.frame_id,
                     "--checkpoint", str(checkpoint),
                     "--out", str(out)])
        assert code == 0
        lines = (out / "curves.csv").read_text().strip().splitlines()
        assert lines[0] == "qp,actual_bits,predicted_bits_quadratic_fastened_rec_seg_intra"
        assert len(lines) == 9  # 8 label QPs
        qp10 = next(l for l in lines if l.startswith("10,"))
        actual, predicted = (float(v) for v in qp10.split(",")[1:])
        assert actual == pytest.approx(md.anchor.r0, rel=1e-9)
        assert predicted == pytest.approx(md.anchor.r0, rel=1e-6)

    def test_repeated_column_is_reported(self, workdir, corpus_dir, checkpoint, capsys):
        md = load_metadata(read_manifest(corpus_dir / "manifest.txt")[0][1])
        out = workdir / "curves_twice"
        code = main(["curves", "--corpus", str(corpus_dir / "manifest.txt"),
                     "--frame-id", md.frame_id,
                     "--checkpoint", str(checkpoint), "--checkpoint", str(checkpoint),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.count(str(checkpoint)) == 2
        assert "quadratic_fastened_rec_seg_intra" in err
        assert not out.exists()

    def test_unknown_frame(self, corpus_dir, workdir, capsys):
        code = main(["curves", "--corpus", str(corpus_dir / "manifest.txt"),
                     "--frame-id", "ghost", "--checkpoint", "x.npz",
                     "--out", str(workdir / "c2")])
        assert code == 2
