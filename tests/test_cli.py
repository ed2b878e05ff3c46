"""Command-line interface, run in-process against a temporary corpus."""

import csv
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from rqpkit.cli import build_parser, main
from rqpkit.features import CHANNEL_ORDER, stack_from_coding
from rqpkit.ingest import load_frame, load_metadata, read_manifest, split_dataset
from rqpkit.pgm import read_pgm, write_pgm
from rqpkit.regressor import load_checkpoint, save_checkpoint


def refused(capsys, argv) -> str:
    """Run a command that must be refused: it exits 2, prints one `error:` line and
    leaves no --out path. Returns the message after `error: `."""
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
    if "--out" in argv:
        assert not Path(argv[argv.index("--out") + 1]).exists()
    return err[len("error: "):-1]


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


@pytest.fixture(scope="module")
def rec_checkpoint(workdir, corpus_dir):
    """A rec-only run on the same split as `checkpoint` (same seed and test fraction)."""
    out = workdir / "trained_rec"
    assert main(["train", "--corpus", str(corpus_dir / "manifest.txt"), "--seed", "7",
                 "--epochs", "1", "--features", "rec", "--out", str(out)]) == 0
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
        refused(capsys, ["synth", "--count", "1", "--size", "30x30", "--out", str(workdir / "bad")])

    def test_negative_seed_names_its_argument(self, workdir, capsys):
        assert refused(capsys, ["synth", "--count", "1", "--seed", "-1",
                                "--out", str(workdir / "neg")]) == (
            "seed must be an integer >= 0, got -1")


class TestExtract:
    def test_planes_match_library(self, workdir, corpus_dir):
        pairs = read_manifest(corpus_dir / "manifest.txt")
        frame_path, sidecar_path = pairs[0]
        out = workdir / "planes"
        assert main(["extract", "--frame", str(frame_path), "--sidecar", str(sidecar_path),
                     "--out", str(out)]) == 0
        frame = load_frame(frame_path)
        md = load_metadata(sidecar_path)
        planes = stack_from_coding(frame, md)
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
        assert "'../../escaped'" in refused(capsys, [
            "extract", "--frame", str(frame_path), "--sidecar", str(sidecar),
            "--out", str(root / "deep" / "a" / "out")])
        assert sorted(p.name for p in root.rglob("*")) == ["bad.rqp.json"]

    def test_frame_and_sidecar_sizes_must_match(self, workdir, corpus_dir, capsys):
        frame_path = read_manifest(corpus_dir / "manifest.txt")[0][0]
        other = workdir / "corpus_64"
        assert main(["synth", "--count", "1", "--size", "64x64", "--out", str(other)]) == 0
        sidecar_path = read_manifest(other / "manifest.txt")[0][1]
        assert refused(capsys, ["extract", "--frame", str(frame_path), "--sidecar",
                                str(sidecar_path), "--out", str(workdir / "mismatch")]) == (
            f"{frame_path} is 32x32 but its sidecar {sidecar_path} describes 64x64")


class TestFitLabels:
    # One column per coefficient, lettered as in qp = a ln(R)^2 + b ln(R) + c.
    @pytest.mark.parametrize("spec,fasten,header", [
        ("quadratic", "--fasten", "frame_id,a,b"),
        ("quadratic", "--no-fasten", "frame_id,a,b,c"),
        ("linear", "--no-fasten", "frame_id,b,c"),
        ("linear", "--fasten", "frame_id,b"),
    ], ids=["quadratic_fastened", "quadratic_free", "linear_free", "linear_fastened"])
    def test_writes_row_per_frame(self, workdir, corpus_dir, spec, fasten, header):
        out = workdir / f"labels_{spec}{fasten}"
        assert main(["fit-labels", "--corpus", str(corpus_dir / "manifest.txt"),
                     "--spec", spec, fasten, "--out", str(out)]) == 0
        lines = (out / "labels.csv").read_text().strip().splitlines()
        assert len(lines) == 11
        assert lines[0] == header
        assert all(len(line.split(",")) == len(header.split(",")) for line in lines[1:])


    def test_manifest_listing_a_frame_twice_refused(self, workdir, corpus_dir, capsys):
        manifest = workdir / "twice" / "manifest.txt"
        shutil.copytree(corpus_dir, manifest.parent)
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(lines + lines[:1]))
        frame_id = load_metadata(read_manifest(manifest)[0][1]).frame_id
        assert refused(capsys, ["fit-labels", "--corpus", str(manifest),
                                "--out", str(workdir / "labels_twice")]) == (
            f"frame id {frame_id!r} appears more than once in the manifest {manifest}")


def test_frame_id_with_a_comma_and_a_quote_round_trips(workdir, corpus_dir):
    odd = 's0,f"3'
    root = workdir / "odd"
    shutil.copytree(corpus_dir, root)
    manifest = root / "manifest.txt"
    pairs = read_manifest(manifest)
    ids = [load_metadata(sidecar).frame_id for _, sidecar in pairs]
    # split_dataset permutes positions, not ids: the renamed frame stays a test frame.
    sidecar = pairs[ids.index(split_dataset(ids, 7, 0.2).test[0])][1]
    doc = json.loads(sidecar.read_text())
    doc["frame_id"] = odd
    sidecar.write_text(json.dumps(doc))
    assert main(["fit-labels", "--corpus", str(manifest), "--out", str(root / "labels")]) == 0
    assert main(["train", "--corpus", str(manifest), "--seed", "7", "--test-fraction", "0.2",
                 "--epochs", "1", "--out", str(root / "run")]) == 0
    assert main(["evaluate", "--corpus", str(manifest), "--checkpoint",
                 str(root / "run" / "checkpoint.npz"), "--out", str(root / "eval")]) == 0
    for path, column in [(root / "labels" / "labels.csv", 0),
                         (root / "eval" / "report_detail.csv", 1)]:
        with open(path, newline="") as handle:
            header, *rows = csv.reader(handle)
        assert rows and all(len(row) == len(header) for row in rows)
        assert odd in [row[column] for row in rows]


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
        assert header[8:10] == ["grad_norm_hidden_w", "grad_norm_hidden_b"]
        assert header[10:12] == ["grad_norm_dense_w", "grad_norm_dense_b"]
        assert header[12:14] == ["update_ratio_conv0_w", "update_ratio_conv0_b"]
        assert header[-2:] == ["update_ratio_dense_w", "update_ratio_dense_b"]
        assert len(header) == 2 + 2 * 10  # three conv stages and two dense layers, w and b each
        assert len(rows) == 3
        for i, row in enumerate(rows[1:]):
            values = row.split(",")
            assert len(values) == len(header) and values[0] == str(i)
            assert all(float(v) >= 0 for v in values[1:])

    def test_checkpoint_records_provenance(self, corpus_dir, checkpoint):
        _, _, extra = load_checkpoint(checkpoint)
        manifest = corpus_dir / "manifest.txt"
        digest = hashlib.sha256(manifest.read_bytes())
        for frame_path, sidecar_path in read_manifest(manifest):
            digest.update(frame_path.read_bytes())
            digest.update(sidecar_path.read_bytes())
        assert extra["corpus_sha256"] == digest.hexdigest()
        assert extra["numpy"] == np.__version__
        assert (extra["seed"], extra["test_fraction"]) == (7, 0.2)
        assert (extra["epochs"], extra["batch_size"]) == (2, 10)
        assert extra["learning_rate"] == 1e-4

    def test_corpus_digest_covers_frame_bytes(self, workdir, corpus_dir, checkpoint):
        edited = workdir / "edited_corpus"
        shutil.copytree(corpus_dir, edited)
        frame_path = read_manifest(edited / "manifest.txt")[0][0]
        raw = bytearray(frame_path.read_bytes())
        raw[-1] ^= 1  # one pixel, so the frame still loads
        frame_path.write_bytes(bytes(raw))
        out = workdir / "edited_trained"
        assert main(["train", "--corpus", str(edited / "manifest.txt"), "--seed", "7",
                     "--test-fraction", "0.2", "--epochs", "1", "--out", str(out)]) == 0
        digest = load_checkpoint(out / "checkpoint.npz")[2]["corpus_sha256"]
        assert digest != load_checkpoint(checkpoint)[2]["corpus_sha256"]

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
        assert "'channels'" in refused(capsys, [
            "predict", "--checkpoint", str(stripped),
            "--frame", str(frame_path), "--sidecar", str(sidecar_path), "--qp", "26"])

    def test_frame_and_sidecar_sizes_must_agree(self, workdir, corpus_dir, checkpoint, capsys):
        small = workdir / "small.pgm"
        write_pgm(small, np.zeros((16, 16), dtype=np.uint8))
        sidecar = read_manifest(corpus_dir / "manifest.txt")[0][1]
        err = refused(capsys, ["predict", "--checkpoint", str(checkpoint),
                               "--frame", str(small), "--sidecar", str(sidecar), "--qp", "26"])
        assert str(small) in err and str(sidecar) in err

    def test_missing_file_is_reported(self, checkpoint, capsys):
        assert "nope.pgm" in refused(capsys, ["predict", "--checkpoint", str(checkpoint),
                                              "--frame", "nope.pgm", "--sidecar", "nope.json",
                                              "--qp", "10"])

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--epochs", "0"),
                                             ("--batch-size", "-3")])
    def test_bad_train_config_names_its_field(self, workdir, corpus_dir, capsys, flag, value):
        err = refused(capsys, ["train", "--corpus", str(corpus_dir / "manifest.txt"), flag, value,
                               "--out", str(workdir / "bad_config")])
        assert err.startswith(f"{flag[2:].replace('-', '_')} must be")


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
        assert detail[0] == "run,frame_id,qp,actual_bits,predicted_bits,delta_pct"
        assert len(detail) == 1 + 2 * 7  # 2 test frames x 7 non-anchor label QPs
        assert {row.split(",")[0] for row in detail[1:]} == {"quadratic_fastened_rec_seg_intra"}

    def test_one_row_per_checkpoint_in_argument_order(self, workdir, corpus_dir, checkpoint,
                                                      rec_checkpoint):
        def report_lines(out, *paths):
            args = ["evaluate", "--corpus", str(corpus_dir / "manifest.txt"), "--out", str(out)]
            for path in paths:
                args += ["--checkpoint", str(path)]
            assert main(args) == 0
            return (out / "report.csv").read_bytes().splitlines(keepends=True)

        header, row_all = report_lines(workdir / "eval_all", checkpoint)
        _, row_rec = report_lines(workdir / "eval_rec", rec_checkpoint)
        assert report_lines(workdir / "eval_all_rec", checkpoint, rec_checkpoint) == [
            header, row_all, row_rec]
        assert report_lines(workdir / "eval_rec_all", rec_checkpoint, checkpoint) == [
            header, row_rec, row_all]
        detail = (workdir / "eval_rec_all" / "report_detail.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in detail[1:]] == (
            ["quadratic_fastened_rec"] * 14 + ["quadratic_fastened_rec_seg_intra"] * 14)

    def test_repeated_run_is_reported(self, workdir, corpus_dir, checkpoint, capsys):
        err = refused(capsys, ["evaluate", "--corpus", str(corpus_dir / "manifest.txt"),
                               "--checkpoint", str(checkpoint), "--checkpoint", str(checkpoint),
                               "--out", str(workdir / "eval_twice")])
        assert err.count(str(checkpoint)) == 2
        assert "quadratic_fastened_rec_seg_intra" in err

    def test_different_test_frames_rejected(self, workdir, corpus_dir, checkpoint, capsys):
        other = workdir / "trained_seed8"
        assert main(["train", "--corpus", str(corpus_dir / "manifest.txt"), "--seed", "8",
                     "--epochs", "1", "--features", "rec", "--out", str(other)]) == 0
        other_checkpoint = other / "checkpoint.npz"
        test_ids = [load_checkpoint(path)[2]["test_ids"] for path in (checkpoint, other_checkpoint)]
        assert test_ids[0] != test_ids[1]
        err = refused(capsys, ["evaluate", "--corpus", str(corpus_dir / "manifest.txt"),
                               "--checkpoint", str(checkpoint),
                               "--checkpoint", str(other_checkpoint),
                               "--out", str(workdir / "eval_mixed_splits")])
        assert str(checkpoint) in err and str(other_checkpoint) in err
        assert "test frames" in err

    @pytest.mark.parametrize("thresholds", ["nan", "inf", "10,nan"])
    def test_non_finite_thresholds_rejected(self, workdir, corpus_dir, checkpoint, thresholds):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--corpus", str(corpus_dir / "manifest.txt"),
                  "--checkpoint", str(checkpoint), "--thresholds", thresholds,
                  "--out", str(workdir / "eval_bad")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("thresholds,message", [
        ("nan", "thresholds must be finite positive percentages"),
        ("30,-5", "thresholds must be finite positive percentages"),
        ("0", "thresholds must be finite positive percentages"),
        (",", "thresholds must be finite positive percentages"),
        ("ten", "bad thresholds 'ten'"),
        ("10,10", "thresholds must be distinct, got 10 twice"),
        ("10,10.0000001", "thresholds must be distinct, got 10 twice"),
    ])
    def test_thresholds_refused_by_the_report_check(self, tmp_path, thresholds, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--corpus", str(tmp_path / "manifest.txt"),
                  "--checkpoint", str(tmp_path / "checkpoint.npz"), "--thresholds", thresholds,
                  "--out", str(tmp_path / "eval")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f"argument --thresholds: {message}")
        assert not (tmp_path / "eval").exists()

    def test_foreign_corpus_rejected(self, workdir, checkpoint, capsys):
        other = workdir / "other"
        assert main(["synth", "--count", "2", "--seed", "99", "--size", "32x32",
                     "--out", str(other)]) == 0
        assert "test frames" in refused(capsys, [
            "evaluate", "--corpus", str(other / "manifest.txt"),
            "--checkpoint", str(checkpoint), "--out", str(workdir / "eval_x")])

    def test_run_without_test_frames_says_so(self, workdir, corpus_dir, capsys):
        manifest = str(corpus_dir / "manifest.txt")
        run = workdir / "trained_no_test"
        assert main(["train", "--corpus", manifest, "--test-fraction", "0", "--epochs", "1",
                     "--features", "rec", "--out", str(run)]) == 0
        assert refused(capsys, ["evaluate", "--corpus", manifest,
                                "--checkpoint", str(run / "checkpoint.npz"),
                                "--out", str(workdir / "eval_no_test")]) == (
            "run quadratic_fastened_rec holds no test frames")

    def test_missing_checkpoint_leaves_no_out_dir(self, workdir, corpus_dir, capsys):
        assert "missing.npz" in refused(capsys, [
            "evaluate", "--corpus", str(corpus_dir / "manifest.txt"),
            "--checkpoint", str(workdir / "missing.npz"), "--out", str(workdir / "eval_missing")])


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
        err = refused(capsys, ["curves", "--corpus", str(corpus_dir / "manifest.txt"),
                               "--frame-id", md.frame_id,
                               "--checkpoint", str(checkpoint), "--checkpoint", str(checkpoint),
                               "--out", str(workdir / "curves_twice")])
        assert err.count(str(checkpoint)) == 2
        assert "quadratic_fastened_rec_seg_intra" in err

    def test_unknown_frame(self, corpus_dir, workdir, capsys):
        err = refused(capsys, ["curves", "--corpus", str(corpus_dir / "manifest.txt"),
                               "--frame-id", "ghost", "--checkpoint", "x.npz",
                               "--out", str(workdir / "c2")])
        assert err == "frame 'ghost' is not in the corpus"
