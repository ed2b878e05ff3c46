"""Pipeline evaluation: label fitting, error reports, ablation, curve dumps."""

import json
import math

import numpy as np
import pytest

from rqpkit.evaluate import (
    AblationConfig,
    ErrorReport,
    ReportRow,
    TrainedRun,
    corpus_index,
    curve_dump,
    details_to_csv,
    evaluate_frames,
    evaluate_run,
    frame_spec,
    label_fit_predictor,
    make_labels,
    run_ablation,
    run_training,
)
from rqpkit.features import CuRect, GrayFrame, PuMode
from rqpkit.ingest import CodingMetadata, split_dataset
from rqpkit.model import (
    ModelParams,
    ModelSpec,
    OperationalPoint,
    RQPCurve,
    RQPSample,
    model_qp,
)
from rqpkit.regressor import CheckpointError, TrainConfig

QP_GRID = (10.0, 14.0, 18.0, 22.0, 26.0, 30.0, 34.0, 38.0)


def on_model_metadata(frame_id: str, coeffs=(-0.6, -2.5), qp0=10.0, u0=9.0) -> tuple[GrayFrame, CodingMetadata]:
    """A 16x16 frame whose labels lie exactly on a fastened quadratic."""
    anchor = OperationalPoint(qp0, math.exp(u0))
    truth = ModelParams(ModelSpec("quadratic", True, anchor), tuple(coeffs))
    # Walk down the falling branch from the anchor.
    rates = [math.exp(u0 - 0.35 * i) for i in range(len(QP_GRID))]
    samples = sorted(
        (RQPSample(model_qp(truth, r), r) for r in rates), key=lambda s: s.qp
    )
    labels = RQPCurve(tuple(samples))
    md = CodingMetadata(
        frame_id=frame_id,
        width=16,
        height=16,
        cus=(CuRect(0, 0, 16, 16),),
        pus=(PuMode(0, 0, 3),),
        anchor=anchor,
        labels=labels,
    )
    frame = GrayFrame(np.full((16, 16), 100, dtype=np.uint8))
    return frame, md


def overflowing(frame, md):
    """A rising slope of 0.005 puts ln rate above 800 at every label QP past the anchor."""
    return ModelParams(frame_spec("linear", True, md), (0.005,))


class TestMakeLabels:
    def test_recovers_generating_coefficients(self):
        _, md = on_model_metadata("f0", coeffs=(-0.6, -2.5))
        params = make_labels(md, frame_spec("quadratic", True, md))
        assert params.coeffs[0] == pytest.approx(-0.6, abs=1e-9)
        assert params.coeffs[1] == pytest.approx(-2.5, abs=1e-9)

    def test_anchor_comes_from_frame(self):
        _, md = on_model_metadata("f0")
        other_anchor = OperationalPoint(20.0, 999.0)
        params = make_labels(md, ModelSpec("quadratic", True, other_anchor))
        assert params.spec.anchor == md.anchor

    def test_too_few_points(self):
        _, md = on_model_metadata("f0")
        short = CodingMetadata(
            frame_id=md.frame_id,
            width=md.width,
            height=md.height,
            cus=md.cus,
            pus=md.pus,
            anchor=md.anchor,
            labels=RQPCurve(md.labels.samples[:2]),
        )
        with pytest.raises(ValueError, match="label points"):
            make_labels(short, ModelSpec("quadratic"))

    def test_missing_labels(self):
        _, md = on_model_metadata("f0")
        bare = CodingMetadata(
            frame_id=md.frame_id,
            width=md.width,
            height=md.height,
            cus=md.cus,
            pus=md.pus,
            anchor=md.anchor,
        )
        with pytest.raises(ValueError, match="no label curve"):
            make_labels(bare, ModelSpec("quadratic"))

    def test_fastened_spec_requires_anchor(self):
        with pytest.raises(ValueError, match="anchor"):
            ModelSpec("quadratic", fastened=True)


def log_linear_metadata(frame_id: str) -> tuple[GrayFrame, CodingMetadata]:
    """A 16x16 frame whose six labels lie exactly on a fastened log-linear model."""
    anchor = OperationalPoint(10.0, math.exp(9.0))
    truth = ModelParams(ModelSpec("linear", True, anchor), (-5.0,))
    rates = [math.exp(9.0 - 0.3 * i) for i in range(6)]
    labels = RQPCurve(
        tuple(sorted((RQPSample(model_qp(truth, r), r) for r in rates), key=lambda s: s.qp))
    )
    md = CodingMetadata(
        frame_id=frame_id, width=16, height=16,
        cus=(CuRect(0, 0, 16, 16),), pus=(PuMode(0, 0, 3),),
        anchor=anchor, labels=labels,
    )
    return GrayFrame(np.full((16, 16), 100, dtype=np.uint8)), md


def scaled_linear(factor_of):
    """Predictor that keeps the true slope but scales the anchor rate, and so
    every predicted rate, by factor_of(md)."""

    def params_fn(frame, md):
        scaled = OperationalPoint(md.anchor.qp0, factor_of(md) * md.anchor.r0)
        return ModelParams(ModelSpec("linear", True, scaled), (-5.0,))

    return params_fn


class TestEvaluateFrames:
    def test_exact_predictor_scores_one(self):
        items = [on_model_metadata(f"f{i}") for i in range(3)]
        row, details = evaluate_frames(
            items,
            label_fit_predictor("quadratic", True),
            model="quadratic",
            fastened=True,
            features="oracle",
        )
        assert row.proportions == (1.0, 1.0, 1.0)
        assert row.n_failures == 0
        assert row.mean_abs_delta == pytest.approx(0.0, abs=1e-6)

    def test_anchor_pair_excluded(self):
        items = [on_model_metadata(f"f{i}") for i in range(2)]
        row, details = evaluate_frames(
            items,
            label_fit_predictor("quadratic", True),
            model="quadratic",
            fastened=True,
            features="oracle",
        )
        assert row.n_pairs == 2 * (len(QP_GRID) - 1)
        assert all(d.qp != 10.0 for d in details)

    def test_fifteen_percent_low_predictor(self):
        # The predictor scales every rate by exactly 0.85: |delta| = 15%, so
        # thresholds 30/20/10 score 1/1/0.
        row, _ = evaluate_frames(
            [log_linear_metadata("f0")], scaled_linear(lambda md: 0.85),
            model="linear", fastened=True, features="x",
        )
        assert row.proportions == (1.0, 1.0, 0.0)
        assert row.mean_abs_delta == pytest.approx(15.0, abs=1e-6)
        assert row.median_abs_delta == pytest.approx(15.0, abs=1e-6)
        assert row.p90_abs_delta == pytest.approx(15.0, abs=1e-6)

    def test_threshold_monotonicity(self):
        items = [on_model_metadata(f"f{i}") for i in range(2)]

        def noisy(frame, md):
            fitted = make_labels(md, frame_spec("quadratic", True, md))
            rng = np.random.default_rng(hash(md.frame_id) % 2**32)
            coeffs = tuple(c * (1 + rng.uniform(-0.2, 0.2)) for c in fitted.coeffs)
            return ModelParams(fitted.spec, coeffs, fitted.branch_u)

        row, _ = evaluate_frames(
            items, noisy, thresholds=(10.0, 20.0, 30.0),
            model="quadratic", fastened=True, features="x",
        )
        assert row.proportions[0] <= row.proportions[1] <= row.proportions[2]

    def test_inversion_failures_scored_as_misses(self):
        frame, md = on_model_metadata("f0")

        def doomed(frame, md):
            # With u0 = 9, these coefficients peak at QP 12: every label QP
            # above the anchor is unreachable, so every pair fails.
            return ModelParams(frame_spec("quadratic", True, md), (-50.0, 920.0))

        row, details = evaluate_frames(
            [(frame, md)], doomed, model="quadratic", fastened=True, features="x"
        )
        assert row.n_failures == row.n_pairs
        assert row.proportions == (0.0, 0.0, 0.0)
        assert all(d.predicted is None for d in details)
        assert math.isnan(row.median_abs_delta) and math.isnan(row.p90_abs_delta)

    def test_median_and_nearest_rank_p90(self):
        # Frame i is off by i% at each of its 5 scored QPs: 50 pairs whose
        # middle two are 5% and 6%, and whose 45th smallest is 9%.
        items = [log_linear_metadata(f"f{i}") for i in range(1, 11)]
        row, _ = evaluate_frames(
            items, scaled_linear(lambda md: 1.0 - int(md.frame_id[1:]) / 100.0),
            model="linear", fastened=True, features="x",
        )
        assert row.n_pairs == 50 and row.n_failures == 0
        assert row.median_abs_delta == pytest.approx(5.5, abs=1e-6)
        assert row.p90_abs_delta == pytest.approx(9.0, abs=1e-6)

    def test_one_absurd_frame_spares_the_median(self):
        # A fastened quadratic (1e-4, 1e-2) inverts to finite but absurd
        # rates: it owns the mean, not the median.
        items = [on_model_metadata(f"f{i}") for i in range(5)]
        absurd = on_model_metadata("absurd")
        exact = label_fit_predictor("quadratic", True)

        def params_fn(frame, md):
            if md.frame_id == "absurd":
                return ModelParams(frame_spec("quadratic", True, md), (1e-4, 1e-2))
            return exact(frame, md)

        row, _ = evaluate_frames(
            items + [absurd], params_fn, model="quadratic", fastened=True, features="x"
        )
        assert row.n_failures == 0
        assert row.mean_abs_delta > 1e100
        assert row.median_abs_delta < 1.0
        assert row.median_abs_delta <= row.p90_abs_delta

    def test_overflowing_rates_scored_as_misses(self):
        frame, md = on_model_metadata("f0")
        row, details = evaluate_frames(
            [(frame, md)], overflowing, model="linear", fastened=True, features="x"
        )
        assert row.n_failures == row.n_pairs == len(QP_GRID) - 1
        assert all(d.predicted is None for d in details)

    def test_constant_models_scored_as_misses(self):
        frame, md = on_model_metadata("f0")
        row, details = evaluate_frames(
            [(frame, md)],
            lambda f, m: ModelParams(ModelSpec("linear", True, m.anchor), (0.0,)),
            model="linear",
            fastened=True,
            features="rec",
        )
        assert row.n_failures == row.n_pairs == len(QP_GRID) - 1
        assert all(d.predicted is None for d in details)

    def test_oracle_nesting_direction(self, tiny_corpus):
        rows = {}
        for form in ("quadratic", "linear"):
            rows[form], _ = evaluate_frames(
                tiny_corpus,
                label_fit_predictor(form, True),
                model=form,
                fastened=True,
                features="oracle",
            )
        for q, l in zip(rows["quadratic"].proportions, rows["linear"].proportions):
            assert q >= l

    def test_frames_without_labels_rejected(self):
        frame, md = on_model_metadata("f0")
        bare = CodingMetadata(
            frame_id="f0", width=16, height=16, cus=md.cus, pus=md.pus, anchor=md.anchor
        )
        with pytest.raises(ValueError, match="no label curve"):
            evaluate_frames(
                [(frame, bare)],
                label_fit_predictor("quadratic", True),
                model="quadratic",
                fastened=True,
                features="x",
            )


class TestReportFormats:
    def make_report(self):
        row = ReportRow(
            model="quadratic",
            fastened=True,
            features="rec+seg",
            n_pairs=70,
            n_failures=3,
            mean_abs_delta=7.123456,
            median_abs_delta=2.5,
            p90_abs_delta=19.75,
            proportions=(0.9, 0.8, 0.55),
        )
        return ErrorReport(thresholds=(30.0, 20.0, 10.0), rows=[row], metadata={"seed": 1})

    def test_csv_layout(self):
        text = self.make_report().to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == (
            "model,fastened,features,n_pairs,n_failures,mean_abs_delta_pct,"
            "median_abs_delta_pct,p90_abs_delta_pct,"
            "prop_le_30pct,prop_le_20pct,prop_le_10pct"
        )
        assert lines[1] == (
            "quadratic,yes,rec+seg,70,3,7.123456,2.500000,19.750000,0.900000,0.800000,0.550000"
        )

    def test_table_has_percent_cells(self):
        table = self.make_report().to_table()
        assert "90.00%" in table and "55.00%" in table and "7.12%" in table
        assert "median|d|" in table and "2.50%" in table and "19.75%" in table
        assert "# seed: 1" in table

    def test_details_csv(self):
        details = [
            type("D", (), {"frame_id": "f0", "qp": 14.0, "actual": 100.0,
                           "predicted": 90.0, "delta": 10.0})(),
        ]
        text = details_to_csv(details)
        assert text.splitlines()[1] == "f0,14,100.000000,90.000000,10.000000"


class TestTrainingRuns:
    def test_run_and_evaluate(self, tiny_corpus):
        ids = [md.frame_id for _, md in tiny_corpus]
        split = split_dataset(ids, seed=0, test_fraction=0.25)
        cfg = TrainConfig(epochs=2, seed=0)
        run = run_training(tiny_corpus, split, "quadratic", True, ("rec",), cfg)
        assert run.network.config.outputs == 2
        assert len(run.result.train_loss) == 2
        assert run.baseline_val_mse is not None
        row, details = evaluate_run(tiny_corpus, run)
        assert row.n_pairs == len(split.test) * (len(QP_GRID) - 1)
        assert row.features == "rec"

    def test_save_load_round_trip(self, tiny_corpus, tmp_path):
        ids = [md.frame_id for _, md in tiny_corpus]
        split = split_dataset(ids, seed=0, test_fraction=0.25)
        run = run_training(tiny_corpus, split, "quadratic", True, ("rec", "intra"),
                           TrainConfig(epochs=1, seed=0))
        run.save(tmp_path / "run.npz", seed=0)
        loaded = TrainedRun.load(tmp_path / "run.npz")
        assert (loaded.form, loaded.fastened, loaded.channels, loaded.test_ids) == (
            run.form, run.fastened, run.channels, run.test_ids)
        assert loaded.result is None and loaded.baseline_val_mse is None
        by_id = corpus_index(tiny_corpus)
        for frame_id in run.test_ids:
            frame, md = by_id[frame_id]
            assert loaded.predictor()(frame, md).coeffs == run.predictor()(frame, md).coeffs

    def test_evaluate_run_scores_test_frames_in_corpus(self, tiny_corpus):
        ids = [md.frame_id for _, md in tiny_corpus]
        split = split_dataset(ids, seed=0, test_fraction=0.25)
        run = run_training(tiny_corpus, split, "linear", True, ("rec",),
                           TrainConfig(epochs=1, seed=0))
        held = [item for item in tiny_corpus if item[1].frame_id == run.test_ids[0]]
        others = [item for item in tiny_corpus if item[1].frame_id not in run.test_ids]
        row, _ = evaluate_run(held + others, run)
        assert row.n_pairs == len(QP_GRID) - 1
        with pytest.raises(ValueError, match="test frames"):
            evaluate_run(others, run)

    def test_channels_canonicalized(self, tiny_corpus):
        ids = [md.frame_id for _, md in tiny_corpus]
        split = split_dataset(ids, seed=0, test_fraction=0.25)
        cfg = TrainConfig(epochs=1, seed=0)
        run = run_training(tiny_corpus, split, "linear", False, ("intra", "rec"), cfg)
        assert run.channels == ("rec", "intra")
        assert run.network.config.outputs == 2

    def test_unknown_channel_rejected(self, tiny_corpus):
        # Dropping the unknown name would train a rec-only network.
        split = split_dataset([md.frame_id for _, md in tiny_corpus], seed=0, test_fraction=0.25)
        with pytest.raises(ValueError, match="luma"):
            run_training(tiny_corpus, split, "quadratic", True, ("rec", "luma"),
                         TrainConfig(epochs=1, seed=0))

    @pytest.mark.parametrize("field,value", [
        ("channels", ["rec"]),
        ("channels", ["rec", "luma", "seg"]),
        ("form", "cubic"),
        ("fastened", False),
        ("fastened", "yes"),
    ], ids=["too_few_channels", "unknown_channel", "unknown_form", "free_on_fastened_net",
            "fastened_not_bool"])
    def test_load_refuses_metadata_that_contradicts_network(self, tiny_corpus, tmp_path,
                                                             field, value):
        split = split_dataset([md.frame_id for _, md in tiny_corpus], seed=0, test_fraction=0.25)
        run = run_training(tiny_corpus, split, "quadratic", True, ("rec", "seg", "intra"),
                           TrainConfig(epochs=1, seed=0))
        path = tmp_path / "run.npz"
        run.save(path)
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        meta = json.loads(bytes(arrays["meta"]))
        meta["extra"][field] = value
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError) as info:
            TrainedRun.load(path)
        message = str(info.value)
        assert "\n" not in message and str(path) in message

    def test_ablation_grid(self, tiny_corpus):
        ids = [md.frame_id for _, md in tiny_corpus]
        split = split_dataset(ids, seed=1, test_fraction=0.25)
        ablation = AblationConfig(
            forms=(("quadratic", True), ("quadratic", False)),
            feature_sets=(("rec",), ("rec", "seg")),
        )
        report, runs = run_ablation(tiny_corpus, split, ablation, TrainConfig(epochs=1, seed=1))
        assert len(report.rows) == 4
        assert [(r.model, r.fastened, r.features) for r in report.rows] == [
            ("quadratic", True, "rec"),
            ("quadratic", True, "rec+seg"),
            ("quadratic", False, "rec"),
            ("quadratic", False, "rec+seg"),
        ]
        assert set(runs) == {
            ("quadratic", True, ("rec",)),
            ("quadratic", True, ("rec", "seg")),
            ("quadratic", False, ("rec",)),
            ("quadratic", False, ("rec", "seg")),
        }

    def test_ablation_config_validation(self):
        with pytest.raises(ValueError):
            AblationConfig(forms=())
        with pytest.raises(ValueError):
            AblationConfig(feature_sets=(("luma",),))


class TestCurveDump:
    def test_requires_predictors(self):
        frame, md = on_model_metadata("f0")
        with pytest.raises(ValueError, match="predictor"):
            curve_dump(frame, md, {})

    def test_actual_column_is_verbatim(self):
        frame, md = on_model_metadata("f0")
        text = curve_dump(frame, md, {"fit": label_fit_predictor("quadratic", True)})
        lines = text.strip().split("\n")
        assert lines[0] == "qp,actual_bits,predicted_bits_fit"
        assert len(lines) == 1 + len(QP_GRID)
        for line, sample in zip(lines[1:], md.labels.samples):
            assert line.split(",")[1] == f"{sample.rate:.6f}"

    def test_fastened_prediction_passes_anchor(self):
        frame, md = on_model_metadata("f0")
        text = curve_dump(frame, md, {"fit": label_fit_predictor("quadratic", True)})
        anchor_line = next(
            line for line in text.splitlines()[1:] if line.startswith("10,")
        )
        predicted = float(anchor_line.split(",")[2])
        assert predicted == pytest.approx(md.anchor.r0, rel=1e-6)

    def test_inversion_failure_leaves_cell_empty(self):
        frame, md = on_model_metadata("f0")
        lines = curve_dump(frame, md, {"up": overflowing}).splitlines()
        assert lines[1] == f"10,{md.anchor.r0:.6f},{md.anchor.r0:.6f}"
        assert all(line.endswith(",") for line in lines[2:])
