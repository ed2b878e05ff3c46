"""Pipeline evaluation: label fitting, error reports, training runs, curve dumps."""

import csv
import dataclasses
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from rqpkit.evaluate import (
    ErrorReport,
    ReportRow,
    TrainedRun,
    corpus_index,
    csv_text,
    curve_dump,
    details_to_csv,
    evaluate_frames,
    evaluate_run,
    frame_spec,
    make_labels,
    run_training,
)
from rqpkit.features import CuRect, GrayFrame, PuMode
from rqpkit.ingest import CodingMetadata, DatasetSplit, split_dataset, synth_corpus
from rqpkit.model import (
    DegenerateFitError,
    ModelParams,
    ModelSpec,
    OperationalPoint,
    RQPCurve,
    RQPSample,
    model_qp,
)
from rqpkit.regressor import CheckpointError, Network, NetworkConfig, TargetScaler, TrainConfig

QP_GRID = (10.0, 14.0, 18.0, 22.0, 26.0, 30.0, 34.0, 38.0)


def on_model_metadata(frame_id: str, coeffs=(-0.6, -2.5), qp0=10.0, u0=9.0) -> tuple[GrayFrame, CodingMetadata]:
    """A 16x16 frame whose labels lie exactly on a fastened quadratic."""
    anchor = OperationalPoint(qp0, math.exp(u0))
    truth = ModelParams(ModelSpec("quadratic", anchor=anchor), tuple(coeffs))
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


def error_overflow_metadata() -> tuple[GrayFrame, CodingMetadata]:
    """A two-label frame that `error_overflowing` predicts at a finite 6.75e306 bits at
    QP 14, against 1.5 measured: the rate is a float, its % error overflows to -inf."""
    anchor = OperationalPoint(10.0, 2.0)
    labels = RQPCurve((RQPSample(10.0, 2.0), RQPSample(14.0, 1.5)))
    md = CodingMetadata("f0", 16, 16, (CuRect(0, 0, 16, 16),), (PuMode(0, 0, 3),),
                        anchor, labels)
    return GrayFrame(np.full((16, 16), 100, dtype=np.uint8)), md


def error_overflowing(frame, md):
    return ModelParams(frame_spec("linear", True, md), (4.0 / (706.5 - math.log(2.0)),))


def bare_metadata() -> CodingMetadata:
    """`on_model_metadata("f0")`'s frame with no label curve."""
    _, md = on_model_metadata("f0")
    return CodingMetadata(frame_id=md.frame_id, width=md.width, height=md.height,
                          cus=md.cus, pus=md.pus, anchor=md.anchor)


class TestMakeLabels:
    def test_recovers_generating_coefficients(self):
        _, md = on_model_metadata("f0", coeffs=(-0.6, -2.5))
        params = make_labels(md, "quadratic", True)
        assert params.coeffs[0] == pytest.approx(-0.6, abs=1e-9)
        assert params.coeffs[1] == pytest.approx(-2.5, abs=1e-9)

    def test_anchor_comes_from_frame(self):
        _, md = on_model_metadata("f0")
        mean_u = float(np.mean(np.log(md.labels.rates())))
        for form, fastened in [("linear", False), ("linear", True),
                               ("quadratic", False), ("quadratic", True)]:
            params = make_labels(md, form, fastened)
            assert len(params.coeffs) == {"linear": 2, "quadratic": 3}[form] - fastened
            if fastened:
                assert (params.spec.anchor, params.branch_u) == (md.anchor, None)
            else:
                assert (params.spec.anchor, params.branch_u) == (None, mean_u)

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
        with pytest.raises(DegenerateFitError, match="frame f0: .*distinct rates"):
            make_labels(short, "quadratic", False)

    @pytest.mark.parametrize("form,fastened,spread,match", [
        ("quadratic", True, [1.0] * len(QP_GRID), "quadratic-fastened needs at least 2 distinct "
                                                  "rates, curve offers 1"),
        ("linear", False, [1.0, 1.0 + 1e-12], "normal matrix condition"),
    ], ids=["all_rates_equal", "ill_conditioned"])
    def test_degenerate_labels_name_the_frame(self, form, fastened, spread, match):
        _, md = on_model_metadata("f7")
        labels = RQPCurve(tuple(RQPSample(qp, f * md.anchor.r0) for qp, f in zip(QP_GRID, spread)))
        flat = CodingMetadata(frame_id=md.frame_id, width=md.width, height=md.height,
                              cus=md.cus, pus=md.pus, anchor=md.anchor, labels=labels)
        with pytest.raises(DegenerateFitError, match=f"^frame f7: {match}"):
            make_labels(flat, form, fastened)

    def test_missing_labels(self):
        with pytest.raises(ValueError, match="no label curve"):
            make_labels(bare_metadata(), "quadratic", False)


def log_linear_metadata(frame_id: str) -> tuple[GrayFrame, CodingMetadata]:
    """A 16x16 frame whose six labels lie exactly on a fastened log-linear model."""
    anchor = OperationalPoint(10.0, math.exp(9.0))
    truth = ModelParams(ModelSpec("linear", anchor=anchor), (-5.0,))
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
        return ModelParams(ModelSpec("linear", anchor=scaled), (-5.0,))

    return params_fn


def label_fit(form: str, fastened: bool):
    """Oracle predictor: the least-squares fit of each frame's own labels."""
    return lambda frame, md: make_labels(md, form, fastened)


class TestEvaluateFrames:
    def test_exact_predictor_scores_one(self):
        items = [on_model_metadata(f"f{i}") for i in range(3)]
        row, details = evaluate_frames(
            items,
            label_fit("quadratic", True),
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
            label_fit("quadratic", True),
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
            fitted = make_labels(md, "quadratic", True)
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
        exact = label_fit("quadratic", True)

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

    def test_infinite_errors_scored_as_misses(self):
        row, details = evaluate_frames(
            [error_overflow_metadata()], error_overflowing,
            model="linear", fastened=True, features="x",
        )
        assert row.n_failures == row.n_pairs == 1
        assert details[0].predicted is None and details[0].delta is None
        assert math.isnan(row.mean_abs_delta)
        assert details_to_csv({"r": details}).splitlines()[1] == "r,f0,14,1.500000,,"

    def test_constant_models_scored_as_misses(self):
        frame, md = on_model_metadata("f0")
        row, details = evaluate_frames(
            [(frame, md)],
            lambda f, m: ModelParams(ModelSpec("linear", anchor=m.anchor), (0.0,)),
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
                label_fit(form, True),
                model=form,
                fastened=True,
                features="oracle",
            )
        for q, l in zip(rows["quadratic"].proportions, rows["linear"].proportions):
            assert q >= l

    @pytest.mark.parametrize("thresholds", [
        (math.nan, -5.0, math.inf), (math.nan,), (-5.0,), (0.0,), (math.inf,), (30.0, math.nan), (),
    ])
    def test_thresholds_must_be_finite_and_positive(self, thresholds):
        items = [on_model_metadata("f0")]
        with pytest.raises(ValueError) as info:
            evaluate_frames(items, label_fit("quadratic", True), thresholds,
                            model="quadratic", fastened=True, features="x")
        assert str(info.value) == "thresholds must be finite positive percentages"

    @pytest.mark.parametrize("thresholds", [(10.0, 10.0), (30.0, 10.0, 10.0000001)])
    def test_thresholds_must_name_distinct_columns(self, thresholds):
        # Two thresholds that format alike would write one report column twice.
        items = [on_model_metadata("f0")]
        with pytest.raises(ValueError) as info:
            evaluate_frames(items, label_fit("quadratic", True), thresholds,
                            model="quadratic", fastened=True, features="x")
        assert str(info.value) == "thresholds must be distinct, got 10 twice"

    def test_frames_without_labels_rejected(self):
        frame, _ = on_model_metadata("f0")
        with pytest.raises(ValueError, match="no label curve"):
            evaluate_frames(
                [(frame, bare_metadata())],
                label_fit("quadratic", True),
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
        lines = details_to_csv({"quadratic_fastened_rec": details}).splitlines()
        assert lines[0] == "run,frame_id,qp,actual_bits,predicted_bits,delta_pct"
        assert lines[1] == "quadratic_fastened_rec,f0,14,100.000000,90.000000,10.000000"

    def test_csv_text_quotes_only_a_comma_or_a_quote(self):
        text = csv_text(["frame_id", "a", "b"], [["s0f0", "-1.5", ""], ['s0,f"3', "2", "x y"]])
        assert text == 'frame_id,a,b\ns0f0,-1.5,\n"s0,f""3",2,x y\n'


def rewrite_extra(path, field, value) -> None:
    """Set one field of a checkpoint's stored run metadata in place."""
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    meta = json.loads(bytes(arrays["meta"]))
    meta["extra"][field] = value
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


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
        assert run.name == "quadratic_fastened_rec"

    def test_free_run_reads_no_anchor(self, tiny_corpus):
        # A free row's coefficients come from the planes alone; ln r0 reaches
        # fastened rows only, through the anchor their form pins.
        ids = [md.frame_id for _, md in tiny_corpus]
        split = split_dataset(ids, seed=0, test_fraction=0.25)
        cfg = TrainConfig(epochs=1, seed=0)
        free = run_training(tiny_corpus, split, "quadratic", False, ("rec", "seg"), cfg)
        fastened = run_training(tiny_corpus, split, "quadratic", True, ("rec", "seg"), cfg)
        for frame, md in tiny_corpus:
            moved = dataclasses.replace(md, anchor=OperationalPoint(14.0, md.labels.rate_at(14.0)))
            assert moved.anchor != md.anchor
            want, got = free.params(frame, md), free.params(frame, moved)
            assert (got.coeffs, got.branch_u) == (want.coeffs, want.branch_u)
            assert fastened.params(frame, moved).spec.anchor == moved.anchor

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
            assert loaded.params(frame, md).coeffs == run.params(frame, md).coeffs

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

    def test_run_without_test_frames_says_so(self, tiny_corpus):
        split = split_dataset([md.frame_id for _, md in tiny_corpus], seed=0, test_fraction=0.0)
        run = run_training(tiny_corpus, split, "linear", True, ("rec",),
                           TrainConfig(epochs=1, seed=0))
        with pytest.raises(ValueError, match="^run linear_fastened_rec holds no test frames$"):
            evaluate_run(tiny_corpus, run)

    @pytest.mark.parametrize("part", ["training", "validation"])
    def test_split_frame_missing_from_corpus_is_named(self, tiny_corpus, part):
        ids = tuple(md.frame_id for _, md in tiny_corpus)
        parts = {"training": ids[:8], "validation": ids[8:11]}
        parts[part] += ("s9f0000",)
        split = DatasetSplit(parts["training"], parts["validation"], ids[11:])
        with pytest.raises(ValueError, match=f"^{part} frame 's9f0000' is not in the corpus$"):
            run_training(tiny_corpus, split, "quadratic", True, ("rec",),
                         TrainConfig(epochs=1, seed=0))

    def test_repeated_test_ids_refused(self, tmp_path):
        # Scored twice, a repeated frame would count its pairs twice in the report.
        net, scaler = Network(NetworkConfig(1, 2)), TargetScaler(np.zeros(2), np.ones(2))
        message = "frame id 's1f0001' appears more than once in the test ids"
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainedRun("quadratic", True, ("rec",), net, scaler, ("s1f0001", "s1f0001"))
        path = tmp_path / "run.npz"
        TrainedRun("quadratic", True, ("rec",), net, scaler, ("s1f0001",)).save(path)
        rewrite_extra(path, "test_ids", ["s1f0001", "s1f0001"])
        with pytest.raises(CheckpointError) as info:
            TrainedRun.load(path)
        assert str(info.value) == f"checkpoint {path}: {message}"

    def test_provenance_cannot_set_the_runs_own_fields(self, tmp_path):
        # Saved over, form and test ids would load as another predictor with the same weights.
        net, scaler = Network(NetworkConfig(1, 2)), TargetScaler(np.zeros(2), np.ones(2))
        run = TrainedRun("quadratic", True, ("rec",), net, scaler, ("s1f0001",))
        path = tmp_path / "run.npz"
        with pytest.raises(ValueError,
                           match="^provenance may not set the run's own form, fastened, test_ids$"):
            run.save(path, seed=0, form="linear", fastened=False, test_ids=["nope"])
        assert not path.exists()

    def test_corpus_index_refuses_repeated_id(self, tiny_corpus):
        corpus = [tiny_corpus[0], tiny_corpus[1], tiny_corpus[0]]
        with pytest.raises(ValueError,
                           match="^frame id 's1234f0000' appears more than once in the corpus$"):
            corpus_index(corpus)

    def test_channels_canonicalized(self, tiny_corpus):
        ids = [md.frame_id for _, md in tiny_corpus]
        split = split_dataset(ids, seed=0, test_fraction=0.25)
        cfg = TrainConfig(epochs=1, seed=0)
        run = run_training(tiny_corpus, split, "linear", False, ("intra", "rec"), cfg)
        assert run.channels == ("rec", "intra")
        assert run.network.config.outputs == 2
        assert run.name == "linear_free_rec_intra"

    def test_unknown_channel_rejected(self, tiny_corpus):
        # Dropping the unknown name would train a rec-only network.
        split = split_dataset([md.frame_id for _, md in tiny_corpus], seed=0, test_fraction=0.25)
        with pytest.raises(ValueError, match="luma"):
            run_training(tiny_corpus, split, "quadratic", True, ("rec", "luma"),
                         TrainConfig(epochs=1, seed=0))

    def test_non_square_frames_train_and_score(self):
        corpus = synth_corpus(6, seed=3, size=(32, 64))
        split = split_dataset([md.frame_id for _, md in corpus], seed=0, test_fraction=1 / 3)
        run = run_training(corpus, split, "quadratic", True, ("rec",), TrainConfig(epochs=1))
        assert len(run.result.train_loss) == 1 and np.isfinite(run.result.train_loss).all()
        row, _ = evaluate_run(corpus, run)
        assert len(split.test) == 2
        assert row.n_pairs == len(split.test) * (len(QP_GRID) - 1)

    def test_mixed_frame_sizes_rejected(self):
        corpus = synth_corpus(4, seed=3, size=(32, 32)) + synth_corpus(4, seed=4)
        ids = tuple(md.frame_id for _, md in corpus)
        with pytest.raises(ValueError, match=f"^frame {ids[4]} is 64x64, expected 32x32 "):
            run_training(corpus, DatasetSplit(ids, (), ()), "quadratic", True, ("rec",),
                         TrainConfig(epochs=1))

    def test_training_keeps_frames_as_uint8_stacks(self):
        # 97 training frames of 3 64x64 planes: a float64 copy of them alone
        # (9.5 MB) exceeds the bound, so the stacks stay 8-bit until the
        # network's first stage reads them one frame at a time.
        corpus = synth_corpus(120, seed=5)
        split = split_dataset([md.frame_id for _, md in corpus], seed=5, test_fraction=0.1)
        bound = 8_000_000
        assert len(split.train) * 3 * 64 * 64 * 8 > bound
        tracemalloc.start()
        try:
            run_training(corpus, split, "quadratic", True, ("rec", "seg", "intra"),
                         TrainConfig(epochs=1, seed=5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

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
        rewrite_extra(path, field, value)
        with pytest.raises(CheckpointError) as info:
            TrainedRun.load(path)
        message = str(info.value)
        assert "\n" not in message and str(path) in message

    @pytest.mark.parametrize("field", ["test_ids", "channels"])
    @pytest.mark.parametrize("value", ["s1f0001", [7], None], ids=["string", "int_list", "null"])
    def test_load_refuses_ids_and_channels_that_are_not_lists_of_strings(self, tmp_path, field,
                                                                         value):
        run = TrainedRun("quadratic", True, ("rec",), Network(NetworkConfig(1, 2)),
                         TargetScaler(np.zeros(2), np.ones(2)), ("s1f0001",))
        path = tmp_path / "run.npz"
        run.save(path)
        assert TrainedRun.load(path).test_ids == ("s1f0001",)
        rewrite_extra(path, field, value)
        with pytest.raises(CheckpointError) as info:
            TrainedRun.load(path)
        assert str(info.value) == f"checkpoint {path}: {field} must be a list of strings"


class TestCurveDump:
    def test_requires_predictors(self):
        _, md = on_model_metadata("f0")
        with pytest.raises(ValueError, match="predictor"):
            curve_dump(md, {})

    def test_actual_column_is_verbatim(self):
        _, md = on_model_metadata("f0")
        text = curve_dump(md, {"fit": make_labels(md, "quadratic", True)})
        lines = text.strip().split("\n")
        assert lines[0] == "qp,actual_bits,predicted_bits_fit"
        assert len(lines) == 1 + len(QP_GRID)
        for line, sample in zip(lines[1:], md.labels.samples):
            assert line.split(",")[1] == f"{sample.rate:.6f}"

    def test_fastened_prediction_passes_anchor(self):
        _, md = on_model_metadata("f0")
        text = curve_dump(md, {"fit": make_labels(md, "quadratic", True)})
        anchor_line = next(
            line for line in text.splitlines()[1:] if line.startswith("10,")
        )
        predicted = float(anchor_line.split(",")[2])
        assert predicted == pytest.approx(md.anchor.r0, rel=1e-6)

    def test_inversion_failure_leaves_cell_empty(self):
        frame, md = on_model_metadata("f0")
        lines = curve_dump(md, {"up": overflowing(frame, md)}).splitlines()
        assert lines[1] == f"10,{md.anchor.r0:.6f},{md.anchor.r0:.6f}"
        assert all(line.endswith(",") for line in lines[2:])

    def test_overflowing_error_leaves_cell_empty(self):
        # The rate at QP 14 is a finite 6.75e306 bits; its % error is not.
        frame, md = error_overflow_metadata()
        lines = curve_dump(md, {"up": error_overflowing(frame, md)}).splitlines()
        assert lines[1:] == ["10,2.000000,2.000000", "14,1.500000,"]

    def test_unlabeled_frame_refused(self):
        _, md = on_model_metadata("f0")
        with pytest.raises(ValueError, match="^frame f0 carries no label curve$"):
            curve_dump(bare_metadata(), {"fit": make_labels(md, "quadratic", True)})

    def test_cells_match_report_detail(self, tiny_corpus):
        # Each curves.csv cell is the report_detail.csv predicted_bits cell of its pair,
        # so one is empty exactly when the other is.
        ids = [md.frame_id for _, md in tiny_corpus]
        run = run_training(tiny_corpus, split_dataset(ids, seed=0, test_fraction=0.25),
                           "linear", True, ("rec",), TrainConfig(epochs=1, seed=0))
        by_id = corpus_index(tiny_corpus)
        cases = [(error_overflow_metadata(), error_overflowing)]
        cases += [(by_id[i], run.params) for i in run.test_ids]
        cases += [(item, overflowing) for item in tiny_corpus[:2]]
        seen = {True: 0, False: 0}
        for (frame, md), params_fn in cases:
            _, details = evaluate_frames([(frame, md)], params_fn, model="linear",
                                         fastened=True, features="x")
            detail_rows = list(csv.DictReader(io.StringIO(details_to_csv({"r": details}))))
            detail = {row["qp"]: row["predicted_bits"] for row in detail_rows}
            curves = csv.DictReader(io.StringIO(curve_dump(md, {"p": params_fn(frame, md)})))
            cells = {row["qp"]: row["predicted_bits_p"] for row in curves}
            assert detail.keys() == cells.keys() - {f"{md.anchor.qp0:g}"}
            for qp, cell in detail.items():
                assert cells[qp] == cell
                seen[cell == ""] += 1
        assert seen[True] > 0 and seen[False] > 0
