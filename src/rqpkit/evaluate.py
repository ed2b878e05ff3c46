"""End-to-end pipeline: label fitting, training runs, error reports, curve dumps.

Accuracy is scored per (frame, label QP) pair: the model coefficients are
predicted from the frame's features, the rate at the label QP is solved
from the model, and the signed percentage error against the measured rate
is thresholded.  The one-pass anchor QP is excluded (its rate is known,
not predicted), and inversions with no finite solution (no real root, a
constant model, or a rate that over- or underflows) count as misses beyond
every threshold rather than being dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .features import CHANNEL_ORDER, GrayFrame, channel_order, stack_from_coding
from .ingest import CodingMetadata, DatasetSplit
from .model import (
    QP_MATCH_TOL,
    InversionError,
    ModelParams,
    ModelSpec,
    OperationalPoint,
    fit,
    predict_rate,
    relative_error,
)
from .regressor import (
    CheckpointError,
    Network,
    NetworkConfig,
    TargetScaler,
    TrainConfig,
    TrainResult,
    load_checkpoint,
    mean_predictor_mse,
    normalize_stack,
    save_checkpoint,
    train,
)

DEFAULT_THRESHOLDS = (30.0, 20.0, 10.0)


def frame_spec(form: str, fastened: bool, md: CodingMetadata) -> ModelSpec:
    """ModelSpec for one frame; fastened specs pin the frame's own anchor."""
    return ModelSpec(form, fastened, md.anchor if fastened else None)


def make_labels(md: CodingMetadata, spec: ModelSpec) -> ModelParams:
    """Ground-truth coefficients: least-squares fit of the frame's label curve.

    Fastened specs are re-anchored to the frame's own operating point, so
    one spec can label a whole corpus.
    """
    if md.labels is None:
        raise ValueError(f"frame {md.frame_id} carries no label curve")
    bound = frame_spec(spec.form, spec.fastened, md)
    if len(md.labels) < bound.param_count:
        raise ValueError(
            f"frame {md.frame_id}: {bound.label()} needs {bound.param_count} label points, "
            f"got {len(md.labels)}"
        )
    return fit(bound, md.labels)


@dataclass(frozen=True)
class PairOutcome:
    """One scored (frame, label QP) pair; predicted/delta are None on inversion failure."""

    frame_id: str
    qp: float
    actual: float
    predicted: float | None
    delta: float | None


@dataclass(frozen=True)
class ReportRow:
    model: str
    fastened: bool
    features: str
    n_pairs: int
    n_failures: int
    # |delta| statistics over successful inversions; NaN when none succeeded.
    mean_abs_delta: float
    median_abs_delta: float
    p90_abs_delta: float
    proportions: tuple[float, ...]  # aligned with the report thresholds

    def _cells(self, yes: str, no: str) -> list[str]:
        return [self.model, yes if self.fastened else no, self.features,
                str(self.n_pairs), str(self.n_failures)]

    def _abs_deltas(self) -> tuple[float, float, float]:
        return self.mean_abs_delta, self.median_abs_delta, self.p90_abs_delta


@dataclass
class ErrorReport:
    thresholds: tuple[float, ...]
    rows: list[ReportRow] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        header = ["model", "fastened", "features", "n_pairs", "n_failures",
                  "mean_abs_delta_pct", "median_abs_delta_pct", "p90_abs_delta_pct"]
        header += [f"prop_le_{t:g}pct" for t in self.thresholds]
        lines = [",".join(header)]
        for r in self.rows:
            cells = r._cells("yes", "no") + [f"{v:.6f}" for v in r._abs_deltas() + r.proportions]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        """Aligned text table with percentage cells, two decimals."""
        head = ["model", "P0", "features", "pairs", "fail", "mean|d|", "median|d|", "p90|d|"]
        head += [f"<={t:g}%" for t in self.thresholds]
        body = [
            r._cells("x", "-") + [f"{d:.2f}%" for d in r._abs_deltas()]
            + [f"{100.0 * p:.2f}%" for p in r.proportions]
            for r in self.rows
        ]
        widths = [max(len(row[i]) for row in [head] + body) for i in range(len(head))]
        render = lambda row: "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
        lines = [render(head), render(["-" * w for w in widths])]
        lines += [render(row) for row in body]
        if self.metadata:
            lines.append("")
            lines += [f"# {k}: {v}" for k, v in sorted(self.metadata.items())]
        return "\n".join(lines) + "\n"


def details_to_csv(details: list[PairOutcome]) -> str:
    """Per-pair outcomes with signed deltas, for diagnostics."""
    lines = ["frame_id,qp,actual_bits,predicted_bits,delta_pct"]
    for d in details:
        predicted = "" if d.predicted is None else f"{d.predicted:.6f}"
        delta = "" if d.delta is None else f"{d.delta:.6f}"
        lines.append(f"{d.frame_id},{d.qp:g},{d.actual:.6f},{predicted},{delta}")
    return "\n".join(lines) + "\n"


def evaluate_frames(items, params_fn, thresholds=DEFAULT_THRESHOLDS, *,
                    model: str, fastened: bool, features: str) -> tuple[ReportRow, list[PairOutcome]]:
    """Score a predictor over every (frame, label QP != anchor QP) pair.

    params_fn(frame, md) supplies the model coefficients for one frame;
    inversion failures count toward n_pairs but meet no threshold.
    """
    thresholds = tuple(float(t) for t in thresholds)
    details: list[PairOutcome] = []
    abs_deltas: list[float] = []
    n_failures = 0
    for frame, md in items:
        if md.labels is None:
            raise ValueError(f"frame {md.frame_id} carries no label curve to score against")
        params = params_fn(frame, md)
        for sample in md.labels.samples:
            if abs(sample.qp - md.anchor.qp0) <= QP_MATCH_TOL:
                continue  # the one-pass point is measured, never predicted
            try:
                predicted = predict_rate(params, sample.qp)
                delta = relative_error(sample.rate, predicted)
            except InversionError:
                n_failures += 1
                details.append(PairOutcome(md.frame_id, sample.qp, sample.rate, None, None))
                continue
            abs_deltas.append(abs(delta))
            details.append(PairOutcome(md.frame_id, sample.qp, sample.rate, predicted, delta))
    n_pairs = len(details)
    if n_pairs == 0:
        raise ValueError("no scoreable (frame, qp) pairs")
    proportions = tuple(
        sum(1 for d in abs_deltas if d <= t) / n_pairs for t in thresholds
    )
    if abs_deltas:
        ranked, n = sorted(abs_deltas), len(abs_deltas)
        mean_abs = float(np.mean(abs_deltas))
        median_abs = ranked[n // 2] if n % 2 else (ranked[n // 2 - 1] + ranked[n // 2]) / 2
        p90_abs = ranked[(9 * n - 1) // 10]  # nearest rank: >= 90 % of them lie within it
    else:
        mean_abs = median_abs = p90_abs = float("nan")
    row = ReportRow(
        model=model,
        fastened=fastened,
        features=features,
        n_pairs=n_pairs,
        n_failures=n_failures,
        mean_abs_delta=mean_abs,
        median_abs_delta=median_abs,
        p90_abs_delta=p90_abs,
        proportions=proportions,
    )
    return row, details


def label_fit_predictor(form: str, fastened: bool):
    """Oracle predictor: the least-squares fit of each frame's own labels."""

    def params_fn(frame: GrayFrame, md: CodingMetadata) -> ModelParams:
        return make_labels(md, frame_spec(form, fastened, md))

    return params_fn


def net_predictor(network: Network, scaler, form: str, fastened: bool, channels):
    """Predictor backed by a trained network over the given feature channels."""
    channels = tuple(channels)

    def params_fn(frame: GrayFrame, md: CodingMetadata) -> ModelParams:
        x = normalize_stack(stack_from_coding(frame, md.cus, md.pus, channels))
        coeffs = scaler.inverse(network.forward(x[None])[0])
        return ModelParams(frame_spec(form, fastened, md), tuple(float(c) for c in coeffs))

    return params_fn


# ---------------------------------------------------------------------------
# Training runs and ablation grids
# ---------------------------------------------------------------------------


@dataclass
class TrainedRun:
    """A trained predictor: network, target scaler, model form, feature channels
    and the frames held out to test it.

    `result` and `baseline_val_mse` are None on a run loaded from a checkpoint.
    """

    form: str
    fastened: bool
    channels: tuple[str, ...]
    network: Network
    scaler: TargetScaler
    test_ids: tuple[str, ...]
    result: TrainResult | None = None
    baseline_val_mse: float | None = None

    def __post_init__(self):
        if not isinstance(self.fastened, bool):
            raise ValueError(f"fastened must be true or false, got {self.fastened!r}")
        # Any anchor will do: the coefficient count depends on form and fastening only.
        anchor = OperationalPoint(0.0, 1.0) if self.fastened else None
        spec = ModelSpec(self.form, self.fastened, anchor)  # validates the form
        channels, config = self.channels, self.network.config
        if channels != channel_order(channels) or len(channels) != config.input_channels:
            raise ValueError(f"channels {channels} are not the network's {config.input_channels} "
                             f"input channels in the order {CHANNEL_ORDER}")
        if spec.param_count != config.outputs:
            raise ValueError(f"{spec.label()} takes {spec.param_count} coefficients but the "
                             f"network emits {config.outputs}")

    def predictor(self):
        return net_predictor(self.network, self.scaler, self.form, self.fastened, self.channels)

    def save(self, path, **provenance) -> None:
        """Write a checkpoint; `provenance` adds JSON-serializable metadata."""
        save_checkpoint(path, self.network, self.scaler, extra={
            "form": self.form,
            "fastened": self.fastened,
            "channels": list(self.channels),
            "test_ids": list(self.test_ids),
            **provenance,
        })

    @classmethod
    def load(cls, path) -> "TrainedRun":
        network, scaler, extra = load_checkpoint(path)
        try:
            return cls(extra["form"], extra["fastened"], tuple(extra["channels"]), network,
                       scaler, tuple(extra["test_ids"]))
        except KeyError as exc:
            raise CheckpointError(f"checkpoint {path} lacks metadata field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint {path}: {exc}") from exc


def corpus_index(corpus) -> dict[str, tuple[GrayFrame, CodingMetadata]]:
    index = {md.frame_id: (frame, md) for frame, md in corpus}
    if len(index) != len(corpus):
        raise ValueError("corpus contains duplicate frame ids")
    return index


def _dataset(by_id, ids, form, fastened, channels) -> tuple[np.ndarray, np.ndarray]:
    """Network inputs (n, C, H, W) in [0, 1] and fitted label coefficients (n, outputs)."""
    pairs = [by_id[frame_id] for frame_id in ids]
    stacks = [normalize_stack(stack_from_coding(frame, md.cus, md.pus, channels))
              for frame, md in pairs]
    for (_, md), stack in zip(pairs, stacks):
        if stack.shape != stacks[0].shape:
            (_, h, w), (_, h0, w0) = stack.shape, stacks[0].shape
            raise ValueError(f"frame {md.frame_id} is {w}x{h}, expected {w0}x{h0} "
                             f"like {pairs[0][1].frame_id}")
    x = np.stack(stacks)
    y = np.array([make_labels(md, frame_spec(form, fastened, md)).coeffs for _, md in pairs])
    return x, y


def run_training(corpus, split: DatasetSplit, form: str, fastened: bool, channels,
                 train_cfg: TrainConfig) -> TrainedRun:
    """Fit labels, build stacks, and train one network for one configuration."""
    channels = channel_order(channels)
    if not split.train:
        raise ValueError("split has no training frames")
    by_id = corpus_index(corpus)
    x, y = _dataset(by_id, split.train, form, fastened, channels)
    if x.shape[2] != x.shape[3]:
        raise ValueError(f"the regressor expects square frames, got {x.shape[3]}x{x.shape[2]}")
    network = Network(NetworkConfig(len(channels), x.shape[2], y.shape[1], train_cfg.seed))
    validation = None
    if split.validation:
        validation = _dataset(by_id, split.validation, form, fastened, channels)
    result = train(network, x, y, train_cfg, validation)
    baseline = mean_predictor_mse(result.scaler, validation[1]) if validation else None
    return TrainedRun(
        form=form,
        fastened=fastened,
        channels=channels,
        network=network,
        scaler=result.scaler,
        test_ids=tuple(split.test),
        result=result,
        baseline_val_mse=baseline,
    )


def evaluate_run(corpus, run: TrainedRun,
                 thresholds=DEFAULT_THRESHOLDS) -> tuple[ReportRow, list[PairOutcome]]:
    """Score a trained run on those of its test frames the corpus holds."""
    by_id = corpus_index(corpus)
    items = [by_id[i] for i in run.test_ids if i in by_id]
    if not items:
        raise ValueError("none of the run's test frames appear in the corpus")
    return evaluate_frames(
        items,
        run.predictor(),
        thresholds,
        model=run.form,
        fastened=run.fastened,
        features="+".join(run.channels),
    )


@dataclass(frozen=True)
class AblationConfig:
    """Grid of model forms x feature subsets to train and score."""

    forms: tuple[tuple[str, bool], ...] = (("quadratic", True), ("quadratic", False))
    feature_sets: tuple[tuple[str, ...], ...] = (("rec",), CHANNEL_ORDER)
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS

    def __post_init__(self):
        if not self.forms or not self.feature_sets or not self.thresholds:
            raise ValueError("forms, feature_sets, and thresholds must be nonempty")
        for form, _ in self.forms:
            ModelSpec(form)  # validates the name
        for channels in self.feature_sets:
            channel_order(channels)  # validates the subset


def run_ablation(corpus, split: DatasetSplit, ablation: AblationConfig,
                 train_cfg: TrainConfig) -> tuple[ErrorReport, dict]:
    """Train and score every (form, features) cell; rows in grid order."""
    report = ErrorReport(
        thresholds=tuple(float(t) for t in ablation.thresholds),
        metadata={
            "aggregation": "per (frame, label-qp) pair, anchor qp excluded",
            "train_frames": len(split.train),
            "validation_frames": len(split.validation),
            "test_frames": len(split.test),
            "epochs": train_cfg.epochs,
            "seed": train_cfg.seed,
        },
    )
    runs: dict[tuple, TrainedRun] = {}
    for form, fastened in ablation.forms:
        for channels in ablation.feature_sets:
            run = run_training(corpus, split, form, fastened, channels, train_cfg)
            row, _ = evaluate_run(corpus, run, ablation.thresholds)
            report.rows.append(row)
            runs[(form, fastened, run.channels)] = run
    return report, runs


def curve_dump(frame: GrayFrame, md: CodingMetadata, predictors: dict) -> str:
    """CSV of actual vs predicted rates at a frame's label QPs, one column per predictor.

    Predictors map a column name to a params_fn(frame, md); inversion
    failures leave the cell empty.
    """
    if not predictors:
        raise ValueError("at least one predictor is required")
    if md.labels is None:
        raise ValueError(f"frame {md.frame_id} carries no label curve")
    params_by_name = {name: fn(frame, md) for name, fn in predictors.items()}
    lines = ["qp,actual_bits," + ",".join(f"predicted_bits_{n}" for n in predictors)]
    for sample in md.labels.samples:
        cells = [f"{sample.qp:g}", f"{sample.rate:.6f}"]
        for name in predictors:
            try:
                cells.append(f"{predict_rate(params_by_name[name], sample.qp):.6f}")
            except InversionError:
                cells.append("")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
