"""End-to-end pipeline: label fitting, training runs, error reports, curve dumps.

Accuracy is scored per (frame, label QP) pair: the model coefficients are
predicted from the frame's features, the rate at the label QP is solved
from the model, and the signed percentage error against the measured rate
is thresholded.  The one-pass anchor QP is excluded (its rate is known,
not predicted), and inversions with no finite solution (no real root, a
constant model, or a rate that over- or underflows) count as misses beyond
every threshold rather than being dropped, as does a finite rate so far
off that its percentage error overflows to infinity.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .checks import check_positive
from .features import CHANNEL_ORDER, GrayFrame, channel_order, stack_from_coding
from .ingest import CodingMetadata, DatasetSplit, _refuse_repeated_ids
from .model import (
    QP_MATCH_TOL,
    DegenerateFitError,
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
    mse_loss,
    save_checkpoint,
    train,
)

DEFAULT_THRESHOLDS = (30.0, 20.0, 10.0)


def frame_spec(form: str, fastened: bool, md: CodingMetadata) -> ModelSpec:
    """ModelSpec for one frame; fastened specs pin the frame's own anchor."""
    return ModelSpec(form, anchor=md.anchor if fastened else None)


def make_labels(md: CodingMetadata, form: str, fastened: bool) -> ModelParams:
    """Ground-truth coefficients: least-squares fit of the frame's label curve.

    The fit is of `frame_spec(form, fastened, md)`, so a fastened form holds
    the frame's own anchor; fit's DegenerateFitError comes out naming the frame.
    """
    if md.labels is None:
        raise ValueError(f"frame {md.frame_id} carries no label curve")
    try:
        return fit(frame_spec(form, fastened, md), md.labels)
    except DegenerateFitError as exc:
        raise DegenerateFitError(f"frame {md.frame_id}: {exc}") from None


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
        """One row per run, written through `csv_text`; statistics to six decimals."""
        header = ["model", "fastened", "features", "n_pairs", "n_failures",
                  "mean_abs_delta_pct", "median_abs_delta_pct", "p90_abs_delta_pct"]
        header += [f"prop_le_{t:g}pct" for t in self.thresholds]
        stats = lambda r: [f"{v:.6f}" for v in r._abs_deltas() + r.proportions]
        return csv_text(header, [r._cells("yes", "no") + stats(r) for r in self.rows])

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


def csv_text(header: list[str], rows) -> str:
    """Header and rows of string cells as LF-ended CSV; a cell with a comma or quote is quoted."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([header, *rows])
    return text.getvalue()


def details_to_csv(details_by_run: dict[str, list[PairOutcome]]) -> str:
    """Per-pair outcomes with signed deltas, one block per run name, through `csv_text`."""
    blank = lambda v: "" if v is None else f"{v:.6f}"
    return csv_text(["run", "frame_id", "qp", "actual_bits", "predicted_bits", "delta_pct"], [
        [run, d.frame_id, f"{d.qp:g}", f"{d.actual:.6f}", blank(d.predicted), blank(d.delta)]
        for run, details in details_by_run.items() for d in details
    ])


def check_thresholds(thresholds) -> tuple[float, ...]:
    """Report thresholds as floats; ValueError unless there is one or more, each finite and > 0,
    and no two share a report column (named by `f"{t:g}"`)."""
    try:
        values = tuple(check_positive("threshold", t) for t in thresholds)
    except (TypeError, ValueError):  # a TypeError: thresholds is not iterable
        values = ()  # every refusal gives the one message below
    if not values:
        raise ValueError("thresholds must be finite positive percentages")
    seen = set()
    for name in (f"{t:g}" for t in values):
        if name in seen:
            raise ValueError(f"thresholds must be distinct, got {name} twice")
        seen.add(name)
    return values


def evaluate_frames(items, params_fn, thresholds=DEFAULT_THRESHOLDS, *,
                    model: str, fastened: bool, features: str) -> tuple[ReportRow, list[PairOutcome]]:
    """Score a predictor over every (frame, label QP != anchor QP) pair.

    params_fn(frame, md) supplies the model coefficients for one frame;
    inversion failures and infinite errors count toward n_pairs but meet no
    threshold.
    """
    thresholds = check_thresholds(thresholds)
    details: list[PairOutcome] = []
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
                delta = float("nan")
            if not math.isfinite(delta):  # no finite rate, or an error too large for a float
                predicted = delta = None
            details.append(PairOutcome(md.frame_id, sample.qp, sample.rate, predicted, delta))
    n_pairs = len(details)
    if n_pairs == 0:
        raise ValueError("no scoreable (frame, qp) pairs")
    abs_deltas = [abs(d.delta) for d in details if d.delta is not None]
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
        n_failures=n_pairs - len(abs_deltas),
        mean_abs_delta=mean_abs,
        median_abs_delta=median_abs,
        p90_abs_delta=p90_abs,
        proportions=proportions,
    )
    return row, details


# ---------------------------------------------------------------------------
# Training runs and their checkpoints
# ---------------------------------------------------------------------------


@dataclass
class TrainedRun:
    """A trained predictor: network, target scaler, model form, feature channels
    and the frames held out to test it; `params(frame, md)` predicts a frame.

    `result` and `baseline_val_mse` are None on a run loaded from a checkpoint.
    Loading checks every stored array against the array it fills, naming any it refuses.
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
        _refuse_repeated_ids(self.test_ids, "test ids")
        # Any anchor will do: the coefficient count depends on form and fastening only.
        anchor = OperationalPoint(0.0, 1.0) if self.fastened else None
        spec = ModelSpec(self.form, anchor=anchor)  # validates the form
        channels, config = self.channels, self.network.config
        if channels != channel_order(channels) or len(channels) != config.input_channels:
            raise ValueError(f"channels {channels} are not the network's {config.input_channels} "
                             f"input channels in the order {CHANNEL_ORDER}")
        if spec.param_count != config.outputs:
            raise ValueError(f"{spec.label()} takes {spec.param_count} coefficients but the "
                             f"network emits {config.outputs}")

    @property
    def name(self) -> str:
        """Form, fastening and channels, e.g. quadratic_fastened_rec_seg_intra."""
        return f"{self.form}_{'fastened' if self.fastened else 'free'}_" + "_".join(self.channels)

    def params(self, frame: GrayFrame, md: CodingMetadata) -> ModelParams:
        """Model coefficients of a frame: its feature stack, one forward pass, inverse scaling."""
        x = stack_from_coding(frame, md, self.channels)
        coeffs = self.scaler.inverse(self.network.forward(x[None])[0])
        return ModelParams(frame_spec(self.form, self.fastened, md), tuple(float(c) for c in coeffs))

    def save(self, path, **provenance) -> None:
        """Write a checkpoint; `provenance` adds JSON-serializable metadata, but may not
        set the run's own fields."""
        extra = {
            "form": self.form,
            "fastened": self.fastened,
            "channels": list(self.channels),
            "test_ids": list(self.test_ids),
        }
        clash = [key for key in extra if key in provenance]
        if clash:
            raise ValueError(f"provenance may not set the run's own {', '.join(clash)}")
        save_checkpoint(path, self.network, self.scaler, extra={**extra, **provenance})

    @classmethod
    def load(cls, path) -> "TrainedRun":
        network, scaler, extra = load_checkpoint(path)

        def strings(name: str) -> tuple[str, ...]:
            value = extra[name]
            if type(value) is not list or any(type(v) is not str for v in value):
                raise ValueError(f"{name} must be a list of strings")
            return tuple(value)

        try:
            return cls(extra["form"], extra["fastened"], strings("channels"), network,
                       scaler, strings("test_ids"))
        except KeyError as exc:
            raise CheckpointError(f"checkpoint {path} lacks metadata field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint {path}: {exc}") from exc


def net_predictor(network: Network, scaler, form: str, fastened: bool, channels):
    """`TrainedRun(...).params`, for callers holding an unsaved network; the library
    API is `TrainedRun.params`."""
    return TrainedRun(form, fastened, tuple(channels), network, scaler, ()).params


def corpus_index(corpus) -> dict[str, tuple[GrayFrame, CodingMetadata]]:
    _refuse_repeated_ids((md.frame_id for _, md in corpus), "corpus")
    return {md.frame_id: (frame, md) for frame, md in corpus}


def _dataset(by_id, ids, part, form, fastened, channels) -> tuple[np.ndarray, np.ndarray]:
    """uint8 feature stacks (n, C, H, W) and fitted label coefficients (n, outputs).

    The stacks stay 8-bit planes: `Network.forward` maps each frame onto
    [0, 1] as it reads it.  An id the corpus lacks is a ValueError naming
    it and its `part` of the split.
    """
    try:
        pairs = [by_id[frame_id] for frame_id in ids]
    except KeyError as exc:
        raise ValueError(f"{part} frame {exc} is not in the corpus") from None
    stacks = [stack_from_coding(frame, md, channels) for frame, md in pairs]
    for (_, md), stack in zip(pairs, stacks):
        if stack.shape != stacks[0].shape:
            (_, h, w), (_, h0, w0) = stack.shape, stacks[0].shape
            raise ValueError(f"frame {md.frame_id} is {w}x{h}, expected {w0}x{h0} "
                             f"like {pairs[0][1].frame_id}")
    x = np.stack(stacks)
    y = np.array([make_labels(md, form, fastened).coeffs for _, md in pairs])
    return x, y


def run_training(corpus, split: DatasetSplit, form: str, fastened: bool, channels,
                 train_cfg: TrainConfig) -> TrainedRun:
    """Fit labels, build stacks, and train one network for one configuration."""
    channels = channel_order(channels)
    if not split.train:
        raise ValueError("split has no training frames")
    by_id = corpus_index(corpus)
    x, y = _dataset(by_id, split.train, "training", form, fastened, channels)
    network = Network(NetworkConfig(len(channels), y.shape[1], train_cfg.seed))
    validation = None
    if split.validation:
        validation = _dataset(by_id, split.validation, "validation", form, fastened, channels)
    result = train(network, x, y, train_cfg, validation)
    baseline = None
    if validation:
        z = result.scaler.transform(validation[1])
        baseline = mse_loss(np.zeros_like(z), z)[0]  # the mean predictor, in standardized units
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
    if not run.test_ids:
        raise ValueError(f"run {run.name} holds no test frames")
    by_id = corpus_index(corpus)
    items = [by_id[i] for i in run.test_ids if i in by_id]
    if not items:
        raise ValueError("none of the run's test frames appear in the corpus")
    return evaluate_frames(
        items,
        run.params,
        thresholds,
        model=run.form,
        fastened=run.fastened,
        features="+".join(run.channels),
    )


def curve_dump(md: CodingMetadata, params_by_name: dict[str, ModelParams]) -> str:
    """CSV of actual vs predicted rates at a frame's label QPs, one column per name.

    `params_by_name` maps a column name to the frame's predicted model
    coefficients; inversion failures leave the cell empty.  Written through `csv_text`.
    """
    if not params_by_name:
        raise ValueError("at least one predictor is required")
    if md.labels is None:
        raise ValueError(f"frame {md.frame_id} carries no label curve")
    rows = []
    for sample in md.labels.samples:
        cells = [f"{sample.qp:g}", f"{sample.rate:.6f}"]
        for params in params_by_name.values():
            try:
                cells.append(f"{predict_rate(params, sample.qp):.6f}")
            except InversionError:
                cells.append("")
        rows.append(cells)
    return csv_text(["qp", "actual_bits"] + [f"predicted_bits_{n}" for n in params_by_name], rows)
