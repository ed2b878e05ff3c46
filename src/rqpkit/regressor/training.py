"""Training loop, scalers, loss, and the adaptive-moment optimizer.

`train` hands the feature stacks to the network as they are, so 8-bit
planes stay 8-bit: `Network.forward` maps them one frame at a time.  Target
coefficients are standardized per parameter with mean/deviation taken
from the training labels only, after `train` has refused, naming the set,
any NaN or infinite label or floating input.  One loss, `mse_loss`, the
mean squared difference between predicted and fitted coefficients in
standardized space, scores training, validation and the mean-predictor
baseline, the last two on one standardized validation array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..checks import check_finite, check_int
from .network import Network, check_input_dtype

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class DegenerateLabelsError(ValueError):
    """Training labels have zero variance in some coefficient."""


class TrainingError(RuntimeError):
    """Training aborted (non-finite loss or weights)."""


def _refuse_non_finite_labels(labels, part: str) -> None:
    if bad := np.flatnonzero(~np.isfinite(np.asarray(labels, dtype=float)).all(axis=0)).tolist():
        raise ValueError(f"coefficients {bad} hold NaN or infinite {part} labels")


class TargetScaler:
    """Per-coefficient standardizer: values map to (values - mean) / scale.

    `fit` builds one from training labels.  A NaN or infinite label is a
    ValueError naming its coefficients.  A coefficient with zero
    deviation is an error when there are several samples (it cannot be
    standardized); with a single sample the scale falls back to 1 and only
    the mean is removed, which is what the usual standard-scaler
    implementations do.
    """

    def __init__(self, mean: np.ndarray, scale: np.ndarray):
        self.mean = np.asarray(mean, dtype=float)
        self.scale = np.asarray(scale, dtype=float)

    @classmethod
    def fit(cls, labels: np.ndarray) -> "TargetScaler":
        labels = np.asarray(labels, dtype=float)
        if labels.ndim != 2 or labels.shape[0] < 1:
            raise ValueError(f"labels must be (samples, coefficients), got {labels.shape}")
        _refuse_non_finite_labels(labels, "training")
        std = labels.std(axis=0)
        if labels.shape[0] > 1 and np.any(std == 0):
            flat = [i for i, s in enumerate(std) if s == 0]
            raise DegenerateLabelsError(
                f"coefficients {flat} are constant across the {labels.shape[0]} training labels"
            )
        return cls(labels.mean(axis=0), np.where(std == 0, 1.0, std))

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=float) - self.mean) / self.scale

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float) * self.scale + self.mean


def mse_loss(predicted: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared coefficient error and its gradient w.r.t. the prediction."""
    diff = predicted - target
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad


class Adam:
    """Adaptive-moment gradient descent with bias correction."""

    def __init__(self, params, learning_rate: float):
        self.params = list(params)
        self.lr = learning_rate
        self.t = 0
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]

    def step(self, grads) -> None:
        grads = list(grads)
        if len(grads) != len(self.params):
            raise ValueError(f"expected {len(self.params)} gradients, got {len(grads)}")
        self.t += 1
        correct1 = 1.0 - ADAM_BETA1 ** self.t
        correct2 = 1.0 - ADAM_BETA2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer step and schedule; ValueError unless learning_rate is finite and >= 0."""

    learning_rate: float = 1e-4
    batch_size: int = 10
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        lr = self.learning_rate
        if check_finite("learning_rate", lr) < 0:
            raise ValueError(f"learning_rate must be a finite real >= 0, got {lr!r}")
        check_int("batch_size", self.batch_size, 1)
        check_int("epochs", self.epochs, 1)
        check_int("seed", self.seed, 0)


@dataclass
class TrainResult:
    """Per-epoch history of a run.

    `baseline_val_mse` is the mean predictor's (all zeros) loss on the
    standardized labels `val_loss` is scored against, None without
    validation.  `epoch_s` is each epoch's wall time.  Per epoch and in
    `Network.parameters()` order, taken at the epoch's last step:
    `grad_norms` holds the L2 norm of every parameter array's gradient, and
    `update_ratios` the optimizer step's ‖Δp‖ / ‖p‖ with p the array before
    the step (inf for an all-zero array that moved, nan for one that did not).
    """

    scaler: TargetScaler
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    baseline_val_mse: float | None = None
    epoch_s: list[float] = field(default_factory=list)
    grad_norms: list[tuple[float, ...]] = field(default_factory=list)
    update_ratios: list[tuple[float, ...]] = field(default_factory=list)


def train(network: Network, x: np.ndarray, y: np.ndarray, cfg: TrainConfig,
          validation=None) -> TrainResult:
    """Train on feature stacks x (n, C, H, W) and raw coefficients y (n, outputs).

    x's batches reach `Network.forward` as they are.  Before the scaler is
    fitted on y, training and then `validation`, an (x, y) pair, each raise a
    ValueError for an x dtype the network refuses, a misshapen y, or (naming
    the set) a NaN or infinite label or floating x.  Validation is scored each
    epoch with that scaler and `mse_loss` over the whole set, forwarded
    `cfg.batch_size` rows at a time, beside the mean predictor's loss.
    """
    sets = [("training", x, y)] + ([("validation", *validation)] if validation is not None else [])
    for part, xs, ys in sets:
        check_input_dtype(xs)
        if len(xs) == 0 or np.shape(ys) != (len(xs), network.config.outputs):
            raise ValueError(f"need a nonempty x and a y of {len(xs)} rows of "
                             f"{network.config.outputs} coefficients, got {np.shape(ys)}")
        _refuse_non_finite_labels(ys, part)
        if xs.dtype != np.uint8 and not np.isfinite(xs).all():
            raise ValueError(f"{part} inputs hold NaN or infinite values")
    scaler = TargetScaler.fit(y)
    y = scaler.transform(y)
    result = TrainResult(scaler=scaler)
    if validation is not None:
        validation = validation[0], scaler.transform(validation[1])
        result.baseline_val_mse = mse_loss(np.zeros_like(validation[1]), validation[1])[0]

    optimizer = Adam(network.parameters(), cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    n = len(x)
    for epoch in range(cfg.epochs):
        start_s = perf_counter()
        order = rng.permutation(n)
        squared_sum = 0.0
        starts = range(0, n, cfg.batch_size)
        for start in starts:
            # Sorting inside the batch keeps summation order canonical, so
            # frozen weights give a bit-identical loss regardless of shuffle.
            idx = np.sort(order[start : start + cfg.batch_size])
            out = network.forward(x[idx])
            loss, grad = mse_loss(out, y[idx])
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss {loss} in epoch {epoch}, batch at {start}; "
                    "lower the learning rate or inspect the labels"
                )
            squared_sum += loss * grad.size
            network.backward(grad)
            if start == starts[-1]:
                before = [p.copy() for p in network.parameters()]
            optimizer.step(network.gradients())
        if not all(np.isfinite(p).all() for p in network.parameters()):
            raise TrainingError(f"non-finite weights after epoch {epoch}; lower the learning rate")
        result.train_loss.append(squared_sum / y.size)
        result.grad_norms.append(tuple(float(np.linalg.norm(g)) for g in network.gradients()))
        with np.errstate(divide="ignore", invalid="ignore"):
            result.update_ratios.append(tuple(
                float(np.linalg.norm(p - q) / np.linalg.norm(q))
                for p, q in zip(network.parameters(), before)
            ))
        if validation is not None:
            val_x, val_y = validation
            outputs = [network.forward(val_x[i : i + cfg.batch_size])
                       for i in range(0, len(val_x), cfg.batch_size)]
            result.val_loss.append(mse_loss(np.concatenate(outputs), val_y)[0])
        result.epoch_s.append(perf_counter() - start_s)
    return result
