"""Spans around the calls into each rqpkit layer, recorded from outside the program.

Each wrapper replaces a function at the name its caller resolves (a module
global such as ``rqpkit.evaluate.fit``, or a class attribute such as
``Conv2d.backward``), so the program itself is unchanged.  Spans are kept
in memory as (name, start, end, parent, batch, error) and written out when
the run ends; per-layer metrics are reduced from them afterwards.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import rqpkit.evaluate
import rqpkit.features
import rqpkit.ingest
from rqpkit.model import NoRealRootError
from rqpkit.regressor import layers, network, training

# The package re-exports the entropy() function under the submodule's name.
entropy_module = sys.modules["rqpkit.entropy"]

NAME, START, END, PARENT, BATCH, ERROR = range(6)

# Per-layer metrics in report order: name -> unit.
PER_LAYER = {
    "entropy.calls": "count",
    "entropy.busy_s": "s",
    "entropy.ms_per_call": "ms",
    "ingest.synth_self_s": "s",
    "ingest.save_s": "s",
    "ingest.load_metadata_ms": "ms",
    "ingest.bytes_written": "B/frame",
    "pgm.write_ms": "ms",
    "pgm.read_ms": "ms",
    "features.stacks": "count",
    "features.stack_ms": "ms",
    "features.seg_ms": "ms",
    "features.intra_ms": "ms",
    "model.fit_calls": "count",
    "model.fit_busy_s": "s",
    "model.predict_rate_calls": "count",
    "model.predict_rate_us": "us",
    "model.no_root": "count",
    **{f"regressor.conv{k}.{d}_ms": "ms" for d in ("fwd", "bwd") for k in range(4)},
    "regressor.dense.fwd_ms": "ms",
    "regressor.dense.bwd_ms": "ms",
    "regressor.adam_ms": "ms",
    "regressor.step_ms": "ms",
    "regressor.steps": "count",
    "regressor.forward_b1_ms": "ms",
    "regressor.checkpoint_load_s": "s",
    "evaluate.run_training_self_s": "s",
    "evaluate.evaluate_run_s": "s",
    "evaluate.predictor_ms": "ms",
    "evaluate.miss_share": "ratio",
    "trace.overhead": "ratio",
}

# Counts of work done in a fixed-length run rise as a layer gets faster;
# failures, shares and times fall.
HIGHER_IS_BETTER = {
    "entropy.calls", "features.stacks", "model.fit_calls",
    "model.predict_rate_calls", "regressor.steps",
}


class Tracer:
    """Installs span-recording wrappers and reduces the spans to per-layer metrics."""

    def __init__(self):
        self.spans: list[list] = []
        self.bytes_written = 0
        self.frames_saved = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._conv_stage: dict[int, int] = {}

    # -- recording ---------------------------------------------------------

    def _traced(self, label, original):
        """A span-recording wrapper around original.

        label(args) gives (span name, batch size or None); it runs before
        the call so it may also register state the name depends on.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name, batch = label(args)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, batch, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return original(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
                span[END] = perf_counter()

        return traced

    def _wrap(self, owner, attr: str, label) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self._traced(label, original))
        self._patches.append((owner, attr, original))

    def _fixed(self, name: str):
        return lambda args: (name, None)

    def _network_forward(self, args):
        net, x = args[0], args[1]
        convs = [layer for layer in net.layers if isinstance(layer, layers.Conv2d)]
        for stage, layer in enumerate(convs):
            self._conv_stage[id(layer)] = stage
        return "regressor.forward", x.shape[0]

    def _conv(self, direction: str):
        def label(args):
            stage = self._conv_stage.get(id(args[0]), "?")
            return f"regressor.conv{stage}.{direction}", args[1].shape[0]
        return label

    def _dense(self, direction: str):
        return lambda args: (f"regressor.dense.{direction}", args[1].shape[0])

    def install(self) -> None:
        """Wrap every traced call site; uninstall() restores the originals."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        fixed = self._fixed
        self._wrap(rqpkit.ingest, "synth_corpus", fixed("ingest.synth_corpus"))
        self._wrap(rqpkit.ingest, "synth_curve", fixed("entropy.synth_curve"))
        self._wrap(entropy_module, "entropy", fixed("entropy.entropy"))
        self._wrap(rqpkit.ingest, "save_corpus", fixed("ingest.save_corpus"))
        self._wrap(rqpkit.ingest, "write_pgm", fixed("pgm.write"))
        self._wrap(rqpkit.ingest, "read_pgm", fixed("pgm.read"))
        self._wrap(rqpkit.ingest, "load_metadata", fixed("ingest.load_metadata"))
        self._wrap(rqpkit.evaluate, "stack_from_coding", fixed("features.stack"))
        self._wrap(rqpkit.features, "build_seg", fixed("features.seg"))
        self._wrap(rqpkit.features, "build_intra", fixed("features.intra"))
        self._wrap(rqpkit.evaluate, "fit", fixed("model.fit"))
        self._wrap(rqpkit.evaluate, "predict_rate", fixed("model.predict_rate"))
        self._wrap(rqpkit.evaluate, "run_training", fixed("evaluate.run_training"))
        self._wrap(rqpkit.evaluate, "evaluate_run", fixed("evaluate.evaluate_run"))
        self._wrap(network.Network, "forward", self._network_forward)
        self._wrap(network.Network, "backward", lambda args: ("regressor.backward", None))
        self._wrap(layers.Conv2d, "forward", self._conv("fwd"))
        self._wrap(layers.Conv2d, "backward", self._conv("bwd"))
        self._wrap(layers.Dense, "forward", self._dense("fwd"))
        self._wrap(layers.Dense, "backward", self._dense("bwd"))
        self._wrap(training.Adam, "step", fixed("regressor.adam"))
        self._wrap_net_predictor()
        self._wrap_save_corpus_bytes()

    def _wrap_net_predictor(self) -> None:
        """Span each call of the closure net_predictor returns."""
        original = rqpkit.evaluate.net_predictor
        label = self._fixed("evaluate.predictor")

        @functools.wraps(original)
        def traced_factory(*args, **kwargs):
            return self._traced(label, original(*args, **kwargs))

        rqpkit.evaluate.net_predictor = traced_factory
        self._patches.append((rqpkit.evaluate, "net_predictor", original))

    def _wrap_save_corpus_bytes(self) -> None:
        """Count the bytes save_corpus leaves on disk, outside its span."""
        traced = rqpkit.ingest.save_corpus
        tracer = self

        @functools.wraps(traced)
        def counting(items, out_dir):
            manifest = traced(items, out_dir)
            names = manifest.read_text().split()
            tracer.bytes_written += manifest.stat().st_size
            tracer.bytes_written += sum((manifest.parent / n).stat().st_size for n in names)
            tracer.frames_saved += len(names) // 2
            return manifest

        rqpkit.ingest.save_corpus = counting
        self._patches.append((rqpkit.ingest, "save_corpus", traced))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start/end in s, parent index, batch, error."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for s in self.spans:
                out.write(json.dumps(s) + "\n")

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def metrics(self, nominal_batch: int | None, overhead: float,
                checkpoint_load_s: list[float]) -> dict[str, float]:
        """Per-layer metrics over the recorded spans.

        Layer timings of the network are medians over calls at the
        workload's nominal batch size; steps are timed from the training
        forward that precedes each optimizer step to the step's end.
        """
        durations: dict[str, list[float]] = {}
        batched: dict[str, list[float]] = {}
        selfs: dict[str, float] = {}
        steps: list[float] = []
        no_root = 0
        last_forward_start = None
        for span, own in zip(self.spans, self.self_times()):
            name = span[NAME]
            took = span[END] - span[START]
            durations.setdefault(name, []).append(took)
            selfs[name] = selfs.get(name, 0.0) + own
            if span[BATCH] is not None and span[BATCH] == nominal_batch:
                batched.setdefault(name, []).append(took)
            if name == "regressor.forward":
                last_forward_start = span[START]
            elif name == "regressor.adam" and last_forward_start is not None:
                steps.append(span[END] - last_forward_start)
            elif name == "model.predict_rate" and span[ERROR] == NoRealRootError.__name__:
                no_root += 1

        def count(name):
            return len(durations.get(name, ()))

        def busy(name):
            return sum(durations.get(name, ()), 0.0)

        def median_ms(values):
            return 1e3 * statistics.median(values) if values else 0.0

        def med(name):
            return median_ms(durations.get(name))

        def med_batched(name):
            return median_ms(batched.get(name))

        entropy_calls = count("entropy.entropy")
        predict_calls = count("model.predict_rate")
        m = {
            "entropy.calls": entropy_calls,
            "entropy.busy_s": busy("entropy.entropy"),
            "entropy.ms_per_call": 1e3 * busy("entropy.entropy") / entropy_calls
            if entropy_calls else 0.0,
            "ingest.synth_self_s": selfs.get("ingest.synth_corpus", 0.0),
            "ingest.save_s": busy("ingest.save_corpus"),
            "ingest.load_metadata_ms": med("ingest.load_metadata"),
            "ingest.bytes_written": self.bytes_written / self.frames_saved
            if self.frames_saved else 0.0,
            "pgm.write_ms": med("pgm.write"),
            "pgm.read_ms": med("pgm.read"),
            "features.stacks": count("features.stack"),
            "features.stack_ms": med("features.stack"),
            "features.seg_ms": med("features.seg"),
            "features.intra_ms": med("features.intra"),
            "model.fit_calls": count("model.fit"),
            "model.fit_busy_s": busy("model.fit"),
            "model.predict_rate_calls": predict_calls,
            "model.predict_rate_us": 1e3 * med("model.predict_rate"),
            "model.no_root": no_root,
        }
        for k in range(4):
            for d in ("fwd", "bwd"):
                m[f"regressor.conv{k}.{d}_ms"] = med_batched(f"regressor.conv{k}.{d}")
        m.update({
            "regressor.dense.fwd_ms": med_batched("regressor.dense.fwd"),
            "regressor.dense.bwd_ms": med_batched("regressor.dense.bwd"),
            "regressor.adam_ms": med("regressor.adam"),
            "regressor.step_ms": median_ms(steps),
            "regressor.steps": len(steps),
            "regressor.forward_b1_ms": median_ms(
                [s[END] - s[START] for s in self.spans
                 if s[NAME] == "regressor.forward" and s[BATCH] == 1]),
            "regressor.checkpoint_load_s": statistics.median(checkpoint_load_s)
            if checkpoint_load_s else 0.0,
            "evaluate.run_training_self_s": selfs.get("evaluate.run_training", 0.0),
            "evaluate.evaluate_run_s": med("evaluate.evaluate_run") / 1e3,
            "evaluate.predictor_ms": med("evaluate.predictor"),
            "evaluate.miss_share": no_root / predict_calls if predict_calls else 0.0,
            "trace.overhead": overhead,
        })
        if set(m) != set(PER_LAYER):
            raise AssertionError(f"per-layer metrics out of sync: {set(m) ^ set(PER_LAYER)}")
        return m
