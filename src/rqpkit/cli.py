"""Command-line interface.

Subcommands cover the whole pipeline at desk scale: synthesize a corpus,
extract feature planes, fit ground-truth labels, train the regressor,
predict single-frame rates, score error proportions of one or more
checkpoints, and dump curve data for plotting.  Every command validates its
inputs and exits nonzero with a one-line diagnostic on failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import ingest
from .features import CHANNEL_ORDER, channel_order, stack_from_coding
from .model import FORMS, predict_rate
from .pgm import write_pgm
from .regressor import TrainConfig


def _parse_channels(text: str) -> tuple[str, ...]:
    try:
        return channel_order(c.strip() for c in text.split(",") if c.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_thresholds(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad thresholds {text!r}") from None
    try:
        return ev.check_thresholds(values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_size(text: str) -> tuple[int, int]:
    try:
        w, h = (int(p) for p in text.lower().split("x"))
        return w, h
    except ValueError:
        raise argparse.ArgumentTypeError(f"size must look like 64x64, got {text!r}") from None


def _out_dir(args) -> Path:
    """Create --out; commands call this only after their inputs have loaded and been checked."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", choices=FORMS, default="quadratic",
                   help="model form (default: quadratic)")
    p.add_argument("--fasten", action=argparse.BooleanOptionalAction, default=True,
                   help="anchor the model to the one-pass operating point (default: on)")


def _corpus_sha256(manifest) -> str:
    """SHA-256 of the manifest's bytes, then of each listed frame's and sidecar's, in order."""
    digest = hashlib.sha256(Path(manifest).read_bytes())
    for pair in ingest.read_manifest(manifest):
        for path in pair:
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _load_runs(paths) -> dict[str, tuple[str, ev.TrainedRun]]:
    """Repeated --checkpoint paths, loaded in order and keyed by run name."""
    runs = {}
    for path in paths:
        run = ev.TrainedRun.load(path)
        if run.name in runs:
            raise ValueError(
                f"checkpoints {runs[run.name][0]} and {path} both give column {run.name}")
        runs[run.name] = path, run
    return runs


def cmd_synth(args) -> int:
    items = ingest.synth_corpus(args.count, args.seed, args.size)
    manifest = ingest.save_corpus(items, args.out)
    print(f"wrote {len(items)} frames and {manifest}")
    return 0


def cmd_extract(args) -> int:
    frame, md = ingest.load_pair(args.frame, args.sidecar)
    planes = stack_from_coding(frame, md, args.features)
    out = _out_dir(args)
    for channel, plane in zip(args.features, planes):
        path = out / f"{md.frame_id}_{channel}.pgm"
        write_pgm(path, plane)
        print(f"wrote {path}")
    return 0


def cmd_fit_labels(args) -> int:
    corpus = ingest.load_corpus(args.corpus)
    rows = [[md.frame_id, *(f"{c:.12g}" for c in ev.make_labels(md, args.spec, args.fasten).coeffs)]
            for _, md in corpus]
    # Coefficient columns are lettered as in qp = a ln(R)^2 + b ln(R) + c; fastening drops c.
    letters = "abc" if args.spec == "quadratic" else "bc"
    path = _out_dir(args) / "labels.csv"
    path.write_text(ev.csv_text(["frame_id", *(letters[:-1] if args.fasten else letters)], rows))
    print(f"wrote {path}")
    return 0


def cmd_train(args) -> int:
    train_cfg = TrainConfig(learning_rate=args.learning_rate, batch_size=args.batch_size,
                            epochs=args.epochs, seed=args.seed)
    corpus = ingest.load_corpus(args.corpus)
    split = ingest.split_dataset([md.frame_id for _, md in corpus], args.seed, args.test_fraction)
    run = ev.run_training(corpus, split, args.spec, args.fasten, args.features, train_cfg)
    out = _out_dir(args)
    checkpoint_path = out / "checkpoint.npz"
    run.save(
        checkpoint_path,
        **asdict(train_cfg),
        test_fraction=args.test_fraction,
        numpy=np.__version__,
        corpus_sha256=_corpus_sha256(args.corpus),
    )
    val_loss = run.result.val_loss
    history = [[str(i), f"{tl:.10g}", f"{val_loss[i]:.10g}" if val_loss else ""]
               for i, tl in enumerate(run.result.train_loss)]
    (out / "history.csv").write_text(ev.csv_text(["epoch", "train_loss", "val_loss"], history))
    # One gradient-norm and one update-ratio column per parameter array, in
    # Network.parameters() order.
    arrays = [f"{name}_{p}" for name in run.network.learned for p in "wb"]
    stats = [f"{k}_{a}" for k in ("grad_norm", "update_ratio") for a in arrays]
    telemetry = [[str(i), f"{secs:.6g}"] + [f"{v:.10g}" for v in norms + ratios]
                 for i, (secs, norms, ratios) in enumerate(
                     zip(run.result.epoch_s, run.result.grad_norms, run.result.update_ratios))]
    (out / "telemetry.csv").write_text(ev.csv_text(["epoch", "epoch_s", *stats], telemetry))
    final = run.result.train_loss[-1]
    print(f"wrote {checkpoint_path} (final training loss {final:.6g})")
    if run.baseline_val_mse is not None:
        print(f"validation loss {run.result.val_loss[-1]:.6g} "
              f"vs mean-predictor baseline {run.baseline_val_mse:.6g}")
    return 0


def cmd_predict(args) -> int:
    run = ev.TrainedRun.load(args.checkpoint)
    frame, md = ingest.load_pair(args.frame, args.sidecar)
    rate = predict_rate(run.params(frame, md), args.qp)
    print(f"{rate:.6f}")
    return 0


def cmd_evaluate(args) -> int:
    corpus = ingest.load_corpus(args.corpus)
    runs = _load_runs(args.checkpoint)
    (first_path, first), *others = runs.values()
    for path, run in others:
        if run.test_ids != first.test_ids:
            raise ValueError(f"checkpoints {first_path} and {path} hold different test frames")
    rows, details = [], {}
    for name, (_, run) in runs.items():
        row, details[name] = ev.evaluate_run(corpus, run, args.thresholds)
        rows.append(row)
    report = ev.ErrorReport(thresholds=args.thresholds, rows=rows, metadata={
        "aggregation": "per (frame, label-qp) pair, anchor qp excluded",
        "test_frames": len({d.frame_id for d in details[first.name]}),
    })
    out = _out_dir(args)
    (out / "report.csv").write_text(report.to_csv())
    (out / "report.txt").write_text(report.to_table())
    (out / "report_detail.csv").write_text(ev.details_to_csv(details))
    print(report.to_table(), end="")
    return 0


def cmd_curves(args) -> int:
    corpus = ingest.load_corpus(args.corpus)
    by_id = ev.corpus_index(corpus)
    if args.frame_id not in by_id:
        raise ValueError(f"frame {args.frame_id!r} is not in the corpus")
    frame, md = by_id[args.frame_id]
    params = {name: run.params(frame, md)
              for name, (_, run) in _load_runs(args.checkpoint).items()}
    path = _out_dir(args) / "curves.csv"
    path.write_text(ev.curve_dump(md, params))
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rqpkit",
        description="Predict intra-frame bitrate at any QP from a single coding pass.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=_parse_size, default=(64, 64), help="frame size, e.g. 64x64")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="export feature planes of one frame as PGM")
    p.add_argument("--frame", required=True)
    p.add_argument("--sidecar", required=True)
    p.add_argument("--features", type=_parse_channels, default=CHANNEL_ORDER)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("fit-labels", help="least-squares model coefficients per frame")
    p.add_argument("--corpus", required=True)
    _add_spec_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_labels)

    p = sub.add_parser("train", help="train the regressor on a labeled corpus")
    p.add_argument("--corpus", required=True, help="corpus manifest path")
    p.add_argument("--seed", type=int, default=0, help="split/init/shuffle seed")
    p.add_argument("--test-fraction", type=float, default=0.2,
                   help="fraction of frames held out for testing (default: 0.2)")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    _add_spec_args(p)
    p.add_argument("--features", type=_parse_channels, default=CHANNEL_ORDER)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict one frame's rate at a QP")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--frame", required=True)
    p.add_argument("--sidecar", required=True)
    p.add_argument("--qp", type=float, required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="error-proportion report, one row per checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", action="append", required=True,
                   help="repeatable: one report row per checkpoint, in argument order; "
                        "all must hold the same test frames")
    p.add_argument("--thresholds", type=_parse_thresholds, default=ev.DEFAULT_THRESHOLDS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("curves", help="dump actual vs predicted rate curves for a frame")
    p.add_argument("--corpus", required=True)
    p.add_argument("--frame-id", required=True)
    p.add_argument("--checkpoint", action="append", required=True,
                   help="repeatable: one predicted column per checkpoint")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curves)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
