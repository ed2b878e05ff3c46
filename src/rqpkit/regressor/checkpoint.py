"""Versioned checkpoints: network config, weights, scaler, and run metadata.

Weights are stored as raw float64 arrays inside an npz archive, so a
loaded network reproduces predictions bit for bit.  The loader builds
`Network(config)` from the stored config first (NetworkConfig bounds it
to a few thousand parameters) and checks each stored `param_i` against
the parameter it fills.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .network import Network, NetworkConfig
from .training import TargetScaler

FORMAT_VERSION = 4


class CheckpointError(ValueError):
    """A checkpoint file that cannot be read back as the predictor it describes."""


def save_checkpoint(path, network: Network, scaler: TargetScaler,
                    extra: dict | None = None) -> None:
    """Write a checkpoint; `extra` must be JSON-serializable run metadata."""
    meta = {
        "format_version": FORMAT_VERSION,
        "config": asdict(network.config),
        "extra": extra or {},
    }
    arrays = {f"param_{i}": p for i, p in enumerate(network.parameters())}
    np.savez(
        Path(path),
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        scaler_mean=scaler.mean,
        scaler_scale=scaler.scale,
        **arrays,
    )


def load_checkpoint(path) -> tuple[Network, TargetScaler, dict]:
    """Rebuild (network, scaler, extra metadata) from a checkpoint file.

    Any failure raises CheckpointError with a one-line message naming the file.
    """
    try:
        return _load(Path(path))
    except Exception as exc:
        # zipfile, the npy reader, JSON and the decompressors a corrupted
        # method field selects raise an open-ended set of error types.
        detail = str(exc) if isinstance(exc, CheckpointError) else f"{type(exc).__name__}: {exc}"
        raise CheckpointError(f"{path}: {' '.join(detail.split())}") from exc


def _load(path: Path) -> tuple[Network, TargetScaler, dict]:
    # Own the handle: np.load leaves it open when zipfile rejects the file.
    with open(path, "rb") as handle, np.load(handle) as archive:
        # Reading an array stops at its header's size, so a corrupted header
        # could pass unread bytes unchecked; test every member's CRC first.
        bad = archive.zip.testzip()
        if bad is not None:
            raise CheckpointError(f"member {bad} fails its CRC check")
        meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
        if meta.get("format_version") != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format {meta.get('format_version')} is not supported "
                f"(expected {FORMAT_VERSION})"
            )
        config = NetworkConfig(**meta["config"])
        network = Network(config)
        for i, target in enumerate(network.parameters()):
            param = archive[f"param_{i}"]
            if param.shape != target.shape:
                raise CheckpointError(
                    f"param_{i} has shape {param.shape}; the config implies {target.shape}")
            target[...] = param
        scaler = TargetScaler(archive["scaler_mean"], archive["scaler_scale"])
    if not all(np.isfinite(p).all() for p in network.parameters()):
        raise CheckpointError("checkpoint weights must be finite")
    mean, scale = scaler.mean, scaler.scale
    if not (mean.shape == scale.shape == (config.outputs,) and np.isfinite(mean).all()
            and np.isfinite(scale).all() and (scale > 0).all()):
        raise CheckpointError(
            f"checkpoint scaler must hold {config.outputs} finite means and positive "
            f"finite scales; got shapes {mean.shape} and {scale.shape}")
    return network, scaler, meta["extra"]
