"""Versioned checkpoints: network config, weights, scaler, and run metadata.

Weights and scaler are raw float64 arrays in an npz archive, so a loaded
network reproduces predictions bit for bit; `_arrays` is the one table of
them.  The loader builds `Network(config)` (NetworkConfig bounds it to a few
thousand parameters) and a scaler first, then checks every stored array
against the array it fills and names any it refuses.
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


def _arrays(network: Network, scaler: TargetScaler) -> dict[str, np.ndarray]:
    """Every array a checkpoint stores, by member name, in file order."""
    params = {f"param_{i}": p for i, p in enumerate(network.parameters())}
    return {"scaler_mean": scaler.mean, "scaler_scale": scaler.scale, **params}


def save_checkpoint(path, network: Network, scaler: TargetScaler,
                    extra: dict | None = None) -> None:
    """Write a checkpoint; `extra` must be JSON-serializable run metadata."""
    meta = {
        "format_version": FORMAT_VERSION,
        "config": asdict(network.config),
        "extra": extra or {},
    }
    np.savez(Path(path), meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
             **_arrays(network, scaler))


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
        scaler = TargetScaler(np.empty(config.outputs), np.empty(config.outputs))
        for name, target in _arrays(network, scaler).items():
            stored = archive[name]
            if stored.dtype != np.float64:
                raise CheckpointError(
                    f"checkpoint {name} has dtype {stored.dtype}; expected float64")
            if stored.shape != target.shape:
                raise CheckpointError(
                    f"checkpoint {name} has shape {stored.shape}; the config implies {target.shape}")
            if not np.isfinite(stored).all():
                raise CheckpointError(f"checkpoint {name} must be finite")
            target[...] = stored
    if not (scaler.scale > 0).all():
        raise CheckpointError("checkpoint scaler_scale must be positive")
    return network, scaler, meta["extra"]
