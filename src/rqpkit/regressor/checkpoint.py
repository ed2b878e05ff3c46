"""Versioned checkpoints: network config, weights, scaler, and run metadata.

Weights are stored as raw float64 arrays inside an npz archive, so a
loaded network reproduces predictions bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .network import Network, NetworkConfig
from .training import TargetScaler

FORMAT_VERSION = 2


def save_checkpoint(path, network: Network, scaler: TargetScaler,
                    extra: dict | None = None) -> None:
    """Write a checkpoint; `extra` must be JSON-serializable run metadata."""
    meta = {
        "format_version": FORMAT_VERSION,
        "config": json.loads(network.config.to_json()),
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
    """Rebuild (network, scaler, extra metadata) from a checkpoint file."""
    with np.load(Path(path)) as archive:
        meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
        if meta.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"checkpoint format {meta.get('format_version')} is not supported "
                f"(expected {FORMAT_VERSION})"
            )
        config = NetworkConfig.from_json(json.dumps(meta["config"]))
        network = Network(config)
        params = [archive[f"param_{i}"] for i in range(len(network.parameters()))]
        network.set_parameters(params)
        scaler = TargetScaler(archive["scaler_mean"], archive["scaler_scale"])
    mean, scale = scaler.mean, scaler.scale
    if not (mean.shape == scale.shape == (config.outputs,) and np.isfinite(mean).all()
            and np.isfinite(scale).all() and (scale > 0).all()):
        raise ValueError(f"checkpoint scaler must hold {config.outputs} finite means and positive "
                         f"finite scales; got shapes {mean.shape} and {scale.shape}")
    return network, scaler, meta["extra"]
