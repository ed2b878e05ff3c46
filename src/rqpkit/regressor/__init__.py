"""Compact convolutional regressor mapping feature stacks to model coefficients.

Implemented from first principles on numpy: three convolution stages with
rectifier activations and average pooling (the last over the whole plane,
so any frame size fits), a hidden and an output dense layer, trained with
an adaptive-moment optimizer on a mean-squared parameter loss.
"""

from .layers import AvgPool2d, Conv2d, Dense, ReLU
from .network import Network, NetworkConfig
from .training import (
    Adam,
    DegenerateLabelsError,
    TargetScaler,
    TrainConfig,
    TrainingError,
    TrainResult,
    mse_loss,
    train,
)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint

__all__ = [
    "Adam",
    "AvgPool2d",
    "CheckpointError",
    "Conv2d",
    "DegenerateLabelsError",
    "Dense",
    "Network",
    "NetworkConfig",
    "ReLU",
    "TargetScaler",
    "TrainConfig",
    "TrainResult",
    "TrainingError",
    "load_checkpoint",
    "mse_loss",
    "save_checkpoint",
    "train",
]
