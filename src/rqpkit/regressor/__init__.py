"""Compact convolutional regressor mapping feature stacks to model coefficients.

Implemented from first principles on numpy: four convolution stages with
rectifier activations and average pooling, one dense output layer, trained
with an adaptive-moment optimizer on a mean-squared parameter loss.
"""

from .layers import AvgPool2d, Conv2d, Dense, Flatten, ReLU
from .network import CONV_CHANNELS, Network, NetworkConfig
from .training import (
    Adam,
    DegenerateLabelsError,
    TargetScaler,
    TrainConfig,
    TrainingError,
    TrainResult,
    mean_predictor_mse,
    mse_loss,
    normalize_stack,
    predict_params,
    train,
)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint

__all__ = [
    "Adam",
    "AvgPool2d",
    "CONV_CHANNELS",
    "CheckpointError",
    "Conv2d",
    "DegenerateLabelsError",
    "Dense",
    "Flatten",
    "Network",
    "NetworkConfig",
    "ReLU",
    "TargetScaler",
    "TrainConfig",
    "TrainResult",
    "TrainingError",
    "load_checkpoint",
    "mean_predictor_mse",
    "mse_loss",
    "normalize_stack",
    "predict_params",
    "save_checkpoint",
    "train",
]
