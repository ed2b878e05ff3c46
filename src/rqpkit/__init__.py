"""Referenceless intra-frame bitrate prediction toolkit.

Predicts the bitrate of an intra-coded frame at any QP from a single
coding pass: a log-rate QP model (linear or quadratic, optionally
anchored to the measured one-pass operating point) is fitted or learned
from the frame's reconstructed texture, coding-tree partition, and intra
prediction modes.
"""

from .entropy import (
    CauchyParams,
    bin_probability,
    default_qstep_grid,
    entropy,
    entropy_loglog_curve,
    qp_to_qstep,
    qstep_to_qp,
    synth_curve,
    total_probability,
)
from .evaluate import (
    AblationConfig,
    ErrorReport,
    ReportRow,
    TrainedRun,
    curve_dump,
    evaluate_frames,
    evaluate_run,
    frame_spec,
    label_fit_predictor,
    make_labels,
    net_predictor,
    run_ablation,
    run_training,
)
from .features import (
    CHANNEL_ORDER,
    CoverageError,
    CuRect,
    GrayFrame,
    PuMode,
    TilingError,
    build_intra,
    build_seg,
    channel_order,
    stack_from_coding,
)
from .ingest import (
    CodingMetadata,
    DatasetSplit,
    MetadataError,
    load_corpus,
    load_frame,
    load_metadata,
    load_pair,
    parse_metadata,
    save_corpus,
    save_frame,
    save_metadata,
    serialize_metadata,
    split_dataset,
    synth_corpus,
)
from .model import (
    DegenerateFitError,
    InversionError,
    ModelParams,
    ModelSpec,
    NoRealRootError,
    OperationalPoint,
    RQPCurve,
    RQPSample,
    fit,
    model_qp,
    predict_rate,
    relative_error,
    residuals,
)
from .regressor import (
    CheckpointError,
    Network,
    NetworkConfig,
    TargetScaler,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
