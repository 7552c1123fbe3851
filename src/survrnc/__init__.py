"""Ordinal contrastive representation learning for censored survival data.

The package trains a small encoder whose latent space is ordered by
time-to-event, via a ranked contrastive loss that handles right-censoring
through negative / uncertain / disregarded pair sets, on top of
discrete-time survival heads.
"""

from .core import (
    Dataset,
    LossConfig,
    Patient,
    TimeGrid,
    ValidationError,
    discretize_time,
    validate_dataset,
)
from .data import AugmentConfig, SynthConfig, generate_synthetic, load_csv, save_csv
from .loss import (
    EmbeddingBatch,
    similarity,
    survrnc_loss,
    survrnc_loss_and_grad,
    survrnc_loss_grad,
    total_loss,
)
from .metrics import (
    EvalReport,
    concordance_index,
    cumulative_dynamic_auc,
    embedding_ordinality,
    horizon_from_fraction,
)
from .pairsets import (
    PairClass,
    PairSets,
    TimeInterval,
    build_pair_sets,
    classify,
    delta_interval,
    pair_threshold,
    true_time_interval,
)
from .trainer import (
    TrainConfig,
    TrainHistory,
    TrainedModel,
    evaluate,
    export_embeddings,
    lambda_sweep,
    load_checkpoint,
    save_checkpoint,
    train,
)

__all__ = [
    "AugmentConfig",
    "Dataset",
    "EmbeddingBatch",
    "EvalReport",
    "LossConfig",
    "PairClass",
    "PairSets",
    "Patient",
    "SynthConfig",
    "TimeGrid",
    "TimeInterval",
    "TrainConfig",
    "TrainHistory",
    "TrainedModel",
    "ValidationError",
    "build_pair_sets",
    "classify",
    "concordance_index",
    "cumulative_dynamic_auc",
    "delta_interval",
    "discretize_time",
    "embedding_ordinality",
    "evaluate",
    "export_embeddings",
    "generate_synthetic",
    "horizon_from_fraction",
    "lambda_sweep",
    "load_checkpoint",
    "load_csv",
    "pair_threshold",
    "save_checkpoint",
    "save_csv",
    "similarity",
    "survrnc_loss",
    "survrnc_loss_and_grad",
    "survrnc_loss_grad",
    "total_loss",
    "train",
    "true_time_interval",
    "validate_dataset",
]

__version__ = "0.1.0"
