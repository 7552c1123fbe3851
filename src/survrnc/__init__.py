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
)
from .data import AugmentConfig, SynthConfig, generate_synthetic, load_csv, save_csv
from .loss import EmbeddingBatch, survrnc_loss, survrnc_loss_and_grad
from .metrics import (
    EvalReport,
    concordance_index,
    cumulative_dynamic_auc,
    embedding_ordinality,
    horizon_from_fraction,
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
    "Patient",
    "SynthConfig",
    "TimeGrid",
    "TrainConfig",
    "TrainHistory",
    "TrainedModel",
    "ValidationError",
    "concordance_index",
    "cumulative_dynamic_auc",
    "discretize_time",
    "embedding_ordinality",
    "evaluate",
    "export_embeddings",
    "generate_synthetic",
    "horizon_from_fraction",
    "lambda_sweep",
    "load_checkpoint",
    "load_csv",
    "save_checkpoint",
    "save_csv",
    "survrnc_loss",
    "survrnc_loss_and_grad",
    "train",
]

__version__ = "0.1.0"
