"""Ordinal contrastive representation learning for censored survival data.

The package trains a small encoder whose latent space is ordered by
time-to-event, via a ranked contrastive loss that handles right-censoring
through negative / uncertain / disregarded pair sets, on top of
discrete-time survival heads.
"""

from types import ModuleType as _ModuleType

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

# every public object imported above, and none of the submodules
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))

__version__ = "0.1.0"
