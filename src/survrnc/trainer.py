"""Training loop combining encoder, head, native loss and the ordinal
contrastive regularizer; evaluation, embedding export, lambda sweep.

Each step samples a batch, builds a two-view augmented batch, encodes it,
computes the contrastive loss on the embeddings and the head's native
loss on the same rows, combines them, and backpropagates through head and
encoder. Everything is deterministic given the config seed.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import heads, loss as loss_mod, metrics, nn
from .core import Dataset, LossConfig, TimeGrid, discretize_time, validate_dataset
from .data import AugmentConfig, two_view_augment, sample_batch

_HEADS = ("mtlr", "deephit")
VAL_FRACTION = 0.2


class NonFiniteLossError(RuntimeError):
    """Training diverged: a value computed at `step` is NaN or infinite."""

    def __init__(self, step: int, what: str):
        self.step = step
        super().__init__(f"non-finite {what} at step {step}")


class FeatureMismatchError(ValueError):
    """A dataset's feature columns differ from the ones a model was trained on."""


def _check_finite(step: int, what: str, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise NonFiniteLossError(step, what)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    lr: float = 1e-4
    weight_decay: float = 1e-5
    head: str = "mtlr"
    loss: LossConfig = LossConfig(temperature=2.0, lam=0.5, beta=1.0)
    num_bins: int = 20
    augment: AugmentConfig = AugmentConfig(noise_std=0.1, feature_dropout_prob=0.1)
    sampler: str = "event_balanced"
    hidden_widths: tuple[int, ...] = (64,)
    d_emb: int = 32
    activation: str = "relu"
    deephit_sigma: float = 0.1
    deephit_rank_weight: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.num_bins < 1:
            raise ValueError("epochs, batch_size and num_bins must be positive")
        if self.head not in _HEADS:
            raise ValueError(f"head must be one of {_HEADS}")
        object.__setattr__(self, "hidden_widths",
                           tuple(int(w) for w in self.hidden_widths))

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "lr": self.lr,
            "weight_decay": self.weight_decay,
            "head": self.head,
            "loss": {"temperature": self.loss.temperature,
                     "lambda": self.loss.lam,
                     "beta": self.loss.beta},
            "num_bins": self.num_bins,
            "augment": {"noise_std": self.augment.noise_std,
                        "feature_dropout_prob": self.augment.feature_dropout_prob,
                        "seed": self.augment.seed},
            "sampler": self.sampler,
            "hidden_widths": list(self.hidden_widths),
            "d_emb": self.d_emb,
            "activation": self.activation,
            "deephit_sigma": self.deephit_sigma,
            "deephit_rank_weight": self.deephit_rank_weight,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        data = dict(data)
        loss_d = dict(data.pop("loss", {}))
        if "lambda" in loss_d:
            loss_d["lam"] = loss_d.pop("lambda")
        aug_d = dict(data.pop("augment", {}))
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "hidden_widths" in data:
            data["hidden_widths"] = tuple(data["hidden_widths"])
        return cls(loss=LossConfig(**loss_d), augment=AugmentConfig(**aug_d), **data)


@dataclass
class TrainHistory:
    """Per-step loss records plus per-epoch summaries with validation CI."""

    steps: list[dict] = field(default_factory=list)
    epochs: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val_ci: float = 0.0
    final_val_ci: float = 0.0

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "epochs": self.epochs,
            "best_epoch": self.best_epoch,
            "best_val_ci": self.best_val_ci,
            "final_val_ci": self.final_val_ci,
        }


@dataclass
class TrainedModel:
    encoder: nn.ModelParams
    head: nn.ModelParams
    head_kind: str
    grid: TimeGrid
    feature_names: tuple[str, ...]
    deephit_sigma: float = 0.1
    deephit_rank_weight: float = 0.5


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def stratified_split(dataset: Dataset, seed: int,
                     val_fraction: float = VAL_FRACTION):
    """Event-stratified train/validation index split (80/20 by default)."""
    events = dataset.events()
    rng = np.random.default_rng([seed, 101])
    train_idx, val_idx = [], []
    for cls in (0, 1):
        members = np.flatnonzero(events == cls)
        rng.shuffle(members)
        n_val = int(np.floor(val_fraction * members.size))
        val_idx.extend(members[:n_val])
        train_idx.extend(members[n_val:])
    return np.sort(train_idx).astype(int), np.sort(val_idx).astype(int)


def _head_loss_and_grad(kind: str, output: heads.HeadOutput, events, times,
                        grid: TimeGrid, cfg: TrainConfig):
    if kind == "mtlr":
        value = heads.mtlr_loss(output, events, times, grid)
        grad = heads.mtlr_loss_grad(output, events, times, grid)
    else:
        value = heads.deephit_loss(output, events, times, grid,
                                   cfg.deephit_sigma, cfg.deephit_rank_weight)
        grad = heads.deephit_loss_grad(output, events, times, grid,
                                       cfg.deephit_sigma, cfg.deephit_rank_weight)
    return value, grad


def _check_feature_names(model: TrainedModel, dataset: Dataset) -> None:
    """Features are matched by position, so the names must agree in order."""
    expected, got = tuple(model.feature_names), dataset.feature_names
    if got == expected:
        return
    i = next((i for i, (e, g) in enumerate(zip(expected, got)) if e != g),
             min(len(expected), len(got)))
    want = repr(expected[i]) if i < len(expected) else "no column"
    have = repr(got[i]) if i < len(got) else "no column"
    raise FeatureMismatchError(
        f"feature column {i + 1} is {have}, but the model was trained with {want}")


def _model_risks(model: TrainedModel, features: np.ndarray):
    emb, _ = nn.forward(model.encoder, features)
    logits, _ = nn.forward(model.head, emb)
    pmf = heads.pmf_from_logits(heads.HeadOutput(logits))
    curve = heads.survival_curve(pmf, model.grid)
    return heads.risk_score(curve), emb


def train(dataset: Dataset, cfg: TrainConfig):
    """Fit encoder + head on an 80/20 stratified split of `dataset`.

    Returns (TrainedModel, TrainHistory). The final-epoch model is what is
    returned; the best epoch by validation CI is only noted in history.
    Tiny datasets degrade gracefully: batch_size is clamped to the train
    split, an empty validation split falls back to the train split, and a
    validation split with no comparable pair records CI 0.5.
    """
    dataset = validate_dataset(dataset)
    train_idx, val_idx = stratified_split(dataset, cfg.seed)
    train_ds = dataset.subset(train_idx)
    val_ds = dataset.subset(val_idx) if val_idx.size else train_ds
    grid = discretize_time(train_ds, cfg.num_bins)

    d_in = len(dataset.feature_names)
    enc_spec = nn.MlpSpec((d_in, *cfg.hidden_widths, cfg.d_emb), cfg.activation,
                          seed=_derived_seed(cfg.seed, 1))
    head_spec = nn.MlpSpec((cfg.d_emb, grid.num_bins + 1), "relu",
                           seed=_derived_seed(cfg.seed, 2))
    encoder = nn.init_params(enc_spec)
    head = nn.init_params(head_spec)
    enc_state = nn.init_adam_state(encoder)
    head_state = nn.init_adam_state(head)

    batch_size = min(cfg.batch_size, len(train_ds))
    steps_per_epoch = max(1, len(train_ds) // batch_size)
    val_features = val_ds.feature_matrix()
    val_events, val_times = val_ds.events(), val_ds.times()

    history = TrainHistory()
    beta = cfg.loss.beta
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        epoch_prog, epoch_rnc, epoch_total = [], [], []
        for _ in range(steps_per_epoch):
            step += 1
            idx = sample_batch(train_ds, batch_size, cfg.sampler,
                               seed=cfg.seed, step=step)
            batch_patients = [train_ds.patients[i] for i in idx]
            aug = dataclasses.replace(
                cfg.augment, seed=_derived_seed(cfg.augment.seed, cfg.seed, step))
            views, ev2, t2 = two_view_augment(batch_patients, aug)

            emb, enc_tape = nn.forward(encoder, views)
            _check_finite(step, "embeddings", emb)
            logits, head_tape = nn.forward(head, emb)
            _check_finite(step, "head logits", logits)
            output = heads.HeadOutput(logits)
            prog_value, dlogits = _head_loss_and_grad(
                cfg.head, output, ev2, t2, grid, cfg)
            emb_batch = loss_mod.EmbeddingBatch(emb, ev2, t2)
            if beta != 0.0:
                rnc_value, rnc_grad = loss_mod.survrnc_loss_and_grad(
                    emb_batch, cfg.loss)
            else:
                rnc_value, rnc_grad = loss_mod.survrnc_loss(emb_batch, cfg.loss), None
            total = loss_mod.total_loss(prog_value, rnc_value, cfg.loss)
            if not (np.isfinite(prog_value) and np.isfinite(rnc_value)):
                raise NonFiniteLossError(
                    step, f"loss (prognosis={prog_value}, survrnc={rnc_value})")

            head_wg, head_bg, demb = nn.backward(head, head_tape, dlogits)
            if rnc_grad is not None:
                demb = demb + beta * rnc_grad
            enc_wg, enc_bg, _ = nn.backward(encoder, enc_tape, demb)
            encoder, enc_state = nn.adam_step(encoder, enc_wg, enc_bg, enc_state,
                                              cfg.lr, cfg.weight_decay)
            head, head_state = nn.adam_step(head, head_wg, head_bg, head_state,
                                            cfg.lr, cfg.weight_decay)

            history.steps.append({"step": step, "loss_prognosis": prog_value,
                                  "loss_survrnc": rnc_value, "loss_total": total})
            epoch_prog.append(prog_value)
            epoch_rnc.append(rnc_value)
            epoch_total.append(total)

        model = TrainedModel(encoder, head, cfg.head, grid,
                             dataset.feature_names, cfg.deephit_sigma,
                             cfg.deephit_rank_weight)
        val_risks, _ = _model_risks(model, val_features)
        try:
            val_ci = metrics.concordance_index(val_risks, val_events, val_times)
        except metrics.NoComparablePairsError:
            val_ci = 0.5
        history.epochs.append({
            "epoch": epoch,
            "loss_prognosis": float(np.mean(epoch_prog)),
            "loss_survrnc": float(np.mean(epoch_rnc)),
            "loss_total": float(np.mean(epoch_total)),
            "val_ci": val_ci,
        })

    history.best_epoch = 1 + int(np.argmax([e["val_ci"] for e in history.epochs]))
    history.best_val_ci = max(e["val_ci"] for e in history.epochs)
    history.final_val_ci = history.epochs[-1]["val_ci"]
    model = TrainedModel(encoder, head, cfg.head, grid, dataset.feature_names,
                         cfg.deephit_sigma, cfg.deephit_rank_weight)
    return model, history


def evaluate(model: TrainedModel, dataset: Dataset) -> metrics.EvalReport:
    """Risk-score CI, horizon AUCs and embedding ordinality on `dataset`."""
    dataset = validate_dataset(dataset)
    _check_feature_names(model, dataset)
    risks, emb = _model_risks(model, dataset.feature_matrix())
    events, times = dataset.events(), dataset.times()
    ci = metrics.concordance_index(risks, events, times)
    auc_at = {}
    for frac in metrics.DEFAULT_HORIZON_FRACTIONS:
        horizon = metrics.horizon_from_fraction(dataset, frac)
        auc_at[frac] = metrics.cumulative_dynamic_auc(risks, events, times, horizon)
    ordinality = metrics.embedding_ordinality(emb, events, times)
    return metrics.EvalReport(ci=ci, auc_at=auc_at, ordinality=ordinality)


def export_embeddings(model: TrainedModel, dataset: Dataset, path) -> None:
    """Write one CSV row per patient: id, time, event, v_1..v_{d_emb}."""
    dataset = validate_dataset(dataset)
    _check_feature_names(model, dataset)
    emb, _ = nn.forward(model.encoder, dataset.feature_matrix())
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        cols = ["id", "time", "event"] + [f"v_{j + 1}" for j in range(emb.shape[1])]
        fh.write(",".join(cols) + "\n")
        for p, row in zip(dataset.patients, emb):
            cells = [p.id, repr(float(p.time)), str(int(p.event))]
            cells += [repr(float(v)) for v in row]
            fh.write(",".join(cells) + "\n")


def lambda_sweep(dataset: Dataset, cfg: TrainConfig,
                 lambdas: Sequence[float]) -> list[dict]:
    """Train one model per lambda with a shared seed; report validation CI."""
    if len(lambdas) < 1:
        raise ValueError("need at least one lambda value")
    table = []
    for lam in lambdas:
        swept = dataclasses.replace(
            cfg, loss=dataclasses.replace(cfg.loss, lam=lam))
        _, history = train(dataset, swept)
        table.append({"lambda": lam, "val_ci": history.final_val_ci})
    return table


CHECKPOINT_VERSION = 1


def save_checkpoint(model: TrainedModel, cfg: TrainConfig, path) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "encoder": nn.params_to_dict(model.encoder),
        "head": nn.params_to_dict(model.head),
        "head_kind": model.head_kind,
        "grid": model.grid.cut_points.tolist(),
        "feature_names": list(model.feature_names),
        "deephit_sigma": model.deephit_sigma,
        "deephit_rank_weight": model.deephit_rank_weight,
        "train_config": cfg.to_dict(),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_checkpoint(path) -> TrainedModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')}")
    return TrainedModel(
        encoder=nn.params_from_dict(payload["encoder"]),
        head=nn.params_from_dict(payload["head"]),
        head_kind=payload["head_kind"],
        grid=TimeGrid(np.array(payload["grid"], dtype=float)),
        feature_names=tuple(payload["feature_names"]),
        deephit_sigma=payload["deephit_sigma"],
        deephit_rank_weight=payload["deephit_rank_weight"],
    )


def save_history(history: TrainHistory, cfg: TrainConfig, path) -> None:
    payload = {"config": cfg.to_dict(), **history.to_dict()}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
