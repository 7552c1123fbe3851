"""Training loop combining encoder, head, native loss and the ordinal
contrastive regularizer; evaluation, embedding export, lambda sweep.

`train_step` encodes a two-view batch, adds the head's native loss on the
embeddings to beta times their contrastive loss, and backpropagates both
through head and encoder, at fixed parameters. `train` starts from
`init_model` and loops: sample, augment, step, AdamW update, history.
Everything is deterministic given the config seed.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import heads, loss as loss_mod, metrics, nn
from .core import ConfigError, Dataset, InputError, LossConfig, TimeGrid, discretize_time
from .data import (_SAMPLER_MODES, AugmentConfig, sample_batch, sampling_weights,
                   two_view_augment, write_table)

# the values a config field can take, for the fields that take a name
_CHOICES = {"head": ("mtlr", "deephit"), "sampler": _SAMPLER_MODES,
            "activation": nn._ACTIVATIONS}
_LOSS_KEYS = ("loss_prognosis", "loss_survrnc", "loss_total")
VAL_FRACTION = 0.2
# a config field's key in a config file, where it differs from the field name
_JSON_KEYS = {"lam": "lambda"}
# numpy's errstate where a check of the result follows and names the step or patient
_UNCHECKED = {"over": "ignore", "invalid": "ignore"}


class NonFiniteLossError(RuntimeError, InputError):
    """Training diverged: a value computed at `step` is NaN or infinite."""

    def __init__(self, step: int, what: str):
        self.step = step
        super().__init__(f"non-finite {what} at step {step}")


class CheckpointError(ValueError, InputError):
    """A checkpoint file of another version, with a key missing or malformed,
    or with parameters that are not finite or do not fit each other."""


class FeatureMismatchError(ValueError, InputError):
    """A dataset does not fit a model: its feature columns differ from the ones
    the model was trained on, or the model's outputs on them are not finite."""


def _check_finite(step: int, what: str, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(values).all() for values in arrays):
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
            raise ConfigError("epochs, batch_size and num_bins must be positive")
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}")
        object.__setattr__(self, "hidden_widths",
                           tuple(int(w) for w in self.hidden_widths))
        if min((*self.hidden_widths, self.d_emb)) < 1:
            raise ConfigError("hidden_widths and d_emb must be positive")
        for name in ("lr", "deephit_sigma"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        for name in ("weight_decay", "deephit_rank_weight"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["loss"] = {_JSON_KEYS.get(k, k): v for k, v in data["loss"].items()}
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        data = dict(_json_object("config", data))
        parts = [("", data, cls)] + [
            (f"{key}.", _json_object(f"config key {key}", data.pop(key, {})), kind)
            for key, kind in (("loss", LossConfig), ("augment", AugmentConfig))]
        # keys are read under their names in a config file: {key: (field, type)}
        fields = [{_JSON_KEYS.get(name, name): (name, hint)
                   for name, hint in typing.get_type_hints(kind).items()}
                  for _, _, kind in parts]
        unknown = [prefix + key for (prefix, given, _), known in zip(parts, fields)
                   for key in sorted(set(given) - set(known))]
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        kwargs = []
        for (prefix, given, _), known in zip(parts, fields):
            for key, value in given.items():
                _check_json_type(prefix + key, value, known[key][1])
            kwargs.append({known[key][0]: value for key, value in given.items()})
        top, loss_d, aug_d = kwargs
        return cls(loss=LossConfig(**loss_d), augment=AugmentConfig(**aug_d), **top)


# each JSON value's type and its name in an error (a JSON true or false is
# a bool, which Python counts as an int)
_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               type(None): "null", int: "an integer", float: "a number"}


def _json_kind(value) -> str:
    return _JSON_KINDS.get(type(value), type(value).__name__)


def _json_object(what: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {_json_kind(value)}")
    return value


def _check_json_type(key: str, value, kind) -> None:
    """Raise `ConfigError` unless the JSON `value` can set a field of type
    `kind` (int, float, str or tuple[int, ...])."""
    if kind == tuple[int, ...]:
        ok = isinstance(value, (list, tuple)) and all(
            isinstance(v, int) and not isinstance(v, bool) for v in value)
        want = "an array of integers"
    else:
        types = (int, float) if kind is float else kind  # a float field takes an int
        ok = isinstance(value, types) and not isinstance(value, bool)
        want = _JSON_KINDS[kind]
    if not ok:
        raise ConfigError(f"config key {key} must be {want}, got {_json_kind(value)}")


@dataclass
class TrainHistory:
    """Per-step loss records plus per-epoch summaries with validation CI."""

    steps: list[dict] = field(default_factory=list)
    epochs: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val_ci: float = 0.0
    final_val_ci: float = 0.0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class TrainedModel:
    encoder: nn.ModelParams
    head: nn.ModelParams
    grid: TimeGrid
    feature_names: tuple[str, ...]


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def stratified_split(events: np.ndarray, seed: int):
    """Event-stratified 80/20 train/validation split of the patient indices."""
    rng = np.random.default_rng([seed, 101])
    train_idx, val_idx = [], []
    for cls in (0, 1):
        members = np.flatnonzero(events == cls)
        rng.shuffle(members)
        n_val = int(np.floor(VAL_FRACTION * members.size))
        val_idx.extend(members[:n_val])
        train_idx.extend(members[n_val:])
    return np.sort(train_idx).astype(int), np.sort(val_idx).astype(int)


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


def _check_outputs(dataset: Dataset, emb: np.ndarray, risks=None) -> None:
    """Name the first patient whose embedding (or risk) is NaN or infinite."""
    finite = np.isfinite(emb).all(axis=1)
    if risks is not None:
        finite &= np.isfinite(risks)
    if not finite.all():
        i = int(np.argmin(finite))
        what = "risk" if np.isfinite(emb[i]).all() else "embedding"
        raise FeatureMismatchError(
            f"the model's {what} of patient {dataset.ids()[i]!r} is not finite")


def _model_risks(model: TrainedModel, features: np.ndarray):
    emb, _ = nn.forward(model.encoder, features)
    logits, _ = nn.forward(model.head, emb)
    curve = heads.survival_curve(heads.pmf_from_logits(logits))
    return heads.risk_score(curve, model.grid), emb


def _settle_allocator() -> None:
    """Start glibc malloc at the thresholds its own adjustment converges
    to, with one arena for every thread.

    glibc serves blocks of 128 KiB and up with mmap and trims the heap
    once 128 KiB lie free at its top; it raises both limits (to 32 MiB and
    64 MiB on 64-bit) only after freeing a large mmapped block. A training
    step frees and re-allocates its temporaries, so until then every step
    hands them back to the kernel and faults them in again: about 24k
    minor faults in 200 steps of 64 views, 80k in 24 steps of 256 views.
    By default glibc also gives each new thread an arena of its own, a
    second heap that keeps its freed blocks apart from the first; with
    one arena (M_ARENA_MAX 1) the worker thread of the ordinality passes
    (`metrics._in_halves`) takes its temporaries from the main heap and
    hands them back there, so the peak RSS does not grow by a second set
    of them. `train` calls it first, and the CLI before any command. Does
    nothing where the C library has no `mallopt`.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold, m_arena_max = -1, -3, -8
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)
    mallopt(m_arena_max, 1)


def init_model(cfg: TrainConfig, d_in: int, num_bins: int):
    """The (encoder, head) parameters `train` starts from: `d_in` features
    to `cfg.d_emb`, then to `num_bins + 1` logits, seeded from `cfg.seed`."""
    encoder = nn.init_params(nn.MlpSpec((d_in, *cfg.hidden_widths, cfg.d_emb),
                                        cfg.activation, seed=_derived_seed(cfg.seed, 1)))
    head = nn.init_params(nn.MlpSpec((cfg.d_emb, num_bins + 1), "relu",
                                     seed=_derived_seed(cfg.seed, 2)))
    return encoder, head


def train_step(encoder: nn.ModelParams, head: nn.ModelParams, views: np.ndarray,
               events, times, grid: TimeGrid, cfg: TrainConfig, step: int):
    """((prognosis, contrastive, total) losses, encoder (weight, bias)
    gradients, head gradients) of one batch; the total is the head's loss
    plus beta times the contrastive one. Raises `NonFiniteLossError` at
    `step` on a non-finite embedding, logit or loss."""
    beta = cfg.loss.beta
    with np.errstate(**_UNCHECKED):
        emb, enc_tape = nn.forward(encoder, views)
        logits, head_tape = nn.forward(head, emb)
    _check_finite(step, "embeddings", emb)
    _check_finite(step, "head logits", logits)
    if cfg.head == "deephit":
        prog_value, dlogits = heads.deephit_loss_and_grad(
            logits, events, times, grid, cfg.deephit_sigma, cfg.deephit_rank_weight)
    else:
        prog_value, dlogits = heads.mtlr_loss_and_grad(logits, events, times, grid)
    emb_batch = loss_mod.EmbeddingBatch(emb, events, times)
    if beta != 0.0:
        rnc_value, rnc_grad = loss_mod.survrnc_loss_and_grad(emb_batch, cfg.loss)
    else:
        rnc_value, rnc_grad = loss_mod.survrnc_loss(emb_batch, cfg.loss), None
    if not (np.isfinite(prog_value) and np.isfinite(rnc_value)):
        raise NonFiniteLossError(
            step, f"loss (prognosis={prog_value}, survrnc={rnc_value})")

    head_wg, head_bg, demb = nn.backward(head, head_tape, dlogits)
    if rnc_grad is not None:
        demb = demb + beta * rnc_grad
    enc_wg, enc_bg, _ = nn.backward(encoder, enc_tape, demb)
    return ((prog_value, rnc_value, prog_value + beta * rnc_value),
            (enc_wg, enc_bg), (head_wg, head_bg))


def train(dataset: Dataset, cfg: TrainConfig):
    """Fit encoder + head on an 80/20 stratified split of `dataset`.

    Returns (TrainedModel, TrainHistory). The final-epoch model is what is
    returned; the best epoch by validation CI is only noted in history.
    Tiny datasets degrade gracefully: batch_size is clamped to the train
    split, an empty validation split falls back to the train split, and a
    validation split with no comparable pair records CI 0.5. A training
    split with no uncensored time above 0 raises `ValidationError`.
    """
    _settle_allocator()
    features, events, times = (dataset.feature_matrix(), dataset.events(),
                               dataset.times())
    train_idx, val_idx = stratified_split(events, cfg.seed)
    val_idx = val_idx if val_idx.size else train_idx
    val_features, val_events, val_times = (
        features[val_idx], events[val_idx], times[val_idx])
    features, events, times = features[train_idx], events[train_idx], times[train_idx]
    grid = discretize_time(times, events, cfg.num_bins)

    encoder, head = init_model(cfg, len(dataset.feature_names), grid.num_bins)
    enc_state = nn.init_adam_state(encoder)
    head_state = nn.init_adam_state(head)

    batch_size = min(cfg.batch_size, len(train_idx))
    steps_per_epoch = max(1, len(train_idx) // batch_size)
    weights = sampling_weights(events, cfg.sampler)

    history = TrainHistory()
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        for _ in range(steps_per_epoch):
            step += 1
            idx = sample_batch(len(train_idx), batch_size, weights,
                               seed=cfg.seed, step=step)
            aug = dataclasses.replace(
                cfg.augment, seed=_derived_seed(cfg.augment.seed, cfg.seed, step))
            views, ev2, t2 = two_view_augment(features[idx], events[idx],
                                              times[idx], aug)
            losses, enc_grads, head_grads = train_step(encoder, head, views, ev2, t2,
                                                       grid, cfg, step)
            with np.errstate(**_UNCHECKED):
                encoder, enc_state = nn.adam_step(encoder, *enc_grads, enc_state,
                                                  cfg.lr, cfg.weight_decay)
                head, head_state = nn.adam_step(head, *head_grads, head_state,
                                                cfg.lr, cfg.weight_decay)
            # a gradient whose square overflows would freeze its parameter
            _check_finite(step, "gradient (AdamW second moment)", *enc_state.v, *head_state.v)
            history.steps.append({"step": step, **dict(zip(_LOSS_KEYS, losses))})

        model = TrainedModel(encoder, head, grid, dataset.feature_names)
        with np.errstate(**_UNCHECKED):
            val_risks, _ = _model_risks(model, val_features)
        _check_finite(step, "validation risks", val_risks)
        try:
            val_ci = metrics.concordance_index(val_risks, val_events, val_times)
        except metrics.NoComparablePairsError:
            val_ci = 0.5
        records = history.steps[-steps_per_epoch:]
        history.epochs.append({
            "epoch": epoch,
            **{key: float(np.mean([r[key] for r in records])) for key in _LOSS_KEYS},
            "val_ci": val_ci,
        })

    history.best_epoch = 1 + int(np.argmax([e["val_ci"] for e in history.epochs]))
    history.best_val_ci = max(e["val_ci"] for e in history.epochs)
    history.final_val_ci = history.epochs[-1]["val_ci"]
    return model, history


def evaluate(model: TrainedModel, dataset: Dataset) -> metrics.EvalReport:
    """Risk-score CI, horizon AUCs and embedding ordinality on `dataset`.
    Raises `FeatureMismatchError` if a patient's embedding or risk is not finite."""
    _check_feature_names(model, dataset)
    with np.errstate(**_UNCHECKED):
        risks, emb = _model_risks(model, dataset.feature_matrix())
    _check_outputs(dataset, emb, risks)
    events, times = dataset.events(), dataset.times()
    ci = metrics.concordance_index(risks, events, times)
    auc_at = {}
    for frac in metrics.DEFAULT_HORIZON_FRACTIONS:
        horizon = metrics.horizon_from_fraction(times, frac)
        auc_at[frac] = metrics.cumulative_dynamic_auc(risks, events, times, horizon)
    ordinality = metrics.embedding_ordinality(emb, events, times)
    used = metrics.ordinality_subset(events).size
    return metrics.EvalReport(ci=ci, auc_at=auc_at, ordinality=ordinality,
                              ordinality_pairs=used * (used - 1) // 2,
                              ordinality_exact=used == int((events == 1).sum()))


def export_embeddings(model: TrainedModel, dataset: Dataset, path) -> None:
    """Write one `write_table` row per patient: id, time, event, v_1..v_{d_emb}.
    Raises `FeatureMismatchError`, writing nothing, if an embedding is not finite."""
    _check_feature_names(model, dataset)
    with np.errstate(**_UNCHECKED):
        emb, _ = nn.forward(model.encoder, dataset.feature_matrix())
    _check_outputs(dataset, emb)
    write_table(path, [f"v_{j + 1}" for j in range(emb.shape[1])], dataset.ids(),
                dataset.times(), dataset.events(), emb)


def lambda_sweep(dataset: Dataset, cfg: TrainConfig,
                 lambdas: Sequence[float]) -> list[dict]:
    """Train one model per lambda with a shared seed; report validation CI."""
    if len(lambdas) < 1:
        raise ValueError("need at least one lambda value")
    # every swept config is built, so every lambda checked, before any training
    swept = [dataclasses.replace(cfg, loss=dataclasses.replace(cfg.loss, lam=lam))
             for lam in lambdas]
    return [{"lambda": c.loss.lam, "val_ci": train(dataset, c)[1].final_val_ci}
            for c in swept]


def _write_json(payload: dict, path) -> str:
    """Write `payload` in the layout of every JSON file survrnc writes
    (sorted keys, two-space indent, trailing newline); returns the text."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")
    return text


CHECKPOINT_VERSION = 1


def save_checkpoint(model: TrainedModel, cfg: TrainConfig, path) -> None:
    _write_json({
        "version": CHECKPOINT_VERSION,
        "encoder": nn.params_to_dict(model.encoder),
        "head": nn.params_to_dict(model.head),
        "grid": model.grid.cut_points.tolist(),
        "feature_names": list(model.feature_names),
        "train_config": cfg.to_dict(),
    }, path)


def load_checkpoint(path) -> TrainedModel:
    """The model `save_checkpoint` wrote to `path`. Raises `CheckpointError`
    for a file of another version, with a key missing or malformed, with a
    parameter that is not finite, or with parts whose widths do not fit."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    try:
        model = TrainedModel(
            encoder=nn.params_from_dict(payload["encoder"]),
            head=nn.params_from_dict(payload["head"]),
            grid=TimeGrid(np.array(payload["grid"], dtype=float)),
            feature_names=tuple(payload["feature_names"]),
        )
    except KeyError as exc:
        raise CheckpointError(f"{path}: checkpoint has no key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: {exc}") from exc
    enc, head = model.encoder.spec.layer_widths, model.head.spec.layer_widths
    for part, width, need, what in (
            ("encoder input", enc[0], len(model.feature_names), "the number of feature names"),
            ("head input", head[0], enc[-1], "the encoder's output width"),
            ("head output", head[-1], model.grid.num_bins + 1, "len(grid) + 1")):
        if width != need:
            raise CheckpointError(f"{path}: {part} width {width} is not {what}, {need}")
    return model


def save_history(history: TrainHistory, cfg: TrainConfig, path) -> None:
    _write_json({"config": cfg.to_dict(), **history.to_dict()}, path)
