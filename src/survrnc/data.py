"""Synthetic censored-survival data and the CSV table I/O; two-view
augmentation and weighted batch sampling on plain arrays.

The generator uses exponential event and censoring times because the
expected censoring fraction then has a closed form, P(C < E | x) =
c / (c + rate(x)), which bisection can calibrate against the target.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ConfigError, Dataset, InputError, _one_line

_RISK_MODELS = ("linear", "quadratic")
_SAMPLER_MODES = ("uniform", "event_balanced")


class ParseError(ValueError, InputError):
    def __init__(self, message: str, row: int | None = None, col: str | None = None):
        self.row = row
        self.col = col
        where = "" if row is None else f" (row {row}" + (
            "" if col is None else f", column {_one_line(col)}") + ")"
        super().__init__(message + where)


class CalibrationFailedError(RuntimeError, InputError):
    pass


@dataclass(frozen=True)
class SynthConfig:
    n: int
    d_in: int
    risk_model: str = "linear"
    base_rate: float = 0.1
    target_censoring: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.n < 4:
            raise ConfigError(f"n must be >= 4, got {self.n}")
        if self.d_in < 1:
            raise ConfigError(f"d_in must be >= 1, got {self.d_in}")
        if self.risk_model not in _RISK_MODELS:
            raise ConfigError(f"risk_model must be one of {_RISK_MODELS}")
        if self.risk_model == "quadratic" and self.d_in < 2:
            raise ConfigError("quadratic risk needs d_in >= 2")
        if not 0 < self.base_rate < math.inf:
            raise ConfigError(f"base_rate must be finite and > 0, got {self.base_rate}")
        if not 0.0 <= self.target_censoring < 1.0:
            raise ConfigError("target_censoring must be in [0, 1)")


@dataclass(frozen=True)
class AugmentConfig:
    noise_std: float = 0.1
    feature_dropout_prob: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.noise_std < math.inf:
            raise ConfigError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if not 0.0 <= self.feature_dropout_prob < 1.0:
            raise ConfigError("feature_dropout_prob must be in [0, 1)")


def _expected_censoring(censor_rate: float, event_rates: np.ndarray) -> float:
    return float(np.mean(censor_rate / (censor_rate + event_rates)))


def _calibrate_censor_rate(event_rates: np.ndarray, target: float) -> float:
    lo, hi = 1e-12, 1e12
    if not (_expected_censoring(lo, event_rates) <= target
            <= _expected_censoring(hi, event_rates)):
        raise CalibrationFailedError(
            f"target censoring {target} not bracketed by rates [{lo}, {hi}]")
    for _ in range(200):
        mid = np.sqrt(lo * hi)  # rates span orders of magnitude; bisect in log
        if _expected_censoring(mid, event_rates) < target:
            lo = mid
        else:
            hi = mid
    rate = np.sqrt(lo * hi)
    if abs(_expected_censoring(rate, event_rates) - target) > 0.02:
        raise CalibrationFailedError("bisection did not reach the target")
    return rate


def generate_synthetic(cfg: SynthConfig):
    """Draw a dataset with known ground truth; returns (Dataset, true risks).

    Features are standard normal; the true risk is w.x for a fixed
    unit-norm w (plus 0.5 * x1 * x2 for the quadratic model). Event times
    are exponential with rate base_rate * exp(risk); the censoring rate is
    calibrated so the expected censoring fraction matches the target
    within +/- 0.02.
    """
    rng = np.random.default_rng(cfg.seed)
    w = rng.standard_normal(cfg.d_in)
    w /= np.linalg.norm(w)
    x = rng.standard_normal((cfg.n, cfg.d_in))
    risks = x @ w
    if cfg.risk_model == "quadratic":
        risks = risks + 0.5 * x[:, 0] * x[:, 1]
    with np.errstate(over="ignore", divide="ignore"):  # rejected next
        event_rates = cfg.base_rate * np.exp(risks)
        mean_times = 1.0 / event_rates
    if overflowed := np.count_nonzero(~(np.isfinite(event_rates) & np.isfinite(mean_times))):
        what = ("too large: the event rate base_rate * exp(risk)" if cfg.base_rate > 1 else
                "too small: the mean event time 1 / (base_rate * exp(risk))")
        raise ConfigError(f"base_rate {cfg.base_rate} is {what} overflows for "
                          f"{overflowed} of {cfg.n} patients")
    event_times = rng.exponential(mean_times)
    if cfg.target_censoring == 0.0:
        observed = event_times
        events = np.ones(cfg.n, dtype=int)
    else:
        censor_rate = _calibrate_censor_rate(event_rates, cfg.target_censoring)
        censor_times = rng.exponential(1.0 / censor_rate, size=cfg.n)
        observed = np.minimum(event_times, censor_times)
        events = (event_times <= censor_times).astype(int)
    width = len(str(cfg.n))
    ids = [f"p{i:0{width}d}" for i in range(cfg.n)]
    names = tuple(f"x{j + 1}" for j in range(cfg.d_in))
    return Dataset._from_columns(ids, x, events, observed, names), risks


def load_csv(path) -> Dataset:
    """Read the `id,time,event,<features...>` schema, `float()` per cell."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file") from None
        # the fixed names may carry spaces; ids and feature names are kept
        # as written, as `write_table` writes them
        if len(header) < 3 or [h.strip() for h in header[:3]] != ["id", "time", "event"]:
            raise ParseError(f"header must start with id,time,event; got {header[:3]}")
        feature_names = tuple(header[3:])
        ids, numbers = [], array("d")  # every row's numbers, one row after another
        for row_num, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", row=row_num)
            ids.append(row[0])
            try:
                numbers.extend(map(float, row[1:]))
            except ValueError:
                raise _cell_error(row, row_num, feature_names) from None
    values = np.frombuffer(numbers).reshape(-1, len(header) - 1)
    return Dataset._from_columns(ids, np.ascontiguousarray(values[:, 2:]), values[:, 1],
                                 values[:, 0].copy(), feature_names)


def _cell_error(row: list[str], row_num: int, feature_names) -> ParseError:
    """The error of the first of time, event, features... `float()` refuses."""
    for j, cell in enumerate(row[1:]):
        try:
            float(cell)
        except ValueError:
            return ParseError(f"bad {('time', 'event', 'value')[min(j, 2)]} {cell!r}",
                              row=row_num, col=("time", "event", *feature_names)[j])


def csv_cell(text: str) -> str:
    """`text` as a field of a `write_table` row: quoted, its quotes doubled,
    when it holds a comma, a quote, CR or LF, and unchanged otherwise."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_table(path, names, ids, times, events, values) -> None:
    """Write the `id,time,event,<names...>` table `load_csv` reads, lines
    ending in "\n": ids and names by `csv_cell`, events as 0/1, the `times`
    and `values` arrays by repr (exact), one row converted at a time."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(csv_cell, ["id", "time", "event", *names])) + "\n")
        for pid, t, e, row in zip(ids, times.tolist(), events, values):
            cells = [csv_cell(pid), repr(t), str(int(e)), *map(repr, row.tolist())]
            fh.write(",".join(cells) + "\n")


def save_csv(dataset: Dataset, path) -> None:
    """Write `dataset` as the table `load_csv` reads."""
    write_table(path, dataset.feature_names, dataset.ids(), dataset.times(),
                dataset.events(), dataset.feature_matrix())


def two_view_augment(features: np.ndarray, events: np.ndarray,
                     times: np.ndarray, cfg: AugmentConfig):
    """Two noisy views of each feature row, labels copied unchanged.

    Rows are interleaved (both views of patient 0, then patient 1, ...).
    Each view adds gaussian noise and then zero-masks features
    independently. Deterministic given cfg.seed.
    """
    if len(features) < 1:
        raise ValueError("need at least one patient")
    rng = np.random.default_rng(cfg.seed)
    doubled = np.repeat(features, 2, axis=0)
    views = doubled + rng.normal(0.0, cfg.noise_std, size=doubled.shape) \
        if cfg.noise_std > 0 else doubled.copy()
    if cfg.feature_dropout_prob > 0:
        keep = rng.random(doubled.shape) >= cfg.feature_dropout_prob
        views = views * keep
    return views, np.repeat(events, 2), np.repeat(times, 2).astype(float)


def sampling_weights(events: np.ndarray, weights_mode: str) -> np.ndarray | None:
    """Per-patient draw probabilities for `sample_batch`.

    None for `uniform`. `event_balanced` weights each patient inversely to
    the frequency of its event class, so heavy censoring no longer starves
    batches of events.
    """
    if weights_mode not in _SAMPLER_MODES:
        raise ValueError(f"weights_mode must be one of {_SAMPLER_MODES}")
    if weights_mode == "uniform":
        return None
    frac_event = events.mean()
    if frac_event in (0.0, 1.0):
        weights = np.ones(len(events))
    else:
        weights = np.where(events == 1, 1.0 / frac_event, 1.0 / (1.0 - frac_event))
    return weights / weights.sum()


def sample_batch(n: int, batch_size: int, weights: np.ndarray | None,
                 seed: int, step: int) -> np.ndarray:
    """Indices of one batch of `batch_size` out of `n` patients, drawn
    without replacement with the probabilities from `sampling_weights`.
    Deterministic given (seed, step).
    """
    if batch_size > n:
        raise ValueError(f"batch_size {batch_size} exceeds dataset size {n}")
    rng = np.random.default_rng([seed, step])
    return np.sort(rng.choice(n, size=batch_size, replace=False, p=weights))
