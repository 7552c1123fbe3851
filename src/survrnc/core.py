"""Domain types, time-grid discretization, and the pairwise distances the
loss and the metrics share.

A `Dataset` is valid by construction: building one checks every patient
and raises a single `ValidationError` listing each violation, so the
layers below it trust its columns and take plain arrays. Everything here
is immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
# numpy imports this on first use: loading it with the package keeps that
# one-off cost out of `train`
import numpy.random  # noqa: F401


@dataclass(frozen=True, eq=False)
class Patient:
    """One subject: opaque id, feature vector, event flag and observed time.

    ``event`` is 1 when the event was observed and 0 when the subject is
    right-censored; ``time`` is the observed follow-up time either way
    (true event time if uncensored, censoring time otherwise).
    """

    id: str
    features: np.ndarray
    event: int
    time: float

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))


def _one_line(name) -> str:
    """An id or column name as an error message shows it: as written, or
    its repr where it holds a line break or another unprintable character."""
    return str(name) if str(name).isprintable() else repr(name)


@dataclass(frozen=True)
class Violation:
    code: str
    patient_id: str | None
    detail: str

    def __str__(self) -> str:
        who = _one_line(self.patient_id) if self.patient_id is not None else "<dataset>"
        return f"{self.code}({who}): {self.detail}"


class InputError(Exception):
    """The user's input is at fault: `cli.main` prints one line, exits 2."""


class ValidationError(ValueError, InputError):
    """Raised when a `Dataset` or a time grid is built; carries every
    violation found."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}


class ConfigError(ValueError, InputError):
    """Raised when a config is built with a key or value it cannot take."""


class Dataset:
    """Patients as read-only columns: ids, an (n, d) feature matrix named by
    `feature_names`, 0/1 events and times. Built from `Patient`s or by
    `_from_columns`, it checks every invariant in one vectorized pass and
    raises one `ValidationError` listing every violation, one per patient."""

    def __init__(self, patients: Sequence[Patient], feature_names: Sequence[str]):
        self._patients = patients = tuple(patients)
        d = len(feature_names)
        ragged = {i: p.features.shape for i, p in enumerate(patients) if p.features.shape != (d,)}
        features = np.array([np.full(d, np.nan) if i in ragged else p.features  # flagged
                             for i, p in enumerate(patients)]).reshape(len(patients), d)
        self._check([p.id for p in patients], features,
                    np.array([p.event for p in patients], dtype=object),  # "1" is not 1
                    np.array([+p.time for p in patients], dtype=float),  # nor a time
                    feature_names, ragged)

    @classmethod
    def _from_columns(cls, ids, features, events, times, feature_names) -> Dataset:
        self = cls.__new__(cls)
        self._patients = None
        self._check(ids, features, events, times, feature_names, {})
        return self

    def _check(self, ids, features, events, times, feature_names, ragged) -> None:
        """Keep the columns, or raise per patient RaggedFeatures or NonFiniteFeature,
        NegativeTime, BadEventFlag (values as given); then DuplicateId; AllCensored."""
        bad_features = ~np.isfinite(features).all(axis=1)
        bad_times = ~(np.isfinite(times) & (times >= 0))
        bad_events = (events != 0) & (events != 1)
        violations: list[Violation] = []
        for i in np.flatnonzero(bad_features | bad_times | bad_events).tolist():
            time, event = ((self._patients[i].time, self._patients[i].event)
                           if self._patients is not None else (times[i].item(), events[i].item()))
            found = (("RaggedFeatures", f"expected {len(feature_names)} features, got {ragged[i]}")
                     if i in ragged else ("NonFiniteFeature", "features contain NaN or infinity"),
                     ("NegativeTime", f"time must be finite and >= 0, got {time}"),
                     ("BadEventFlag", f"event must be 0 or 1, got {event!r}"))
            violations += [Violation(code, ids[i], detail) for (code, detail), bad in
                           zip(found, (bad_features[i], bad_times[i], bad_events[i])) if bad]
        if len(set(ids)) < len(ids):
            violations += [Violation("DuplicateId", pid, f"appears {count} times")
                           for pid, count in Counter(ids).items() if count > 1]
        if not (events == 1).any():
            violations.append(Violation(
                "AllCensored", None, "dataset needs at least one uncensored patient"))
        if violations:
            raise ValidationError(violations)
        events = events.astype(int)
        features.flags.writeable = events.flags.writeable = times.flags.writeable = False
        self._ids, self._features, self._events, self._times = ids, features, events, times
        self.feature_names = tuple(feature_names)

    @property
    def patients(self) -> tuple[Patient, ...]:
        """The `Patient`s the dataset was given, or built from its columns."""
        if self._patients is None:
            self._patients = tuple(map(Patient, self._ids, self._features,
                                       self._events.tolist(), self._times.tolist()))
        return self._patients

    def __len__(self) -> int:
        return len(self._ids)

    def ids(self) -> list[str]:
        return self._ids

    def times(self) -> np.ndarray:
        return self._times

    def events(self) -> np.ndarray:
        return self._events

    def feature_matrix(self) -> np.ndarray:
        return self._features


@dataclass(frozen=True)
class LossConfig:
    """Hyperparameters of the ordinal contrastive loss.

    ``temperature`` scales similarities inside the exponentials, ``lam``
    is the weight given to uncertain pairs (0 drops them, 1 treats them
    as negatives), ``beta`` weights the contrastive term in the total
    training loss.
    """

    temperature: float = 2.0
    lam: float = 0.5
    beta: float = 1.0

    def __post_init__(self):
        if not 0 < self.temperature < math.inf:
            raise ConfigError(f"temperature must be finite and > 0, got {self.temperature}")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lam must be in [0, 1], got {self.lam}")
        if not 0 <= self.beta < math.inf:
            raise ConfigError(f"beta must be finite and >= 0, got {self.beta}")


class DegenerateTimesWarning(UserWarning):
    """Fewer distinct uncensored times than requested bins; grid shrank."""


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing cut points defining K bins plus a terminal bin.

    Bin k for k < K is [cut_{k-1}, cut_k) with cut_{-1} = 0; bin K is
    [cut_K, infinity). A time exactly on a cut belongs to the later bin.
    """

    cut_points: np.ndarray

    def __post_init__(self):
        cuts = np.asarray(self.cut_points, dtype=float)
        if cuts.ndim != 1 or cuts.size < 1:
            raise ValueError("need at least one cut point")
        if not np.all(cuts > 0):
            raise ValueError("cut points must be positive")
        if not np.all(np.diff(cuts) > 0):
            raise ValueError("cut points must be strictly increasing")
        object.__setattr__(self, "cut_points", cuts)

    @property
    def num_bins(self) -> int:
        """K, the number of cut-defined bins (total bins = K + 1)."""
        return int(self.cut_points.size)

    def bin_index(self, t):
        """Bin of time(s) `t`, in [0, K]; ties on a cut go to the later bin."""
        return np.searchsorted(self.cut_points, t, side="right")


def discretize_time(times: np.ndarray, events: np.ndarray,
                    num_bins: int) -> TimeGrid:
    """Build a TimeGrid from nearest-rank quantiles of uncensored times.

    Cut points are the empirical quantiles at fractions k/num_bins for
    k = 1..num_bins, computed over uncensored patients only (censored
    times underestimate event times), then deduplicated. If fewer than
    `num_bins` distinct uncensored times exist the grid falls back to the
    distinct times themselves and a DegenerateTimesWarning reports the
    actual K. `times` and `events` are the training split's; with no
    uncensored time above 0 there is no cut, a `ValidationError`.
    """
    if num_bins < 1:
        raise ValueError(f"num_bins must be >= 1, got {num_bins}")
    uncensored = np.sort(times[events == 1])
    distinct = _distinct(uncensored[uncensored > 0])
    if distinct.size == 0:
        raise ValidationError([Violation(
            "NoPositiveEventTime", None,
            "no uncensored patient in the training split has a time above 0")])
    if distinct.size < num_bins:
        warnings.warn(
            f"only {distinct.size} distinct uncensored times for "
            f"{num_bins} requested bins; using K={distinct.size}",
            DegenerateTimesWarning,
        )
        return TimeGrid(distinct)
    n = uncensored.size
    # rank ceil(k n / K), in integers: the float quotient can land one high
    ranks = (np.arange(1, num_bins + 1) * n + num_bins - 1) // num_bins
    cuts = uncensored[ranks - 1]
    return TimeGrid(_distinct(cuts[cuts > 0]))


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array. (np.unique of floats
    would sort them again, and it imports numpy.ma, 12-20 ms, on first use.)"""
    first = np.ones(ascending.size, dtype=bool)
    np.not_equal(ascending[1:], ascending[:-1], out=first[1:])
    return ascending[first]


# A squared distance the Gram formula puts below GUARD_KAPPA * (|a|^2 + |b|^2)
# (a, b the centred rows) is recomputed by direct difference. With
# u = 2**-53 and gamma_k = k u / (1 - k u), the formula's absolute error is
# at most 2 gamma_{d+1} (|a|^2 + |b|^2): gamma_d from each d-term dot
# product (|a.b| <= (|a|^2 + |b|^2) / 2, whatever order the BLAS sums in)
# and u from the sums. Centring moves each difference by at most
# u (|a| + |b|). So every kept value is within 40 gamma_{d+2} relative of
# the exact squared distance (1.5e-13 at d = 32; 1 / GUARD_KAPPA = 20 is
# the cancellation the formula is trusted with), and every value it could
# round to 0 or below, duplicated rows included, is recomputed: no result
# is negative, so no clamp is needed.
GUARD_KAPPA = 0.05


def sq_distance_rows(v: np.ndarray) -> Callable[[int, int], np.ndarray]:
    """The squared Euclidean distances between the rows of the (n, d)
    matrix `v`, as a function of (start, stop) that returns the block
    out[i, j] = |v[start + i] - v[start + j]|^2 over rows [start, stop)
    and [start, n). The block (0, n) is the full matrix, symmetric bit for
    bit. Blocks may be computed in any order, on any thread.

    The rows are centred once, on the middle value of each column (the
    (n // 2)-th smallest), so a common offset or a far outlier costs no
    accuracy; being a value of the column, the centre also keeps exact
    the distances of data on a common binary grid (small integers, say),
    and so their ties. Each block is one GEMM: |a|^2 + |b|^2 - 2 a.b.
    Pairs close relative to their norms (see `GUARD_KAPPA`) are recomputed
    from the difference of the rows, so duplicated rows give exactly 0.
    """
    centred = v - np.partition(v, v.shape[0] // 2, axis=0)[v.shape[0] // 2]
    norms = np.einsum("ij,ij->i", centred, centred)

    def block(start: int, stop: int) -> np.ndarray:
        # a block of all n rows is c @ c.T, which numpy computes with
        # SYRK: one triangle, mirrored, so the block is symmetric bit for bit
        out = centred[start:stop] @ centred[start:].T
        out *= -2.0
        guard = np.add(norms[start:stop, None], norms[start:])
        out += guard
        guard *= GUARD_KAPPA
        close, = (out < guard).ravel().nonzero()
        if close.size:
            i, j = np.divmod(close, out.shape[1])
            diff = v[start + i] - v[start + j]
            out.ravel()[close] = np.einsum("ij,ij->i", diff, diff)
        return out

    return block
