"""Censoring-aware classification of batch members into pair sets.

For an (anchor, positive) pair the remaining batch members split into
negatives (their true time difference from the anchor provably meets the
pair threshold), uncertains (censoring leaves it undecidable) and
disregarded members (provably below the threshold). Right-censoring makes
a true event time known only as an interval [T, inf), so the decision is
interval arithmetic over absolute time differences.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Patient


class PairClass(enum.Enum):
    NEGATIVE = "negative"
    UNCERTAIN = "uncertain"
    DISREGARD = "disregard"


@dataclass(frozen=True)
class TimeInterval:
    """Closed-below range [lo, hi] for an unobservable non-negative quantity."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo < 0:
            raise ValueError(f"lo must be >= 0, got {self.lo}")
        if self.lo > self.hi:
            raise ValueError(f"need lo <= hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class PairSets:
    """Index sets for one (anchor, positive) pair; disjoint, anchor excluded."""

    negatives: frozenset[int]
    uncertains: frozenset[int]


def true_time_interval(p: Patient) -> TimeInterval:
    """Range of the true event time: exact if uncensored, [T, inf) if censored."""
    if p.event == 1:
        return TimeInterval(p.time, p.time)
    return TimeInterval(p.time, math.inf)


def delta_interval(a: Patient, k: Patient) -> TimeInterval:
    """Exact range of |T*_a - T*_k| as both true times range over their intervals.

    This is the interval distance / maximal separation of the two boxes:
    lo = max(0, lo_a - hi_k, lo_k - hi_a), hi = max(hi_a - lo_k, hi_k - lo_a).
    """
    ia, ik = true_time_interval(a), true_time_interval(k)
    lo = max(0.0, ia.lo - ik.hi, ik.lo - ia.hi)
    hi = max(ia.hi - ik.lo, ik.hi - ia.lo)
    return TimeInterval(lo, hi)


def pair_threshold(a: Patient, p: Patient) -> float:
    """Threshold for the (a, p) pair: |T_a - T_p| on observed times.

    Observed times are used even when a or p is censored; a censored
    anchor still yields a finite threshold.
    """
    return abs(a.time - p.time)


def classify_interval(interval: TimeInterval, threshold: float) -> PairClass:
    """Compare an interval of possible |delta T| values against a threshold.

    Whole interval >= threshold: NEGATIVE. Whole interval < threshold:
    DISREGARD. Straddles it: UNCERTAIN. A lower bound exactly equal to the
    threshold counts as NEGATIVE (ties meet the >= rank rule).
    """
    if interval.lo >= threshold:
        return PairClass.NEGATIVE
    if interval.hi < threshold:
        return PairClass.DISREGARD
    return PairClass.UNCERTAIN


def classify(a: Patient, p: Patient, k: Patient) -> PairClass:
    """Class of batch member k relative to the (a, p) pair."""
    return classify_interval(delta_interval(a, k), pair_threshold(a, p))


def build_pair_sets(batch: Sequence[Patient], a: int, p: int) -> PairSets:
    """Classify every k != a (including k = p) for the (a, p) pair.

    If censoring makes p's own class uncertain, p is promoted into the
    negatives so the likelihood denominator always dominates the numerator
    and every loss term stays non-negative.
    """
    if a == p:
        raise ValueError("anchor and positive must differ")
    negatives: set[int] = set()
    uncertains: set[int] = set()
    for k in range(len(batch)):
        if k == a:
            continue
        cls = classify(batch[a], batch[p], batch[k])
        if k == p and cls is PairClass.UNCERTAIN:
            cls = PairClass.NEGATIVE
        if cls is PairClass.NEGATIVE:
            negatives.add(k)
        elif cls is PairClass.UNCERTAIN:
            uncertains.add(k)
    return PairSets(frozenset(negatives), frozenset(uncertains))


def delta_bound_matrices(events: np.ndarray, times: np.ndarray):
    """(lo, hi, theta) matrices for a whole batch.

    lo/hi[i, j] bound |true time i - true time j| (the delta_interval of
    every patient pair); theta[i, j] is the observed-time threshold.
    """
    events = np.asarray(events)
    times = np.asarray(times, dtype=float)
    lo_t = times
    hi_t = np.where(events == 1, times, np.inf)
    lo = np.maximum(0.0, np.maximum(lo_t[:, None] - hi_t[None, :],
                                    lo_t[None, :] - hi_t[:, None]))
    hi = np.maximum(hi_t[:, None] - lo_t[None, :], hi_t[None, :] - lo_t[:, None])
    theta = np.abs(times[:, None] - times[None, :])
    return lo, hi, theta


def pair_set_masks(events: np.ndarray, times: np.ndarray):
    """Vectorized membership masks for all (a, p, k) triples of a batch.

    Returns boolean tensors (negative, uncertain) of shape (B, B, B) with
    the k = p self-promotion already applied, k = a slots and the
    meaningless p = a rows cleared. Must agree with `classify` /
    `build_pair_sets` everywhere. O(B^3) memory: for inspection and for
    checking the loss kernel, which works from `delta_bound_matrices`.
    """
    times = np.asarray(times, dtype=float)
    n = times.shape[0]
    lo, hi, theta = delta_bound_matrices(events, times)
    neg = lo[:, None, :] >= theta[:, :, None]
    unc = ~neg & (hi[:, None, :] >= theta[:, :, None])
    idx = np.arange(n)
    neg[:, idx, idx] = True   # k = p is never disregarded; promote
    unc[:, idx, idx] = False
    for mask in (neg, unc):
        mask[idx, :, idx] = False  # k = a never participates
        mask[idx, idx, :] = False  # p = a is not a pair
    return neg, unc

