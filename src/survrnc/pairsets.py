"""Censoring-aware classification of batch members into pair sets.

For an (anchor, positive) pair the remaining batch members split into
negatives (their true time difference from the anchor provably meets the
pair threshold), uncertains (censoring leaves it undecidable) and
disregarded members (provably below the threshold). Right-censoring makes
a true event time known only as an interval [T, inf), so the decision
compares the range of a pair's absolute true time difference with the
threshold. Each end of that range is the observed difference or an
extreme (0 or inf), and the labels say which (`exact_bounds`); the
interval arithmetic itself is the oracle in `tests/oracles.py`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


def delta_bound_matrices(events: np.ndarray, times: np.ndarray):
    """(lo, hi, theta) matrices for a whole batch.

    lo/hi[i, j] bound |true time i - true time j| while each true time
    ranges over [T, T] if uncensored and [T, inf) if censored; theta[i, j]
    is the observed-time threshold |T_i - T_j|, finite even if censored.
    Each bound is theta or an extreme, lo theta or 0 and hi theta or inf,
    so both are built from `exact_bounds`.
    """
    times = np.asarray(times, dtype=float)
    theta = np.abs(times[:, None] - times)
    lo_exact, hi_exact = exact_bounds(events, times)
    return np.where(lo_exact, theta, 0.0), np.where(hi_exact, theta, np.inf), theta


def exact_bounds(events: np.ndarray, times: np.ndarray):
    """Boolean (B, B) matrices lo == theta and hi == theta of
    `delta_bound_matrices`, from the labels alone.

    hi[i, j] is theta exactly when neither is censored (a censored true
    time has no upper end). lo[i, j] is theta exactly when each censored
    one of the two was observed no earlier than the other: then its true
    time can only lie further away.
    """
    event = np.asarray(events) == 1
    times = np.asarray(times, dtype=float)
    later = times[:, None] >= times
    return ((event[:, None] | later) & (event | later.T),
            event[:, None] & event)


def pair_set_masks(events: np.ndarray, times: np.ndarray):
    """Vectorized membership masks for all (a, p, k) triples of a batch.

    Returns boolean tensors (negative, uncertain) of shape (B, B, B) with
    the k = p self-promotion already applied, k = a slots and the
    meaningless p = a rows cleared. Must agree everywhere with the oracle,
    the scalar interval classifier of pair sets in `tests/oracles.py`.
    O(B^3) memory: for checking the loss kernel, which works from
    `exact_bounds`; `anchor_pair_sets` gives the same masks one anchor at
    a time.
    """
    bounds = delta_bound_matrices(events, times)
    return _classify(*bounds, np.arange(bounds[0].shape[0]))


def anchor_pair_sets(events: np.ndarray, times: np.ndarray) -> Iterator[tuple]:
    """(negative, uncertain) (B, B) masks of each anchor a in turn: the
    [a] slices of `pair_set_masks`, in O(B^2) memory."""
    bounds = delta_bound_matrices(events, times)
    for a in range(bounds[0].shape[0]):
        neg, unc = _classify(*bounds, np.array([a]))
        yield neg[0], unc[0]


def _classify(lo, hi, theta, anchors):
    """The pair-set rule for the anchors listed in `anchors`: masks of
    shape (len(anchors), B, B) indexed [anchor, positive, member]."""
    n = theta.shape[0]
    lo, hi, theta = lo[anchors, None, :], hi[anchors, None, :], theta[anchors, :, None]
    neg = lo >= theta
    unc = ~neg & (hi >= theta)
    idx = np.arange(n)
    neg[:, idx, idx] = True   # k = p is never disregarded; promote
    unc[:, idx, idx] = False
    block = np.arange(len(anchors))
    for mask in (neg, unc):
        mask[block, :, anchors] = False  # k = a never participates
        mask[block, anchors, :] = False  # p = a is not a pair
    return neg, unc
