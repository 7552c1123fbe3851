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
    """(lo, hi, theta) matrices of a whole batch, for tests and the benchmark.

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


def exact_bounds(events: np.ndarray, times: np.ndarray, anchors=slice(None)):
    """Boolean (B, B) matrices lo == theta and hi == theta of
    `delta_bound_matrices`, from the labels alone; with `anchors`, an
    index of rows, only those anchors' rows.

    hi[i, j] is theta exactly when neither is censored (a censored true
    time has no upper end). lo[i, j] is theta exactly when each censored
    one of the two was observed no earlier than the other: then its true
    time can only lie further away.
    """
    event = np.asarray(events) == 1
    times = np.asarray(times, dtype=float)
    anchor_event, anchor_time = event[anchors, None], times[anchors, None]
    return ((anchor_event | (anchor_time >= times)) & (event | (times >= anchor_time)),
            anchor_event & event)


def pair_set_masks(events: np.ndarray, times: np.ndarray):
    """(negative, uncertain) boolean (B, B, B) masks of every (anchor,
    positive, member) triple: those of `anchor_pair_sets` stacked. O(B^3)
    memory, for the tests and the benchmark."""
    n = len(np.asarray(times))
    neg, unc = np.zeros((2, n, n, n), dtype=bool)
    for a, masks in enumerate(anchor_pair_sets(events, times)):
        neg[a], unc[a] = masks
    return neg, unc


def anchor_pair_sets(events: np.ndarray, times: np.ndarray) -> Iterator[tuple]:
    """(negative, uncertain) (B, B) masks [positive, member] of each anchor
    a in turn, in O(B^2) memory: k is negative for (a, p) when its lo
    (theta[a, k] if exact, else 0) is >= theta[a, p], and uncertain when
    not negative and its hi (theta[a, k] if exact, else inf) is."""
    times = np.asarray(times, dtype=float)
    for a, (lo_exact, hi_exact) in enumerate(zip(*exact_bounds(events, times))):
        theta = np.abs(times[a] - times)
        neg = np.where(lo_exact, theta, 0.0) >= theta[:, None]
        unc = ~neg & (np.where(hi_exact, theta, np.inf) >= theta[:, None])
        np.fill_diagonal(neg, True)   # k = p is never disregarded; promote
        np.fill_diagonal(unc, False)
        # k = a never participates, and p = a is not a pair
        neg[:, a] = neg[a] = unc[:, a] = unc[a] = False
        yield neg, unc
