"""Censoring-aware classification of batch members into pair sets.

For an (anchor, positive) pair the remaining batch members split into
negatives (their true time difference from the anchor provably meets the
pair threshold), uncertains (censoring leaves it undecidable) and
disregarded members (provably below the threshold). Right-censoring makes
a true event time known only as an interval [T, inf), so the decision is
interval arithmetic over absolute time differences.
"""

from __future__ import annotations

import numpy as np


def delta_bound_matrices(events: np.ndarray, times: np.ndarray):
    """(lo, hi, theta) matrices for a whole batch.

    lo/hi[i, j] bound |true time i - true time j| while each true time
    ranges over [T, T] if uncensored and [T, inf) if censored; theta[i, j]
    is the observed-time threshold |T_i - T_j|, finite even if censored.
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
    meaningless p = a rows cleared. Must agree everywhere with the oracle,
    the scalar interval classifier of pair sets in `tests/oracles.py`.
    O(B^3) memory: for inspection (`survrnc pairsets`) and for checking the
    loss kernel, which works from `delta_bound_matrices`.
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

