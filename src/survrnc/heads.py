"""Discrete-time survival heads: shared PMF parameterization, two losses.

Both heads take a (B, K+1) logits array over K+1 time bins (K grid cuts
plus a terminal open bin) and map it to a probability mass function by
row-wise softmax. They differ in the training loss: a censoring-
marginalized negative log-likelihood, and the same likelihood plus an
exponential pairwise ranking penalty. Every function here takes and
returns plain arrays.

Censoring consistency rule: a bin is consistent with censoring time T iff
its interval upper edge is > T (the subject could still be event-free
inside it); a time exactly on a cut resolves to the later bin. The
terminal bin is consistent with every censoring time, so censored-beyond-
grid subjects always keep positive likelihood mass.
"""

from __future__ import annotations

import numpy as np

from .core import TimeGrid


def _softmax(logits: np.ndarray):
    """(log pmf, pmf): row-wise softmax with max-subtraction."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    return z - np.log(total), e / total


def pmf_from_logits(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (B, K+1) logits; rows sum to 1."""
    return _softmax(np.asarray(logits, dtype=float))[1]


def survival_curve(pmf: np.ndarray) -> np.ndarray:
    """P(T > cut_k) per patient at each grid cut, shape (B, K): the mass
    strictly beyond bin k. Rows are non-increasing."""
    pmf = np.asarray(pmf, dtype=float)
    # S at cut k (1-based) = sum of bins k..K; drop the all-mass column
    return np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1][:, 1:]


def risk_score(curve: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Negative restricted expected survival time; higher = higher risk."""
    widths = np.diff(grid.cut_points, prepend=0.0)
    return -(curve * widths).sum(axis=1)


def mtlr_loss_and_grad(logits: np.ndarray, events: np.ndarray,
                       times: np.ndarray, grid: TimeGrid):
    """Censoring-marginalized NLL over the bin PMF, mean over the batch,
    and its gradient d loss / d logits, shape (B, K+1).

    Uncensored: -log pmf at the event bin. Censored: -log of the summed
    mass over all censoring-consistent bins.
    """
    return _likelihood(logits, events, times, grid)[:2]


def _likelihood(logits: np.ndarray, events: np.ndarray, times: np.ndarray,
                grid: TimeGrid):
    """(value, gradient, pmf, start bins) of `mtlr_loss_and_grad`; a start
    bin is the event bin, or the first censoring-consistent bin if censored."""
    logits = np.asarray(logits, dtype=float)
    if logits.ndim != 2 or logits.shape[1] != grid.num_bins + 1:
        raise ValueError(f"logits shape {logits.shape} is not (B, K+1 = {grid.num_bins + 1})")
    events = np.asarray(events, dtype=int)
    logp, pmf = _softmax(logits)
    n, width = pmf.shape
    start = np.asarray(grid.bin_index(np.asarray(times, dtype=float)))
    bins = np.arange(width)[None, :]
    # the bins a row's likelihood holds: its event bin if uncensored, else
    # every censoring-consistent bin; ll is the log of their mass, and each
    # held bin's share of it, exp(logp - ll), is taken in log space too
    held = np.where((events == 1)[:, None], bins == start[:, None],
                    bins >= start[:, None])
    shifted = np.where(held, logp, -np.inf)
    m = shifted.max(axis=1)
    ll = m + np.log(np.exp(shifted - m[:, None]).sum(axis=1))
    grad = pmf - np.exp(shifted - ll[:, None])
    return float(-ll.mean()), grad / n, pmf, start


def deephit_loss_and_grad(logits: np.ndarray, events: np.ndarray,
                          times: np.ndarray, grid: TimeGrid, sigma: float = 0.1,
                          rank_weight: float = 0.5):
    """Likelihood term plus exponential pairwise ranking penalty, and its
    gradient d loss / d logits, shape (B, K+1).

    The ranking term averages exp(-(F_i(T_i) - F_j(T_i)) / sigma) over
    admissible pairs, F being the cumulative incidence up to and
    including a time's bin; it is zero when no admissible pair exists.
    """
    likelihood, grad, pmf, bins = _likelihood(logits, events, times, grid)
    times = np.asarray(times, dtype=float)
    # admissible (i, j): i had the event strictly before j's time
    adm = (np.asarray(events) == 1)[:, None] & (times[:, None] < times[None, :])
    if not adm.any():
        return likelihood, grad
    cif = np.cumsum(pmf, axis=1)
    f_at = cif[:, bins]            # f_at[j, i] = F_j(T_i)
    own = np.diag(f_at)            # F_i(T_i)
    margins = own[:, None] - f_at.T
    c = np.where(adm, np.exp(-margins / sigma), 0.0)
    pairs = adm.sum()
    rank = float(c.sum() / pairs)  # c is 0 off adm
    c *= rank_weight / (sigma * pairs)

    cum_mask = np.arange(pmf.shape[1])[None, :] <= bins[:, None]  # (B, K+1), 1[l <= b_i]
    # d F_r(b) / d u_r,l = pmf_r,l * (1[l <= b] - F_r(b))
    alpha = c.sum(axis=1)
    grad -= alpha[:, None] * pmf * (cum_mask - own[:, None])
    lhs = c.T @ cum_mask                        # sum_i c_ij * 1[l <= b_i]
    rhs = np.einsum("ji,ij->j", f_at, c)        # sum_i c_ij * F_j(T_i)
    grad += pmf * (lhs - rhs[:, None])
    return likelihood + rank_weight * rank, grad
