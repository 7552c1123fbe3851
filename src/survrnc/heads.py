"""Discrete-time survival heads: shared PMF parameterization, two losses.

Both heads map logits over K+1 time bins (K grid cuts plus a terminal
open bin) to a probability mass function by row-wise softmax. They differ
in the training loss: a censoring-marginalized negative log-likelihood,
and the same likelihood plus an exponential pairwise ranking penalty.

Censoring consistency rule: a bin is consistent with censoring time T iff
its interval upper edge is > T (the subject could still be event-free
inside it); a time exactly on a cut resolves to the later bin. The
terminal bin is consistent with every censoring time, so censored-beyond-
grid subjects always keep positive likelihood mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TimeGrid


class BinWidthMismatchError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class HeadOutput:
    """Raw per-bin scores, shape (B, K+1)."""

    logits: np.ndarray

    def __post_init__(self):
        logits = np.asarray(self.logits, dtype=float)
        if logits.ndim != 2:
            raise ValueError(f"logits must be (B, K+1), got {logits.shape}")
        object.__setattr__(self, "logits", logits)


@dataclass(frozen=True, eq=False)
class SurvivalCurve:
    """P(T > cut_k) per patient at each grid cut; rows non-increasing."""

    probabilities: np.ndarray  # (B, K)
    cut_points: np.ndarray     # (K,)


def _check_width(output: HeadOutput, grid: TimeGrid):
    if output.logits.shape[1] != grid.num_bins + 1:
        raise BinWidthMismatchError(
            f"logits width {output.logits.shape[1]} != K+1 = {grid.num_bins + 1}")


def pmf_from_logits(output: HeadOutput) -> np.ndarray:
    """Row-wise softmax with max-subtraction; rows sum to 1."""
    z = output.logits - output.logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def survival_curve(pmf: np.ndarray, grid: TimeGrid) -> SurvivalCurve:
    """Tail-mass transform: S(cut_k) = mass strictly beyond bin k."""
    pmf = np.asarray(pmf, dtype=float)
    # S at cut k (1-based) = sum of bins k..K; drop the all-mass column
    tail = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]
    return SurvivalCurve(tail[:, 1:], grid.cut_points)


def risk_score(curve: SurvivalCurve) -> np.ndarray:
    """Negative restricted expected survival time; higher = higher risk."""
    widths = np.diff(curve.cut_points, prepend=0.0)
    return -(curve.probabilities * widths).sum(axis=1)


def _start_bins(times: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Event bin if uncensored; first censoring-consistent bin if censored."""
    return np.asarray(grid.bin_index(np.asarray(times, dtype=float)))


def mtlr_loss_and_grad(output: HeadOutput, events: np.ndarray,
                       times: np.ndarray, grid: TimeGrid):
    """Censoring-marginalized NLL over the bin PMF, mean over the batch,
    and its gradient d loss / d logits, shape (B, K+1).

    Uncensored: -log pmf at the event bin. Censored: -log of the summed
    mass over all censoring-consistent bins.
    """
    return _likelihood(output, events, times, grid)[:2]


def _likelihood(output: HeadOutput, events: np.ndarray, times: np.ndarray,
                grid: TimeGrid):
    """(value, gradient, pmf, start bins) of `mtlr_loss_and_grad`."""
    _check_width(output, grid)
    events = np.asarray(events, dtype=int)
    z = output.logits - output.logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    logp = z - np.log(total)
    pmf = e / total
    n, width = pmf.shape
    start = _start_bins(times, grid)
    rows = np.arange(n)
    tail_mask = np.arange(width)[None, :] >= start[:, None]
    uncensored = events == 1

    # log of the consistent-tail mass, computed in log space
    shifted = np.where(tail_mask, logp, -np.inf)
    m = shifted.max(axis=1)
    cens_ll = m + np.log(np.exp(shifted - m[:, None]).sum(axis=1))
    ll = np.where(uncensored, logp[rows, start], cens_ll)

    tail_mass = np.where(tail_mask, pmf, 0.0).sum(axis=1)
    grad_uncens = pmf.copy()
    grad_uncens[rows, start] -= 1.0
    grad_cens = pmf * (1.0 - tail_mask / tail_mass[:, None])
    grad = np.where(uncensored[:, None], grad_uncens, grad_cens)
    return float(-ll.mean()), grad / n, pmf, start


def _rank_pairs(events: np.ndarray, times: np.ndarray):
    """Admissible (i, j) mask: i had the event strictly before j's time."""
    events = np.asarray(events, dtype=int)
    times = np.asarray(times, dtype=float)
    return (events[:, None] == 1) & (times[:, None] < times[None, :])


def deephit_loss_and_grad(output: HeadOutput, events: np.ndarray,
                          times: np.ndarray, grid: TimeGrid, sigma: float = 0.1,
                          rank_weight: float = 0.5):
    """Likelihood term plus exponential pairwise ranking penalty, and its
    gradient d loss / d logits, shape (B, K+1).

    The ranking term averages exp(-(F_i(T_i) - F_j(T_i)) / sigma) over
    admissible pairs, F being the cumulative incidence up to and
    including a time's bin; it is zero when no admissible pair exists.
    """
    likelihood, grad, pmf, bins = _likelihood(output, events, times, grid)
    adm = _rank_pairs(events, times)
    if not adm.any():
        return likelihood, grad
    cif = np.cumsum(pmf, axis=1)
    f_at = cif[:, bins]            # f_at[j, i] = F_j(T_i)
    own = np.diag(f_at)            # F_i(T_i)
    margins = own[:, None] - f_at.T
    c = np.where(adm, np.exp(-margins / sigma), 0.0)
    pairs = adm.sum()
    rank = float(c[adm].sum() / pairs)
    c *= rank_weight / (sigma * pairs)

    cum_mask = np.arange(pmf.shape[1])[None, :] <= bins[:, None]  # (B, K+1), 1[l <= b_i]
    # d F_r(b) / d u_r,l = pmf_r,l * (1[l <= b] - F_r(b))
    alpha = c.sum(axis=1)
    grad -= alpha[:, None] * pmf * (cum_mask - own[:, None])
    lhs = c.T @ cum_mask                        # sum_i c_ij * 1[l <= b_i]
    rhs = np.einsum("ji,ij->j", f_at, c)        # sum_i c_ij * F_j(T_i)
    grad += pmf * (lhs - rhs[:, None])
    return likelihood + rank_weight * rank, grad
