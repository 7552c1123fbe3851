"""Ordinal contrastive loss over an embedding batch, with analytic gradient.

For every ordered (anchor, positive) pair the loss contrasts the pair's
similarity against the members ranked at least as far from the anchor in
time, weighting censoring-uncertain members by lambda. Similarity is
negative Euclidean distance.

One kernel serves every batch size in O(B^2 log B) time and O(B^2)
memory. Each pair's denominator is a suffix sum over the anchor's row
sorted by interval bound, and each member's gradient weight a prefix sum
over the same order. Both sums run in log space, so no denominator
underflows however far apart the embeddings lie.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .core import LossConfig
from .pairsets import delta_bound_matrices


class LengthMismatchError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class EmbeddingBatch:
    """Latent vectors with aligned (event, time) labels, one row per view."""

    embeddings: np.ndarray
    events: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        emb = np.asarray(self.embeddings, dtype=float)
        events = np.asarray(self.events, dtype=int)
        times = np.asarray(self.times, dtype=float)
        if emb.ndim != 2 or emb.shape[0] < 2:
            raise ValueError(f"need a (B, d) matrix with B >= 2, got {emb.shape}")
        if not np.all(np.isfinite(emb)):
            raise ValueError("embeddings contain non-finite values")
        if events.shape != (emb.shape[0],) or times.shape != (emb.shape[0],):
            raise ValueError("labels must align with embedding rows")
        object.__setattr__(self, "embeddings", emb)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "times", times)

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]


def similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Negative Euclidean distance; larger means more similar."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise LengthMismatchError(f"shape mismatch: {u.shape} vs {v.shape}")
    return -float(np.linalg.norm(u - v))


def total_loss(prognosis: float, survrnc: float, cfg: LossConfig) -> float:
    """Training objective: native prognosis loss plus beta times the contrast."""
    return prognosis + cfg.beta * survrnc


def survrnc_loss(batch: EmbeddingBatch, cfg: LossConfig) -> float:
    """Mean negative log pair likelihood over all ordered (a, p) pairs."""
    value, _ = _loss_and_grad(batch, cfg, want_grad=False)
    return value


def survrnc_loss_grad(batch: EmbeddingBatch, cfg: LossConfig) -> np.ndarray:
    """d loss / d embeddings, one row per embedding row."""
    _, grad = _loss_and_grad(batch, cfg, want_grad=True)
    return grad


def survrnc_loss_and_grad(batch: EmbeddingBatch, cfg: LossConfig):
    """Loss and gradient from one shared pass (the trainer's entry point)."""
    return _loss_and_grad(batch, cfg, want_grad=True)


def _rank_order(theta: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Row-wise argsort of [theta | bound], thresholds ahead of bounds on ties.

    Non-negative floats sort like their bit patterns. Shifting those left
    drops the sign bit (set only by -0.0) and frees the low bit for the
    tie-break, which is cheaper than a stable sort.
    """
    n = theta.shape[1]
    keys = np.concatenate([theta, bound], axis=1).view(np.uint64) << 1
    keys[:, n:] |= 1
    return np.argsort(keys, axis=1)


def _scan(values: np.ndarray, order: np.ndarray, reverse: bool) -> np.ndarray:
    """Running log-sum-exp of each row of `values` taken in `order` (from
    its end when `reverse`), returned in the original layout."""
    ranked = np.take_along_axis(values, order, axis=1)
    if reverse:
        acc = np.logaddexp.accumulate(ranked[:, ::-1], axis=1)[:, ::-1]
    else:
        acc = np.logaddexp.accumulate(ranked, axis=1)
    out = np.empty_like(acc)
    np.put_along_axis(out, order, acc, axis=1)
    return out


def _loss_and_grad(batch: EmbeddingBatch, cfg: LossConfig, want_grad: bool):
    """The loss kernel.

    With x = sim / tau, the (a, p) denominator is
        d = (1 - lam) N + lam H,
    where N sums exp(x[a, k]) over the negatives k (lo[a, k] >= theta[a, p],
    plus p itself when its own class is uncertain) and H over negatives and
    uncertains (hi[a, k] >= theta[a, p]). Sorting row a of [theta | bound]
    once per bound kind makes every such sum a suffix of the sorted row.
    The gradient weight of member k sums 1/d over the pairs with
    theta[a, p] <= bound[a, k]: a prefix of the same order.
    """
    v = batch.embeddings
    n = batch.size
    tau, lam = cfg.temperature, cfg.lam
    dist = cdist(v, v)
    x = -dist / tau
    x_k = x.copy()
    np.fill_diagonal(x_k, -np.inf)  # k = a never participates
    lo, hi, theta = delta_bound_matrices(batch.events, batch.times)
    promo = lo < theta  # p uncertain to itself: promoted to the negatives
    kinds = [(bound, weight) for bound, weight in ((lo, 1.0 - lam), (hi, lam))
             if weight > 0]
    orders = [_rank_order(theta, bound) for bound, _ in kinds]
    empty = np.full((n, n), -np.inf)

    log_sums = [_scan(np.concatenate([empty, x_k], axis=1), order, True)[:, :n]
                for order in orders]
    if lam < 1:
        log_sums[0] = np.where(promo, np.logaddexp(log_sums[0], x), log_sums[0])
    if len(log_sums) == 1:
        log_d = log_sums[0]
    else:
        log_n, log_h = log_sums
        # H == N means no uncertain mass, and d is N exactly for every lam
        log_d = np.where(log_h > log_n,
                         np.logaddexp(np.log1p(-lam) + log_n, np.log(lam) + log_h),
                         log_n)
    # d >= exp(x[a, p]) because p sits in its own denominator with weight 1;
    # rounding in the lam mix may undercut that by an ulp
    terms = np.maximum(log_d - x, 0.0)
    np.fill_diagonal(terms, 0.0)  # p = a is not a pair
    num_pairs = n * (n - 1)
    value = float(terms.sum() / num_pairs)
    if not want_grad:
        return value, None

    neg_log_d = -log_d
    np.fill_diagonal(neg_log_d, -np.inf)
    # coeff[a, k] = d(summed terms) / d x[a, k]: each pair's own -x[a, p],
    # plus the weight exp(x[a, k]) / d of k in every denominator holding it;
    # those weights are <= 1 each, so no exp below overflows
    coeff = np.full((n, n), -1.0)
    for (_, weight), order in zip(kinds, orders):
        log_r = _scan(np.concatenate([neg_log_d, empty], axis=1), order, False)[:, n:]
        coeff += weight * np.exp(x_k + log_r)
    if lam < 1:
        coeff += np.where(promo, (1.0 - lam) * np.exp(x_k - log_d), 0.0)
    np.fill_diagonal(coeff, 0.0)
    coeff /= tau * num_pairs

    # d dist[a, k] / d v[a] = (v[a] - v[k]) / dist[a, k] = -d dist[a, k] / d v[k]
    w = np.divide(coeff, dist, out=np.zeros_like(coeff), where=dist > 0)
    s = w + w.T
    return value, s @ v - s.sum(axis=1)[:, None] * v
