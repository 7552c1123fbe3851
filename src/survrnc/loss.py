"""Ordinal contrastive loss over an embedding batch, with analytic gradient.

For every ordered (anchor, positive) pair the loss contrasts the pair's
similarity against the members ranked at least as far from the anchor in
time, weighting censoring-uncertain members by lambda. Similarity is
negative Euclidean distance. The B x B distances come from one GEMM on
the centred batch, |a|^2 + |b|^2 - 2 a.b (`core.sq_distance_blocks`); a pair
whose squared distance falls below `core.GUARD_KAPPA` times |a|^2 + |b|^2,
where that formula cancels, is recomputed from the difference of its
rows, so identical views are exactly 0 apart and every distance is
within about 20 gamma_{d+2} (7e-14 at d = 32) relative of the exact one.

One kernel serves every batch size in O(B^2 log B) time and O(B^2)
memory. One sort of the anchor's row by time threshold orders every sum:
each pair's denominator is a suffix sum from the positive's tie group,
each member's gradient weight a prefix sum. Both run in log space, so no
denominator underflows however far apart the embeddings lie.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LossConfig, sq_distance_blocks
from .pairsets import delta_bound_matrices


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


def survrnc_loss(batch: EmbeddingBatch, cfg: LossConfig) -> float:
    """Mean negative log pair likelihood over all ordered (a, p) pairs."""
    value, _ = _loss_and_grad(batch, cfg, want_grad=False)
    return value


def survrnc_loss_and_grad(batch: EmbeddingBatch, cfg: LossConfig):
    """Loss and gradient from one shared pass (the trainer's entry point)."""
    return _loss_and_grad(batch, cfg, want_grad=True)


def _loss_and_grad(batch: EmbeddingBatch, cfg: LossConfig, want_grad: bool):
    """The loss kernel.

    With x = sim / tau, the (a, p) denominator is
        d = (1 - lam) N + lam H,
    where N sums exp(x[a, k]) over the negatives k (lo[a, k] >= theta[a, p],
    plus p itself when its own class is uncertain) and H over negatives and
    uncertains (hi[a, k] >= theta[a, p]). lo[a, k] is theta[a, k] or 0 and
    hi[a, k] is theta[a, k] or inf, so one ascending sort of row a by theta
    orders both sums. A member whose bound is theta counts at its own
    place. A lo = 0 member counts at the first place, so it joins N only
    for pairs with theta = 0; a hi = inf member counts at the last place,
    so it joins every H. N and H are suffix sums read at the first place
    of p's tie group. The gradient weight of member k, the sum of 1/d over
    the pairs whose N or H holds k, is one prefix sum of 1/d read at the
    last place of the tie group k counts in.
    """
    v = batch.embeddings
    n = batch.size
    tau, lam = cfg.temperature, cfg.lam
    lo, hi, theta = delta_bound_matrices(batch.events, batch.times)
    rows = np.arange(n)[:, None]
    # flat index of each row's members in ascending theta; every (B, B)
    # matrix from here on lists its rows in that order
    ranked = np.argsort(theta, axis=1) + n * rows
    # per bound kind: members whose bound is theta, the others' place, weight
    kinds = [(np.take(bound == theta, ranked), place, weight)
             for bound, place, weight in ((lo, 0, 1.0 - lam), (hi, -1, lam))
             if weight > 0]
    theta = np.take(theta, ranked)
    sq_dist, = sq_distance_blocks(v, n)
    dist = np.take(np.sqrt(sq_dist), ranked)
    x = -dist / tau
    is_self = ranked == rows * (n + 1)
    x[is_self] = -np.inf  # k = a never participates
    places = np.arange(n)
    tie = np.zeros((n, n + 1), dtype=bool)  # tie[:, j]: place j ties place j - 1
    tie[:, 1:-1] = theta[:, 1:] == theta[:, :-1]
    first = np.maximum.accumulate(np.where(tie[:, :-1], 0, places), axis=1) + n * rows

    log_sums = []
    for exact, place, _ in kinds:
        addends = np.where(exact, x, -np.inf)
        others = np.where(exact, -np.inf, x)
        top = others.max(axis=1, initial=np.finfo(float).min)
        with np.errstate(divide="ignore"):  # log 0 = -inf: no others in the row
            total = np.log(np.exp(others - top[:, None]).sum(axis=1)) + top
        addends[:, place] = np.logaddexp(addends[:, place], total)
        suffix = np.logaddexp.accumulate(addends[:, ::-1], axis=1)[:, ::-1]
        log_sums.append(np.take(suffix, first))
    log_d = log_sums[0]
    if lam < 1:
        promo = ~kinds[0][0]  # p uncertain to itself: promoted to the negatives
        log_d = np.where(promo, np.maximum(log_d, x) + np.log1p(
            np.exp(-np.abs(log_d - x))), log_d)  # vector logaddexp, 6x faster
    if len(log_sums) == 2:
        log_h = log_sums[1]
        # H == N means no uncertain mass, and d is N exactly for every lam
        log_d = np.where(log_h > log_d, log_h + np.log(
            lam + (1.0 - lam) * np.exp(log_d - log_h)), log_d)
    # d >= exp(x[a, p]) because p sits in its own denominator with weight 1;
    # rounding in the lam mix may undercut that by an ulp
    terms = np.where(is_self, 0.0, np.maximum(log_d - x, 0.0))  # p = a: no pair
    num_pairs = n * (n - 1)
    value = float(terms.sum() / num_pairs)
    if not want_grad:
        return value, None

    prefix = np.logaddexp.accumulate(np.where(is_self, -np.inf, -log_d), axis=1)
    last = np.minimum.accumulate(np.where(tie[:, 1:], n - 1, places)[:, ::-1],
                                 axis=1)[:, ::-1] + n * rows
    own = np.take(prefix, last)
    # coeff[a, k] = d(summed terms) / d x[a, k]: the weight exp(x[a, k]) / d
    # of k in every denominator holding it, less each pair's own x[a, p]
    # (both split by kind, so a lone positive's terms cancel exactly); the
    # weights are <= 1 each, so no exp below overflows
    coeff = np.zeros((n, n))
    for exact, place, weight in kinds:
        coeff += weight * (np.exp(x + np.where(exact, own, own[:, place, None])) - 1.0)
    if lam < 1:
        coeff += (1.0 - lam) * promo * np.exp(x - log_d)
    coeff[is_self] = 0.0
    coeff /= tau * num_pairs

    # d dist[a, k] / d v[a] = (v[a] - v[k]) / dist[a, k] = -d dist[a, k] / d v[k]
    w = np.empty((n, n))
    w.ravel()[ranked] = np.divide(coeff, dist, out=np.zeros((n, n)), where=dist > 0)
    s = w + w.T
    return value, s @ v - s.sum(axis=1)[:, None] * v
