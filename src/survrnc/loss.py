"""Ordinal contrastive loss over an embedding batch, with analytic gradient.

For every ordered (anchor, positive) pair the loss contrasts the pair's
similarity against the members ranked at least as far from the anchor in
time, weighting censoring-uncertain members by lambda. Similarity is
negative Euclidean distance. The B x B distances come from one GEMM on
the centred batch, |a|^2 + |b|^2 - 2 a.b (`core.sq_distance_rows`); a pair
whose squared distance falls below `core.GUARD_KAPPA` times |a|^2 + |b|^2,
where that formula cancels, is recomputed from the difference of its
rows, so identical views are exactly 0 apart and every distance is
within about 20 gamma_{d+2} (7e-14 at d = 32) relative of the exact one.

One kernel serves every batch size in O(B^2 log B) time and O(B^2)
memory. One sort of the anchor's row by time threshold orders every sum:
each pair's denominator is a suffix sum from the positive's tie group,
each member's gradient weight a prefix sum; which members count at their
own place follows from the labels (`pairsets.exact_bounds`). A batch is
summed in linear space (one exp, cumulative sums) unless some row's
similarities span too wide a range for that (`LINEAR_SPREAD`); then every
row is summed in log space, so no denominator underflows however far
apart the embeddings lie.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LossConfig, sq_distance_rows
from .pairsets import exact_bounds


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


# A batch is summed in linear space, each row a shifted by its largest
# x[a, k] = m (k != a), when the members of every row span S = max x - min x
# with S + ln(B + 1) < LINEAR_SPREAD. Then every quantity the sums touch is a
# normal double: each exp(x - m) lies in [e^-S, 1]; each sum of them,
# d e^-m included, in [e^-S, B] (d holds p itself, so it is never 0);
# each e^m / d in [1/B, e^S] and each prefix sum of those in [1/B, B e^S];
# each member's weight exp(x[a, k]) / d summed over pairs, when not 0, in
# [e^-S / B, B / lam]. ln of the smallest normal double is -708.4 and of
# the largest 709.8, so nothing underflows or overflows, each operation
# keeps its relative error u, and every sum is within about B u of the
# exact one, as in log space. A batch with a wider row, whose members lie
# more than ~700 tau apart, is summed in log space.
LINEAR_SPREAD = 700.0


def _loss_and_grad(batch: EmbeddingBatch, cfg: LossConfig, want_grad: bool):
    """The loss kernel.

    With x = sim / tau, the (a, p) denominator is
        d = (1 - lam) N + lam H,
    where N sums exp(x[a, k]) over the negatives k (lo[a, k] >= theta[a, p],
    plus p itself when its own class is uncertain) and H over negatives and
    uncertains (hi[a, k] >= theta[a, p]). lo[a, k] is theta[a, k] or 0 and
    hi[a, k] is theta[a, k] or inf (`pairsets.exact_bounds` says which from
    the labels), so one ascending sort of row a by theta orders both sums.
    A member whose bound is theta counts at its own place. A lo = 0 member
    counts at the first place, so it joins N only for pairs with theta = 0;
    a hi = inf member counts at the last place, so it joins every H. N and
    H are suffix sums read at the first place of p's tie group. The
    gradient weight of member k, the sum of 1/d over the pairs whose N or
    H holds k, is one prefix sum of 1/d read at the last place of the tie
    group k counts in.
    """
    v = batch.embeddings
    n = batch.size
    tau, lam = cfg.temperature, cfg.lam
    rows = np.arange(n)[:, None]
    theta = np.abs(batch.times[:, None] - batch.times)
    # flat index of each row's members in ascending theta; every (B, B)
    # matrix from here on lists its rows in that order
    ranked = np.argsort(theta, axis=1) + n * rows
    # per bound kind: members whose bound is theta, the others' place, weight
    kinds = [(np.take(exact, ranked), place, weight) for exact, place, weight
             in zip(exact_bounds(batch.events, batch.times), (0, -1), (1.0 - lam, lam))
             if weight > 0]
    first, last = _tie_groups(np.take(theta, ranked))
    dist = np.take(np.sqrt(sq_distance_rows(v)(0, n)), ranked)
    x = -dist / tau
    is_self = (rows, np.argmax(ranked == rows * (n + 1), axis=1)[:, None])  # k = a's place
    x[is_self] = -np.inf  # k = a never participates

    spread = (x.max(axis=1) + dist.max(axis=1) / tau).max() + np.log(n + 1)
    parts = (_log_rows if spread >= LINEAR_SPREAD else _linear_rows)(
        x, lam, kinds, first, last, is_self, want_grad)
    # d >= exp(x[a, p]) because p sits in its own denominator with weight 1;
    # rounding in the lam mix may undercut that by an ulp
    terms = np.maximum(parts[0], 0.0)
    terms[is_self] = 0.0  # p = a: no pair
    num_pairs = n * (n - 1)
    value = float(terms.sum() / num_pairs)
    if not want_grad:
        return value, None

    # coeff[a, k] = d(summed terms) / d x[a, k]: the weight exp(x[a, k]) / d
    # of k in every denominator holding it, less each pair's own x[a, p]
    # (both split by kind, so a lone positive's terms cancel exactly)
    coeff = np.zeros((n, n))
    for (_, _, weight), held in zip(kinds, parts[1:]):
        coeff += weight * (held - 1.0)
    coeff[is_self] = 0.0
    coeff /= tau * num_pairs

    # d dist[a, k] / d v[a] = (v[a] - v[k]) / dist[a, k] = -d dist[a, k] / d v[k]
    w = np.empty((n, n))
    w.ravel()[ranked] = np.divide(coeff, dist, out=np.zeros((n, n)), where=dist > 0)
    s = w + w.T
    return value, s @ v - s.sum(axis=1)[:, None] * v


def _tie_groups(theta):
    """The first and the last place of each place's tie group, in rows
    sorted ascending."""
    n = theta.shape[1]
    places = np.arange(n)
    tie = np.zeros((theta.shape[0], n + 1), dtype=bool)  # place j ties j - 1
    tie[:, 1:-1] = theta[:, 1:] == theta[:, :-1]
    first = np.maximum.accumulate(places * ~tie[:, :-1], axis=1)
    last = np.minimum.accumulate(np.maximum(places, (n - 1) * tie[:, 1:])[:, ::-1],
                                 axis=1)[:, ::-1]
    return first, last


def _linear_rows(x, lam, kinds, first, last, is_self, want_grad):
    """Rows of log d - x and, with `want_grad`, per kind, of each member's
    weight exp(x) / d summed over the denominators holding it (a promoted
    positive's weight in its own N included), summed in linear space."""
    n = len(x)
    at = n * np.arange(n)[:, None]  # flat offset of each row
    z = x - x.max(axis=1, keepdims=True)
    z[is_self] = 0.0  # finite, so exp keeps to its vector path
    e = np.exp(z)
    e[is_self] = 0.0
    d, outsides = None, []
    for exact, place, _ in kinds:
        addends = e * exact  # members counted at their own place
        outside = e - addends  # the others, counted at `place`
        addends[:, place] += outside.sum(axis=1)
        # a censored anchor has no member at its own place in H, which is
        # then its row total at every place: scan only the other rows
        live = np.flatnonzero(exact.any(axis=1))
        s = np.repeat(addends[:, place, None], n, axis=1)
        s[live] = np.take(np.cumsum(addends[live, ::-1], axis=1),
                          n - 1 - first[live] + at[:live.size])
        if place == 0:  # p uncertain to itself: promoted to the negatives
            s += outside
        # d = N + lam (H - N): when H == N (no uncertain mass) d is N exactly
        d = s if d is None else d + lam * (s - d)
        outsides.append(outside)
    parts = [np.log(d) - z]
    if want_grad:
        inv = 1.0 / d
        inv[is_self] = 0.0  # p = a: no pair
        held = np.take(np.cumsum(inv, axis=1), last + at)
        # k's weight in its own pair's denominator is the quotient e / d,
        # 1 exactly for a lone positive, so its -1 cancels exactly: the
        # prefix sums give the other pairs holding k. A member at the first
        # place holds its own N only when promoted.
        own = e / d
        others = held - inv
        for (_, place, _), outside in zip(kinds, outsides):
            parts.append((e - outside) * others + own + outside * (
                held[:, :1] if place == 0 else held[:, -1:] - inv))
    return parts


def _log_rows(x, lam, kinds, first, last, is_self, want_grad):
    """`_linear_rows` summed in log space, for batches with a row too wide
    for it."""
    n = len(x)
    at = n * np.arange(n)[:, None]
    sums = []
    for exact, place, _ in kinds:
        addends = np.where(exact, x, -np.inf)
        addends[:, place] = np.logaddexp(addends[:, place], np.logaddexp.reduce(
            np.where(exact, -np.inf, x), axis=1))
        suffix = np.logaddexp.accumulate(addends[:, ::-1], axis=1)
        sums.append(np.take(suffix, n - 1 - first + at))
    log_d = sums[0]
    if lam < 1:
        log_d = np.where(kinds[0][0], log_d, np.logaddexp(log_d, x))
    if len(sums) == 2:
        log_h = sums[1]
        log_d = np.where(log_h > log_d, log_h + np.log(
            lam + (1.0 - lam) * np.exp(log_d - log_h)), log_d)
    parts = [log_d - x]
    if want_grad:
        neg_log_d = -log_d
        neg_log_d[is_self] = -np.inf  # p = a: no pair
        prefix = np.logaddexp.accumulate(neg_log_d, axis=1)
        for exact, place, _ in kinds:
            held = last[:, place, None]
            parts.append(np.exp(x + np.take(prefix, held + exact * (last - held) + at)))
        if lam < 1:  # a promoted positive also holds its own N
            parts[1] += ~kinds[0][0] * np.exp(x - log_d)
    return parts
