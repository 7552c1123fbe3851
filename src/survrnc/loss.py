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
each pair's denominator is one suffix sum of the row, its members
weighted by the labels (`pairsets.exact_bounds`) and lambda, read from the
positive's tie group; each member's gradient share is a prefix sum. A
batch is summed in linear space (one exp, cumulative sums) unless some
row's similarities span too wide a range for that (`LINEAR_SPREAD`); then
every row is summed in log space, so no denominator underflows however
far apart the embeddings lie.

The sort and every weight come from the labels alone. A training batch
holds two views of each patient, in rows 2i and 2i + 1 with equal labels,
so the kernel builds those arrays once per patient and broadcasts them
over the two views; any other batch gets them once per row.
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
# with S + ln(B + 1) < LINEAR_SPREAD. Then each exp(x - m) lies in
# [e^-S, 1]; each d e^-m in [e^-S, B], as its addends are those weighted 1,
# lam, 1 - lam or 0 and p weighs 1 in its own d; each e^m / d in
# [1/B, e^S] and each prefix sum of those in [1/B, B e^S]. Each pair's
# weighted share exp(x[a, k]) w / d of its own d is at most 1, so a
# member's share summed over its pairs lies in [0, B]. ln of the smallest
# normal double is -708.4 and of the largest 709.8, so nothing overflows,
# each operation keeps its relative error u, and every sum is within about
# B u of the exact one, as in log space. Only an addend weighted by a lam
# or 1 - lam below about 1e-4 / B can fall below the normal range, and its
# error, under 2^-1074, is then a fraction far below u of the sum it joins.
# A batch with a wider row, whose members lie more than ~700 tau apart, is
# summed in log space.
LINEAR_SPREAD = 700.0


def _loss_and_grad(batch: EmbeddingBatch, cfg: LossConfig, want_grad: bool):
    """The loss kernel.

    With x = sim / tau, the (a, p) denominator is
        d = sum over k of w[k] exp(x[a, k]),
    where p weighs 1, each negative k (lo[a, k] >= theta[a, p]) 1, each
    uncertain k (only hi[a, k] >= theta[a, p]) lam and the others 0.
    lo[a, k] is theta[a, k] or 0 and hi[a, k] is theta[a, k] or inf
    (`pairsets.exact_bounds` says which from the labels), so k adds 1 - lam
    to every d whose theta[a, p] <= lo and lam to every d whose
    theta[a, p] <= hi, and one ascending sort of row a by theta orders
    them all. Each member gets three weights: at its own place (1 if hi is
    theta, and so lo; 1 - lam if only lo is), at the first place (1 - lam
    if lo = 0: it joins only the d with theta = 0) and at the last place
    (lam if hi = inf: it joins every d). d is one suffix sum of the
    weighted row read at the first place of p's tie group, plus p's own
    1 - lam when its lo is 0 (promoted, p counts in full). The gradient
    share of member k, the sum over pairs of its w exp(x[a, k]) / d, comes
    from one prefix sum of 1/d read at the last place of k's tie group,
    of the first group and of the row.

    Rows with equal labels have equal theta rows, sorts, bounds, weights
    and tie groups. When B is even and each row pair (2i, 2i + 1) has
    equal (event, time), as in a two-view batch, g = 2 rows share one
    label row; otherwise g = 1. The label arrays are (B/g, 1, B) and
    broadcast against the (B/g, g, B) arrays of the views.
    """
    v, events, times = batch.embeddings, batch.events, batch.times
    n = batch.size
    tau, lam = cfg.temperature, cfg.lam
    # bitwise equal labels give bitwise equal label rows
    g = 2 if (n % 2 == 0 and times[::2].tobytes() == times[1::2].tobytes()
              and events[::2].tobytes() == events[1::2].tobytes()) else 1
    m = n // g
    theta = np.abs(times[::g, None] - times)
    order = np.argsort(theta, axis=1)[:, None, :]
    # flat index of each label row's members in ascending theta; every
    # label array from here on lists its rows in that order, shaped
    # (m, 1, B) to broadcast over the g views of its row
    ranked = order + n * np.arange(m)[:, None, None]
    lo, hi = (np.take(exact, ranked) for exact in
              exact_bounds(events, times, slice(None, None, g)))
    # each member's weight at its own place, at the first and at the last
    weights = (np.where(hi, 1.0, (1.0 - lam) * lo), (1.0 - lam) * ~lo, lam * ~hi)
    first, last = _tie_groups(np.take(theta, ranked))
    # the same for each view: (m, g, B) arrays, rows in their label row's order
    views = np.arange(n).reshape(m, g, 1)
    at = n * views  # flat offset of each view's row
    ranked = order + at
    dist = np.take(np.sqrt(sq_distance_rows(v)(0, n)), ranked)
    x = -dist / tau
    # flat index of k = a's place, written through `ravel()`, a view of
    # each (m, g, B) array as every one is made contiguous
    is_self = np.argmax(ranked == at + views, axis=-1) + at[..., 0]
    x.ravel()[is_self] = -np.inf  # k = a never participates

    spread = (x.max(axis=-1) + dist.max(axis=-1) / tau).max() + np.log(n + 1)
    log_d_less_x, share = (_log_rows if spread >= LINEAR_SPREAD else _linear_rows)(
        x, weights, first, last, at, is_self, want_grad)
    # d >= exp(x[a, p]) because p sits in its own denominator with weight 1;
    # rounding in (1 - lam) + lam may undercut that by an ulp
    terms = np.maximum(log_d_less_x, 0.0)
    terms.ravel()[is_self] = 0.0  # p = a: no pair
    num_pairs = n * (n - 1)
    value = float(terms.sum() / num_pairs)
    if not want_grad:
        return value, None

    # coeff[a, k] = d(summed terms) / d x[a, k]: k's share of every
    # denominator holding it, less its own pair's x[a, p] (a lone
    # positive's share is e / d = 1 exactly, so its terms cancel exactly)
    coeff = share - 1.0
    coeff.ravel()[is_self] = 0.0
    coeff /= tau * num_pairs

    # d dist[a, k] / d v[a] = (v[a] - v[k]) / dist[a, k] = -d dist[a, k] / d v[k]
    w = np.empty((n, n))
    w.ravel()[ranked] = np.divide(coeff, dist, out=np.zeros(dist.shape), where=dist > 0)
    s = w + w.T
    return value, s @ v - s.sum(axis=1)[:, None] * v


def _tie_groups(theta):
    """The first and the last place of each place's tie group, in rows
    sorted ascending."""
    n = theta.shape[-1]
    # each place that starts a group, and one past the last place
    edges = np.ones(theta.size + 1, dtype=bool)
    np.not_equal(theta[..., 1:], theta[..., :-1],
                 out=edges[:-1].reshape(theta.shape)[..., 1:])
    edges = np.flatnonzero(edges)
    sizes = edges[1:] - edges[:-1]
    starts = edges[:-1] % n
    return (np.repeat(starts, sizes).reshape(theta.shape),
            np.repeat(starts + sizes - 1, sizes).reshape(theta.shape))


def _linear_rows(x, weights, first, last, at, is_self, want_grad):
    """Rows of log d - x and, with `want_grad`, of each member's share
    exp(x) w / d summed over the denominators holding it, summed in linear
    space. x and the flat row offsets `at` are per view, (m, g, B) and
    (m, g, 1); the weights and tie groups per label row, (m, 1, B)."""
    own, at_first, at_last = weights
    n = x.shape[-1]
    z = x - x.max(axis=-1, keepdims=True)
    z.ravel()[is_self] = 0.0  # finite, so exp keeps to its vector path
    e = np.exp(z)
    e.ravel()[is_self] = 0.0
    promoted = e * at_first
    addends = e * own
    addends[..., 0] += promoted.sum(axis=-1)
    addends[..., -1] += (e * at_last).sum(axis=-1)
    d = np.take(np.cumsum(addends[..., ::-1], axis=-1), n - 1 - first + at) + promoted
    log_d_less_x = np.log(d) - z
    if not want_grad:
        return log_d_less_x, None
    inv = 1.0 / d
    inv.ravel()[is_self] = 0.0  # p = a: no pair
    held = np.take(np.cumsum(inv, axis=-1), last + at)
    # k's share of its own pair's d is the quotient e / d, 1 exactly for a
    # lone positive; the prefix sums less inv give the other pairs holding
    # k. A member at the first place is in its own pair's d only when
    # promoted, which e / d counts.
    return log_d_less_x, e * (own * (held - inv) + at_first * held[..., :1]
                              + at_last * (held[..., -1:] - inv)) + e / d


def _log_rows(x, weights, first, last, at, is_self, want_grad):
    """`_linear_rows` summed in log space, for batches with a row too wide
    for it."""
    n = x.shape[-1]
    # ln of each member's weighted exp(x); ln 0 = -inf drops a member
    with np.errstate(divide="ignore"):
        own, at_first, at_last = (x + np.log(w) for w in weights)
    addends = own.copy()
    addends[..., 0] = np.logaddexp(addends[..., 0], np.logaddexp.reduce(at_first, axis=-1))
    addends[..., -1] = np.logaddexp(addends[..., -1], np.logaddexp.reduce(at_last, axis=-1))
    log_d = np.logaddexp(np.take(np.logaddexp.accumulate(addends[..., ::-1], axis=-1),
                                 n - 1 - first + at), at_first)
    if not want_grad:
        return log_d - x, None
    neg_log_d = -log_d
    neg_log_d.ravel()[is_self] = -np.inf  # p = a: no pair
    prefix = np.logaddexp.accumulate(neg_log_d, axis=-1)
    return log_d - x, (np.exp(own + np.take(prefix, last + at))
                       + np.exp(at_first + np.take(prefix, last[..., :1] + at))
                       + np.exp(at_last + prefix[..., -1:]) + np.exp(at_first - log_d))
