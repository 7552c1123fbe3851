"""Censoring-aware evaluation: concordance, horizon AUC, ordinality.

Concordance follows Harrell's comparable-pair rule: censored patients can
only serve as the later member of a pair. Tied times are not comparable
unless exactly one member is an event and the other is censored at the
same time, in which case the event member counts as earlier. Tied risks
score 0.5. The horizon AUC uses the plain case/control rule (no IPCW
weighting) so a pair-enumeration oracle can check it exactly.

All three metrics are exact, sort-based and loop-free:

- `concordance_index` sorts patients by time, events before censored
  patients at equal times. An event's comparable partners are then the
  suffix after its own (time, event) group, and its concordant count is
  an offline dominance count (partners in that suffix with a lower or
  equal risk rank), done in ceil(log2 n) vectorised levels of one sort
  and two binary searches each: O(n log^2 n) time, O(n) memory. Counts
  are summed as integers, so the value equals pair counting bit for bit.
- `cumulative_dynamic_auc` sorts the controls and binary-searches each
  case: O(n log n).
- `embedding_ordinality` is Spearman's rho, computed as Pearson's
  correlation of the twice-centred average ranks of the P = m(m-1)/2
  embedding distances and |time differences| of m uncensored patients.
  Each statistic is written in place into one condensed array, in row
  blocks of about 0.5 MB: the embedding distances squared, by one GEMM
  per block with close pairs recomputed from their difference
  (`core.sq_distance_blocks`), and the time differences by subtraction
  (equal to a cityblock `pdist` bit for bit). Squaring is monotone, so
  the ranks are those of the distances; duplicated embeddings are exactly
  0 apart, and embeddings on a common binary grid keep their exact ties.
  A statistic is ranked exactly from one in-place sort of packed uint64
  keys (see `_ordered_ranks`), which yields its int32 sorting order and
  its groups of ties. The distances are ranked first. Their array then
  takes the time differences gathered in distance order, and those are
  ranked in turn: the pair at time-sorted place j is the order[j]-th in
  distance order, so no rank array is ever put back into pair order.
  Without distance ties the k-th distance's rank is 2k + 1 - P and the
  time ranks sum to 0, so the numerator sum(a b) is 2 sum_j order[j]
  b_j; with distance ties each pair's distance rank is read at order[j]
  instead. The sums of squared ranks follow from the tie group sizes.
  Every sum is an exact Python int, so rho is rounded only by its two
  square roots and one division. O(P log P) time; the peak RSS grows by
  about 21 bytes per pair, 25 with heavy time ties. Above
  `ORDINALITY_MAX_PAIRS` pairs (about 5,800 uncensored patients, ~0.4 GB)
  it ranks the pairs of a fixed-seed subset of the uncensored patients
  instead (see `ordinality_subset`), so memory stays bounded and the
  value repeats exactly; `EvalReport` records the pairs used and whether
  the value is exact.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .core import _libc_function, sq_distance_blocks

DEFAULT_HORIZON_FRACTIONS = (0.25, 0.5, 0.75)
# largest number of uncensored pairs `embedding_ordinality` ranks; below
# 2**31, so pair indices and ranks fit in int32 and the dropped low bits
# of a packed key in uint32
ORDINALITY_MAX_PAIRS = 2**24
# entries per row block of a condensed pair statistic: 0.5 MB temporaries
# that the next block reuses, whatever the number of patients
_BLOCK_ENTRIES = 2**16


class NoComparablePairsError(ValueError):
    pass


class UndefinedAtHorizonError(ValueError):
    pass


class TooFewUncensoredError(ValueError):
    pass


@dataclass(frozen=True)
class EvalReport:
    ci: float
    auc_at: dict[float, float]
    ordinality: float
    ordinality_pairs: int
    ordinality_exact: bool

    def to_dict(self) -> dict:
        def clean(x):
            return float(x) if math.isfinite(x) else None

        out = {"ci": clean(self.ci)}
        for frac in sorted(self.auc_at):
            out[f"auc_{int(round(frac * 100))}"] = clean(self.auc_at[frac])
        out["ordinality"] = clean(self.ordinality)
        out["ordinality_pairs"] = int(self.ordinality_pairs)
        out["ordinality_exact"] = bool(self.ordinality_exact)
        return out


def _finite_risks(risks) -> np.ndarray:
    risks = np.asarray(risks, dtype=float)
    if not np.isfinite(risks).all():
        bad = int(np.flatnonzero(~np.isfinite(risks))[0])
        raise ValueError(f"risk of patient {bad} is {risks[bad]}")
    return risks


def concordance_index(risks: np.ndarray, events: np.ndarray,
                      times: np.ndarray) -> float:
    """Harrell's concordance index; exact, no approximation.

    A pair (i, j) is comparable iff T_i < T_j and e_i = 1, or T_i = T_j
    with e_i = 1 and e_j = 0. Concordant means risk_i > risk_j; risk ties
    count 0.5.
    """
    risks = _finite_risks(risks)
    events = np.asarray(events, dtype=int)
    times = np.asarray(times, dtype=float)
    censored = events == 0
    order = np.lexsort((censored, times))
    t, c = times[order], censored[order]
    n = t.size
    # position of the last member of each patient's (time, censored) group
    ends = np.flatnonzero(np.r_[(t[1:] != t[:-1]) | (c[1:] != c[:-1]), True])
    last = ends[np.searchsorted(ends, np.arange(n))]
    rank = np.unique(risks[order], return_inverse=True)[1]
    query = np.flatnonzero(events[order] == 1)
    q_last, q_rank = last[query], rank[query]
    comparable = int((n - 1 - q_last).sum())
    if comparable == 0:
        raise NoComparablePairsError("no comparable pairs in the input")
    # Count the points p > q_last with rank below / equal to q_rank. For
    # each such pair, the highest bit where p and q_last differ is set in
    # p and clear in q_last, and the bits above it agree: at that level the
    # pair shares a bucket (the bits above), and within a bucket the
    # points are sorted by rank.
    pos = np.arange(n)
    below = equal = 0
    for b in range((n - 1).bit_length()):
        pts = (pos >> b) & 1 == 1
        keys = np.sort((pos[pts] >> (b + 1)) * n + rank[pts])
        qry = (q_last >> b) & 1 == 0
        base = (q_last[qry] >> (b + 1)) * n
        start, lo = np.searchsorted(keys, np.stack([base, base + q_rank[qry]]))
        hi = np.searchsorted(keys, base + q_rank[qry], side="right")
        below += int((lo - start).sum())
        equal += int((hi - lo).sum())
    return (below + 0.5 * equal) / comparable


def cumulative_dynamic_auc(risks: np.ndarray, events: np.ndarray,
                           times: np.ndarray, horizon: float) -> float:
    """Discrimination between events by `horizon` and survivors past it."""
    risks = _finite_risks(risks)
    events = np.asarray(events, dtype=int)
    times = np.asarray(times, dtype=float)
    cases = risks[(times <= horizon) & (events == 1)]
    controls = np.sort(risks[times > horizon])
    if cases.size == 0 or controls.size == 0:
        raise UndefinedAtHorizonError(
            f"horizon {horizon}: {cases.size} cases, {controls.size} controls")
    lo = np.searchsorted(controls, cases)
    hi = np.searchsorted(controls, cases, side="right")
    wins = lo.sum()
    ties = (hi - lo).sum()
    return (wins + 0.5 * ties) / (cases.size * controls.size)


def ordinality_subset(events: np.ndarray) -> np.ndarray:
    """Indices of the patients whose pairs `embedding_ordinality` ranks.

    Every uncensored patient while their pairs number at most
    `ORDINALITY_MAX_PAIRS`; above that, the first k of a fixed-seed
    permutation of them, k the largest with k(k-1)/2 <= the cap.
    """
    uncensored = np.flatnonzero(np.asarray(events) == 1)
    cap = ORDINALITY_MAX_PAIRS
    if uncensored.size * (uncensored.size - 1) // 2 <= cap:
        return uncensored
    k = (1 + math.isqrt(1 + 8 * cap)) // 2
    return np.random.default_rng(0).permutation(uncensored)[:k]


def _ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The ranges [starts[g], ends[g]) one after another, as int32."""
    size = ends - starts
    out = np.arange(size.sum(), dtype=np.int32)
    out += np.repeat((starts - np.cumsum(size) + size).astype(np.int32), size)
    return out


def _groups(linked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the maximal groups [s, e) of two or more entries
    in which linked[i] joins entries i and i + 1."""
    step = np.diff(linked.view(np.int8), prepend=np.int8(0), append=np.int8(0))
    return np.flatnonzero(step == 1), np.flatnonzero(step == -1) + 1


def _gather(a: np.ndarray, index: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a[index], taken in blocks: numpy copies an int32 index to intp
    before it gathers, and a block's copy stays small. `out` may share
    `index`'s memory."""
    if out is None:
        out = np.empty(index.size, dtype=a.dtype)
    for i in range(0, index.size, _BLOCK_ENTRIES):
        np.take(a, index[i:i + _BLOCK_ENTRIES], out=out[i:i + _BLOCK_ENTRIES])
    return out


def _ordered_ranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, starts, ends): the int32 `order` sorts `x`, and the sorted
    positions [starts[g], ends[g]) hold the g-th group of two or more equal
    values. Consumes `x`, which must be float64, non-negative or -0.0, and
    not NaN. `_ranks` turns the groups into ranks.

    Such doubles order like their bit patterns. Each value's low
    w = bit_length(n - 1) bits are set aside and replaced by its index,
    so one in-place sort of the uint64 keys yields the order. Afterwards
    only the runs of equal kept high bits are looked at: a run whose
    set-aside bits are out of order is sorted among itself by them, and
    its entries with equal set-aside bits are the ties.
    """
    n = x.size
    if not 0 < n < 2**31:
        raise ValueError(f"cannot rank {n} values in int32")
    key = x.view(np.uint64)
    w = (n - 1).bit_length()
    mask = (1 << w) - 1
    low = key.astype(np.uint32)  # keeps the low 32 >= w bits
    low &= mask
    key &= np.uint64(2**63 - 1 - mask)  # and the sign bit: -0.0 becomes 0.0
    order = np.arange(n, dtype=np.uint32)
    key |= order
    key.sort()
    np.copyto(order, key, casting="unsafe")  # the low 32 bits
    order &= mask
    order = order.view(np.int32)
    key >>= w  # the sorted high bits
    run_start, run_end = _groups(key[1:] == key[:-1])
    # the runs' entries one after another: sorted positions and set-aside bits
    pos = _ranges(run_start, run_end)
    if low.any():
        bits = _gather(order, pos)
        bits = _gather(low, bits, out=bits.view(np.uint32))  # low[order[pos]]
    else:  # integers, such as day-rounded times: nothing was set aside
        bits = np.zeros(pos.size, dtype=np.uint32)
    del low
    size = run_end - run_start
    bound = np.cumsum(size)  # where each run ends among `pos`
    same_run = np.ones(max(0, pos.size - 1), dtype=bool)
    same_run[bound[:-1] - 1] = False
    # re-sort each run whose set-aside bits are out of order
    bad = np.searchsorted(bound, np.flatnonzero(same_run & (bits[1:] < bits[:-1])),
                          side="right")
    bad = bad[np.diff(bad, prepend=-1) != 0]  # sorted: each run once
    fix = _ranges(bound[bad] - size[bad], bound[bad])
    at = pos[fix]
    resort = np.lexsort((bits[fix], key[at]))
    order[at] = order[at][resort]
    bits[fix] = bits[fix][resort]
    starts, ends = _groups(same_run & (bits[1:] == bits[:-1]))
    return order, pos[starts].astype(np.int64), pos[ends - 1].astype(np.int64) + 1


def _trim_heap() -> None:
    """Hand the free pages of the malloc heap back to the kernel (glibc's
    `malloc_trim(0)`). Does nothing where the C library has none."""
    trim = _libc_function("malloc_trim", ctypes.c_size_t)
    if trim is not None:
        trim(0)


def _ranks(n: int, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Twice the centred average ranks, int32 in [-(n-1), n-1], of n sorted
    values whose ties are the groups [starts[g], ends[g]) of
    `_ordered_ranks`."""
    # ties at sorted positions [s, e) have mean rank (s + 1 + e)/2 and the
    # overall mean rank is (n + 1)/2; an untied entry at k has s = k, e = k + 1
    ranks = np.arange(1 - n, n, 2, dtype=np.int32)
    step = np.zeros(n + 1, dtype=np.int8)
    step[starts] = 1
    step[ends] -= 1
    tied = np.cumsum(step[:-1], dtype=np.int8).view(bool)
    ranks[tied] = np.repeat((starts + ends - n).astype(np.int32), ends - starts)
    return ranks


def _sum_sq_ranks(n: int, starts: np.ndarray, ends: np.ndarray) -> int:
    """(_ranks(n, starts, ends) ** 2).sum() as an exact Python int, for n
    <= `ORDINALITY_MAX_PAIRS`: n(n^2 - 1)/3 without ties, and a group of L
    tied values takes L(L^2 - 1)/3 off it."""
    size = ends - starts
    small = size[size <= 2**16]  # the sum of their L^3 stays below 2^56
    ties = int((small**3 - small).sum())
    ties += sum(k**3 - k for k in size[size > 2**16].tolist())
    return (n**3 - n - ties) // 3


def _exact_dot(a: np.ndarray, b: np.ndarray, n: int) -> int:
    """a @ b of two int32 arrays with entries in [-(n-1), n-1], n <=
    `ORDINALITY_MAX_PAIRS`, as an exact Python int. Summed over int64
    blocks small enough not to overflow, so no float64 copy of either
    array is made."""
    block = max(1, 2**62 // max(1, n - 1) ** 2)
    return sum(int(np.dot(a[i:i + block].astype(np.int64), b[i:i + block]))
               for i in range(0, a.size, block))


def _time_difference_blocks(t: np.ndarray, rows: int) -> Iterator[np.ndarray]:
    """|t[i] - t[j]| in the row blocks of `core.sq_distance_blocks`."""
    for start in range(0, t.size, rows):
        yield np.abs(t[start:start + rows, None] - t[start:])


def _condensed(m: int, blocks: Iterable[np.ndarray]) -> np.ndarray:
    """The m(m-1)/2 statistics of the pairs i < j in row-major order (the
    order of a condensed distance matrix), copied from row blocks: block
    [r, k] of the block that starts at row `start` is the statistic of
    the pair (start + r, start + k)."""
    out = np.empty(m * (m - 1) // 2)
    pos = 0
    for block in blocks:
        for r, row in enumerate(block):
            out[pos:pos + row.size - r - 1] = row[r + 1:]
            pos += row.size - r - 1
    return out


def embedding_ordinality(embeddings: np.ndarray, events: np.ndarray,
                         times: np.ndarray) -> float:
    """Spearman correlation of embedding distances vs |time differences|.

    Computed over all pairs of uncensored patients (of the subset chosen
    by `ordinality_subset` above `ORDINALITY_MAX_PAIRS`); 1.0 means the
    latent space orders patients exactly by time-to-event. Returns NaN
    when one of the pair statistics is constant or not finite.
    """
    embeddings = np.asarray(embeddings, dtype=float)
    events = np.asarray(events, dtype=int)
    times = np.asarray(times, dtype=float)
    m = int((events == 1).sum())
    if m < 3:
        raise TooFewUncensoredError(f"need >= 3 uncensored patients, got {m}")
    idx = ordinality_subset(events)
    if not (np.isfinite(embeddings[idx]).all() and np.isfinite(times[idx]).all()):
        return math.nan
    m = idx.size
    n = m * (m - 1) // 2
    rows = max(1, _BLOCK_ENTRIES // m)
    # squared distances: their ranks, and so rho, are those of the distances
    x = _condensed(m, sq_distance_blocks(embeddings[idx], rows))
    order, a_starts, a_ends = _ordered_ranks(x)
    # glibc keeps up to 64 MiB of freed heap (`trainer._settle_allocator`):
    # hand the ranking's temporaries back before two more P-sized arrays
    _trim_heap()
    # x, consumed by the ranking, takes the time differences in distance order
    _gather(_condensed(m, _time_difference_blocks(times[idx], rows)), order, out=x)
    del order
    order, b_starts, b_ends = _ordered_ranks(x)
    del x
    b = _ranks(n, b_starts, b_ends)
    # The pair at time-sorted place j is the order[j]-th in distance order.
    # With a_k and b_k the ranks of the k-th pair in distance order, sum(b)
    # is 0, so while every a_k is 2k + 1 - n, sum(a b) = 2 sum(k b_k).
    if a_starts.size:  # distance ties: read each pair's a_k instead
        sab = _exact_dot(_gather(_ranks(n, a_starts, a_ends), order), b, n)
    else:
        sab = 2 * _exact_dot(order, b, n)
    scale = (math.sqrt(_sum_sq_ranks(n, a_starts, a_ends))
             * math.sqrt(_sum_sq_ranks(n, b_starts, b_ends)))
    if scale == 0.0:
        return math.nan
    return max(-1.0, min(1.0, sab / scale))


def horizon_from_fraction(times: np.ndarray, fraction: float) -> float:
    """`fraction` of the maximum observed time in `times`."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    return fraction * float(times.max())
