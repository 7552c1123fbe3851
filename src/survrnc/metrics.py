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
  The squared embedding distances are written into one condensed array,
  in row blocks of about 0.5 MB, by one GEMM per block with close pairs
  recomputed from their difference (`core.sq_distance_rows`). Squaring
  is monotone, so the ranks are those of the distances; duplicated
  embeddings are exactly 0 apart, and embeddings on a common binary grid
  keep their exact ties. A statistic is ranked exactly from one in-place
  sort of packed uint64 keys (see `_ordered_ranks`), which yields its
  int32 sorting order and its groups of ties. The distances are ranked
  first. Their array then takes the time differences in distance order,
  computed a block at a time from the m times at the pairs' condensed
  positions (`_time_differences`, equal to a cityblock `pdist` bit for
  bit), and those are ranked in turn: the pair at time-sorted place j is
  the order[j]-th in distance order, so no rank array is ever put back
  into pair order. Without distance ties the k-th distance's rank is
  2k + 1 - P and the time ranks sum to 0, so the numerator sum(a b) is
  2 sum_j order[j] b_j; with distance ties each pair's distance rank is
  read at order[j] instead. The sums of squared ranks follow from the
  tie group sizes. Every sum is an exact Python int, so rho is rounded
  only by its two square roots and one division.

  Every pass over the P pairs but one (the partition before each sort)
  runs on two cores: `_in_halves` splits the pairs at a block edge near
  P / 2 and works on the first half on the calling thread while one
  worker thread works on the second. The halves write disjoint parts
  of the shared arrays, and numpy releases the interpreter lock inside
  each block's operations. A sort becomes a partition at that edge and
  the two halves sorted at the same time. Runs, ties and ranks that
  straddle the edge come out as in one pass, so rho is the same, bit for
  bit, whatever the scheduling or the number of CPUs. O(P log P) time;
  no stage holds more than 12 bytes per pair (the 8-byte keys and a
  4-byte order), and with both threads' 0.5 MB blocks the peak RSS grows
  by about 15.5 bytes per pair, with or without time ties (m = 2,000,
  settled allocator, see `trainer._settle_allocator`). Above
  `ORDINALITY_MAX_PAIRS` pairs (about 5,800 uncensored patients, ~0.25 GB)
  it ranks the pairs of a fixed-seed subset of the uncensored patients
  instead (see `ordinality_subset`), so memory stays bounded and the
  value repeats exactly; `EvalReport` records the pairs used and whether
  the value is exact.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

import numpy as np

from .core import InputError, sq_distance_rows

DEFAULT_HORIZON_FRACTIONS = (0.25, 0.5, 0.75)
# largest number of uncensored pairs `embedding_ordinality` ranks; below
# 2**31, so pair indices and ranks fit in int32 and the dropped low bits
# of a packed key in uint32
ORDINALITY_MAX_PAIRS = 2**24
# entries per block of a pass over a pair statistic: 0.5 MB temporaries
# that the next block reuses, whatever the number of patients
_BLOCK_ENTRIES = 2**16
_T = TypeVar("_T")


class NoComparablePairsError(ValueError, InputError):
    pass


class UndefinedAtHorizonError(ValueError, InputError):
    pass


class TooFewUncensoredError(ValueError, InputError):
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
        raise NoComparablePairsError("concordance index: no comparable pairs in the input")
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
            f"AUC at horizon {horizon}: {cases.size} cases, {controls.size} controls")
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


def _half(n: int) -> int:
    """Where `_in_halves` splits n entries: the least multiple of
    `_BLOCK_ENTRIES` at or above n / 2, or n if that is smaller (n of one
    block or less)."""
    return min(n, -(-n // (2 * _BLOCK_ENTRIES)) * _BLOCK_ENTRIES)


def _in_halves(n: int, work: Callable[[int, int], _T]) -> tuple[_T, _T]:
    """(work(0, h), work(h, n)) for h = `_half(n)`: the first half on the
    calling thread and, at the same time, the second on one worker
    thread, which has ended when this returns. An exception raised in
    either half is raised here. When n is one block or less, both
    (the second empty) run here."""
    h = _half(n)
    if h == n:
        return work(0, n), work(n, n)
    second = {}

    def run_second():
        try:
            second["value"] = work(h, n)
        except BaseException as exc:  # re-raised on the calling thread
            second["error"] = exc

    worker = threading.Thread(target=run_second)
    worker.start()
    try:
        first = work(0, h)
    finally:
        worker.join()
    if "error" in second:
        raise second["error"]
    return first, second["value"]


def _blocks(lo: int, hi: int) -> Iterator[slice]:
    """The slices, `_BLOCK_ENTRIES` long but the last, that tile [lo, hi)."""
    return (slice(i, min(i + _BLOCK_ENTRIES, hi)) for i in range(lo, hi, _BLOCK_ENTRIES))


def _joined(parts) -> tuple[np.ndarray, ...]:
    """The k-th arrays of the tuples `parts`, for each k, joined end to end."""
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The ranges [starts[g], ends[g]) one after another, as int32."""
    size = ends - starts
    out = np.arange(size.sum(), dtype=np.int32)
    out += np.repeat((starts - np.cumsum(size) + size).astype(np.int32), size)
    return out


def _runs(key: np.ndarray, w: int, lo: int = 0, hi: int | None = None
          ) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends), int32, of the runs of the ascending `key`: the
    maximal groups [s, e) of two or more entries that agree above their
    low w bits. Entries k and k + 1 are linked when they agree; this
    looks at the links lo <= k < hi, in blocks, and returns the runs that
    start there and the ends of those that end there, so the runs of two
    adjacent ranges are their results joined end to end."""
    last = key.size - 1  # the last link joins entries last - 1 and last
    hi = last if hi is None else min(hi, last)

    def linked(k: int) -> bool:
        return 0 <= k < last and int(key[k] ^ key[k + 1]) >> w == 0

    starts, ends = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for b in _blocks(lo, hi):
        k = np.flatnonzero((key[b] ^ key[b.start + 1:b.stop + 1]) < np.uint64(1 << w))
        if k.size:
            # cut[j]: links k[j - 1] and k[j] are not adjacent, so a run ends
            # and one starts between them (or at the block's edge)
            cut = np.empty(k.size + 1, dtype=bool)
            np.not_equal(k[1:], k[:-1] + 1, out=cut[1:-1])
            cut[0] = k[0] > 0 or not linked(b.start - 1)
            cut[-1] = k[-1] < b.stop - b.start - 1 or not linked(b.stop)
            starts.append(k[cut[:-1]] + b.start)
            ends.append(k[cut[1:]] + (b.start + 2))
    return (np.concatenate(starts).astype(np.int32),
            np.concatenate(ends).astype(np.int32))


def _chunks(starts: np.ndarray, ends: np.ndarray, entries: int) -> Iterator[slice]:
    """Consecutive slices of the groups [starts[g], ends[g]) that hold at
    most `entries` entries each, or one larger group alone."""
    bound = np.cumsum(ends - starts, dtype=np.int32)
    g = 0
    while g < bound.size:
        done = int(bound[g - 1]) if g else 0
        h = max(g + 1, int(np.searchsorted(bound, done + entries, side="right")))
        yield slice(g, h)
        g = h


def _ties_of_runs(key: np.ndarray, low: np.ndarray, w: int, starts: np.ndarray,
                  ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re-sorts each run [starts[g], ends[g]) of the packed `key` by
    (set-aside bits in `low`, index) and returns the (starts, ends) of its
    groups of two or more equal values, the ties."""
    mask = np.uint64((1 << w) - 1)
    ties = [(np.empty(0, np.int32), np.empty(0, np.int32))]
    # a block holds fewer than 2^(64 - 2w) runs, so that a run's number
    # fits above its entries' set-aside bits and index
    for c in _chunks(starts, ends, min(_BLOCK_ENTRIES, 2**(64 - 2 * w))):
        if c.stop - c.start == 1:  # one run [s, e): re-sorted in place
            s, e = int(starts[c.start]), int(ends[c.start])
            run = key[s:e]
            for b in _blocks(0, run.size):
                block = run[b]
                index = block & mask
                block[...] = low[index.view(np.int64)]
                block <<= np.uint64(w)
                block |= index
            run.sort()
            run_starts, run_ends = _runs(run, w)
            ties.append((run_starts + s, run_ends + s))
        else:  # several runs, one copy of their entries
            pos = _ranges(starts[c], ends[c])
            index = key[pos] & mask
            block = np.repeat(np.arange(c.stop - c.start, dtype=np.uint64),
                              ends[c] - starts[c])
            block <<= np.uint64(w)
            block |= low[index.view(np.int64)]
            block <<= np.uint64(w)
            block |= index
            block.sort()
            key[pos] = block
            run_starts, run_ends = _runs(block, w)
            ties.append((pos[run_starts], pos[run_ends - 1] + 1))
    return _joined(ties)


def _ordered_ranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, starts, ends): the int32 `order` sorts `x`, and the sorted
    positions [starts[g], ends[g]) (int32) hold the g-th group of two or
    more equal values. Consumes `x`, which must be float64, non-negative
    or -0.0, and not NaN. `_ranks` turns the groups into ranks.

    Such doubles order like their bit patterns. Each value's low
    w = bit_length(n - 1) bits are set aside (in `low`, uint32) and
    replaced by its index, so all keys differ and sorting the uint64 keys
    in place yields the order up to runs of equal kept high bits. The
    sort is a partition at `_half(n)` and the two halves sorted at the
    same time, which is one full sort. When any bit was set aside, each
    run is sorted once more by (set-aside bits, index), which go into the
    keys' own buffer: in place for a run alone, or a block of small runs
    at a time with the run's number above them; the entries of a run with
    equal set-aside bits are the ties. Otherwise (integers, such as
    day-rounded times) the runs are the ties. The order, the keys' low w
    bits, is then written over `low`. Every pass but the partition runs
    in two halves (`_in_halves`). Besides `x` this holds 4 bytes per
    value, the int32 bounds of the runs and ties, and blocks of 0.5 MB.
    """
    n = x.size
    if not 0 < n < 2**31:
        raise ValueError(f"cannot rank {n} values in int32")
    key = x.view(np.uint64)
    w = (n - 1).bit_length()
    mask = np.uint64((1 << w) - 1)
    high = np.uint64(2**63 - 1) ^ mask  # and not the sign bit: -0.0 becomes 0.0
    low = np.empty(n, dtype=np.uint32)  # keeps the low 32 >= w bits

    def pack(lo: int, hi: int) -> bool:  # whether any bit set aside is 1
        any_low = False
        for b in _blocks(lo, hi):
            block = key[b]
            np.bitwise_and(block, mask, out=low[b], casting="unsafe")
            any_low = any_low or bool(low[b].any())
            block &= high
            block |= np.arange(b.start, b.stop, dtype=np.uint64)
        return any_low

    any_low = any(_in_halves(n, pack))
    if _half(n) < n:  # so that the halves sorted apart are sorted together
        key.partition(_half(n))
    _in_halves(n, lambda lo, hi: key[lo:hi].sort())
    starts, ends = _joined(_in_halves(n, lambda lo, hi: _runs(key, w, lo, hi)))
    if any_low:
        def resort(lo: int, hi: int):  # the runs that start in [lo, hi)
            g = slice(*np.searchsorted(starts, (lo, hi)))
            return _ties_of_runs(key, low, w, starts[g], ends[g])
        starts, ends = _joined(_in_halves(n, resort))
    _in_halves(n, lambda lo, hi: np.bitwise_and(key[lo:hi], mask, out=low[lo:hi],
                                                casting="unsafe"))
    return low.view(np.int32), starts, ends


def _ranks(n: int, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Twice the centred average ranks, int32 in [-(n-1), n-1], of n sorted
    values whose ties are the groups [starts[g], ends[g]) of
    `_ordered_ranks`, n <= `ORDINALITY_MAX_PAIRS`."""
    # ties at sorted positions [s, e) have mean rank (s + 1 + e)/2 and the
    # overall mean rank is (n + 1)/2; an untied entry at k has s = k, e = k + 1
    ranks = np.empty(n, dtype=np.int32)

    def fill(lo: int, hi: int):
        for b in _blocks(lo, hi):
            ranks[b] = np.arange(2 * b.start + 1 - n, 2 * b.stop + 1 - n, 2, dtype=np.int32)
        # the groups that meet [lo, hi), cut to it
        g = slice(np.searchsorted(ends, lo, side="right"), np.searchsorted(starts, hi))
        value = starts[g] + ends[g] - n
        s, e = np.maximum(starts[g], lo), np.minimum(ends[g], hi)
        for c in _chunks(s, e, _BLOCK_ENTRIES):
            if c.stop - c.start == 1:
                ranks[s[c.start]:e[c.start]] = value[c.start]
            else:
                ranks[_ranges(s[c], e[c])] = np.repeat(value[c], e[c] - s[c])

    _in_halves(n, fill)
    return ranks


def _sum_sq_ranks(n: int, starts: np.ndarray, ends: np.ndarray) -> int:
    """(_ranks(n, starts, ends) ** 2).sum() as an exact Python int, for n
    <= `ORDINALITY_MAX_PAIRS`: n(n^2 - 1)/3 without ties, and a group of L
    tied values takes L(L^2 - 1)/3 off it."""
    size = (ends - starts).astype(np.int64)
    small = size[size <= 2**16]  # the sum of their L^3 stays below 2^56
    ties = int((small**3 - small).sum())
    ties += sum(k**3 - k for k in size[size > 2**16].tolist())
    return (n**3 - n - ties) // 3


def _exact_dot(a: np.ndarray, b: np.ndarray, n: int) -> int:
    """a @ b of two int32 arrays with entries in [-(n-1), n-1], n <=
    `ORDINALITY_MAX_PAIRS`, as an exact Python int: two partial sums
    (`_in_halves`) over int64 blocks small enough not to overflow and at
    most `_BLOCK_ENTRIES` long, so no P-sized copy of either array is made."""
    block = max(1, min(_BLOCK_ENTRIES, 2**62 // max(1, n - 1) ** 2))

    def partial(lo: int, hi: int) -> int:
        total = 0
        for i in range(lo, hi, block):
            e = min(i + block, hi)
            total += int(np.dot(a[i:e].astype(np.int64), b[i:e]))
        return total

    return sum(_in_halves(a.size, partial))


def _time_differences(t: np.ndarray, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|t[i] - t[j]| of the pairs i < j of the t.size patients at the
    condensed positions p (row-major, as `_sq_distances` lays them out)."""
    # row i starts at s(i) = i(c - i)/2, c = 2m - 1, and i is the floor of
    # the smaller root of s(i) = p: exact in float64, since the root is an
    # integer (a square under the root) or at least 1/m from one
    # (p is cast once: numpy casts a mixed int32/intp operation per block
    # of elements, several times slower)
    c = 2 * t.size - 1
    i = ((c - np.sqrt(c * c - 8.0 * p.astype(np.float64))) * 0.5).astype(np.intp)
    j = p.astype(np.intp) + i + 1 - (i * (c - i) >> 1)
    return np.abs(t[i] - t[j], out=out)


def _sq_distances(v: np.ndarray, rows: int) -> np.ndarray:
    """The m(m-1)/2 squared distances of the pairs i < j of the m rows of
    `v`, in row-major order (the order of a condensed distance matrix),
    copied from the `core.sq_distance_rows` blocks of `rows` rows. A
    block is computed on the thread of the half (`_in_halves`) that holds
    its first pair."""
    m = v.shape[0]
    out = np.empty(m * (m - 1) // 2)
    block = sq_distance_rows(v)

    def fill(lo: int, hi: int):
        for start in range(0, m, rows):
            pos = start * (2 * m - 1 - start) // 2  # of the pair (start, start + 1)
            if lo <= pos < hi:
                rect = block(start, start + rows)
                size = rect.size - rect.shape[0] * (rect.shape[0] + 1) // 2
                np.concatenate([row[r + 1:] for r, row in enumerate(rect)],
                               out=out[pos:pos + size])

    _in_halves(out.size, fill)
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
        raise TooFewUncensoredError(
            f"ordinality needs >= 3 uncensored patients, got {m}")
    idx = ordinality_subset(events)
    if not (np.isfinite(embeddings[idx]).all() and np.isfinite(times[idx]).all()):
        return math.nan
    m = idx.size
    n = m * (m - 1) // 2
    # squared distances: their ranks, and so rho, are those of the distances
    x = _sq_distances(embeddings[idx], max(1, _BLOCK_ENTRIES // m))
    order, a_starts, a_ends = _ordered_ranks(x)
    # x, consumed by the ranking, takes the time differences in distance order
    t = times[idx]

    def differences(lo: int, hi: int):
        for b in _blocks(lo, hi):
            _time_differences(t, order[b], out=x[b])

    _in_halves(n, differences)
    del order
    order, b_starts, b_ends = _ordered_ranks(x)
    del x
    b = _ranks(n, b_starts, b_ends)
    # The pair at time-sorted place j is the order[j]-th in distance order.
    # With a_k and b_k the ranks of the k-th pair in distance order, sum(b)
    # is 0, so while every a_k is 2k + 1 - n, sum(a b) = 2 sum(k b_k).
    if a_starts.size:  # distance ties: read each pair's a_k instead
        a = _ranks(n, a_starts, a_ends)

        def read(lo: int, hi: int):
            for blk in _blocks(lo, hi):
                np.take(a, order[blk].astype(np.intp), out=order[blk])

        _in_halves(n, read)
        del a
        sab = _exact_dot(order, b, n)
    else:
        sab = 2 * _exact_dot(order, b, n)
    del order, b
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
