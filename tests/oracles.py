"""Reference implementations the production code is checked against.

`similarity` is the negative Euclidean distance of two vectors by direct
difference, the definition the pair oracles use; `direct_sq_distances`
and `time_differences` are scipy's direct-difference pair statistics,
the references for the GEMM distances and the blocked time differences
of the production code. `build_pair_sets` is the scalar interval
classifier: one `classify` call per batch member, by interval arithmetic
on `TimeInterval`s; `pair_set_masks` must agree with it everywhere.
`broadcast_pair_sets` applies the pair-set rule to the float bound
matrices of `delta_bound_matrices` in one broadcast comparison, the
reference for `anchor_pair_sets`, which reads the rule from the labels.
`dense_loss_and_grad` evaluates the contrastive loss over explicit
(B, B, B) membership tensors in O(B^3) time and memory, and
`pair_likelihood` evaluates one (anchor, positive) pair from its index
sets; `classification_tensor` codes every (anchor, positive, member)
triple of a batch from `pair_set_masks`. `loop_concordance_index` (one
pass per event), `matrix_auc` (the cases x controls comparison matrices)
and `spearman_ordinality` (`scipy.stats.spearmanr` over all uncensored
pairs) are the O(n^2) metrics; `exact_ordinality` forms rho from Python
int rank sums, so `embedding_ordinality` must equal it bit for bit;
`centred_ranks` ranks one pair statistic with an `argsort`, the reference
for the packed-key ranks inside `embedding_ordinality`. `csv_writer_cell`
quotes a field with Python's `csv.writer`, the reference for `csv_cell`.
`loop_violations` checks a dataset one patient at a time, the reference
for the vectorized check a `Dataset` runs when it is built.
None is fast; each is a direct transcription of the definition.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist, pdist
from scipy.stats import ConstantInputWarning, spearmanr

from survrnc.core import LossConfig, Patient, Violation
from survrnc.loss import EmbeddingBatch
from survrnc.metrics import (
    NoComparablePairsError,
    TooFewUncensoredError,
    UndefinedAtHorizonError,
    ordinality_subset,
)
from survrnc.pairsets import delta_bound_matrices, pair_set_masks


class LengthMismatchError(ValueError):
    pass


def similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Negative Euclidean distance; larger means more similar."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise LengthMismatchError(f"shape mismatch: {u.shape} vs {v.shape}")
    return -float(np.linalg.norm(u - v))


def direct_sq_distances(v) -> np.ndarray:
    """Squared Euclidean distances of every pair of rows, each summed from
    the difference of the rows: relative error at most gamma_{d+1}."""
    v = np.asarray(v, dtype=float)
    return cdist(v, v, "sqeuclidean")


def time_differences(t) -> np.ndarray:
    """|t_i - t_j| over the pairs i < j, in condensed (row-major) order."""
    return pdist(np.asarray(t, dtype=float)[:, None], "cityblock")


class PairClass(enum.Enum):
    NEGATIVE = "negative"
    UNCERTAIN = "uncertain"
    DISREGARD = "disregard"


@dataclass(frozen=True)
class TimeInterval:
    """Closed-below range [lo, hi] for an unobservable non-negative quantity."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo < 0:
            raise ValueError(f"lo must be >= 0, got {self.lo}")
        if self.lo > self.hi:
            raise ValueError(f"need lo <= hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class PairSets:
    """Index sets for one (anchor, positive) pair; disjoint, anchor excluded."""

    negatives: frozenset[int]
    uncertains: frozenset[int]


def true_time_interval(p: Patient) -> TimeInterval:
    """Range of the true event time: exact if uncensored, [T, inf) if censored."""
    if p.event == 1:
        return TimeInterval(p.time, p.time)
    return TimeInterval(p.time, math.inf)


def delta_interval(a: Patient, k: Patient) -> TimeInterval:
    """Exact range of |T*_a - T*_k| as both true times range over their intervals.

    This is the interval distance / maximal separation of the two boxes:
    lo = max(0, lo_a - hi_k, lo_k - hi_a), hi = max(hi_a - lo_k, hi_k - lo_a).
    """
    ia, ik = true_time_interval(a), true_time_interval(k)
    lo = max(0.0, ia.lo - ik.hi, ik.lo - ia.hi)
    hi = max(ia.hi - ik.lo, ik.hi - ia.lo)
    return TimeInterval(lo, hi)


def pair_threshold(a: Patient, p: Patient) -> float:
    """Threshold for the (a, p) pair: |T_a - T_p| on observed times.

    Observed times are used even when a or p is censored; a censored
    anchor still yields a finite threshold.
    """
    return abs(a.time - p.time)


def classify_interval(interval: TimeInterval, threshold: float) -> PairClass:
    """Compare an interval of possible |delta T| values against a threshold.

    Whole interval >= threshold: NEGATIVE. Whole interval < threshold:
    DISREGARD. Straddles it: UNCERTAIN. A lower bound exactly equal to the
    threshold counts as NEGATIVE (ties meet the >= rank rule).
    """
    if interval.lo >= threshold:
        return PairClass.NEGATIVE
    if interval.hi < threshold:
        return PairClass.DISREGARD
    return PairClass.UNCERTAIN


def classify(a: Patient, p: Patient, k: Patient) -> PairClass:
    """Class of batch member k relative to the (a, p) pair."""
    return classify_interval(delta_interval(a, k), pair_threshold(a, p))


def build_pair_sets(batch: Sequence[Patient], a: int, p: int) -> PairSets:
    """Classify every k != a (including k = p) for the (a, p) pair.

    If censoring makes p's own class uncertain, p is promoted into the
    negatives so the likelihood denominator always dominates the numerator
    and every loss term stays non-negative.
    """
    if a == p:
        raise ValueError("anchor and positive must differ")
    negatives: set[int] = set()
    uncertains: set[int] = set()
    for k in range(len(batch)):
        if k == a:
            continue
        cls = classify(batch[a], batch[p], batch[k])
        if k == p and cls is PairClass.UNCERTAIN:
            cls = PairClass.NEGATIVE
        if cls is PairClass.NEGATIVE:
            negatives.add(k)
        elif cls is PairClass.UNCERTAIN:
            uncertains.add(k)
    return PairSets(frozenset(negatives), frozenset(uncertains))


def broadcast_pair_sets(events: np.ndarray, times: np.ndarray):
    """(negative, uncertain) masks of shape (B, B, B), indexed [anchor,
    positive, member], compared on the (lo, hi, theta) matrices: k is
    negative for (a, p) when lo[a, k] >= theta[a, p], uncertain when not
    negative and hi[a, k] >= theta[a, p]; k = p promoted, k = a and p = a
    cleared."""
    lo, hi, theta = delta_bound_matrices(events, times)
    neg = lo[:, None, :] >= theta[:, :, None]
    unc = ~neg & (hi[:, None, :] >= theta[:, :, None])
    idx = np.arange(theta.shape[0])
    neg[:, idx, idx] = True   # k = p is never disregarded; promote
    unc[:, idx, idx] = False
    for mask in (neg, unc):
        mask[idx, :, idx] = False  # k = a never participates
        mask[idx, idx, :] = False  # p = a is not a pair
    return neg, unc


# integer codes of `classification_tensor`
DISREGARD_CODE = 0
UNCERTAIN_CODE = 1
NEGATIVE_CODE = 2
EXCLUDED_CODE = -1


def classification_tensor(events: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Int8 codes for all (a, p, k) triples; EXCLUDED_CODE marks k = a
    slots and p = a rows. See `pair_set_masks` for the conventions."""
    neg, unc = pair_set_masks(events, times)
    n = len(np.asarray(times))
    codes = np.full((n, n, n), DISREGARD_CODE, dtype=np.int8)
    codes[unc] = UNCERTAIN_CODE
    codes[neg] = NEGATIVE_CODE
    idx = np.arange(n)
    codes[idx, :, idx] = EXCLUDED_CODE
    codes[idx, idx, :] = EXCLUDED_CODE
    return codes


def pair_likelihood(batch: EmbeddingBatch, a: int, p: int, sets: PairSets,
                    cfg: LossConfig) -> float:
    """Normalized likelihood of the (a, p) pair against its ranked sets.

    exp(sim(a,p)/tau) over the negative-set sum plus lambda times the
    uncertain-set sum. Always in (0, 1] because p itself sits in the
    negatives.
    """
    if not sets.negatives:
        raise ValueError("negatives must be nonempty (p is always promoted)")
    v = batch.embeddings
    tau = cfg.temperature
    neg = sorted(sets.negatives)
    unc = sorted(sets.uncertains)
    x_neg = np.array([similarity(v[a], v[k]) / tau for k in neg])
    x_p = similarity(v[a], v[p]) / tau
    if cfg.lam > 0 and unc:
        x_unc = np.array([similarity(v[a], v[k]) / tau for k in unc])
        m = max(x_neg.max(), x_unc.max())
        denom = np.exp(x_neg - m).sum() + cfg.lam * np.exp(x_unc - m).sum()
    else:
        m = x_neg.max()
        denom = np.exp(x_neg - m).sum()
    return float(np.exp(x_p - m) / denom)


def dense_loss_and_grad(batch: EmbeddingBatch, cfg: LossConfig):
    """(loss, d loss / d embeddings) from the full membership tensors."""
    v = batch.embeddings
    n = batch.size
    tau = cfg.temperature
    diff = v[:, None, :] - v[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    x = -dist / tau  # sim / tau for every (a, k)

    neg, unc = pair_set_masks(batch.events, batch.times)
    active = (neg | unc) if cfg.lam > 0 else neg

    # stable log-denominator: max over active members only, so lambda = 0
    # cannot leak an uncertain member's similarity into the shift
    x_bc = np.broadcast_to(x[:, None, :], (n, n, n))
    m = np.max(x_bc, axis=2, where=active, initial=-np.inf)
    wexp = np.zeros((n, n, n))
    np.subtract(x_bc, m[:, :, None], out=wexp, where=active)
    np.exp(wexp, out=wexp, where=active)  # inactive slots stay 0
    if 0.0 < cfg.lam != 1.0:
        wexp[unc] *= cfg.lam
    denom = wexp.sum(axis=2)
    idx = np.arange(n)
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = -x + m + np.log(denom)
    terms[idx, idx] = 0.0  # p = a is not a pair
    num_pairs = n * (n - 1)
    value = float(terms.sum() / num_pairs)

    safe_denom = denom.copy()
    safe_denom[idx, idx] = 1.0
    wexp /= safe_denom[:, :, None]  # now q[a, p, k]
    wexp[idx, idx, :] = 0.0
    # coefficient of each similarity x[a, k] in the summed loss
    coeff = wexp.sum(axis=1)
    coeff -= 1.0  # the -x[a, p] numerator term, once per valid (a, p)
    coeff[idx, idx] = 0.0
    coeff /= tau * num_pairs

    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(dist[:, :, None] > 0, diff / dist[:, :, None], 0.0)
    grad = -np.einsum("ak,akd->ad", coeff, unit) + np.einsum("ak,akd->kd", coeff, unit)
    return value, grad


def loop_concordance_index(risks, events, times) -> float:
    """Harrell's C by one comparable-set pass per event."""
    risks = np.asarray(risks, dtype=float)
    events = np.asarray(events, dtype=int)
    times = np.asarray(times, dtype=float)
    concordant = 0.0
    comparable = 0
    for i in np.flatnonzero(events == 1):
        later = (times > times[i]) | ((times == times[i]) & (events == 0))
        comparable += int(later.sum())
        concordant += float((risks[i] > risks[later]).sum())
        concordant += 0.5 * float((risks[i] == risks[later]).sum())
    if comparable == 0:
        raise NoComparablePairsError("no comparable pairs in the input")
    return concordant / comparable


def matrix_auc(risks, events, times, horizon) -> float:
    """Horizon AUC from the cases x controls comparison matrices."""
    risks = np.asarray(risks, dtype=float)
    events = np.asarray(events, dtype=int)
    times = np.asarray(times, dtype=float)
    cases = risks[(times <= horizon) & (events == 1)]
    controls = risks[times > horizon]
    if cases.size == 0 or controls.size == 0:
        raise UndefinedAtHorizonError(
            f"horizon {horizon}: {cases.size} cases, {controls.size} controls")
    wins = (cases[:, None] > controls[None, :]).sum()
    ties = (cases[:, None] == controls[None, :]).sum()
    return (wins + 0.5 * ties) / (cases.size * controls.size)


def spearman_ordinality(embeddings, events, times) -> float:
    """Spearman's rho of embedding distances vs |time differences| over
    every pair of uncensored patients; NaN for a constant statistic."""
    embeddings = np.asarray(embeddings, dtype=float)
    events = np.asarray(events, dtype=int)
    times = np.asarray(times, dtype=float)
    mask = events == 1
    if mask.sum() < 3:
        raise TooFewUncensoredError(
            f"need >= 3 uncensored patients, got {int(mask.sum())}")
    emb_dist = pdist(embeddings[mask])
    time_dist = pdist(times[mask, None], metric="cityblock")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstantInputWarning)
        return float(spearmanr(emb_dist, time_dist).statistic)


def exact_ordinality(embeddings, events, times) -> float:
    """Spearman's rho of squared embedding distances vs |time differences|
    over the pairs of `ordinality_subset`, from the Python-int sums of
    the `centred_ranks` products and squares; NaN for a constant
    statistic. Integer-grid or duplicated embeddings keep their exact
    distance ties here as in `embedding_ordinality`."""
    idx = ordinality_subset(events)
    emb = np.asarray(embeddings, dtype=float)[idx]
    pairs = np.triu_indices(idx.size, 1)
    a = [int(r) for r in centred_ranks(direct_sq_distances(emb)[pairs])]
    b = [int(r) for r in centred_ranks(time_differences(np.asarray(times, float)[idx]))]
    scale = (math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b)))
    if scale == 0.0:
        return math.nan
    return max(-1.0, min(1.0, sum(x * y for x, y in zip(a, b)) / scale))


def centred_ranks(x: np.ndarray) -> np.ndarray:
    """Twice the centred average rank of each entry of `x` (ties share
    their mean rank), in the order of `x`. Sorts `x` in place."""
    n = x.size
    order = np.argsort(x)
    x.sort()
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    counts = np.diff(starts, append=n)
    # a run at sorted positions [s, s + count) has mean rank s + (count + 1)/2
    # and the overall mean rank is (n + 1)/2
    ranks = np.empty(n)
    ranks[order] = np.repeat(2 * starts + counts - n, counts)
    return ranks


def csv_writer_cell(text: str) -> str:
    """`text` as `csv.writer` (minimal quoting, "\r\n" line ends) writes it
    as the first of two fields of a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([text, ""])
    return buf.getvalue()[:-3]  # less the "," before the empty field and the line end


def loop_violations(patients: Sequence[Patient], feature_names) -> list[Violation]:
    """Every violation of a dataset, one patient at a time: RaggedFeatures
    or NonFiniteFeature, NegativeTime, BadEventFlag; then DuplicateId in
    first-seen order; then AllCensored."""
    violations: list[Violation] = []
    expected_len = len(feature_names)
    seen: dict[str, int] = {}
    for p in patients:
        if p.features.ndim != 1 or p.features.shape[0] != expected_len:
            violations.append(Violation(
                "RaggedFeatures", p.id,
                f"expected {expected_len} features, got {p.features.shape}"))
        elif not np.all(np.isfinite(p.features)):
            violations.append(Violation(
                "NonFiniteFeature", p.id, "features contain NaN or infinity"))
        if not (math.isfinite(p.time) and p.time >= 0):
            violations.append(Violation(
                "NegativeTime", p.id, f"time must be finite and >= 0, got {p.time}"))
        if p.event not in (0, 1):
            violations.append(Violation(
                "BadEventFlag", p.id, f"event must be 0 or 1, got {p.event!r}"))
        seen[p.id] = seen.get(p.id, 0) + 1
    for pid, count in seen.items():
        if count > 1:
            violations.append(Violation("DuplicateId", pid, f"appears {count} times"))
    if not any(p.event == 1 for p in patients):
        violations.append(Violation(
            "AllCensored", None, "dataset needs at least one uncensored patient"))
    return violations
