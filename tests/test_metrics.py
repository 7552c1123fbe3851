import json
import math
import sys
import threading
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survrnc import metrics
from survrnc.metrics import (
    EvalReport,
    NoComparablePairsError,
    TooFewUncensoredError,
    UndefinedAtHorizonError,
    concordance_index,
    cumulative_dynamic_auc,
    embedding_ordinality,
    horizon_from_fraction,
    ordinality_subset,
)

from oracles import (
    centred_ranks,
    direct_sq_distances,
    exact_ordinality,
    loop_concordance_index,
    matrix_auc,
    spearman_ordinality,
    time_differences,
)
from test_cli import run_python


def brute_force_ci(risks, events, times):
    """O(n^2) oracle with the documented comparable-pair and tie rules."""
    concordant = 0.0
    comparable = 0
    n = len(risks)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if events[i] != 1:
                continue
            if not (times[i] < times[j]
                    or (times[i] == times[j] and events[j] == 0)):
                continue
            comparable += 1
            if risks[i] > risks[j]:
                concordant += 1.0
            elif risks[i] == risks[j]:
                concordant += 0.5
    if comparable == 0:
        raise ZeroDivisionError
    return concordant / comparable


def brute_force_auc(risks, events, times, horizon):
    cases = [r for r, e, t in zip(risks, events, times) if t <= horizon and e == 1]
    controls = [r for r, t in zip(risks, times) if t > horizon]
    total = 0.0
    for c in cases:
        for k in controls:
            total += 1.0 if c > k else 0.5 if c == k else 0.0
    return total / (len(cases) * len(controls))


@st.composite
def tied_cohorts(draw):
    """n in 1..80 patients with few distinct risks, times and embedding
    coordinates, and events and censorings mixed at equal times."""
    n = draw(st.integers(1, 80))

    def column(levels):
        pool = draw(st.lists(levels, min_size=1, max_size=5, unique=True))
        return np.array(draw(st.lists(st.sampled_from(pool),
                                      min_size=n, max_size=n)), dtype=float)

    risks = column(st.floats(-3, 3, allow_nan=False))
    times = column(st.integers(1, 6))
    events = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    d = draw(st.integers(1, 3))
    emb = np.stack([column(st.integers(-2, 2)) for _ in range(d)], axis=1)
    return risks, events, times, emb


def outcome(fn, *args):
    """The value, or the error class, of fn(*args)."""
    try:
        return fn(*args)
    except (NoComparablePairsError, UndefinedAtHorizonError,
            TooFewUncensoredError) as err:
        return type(err)


class TestOracleAgreement:
    @given(tied_cohorts())
    @settings(max_examples=200, deadline=None)
    def test_concordance_equals_loop_oracle(self, cohort):
        risks, events, times, _ = cohort
        assert (outcome(concordance_index, risks, events, times)
                == outcome(loop_concordance_index, risks, events, times))

    @given(tied_cohorts(), st.sampled_from([0.5, 1.0, 2.0, 3.5, 6.0, 7.0]))
    @settings(max_examples=200, deadline=None)
    def test_auc_equals_matrix_oracle(self, cohort, horizon):
        risks, events, times, _ = cohort
        assert (outcome(cumulative_dynamic_auc, risks, events, times, horizon)
                == outcome(matrix_auc, risks, events, times, horizon))

    @given(tied_cohorts())
    @settings(max_examples=200, deadline=None)
    def test_ordinality_matches_spearman_oracle(self, cohort):
        _, events, times, emb = cohort
        got = outcome(embedding_ordinality, emb, events, times)
        want = outcome(spearman_ordinality, emb, events, times)
        if isinstance(want, float) and math.isnan(want):
            assert math.isnan(got)
        elif isinstance(want, float):
            assert abs(got - want) <= 1e-12
        else:
            assert got == want


class TestConcordanceIndex:
    def test_perfect_ordering(self):
        assert concordance_index([3, 2, 1], [1, 1, 1], [1, 2, 3]) == 1.0

    def test_fully_reversed(self):
        assert concordance_index([1, 2, 3], [1, 1, 1], [1, 2, 3]) == 0.0

    def test_censoring_example(self):
        ci = concordance_index([0.7, 0.5, 0.9], [1, 0, 1], [2, 4, 6])
        expected = brute_force_ci([0.7, 0.5, 0.9], [1, 0, 1], [2, 4, 6])
        assert expected == 0.5
        assert ci == expected

    def test_all_ties_give_half(self):
        assert concordance_index([1, 1, 1], [1, 1, 1], [1, 2, 3]) == 0.5

    def test_equal_time_event_vs_censored_is_comparable(self):
        # the event member counts as earlier
        ci = concordance_index([2, 1], [1, 0], [5, 5])
        assert ci == 1.0

    def test_equal_time_two_events_not_comparable(self):
        with pytest.raises(NoComparablePairsError):
            concordance_index([2, 1], [1, 1], [5, 5])

    def test_no_comparable_pairs(self):
        with pytest.raises(NoComparablePairsError):
            concordance_index([1, 2], [0, 0], [1, 2])

    @pytest.mark.parametrize("metric", [
        lambda r: concordance_index(r, [1, 1, 0], [1.0, 2.0, 3.0]),
        lambda r: cumulative_dynamic_auc(r, [1, 1, 0], [1.0, 2.0, 3.0], 2.5),
    ])
    def test_non_finite_risk_names_the_patient(self, metric):
        with pytest.raises(ValueError, match="patient 1"):
            metric([0.3, np.nan, 0.1])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            risks = rng.integers(0, 5, n).astype(float)  # force risk ties
            events = rng.integers(0, 2, n)
            times = rng.integers(0, 10, n).astype(float)  # force time ties
            try:
                expected = brute_force_ci(risks, events, times)
            except ZeroDivisionError:
                with pytest.raises(NoComparablePairsError):
                    concordance_index(risks, events, times)
                continue
            assert concordance_index(risks, events, times) == expected

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_increasing_transform(self, seed):
        rng = np.random.default_rng(seed)
        n = 20
        risks = rng.standard_normal(n)
        events = rng.integers(0, 2, n)
        events[0] = 1
        times = rng.uniform(0, 10, n)
        base = concordance_index(risks, events, times)
        transformed = concordance_index(np.exp(3 * risks) + 7, events, times)
        assert transformed == pytest.approx(base, abs=1e-15)

    def test_complement_identity_without_ties(self):
        rng = np.random.default_rng(1)
        n = 25
        risks = rng.permutation(n).astype(float)
        events = rng.integers(0, 2, n)
        events[:3] = 1
        times = rng.permutation(n).astype(float)
        ci = concordance_index(risks, events, times)
        ci_neg = concordance_index(-risks, events, times)
        assert ci + ci_neg == pytest.approx(1.0, abs=1e-12)


class TestCumulativeDynamicAuc:
    def test_single_case_control_separated(self):
        assert cumulative_dynamic_auc([0.9, 0.1], [1, 0], [1.0, 9.0], 2.0) == 1.0

    def test_tie_rule(self):
        assert cumulative_dynamic_auc([0.5, 0.5], [1, 0], [1.0, 9.0], 2.0) == 0.5

    def test_enumeration_example(self):
        auc = cumulative_dynamic_auc([4, 3, 2, 1], [1, 1, 0, 0],
                                     [1, 2, 3, 4], 2.5)
        assert auc == 1.0

    def test_undefined_when_no_cases(self):
        with pytest.raises(UndefinedAtHorizonError):
            cumulative_dynamic_auc([1, 2], [0, 0], [1.0, 9.0], 2.0)

    def test_undefined_when_no_controls(self):
        with pytest.raises(UndefinedAtHorizonError):
            cumulative_dynamic_auc([1, 2], [1, 1], [1.0, 2.0], 5.0)

    def test_matches_pair_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            risks = rng.integers(0, 6, n).astype(float)
            events = rng.integers(0, 2, n)
            times = rng.uniform(0, 10, n)
            horizon = float(rng.uniform(1, 9))
            cases = ((times <= horizon) & (events == 1)).sum()
            controls = (times > horizon).sum()
            if cases == 0 or controls == 0:
                continue
            expected = brute_force_auc(risks, events, times, horizon)
            assert cumulative_dynamic_auc(risks, events, times, horizon) == expected

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(3)
        risks = rng.standard_normal(30)
        events = np.ones(30, dtype=int)
        times = rng.uniform(0, 10, 30)
        base = cumulative_dynamic_auc(risks, events, times, 5.0)
        trans = cumulative_dynamic_auc(np.tanh(risks) * 10 + 3, events, times, 5.0)
        assert trans == pytest.approx(base, abs=1e-15)


class TestEmbeddingOrdinality:
    def test_line_ordered_by_time(self):
        times = np.array([1.0, 3.0, 7.0, 20.0])
        emb = times[:, None]
        assert embedding_ordinality(emb, [1, 1, 1, 1], times) == pytest.approx(1.0)

    def test_reversed_line_also_perfect(self):
        times = np.array([1.0, 3.0, 7.0, 20.0])
        emb = -times[:, None]
        assert embedding_ordinality(emb, [1, 1, 1, 1], times) == pytest.approx(1.0)

    def test_random_embeddings_near_zero(self):
        rng = np.random.default_rng(12)
        n = 60
        emb = rng.standard_normal((n, 5))
        times = rng.uniform(0, 100, n)
        rho = embedding_ordinality(emb, np.ones(n, int), times)
        # null scale for ~1770 dependent pairs; bound checked against a
        # permutation simulation offline
        assert abs(rho) < 0.12

    def test_censored_patients_excluded(self):
        times = np.array([1.0, 3.0, 7.0, 20.0, 5.0])
        emb = np.vstack([times[:4, None], [[99.0]]])
        events = [1, 1, 1, 1, 0]
        assert embedding_ordinality(emb, events, times) == pytest.approx(1.0)

    def test_too_few_uncensored(self):
        with pytest.raises(TooFewUncensoredError):
            embedding_ordinality(np.zeros((4, 2)), [1, 1, 0, 0], [1, 2, 3, 4])

    @pytest.mark.parametrize("emb, times", [
        (np.zeros((5, 3)), [1.0, 2.0, 4.0, 8.0, 9.0]),   # constant distances
        (np.eye(5), [1.0, 2.0, 4.0, 8.0, 9.0]),          # all distances sqrt(2)
        (np.arange(5.0)[:, None], [3.0] * 5),            # constant |time diffs|
        (np.r_[0.0, 1, 2, 3, np.inf][:, None], [1.0, 2.0, 4.0, 8.0, 9.0]),
        (np.arange(5.0)[:, None], [1.0, 2.0, 4.0, 8.0, np.inf]),
    ])
    def test_constant_or_non_finite_statistic_is_nan_without_warning(self, emb, times):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = embedding_ordinality(emb, [1] * 5, times)
        assert math.isnan(rho)


# +0.0, -0.0, the two smallest and the largest subnormal, +inf (an
# overflowed distance)
SPECIAL_BITS = (0, 2**63, 1, 2, 2**52 - 1, 0x7FF0_0000_0000_0000)


@st.composite
def pair_statistics(draw):
    """Non-negative doubles, sized 2^k - 1, 2^k and 2^k + 1 around the
    width of the packed index: either drawn from a small pool (-0.0 and
    +inf among them, heavy ties, runs a few ulps apart that share their
    high bits), or ulp-packed (a base plus 0 to 2^u ulps each, so that
    for u >= k most values share one run of high bits)."""
    k = draw(st.integers(1, 12))
    n = draw(st.sampled_from([max(1, 2**k - 1), 2**k, 2**k + 1]))
    bases = draw(st.lists(st.integers(0, 0x7FEF_FFFF_FFFF_0000),
                          min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        ulps = rng.integers(0, 2 ** draw(st.integers(1, 16)), n, dtype=np.uint64)
        return (np.uint64(bases[0]) + ulps).view(np.float64)
    near = st.builds(int.__add__, st.sampled_from(bases), st.integers(0, 40))
    pool = draw(st.lists(st.one_of(st.sampled_from(SPECIAL_BITS), near),
                         min_size=1, max_size=30, unique=True))
    bits = np.array(pool, dtype=np.uint64)[rng.integers(0, len(pool), n)]
    return bits.view(np.float64)


def mixed_statistics(n, seed):
    """n doubles with every shape the block passes meet: continuous
    values, ulp-packed runs longer and shorter than a block, day-rounded
    integers, long tie groups and -0.0, in shuffled stretches."""
    rng = np.random.default_rng(seed)
    one = np.float64(1.0).view(np.uint64)
    parts = [rng.exponential(1.0, n),
             (one + rng.integers(0, 2**12, n, dtype=np.uint64)).view(np.float64),
             (one + rng.integers(0, 3, n, dtype=np.uint64)).view(np.float64) * 4,
             np.ceil(365 * rng.exponential(1.0, n)),
             np.full(n, 7.0), np.full(n, -0.0)]
    cut = np.sort(rng.integers(0, n, len(parts) - 1))
    x = np.concatenate([part[a:b] for part, a, b in zip(parts, np.r_[0, cut], np.r_[cut, n])])
    return x[rng.permutation(n)]


def check_ordered_ranks(x):
    """`_ordered_ranks` of a copy of x against the argsort oracle."""
    order, starts, ends = metrics._ordered_ranks(x.copy())
    ranks = metrics._ranks(x.size, starts, ends)
    assert order.dtype == ranks.dtype == starts.dtype == ends.dtype == np.int32
    np.testing.assert_array_equal(np.sort(order), np.arange(x.size))
    assert (x[order][1:] >= x[order][:-1]).all()
    got = np.empty(x.size)
    got[order] = ranks
    np.testing.assert_array_equal(got, centred_ranks(x.copy()))
    assert (metrics._sum_sq_ranks(x.size, starts, ends)
            == sum(int(r) ** 2 for r in ranks))


class TestExactDot:
    @pytest.mark.parametrize("n", [1, 2, 3, 5000, 70001])
    def test_equals_python_int_sum(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.integers(1 - n, n, (2, n), dtype=np.int32)
        want = sum(int(x) * int(y) for x, y in zip(a, b))
        assert metrics._exact_dot(a, b, n) == want

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_equals_python_int_sum_over_short_blocks(self, block, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK_ENTRIES", block)
        n = 1001
        a, b = np.random.default_rng(block).integers(1 - n, n, (2, n), dtype=np.int32)
        assert metrics._exact_dot(a, b, n) == sum(int(x) * int(y) for x, y in zip(a, b))

    @pytest.mark.parametrize("n", [2, 5000, 2**21 + 3])
    def test_extreme_entries_over_several_blocks(self, n):
        # every entry at +-(n - 1); at 2**21 + 3 the sum exceeds 2**63,
        # spans three int64 blocks and is not exact in float64
        signs = np.random.default_rng(n).choice(np.array([-1, 1], np.int32), n)
        a = signs * np.int32(n - 1)
        assert metrics._exact_dot(a, a, n) == n * (n - 1) ** 2
        assert metrics._exact_dot(a, -a, n) == -n * (n - 1) ** 2


class TestOrderedRanks:
    @given(pair_statistics())
    @settings(max_examples=300, deadline=None)
    def test_equals_argsort_oracle(self, x):
        check_ordered_ranks(x)

    @pytest.mark.parametrize("block", [1, 2, 3, 16, 61])
    @pytest.mark.parametrize("seed", range(3))
    def test_runs_and_ties_across_block_boundaries(self, block, seed, monkeypatch):
        # runs and tie groups longer than a block, and blocks of many
        # short runs, with block edges everywhere among them
        monkeypatch.setattr(metrics, "_BLOCK_ENTRIES", block)
        check_ordered_ranks(mixed_statistics(3000, seed))

    def test_negative_zero_ties_with_zero(self):
        order, starts, ends = metrics._ordered_ranks(np.array([-0.0, 1.0, 0.0, -0.0]))
        assert sorted(order[:3]) == [0, 2, 3]
        np.testing.assert_array_equal(metrics._ranks(4, starts, ends), [-1, -1, -1, 3])

    @pytest.mark.parametrize("starts, ends", [([0], [2**17 + 5]), ([1], [2**17 + 5]),
                                              ([3, 2**16], [2**16, 2**17])])
    def test_sum_sq_ranks_of_groups_above_2_16(self, starts, ends):
        n = 2**17 + 5
        starts, ends = np.array(starts), np.array(ends)
        ranks = metrics._ranks(n, starts, ends).astype(np.int64)
        assert metrics._sum_sq_ranks(n, starts, ends) == int((ranks**2).sum())

    def test_widths_hold_the_pair_cap(self):
        # dropped low bits are stored as uint32; orders and ranks in
        # [-(P - 1), P - 1] as int32
        assert (metrics.ORDINALITY_MAX_PAIRS - 1).bit_length() <= 32
        assert metrics.ORDINALITY_MAX_PAIRS < 2**31

    def test_too_many_values_raise(self):
        with pytest.raises(ValueError, match="int32"):
            metrics._ordered_ranks(types.SimpleNamespace(size=2**31))


def grid_cohort(m, seed, days=False, dup=False):
    """Embeddings on a coarse integer grid, or on a fine binary grid with
    the first half of the rows repeated, so that pair distances tie
    exactly, by any summation order; day-rounded times tie too."""
    rng = np.random.default_rng(seed)
    emb = rng.integers(-2, 3, (m, 3)).astype(float)
    if dup:
        emb = rng.integers(-400, 400, (m, 4)) / 64
        emb[m // 2:] = emb[:m - m // 2]
    times = rng.exponential(1.0, m)
    times = np.ceil(365 * times) if days else times
    events = (rng.random(m) < 0.7).astype(int)
    events[:3] = 1
    return emb, events, times


class TestOrdinalityExact:
    """`embedding_ordinality` forms rho from the same three exact integers
    as the Python-int oracle, so the two are equal, not just close."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("days, dup", [(True, False), (False, False),
                                           (False, True), (True, True)])
    def test_equals_exact_oracle_with_ties(self, seed, days, dup):
        emb, events, times = grid_cohort(150, seed, days, dup)
        assert embedding_ordinality(emb, events, times) == exact_ordinality(emb, events, times)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_exact_oracle_with_continuous_embeddings(self, seed):
        rng = np.random.default_rng(seed)
        emb = rng.standard_normal((150, 8))
        times = np.ceil(365 * rng.exponential(1.0, 150))
        events = np.ones(150, dtype=int)
        assert embedding_ordinality(emb, events, times) == exact_ordinality(emb, events, times)

    @pytest.mark.parametrize("block", [1, 5, 64])
    @pytest.mark.parametrize("days, dup", [(True, False), (False, True)])
    def test_equals_exact_oracle_over_short_blocks(self, block, days, dup, monkeypatch):
        # distance and time ties that straddle the blocks of every pass
        monkeypatch.setattr(metrics, "_BLOCK_ENTRIES", block)
        emb, events, times = grid_cohort(60, block, days, dup)
        assert embedding_ordinality(emb, events, times) == exact_ordinality(emb, events, times)

    @pytest.mark.parametrize("seed", range(3))
    def test_capped_subset_equals_exact_oracle(self, seed, monkeypatch):
        monkeypatch.setattr(metrics, "ORDINALITY_MAX_PAIRS", 1000)
        emb, events, times = grid_cohort(300, seed, days=True)
        assert ordinality_subset(events).size < int(events.sum())
        assert embedding_ordinality(emb, events, times) == exact_ordinality(emb, events, times)


def inline_halves(n, work):
    """`metrics._in_halves` without the worker thread: both halves here."""
    h = metrics._half(n)
    return work(0, h), work(h, n)


class TestOrdinalityThreads:
    """Each pass of `embedding_ordinality` runs its second half on one
    worker thread (`metrics._in_halves`); that changes nothing but when
    the work is done."""

    @pytest.mark.parametrize("block", [1, 5, 64])
    @pytest.mark.parametrize("days, dup", [(True, False), (False, False),
                                           (False, True), (True, True)])
    def test_equals_both_halves_inline(self, block, days, dup, monkeypatch):
        # short blocks put the split inside runs and tie groups
        monkeypatch.setattr(metrics, "_BLOCK_ENTRIES", block)
        emb, events, times = grid_cohort(60, block, days, dup)
        threaded = embedding_ordinality(emb, events, times)
        monkeypatch.setattr(metrics, "_in_halves", inline_halves)
        assert embedding_ordinality(emb, events, times) == threaded

    @pytest.mark.parametrize("n", [0, 1, 2**16, 2**16 + 1, 2**17, 2**17 + 1, 10**6])
    def test_halves_tile_the_range_at_a_block_edge(self, n):
        h = metrics._half(n)
        assert 0 <= h <= n and (h % metrics._BLOCK_ENTRIES == 0 or h == n)
        assert (h == n) == (n <= metrics._BLOCK_ENTRIES)
        assert metrics._in_halves(n, lambda lo, hi: (lo, hi)) == ((0, h), (h, n))

    def test_no_thread_outlives_a_call(self):
        before = threading.active_count()
        emb, events, times = grid_cohort(700, 0, days=True)
        k = ordinality_subset(events).size
        assert k * (k - 1) // 2 > metrics._BLOCK_ENTRIES  # so the pairs are split
        assert embedding_ordinality(emb, events, times) == exact_ordinality(emb, events, times)
        assert threading.active_count() == before

    def test_error_in_the_second_half_reaches_the_caller(self, monkeypatch):
        def work(lo, hi):
            if lo > 0:
                raise MemoryError("second half")
            return hi

        before = threading.active_count()
        with pytest.raises(MemoryError, match="second half"):
            metrics._in_halves(10**6, work)
        differences = metrics._time_differences

        def fail_on_the_worker(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("worker")
            return differences(*args, **kwargs)

        monkeypatch.setattr(metrics, "_BLOCK_ENTRIES", 5)
        monkeypatch.setattr(metrics, "_time_differences", fail_on_the_worker)
        with pytest.raises(MemoryError, match="worker"):
            embedding_ordinality(*grid_cohort(60, 0))
        assert threading.active_count() == before

    def test_concurrent_calls_under_a_short_switch_interval(self):
        # four callers on two cores, each with its own worker, thread
        # switches every microsecond: every value is still the oracle's
        cohorts = [grid_cohort(80, seed, days=seed % 2 == 0, dup=seed > 1) for seed in range(4)]
        want = [[exact_ordinality(*cohort)] * 5 for cohort in cohorts]
        got = [[] for _ in cohorts]

        def call(k):
            for _ in range(5):
                got[k].append(embedding_ordinality(*cohorts[k]))

        interval = sys.getswitchinterval()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "_BLOCK_ENTRIES", 7)
            sys.setswitchinterval(1e-6)
            try:
                callers = [threading.Thread(target=call, args=(k,)) for k in range(len(cohorts))]
                for caller in callers:
                    caller.start()
                for caller in callers:
                    caller.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == want


# The peak is read from VmHWM, the high-water mark of this process's own
# address space: ru_maxrss also keeps the RSS of the process that started
# it (Linux carries it over fork and exec), so under pytest it read the
# runner's ~120 MB and the growth 0.
ORDINALITY_PEAK_PER_PAIR = """
import sys
import numpy as np
from survrnc import trainer
from survrnc.metrics import embedding_ordinality
def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
if sys.argv[2] == "settled":
    trainer._settle_allocator()
m = 2000
rng = np.random.default_rng(0)
emb, times = rng.standard_normal((m, 32)), rng.exponential(1.0, m)
if sys.argv[1] == "days":
    times = np.ceil(365 * times)
before = peak_kib()
embedding_ordinality(emb, np.ones(m, dtype=int), times)
print((peak_kib() - before) * 1024 / (m * (m - 1) // 2))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
class TestOrdinalityMemory:
    # every CLI command settles the allocator first; its 32 MiB mmap
    # threshold puts these P-sized arrays on the heap, where layout shows
    @pytest.mark.parametrize("allocator", ["default", "settled"])
    @pytest.mark.parametrize("times", ["continuous", "days"])
    def test_peak_bytes_per_pair(self, times, allocator):
        # 1,999,000 pairs: ranking with argsort took 57-67 B per pair, the
        # packed keys with a time-difference table 22-27, the 8-byte keys,
        # their 4-byte order and 1-byte run flags 14.2-14.8; without the
        # flags, and with a worker thread's blocks, 15.5-15.7
        assert float(run_python(ORDINALITY_PEAK_PER_PAIR, times, allocator)) < 17.5


class TestCondensedPairs:
    """The pair statistics `embedding_ordinality` ranks, in condensed order,
    whatever the block height."""

    @pytest.mark.parametrize("m", [2, 3, 5, 40, 701, 1500])
    def test_time_differences_equal_cityblock_pdist_bitwise(self, m):
        rng = np.random.default_rng(m)
        t = np.where(rng.random(m) < 0.5, np.ceil(365 * rng.exponential(1.0, m)),
                     rng.exponential(3.0, m))
        # condensed positions in any order, as a ranking hands them over
        p = rng.permutation(m * (m - 1) // 2).astype(np.int32)
        assert np.array_equal(metrics._time_differences(t, p), time_differences(t)[p])

    def test_time_differences_at_every_row_boundary_of_the_cap(self):
        # m = 5,793 has the most pairs under the cap; each row i starts at
        # (i, i + 1) and the position before it is (i - 1, m - 1)
        m = 5793
        assert m * (m - 1) // 2 <= metrics.ORDINALITY_MAX_PAIRS < m * (m + 1) // 2
        t = np.random.default_rng(0).standard_normal(m)
        i = np.arange(1, m - 1)
        first = i * (2 * m - 1 - i) // 2
        got = metrics._time_differences(t, np.r_[0, first, first - 1].astype(np.int32))
        want = np.abs(np.r_[t[0] - t[1], t[i] - t[i + 1], t[i - 1] - t[m - 1]])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("m,rows", [(3, 1), (5, 2), (40, 7), (701, 262)])
    def test_sq_distances_in_condensed_order(self, m, rows):
        rng = np.random.default_rng(m)
        emb = rng.standard_normal((m, 32)) + 50.0
        emb[m // 2] = emb[0]
        got = metrics._sq_distances(emb, rows)
        want = direct_sq_distances(emb)[np.triu_indices(m, 1)]
        assert got[m // 2 - 1] == want[m // 2 - 1] == 0.0
        assert np.all(np.abs(got - want) <= 1e-12 * want)


class TestOrdinalityCap:
    def test_below_cap_uses_every_uncensored_patient(self):
        events = np.array([1, 0, 1, 1, 0, 1])
        np.testing.assert_array_equal(ordinality_subset(events), [0, 2, 3, 5])

    @pytest.mark.parametrize("cap", [3, 10, 11, 45, 2**24])
    def test_subset_is_the_largest_under_the_cap(self, cap, monkeypatch):
        monkeypatch.setattr(metrics, "ORDINALITY_MAX_PAIRS", cap)
        events = np.ones(7000, dtype=int)
        events[::7] = 0
        k = ordinality_subset(events).size
        assert k * (k - 1) // 2 <= cap < (k + 1) * k // 2


class TestHorizonFromFraction:
    def test_quarter(self):
        assert horizon_from_fraction(np.array([10.0, 1000.0]), 0.25) == 250.0

    def test_three_quarters(self):
        assert horizon_from_fraction(np.array([10.0, 1000.0]), 0.75) == 750.0

    def test_single_patient(self):
        assert horizon_from_fraction(np.array([42.0]), 0.5) == 21.0

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            horizon_from_fraction(np.array([1.0]), 0.0)


class TestEvalReport:
    def test_json_key_names(self):
        report = EvalReport(ci=0.7, auc_at={0.25: 0.8, 0.5: 0.75, 0.75: 0.7},
                            ordinality=0.3, ordinality_pairs=np.int64(45),
                            ordinality_exact=np.True_)
        payload = report.to_dict()
        assert list(payload) == ["ci", "auc_25", "auc_50", "auc_75", "ordinality",
                                 "ordinality_pairs", "ordinality_exact"]
        assert payload["ordinality_pairs"] == 45
        assert payload["ordinality_exact"] is True
        assert json.dumps(payload)  # serializable

    def test_non_finite_becomes_null(self):
        report = EvalReport(ci=0.7, auc_at={0.25: float("nan")}, ordinality=0.1,
                            ordinality_pairs=3, ordinality_exact=True)
        assert report.to_dict()["auc_25"] is None
