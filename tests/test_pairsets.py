import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survrnc.core import Patient
from survrnc.pairsets import (anchor_pair_sets, delta_bound_matrices, exact_bounds,
                               pair_set_masks)

from oracles import (
    DISREGARD_CODE,
    NEGATIVE_CODE,
    UNCERTAIN_CODE,
    PairClass,
    TimeInterval,
    broadcast_pair_sets,
    build_pair_sets,
    classification_tensor,
    classify,
    classify_interval,
    delta_interval,
    pair_threshold,
    true_time_interval,
)


def P(event, time, pid="x"):
    return Patient(pid, np.zeros(1), event, float(time))


# -------- brute-force oracle: discretize censored completions ---------

def completions(patient, horizon, step):
    """Possible true event times on a fine grid up to a horizon."""
    if patient.event == 1:
        return np.array([patient.time])
    return np.arange(patient.time, horizon + step / 2, step)


def oracle_classify(a, p, k, horizon=1000.0, step=0.25):
    theta = abs(a.time - p.time)
    ta = completions(a, horizon, step)
    tk = completions(k, horizon, step)
    deltas = np.abs(ta[:, None] - tk[None, :])
    meets = deltas >= theta
    if meets.all():
        return PairClass.NEGATIVE
    if not meets.any():
        return PairClass.DISREGARD
    return PairClass.UNCERTAIN


class TestTrueTimeInterval:
    def test_uncensored_exact(self):
        assert true_time_interval(P(1, 100)) == TimeInterval(100.0, 100.0)

    def test_censored_open(self):
        iv = true_time_interval(P(0, 100))
        assert iv.lo == 100.0 and math.isinf(iv.hi)

    def test_censored_at_zero(self):
        iv = true_time_interval(P(0, 0))
        assert iv.lo == 0.0 and math.isinf(iv.hi)


class TestDeltaInterval:
    def test_both_exact(self):
        assert delta_interval(P(1, 300), P(1, 450)) == TimeInterval(150.0, 150.0)

    def test_one_censored_later(self):
        # oracle: minimize/maximize |300 - t| over t >= 450
        iv = delta_interval(P(1, 300), P(0, 450))
        assert iv.lo == 150.0 and math.isinf(iv.hi)

    def test_one_censored_earlier(self):
        # t = 300 attains 0; unbounded above
        iv = delta_interval(P(1, 300), P(0, 250))
        assert iv.lo == 0.0 and math.isinf(iv.hi)

    def test_both_censored(self):
        iv = delta_interval(P(0, 100), P(0, 900))
        assert iv.lo == 0.0 and math.isinf(iv.hi)

    @given(
        ea=st.booleans(), ta=st.floats(0, 500, allow_nan=False),
        ek=st.booleans(), tk=st.floats(0, 500, allow_nan=False),
    )
    def test_matches_numeric_min_max(self, ea, ta, ek, tk):
        a, k = P(int(ea), ta), P(int(ek), tk)
        iv = delta_interval(a, k)
        ca = completions(a, horizon=2000.0, step=7.3)
        ck = completions(k, horizon=2000.0, step=7.3)
        deltas = np.abs(ca[:, None] - ck[None, :])
        # the closed form must bracket every discretized completion
        assert deltas.min() >= iv.lo - 1e-9
        if math.isfinite(iv.hi):
            assert deltas.max() <= iv.hi + 1e-9


class TestPairThreshold:
    def test_observed_times_example(self):
        assert pair_threshold(P(1, 300), P(1, 200)) == 100.0

    def test_censored_equal_times(self):
        assert pair_threshold(P(0, 50), P(1, 50)) == 0.0

    def test_both_censored(self):
        assert pair_threshold(P(0, 10), P(0, 400)) == 390.0


class TestClassify:
    @pytest.mark.parametrize("k,expected", [
        (P(1, 450), PairClass.NEGATIVE),
        (P(1, 350), PairClass.DISREGARD),
        (P(0, 250), PairClass.UNCERTAIN),
        (P(0, 450), PairClass.NEGATIVE),
    ])
    def test_window_examples(self, k, expected):
        a, p = P(1, 300), P(1, 200)
        assert classify(a, p, k) is expected

    def test_zero_threshold_everything_negative(self):
        a, p = P(1, 300), P(0, 300)
        for k in [P(1, 10), P(0, 10), P(1, 300), P(0, 999)]:
            assert classify(a, p, k) is PairClass.NEGATIVE

    @given(
        lo=st.floats(0, 100, allow_nan=False),
        width=st.floats(0, 100, allow_nan=False),
        unbounded=st.booleans(),
    )
    def test_threshold_monotonicity(self, lo, width, unbounded):
        iv = TimeInterval(lo, math.inf if unbounded else lo + width)
        order = {PairClass.NEGATIVE: 0, PairClass.UNCERTAIN: 1, PairClass.DISREGARD: 2}
        thresholds = sorted([0.0, lo / 2, lo, lo + width / 2, lo + width, lo + width + 5])
        classes = [order[classify_interval(iv, t)] for t in thresholds]
        assert classes == sorted(classes)


class TestBuildPairSets:
    def test_nine_patient_window_batch(self):
        # anchor uncensored, positive uncensored, threshold 100:
        # four members provably >= 100 away, two censored inside the window,
        # one provably closer
        batch = [
            P(1, 300, "a"), P(1, 200, "p"),
            P(1, 450, "n1"), P(0, 450, "n2"), P(1, 100, "n3"), P(1, 50, "n4"),
            P(0, 250, "u1"), P(0, 350, "u2"),
            P(1, 350, "d1"),
        ]
        sets = build_pair_sets(batch, 0, 1)
        assert len(sets.negatives) == 5  # four far members plus p itself
        assert len(sets.uncertains) == 2
        assert 1 in sets.negatives

    def test_duplicated_views_zero_threshold(self):
        batch = [P(1, 80, "v1"), P(1, 80, "v2")]
        sets = build_pair_sets(batch, 0, 1)
        assert sets.negatives == frozenset({1})
        assert sets.uncertains == frozenset()

    def test_all_censored_promotes_positive(self):
        batch = [P(0, 10, "a"), P(0, 50, "p"), P(0, 30, "k1"), P(0, 99, "k2")]
        sets = build_pair_sets(batch, 0, 1)
        assert 1 in sets.negatives  # [0, inf) vs theta 40 is uncertain: promoted
        assert sets.uncertains == frozenset({2, 3})

    def test_anchor_never_included(self):
        batch = [P(1, 10), P(1, 20), P(0, 30)]
        for a in range(3):
            for p in range(3):
                if a == p:
                    continue
                sets = build_pair_sets(batch, a, p)
                assert a not in sets.negatives | sets.uncertains

    def test_rejects_anchor_equal_positive(self):
        with pytest.raises(ValueError):
            build_pair_sets([P(1, 1), P(1, 2)], 1, 1)


@st.composite
def patient_batches(draw):
    n = draw(st.integers(2, 6))
    rows = draw(st.lists(
        st.tuples(st.booleans(), st.sampled_from([0.0, 10.0, 25.0, 50.0, 75.0, 100.0])),
        min_size=n, max_size=n))
    return [P(int(e), t, f"p{i}") for i, (e, t) in enumerate(rows)]


# (event, time) rows with tied, zero and censored-equal times
label_rows = st.lists(st.tuples(st.booleans(), st.one_of(
    st.sampled_from([0.0, 0.1, 10.0, 25.0]),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))),
    min_size=1, max_size=40)


def label_arrays(rows):
    return np.array([int(e) for e, _ in rows]), np.array([t for _, t in rows])


def oracle_bounds(events, times):
    """(lo, hi) of the scalar interval arithmetic, pair by pair."""
    patients = [P(e, t) for e, t in zip(events, times)]
    pairs = [[delta_interval(a, k) for k in patients] for a in patients]
    return (np.array([[iv.lo for iv in row] for row in pairs]),
            np.array([[iv.hi for iv in row] for row in pairs]))


class TestBoundIdentity:
    """Each interval bound is the threshold or an extreme, bit for bit:
    lo is theta or 0 and hi is theta or inf. The loss kernel orders every
    sum by theta alone on the strength of this, and tells the two cases
    apart from the labels (`exact_bounds`)."""

    @given(label_rows)
    @settings(max_examples=200)
    def test_bounds_are_theta_or_extreme(self, rows):
        events, times = label_arrays(rows)
        lo, hi = oracle_bounds(events, times)
        theta = np.abs(times[:, None] - times)
        bits = np.uint64
        assert np.array_equal(np.where(lo == theta, theta, 0.0).view(bits),
                              lo.view(bits))
        assert np.array_equal(np.where(hi == theta, theta, np.inf).view(bits),
                              hi.view(bits))

    @given(label_rows)
    @settings(max_examples=200)
    def test_exact_bounds_match_the_bound_matrices(self, rows):
        # against the interval arithmetic of the oracle, since
        # delta_bound_matrices is built from exact_bounds
        events, times = label_arrays(rows)
        lo, hi, theta = delta_bound_matrices(events, times)
        want_lo, want_hi = oracle_bounds(events, times)
        bits = np.uint64
        assert np.array_equal(lo.view(bits), want_lo.view(bits))
        assert np.array_equal(hi.view(bits), want_hi.view(bits))
        lo_exact, hi_exact = exact_bounds(events, times)
        assert np.array_equal(lo_exact, want_lo == theta)
        assert np.array_equal(hi_exact, want_hi == theta)
        # k = a: lo = 0 = theta always; hi = 0 only if uncensored
        assert lo_exact.diagonal().all()
        assert np.array_equal(hi_exact.diagonal(), events == 1)

    @given(label_rows, st.sampled_from(["drawn", "none", "all"]))
    @settings(max_examples=200)
    def test_anchor_pair_sets_match_the_broadcast_oracle(self, rows, censored):
        # the rule read from the labels against the same rule compared on
        # the float bound matrices, with no, all or a drawn share censored
        events, times = label_arrays(rows)
        if censored != "drawn":
            events[:] = censored == "none"
        want_neg, want_unc = broadcast_pair_sets(events, times)
        anchors = list(anchor_pair_sets(events, times))
        assert len(anchors) == len(times)
        for a, (neg, unc) in enumerate(anchors):
            assert np.array_equal(neg, want_neg[a])
            assert np.array_equal(unc, want_unc[a])


class TestProperties:
    @given(patient_batches())
    def test_exhaustive_and_exclusive(self, batch):
        for a in range(len(batch)):
            for p in range(len(batch)):
                if p == a:
                    continue
                sets = build_pair_sets(batch, a, p)
                assert sets.negatives.isdisjoint(sets.uncertains)
                for k in range(len(batch)):
                    if k == a:
                        continue
                    n_hit = k in sets.negatives
                    u_hit = k in sets.uncertains
                    assert not (n_hit and u_hit)

    @given(patient_batches())
    def test_no_censoring_means_no_uncertains(self, batch):
        batch = [P(1, b.time, b.id) for b in batch]
        for a in range(len(batch)):
            for p in range(len(batch)):
                if p == a:
                    continue
                sets = build_pair_sets(batch, a, p)
                assert sets.uncertains == frozenset()
                # crisp definition: k with |dT(a,k)| >= |dT(a,p)|
                theta = pair_threshold(batch[a], batch[p])
                crisp = {
                    k for k in range(len(batch))
                    if k != a and abs(batch[a].time - batch[k].time) >= theta
                }
                assert sets.negatives == crisp

    @given(patient_batches())
    @settings(max_examples=50)
    def test_tensor_matches_scalar_path(self, batch):
        events = np.array([b.event for b in batch])
        times = np.array([b.time for b in batch])
        codes = classification_tensor(events, times)
        neg, unc = pair_set_masks(events, times)
        for a in range(len(batch)):
            for p in range(len(batch)):
                if p == a:
                    continue
                sets = build_pair_sets(batch, a, p)
                for k in range(len(batch)):
                    if k == a:
                        continue
                    expected = (NEGATIVE_CODE if k in sets.negatives
                                else UNCERTAIN_CODE if k in sets.uncertains
                                else DISREGARD_CODE)
                    assert codes[a, p, k] == expected
                    assert neg[a, p, k] == (k in sets.negatives)
                    assert unc[a, p, k] == (k in sets.uncertains)

    def test_six_censoring_combinations_reachable(self):
        # anchor/positive censored or not, positive earlier or later
        combos = set()
        grid = [0.0, 10.0, 25.0, 50.0, 75.0, 100.0]
        for ea in (0, 1):
            for ep in (0, 1):
                for ta in grid:
                    for tp in grid:
                        if ta == tp:
                            continue
                        combos.add((ea, ep, tp > ta))
                        a, p = P(ea, ta), P(ep, tp)
                        k = P(0, 50.0)
                        assert classify(a, p, k) in PairClass
        assert len(combos) == 8  # two censor flags each, both orders

    def test_oracle_agreement_small_batches(self):
        grid = [0.0, 10.0, 25.0, 50.0, 75.0, 100.0]
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            batch = [P(int(rng.integers(0, 2)), grid[rng.integers(len(grid))], f"p{i}")
                     for i in range(n)]
            for a in range(n):
                for p in range(n):
                    if p == a:
                        continue
                    for k in range(n):
                        if k == a:
                            continue
                        assert classify(batch[a], batch[p], batch[k]) is \
                            oracle_classify(batch[a], batch[p], batch[k], horizon=500.0)
