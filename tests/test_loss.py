import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (LengthMismatchError, build_pair_sets, dense_loss_and_grad,
                     pair_likelihood, similarity)
from survrnc.core import LossConfig, Patient
from survrnc.loss import (LINEAR_SPREAD, EmbeddingBatch, survrnc_loss,
                          survrnc_loss_and_grad)

CFG = LossConfig(temperature=2.0, lam=0.5, beta=1.0)


def batch_of(embeddings, events, times):
    return EmbeddingBatch(np.asarray(embeddings, float),
                          np.asarray(events, int),
                          np.asarray(times, float))


def random_batch(rng, n=6, d=4, censoring=0.4):
    emb = rng.standard_normal((n, d))
    events = (rng.random(n) > censoring).astype(int)
    events[rng.integers(n)] = 1
    times = rng.uniform(0, 100, n)
    return batch_of(emb, events, times)


class TestSimilarity:
    def test_identical_vectors(self):
        assert similarity(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_three_four_five(self):
        assert similarity(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == -5.0

    def test_one_dimensional(self):
        assert similarity(np.array([1.0]), np.array([-1.0])) == -2.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            similarity(np.array([1.0]), np.array([1.0, 2.0]))


class TestPairLikelihood:
    def test_positive_alone_gives_one(self):
        b = batch_of([[0.0, 0.0], [3.0, 4.0]], [1, 1], [10.0, 10.0])
        sets = build_pair_sets(_patients(b), 0, 1)
        assert pair_likelihood(b, 0, 1, sets, CFG) == 1.0

    def test_worked_scalar_example(self):
        # tau=2, sim(a,p)=-1, negatives {p, k1} with sim -3, uncertain k2 with
        # sim -2, lambda=0.5; expected value from direct scalar arithmetic
        emb = np.array([[0.0], [1.0], [3.0], [2.0]])
        # times chosen so k1 is negative and k2 uncertain for pair (0, 1)
        events = np.array([1, 1, 1, 0])
        times = np.array([100.0, 50.0, 200.0, 60.0])
        b = batch_of(emb, events, times)
        sets = build_pair_sets(_patients(b), 0, 1)
        assert sets.negatives == {1, 2}
        assert sets.uncertains == {3}
        expected = math.exp(-0.5) / (
            math.exp(-0.5) + math.exp(-1.5) + 0.5 * math.exp(-1.0))
        got = pair_likelihood(b, 0, 1, sets, CFG)
        assert got == pytest.approx(expected, abs=1e-12)
        assert round(got, 4) == 0.5984

    def test_lambda_zero_drops_uncertains(self):
        emb = np.array([[0.0], [1.0], [3.0], [2.0]])
        b = batch_of(emb, [1, 1, 1, 0], [100.0, 50.0, 200.0, 60.0])
        sets = build_pair_sets(_patients(b), 0, 1)
        got = pair_likelihood(b, 0, 1, sets, LossConfig(2.0, 0.0, 1.0))
        expected = math.exp(-0.5) / (math.exp(-0.5) + math.exp(-1.5))
        assert got == pytest.approx(expected, abs=1e-12)
        assert round(got, 4) == 0.7311

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bounded_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        b = random_batch(rng)
        for a in range(b.size):
            for p in range(b.size):
                if p == a:
                    continue
                sets = build_pair_sets(_patients(b), a, p)
                val = pair_likelihood(b, a, p, sets, CFG)
                assert 0.0 < val <= 1.0


def _patients(batch):
    return [Patient(f"p{i}", np.zeros(1), int(e), float(t))
            for i, (e, t) in enumerate(zip(batch.events, batch.times))]


class TestSurvrncLoss:
    def test_duplicated_pair_is_zero(self):
        b = batch_of([[1.0, 2.0], [1.0, 2.0]], [1, 1], [5.0, 5.0])
        assert survrnc_loss(b, CFG) == 0.0

    def test_three_identical_embeddings_hand_value(self):
        b = batch_of(np.ones((3, 2)), [1, 1, 1], [1.0, 2.0, 3.0])
        assert survrnc_loss(b, CFG) == pytest.approx(4 / 6 * math.log(2), abs=1e-12)

    def test_ordered_embeddings_beat_identical(self):
        cfg = LossConfig(temperature=1.0, lam=0.5, beta=1.0)
        identical = batch_of(np.ones((3, 1)), [1, 1, 1], [1.0, 2.0, 3.0])
        ordered = batch_of([[0.0], [1.0], [2.0]], [1, 1, 1], [1.0, 2.0, 3.0])
        assert survrnc_loss(ordered, cfg) < survrnc_loss(identical, cfg)

    def test_matches_per_pair_composition(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            b = random_batch(rng, n=int(rng.integers(3, 7)))
            pats = _patients(b)
            total = 0.0
            for a in range(b.size):
                for p in range(b.size):
                    if p == a:
                        continue
                    sets = build_pair_sets(pats, a, p)
                    total += -math.log(pair_likelihood(b, a, p, sets, CFG))
            expected = total / (b.size * (b.size - 1))
            assert survrnc_loss(b, CFG) == pytest.approx(expected, rel=1e-12)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(3)
        b = random_batch(rng, n=7, d=5)
        rot, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        shift = rng.standard_normal(5)
        moved = batch_of(b.embeddings @ rot.T + shift, b.events, b.times)
        assert survrnc_loss(moved, CFG) == pytest.approx(survrnc_loss(b, CFG),
                                                         rel=1e-9)

    def test_temperature_limit_is_structure_constant(self):
        rng = np.random.default_rng(4)
        cfg = LossConfig(temperature=1e6, lam=0.5, beta=1.0)
        b = random_batch(rng, n=6)
        other = batch_of(rng.standard_normal(b.embeddings.shape) * 5,
                         b.events, b.times)
        assert survrnc_loss(b, cfg) == pytest.approx(survrnc_loss(other, cfg),
                                                     abs=1e-3)

    def test_uncensored_loss_independent_of_lambda_bitwise(self):
        rng = np.random.default_rng(5)
        emb = rng.standard_normal((6, 3))
        times = rng.uniform(0, 50, 6)
        values = {
            lam: survrnc_loss(batch_of(emb, np.ones(6, int), times),
                              LossConfig(2.0, lam, 1.0))
            for lam in (0.0, 0.5, 1.0)
        }
        assert values[0.0] == values[0.5] == values[1.0]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        b = random_batch(rng, n=int(rng.integers(2, 8)))
        assert survrnc_loss(b, CFG) >= 0.0

    def test_lambda_endpoints_match_merge_and_drop_variants(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            b = random_batch(rng, n=int(rng.integers(3, 8)), censoring=0.5)
            pats = _patients(b)
            for lam, variant in ((1.0, "merge"), (0.0, "drop")):
                got = survrnc_loss(b, LossConfig(2.0, lam, 1.0))
                expected = _crisp_variant_loss(b, pats, 2.0, variant)
                assert got == pytest.approx(expected, abs=1e-12)


def _crisp_variant_loss(batch, patients, tau, variant):
    """Independent direct implementation with U merged into N or dropped."""
    n = batch.size
    total = 0.0
    for a in range(n):
        for p in range(n):
            if p == a:
                continue
            sets = build_pair_sets(patients, a, p)
            members = set(sets.negatives)
            if variant == "merge":
                members |= set(sets.uncertains)
            num = math.exp(similarity(batch.embeddings[a], batch.embeddings[p]) / tau)
            den = sum(
                math.exp(similarity(batch.embeddings[a], batch.embeddings[k]) / tau)
                for k in members)
            total += -math.log(num / den)
    return total / (n * (n - 1))


class TestSurvrncLossGrad:
    def test_duplicated_pair_zero_gradient(self):
        b = batch_of([[1.0, 2.0], [1.0, 2.0]], [1, 1], [5.0, 5.0])
        assert np.all(survrnc_loss_and_grad(b, CFG)[1] == 0.0)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        b = random_batch(rng, n=6, d=4)
        grad = survrnc_loss_and_grad(b, CFG)[1]
        fd = _central_differences(b, CFG)
        err = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-8)
        assert err < 1e-4

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(8)
        b = random_batch(rng, n=7, d=3)
        grad = survrnc_loss_and_grad(b, CFG)[1]
        scale = max(np.abs(grad).max(), 1e-12)
        assert np.abs(grad.sum(axis=0)).max() / scale < 1e-10

    def test_loss_and_grad_consistent_with_separate_calls(self):
        rng = np.random.default_rng(9)
        b = random_batch(rng)
        value, grad = survrnc_loss_and_grad(b, CFG)
        assert value == survrnc_loss(b, CFG)
        assert np.array_equal(grad, survrnc_loss_and_grad(b, CFG)[1])


def _central_differences(batch, cfg, h=1e-5):
    fd = np.zeros_like(batch.embeddings)
    for i in range(batch.embeddings.shape[0]):
        for j in range(batch.embeddings.shape[1]):
            plus = batch.embeddings.copy()
            minus = batch.embeddings.copy()
            plus[i, j] += h
            minus[i, j] -= h
            fd[i, j] = (
                survrnc_loss(EmbeddingBatch(plus, batch.events, batch.times), cfg)
                - survrnc_loss(EmbeddingBatch(minus, batch.events, batch.times), cfg)
            ) / (2 * h)
    return fd


class TestOracleAgreement:
    """The production kernel must match the dense O(B^3) oracle."""

    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.booleans(),
           st.sampled_from([0.0, 0.37, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_oracle(self, seed, n, two_view, lam):
        rng = np.random.default_rng(seed)
        emb = rng.standard_normal((n, 3)) * rng.uniform(0.1, 3)
        events = rng.integers(0, 2, n)
        times = rng.choice([0.0, 5.0, 10.0, 25.0, 50.0], n)  # many ties
        if two_view:  # views of one patient share labels
            times[1::2] = times[0::2][: n // 2]
            events[1::2] = events[0::2][: n // 2]
        b = EmbeddingBatch(emb, events, times)
        cfg = LossConfig(float(rng.uniform(0.3, 4.0)), lam, 1.0)
        v1, g1 = dense_loss_and_grad(b, cfg)
        v2, g2 = survrnc_loss_and_grad(b, cfg)
        assert abs(v1 - v2) <= 1e-12 * max(abs(v1), 1.0)
        scale = max(np.abs(g1).max(), 1e-9)
        assert np.abs(g1 - g2).max() / scale < 1e-8

    @pytest.mark.parametrize("lam", [0.0, 0.01, 0.37, 1.0])
    @pytest.mark.parametrize("case", [
        "all_times_equal", "single_event", "single_event_b64", "two_events",
        "two_censored", "event_and_later_censored", "two_views_censored",
        "two_view_b96", "two_view_far_outlier"])
    def test_tie_groups_and_edges_match_dense_oracle(self, case, lam):
        rng = np.random.default_rng(17)
        n = {"all_times_equal": 9, "single_event": 12, "single_event_b64": 64,
             "two_view_b96": 96, "two_view_far_outlier": 24}.get(case, 2)
        emb = rng.standard_normal((n, 3))
        events = rng.integers(0, 2, n)
        times = rng.uniform(0, 100, n)
        if case == "all_times_equal":  # one tie group holds the whole row
            times[:] = 30.0
        elif case == "single_event":  # every H row but one is constant
            events[:] = 0
            events[4] = 1
        elif case == "single_event_b64":  # one uncensored view, two-view times
            events = np.zeros(n, int)
            events[17] = 1
            times = np.repeat(rng.choice([5.0, 10.0, 20.0, 40.0, 80.0], 32), 2)
        elif case == "two_view_b96":  # 60% censored, time ties across patients
            events = np.repeat((rng.random(48) > 0.6).astype(int), 2)
            times = np.repeat(rng.choice([5.0, 10.0, 20.0, 40.0, 80.0], 48), 2)
        elif case == "two_view_far_outlier":  # log space, label rows shared
            events = np.repeat((rng.random(12) > 0.6).astype(int), 2)
            times = np.repeat(rng.choice([0.0, 10.0, 20.0], 12), 2)
            emb[7, 0] += 100.0  # 1000 tau from the rest
        else:
            events, times = {
                "two_events": ([1, 1], [10.0, 30.0]),
                "two_censored": ([0, 0], [30.0, 10.0]),
                "event_and_later_censored": ([1, 0], [10.0, 30.0]),
                "two_views_censored": ([0, 0], [30.0, 30.0]),
            }[case]
        b = EmbeddingBatch(emb, events, times)
        cfg = LossConfig(0.1, lam, 1.0)
        v1, g1 = dense_loss_and_grad(b, cfg)
        v2, g2 = survrnc_loss_and_grad(b, cfg)
        assert abs(v1 - v2) <= 1e-12 * max(abs(v1), 1.0)
        scale = max(np.abs(g1).max(), 1e-9)
        assert np.abs(g1 - g2).max() / scale < 1e-8

    def test_largest_batch_in_envelope(self):
        # 512 views of 256 patients, 60% censored: finite without warnings,
        # translation-invariant gradient, one value from both entry points
        rng = np.random.default_rng(18)
        events = np.repeat((rng.random(256) > 0.6).astype(int), 2)
        times = np.repeat(rng.uniform(0, 100, 256), 2)
        b = EmbeddingBatch(rng.standard_normal((512, 32)), events, times)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value, grad = survrnc_loss_and_grad(b, CFG)
            assert survrnc_loss(b, CFG) == value
        assert np.isfinite(value) and np.all(np.isfinite(grad))
        assert np.abs(grad.sum(axis=0)).max() / np.abs(grad).max() < 1e-10

    @given(st.integers(0, 2**32 - 1), st.integers(3, 11),
           st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_far_outlier_fuzz_matches_dense_oracle(self, seed, n, lam):
        # one member 3000 sd away: its similarities underflow exp, and
        # about the batch mean the others' norms dwarf their distances, so
        # |a|^2 + |b|^2 - 2 a.b would cancel there
        rng = np.random.default_rng(seed)
        emb = rng.standard_normal((n, 3))
        emb[rng.integers(n)] += 3000.0 * rng.standard_normal(3)
        events = (rng.random(n) < 0.6).astype(int)
        times = rng.integers(1, 6, n).astype(float)
        b = EmbeddingBatch(emb, events, times)
        cfg = LossConfig(2.0, lam, 1.0)
        v1, g1 = dense_loss_and_grad(b, cfg)
        v2, g2 = survrnc_loss_and_grad(b, cfg)
        assert abs(v1 - v2) <= 1e-12 * max(abs(v1), 1.0)
        assert np.abs(g1 - g2).max() <= 1e-8 * np.abs(g1).max()

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("side", [-0.5, 0.5])
    def test_either_side_of_the_linear_spread(self, side, lam):
        # views on a line 0, 1, 2, ..., and one at `far`: the row of view 0
        # spans (far - 1) / tau, the widest, and sits `side` from where
        # the kernel turns from linear to log space; the others stay linear
        n, tau = 8, 1.0
        far = LINEAR_SPREAD - np.log(n + 1) + 1.0 + side
        emb = np.zeros((n, 2))
        emb[:, 0] = np.arange(n)
        emb[-1, 0] = far
        spans = [np.ptp(np.delete(np.abs(emb[:, 0] - emb[a, 0]), a)) / tau
                 for a in range(n)]
        assert (max(spans) + np.log(n + 1) < LINEAR_SPREAD) == (side < 0)
        assert sorted(spans)[-2] + np.log(n + 1) < LINEAR_SPREAD
        rng = np.random.default_rng(19)
        events = rng.integers(0, 2, n)
        events[0] = 1
        times = rng.choice([1.0, 2.0, 3.0], n)
        b = EmbeddingBatch(emb, events, times)
        cfg = LossConfig(tau, lam, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v2, g2 = survrnc_loss_and_grad(b, cfg)
        v1, g1 = dense_loss_and_grad(b, cfg)
        assert abs(v1 - v2) <= 1e-12 * max(abs(v1), 1.0)
        assert np.abs(g1 - g2).max() <= 1e-8 * np.abs(g1).max()

    def test_far_outlier_stays_finite_and_exact(self):
        # one view 3000 units from the rest: exp(sim / tau) = exp(-1500)
        # underflows, so every denominator that holds only the outlier
        # would be 0 in linear space
        rng = np.random.default_rng(16)
        emb = rng.standard_normal((64, 2))
        emb[0] += 3000.0
        events = (rng.random(64) > 0.4).astype(int)
        b = EmbeddingBatch(emb, events, rng.uniform(0, 100, 64))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value, grad = survrnc_loss_and_grad(b, CFG)
        assert np.isfinite(value) and np.all(np.isfinite(grad))
        dense_value, dense_grad = dense_loss_and_grad(b, CFG)
        assert value == pytest.approx(dense_value, rel=1e-12)
        assert np.abs(grad - dense_grad).max() / np.abs(dense_grad).max() < 1e-8
        fd = _central_differences(b, CFG)
        assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-4


def assert_matches_untwinned(batch, cfg):
    """The value and gradient of `batch` equal, within 1e-12 relative,
    those of its rows rolled by one place: each row pair (2i, 2i + 1) then
    holds two patients, so the kernel does the label work once per row
    instead of once per patient."""
    value, grad = survrnc_loss_and_grad(batch, cfg)
    perm = np.roll(np.arange(batch.size), 1)
    events, times = batch.events[perm], batch.times[perm]
    assert not (np.array_equal(events[::2], events[1::2])
                and np.array_equal(times[::2], times[1::2]))
    moved_value, moved_grad = survrnc_loss_and_grad(
        EmbeddingBatch(batch.embeddings[perm], events, times), cfg)
    back = np.empty_like(moved_grad)
    back[perm] = moved_grad
    assert abs(moved_value - value) <= 1e-12 * abs(value)
    assert np.abs(back - grad).max() <= 1e-12 * np.abs(grad).max()
    return value, grad


class TestTwinRows:
    """A two-view batch (rows 2i and 2i + 1 are views of one patient, with
    equal labels) shares each patient's label work between its views; it
    must give what the same rows in an order without that structure give."""

    @given(st.integers(0, 2**32 - 1), st.integers(2, 24),
           st.sampled_from([0.0, 0.3, 0.6, 1.0]), st.sampled_from([0.0, 0.37, 1.0]),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_batch_reordered(self, seed, patients, censored, lam, far):
        rng = np.random.default_rng(seed)
        events = (rng.random(patients) >= censored).astype(int)
        times = rng.choice([0.0, 5.0, 10.0, 25.0, 50.0], patients)  # tied and zero
        # with one label for every patient, any order is two-view
        assume(len(set(zip(events, times))) > 1)
        n, tau = 2 * patients, float(rng.uniform(0.3, 4.0))
        emb = rng.standard_normal((n, 3)) * rng.uniform(0.1, 3)
        if far:  # one view >= 700 tau from the rest: summed in log space
            emb[rng.integers(n), 0] += 1000.0 * tau
        b = EmbeddingBatch(emb, np.repeat(events, 2), np.repeat(times, 2))
        assert_matches_untwinned(b, LossConfig(tau, lam, 1.0))

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("case", ["all_times_equal", "one_event", "far_view"])
    def test_b512_families(self, case, lam):
        # 512 views of 256 patients, 60% censored: finite without warnings,
        # translation-invariant, and equal to the batch reordered
        rng = np.random.default_rng(21)
        events = (rng.random(256) > 0.6).astype(int)
        times = rng.uniform(0, 100, 256)
        emb = rng.standard_normal((512, 32))
        cfg = LossConfig(2.0, lam, 1.0)
        if case == "all_times_equal":
            times[:] = 30.0
        elif case == "one_event":  # one event patient among censored ones
            events[:] = 0
            events[37] = 1
        else:  # one view >= 700 tau from the rest: summed in log space
            emb[101, 0] += 800.0 * cfg.temperature
        b = EmbeddingBatch(emb, np.repeat(events, 2), np.repeat(times, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value, grad = assert_matches_untwinned(b, cfg)
            shifted = EmbeddingBatch(emb + 3.0, b.events, b.times)
            assert survrnc_loss(shifted, cfg) == pytest.approx(value, rel=1e-12)
        assert np.isfinite(value) and np.all(np.isfinite(grad))
        assert np.abs(grad.sum(axis=0)).max() / np.abs(grad).max() < 1e-10


class TestEmbeddingBatch:
    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            batch_of([[1.0]], [1], [1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            batch_of([[1.0], [np.nan]], [1, 1], [1.0, 2.0])

    def test_rejects_misaligned_labels(self):
        with pytest.raises(ValueError):
            batch_of([[1.0], [2.0]], [1], [1.0, 2.0])
