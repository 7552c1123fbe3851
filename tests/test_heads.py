import itertools
import math
import re

import numpy as np
import pytest

from survrnc.core import TimeGrid
from survrnc.heads import (
    deephit_loss_and_grad,
    mtlr_loss_and_grad,
    pmf_from_logits,
    risk_score,
    survival_curve,
)

GRID3 = TimeGrid(np.array([1.0, 2.0, 3.0]))  # K = 3, K+1 = 4 bins
GRID1 = TimeGrid(np.array([10.0]))           # K = 1, K+1 = 2 bins


def mtlr_value(*args):
    return mtlr_loss_and_grad(*args)[0]


def deephit_value(*args, **kwargs):
    return deephit_loss_and_grad(*args, **kwargs)[0]


class TestPmfFromLogits:
    def test_uniform(self):
        pmf = pmf_from_logits([[0.0, 0.0, 0.0, 0.0]])
        assert np.allclose(pmf, 0.25, atol=1e-15)

    def test_closed_form_two_bins(self):
        pmf = pmf_from_logits([[math.log(2), 0.0]])
        assert pmf[0] == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        pmf = pmf_from_logits(rng.standard_normal((50, 6)) * 20)
        assert np.abs(pmf.sum(axis=1) - 1.0).max() < 1e-12


class TestSurvivalCurve:
    def test_uniform_pmf(self):
        curve = survival_curve(np.full((1, 4), 0.25))
        assert curve == pytest.approx(np.array([[0.75, 0.5, 0.25]]), abs=1e-12)

    def test_mass_in_terminal_bin(self):
        curve = survival_curve(np.array([[0.0, 0.0, 0.0, 1.0]]))
        assert np.allclose(curve, 1.0)

    def test_mass_in_first_bin(self):
        curve = survival_curve(np.array([[1.0, 0.0, 0.0, 0.0]]))
        assert np.allclose(curve, 0.0)

    def test_non_increasing_for_random_logits(self):
        rng = np.random.default_rng(1)
        pmf = pmf_from_logits(rng.standard_normal((1000, 4)) * 10)
        curve = survival_curve(pmf)
        assert np.all(np.diff(curve, axis=1) <= 1e-15)
        assert curve.min() >= 0.0
        assert curve.max() <= 1.0 + 1e-15


def brute_force_censored_likelihood(pmf_row, time, grid):
    """Enumerate bins consistent with a censoring time: upper edge > T."""
    edges = list(grid.cut_points) + [math.inf]
    return sum(p for p, edge in zip(pmf_row, edges) if edge > time)


class TestMtlrLoss:
    def test_uniform_uncensored_first_bin(self):
        value = mtlr_value([[0.0, 0.0]], [1], [5.0], GRID1)
        assert value == pytest.approx(-math.log(0.5), abs=1e-12)

    def test_censored_beyond_last_cut(self):
        value = mtlr_value([[0.0, 0.0]], [0], [11.0], GRID1)
        assert value == pytest.approx(-math.log(0.5), abs=1e-12)

    def test_censored_inside_first_bin_costs_nothing(self):
        grid = TimeGrid(np.array([1.0, 2.0]))
        value = mtlr_value([[0.0, 0.0, 0.0]], [0], [0.5], grid)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_censored_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(2)
        for width, grid in ((2, GRID1), (4, GRID3)):
            for _ in range(50):
                logits = rng.standard_normal((1, width)) * 3
                time = float(rng.uniform(0, 5))
                pmf = pmf_from_logits(logits)[0]
                expected = -math.log(
                    brute_force_censored_likelihood(pmf, time, grid))
                got = mtlr_value(logits, [0], [time], grid)
                assert got == pytest.approx(expected, abs=1e-12)

    def test_censored_term_never_exceeds_uncensored(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            logits = rng.standard_normal((1, 4)) * 2
            time = float(rng.uniform(0, 4))
            cens = mtlr_value(logits, [0], [time], GRID3)
            uncens = mtlr_value(logits, [1], [time], GRID3)
            assert cens <= uncens + 1e-12

    def test_batch_is_mean(self):
        logits = np.array([[0.5, -0.2, 0.1, 0.3], [1.0, 0.0, -1.0, 0.2]])
        single = [
            mtlr_value(logits[i:i + 1], [1], [t], GRID3)
            for i, t in enumerate([0.5, 2.5])
        ]
        both = mtlr_value(logits, [1, 1], [0.5, 2.5], GRID3)
        assert both == pytest.approx(np.mean(single), abs=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match=re.escape(
                "logits shape (1, 2) is not (B, K+1 = 4)")):
            mtlr_value([[0.0, 0.0]], [1], [1.0], GRID3)

    @pytest.mark.parametrize("loss", [mtlr_value, deephit_value])
    @pytest.mark.parametrize("logits", [[[0.0, 0.0]], [0.0] * 4], ids=["width", "1d"])
    def test_logits_must_be_b_by_k_plus_1(self, loss, logits):
        with pytest.raises(ValueError, match=re.escape(
                f"logits shape {np.shape(logits)} is not (B, K+1 = 4)")):
            loss(logits, [1], [1.0], GRID3)

    @pytest.mark.parametrize("loss_and_grad", [mtlr_loss_and_grad, deephit_loss_and_grad])
    @pytest.mark.parametrize("gap", [745.0, 800.0])
    def test_censored_gradient_at_large_logit_gap(self, loss_and_grad, gap):
        # one row censored in the third bin, its mass all in the first: the
        # pmf of the held bins, exp(-gap), is subnormal (745) or 0 (800)
        def row(g):
            return loss_and_grad(np.array([[g, 0.0, 0.0, 0.0]]), [0], [2.5], GRID3)[1][0]
        got, limit = row(gap), row(700.0)
        assert np.all(np.isfinite(got))
        assert np.abs(got - limit).max() <= 1e-12

    def test_grad_matches_central_differences(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((5, 4))
        events = np.array([1, 0, 1, 0, 0])
        times = rng.uniform(0, 4, 5)
        grad = mtlr_loss_and_grad(logits, events, times, GRID3)[1]
        fd = _fd_logits(lambda lg: mtlr_value(lg, events, times, GRID3), logits)
        assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-8) < 1e-4


class TestDeephitLoss:
    def test_batch_of_one_has_no_rank_term(self):
        logits = np.array([[0.3, -0.1, 0.2, 0.0]])
        like = mtlr_value(logits, [1], [1.5], GRID3)
        full = deephit_value(logits, [1], [1.5], GRID3, sigma=1.0,
                             rank_weight=0.5)
        assert full == pytest.approx(like, abs=1e-15)

    def test_correct_ordering_beats_exp_zero(self):
        # model F higher for the earlier patient at its own time
        logits = np.array([[3.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 3.0]])
        events = [1, 1]
        times = [0.5, 2.5]
        like = mtlr_value(logits, events, times, GRID3)
        full = deephit_value(logits, events, times, GRID3, sigma=1.0,
                             rank_weight=1.0)
        assert full - like < 1.0  # rank term below exp(0) per admissible pair

    def test_uniform_pmf_equal_incidence_gives_exactly_one(self):
        logits = np.zeros((2, 4))
        events = [1, 1]
        times = [0.5, 2.5]
        like = mtlr_value(logits, events, times, GRID3)
        full = deephit_value(logits, events, times, GRID3, sigma=1.0,
                             rank_weight=1.0)
        assert full - like == pytest.approx(1.0, abs=1e-12)

    def test_rank_term_permutation_invariant(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((6, 4))
        events = np.array([1, 1, 0, 1, 0, 1])
        times = rng.uniform(0, 4, 6)
        base = deephit_value(logits, events, times, GRID3)
        perm = rng.permutation(6)
        shuffled = deephit_value(logits[perm], events[perm], times[perm], GRID3)
        assert shuffled == pytest.approx(base, rel=1e-12)

    def test_zero_rank_when_no_admissible_pair(self):
        # all censored except one event at the latest time
        logits = np.random.default_rng(6).standard_normal((3, 4))
        events = [0, 0, 1]
        times = [1.0, 2.0, 3.5]
        like = mtlr_value(logits, events, times, GRID3)
        full = deephit_value(logits, events, times, GRID3)
        assert full == pytest.approx(like, abs=1e-15)

    def test_grad_matches_central_differences(self):
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((5, 4))
        events = np.array([1, 0, 1, 1, 0])
        times = rng.uniform(0, 4, 5)
        grad = deephit_loss_and_grad(logits, events, times, GRID3,
                                     sigma=0.3, rank_weight=0.7)[1]
        fd = _fd_logits(
            lambda lg: deephit_value(lg, events, times, GRID3,
                                     sigma=0.3, rank_weight=0.7), logits)
        assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-8) < 1e-4


class TestPinned:
    """Both heads' value and gradient on one fixed batch, bit for bit:
    fixed-seed histories and checkpoints depend on these exact numbers.
    The batch has a tied time and admissible pairs for the ranking term."""

    LOGITS = np.array([[0.5, -1.0, 0.25, 2.0], [-0.75, 1.5, 0.0, -0.5],
                       [1.0, 1.0, -2.0, 0.5], [0.0, -0.25, 0.75, -1.5]])
    EVENTS = np.array([1, 0, 1, 1])
    TIMES = np.array([0.5, 1.5, 1.5, 3.5])

    def test_mtlr(self):
        value, grad = mtlr_loss_and_grad(self.LOGITS, self.EVENTS,
                                         self.TIMES, GRID3)
        assert value == 1.4591344406193043
        assert grad.tolist() == [
            [-0.21144129367895945, 0.008603610316530052, 0.03002955067704671,
             0.17280813268538267],
            [0.018000165396041767, -0.013250366789742313, -0.0029565564638206407,
             -0.0017932421424787758],
            [0.0941152473430407, -0.15588475265695928, 0.004685722253926394,
             0.05708378305999215],
            [0.06069536062584693, 0.047269594384210904, 0.12849207945323024,
             -0.23645703446328808]]

    def test_deephit(self):
        value, grad = deephit_loss_and_grad(self.LOGITS, self.EVENTS,
                                            self.TIMES, GRID3, 0.3, 0.7)
        assert value == 2.2543404305618786
        assert grad.tolist() == [
            [-0.5311185389721904, 0.021611374304867967, 0.07543110810606769,
             0.4340760565612547],
            [0.04763174493090788, -0.035062905105792325, -0.007823591631524643,
             -0.004745248193590871],
            [0.3627219218171153, -0.34789734095153196, -0.0011245657240409003,
             -0.013700015141542385],
            [0.23234676923652378, 0.03278773519384105, -0.0136914375314163,
             -0.2514430668989485]]


def _fd_logits(fn, logits, h=1e-6):
    fd = np.zeros_like(logits)
    for idx in np.ndindex(*logits.shape):
        plus, minus = logits.copy(), logits.copy()
        plus[idx] += h
        minus[idx] -= h
        fd[idx] = (fn(plus) - fn(minus)) / (2 * h)
    return fd


class TestRiskScore:
    def test_full_survival_lowest_risk(self):
        curve = survival_curve(np.array([[0.0, 0.0, 0.0, 1.0]]))
        assert risk_score(curve, GRID3)[0] == pytest.approx(-3.0, abs=1e-12)

    def test_no_survival_highest_risk(self):
        curve = survival_curve(np.array([[1.0, 0.0, 0.0, 0.0]]))
        assert risk_score(curve, GRID3)[0] == pytest.approx(0.0, abs=1e-12)

    def test_uniform_pmf(self):
        curve = survival_curve(np.full((1, 4), 0.25))
        assert risk_score(curve, GRID3)[0] == pytest.approx(-1.5, abs=1e-12)

    def test_antitone_in_survival(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            pmf = pmf_from_logits(rng.standard_normal((1, 4)))
            lower = survival_curve(pmf)
            higher = np.clip(lower + 0.05, 0, 1)
            assert risk_score(higher, GRID3)[0] < risk_score(lower, GRID3)[0]
