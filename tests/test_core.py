import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import direct_sq_distances, loop_violations
from survrnc.core import (
    GUARD_KAPPA,
    Dataset,
    DegenerateTimesWarning,
    LossConfig,
    Patient,
    TimeGrid,
    ValidationError,
    discretize_time,
    sq_distance_rows,
)
from survrnc.data import SynthConfig, generate_synthetic, load_csv, write_table


def make_dataset(rows, names=("x1", "x2")):
    patients = tuple(
        Patient(pid, feats, event, time) for pid, feats, event, time in rows
    )
    return Dataset(patients, names)


VALID_ROWS = [
    ("a", [1.0, 2.0], 1, 10.0),
    ("b", [0.0, -1.0], 0, 5.0),
    ("c", [3.0, 4.0], 1, 7.5),
]


class TestDatasetConstruction:
    def test_valid_rows_build_the_same_patients(self):
        patients = tuple(Patient(*row) for row in VALID_ROWS)
        ds = Dataset(patients, ("x1", "x2"))
        assert ds.patients == patients
        assert ds.feature_names == ("x1", "x2")

    def test_negative_time(self):
        with pytest.raises(ValidationError) as exc:
            make_dataset(VALID_ROWS + [("d", [1.0, 1.0], 1, -1.0)])
        assert exc.value.codes() == {"NegativeTime"}
        assert any(v.patient_id == "d" for v in exc.value.violations)

    def test_all_censored(self):
        with pytest.raises(ValidationError) as exc:
            make_dataset([("a", [1.0, 2.0], 0, 10.0), ("b", [0.0, 1.0], 0, 5.0)])
        assert exc.value.codes() == {"AllCensored"}

    def test_bad_event_flag(self):
        with pytest.raises(ValidationError) as exc:
            make_dataset(VALID_ROWS + [("d", [1.0, 1.0], 2, 3.0)])
        assert exc.value.codes() == {"BadEventFlag"}

    def test_non_finite_feature(self):
        with pytest.raises(ValidationError) as exc:
            make_dataset(VALID_ROWS + [("d", [np.nan, 1.0], 1, 3.0)])
        assert exc.value.codes() == {"NonFiniteFeature"}

    def test_ragged_features(self):
        with pytest.raises(ValidationError) as exc:
            make_dataset(VALID_ROWS + [("d", [1.0], 1, 3.0)])
        assert exc.value.codes() == {"RaggedFeatures"}

    def test_duplicate_id(self):
        with pytest.raises(ValidationError) as exc:
            make_dataset(VALID_ROWS + [("a", [1.0, 1.0], 1, 3.0)])
        assert exc.value.codes() == {"DuplicateId"}

    def test_every_violation_reported(self):
        with pytest.raises(ValidationError) as exc:
            make_dataset([
                ("a", [1.0, 2.0], 1, -2.0),
                ("a", [np.inf, 0.0], 3, 1.0),
            ])
        assert exc.value.codes() == {
            "NegativeTime", "NonFiniteFeature", "BadEventFlag", "DuplicateId",
        }
        assert str(exc.value) == (
            "NegativeTime(a): time must be finite and >= 0, got -2.0; "
            "NonFiniteFeature(a): features contain NaN or infinity; "
            "BadEventFlag(a): event must be 0 or 1, got 3; "
            "DuplicateId(a): appears 2 times")

    def test_text_time_is_refused(self):
        # numpy would read "5" as 5.0; a Patient's time must be a number
        with pytest.raises(TypeError):
            make_dataset(VALID_ROWS + [("d", [1.0, 1.0], 1, "5")])

    def test_columns_are_read_only(self):
        built = make_dataset(VALID_ROWS)
        generated, _ = generate_synthetic(SynthConfig(n=10, d_in=2, seed=1))
        for ds in (built, generated):
            for column in (ds.feature_matrix(), ds.times(), ds.events()):
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = 0


NAMES = ("x1", "x2")
# ids that repeat, and ids the csv dialect has to quote
IDS = st.sampled_from(["a", "b", "c", "a,b", 'say "hi"', "two\nlines", "é", ""])
TWO_FEATURES = st.lists(st.floats(-10, 10) | st.sampled_from([math.nan, math.inf, -math.inf]),
                        min_size=2, max_size=2)
FEATURES = st.one_of(
    TWO_FEATURES,
    st.lists(st.floats(-10, 10), max_size=3),  # ragged unless two long
    st.just(np.zeros((1, 2))),
)
EVENTS = [0, 1, 2, -1, True, 1.0]
TIMES = st.floats(0, 1e6) | st.integers(-2, 2) | st.sampled_from(
    [-0.0, -1.0, -1e-300, math.nan, math.inf, -math.inf])


def patient_lists(features, events):
    return st.lists(st.builds(Patient, IDS, features, st.sampled_from(events), TIMES),
                    max_size=8)


def error_text(build) -> str:
    """The text of the `ValidationError` that `build()` raises, or ""."""
    try:
        build()
    except ValidationError as exc:
        return str(exc)
    return ""


def oracle_text(patients) -> str:
    violations = loop_violations(patients, NAMES)
    return str(ValidationError(violations)) if violations else ""


class TestValidationOracle:
    """The vectorized check gives the per-patient loop's violations, in its
    order, with its messages: built from `Patient`s and read from a CSV."""

    @given(patient_lists(FEATURES, [*EVENTS, 0.5, "1", None]))
    @settings(max_examples=100, deadline=None)
    def test_patients_checked_as_the_loop_checks_them(self, patients):
        assert error_text(lambda: Dataset(patients, NAMES)) == oracle_text(patients)

    @given(patient_lists(TWO_FEATURES, EVENTS))  # the rows a table can hold
    @settings(max_examples=50, deadline=None)
    def test_csv_checked_as_the_loop_checks_it(self, tmp_path_factory, patients):
        # the CSV gives a bad event or time as the float it reads
        path = tmp_path_factory.mktemp("oracle") / "data.csv"
        times = np.array([p.time for p in patients], dtype=float)
        write_table(path, NAMES, [p.id for p in patients], times,
                    [p.event for p in patients],
                    np.array([p.features for p in patients]).reshape(-1, 2))
        read = [Patient(p.id, p.features, int(p.event) if p.event in (0, 1)
                        else float(p.event), t) for p, t in zip(patients, times.tolist())]
        assert error_text(lambda: load_csv(path)) == oracle_text(read)

    def test_message_shows_the_value_as_given(self, tmp_path):
        rows = VALID_ROWS + [("d", [1.0, 1.0], 3, -1)]
        assert error_text(lambda: make_dataset(rows)) == (
            "NegativeTime(d): time must be finite and >= 0, got -1; "
            "BadEventFlag(d): event must be 0 or 1, got 3")
        path = tmp_path / "data.csv"
        path.write_text("id,time,event,x1,x2\na,1,1,0,0\nd,-1,3,1,1\n")
        assert error_text(lambda: load_csv(path)) == (
            "NegativeTime(d): time must be finite and >= 0, got -1.0; "
            "BadEventFlag(d): event must be 0 or 1, got 3.0")


def nearest_rank_quantile(sorted_values, k, num_bins):
    # independent oracle: ceil-rank rule on a sorted sample, in exact
    # rational arithmetic
    n = len(sorted_values)
    rank = math.ceil(Fraction(k, num_bins) * n)
    return sorted_values[rank - 1]


def cuts(times, events, num_bins):
    return discretize_time(np.array(times, dtype=float), np.array(events),
                           num_bins).cut_points.tolist()


class TestDiscretizeTime:
    def test_two_bins_matches_nearest_rank_oracle(self):
        times = [10.0, 20.0, 30.0, 40.0]
        expected = [nearest_rank_quantile(sorted(times), k, 2) for k in (1, 2)]
        assert expected == [20.0, 40.0]
        assert cuts(times, [1] * 4, 2) == expected

    @pytest.mark.parametrize("num_bins, expected", [
        (4, [25.0, 50.0, 75.0, 100.0]),
        # k n / K is an integer at every k; a float quotient put cut 11 at 56
        (20, [5.0 * k for k in range(1, 21)]),
    ])
    def test_uniform_hundred(self, num_bins, expected):
        times = [float(t) for t in range(1, 101)]
        assert [nearest_rank_quantile(times, k, num_bins)
                for k in range(1, num_bins + 1)] == expected
        assert cuts(times, [1] * 100, num_bins) == expected

    def test_degenerate_fallback(self):
        with pytest.warns(DegenerateTimesWarning):
            grid = discretize_time(np.array([7.0, 3.0, 7.0]), np.array([1, 0, 1]), 3)
        assert grid.cut_points.tolist() == [7.0]
        assert grid.num_bins == 1

    def test_censored_times_ignored(self):
        assert cuts([10.0, 20.0, 999.0], [1, 1, 0], 2) == [10.0, 20.0]

    @pytest.mark.parametrize("times, events", [
        ([0.0, 0.0, 3.0], [1, 1, 0]),  # every event at time 0
        ([2.0, 3.0], [0, 0]),  # no event
    ])
    def test_no_event_time_above_zero_is_a_validation_error(self, times, events):
        with pytest.raises(ValidationError) as info:
            cuts(times, events, 2)
        assert info.value.codes() == {"NoPositiveEventTime"}

    def test_order_invariance(self):
        times = [13.0, 2.0, 8.0, 21.0, 5.0, 34.0, 1.0, 55.0]
        events = [i % 2 for i in range(len(times))]
        assert cuts(times, events, 3) == cuts(times[::-1], events[::-1], 3)


class TestTimeGrid:
    def test_bin_index_examples(self):
        grid = TimeGrid(np.array([20.0, 40.0]))
        assert grid.bin_index(0.0) == 0
        assert grid.bin_index(19.9) == 0
        assert grid.bin_index(20.0) == 1  # tie goes to the later bin
        assert grid.bin_index(39.0) == 1
        assert grid.bin_index(40.0) == 2
        assert grid.bin_index(1e9) == 2

    @given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=2, max_size=20))
    def test_bin_index_monotone_and_covering(self, ts):
        grid = TimeGrid(np.array([1.0, 5.0, 9.0]))
        ts = sorted(ts)
        bins = [int(grid.bin_index(t)) for t in ts]
        assert bins == sorted(bins)
        assert all(0 <= b <= grid.num_bins for b in bins)

    def test_rejects_bad_cuts(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([]))


class TestLossConfig:
    def test_validates_ranges(self):
        with pytest.raises(ValueError):
            LossConfig(temperature=0.0)
        with pytest.raises(ValueError):
            LossConfig(lam=1.5)
        with pytest.raises(ValueError):
            LossConfig(beta=-0.1)
        cfg = LossConfig(temperature=2.0, lam=0.5, beta=1.0)
        assert cfg.lam == 0.5


def gamma(k):
    u = 2.0**-53
    return k * u / (1 - k * u)


def assembled(v, rows):
    """The blocks of `rows` rows written back into an n x n matrix; the
    entries no block covers (below the blocks' diagonals) are NaN."""
    n = v.shape[0]
    full = np.full((n, n), np.nan)
    blocks = sq_distance_rows(v)
    for start in range(0, n, rows):
        block = blocks(start, start + rows)
        assert block.shape == (min(rows, n - start), n - start)
        full[start:start + block.shape[0], start:] = block
    return full


def kappa_pair(rng, d, ratio):
    """Rows a, b with |a - b|^2 = ratio * (|a|^2 + |b|^2), then three zero
    rows, so every column's middle value is 0 and the rows are centred
    as they stand."""
    basis, _ = np.linalg.qr(rng.standard_normal((d, 2)))
    phi = np.arccos(1.0 - ratio)  # |a| = |b| = rho: |a - b|^2 = 2 rho^2 (1 - cos phi)
    rho = 10.0 ** rng.uniform(-3, 3)
    v = np.zeros((5, d))
    v[0] = rho * basis[:, 0]
    v[1] = rho * (np.cos(phi) * basis[:, 0] + np.sin(phi) * basis[:, 1])
    return v


class TestSqDistanceBlocks:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 40),
           st.sampled_from(["plain", "offset_1e6", "column_offsets", "outlier",
                            "duplicates"]))
    @settings(max_examples=200, deadline=None)
    def test_within_stated_bound_of_direct_oracle(self, seed, n, d, kind):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3)
        if kind == "offset_1e6":
            v += 1e6
        elif kind == "column_offsets":
            v += rng.uniform(-1e6, 1e6, d)
        elif kind == "outlier":
            v[rng.integers(n)] += 3000.0 * rng.standard_normal(d)
        elif kind == "duplicates":
            v[rng.integers(n, size=n)] = v[rng.integers(n, size=n)]
        got = assembled(v, int(rng.integers(1, n + 1)))
        want = direct_sq_distances(v)
        upper = np.triu_indices(n)
        # the stated bound of the helper plus the oracle's own gamma_{d+1}
        bound = (2 / GUARD_KAPPA + 1) * gamma(d + 2)
        assert np.all(np.abs(got - want)[upper] <= bound * want[upper])

    def test_duplicated_rows_are_exactly_zero(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((12, 5)) + 1e6
        v[[3, 7, 11]] = v[0]
        v[9] = v[4]
        got = sq_distance_rows(v)(0, 12)
        same = (v[:, None, :] == v[None, :, :]).all(axis=2)
        assert np.all(got[same] == 0.0)
        assert np.all(got[~same] > 0.0)

    def test_full_block_is_symmetric_and_non_negative(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 64, 129, 256):
            v = rng.standard_normal((n, 32)) * 3.0
            v[1::2] = v[::2][: n // 2] + 1e-3 * rng.standard_normal((n // 2, 32))
            got = sq_distance_rows(v)(0, n)
            assert np.array_equal(got, got.T)
            assert np.all(got >= 0.0) and np.all(np.diag(got) == 0.0)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 40))
    @settings(max_examples=100, deadline=None)
    def test_just_below_kappa_is_the_direct_difference(self, seed, d):
        v = kappa_pair(np.random.default_rng(seed), d, GUARD_KAPPA * (1 - 1e-6))
        got = sq_distance_rows(v)(0, 5)
        diff = v[:1] - v[1:2]
        assert got[0, 1] == np.einsum("ij,ij->i", diff, diff)[0]

    @given(st.integers(0, 2**32 - 1), st.integers(2, 40))
    @settings(max_examples=100, deadline=None)
    def test_just_above_kappa_is_within_the_bound(self, seed, d):
        v = kappa_pair(np.random.default_rng(seed), d, GUARD_KAPPA * (1 + 1e-6))
        got = sq_distance_rows(v)(0, 5)
        want = direct_sq_distances(v)[0, 1]
        assert abs(got[0, 1] - want) <= (2 / GUARD_KAPPA + 1) * gamma(d + 2) * want
