"""Time-series construction, smoothing, resampling and alignment."""

from __future__ import annotations

import numpy as np
import pytest

from crossrisk import EmptyOverlapError, TimeSeries, UniformGrid, align, resample, smooth_trailing

from conftest import series_on_grid


def nan_equal(a, b, atol=0.0):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    both_nan = np.isnan(a) & np.isnan(b)
    close = np.isclose(a, b, rtol=0.0, atol=atol)
    return bool(np.all(both_nan | close))


class TestTimeSeries:
    def test_nan_marks_missing(self):
        s = TimeSeries([0.0, 1.0, 2.0], [1.0, np.nan, 3.0])
        assert nan_equal(s.values, [1.0, np.nan, 3.0])
        assert s.present.tolist() == [True, False, True]

    def test_rejects_non_monotone_timestamps(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TimeSeries(np.array([0.0, 1.0, 1.0]), np.zeros(3))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([0.0, np.inf]), np.zeros(2))
        with pytest.raises(ValueError):
            TimeSeries(np.array([0.0, 1.0]), np.array([0.0, np.inf]))

    def test_values_are_immutable(self):
        s = series_on_grid([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0


class TestUniformGrid:
    def test_times(self):
        grid = UniformGrid(start=1.0, rate_hz=4.0, count=5)
        assert np.allclose(grid.times(), [1.0, 1.25, 1.5, 1.75, 2.0])
        assert grid.end == 2.0
        assert grid.times() is grid.times() and not grid.times().flags.writeable
        assert grid == UniformGrid(start=1.0, rate_hz=4.0, count=5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rate_hz=0.0),
            dict(rate_hz=-1.0),
            dict(count=0),
            dict(rate_hz=np.nan),
            dict(rate_hz=np.inf),
            dict(count=2.5),
            dict(count=True),
            dict(start=np.nan),
        ],
    )
    def test_validation(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            UniformGrid(**{"start": 0.0, "rate_hz": 10.0, "count": 3, **kwargs})


class TestSmoothTrailing:
    def test_basic_window_two(self):
        out = smooth_trailing(series_on_grid([1.0, 3.0, 5.0]), 2)
        assert nan_equal(out.values, [1.0, 2.0, 4.0])

    def test_constant_is_fixed_point(self):
        out = smooth_trailing(series_on_grid([2.0, 2.0, 2.0, 2.0]), 5)
        assert nan_equal(out.values, [2.0, 2.0, 2.0, 2.0])

    def test_skips_missing_values(self):
        out = smooth_trailing(series_on_grid([1.0, np.nan, 3.0]), 2)
        assert nan_equal(out.values, [1.0, np.nan, 2.0])

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            smooth_trailing(series_on_grid([1.0]), 0)

    def test_window_one_is_identity(self, rng):
        values = rng.normal(size=50)
        values[rng.random(50) < 0.3] = np.nan
        out = smooth_trailing(series_on_grid(values), 1)
        assert nan_equal(out.values, values)

    def test_output_within_input_range(self, rng):
        for _ in range(20):
            values = rng.normal(size=40)
            values[rng.random(40) < 0.25] = np.nan
            if np.all(np.isnan(values)):
                continue
            out = smooth_trailing(series_on_grid(values), int(rng.integers(1, 8)))
            present = ~np.isnan(values)
            assert np.all(out.values[present] >= np.nanmin(values) - 1e-12)
            assert np.all(out.values[present] <= np.nanmax(values) + 1e-12)

    def test_missingness_preserved(self, rng):
        values = rng.normal(size=30)
        values[rng.random(30) < 0.4] = np.nan
        out = smooth_trailing(series_on_grid(values), 3)
        assert np.array_equal(np.isnan(out.values), np.isnan(values))

    def test_oracle_loop(self, rng):
        """Independent loop over the last `window` present values."""
        values = rng.normal(size=60)
        values[rng.random(60) < 0.3] = np.nan
        window = 4
        out = smooth_trailing(series_on_grid(values), window)
        recent: list[float] = []
        for i, v in enumerate(values):
            if np.isnan(v):
                assert np.isnan(out.values[i])
                continue
            recent.append(v)
            expected = np.mean(recent[-window:])
            assert out.values[i] == pytest.approx(expected, abs=1e-12)


class TestResample:
    def test_linear_interpolation(self):
        s = TimeSeries([0.0, 1.0], [0.0, 2.0])
        out = resample(s, UniformGrid(start=0.0, rate_hz=4.0, count=5), max_gap=1.0)
        assert nan_equal(out.values, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_constant_preserved(self):
        s = TimeSeries([0.0, 0.3, 1.1], [7.0, 7.0, 7.0])
        out = resample(s, UniformGrid(start=0.0, rate_hz=10.0, count=11), max_gap=2.0)
        assert nan_equal(out.values, np.full(11, 7.0))

    def test_long_gap_not_bridged(self):
        s = TimeSeries([0.0, 1.0, 2.0], [1.0, np.nan, 1.0])
        out = resample(s, UniformGrid(start=0.0, rate_hz=4.0, count=9), max_gap=0.5)
        inside = (out.times > 0.0) & (out.times < 2.0)
        assert np.all(np.isnan(out.values[inside]))
        assert out.values[0] == 1.0 and out.values[-1] == 1.0

    def test_outside_span_missing(self):
        s = TimeSeries([1.0, 2.0], [1.0, 2.0])
        out = resample(s, UniformGrid(start=0.0, rate_hz=1.0, count=4), max_gap=2.0)
        assert nan_equal(out.values, [np.nan, 1.0, 2.0, np.nan])

    def test_empty_overlap_raises(self):
        s = TimeSeries([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(EmptyOverlapError):
            resample(s, UniformGrid(start=5.0, rate_hz=1.0, count=3))

    def test_affine_exactness(self, rng):
        for _ in range(10):
            t = np.sort(rng.uniform(0.0, 10.0, 40))
            t = np.unique(t)
            slope, intercept = rng.normal(size=2)
            s = TimeSeries(t, slope * t + intercept)
            grid = UniformGrid(start=float(t[0]), rate_hz=17.0,
                               count=int((t[-1] - t[0]) * 17) + 1)
            out = resample(s, grid, max_gap=100.0)
            expected = slope * out.times + intercept
            assert np.all(np.abs(out.values - expected) <= 1e-9)

    def test_idempotent_on_same_grid(self, rng):
        values = rng.normal(size=30)
        values[rng.random(30) < 0.3] = np.nan
        s = series_on_grid(values, rate_hz=20.0)
        grid = UniformGrid(start=0.05, rate_hz=50.0, count=25)
        once = resample(s, grid)
        twice = resample(once, grid)
        assert nan_equal(once.values, twice.values)


class TestAlign:
    def test_single_series_span(self):
        s = series_on_grid([1.0, 2.0, 3.0], rate_hz=2.0)
        grid, aligned = align([s], 2.0)
        assert grid.start == 0.0 and grid.count == 3
        assert nan_equal(aligned[0].values, [1.0, 2.0, 3.0])

    def test_union_span(self):
        a = TimeSeries([0.0, 1.0], [1.0, 1.0])
        b = TimeSeries([0.5, 1.5], [2.0, 2.0])
        grid, aligned = align([a, b], 2.0)
        assert grid.count == 4
        assert np.allclose(grid.times(), [0.0, 0.5, 1.0, 1.5])
        assert all(np.array_equal(s.times, grid.times()) for s in aligned)

    def test_disjoint_spans(self):
        a = TimeSeries([0.0, 1.0], [1.0, 1.0])
        b = TimeSeries([3.0, 4.0], [2.0, 2.0])
        grid, (ra, rb) = align([a, b], 1.0)
        assert np.isnan(ra.values[grid.times() > 1.0]).all()
        assert np.isnan(rb.values[grid.times() < 3.0]).all()
        assert ra.values[0] == 1.0 and rb.values[-1] == 2.0

    def test_equal_lengths_and_timestamps(self, rng):
        series = [
            TimeSeries(np.sort(rng.uniform(0, 5, 10) + i), rng.normal(size=10))
            for i in range(3)
        ]
        grid, aligned = align(series, 7.0)
        for s in aligned:
            assert len(s) == grid.count
            assert np.array_equal(s.times, grid.times())

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            align([], 10.0)

    @pytest.mark.parametrize("rate_hz", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_rate_names_resample_hz(self, rate_hz):
        with pytest.raises(ValueError, match="resample_hz"):
            align([series_on_grid([1.0, 2.0])], rate_hz)
