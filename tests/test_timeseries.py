"""Time-series construction, smoothing, interpolation onto a grid and alignment."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crossrisk.timeseries import TimeSeries, UniformGrid, _interpolate, align, smooth_trailing

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

    def test_rejects_non_monotone_timestamps(self):
        for times in ([0.0, 1.0, 1.0], [2.0, 2.0], [0.0, -0.0], [1.0, 0.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                TimeSeries(np.array(times), np.zeros(len(times)))

    @pytest.mark.parametrize("times", [[], [7.0], [0.0, 5e-324], [-0.0, 5e-324, 1.0]])
    def test_accepts_increasing_timestamps(self, times):
        """The smallest step above zero is increasing; an empty or one-reading series is too."""
        assert len(TimeSeries(np.array(times), np.zeros(len(times)))) == len(times)

    def test_rejects_two_dimensional_or_unequal_arrays(self):
        with pytest.raises(ValueError, match="^times and values must be one-dimensional$"):
            TimeSeries(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="^times and values must have equal length$"):
            TimeSeries(np.arange(3.0), np.zeros(2))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([0.0, np.inf]), np.zeros(2))
        with pytest.raises(ValueError):
            TimeSeries(np.array([0.0, 1.0]), np.array([0.0, np.inf]))

    def test_values_are_immutable(self):
        s = series_on_grid([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_writable_array_copied_read_only_one_shared(self):
        times, values = np.arange(3.0), np.array([1.0, np.nan, 3.0])
        s = TimeSeries(times, values)
        assert s.times is not times and s.values is not values
        values[0] = 9.0
        assert s.values[0] == 1.0
        times.setflags(write=False)
        values.setflags(write=False)
        s = TimeSeries(times, values)
        assert s.times is times and s.values is values
        view = times[:2]  # read-only, but it holds no data of its own
        assert TimeSeries(view, values[:2]).times is not view


class TestUniformGrid:
    def test_times(self):
        grid = UniformGrid(start=1.0, rate_hz=4.0, count=5)
        assert np.allclose(grid.times(), [1.0, 1.25, 1.5, 1.75, 2.0])
        assert grid.end == 2.0
        assert grid.times() is grid.times() and not grid.times().flags.writeable
        assert grid == UniformGrid(start=1.0, rate_hz=4.0, count=5)

    def test_slack_follows_the_grid_end(self):
        # past 2**31 s the float64 spacing doubles, and so does the slack, set once per grid
        short, long = (UniformGrid(2.0**31 - 1.5, 100.0, count) for count in (10, 300))
        for grid in (short, long, UniformGrid(0.0, 100.0, 601)):
            magnitude = max(abs(grid.start), abs(grid.end))
            assert grid.slack == max(1e-9 / 100.0, 4 * np.spacing(magnitude))
        assert long.slack == 2 * short.slack
        assert short == UniformGrid(2.0**31 - 1.5, 100.0, 10)  # the slack takes no part

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


def trailing_mean_oracle(values, window):
    """The last ``window`` present readings summed newest first, over how many there are."""
    out, present = [], []
    for v in values:
        if np.isnan(v):
            out.append(np.nan)
            continue
        present.append(float(v))
        newest_first = present[-window:][::-1]
        total = newest_first[0]
        for x in newest_first[1:]:
            total += x
        out.append(total / len(newest_first))
    return np.array(out, dtype=float)


@st.composite
def channels_and_windows(draw):
    """A channel with nothing missing, only a leading run missing (as a derivative's first
    instants), everything missing or NaN runs, and a window."""
    kind = draw(st.sampled_from(["dense", "leading run", "all missing", "runs"]))
    size = draw(st.integers(0, 30))
    values = []
    while len(values) < size:
        missing = (
            kind == "all missing"
            or (kind == "leading run" and not values)
            or (kind == "runs" and draw(st.booleans()))
        )
        values += [np.nan if missing else draw(st.floats(-1e6, 1e6)) for _ in range(draw(
            st.integers(1, 5)))]
    window = draw(st.integers(1, 12))  # up to past the count of present readings
    return np.array(values[:size], dtype=float), window


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

    @settings(deadline=None, max_examples=300)
    @given(case=channels_and_windows())
    @example(case=(np.array([1.0, 2.0, 4.0]), 1))
    @example(case=(np.array([1.0, np.nan, 2.0, 4.0]), 9))
    @example(case=(np.full(4, np.nan), 3))
    @example(case=(np.array([np.nan, np.nan, 1.0, 2.0, 4.0]), 3))
    def test_matches_the_oracle_bit_for_bit(self, case):
        values, window = case
        got = smooth_trailing(series_on_grid(values), window).values
        want = trailing_mean_oracle(values, window)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def retired_resample(series, grid, max_gap):
    """The oracle: the values of the resample that indexed hits and gaps apart.

    A grid instant ``t`` takes the first present reading ``tp`` with ``tp >= fl(t - slack)``
    and ``fl(tp - t) <= slack``, each difference rounded once, as ``_interpolate`` states it.
    """
    target = grid.times()
    out = np.full(grid.count, np.nan)
    tp = series.times[~np.isnan(series.values)]
    vp = series.values[~np.isnan(series.values)]
    if tp.size == 0:
        return out
    near = (tp[:, None] >= target - grid.slack) & (tp[:, None] - target <= grid.slack)
    hit = near.any(axis=0)
    out[hit] = vp[near.argmax(axis=0)[hit]]
    idx = np.searchsorted(tp, target, side="left")
    interior = (idx > 0) & (idx < tp.size) & ~hit
    if np.any(interior):
        left = idx[interior] - 1
        right = idx[interior]
        ok = tp[right] - tp[left] <= max_gap
        sel = np.flatnonzero(interior)[ok]
        lo, hi = left[ok], right[ok]
        w = (target[sel] - tp[lo]) / (tp[hi] - tp[lo])
        out[sel] = vp[lo] * (1.0 - w) + vp[hi] * w
    return out


def interpolated(series, grid, max_gap=0.5):
    """``series`` placed on ``grid`` by the alignment kernel, as a series."""
    return TimeSeries(grid.times(), _interpolate(series.times, series.values, grid, max_gap))


@st.composite
def series_and_grids(draw):
    """A series on ticks of ``step`` with NaN runs, a grid at a multiple of its rate, a gap."""
    step = draw(st.sampled_from([0.25, 0.1, 0.01]))
    ticks = sorted(draw(st.lists(st.integers(0, 40), min_size=1, max_size=20, unique=True)))
    values = []
    while len(values) < len(ticks):
        run = range(draw(st.integers(1, 4)))
        missing = draw(st.booleans())
        values += [np.nan if missing else draw(st.floats(-1e3, 1e3)) for _ in run]
    series = TimeSeries(np.array(ticks) * step, values[: len(ticks)])
    scale = draw(st.sampled_from([1, 2, 3]))
    start = draw(st.integers(-10, 45)) * step
    grid = UniformGrid(start=start, rate_hz=scale / step, count=draw(st.integers(1, 150)))
    max_gap = draw(st.sampled_from([1, 2, 3, 5])) * step
    return series, grid, max_gap


# a reading exactly the slack before an instant: the instant's search point ties with it.  Near
# 1.6e9 s the slack is four float64 spacings, so the subtraction is exact and the reading is
# within the slack as the oracle computes it too; one spacing earlier, it is not
_TIE_GRID = UniformGrid(1.6e9, 100.0, 4)
_TIE = _TIE_GRID.times()[1] - _TIE_GRID.slack
_TIE_READINGS = [_TIE_GRID.start, _TIE, _TIE_GRID.end]
_EARLY_READINGS = [_TIE_GRID.start, np.nextafter(_TIE, -np.inf), _TIE_GRID.end]


class TestResample:
    @settings(deadline=None, max_examples=300)
    @given(case=series_and_grids())
    @example(case=(TimeSeries(_TIE_READINGS, [1.0, 2.0, 3.0]), _TIE_GRID, 0.05))
    @example(case=(TimeSeries(_TIE_READINGS, [1.0, np.nan, 3.0]), _TIE_GRID, 0.05))
    @example(case=(TimeSeries(_EARLY_READINGS, [1.0, 2.0, 3.0]), _TIE_GRID, 0.05))
    # fl(1.1 - 1e-10) ties the instant's rounded search point, 1.1 - slack, though the rounded
    # distance to 1.1 is 1.00000008e-10, above the slack: the instant takes it
    @example(
        case=(TimeSeries([1.0, 1.1 - 1e-10, 1.3], [1.0, 2.0, 3.0]), UniformGrid(1.0, 10.0, 4), 0.5)
    )
    # readings before the grid's start and after its end
    @example(
        case=(TimeSeries([0.5, 0.95, 1.22, 1.6, 2.0], [1.0, 2.0, 3.0, 4.0, 5.0]),
              UniformGrid(1.0, 10.0, 5), 0.5)
    )
    # a one-instant grid, between two readings and on one
    @example(case=(TimeSeries([0.1, 0.2, 0.5], [1.0, 2.0, 3.0]), UniformGrid(0.3, 10.0, 1), 0.5))
    @example(case=(TimeSeries([0.1, 0.2, 0.5], [1.0, 2.0, 3.0]), UniformGrid(0.2, 10.0, 1), 0.5))
    # the reading at 3 * 0.1 lies one float64 spacing past the last instant, 3 / 10; alone, it is
    # also the whole series span, which the grid overlaps only by the slack
    @example(case=(TimeSeries(np.array([0, 3]) * 0.1, [1.0, 2.0]), UniformGrid(0.0, 10.0, 4), 0.1))
    @example(case=(TimeSeries(np.array([3]) * 0.1, [1.0]), UniformGrid(0.0, 10.0, 4), 0.1))
    def test_matches_the_retired_resample_bit_for_bit(self, case):
        """Gaps equal to ``max_gap``, grid hits, NaN runs, single samples, wide grids."""
        series, grid, max_gap = case
        t0, t1 = series.times[0], series.times[-1]
        assume(grid.start <= t1 + grid.slack and grid.end >= t0 - grid.slack)
        got = _interpolate(series.times, series.values, grid, max_gap)
        want = retired_resample(series, grid, max_gap)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_linear_interpolation(self):
        s = TimeSeries([0.0, 1.0], [0.0, 2.0])
        out = interpolated(s, UniformGrid(start=0.0, rate_hz=4.0, count=5), max_gap=1.0)
        assert nan_equal(out.values, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_constant_preserved(self):
        s = TimeSeries([0.0, 0.3, 1.1], [7.0, 7.0, 7.0])
        out = interpolated(s, UniformGrid(start=0.0, rate_hz=10.0, count=11), max_gap=2.0)
        assert nan_equal(out.values, np.full(11, 7.0))

    def test_long_gap_not_bridged(self):
        s = TimeSeries([0.0, 1.0, 2.0], [1.0, np.nan, 1.0])
        out = interpolated(s, UniformGrid(start=0.0, rate_hz=4.0, count=9), max_gap=0.5)
        inside = (out.times > 0.0) & (out.times < 2.0)
        assert np.all(np.isnan(out.values[inside]))
        assert out.values[0] == 1.0 and out.values[-1] == 1.0

    def test_outside_span_missing(self):
        s = TimeSeries([1.0, 2.0], [1.0, 2.0])
        out = interpolated(s, UniformGrid(start=0.0, rate_hz=1.0, count=4), max_gap=2.0)
        assert nan_equal(out.values, [np.nan, 1.0, 2.0, np.nan])

    def test_affine_exactness(self, rng):
        for _ in range(10):
            t = np.sort(rng.uniform(0.0, 10.0, 40))
            t = np.unique(t)
            slope, intercept = rng.normal(size=2)
            s = TimeSeries(t, slope * t + intercept)
            grid = UniformGrid(start=float(t[0]), rate_hz=17.0,
                               count=int((t[-1] - t[0]) * 17) + 1)
            out = interpolated(s, grid, max_gap=100.0)
            expected = slope * out.times + intercept
            assert np.all(np.abs(out.values - expected) <= 1e-9)

    def test_idempotent_on_same_grid(self, rng):
        values = rng.normal(size=30)
        values[rng.random(30) < 0.3] = np.nan
        s = series_on_grid(values, rate_hz=20.0)
        grid = UniformGrid(start=0.05, rate_hz=50.0, count=25)
        once = interpolated(s, grid)
        twice = interpolated(once, grid)
        assert nan_equal(once.values, twice.values)


class TestAlign:
    def test_max_gap_of_zero_is_rejected(self):
        with pytest.raises(ValueError, match="^max_gap must be positive$"):
            align([series_on_grid([1.0, 2.0])], 2.0, max_gap=0)

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

    def test_an_empty_series_is_all_missing_on_the_others_grid(self):
        ok, empty = series_on_grid([1.0, 2.0, 3.0], rate_hz=2.0), TimeSeries([], [])
        grid, (aligned, blank) = align([ok, empty], 2.0)
        assert grid == align([ok], 2.0)[0]
        assert nan_equal(aligned.values, [1.0, 2.0, 3.0])
        assert np.isnan(blank.values).all() and len(blank) == grid.count
        with pytest.raises(ValueError, match="^nothing to align$"):
            align([empty, empty], 2.0)

    @settings(deadline=None, max_examples=200)
    @given(
        start=st.one_of(st.floats(0.0, 2.0), st.floats(1.6e9, 1.8e9)),
        rows=st.sampled_from([2, 29, 101, 1000]),
        late=st.integers(0, 20),
        dropout=st.tuples(st.integers(0, 1000), st.integers(50, 200)),
    )
    def test_fully_present_recording_has_no_empty_instant(self, start, rows, late, dropout):
        """Timestamps as a CSV prints them: rounding never leaves a present row's instant empty.

        A fully present column from any start has no empty instant.  A second column starts
        ``late`` rows late and drops out for longer than ``max_gap`` from row ``dropout[0]``
        for ``dropout[1]`` rows; from the start rounded to the microsecond, row ``k`` stands
        for grid instant ``k`` and must carry that row's value.
        """
        times = np.array([f"{start + k / 100:.6f}" for k in range(rows)], dtype=float)
        grid, (aligned,) = align([TimeSeries(times, np.full(rows, 2.0))], 100.0)
        assert grid.count >= rows - 1
        assert not np.isnan(aligned.values).any()

        start = round(start, 6)
        times = np.array([f"{start + k / 100:.6f}" for k in range(rows)], dtype=float)
        late_values = np.arange(rows, dtype=float)
        late_values[:late] = np.nan
        late_values[dropout[0] : dropout[0] + dropout[1]] = np.nan
        series = [TimeSeries(times, np.full(rows, 2.0)), TimeSeries(times, late_values)]
        grid, (full, partial) = align(series, 100.0, max_gap=0.5)
        assert grid.count == rows
        assert not np.isnan(full.values).any()
        present = ~np.isnan(late_values)
        assert partial.values[present].tolist() == late_values[present].tolist()

    @pytest.mark.parametrize("rate_hz", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_rate_names_resample_hz(self, rate_hz):
        with pytest.raises(ValueError, match="resample_hz"):
            align([series_on_grid([1.0, 2.0])], rate_hz)
