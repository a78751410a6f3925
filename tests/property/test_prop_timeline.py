"""Property-based tests for timeline downsampling."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.views import downsample, render_sparkline


@st.composite
def step_functions(draw):
    """A valid step function: increasing times starting at 0."""
    n = draw(st.integers(min_value=1, max_value=20))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=50.0),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    times = [0.0]
    for gap in gaps:
        times.append(times[-1] + gap)
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=n,
            max_size=n,
        )
    )
    end = times[-1] + draw(st.floats(min_value=0.1, max_value=50.0))
    return list(zip(times, values)), end


@given(step_functions(), st.integers(min_value=1, max_value=50))
@settings(max_examples=200, deadline=None)
def test_downsample_conserves_time_weighted_mean(timeline_and_end, buckets):
    """Mean of bucket means equals the overall time-weighted mean."""
    timeline, end = timeline_and_end
    means = downsample(timeline, buckets, end)
    overall = sum(means) / buckets
    # Direct integral of the step function over [0, end].
    integral = 0.0
    points = list(timeline) + [(end, timeline[-1][1])]
    for (start, value), (nxt, _v) in zip(points, points[1:]):
        hi = min(nxt, end)
        if hi > start:
            integral += value * (hi - start)
    expected = integral / end
    assert overall == _approx(expected)


def _approx(value):
    import pytest

    return pytest.approx(value, rel=1e-6, abs=1e-9)


@given(step_functions(), st.integers(min_value=1, max_value=50))
@settings(max_examples=100, deadline=None)
def test_downsample_bounded_by_extremes(timeline_and_end, buckets):
    timeline, end = timeline_and_end
    means = downsample(timeline, buckets, end)
    low = min(v for _t, v in timeline)
    high = max(v for _t, v in timeline)
    for mean in means:
        assert low - 1e-9 <= mean <= high + 1e-9


@given(step_functions())
@settings(max_examples=100, deadline=None)
def test_sparkline_length_matches_input(timeline_and_end):
    timeline, end = timeline_and_end
    means = downsample(timeline, 30, end)
    line = render_sparkline(means, maximum=101.0)
    assert len(line) == 30
