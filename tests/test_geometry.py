import math

from hypothesis import given, strategies as st

from dispatchsim.geometry import BoundingBox, Coordinate, minute_of_week


def test_minute_of_week_examples():
    assert minute_of_week(0, 0) == 0
    assert minute_of_week(10080, 0) == 0
    assert minute_of_week(15000, 120) == (15000 + 120) % 10080 == 5040


@given(st.floats(0, 1e6, allow_nan=False), st.floats(0, 20000, allow_nan=False))
def test_minute_of_week_range(t, offset):
    m = minute_of_week(t, offset)
    assert 0 <= m < 10080


def test_minute_of_week_offset_shifts_the_clock():
    assert minute_of_week(0, 120) == 120
    assert minute_of_week(10000, 200) == 120
    assert minute_of_week(100, -200) == 9980


@given(st.integers(0, 10**9), st.integers(1, 50))
def test_minute_of_week_repeats_every_week(t, weeks):
    # whole minutes keep the float arithmetic exact
    assert minute_of_week(float(t + weeks * 10080)) == minute_of_week(float(t)) == t % 10080


def test_box_contains_its_edges_and_refuses_points_outside():
    box = BoundingBox(-2.0, 3.0, 1.0, 2.5)
    for inside in [(-2.0, 1.0), (3.0, 2.5), (-2.0, 2.5), (3.0, 1.0), (0.5, 1.75)]:
        assert box.contains(inside)
    for outside in [(-2.0001, 1.5), (3.0001, 1.5), (0.0, 0.9999), (0.0, 2.5001)]:
        assert not box.contains(outside)
    # a Coordinate and a plain pair are read alike
    assert box.contains(Coordinate(0.0, 2.0)) and box.contains((0.0, 2.0))
    assert not BoundingBox().contains(Coordinate(1.5, 0.5))


def test_box_refuses_non_finite_points():
    box = BoundingBox(-math.inf, math.inf, -math.inf, math.inf)
    for bad in [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)]:
        assert not box.contains(bad)
        assert not BoundingBox().contains(bad)
    assert box.contains((1e300, -1e300))


@given(st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False))
def test_box_contains_exactly_the_points_within_its_bounds(x, y):
    box = BoundingBox(-1.0, 2.0, 0.0, 0.5)
    assert box.contains(Coordinate(x, y)) == (-1.0 <= x <= 2.0 and 0.0 <= y <= 0.5)
