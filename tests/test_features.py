"""Feature construction for decision epochs."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dispatchsim.engine import Environment
from dispatchsim.entities import Call, Vehicle
from dispatchsim.features import (
    FEATURE_DIM,
    VARYING_COLUMNS,
    context_features,
    free_vehicle_candidates,
    new_call_candidates,
)
from dispatchsim.geometry import Coordinate


def vehicle(i=0, x=0.2, y=0.3, busy=False, free_at=0.0, reject=0.15):
    v = Vehicle(
        id=i,
        location=Coordinate(x, y),
        move_destination=Coordinate(x, y),
        reject_prob=reject,
    )
    v.busy = busy
    v.free_at = free_at
    return v


def call(i=0, t=0.0, ox=0.6, oy=0.7, dx=0.1, dy=0.9, wait=30.0):
    return Call(
        id=i,
        created_at=t,
        origin=Coordinate(ox, oy),
        destination=Coordinate(dx, dy),
        max_wait=wait,
    )


def test_idle_vehicle_feature_vector():
    v = vehicle(x=0.2, y=0.3, reject=0.15)
    c = call(t=4.0, ox=0.6, oy=0.7, dx=0.1, dy=0.9)
    # no recent arrivals and the week's origin at t=10: the context is (1, 0, 1)
    mat, ids = new_call_candidates(_bare_env([v], clock=10.0, offset=-10.0), c)
    assert ids == [0]
    vec = mat[0]
    assert vec.shape == (FEATURE_DIM,)
    assert vec.dtype == np.float32
    expected = [0.2, 0.3, 0.2, 0.3, 0.0, 0.15, 0.0,
                0.6, 0.7, 0.1, 0.9, 6.0, 1.0, 0.0, 1.0]
    np.testing.assert_allclose(vec, np.array(expected, dtype=np.float32), rtol=1e-6)


def test_busy_vehicle_time_to_free_and_flag():
    v = vehicle(busy=True, free_at=25.0)
    v.move_destination = Coordinate(0.8, 0.9)
    vec = new_call_candidates(_bare_env([v], clock=10.0), call())[0][0]
    assert vec[2] == np.float32(0.8)
    assert vec[3] == np.float32(0.9)
    assert vec[4] == np.float32(15.0)
    assert vec[6] == 1.0


def _bare_env(fleet, clock=0.0, offset=0.0):
    env = Environment(fleet, speed=0.1, driver_rng=np.random.default_rng(0),
                      week_origin_offset=offset)
    env.clock = clock
    return env


def test_week_phase_at_origin():
    env = _bare_env([vehicle()], clock=0.0, offset=0.0)
    _, s, c = context_features(env)
    assert s == 0.0
    assert c == 1.0


def test_week_phase_quarter_week():
    # minute 2520 is a quarter of the 10080-minute week
    env = _bare_env([vehicle()], clock=2520.0)
    _, s, c = context_features(env)
    assert math.isclose(s, 1.0, abs_tol=1e-12)
    assert abs(c) < 1e-12


@given(st.floats(0, 1440), st.floats(0, 10080))
def test_week_phase_on_unit_circle(clock, offset):
    env = _bare_env([vehicle()], clock=clock, offset=offset)
    _, s, c = context_features(env)
    assert math.isclose(s * s + c * c, 1.0, rel_tol=1e-9)


def test_ratio_defaults_to_one_without_recent_demand():
    env = _bare_env([vehicle(i) for i in range(5)], clock=0.0)
    assert context_features(env)[0] == 1.0


def test_ratio_is_fleet_over_window_count():
    env = _bare_env([vehicle(i) for i in range(6)], clock=100.0)
    env.recent_arrivals.extend([90.0, 95.0, 99.0])  # all within 15 minutes
    assert context_features(env)[0] == 2.0


def test_new_call_candidates_cover_fleet():
    fleet = [
        vehicle(0, 0.1, 0.1, free_at=40.0),  # idle: time to free reads 0
        vehicle(1, 0.5, 0.5, busy=True, free_at=30.0),  # free 18 min after the clock
        vehicle(2, 0.25, 0.75, busy=True, free_at=9.0, reject=0.5),  # overdue: clamped to 0
    ]
    fleet[1].move_destination = Coordinate(0.8, 0.9)
    env = _bare_env(fleet, clock=12.0)
    mat, ids = new_call_candidates(env, call(t=10.0, ox=0.6, oy=0.7, dx=0.1, dy=0.9))
    assert ids == [0, 1, 2]
    tail = [0.6, 0.7, 0.1, 0.9, 2.0, *context_features(env)]
    expected = [
        [0.1, 0.1, 0.1, 0.1, 0.0, 0.15, 0.0] + tail,
        [0.5, 0.5, 0.8, 0.9, 18.0, 0.15, 1.0] + tail,
        [0.25, 0.75, 0.25, 0.75, 0.0, 0.5, 1.0] + tail,
    ]
    np.testing.assert_array_equal(mat, np.array(expected, dtype=np.float32))


def test_free_vehicle_candidates_cover_pool():
    fleet = [
        vehicle(0, 0.2, 0.3, busy=True, free_at=15.0),  # overdue: clamped to 0
        vehicle(1, 0.4, 0.6, busy=True, free_at=26.0, reject=0.25),  # free in 6 min
    ]
    env = _bare_env(fleet, clock=20.0)
    day = [call(i) for i in range(8)]
    day[3], day[7] = call(3, 5.0, 0.6, 0.7, 0.1, 0.9), call(7, 12.0, 0.3, 0.2, 0.5, 0.4)
    env.calls = day
    env.pool.add(3)
    env.pool.add(7)
    ctx = list(context_features(env))
    calls = [[0.6, 0.7, 0.1, 0.9, 15.0], [0.3, 0.2, 0.5, 0.4, 8.0]]
    heads = [[0.2, 0.3, 0.2, 0.3, 0.0, 0.15, 1.0], [0.4, 0.6, 0.4, 0.6, 6.0, 0.25, 1.0]]
    for v, head in zip(env.fleet, heads):
        mat, ids = free_vehicle_candidates(env, v)
        assert ids == [3, 7]
        expected = [head + c + ctx for c in calls]
        np.testing.assert_array_equal(mat, np.array(expected, dtype=np.float32))


def test_empty_pool_gives_empty_matrix():
    env = _bare_env([vehicle(0)])
    mat, ids = free_vehicle_candidates(env, env.fleet[0])
    assert mat.shape == (0, FEATURE_DIM)
    assert ids == []


unit = st.floats(0.0, 1.0)
minute = st.floats(0.0, 1440.0)


@settings(max_examples=150, deadline=None)
@given(
    vehicles=st.lists(
        st.tuples(unit, unit, unit, unit, st.booleans(), minute, unit), min_size=1, max_size=8
    ),
    pooled=st.lists(st.tuples(minute, unit, unit, unit, unit), max_size=10),
    new=st.tuples(minute, unit, unit, unit, unit),
    clock=minute,
    offset=st.floats(0.0, 10080.0),
    arrivals=st.lists(minute, max_size=6),
)
def test_rows_repeat_row_0_bit_for_bit_outside_the_varying_columns(
    vehicles, pooled, new, clock, offset, arrivals
):
    # a replay buffer keeps these columns of row 0 only
    fleet = []
    for i, (x, y, mx, my, busy, free_at, reject) in enumerate(vehicles):
        v = vehicle(i, x, y, busy=busy, free_at=free_at, reject=reject)
        v.move_destination = Coordinate(mx, my)
        fleet.append(v)
    env = _bare_env(fleet, clock=clock, offset=offset)
    env.recent_arrivals.extend(sorted(arrivals))
    env.calls = [call(i, *facts) for i, facts in enumerate(pooled)]
    for c in env.calls:
        env.pool.add(c.id)
    matrices = [("new_call", new_call_candidates(env, call(len(pooled), *new))[0])]
    matrices += [("free_vehicle", free_vehicle_candidates(env, v)[0]) for v in env.fleet]
    for kind, mat in matrices:
        shared = np.delete(mat, VARYING_COLUMNS[kind], axis=1)
        assert all(row.tobytes() == shared[0].tobytes() for row in shared)
