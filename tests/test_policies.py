"""Choice-rule oracles and policy-level behavior for the heuristic baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispatchsim.engine import Environment, run_day
from dispatchsim.entities import Call, CallStatus, Vehicle
from dispatchsim.features import new_call_candidates
from dispatchsim.geometry import Coordinate
from dispatchsim.policies import (
    FifoPolicy,
    LifoPolicy,
    NearestPolicy,
    RandomPolicy,
    fifo_choose_call,
    lifo_choose_call,
    make_baseline,
    nn_choose,
    random_choose,
)


def brute_fifo(snapshot):
    return sorted(snapshot, key=lambda e: (e[1], e[0]))[0][0]


def brute_lifo(snapshot):
    return sorted(snapshot, key=lambda e: (-e[1], e[0]))[0][0]


def brute_nn(snapshot, anchor):
    return sorted(
        snapshot,
        key=lambda e: (abs(e[1] - anchor[0]) + abs(e[2] - anchor[1]), e[0]),
    )[0][0]


time_snapshots = st.lists(
    st.tuples(st.integers(0, 50), st.floats(0, 1440)),
    min_size=1,
    max_size=30,
    unique_by=lambda e: e[0],
)
loc_snapshots = st.lists(
    st.tuples(
        st.integers(0, 50),
        st.floats(0, 10, allow_nan=False),
        st.floats(0, 10, allow_nan=False),
    ),
    min_size=1,
    max_size=30,
    unique_by=lambda e: e[0],
)


@settings(max_examples=200)
@given(time_snapshots)
def test_fifo_matches_sort_oracle(snapshot):
    assert fifo_choose_call(snapshot) == brute_fifo(snapshot)


@settings(max_examples=200)
@given(time_snapshots)
def test_lifo_matches_sort_oracle(snapshot):
    assert lifo_choose_call(snapshot) == brute_lifo(snapshot)


@settings(max_examples=200)
@given(loc_snapshots, st.floats(0, 10), st.floats(0, 10))
def test_nn_matches_sort_oracle(snapshot, ax, ay):
    assert nn_choose(snapshot, (ax, ay)) == brute_nn(snapshot, (ax, ay))


def test_empty_snapshots_yield_none():
    assert fifo_choose_call([]) is None
    assert lifo_choose_call([]) is None
    assert nn_choose([], (0.0, 0.0)) is None
    assert random_choose([], np.random.default_rng(0)) is None


def test_fifo_lifo_tie_break_lowest_id():
    snap = [(7, 3.0), (2, 3.0), (9, 3.0)]
    assert fifo_choose_call(snap) == 2
    assert lifo_choose_call(snap) == 2


def test_nn_tie_break_lowest_id():
    snap = [(8, 1.0, 0.0), (3, 0.0, 1.0), (5, 0.5, 0.5)]
    assert nn_choose(snap, (0.0, 0.0)) == 3  # all distance 1


def dyadic(lo, hi):
    """Multiples of 1/64 in [lo, hi]: their sums and differences are exact."""
    return st.integers(lo * 64, hi * 64).map(lambda k: k / 64)


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(st.integers(0, 50), dyadic(0, 10), dyadic(0, 10)),
        min_size=1,
        max_size=30,
        unique_by=lambda e: e[0],
    ),
    dyadic(0, 10), dyadic(0, 10), dyadic(-5, 5), dyadic(-5, 5),
)
def test_nn_invariant_under_translation(snapshot, ax, ay, dx, dy):
    # dyadic coordinates so the shift is exact and preserves distance ties
    shifted = [(i, x + dx, y + dy) for i, x, y in snapshot]
    assert nn_choose(snapshot, (ax, ay)) == nn_choose(shifted, (ax + dx, ay + dy))


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 1440)),
        min_size=1,
        max_size=30,
        unique_by=lambda e: e[0],
    ),
    st.integers(-1000, 1000),
)
def test_fifo_lifo_invariant_under_time_shift(snapshot, dt):
    # integer times so the shift is exact and preserves ties
    shifted = [(i, t + dt) for i, t in snapshot]
    assert fifo_choose_call(snapshot) == fifo_choose_call(shifted)
    assert lifo_choose_call(snapshot) == lifo_choose_call(shifted)


@settings(max_examples=100)
@given(time_snapshots)
def test_choices_are_members(snapshot):
    ids = {e[0] for e in snapshot}
    assert fifo_choose_call(snapshot) in ids
    assert lifo_choose_call(snapshot) in ids


def test_random_choose_frequencies():
    rng = np.random.default_rng(42)
    ids = [10, 11, 12, 13]
    counts = {i: 0 for i in ids}
    n = 40_000
    for _ in range(n):
        counts[random_choose(ids, rng)] += 1
    for i in ids:
        assert abs(counts[i] / n - 0.25) < 0.01


def _env(vehicles, pool_calls, clock=0.0):
    env = Environment(vehicles, speed=0.1, driver_rng=np.random.default_rng(0))
    env.clock = clock
    for c in pool_calls:
        env.calls[c.id] = c
        env.pool[c.id] = c
    return env


def vehicle(i, x, y, busy=False):
    v = Vehicle(id=i, location=Coordinate(x, y), move_destination=Coordinate(x, y))
    v.busy = busy
    return v


def call(i, t, ox, oy, dx=0.5, dy=0.5, wait=60.0):
    return Call(
        id=i,
        created_at=t,
        origin=Coordinate(ox, oy),
        destination=Coordinate(dx, dy),
        max_wait=wait,
    )


def test_choose_vehicle_skips_busy():
    # vehicle 0 is closest but busy, so the nearest idle one wins
    fleet = [vehicle(0, 0.0, 0.0, busy=True), vehicle(1, 0.3, 0.0), vehicle(2, 0.6, 0.0)]
    env = _env(fleet, [])
    c = call(0, 0.0, 0.0, 0.0)
    for policy in (FifoPolicy(), LifoPolicy(), NearestPolicy()):
        assert policy.choose_vehicle(env, c) == 1


def test_choose_vehicle_none_when_all_busy():
    fleet = [vehicle(0, 0.0, 0.0, busy=True), vehicle(1, 0.3, 0.0, busy=True)]
    env = _env(fleet, [])
    assert NearestPolicy().choose_vehicle(env, call(0, 0.0, 0.0, 0.0)) is None


def test_fleet_state_is_the_vehicles_own_state():
    # mutated before adoption: vehicle 0 turns busy, vehicle 1 moves next to the call
    fleet = [vehicle(0, 0.0, 0.0), vehicle(1, 0.9, 0.9), vehicle(2, 0.5, 0.0)]
    fleet[0].busy = True
    fleet[1].location = Coordinate(0.25, 0.0)
    env = _env(fleet, [])
    assert env.fleet is fleet
    c = call(0, 0.0, 0.0, 0.0)
    assert NearestPolicy().choose_vehicle(env, c) == 1
    mat, _ = new_call_candidates(env, c)
    np.testing.assert_array_equal(mat[:, 6], [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(mat[:2, 0], np.float32([0.0, 0.25]))

    # mutated through the environment's fleet after adoption
    env.fleet[1].busy = True
    env.fleet[0].set_idle(Coordinate(0.75, 0.0))
    env.fleet[2].location = Coordinate(0.5, 0.125)
    assert NearestPolicy().choose_vehicle(env, c) == 2
    env.fleet[2].busy = True
    assert NearestPolicy().choose_vehicle(env, c) == 0
    mat, _ = new_call_candidates(env, c)
    np.testing.assert_array_equal(mat[:, 6], [0.0, 1.0, 1.0])
    np.testing.assert_array_equal(mat[:, 0], np.float32([0.75, 0.25, 0.5]))
    np.testing.assert_array_equal(mat[:, 1], np.float32([0.0, 0.0, 0.125]))
    assert fleet[0].location == Coordinate(0.75, 0.0) and not fleet[0].busy


def test_adoption_requires_ids_in_fleet_order():
    for ids in ([1], [0, 2], [1, 0], [0, 0]):
        with pytest.raises(ValueError, match="ids must be 0..n-1"):
            _env([vehicle(i, 0.0, 0.0) for i in ids], [])


def test_policy_choose_call_orders():
    pool = [call(0, 5.0, 0.9, 0.9), call(1, 2.0, 0.8, 0.8), call(2, 8.0, 0.1, 0.1)]
    env = _env([vehicle(0, 0.0, 0.0)], pool, clock=10.0)
    v = env.fleet[0]
    assert FifoPolicy().choose_call(env, v) == 1  # oldest
    assert LifoPolicy().choose_call(env, v) == 2  # newest
    assert NearestPolicy().choose_call(env, v) == 2  # closest to (0, 0)


def test_random_policy_picks_any_vehicle_including_busy():
    fleet = [vehicle(0, 0.0, 0.0, busy=True), vehicle(1, 0.3, 0.0)]
    env = _env(fleet, [])
    rng = np.random.default_rng(3)
    seen = {RandomPolicy(rng).choose_vehicle(env, call(0, 0.0, 0.0, 0.0)) for _ in range(50)}
    assert seen == {0, 1}


def test_make_baseline_names_and_errors():
    for name in ("fifo", "lifo", "nn"):
        assert make_baseline(name).name == name
    assert make_baseline("random", np.random.default_rng(0)).name == "random"
    with pytest.raises(ValueError):
        make_baseline("random")
    with pytest.raises(ValueError):
        make_baseline("greedy")


def test_nn_policy_serves_nearest_first_end_to_end():
    # call 0 occupies the only vehicle; calls 1 and 2 pool up while it is
    # busy, and at the free-vehicle epoch nn picks the closer origin (call 2)
    # even though call 1 arrived earlier
    fleet = [vehicle(0, 0.0, 0.0)]
    calls = [
        call(0, 0.0, 0.0, 0.0, 0.2, 0.0, wait=1000.0),
        call(1, 0.5, 0.9, 0.0, 0.9, 0.1, wait=1000.0),
        call(2, 1.0, 0.3, 0.0, 0.3, 0.1, wait=1000.0),
    ]
    pol = NearestPolicy()
    run_day(fleet, calls, pol, pol, speed=0.1, driver_rng=np.random.default_rng(0),
            audit=True)
    assert all(c.status is CallStatus.COMPLETED for c in calls)
    assert calls[2].pickup_time < calls[1].pickup_time
