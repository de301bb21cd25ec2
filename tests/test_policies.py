"""Choice-rule oracles and policy-level behavior for the heuristic baselines."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispatchsim.engine import Environment, run_day
from dispatchsim.entities import Call, CallPool, CallStatus, CallTable, Vehicle
from dispatchsim.features import new_call_candidates
from dispatchsim.geometry import Coordinate
from dispatchsim.policies import (
    NEAREST_SCAN_CROSSOVER,
    FifoPolicy,
    LifoPolicy,
    NearestPolicy,
    RandomPolicy,
    make_baseline,
    _nearest_idle_vehicle,
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


def _snapshot_env(snapshot, anchor=(0.0, 0.0)):
    """One idle vehicle at `anchor` and a pool of the snapshot's calls.

    A snapshot row is (id, created_at) for the time-ordered rules or
    (id, x, y), the call's origin, for the distance rule.
    """
    table = CallTable(max((e[0] for e in snapshot), default=-1) + 1)
    for cid, *values in snapshot:
        rows = [4] if len(values) == 1 else [0, 1]  # created_at, or origin x and y
        table.floats[rows, cid] = values
    env = _env([vehicle(0, *anchor)], [])
    env.calls = table
    for cid, *_ in snapshot:
        env.pool.add(cid)
    return env


def choose_call(policy, snapshot, anchor=(0.0, 0.0)):
    env = _snapshot_env(snapshot, anchor)
    return policy.choose_call(env, env.fleet[0])


@settings(max_examples=200)
@given(time_snapshots)
def test_fifo_matches_sort_oracle(snapshot):
    assert choose_call(FifoPolicy(), snapshot) == brute_fifo(snapshot)


@settings(max_examples=200)
@given(time_snapshots)
def test_lifo_matches_sort_oracle(snapshot):
    assert choose_call(LifoPolicy(), snapshot) == brute_lifo(snapshot)


@settings(max_examples=200)
@given(loc_snapshots, st.floats(0, 10), st.floats(0, 10))
def test_nn_matches_sort_oracle(snapshot, ax, ay):
    assert choose_call(NearestPolicy(), snapshot, (ax, ay)) == brute_nn(snapshot, (ax, ay))


def test_empty_snapshots_yield_none():
    for policy in (FifoPolicy(), LifoPolicy(), NearestPolicy(), RandomPolicy(np.random.default_rng(0))):
        assert choose_call(policy, []) is None


def test_fifo_lifo_tie_break_lowest_id():
    snap = [(7, 3.0), (2, 3.0), (9, 3.0)]
    assert choose_call(FifoPolicy(), snap) == 2
    assert choose_call(LifoPolicy(), snap) == 2


def test_nn_tie_break_lowest_id():
    snap = [(8, 1.0, 0.0), (3, 0.0, 1.0), (5, 0.5, 0.5)]
    assert choose_call(NearestPolicy(), snap) == 3  # all distance 1


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
    nn = NearestPolicy()
    assert choose_call(nn, snapshot, (ax, ay)) == choose_call(nn, shifted, (ax + dx, ay + dy))


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
    for policy in (FifoPolicy(), LifoPolicy()):
        assert choose_call(policy, snapshot) == choose_call(policy, shifted)


@settings(max_examples=100)
@given(time_snapshots)
def test_choices_are_members(snapshot):
    ids = {e[0] for e in snapshot}
    assert choose_call(FifoPolicy(), snapshot) in ids
    assert choose_call(LifoPolicy(), snapshot) in ids


def test_random_choose_frequencies():
    ids = [10, 11, 12, 13]
    env = _snapshot_env([(i, 0.0) for i in ids])
    policy = RandomPolicy(np.random.default_rng(42))
    counts = {i: 0 for i in ids}
    n = 40_000
    for _ in range(n):
        counts[policy.choose_call(env, env.fleet[0])] += 1
    for i in ids:
        assert abs(counts[i] / n - 0.25) < 0.01


def _env(vehicles, pool_calls, clock=0.0):
    env = Environment(vehicles, speed=0.1, driver_rng=np.random.default_rng(0))
    env.clock = clock
    env.calls = pool_calls  # the pool holds rows of the day's calls
    for c in pool_calls:
        env.pool.add(c.id)
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


@pytest.mark.parametrize("n_idle", [0, 1, 2, 5, NEAREST_SCAN_CROSSOVER, NEAREST_SCAN_CROSSOVER + 1, 90, 120])
@pytest.mark.parametrize("seed", range(4))
def test_nearest_idle_vehicle_matches_brute_force_on_both_sides_of_the_crossover(n_idle, seed):
    # Dyadic grid points: the L1 distances are exact, so ties are real ties.
    r = random.Random(seed)
    fleet = [vehicle(i, r.randrange(9) / 8, r.randrange(9) / 8) for i in range(120)]
    idle = set(r.sample(range(120), n_idle))
    for v in fleet:
        v.busy = v.id not in idle
    env = _env(fleet, [])
    for _ in range(25):
        c = call(0, 0.0, r.randrange(9) / 8, r.randrange(9) / 8)
        dists = [(abs(v.location.x - c.origin.x) + abs(v.location.y - c.origin.y), v.id)
                 for v in fleet if v.id in idle]
        expected = min(dists)[1] if dists else None
        assert _nearest_idle_vehicle(env, c) == expected
        assert NearestPolicy().choose_vehicle(env, c) == expected


def test_nearest_idle_vehicle_breaks_a_tie_to_the_lowest_id():
    fleet = [vehicle(0, 0.5, 0.5, busy=True), vehicle(1, 0.25, 0.0), vehicle(2, 0.0, 0.25),
             vehicle(3, 0.0, 0.0)]
    env = _env(fleet, [])
    assert _nearest_idle_vehicle(env, call(0, 0.0, 0.125, 0.125)) == 1
    env.fleet[1].busy = True
    assert _nearest_idle_vehicle(env, call(0, 0.0, 0.125, 0.125)) == 2


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


def _pool_columns(pool_dict):
    return [[*c.origin, *c.destination, c.created_at] for _, c in sorted(pool_dict.items())]


@pytest.mark.parametrize("seed", range(20))
def test_call_pool_matches_a_dict(seed):
    r = random.Random(seed)

    def grid():  # multiples of 1/8, so nearest-call distances tie
        return r.randrange(9) / 8

    # 300 steps add at most 2 ids each; the absent id above them is a row too
    calls = [call(cid, r.randrange(100) / 4, grid(), grid(), grid(), grid()) for cid in range(602)]
    env = _env([vehicle(0, 0.5, 0.5)], [])
    env.calls = calls
    ref = {}
    next_id = 0

    for _ in range(300):
        op = r.random()
        if op < 0.45:  # in order: above every id seen so far
            cid = next_id = next_id + r.randrange(1, 3)
        elif op < 0.65:  # out of order, or a re-add of a pooled id
            cid = r.randrange(next_id + 1)
        else:  # discard a present or an absent id
            cid = r.randrange(next_id + 2)
            assert (cid in env.pool) == (cid in ref)
            env.pool.discard(cid)
            ref.pop(cid, None)
            cid = None
        if cid is not None:
            env.pool.add(cid)
            ref[cid] = calls[cid]
        pool = env.pool
        assert len(pool) == len(ref) and bool(pool) == bool(ref)
        assert list(pool) == list(pool.ids) == sorted(ref)
        assert [c.id for c in pool.values()] == sorted(ref)
        assert all(cid in pool for cid in ref) and next_id + 1 not in pool
        np.testing.assert_array_equal(pool.columns(), np.reshape(_pool_columns(ref), (-1, 5)).T)
        v = env.fleet[0]
        v.location = Coordinate(grid(), grid())
        snapshot = [(c.id, c.origin.x, c.origin.y) for c in ref.values()]
        times = [(c.id, c.created_at) for c in ref.values()]  # quarter-minute grid: ties
        got = [policy.choose_call(env, v) for policy in (NearestPolicy(), FifoPolicy(), LifoPolicy())]
        if ref:
            assert got == [brute_nn(snapshot, tuple(v.location)), brute_fifo(times), brute_lifo(times)]
        else:
            assert got == [None, None, None]
    with pytest.raises(KeyError):
        env.pool[next_id + 1]


def test_assigning_a_dict_to_the_pool_converts_it():
    env = _env([vehicle(0, 0.0, 0.0)], [])
    day = [call(i, 1.0, 0.0, 0.5) for i in range(10)]
    day[7], day[3], day[9] = call(7, 5.0, 0.75, 0.0), call(3, 5.0, 0.625, 0.0), call(9, 2.0, 0.375, 0.0)
    env.calls = day
    calls = {7: day[7], 3: day[3], 9: day[9]}
    env.pool = calls
    assert isinstance(env.pool, CallPool)
    assert list(env.pool) == list(env.pool.ids) == [3, 7, 9]
    np.testing.assert_array_equal(env.pool.columns(), np.array(_pool_columns(calls)).T)
    assert NearestPolicy().choose_call(env, env.fleet[0]) == 9
    pool = CallPool(env.calls)
    env.pool = pool
    assert env.pool is pool
    with pytest.raises(ValueError, match="call 4 is not a row"):
        env.pool = {4: call(4, 1.0, 0.0, 0.5)}
    with pytest.raises(ValueError, match="call 5 is not a row"):
        env.pool = {5: day[6]}


def test_the_pool_reads_the_call_table():
    env = _env([vehicle(0, 0.0, 0.0)], [call(i, float(i), 0.5 + 0.125 * i, 0.0) for i in range(3)])
    assert NearestPolicy().choose_call(env, env.fleet[0]) == 0
    env.calls.origin_x[2] = 0.25
    assert env.pool.columns()[0].tolist() == [0.5, 0.625, 0.25]
    assert NearestPolicy().choose_call(env, env.fleet[0]) == 2
