import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from dispatchsim import events as ev
from dispatchsim.engine import (
    REPOSITION_HOLD_MIN,
    Environment,
    ProposalOutcome,
    SimulationAborted,
    build_fleet,
    run_day,
)
from dispatchsim.demand import StochasticConfig
from dispatchsim.config import parse_lines
from dispatchsim.entities import Call, CallStatus, CallTable, FleetState, Vehicle
from dispatchsim.events import CausalityError
from dispatchsim.harness import build_calls, demand_source_from_config
from dispatchsim.geometry import Coordinate
from dispatchsim.policies import DispatchPolicy, NearestPolicy, RandomPolicy, make_baseline


def vehicle(vid, x, y, reject=0.0):
    loc = Coordinate(x, y)
    return Vehicle(id=vid, location=loc, move_destination=loc, reject_prob=reject)


def call(cid, t, ox, oy, dx, dy, wait):
    return Call(
        id=cid,
        created_at=t,
        origin=Coordinate(ox, oy),
        destination=Coordinate(dx, dy),
        max_wait=wait,
    )


class FixedVehiclePolicy(NearestPolicy):
    """Always proposes one specific vehicle at new-call epochs."""

    def __init__(self, vid):
        self.vid = vid

    def choose_vehicle(self, env, c):
        return self.vid


def simulate(fleet, calls, policy=None, speed=0.1, seed=0, **kw):
    policy = policy or NearestPolicy()
    return run_day(
        fleet,
        calls,
        policy,
        policy,
        speed=speed,
        driver_rng=np.random.default_rng(seed),
        audit=True,
        **kw,
    )


def test_single_call_hand_trace():
    v = vehicle(0, 0.0, 0.0)
    c = call(0, 10.0, 0.2, 0.0, 0.2, 0.4, wait=50.0)
    m = simulate([v], [c])
    # eta = 0.2/0.1 = 2 min, drive = 0.4/0.1 = 4 min
    assert c.status is CallStatus.COMPLETED
    assert c.assigned_at == 10.0
    assert c.pickup_time == 12.0
    assert c.completion_time == 16.0
    assert m.calls_served == 1 and m.calls_canceled == 0
    assert math.isclose(m.sum_delay, 2.0)
    assert math.isclose(m.sum_service_time, 4.0)
    assert not v.busy and v.location == Coordinate(0.2, 0.4)


def test_completed_call_time_segmentation():
    # completion - assignment = pickup leg + drive leg
    v = vehicle(0, 0.3, 0.3)
    c = call(0, 5.0, 0.5, 0.3, 0.5, 0.8, wait=30.0)
    simulate([v], [c])
    tau_p = c.pickup_time - c.assigned_at
    tau_d = c.completion_time - c.pickup_time
    assert math.isclose(c.completion_time - c.assigned_at, tau_p + tau_d)
    assert math.isclose(tau_d, 0.5 / 0.1)


def test_choosing_busy_vehicle_queues_the_call():
    v = vehicle(0, 0.0, 0.0)
    c1 = call(0, 0.0, 0.1, 0.0, 0.9, 0.0, wait=100.0)
    c2 = call(1, 1.0, 0.2, 0.0, 0.3, 0.0, wait=1000.0)
    m = simulate([v], [c1, c2], policy=FixedVehiclePolicy(0))
    # c2 arrived while the vehicle was busy; it is served after the first trip
    assert c2.status is CallStatus.COMPLETED
    assert c2.pickup_time > c1.completion_time
    assert m.calls_served == 2


def test_driver_rejection_pools_call_and_schedules_retry():
    v = vehicle(0, 0.0, 0.0, reject=1.0)  # Bernoulli trial always rejects
    c = call(0, 0.0, 0.1, 0.0, 0.5, 0.0, wait=12.0)
    m = simulate([v], [c])
    assert c.status is CallStatus.CANCELED
    assert m.calls_canceled == 1 and m.calls_served == 0
    # retries happened at +5 and +10 before the tolerance expired at t=12
    assert m.events_processed > 3


def test_accept_all_with_zero_reject_prob():
    fleet = [vehicle(i, 0.1 * i, 0.0) for i in range(4)]
    calls = [call(i, float(i) * 30, 0.05, 0.0, 0.9, 0.9, wait=500.0) for i in range(10)]
    m = simulate(fleet, calls)
    assert m.calls_served == 10
    assert m.calls_canceled == 0


def test_customer_rejection_inequality():
    v = vehicle(0, 0.3, 0.0)  # eta = 3 min at speed 0.1
    env = Environment([v], speed=0.1, driver_rng=np.random.default_rng(0))
    c = call(0, 0.0, 0.0, 0.0, 0.5, 0.5, wait=7.0)
    env.calls = [c]
    env.clock = 5.0
    outcome, eta, _ = env.propose_assignment(0, 0)
    assert outcome is ProposalOutcome.CUSTOMER_REJECTED  # 5 + 3 > 7
    assert math.isclose(eta, 3.0)

    # boundary: projected wait exactly equal to the tolerance is accepted
    v2 = vehicle(0, 0.2, 0.0)
    env2 = Environment([v2], speed=0.1, driver_rng=np.random.default_rng(0))
    env2.calls = [c]
    env2.clock = 5.0
    outcome2, _, _ = env2.propose_assignment(0, 0)
    assert outcome2 is ProposalOutcome.ACCEPTED  # 5 + 2 == 7


def test_reject_prob_one_always_driver_rejects():
    v = vehicle(0, 0.0, 0.0, reject=1.0)
    env = Environment([v], speed=0.1, driver_rng=np.random.default_rng(1))
    env.calls = [call(i, 0.0, 0.0, 0.0, 0.1, 0.1, wait=100.0) for i in range(20)]
    for i in range(20):
        outcome, _, _ = env.propose_assignment(0, i)
        assert outcome is ProposalOutcome.DRIVER_REJECTED


@pytest.mark.parametrize("reject, wait, refusal", [
    (1.0, 100.0, ProposalOutcome.DRIVER_REJECTED),
    (0.0, 4.0, ProposalOutcome.CUSTOMER_REJECTED),  # 2 + 3 > 4
])
def test_a_refused_proposal_pools_the_call_and_arms_one_retry(reject, wait, refusal):
    v = vehicle(0, 0.3, 0.0, reject=reject)  # eta = 3 min at speed 0.1
    env = Environment([v], speed=0.1, driver_rng=np.random.default_rng(0))
    env.calls = [call(0, 0.0, 0.0, 0.0, 0.5, 0.5, wait=wait)]
    env.clock = 2.0
    outcome, _, _ = env.propose_assignment(0, 0)
    assert outcome is refusal
    assert list(env.pool.ids) == [0] and not v.busy
    assert len(env.queue) == 1
    assert env.queue.pop() == (2.0 + REPOSITION_HOLD_MIN, 1, ev.REPOSITION_TIMEOUT, 0, -1)


@pytest.mark.parametrize("speed", [math.nan, math.inf, 0.0, -1.0])
def test_a_speed_that_is_not_finite_and_positive_is_refused(speed):
    # before, nan died mid-day with a CausalityError and inf ran zero-length trips
    with pytest.raises(ValueError, match=f"speed must be finite and positive, got {speed}"):
        simulate([vehicle(0, 0.0, 0.0)], [call(0, 0.0, 0.5, 0.5, 0.6, 0.6, wait=10.0)], speed=speed)


def test_cancellation_fires_exactly_at_tolerance():
    c = call(0, 10.0, 0.5, 0.5, 0.6, 0.6, wait=7.0)
    m = simulate([], [c])
    assert c.status is CallStatus.CANCELED
    assert c.canceled_at == 10.0 + 7.0  # event-time equality
    assert m.calls_canceled == 1


def test_cancellation_disarmed_by_assignment():
    v = vehicle(0, 0.0, 0.0)
    c = call(0, 0.0, 0.1, 0.0, 0.2, 0.0, wait=1000.0)
    simulate([v], [c])
    assert c.status is CallStatus.COMPLETED
    assert c.canceled_at is None


def test_zero_distance_trip_completes_immediately():
    v = vehicle(0, 0.4, 0.4)
    c = call(0, 0.0, 0.4, 0.4, 0.4, 0.4, wait=10.0)
    m = simulate([v], [c])
    assert c.pickup_time == c.completion_time == 0.0
    assert m.sum_service_time == 0.0


def test_completion_triggers_free_vehicle_epoch():
    v = vehicle(0, 0.0, 0.0)
    c1 = call(0, 0.0, 0.0, 0.0, 0.2, 0.0, wait=100.0)
    c2 = call(1, 1.0, 0.2, 0.0, 0.4, 0.0, wait=100.0)
    simulate([v], [c1, c2], policy=FixedVehiclePolicy(0))
    # second call is picked up starting exactly at the first completion
    assert c2.assigned_at == c1.completion_time
    assert c2.status is CallStatus.COMPLETED


def test_no_supply_cancels_everything():
    calls = [call(i, float(i), 0.1, 0.1, 0.9, 0.9, wait=5.0 + i) for i in range(10)]
    m = simulate([], calls)
    assert m.calls_created == 10
    assert m.calls_canceled == 10
    assert m.calls_served == 0
    assert m.pending == 0


def test_empty_day_zero_metrics():
    fleet = [vehicle(0, 0.5, 0.5)]
    m = simulate(fleet, [])
    assert m.calls_created == m.calls_served == m.calls_canceled == 0
    assert m.events_processed == 0


def test_build_fleet_is_one_store_of_views():
    fleet = build_fleet(5, StochasticConfig(), np.random.default_rng(0), np.random.default_rng(1))
    store = fleet[0].table
    assert store is fleet and isinstance(fleet, FleetState) and store.floats.shape == (6, 5)
    assert [v.id for v in fleet] == [v.row for v in fleet] == list(range(5))
    assert all(v.table is store for v in fleet)
    assert all(v.location == v.move_destination and not v.busy and v.free_at == 0.0 for v in fleet)
    assert list(store.reject_prob) == [v.reject_prob for v in fleet]


def test_a_1000_vehicle_fleet_keeps_each_fact_once():
    # six float64 columns are 48 KB, and the store makes no vehicle.  The
    # generators are made first, as the first one imports `numpy.random`.
    rngs = np.random.default_rng(0), np.random.default_rng(1)
    tracemalloc.start()
    try:
        fleet = build_fleet(1000, StochasticConfig(), *rngs)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fleet) == 1000 and traced <= 100_000


def _random_day(seed, policy_cls=NearestPolicy):
    r = np.random.default_rng(seed)
    fleet = build_fleet(
        int(r.integers(1, 6)),
        StochasticConfig(),
        np.random.default_rng(seed + 1),
        np.random.default_rng(seed + 2),
    )
    n_calls = int(r.integers(5, 60))
    times = np.sort(r.uniform(0, 1440, n_calls))
    calls = [
        call(
            i,
            float(times[i]) + i * 1e-6,
            float(r.uniform(0, 1)),
            float(r.uniform(0, 1)),
            float(r.uniform(0, 1)),
            float(r.uniform(0, 1)),
            wait=float(r.uniform(1.0, 20.0)),
        )
        for i in range(n_calls)
    ]
    if policy_cls is RandomPolicy:
        policy = RandomPolicy(np.random.default_rng(seed + 3))
    else:
        policy = policy_cls()
    m = run_day(
        fleet,
        calls,
        policy,
        policy,
        speed=0.05,
        driver_rng=np.random.default_rng(seed + 4),
        audit=True,
    )
    return m, calls, fleet


def test_conservation_and_lifecycle_on_random_days():
    for seed in range(25):
        m, calls, _ = _random_day(seed)
        assert m.calls_created == m.calls_served + m.calls_canceled + m.pending
        assert m.pending == 0  # the queue fully drains
        for c in calls:
            assert c.status in (CallStatus.COMPLETED, CallStatus.CANCELED)


def test_no_double_service_interval_overlap():
    for seed in range(10):
        _, calls, fleet = _random_day(seed)
        by_vehicle = {}
        for c in calls:
            if c.assigned_at is not None and c.completion_time is not None:
                by_vehicle.setdefault(c.assigned_vehicle, []).append(
                    (c.assigned_at, c.completion_time)
                )
        for intervals in by_vehicle.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2 + 1e-9


def test_delay_accounting():
    for seed in range(10):
        m, calls, _ = _random_day(seed)
        expected = sum(
            c.pickup_time - c.created_at for c in calls if c.pickup_time is not None
        )
        assert math.isclose(m.sum_delay, expected)
        for c in calls:
            if c.pickup_time is not None:
                assert c.pickup_time - c.created_at >= 0


def test_determinism_identical_seeds():
    m1, _, _ = _random_day(123, policy_cls=RandomPolicy)
    m2, _, _ = _random_day(123, policy_cls=RandomPolicy)
    assert m1 == m2


def test_event_ceiling_aborts_with_diagnostic():
    fleet = [vehicle(i, 0.5, 0.5) for i in range(3)]
    calls = [call(i, float(i), 0.1, 0.1, 0.9, 0.9, wait=30.0) for i in range(20)]
    policy = NearestPolicy()
    with pytest.raises(SimulationAborted, match="event ceiling"):
        run_day(
            fleet,
            calls,
            policy,
            policy,
            speed=0.05,
            driver_rng=np.random.default_rng(0),
            max_events=10,
        )


def test_resource_demand_ratio_window():
    env = Environment([vehicle(0, 0, 0)], speed=0.1, driver_rng=np.random.default_rng(0))
    assert env.resource_demand_ratio() == 1.0  # process start
    env.recent_arrivals.extend([0.0, 5.0, 14.0])
    env.clock = 14.0
    assert env.demand_count() == 3
    env.clock = 16.0  # window is (clock-15, clock]: drops the arrival at t=0
    assert env.demand_count() == 2
    assert env.resource_demand_ratio() == 0.5


CALL_FIELDS = (
    "id", "created_at", "origin", "destination", "max_wait", "status", "assigned_vehicle",
    "assigned_at", "pickup_time", "completion_time", "canceled_at", "status_history",
)


def _fields(calls):
    return [tuple(getattr(c, f) for f in CALL_FIELDS) for c in calls]


@pytest.mark.parametrize("policy_cls", [NearestPolicy, RandomPolicy])
def test_built_table_and_standalone_calls_run_the_same_day(policy_cls):
    cfg = parse_lines(["seed=3", "daily_calls=400"])
    rng = np.random.default_rng(31)
    table = build_calls(demand_source_from_config(cfg, 400), cfg, 2, 400, rng, rng)
    assert isinstance(table, CallTable) and len(table) == 400
    standalone = [Call(c.id, c.created_at, c.origin, c.destination, c.max_wait) for c in table]
    days = []
    for calls in (table, standalone):
        fleet = build_fleet(4, StochasticConfig(), np.random.default_rng(32), np.random.default_rng(33))
        policy = policy_cls(np.random.default_rng(34)) if policy_cls is RandomPolicy else policy_cls()
        days.append(simulate(fleet, calls, policy=policy, speed=0.05, seed=35))
    assert days[0] == days[1]
    assert days[0].calls_served > 0 and days[0].calls_canceled > 0
    assert _fields(table) == _fields(standalone)


def test_history_edit_after_a_day_is_seen_by_the_next_read():
    calls = [call(0, 0.0, 0.1, 0.0, 0.2, 0.0, wait=100.0), call(1, 1.0, 0.5, 0.5, 0.6, 0.6, wait=1.0)]
    simulate([vehicle(0, 0.0, 0.0)], calls, policy=FixedVehiclePolicy(0))
    held = calls[0]
    history = held.status_history
    assert history[-1] is CallStatus.COMPLETED
    history.insert(1, CallStatus.COMPLETED)
    assert held.status_history is history and history[1] is CallStatus.COMPLETED


class PoolThief(NearestPolicy):
    """Takes the lowest-id waiting call out of the pool without the engine knowing."""

    def choose_vehicle(self, env, c):
        if len(env.pool) == 2:
            env.pool.discard(env.pool.ids[0])
        return None


def test_audit_catches_a_pool_desync_made_behind_the_engines_back():
    calls = [call(i, float(i), 0.1, 0.1, 0.9, 0.9, wait=50.0) for i in range(4)]
    with pytest.raises(AssertionError, match=r"pool desync at t=2.0: pool=\[1, 2\] waiting=\[0, 1, 2\]"):
        simulate([vehicle(0, 0.5, 0.5)], calls, policy=PoolThief())
    calls = [call(i, float(i), 0.1, 0.1, 0.9, 0.9, wait=50.0) for i in range(4)]
    simulate([vehicle(0, 0.5, 0.5)], calls, policy=FixedVehiclePolicy(None))  # no theft, no error


def test_assigning_calls_to_an_environment_adopts_them():
    calls = [call(i, float(i), 0.1, 0.1, 0.9, 0.9, wait=5.0) for i in range(3)]
    env = Environment([vehicle(0, 0, 0)], speed=0.1, driver_rng=np.random.default_rng(0))
    env.calls = {c.id: c for c in calls}
    assert isinstance(env.calls, CallTable) and len(env.calls) == 3
    assert all(c.table is env.calls for c in calls)
    assert [c.id for c in env.calls.values()] == [0, 1, 2]


def test_calls_out_of_arrival_order_are_rejected():
    calls = [call(0, 5.0, 0.1, 0.1, 0.9, 0.9, wait=5.0), call(1, 4.0, 0.1, 0.1, 0.9, 0.9, wait=5.0)]
    with pytest.raises(ValueError, match="arrival order"):
        simulate([vehicle(0, 0, 0)], calls)


def test_calls_with_a_nan_arrival_time_are_rejected():
    calls = [call(i, float(i), 0.1, 0.1, 0.9, 0.9, wait=5.0) for i in range(3)]
    table = CallTable.adopt(calls)
    table.created_at[1] = math.nan
    with pytest.raises(ValueError, match="arrival order"):
        simulate([vehicle(0, 0, 0)], table)
    single = CallTable.adopt([call(0, 1.0, 0.1, 0.1, 0.9, 0.9, wait=5.0)])
    single.created_at[0] = math.nan
    with pytest.raises(CausalityError, match="new_call at t=nan"):
        simulate([vehicle(0, 0, 0)], single)


def test_zero_vehicle_day_cancels_every_call_at_its_deadline():
    r = np.random.default_rng(5)
    times = np.cumsum(r.uniform(0.0, 3.0, 200))
    waits = r.uniform(0.5, 40.0, 200)
    calls = [call(i, float(times[i]), 0.1, 0.1, 0.9, 0.9, wait=float(waits[i])) for i in range(200)]
    m = simulate([], calls)
    assert m.calls_canceled == 200 and m.events_processed == 2 * 200
    assert all(c.canceled_at == c.created_at + c.max_wait for c in calls)


def test_only_new_calls_are_armed_before_the_day_starts(monkeypatch):
    armed = []  # the queue's length when the day starts to run
    run = Environment.run
    monkeypatch.setattr(Environment, "run", lambda env: armed.append(len(env.queue)) or run(env))
    calls = [call(i, float(i), 0.1, 0.1, 0.9, 0.9, wait=5.0) for i in range(30)]
    m = simulate([vehicle(0, 0.5, 0.5)], calls)
    assert armed == [30] and m.calls_created == 30


class IdleThief(NearestPolicy):
    """Marks vehicle 0 busy in the idle mask alone, behind the engine's back."""

    def choose_vehicle(self, env, c):
        env.fleet_state.idle[0] = 0
        return None


def test_audit_catches_an_idle_index_desync():
    calls = [call(0, 1.0, 0.1, 0.1, 0.9, 0.9, wait=50.0)]
    with pytest.raises(AssertionError, match=r"idle index desync at t=1.0: idle_ids=\[0, 1\] mask=\[1\]"):
        simulate([vehicle(0, 0.5, 0.5), vehicle(1, 0.5, 0.5)], calls, policy=IdleThief())


# SHA-256 of the event trace of a 3,000-call, 25-vehicle day, taken before
# cancellations were armed on arrival: the same events pop in the same order.
TRACE_DIGESTS = {
    "nn": "766decb988e0a0ff3b36e93f927bc340a954dd0f97a8de4f4e768e5df2edbc8b",
    "fifo": "e7a4f0019a7e32b593ea2211f3c701e67398dc5c7950236d605def36907febfd",
    "random": "e172cb830d4a1337d05a6393f2df204da4860c1472f18cffcd14b5b1926acd76",
}


@pytest.mark.parametrize("name", list(TRACE_DIGESTS))
def test_event_trace_digest_is_pinned(name):
    cfg = parse_lines(["seed=3", "daily_calls=3000"])
    rng = np.random.default_rng(41)
    calls = build_calls(demand_source_from_config(cfg, 3000), cfg, 2, 3000, rng, rng)
    fleet = build_fleet(25, StochasticConfig(), np.random.default_rng(42), np.random.default_rng(43))
    policy = make_baseline(name, np.random.default_rng(44))
    trace = []
    run_day(fleet, calls, policy, policy, speed=0.05, driver_rng=np.random.default_rng(45), trace=trace)
    assert hashlib.sha256("\n".join(trace).encode()).hexdigest() == TRACE_DIGESTS[name]


@pytest.mark.parametrize("name", ["nn", "fifo"])
def test_the_only_call_views_are_the_new_call_epochs(name, monkeypatch):
    cfg = parse_lines(["seed=3", "daily_calls=400"])
    rng = np.random.default_rng(31)
    calls = build_calls(demand_source_from_config(cfg, 400), cfg, 2, 400, rng, rng)
    fleet = build_fleet(4, StochasticConfig(), np.random.default_rng(32), np.random.default_rng(33))
    views = 0
    view = CallTable.view

    def counted_view(table, row):
        nonlocal views
        views += 1
        return view(table, row)

    monkeypatch.setattr(CallTable, "view", counted_view)
    policy = make_baseline(name)
    m = simulate(fleet, calls, policy=policy, speed=0.05, seed=35)
    assert m.calls_created == 400 and views == m.calls_created
