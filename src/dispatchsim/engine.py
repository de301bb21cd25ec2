"""The discrete-event dispatch environment.

Decision epochs are triggered by two event kinds (a new call arriving, a
vehicle becoming free).  Assignments are proposals subject to dual
acceptance: a Bernoulli driver-rejection trial and a customer tolerance
check on the projected pickup time.  Rejected proposals put the call back
in the waiting pool and schedule a retry epoch for the vehicle after a
fixed hold.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import events as ev
from .demand import StochasticConfig, sample_rejection_prob
from .entities import ASSIGNED, CANCELED, COMPLETED, PICKED_UP, WAITING
from .entities import Call, CallPool, CallTable, FleetState, Vehicle
from .events import EventQueue
from .geometry import BoundingBox

REPOSITION_HOLD_MIN = 5.0
DEMAND_WINDOW_MIN = 15.0


class ProposalOutcome(enum.Enum):
    ACCEPTED = "accepted"
    DRIVER_REJECTED = "driver_rejected"
    CUSTOMER_REJECTED = "customer_rejected"


class SimulationAborted(Exception):
    """The nontermination guard tripped."""


@dataclass
class DayMetrics:
    policy: str = ""
    scenario: str = ""
    seed: int = 0
    calls_created: int = 0
    calls_served: int = 0
    calls_canceled: int = 0
    pending: int = 0
    sum_delay: float = 0.0
    sum_service_time: float = 0.0
    events_processed: int = 0

    @property
    def avg_delay(self) -> float:
        return self.sum_delay / self.calls_served if self.calls_served else 0.0

    @property
    def cancel_rate(self) -> float:
        return self.calls_canceled / self.calls_created if self.calls_created else 0.0


class Environment:
    """Mutable state of one simulated day plus the event handlers."""

    def __init__(
        self,
        fleet: Union[FleetState, List[Vehicle]],
        speed: float,
        driver_rng: np.random.Generator,
        week_origin_offset: float = 0.0,
        max_events: int = 10_000_000,
        audit: bool = False,
        trace: Optional[list] = None,
    ):
        if not (math.isfinite(speed) and speed > 0.0):
            raise ValueError(f"vehicle speed must be finite and positive, got {speed}")
        self.fleet = fleet  # a store is run as it is; standalone vehicles are adopted into one
        self.fleet_state = fleet if isinstance(fleet, FleetState) else FleetState.adopt(fleet)
        self.speed = speed
        self.driver_rng = driver_rng
        self.week_origin_offset = week_origin_offset
        self.max_events = max_events
        self.audit = audit
        self.trace = trace

        self.clock = 0.0
        self.queue = EventQueue()
        self.calls = CallTable(0)  # and an empty pool
        self.recent_arrivals: deque = deque()
        self.metrics = DayMetrics()

        self.new_call_policy = None
        self.free_vehicle_policy = None

    @property
    def calls(self) -> CallTable:
        """The day's calls by id; assigned calls (a list or an id -> call mapping) are adopted."""
        return self._calls

    @calls.setter
    def calls(self, calls) -> None:
        if not isinstance(calls, CallTable):
            calls = CallTable.adopt(list(calls.values() if hasattr(calls, "values") else calls))
        self._calls = calls
        self._pool = CallPool(calls)  # empty

    @property
    def pool(self) -> CallPool:
        """The waiting calls among `calls`; an assigned id -> call mapping becomes a `CallPool`."""
        return self._pool

    @pool.setter
    def pool(self, calls) -> None:
        if not isinstance(calls, CallPool):
            pool = CallPool(self.calls)
            for cid, call in dict(calls).items():
                if call.table is not self.calls or call.row != cid:
                    raise ValueError(f"call {cid} is not a row of the environment's calls")
                pool.add(cid)
            calls = pool
        self._pool = calls

    # -- context -----------------------------------------------------------

    def demand_count(self) -> int:
        """New calls that arrived within the trailing demand window."""
        cutoff = self.clock - DEMAND_WINDOW_MIN
        while self.recent_arrivals and self.recent_arrivals[0] <= cutoff:
            self.recent_arrivals.popleft()
        return len(self.recent_arrivals)

    def resource_demand_ratio(self) -> float:
        count = self.demand_count()
        return len(self.fleet) / count if count else 1.0

    # -- assignment protocol ------------------------------------------------

    def propose_assignment(self, vid: int, cid: int) -> Tuple[ProposalOutcome, float, float]:
        """Run the dual-acceptance protocol for vehicle `vid` and call `cid`; returns (outcome, eta, drive)."""
        calls = self.calls
        ox, oy = calls.origin_x[cid], calls.origin_y[cid]
        dx, dy = calls.dest_x[cid], calls.dest_y[cid]
        state = self.fleet_state
        x, y, dest_x, dest_y, free_at, reject_prob = state.columns
        # travel times are L1 distances in box units over the speed
        eta = (abs(x[vid] - ox) + abs(y[vid] - oy)) / self.speed
        drive = (abs(ox - dx) + abs(oy - dy)) / self.speed
        if self.driver_rng.random() < reject_prob[vid]:
            outcome = ProposalOutcome.DRIVER_REJECTED
        elif self.clock + eta - calls.created_at[cid] > calls.max_wait[cid]:
            outcome = ProposalOutcome.CUSTOMER_REJECTED
        else:  # accepted: commit the assignment and schedule the pickup leg
            self.pool.discard(cid)
            calls.set_status(cid, ASSIGNED)
            calls.assigned_vehicle[cid] = vid
            calls.assigned_at[cid] = self.clock
            state.set_busy(vid, True)
            dest_x[vid], dest_y[vid] = dx, dy
            free_at[vid] = self.clock + eta + drive
            self.queue.push(self.clock + eta, ev.ARRIVAL_AT_ORIGIN, vid, cid, self.clock)
            return ProposalOutcome.ACCEPTED, eta, drive
        # refused: the call waits in the pool again, and the vehicle retries after a hold
        self.pool.add(cid)
        self.queue.push(self.clock + REPOSITION_HOLD_MIN, ev.REPOSITION_TIMEOUT, vid, -1, self.clock)
        return outcome, eta, drive

    # -- event handlers ------------------------------------------------------
    # Calls and vehicles are named by id; their state is read and written
    # in the `calls` and `fleet_state` columns.

    def handle_new_call(self, cid: int) -> None:
        calls = self.calls
        created_at = calls.created_at[cid]
        # the call's deadline is armed when it arrives, before any outcome
        self.queue.push(created_at + calls.max_wait[cid], ev.CANCELLATION, cid, -1, self.clock)
        self.metrics.calls_created += 1
        self.recent_arrivals.append(created_at)
        vid = self.new_call_policy.choose_vehicle(self, calls.view(cid)) if self.fleet else None
        if vid is None or not self.fleet_state.idle_flags[vid]:
            self.pool.add(cid)
            return
        outcome, eta, drive = self.propose_assignment(vid, cid)
        self.new_call_policy.on_proposal_outcome(self, "new_call", outcome, eta, drive)

    def handle_free_vehicle(self, vid: int) -> None:
        if not (self.fleet_state.idle_flags[vid] and self.pool):
            return
        cid = self.free_vehicle_policy.choose_call(self, self.fleet_state.view(vid))
        if cid is None:
            return
        outcome, eta, drive = self.propose_assignment(vid, cid)
        self.free_vehicle_policy.on_proposal_outcome(self, "free_vehicle", outcome, eta, drive)

    def fire_cancellation(self, cid: int) -> None:
        calls = self.calls
        if calls.status[cid] != WAITING:
            return  # disarmed by a successful assignment
        calls.set_status(cid, CANCELED)
        calls.canceled_at[cid] = self.clock
        self.pool.discard(cid)
        self.metrics.calls_canceled += 1

    def handle_arrival_at_origin(self, vid: int, cid: int) -> None:
        calls = self.calls
        calls.set_status(cid, PICKED_UP)
        calls.pickup_time[cid] = self.clock
        self.metrics.calls_served += 1
        self.metrics.sum_delay += self.clock - calls.created_at[cid]
        x, y, _, _, free_at, _ = self.fleet_state.columns
        x[vid], y[vid] = calls.origin_x[cid], calls.origin_y[cid]
        # the accepted proposal set free_at to this pickup's time plus the drive
        self.queue.push(free_at[vid], ev.ARRIVAL_AT_DESTINATION, vid, cid, self.clock)

    def handle_arrival_at_destination(self, vid: int, cid: int) -> None:
        calls = self.calls
        calls.set_status(cid, COMPLETED)
        calls.completion_time[cid] = self.clock
        self.metrics.sum_service_time += self.clock - calls.pickup_time[cid]
        self.fleet_state.set_idle(vid, calls.dest_x[cid], calls.dest_y[cid])
        self.queue.push(self.clock, ev.FREE_VEHICLE, vid, -1, self.clock)

    def handle_reposition_timeout(self, vid: int) -> None:
        if self.fleet_state.idle_flags[vid]:
            self.queue.push(self.clock, ev.FREE_VEHICLE, vid, -1, self.clock)

    # -- main loop -----------------------------------------------------------

    def run(self) -> DayMetrics:
        pop = self.queue.pop
        while True:
            event = pop()
            if event is None:
                break
            time, _seq, kind, id_a, id_b = event
            if time < self.clock:
                raise SimulationAborted(
                    f"clock went backwards: {time} < {self.clock}"
                )
            self.clock = time
            self.metrics.events_processed += 1
            if self.metrics.events_processed > self.max_events:
                raise SimulationAborted(
                    f"event ceiling {self.max_events} exceeded at t={self.clock}; "
                    f"queue={len(self.queue)}, pool={len(self.pool)}"
                )
            if kind == ev.NEW_CALL:
                self.handle_new_call(id_a)
            elif kind == ev.FREE_VEHICLE:
                self.handle_free_vehicle(id_a)
            elif kind == ev.CANCELLATION:
                self.fire_cancellation(id_a)
            elif kind == ev.ARRIVAL_AT_ORIGIN:
                self.handle_arrival_at_origin(id_a, id_b)
            elif kind == ev.ARRIVAL_AT_DESTINATION:
                self.handle_arrival_at_destination(id_a, id_b)
            elif kind == ev.REPOSITION_TIMEOUT:
                self.handle_reposition_timeout(id_a)
            if self.trace is not None:
                self.trace.append(f"{time:.6f},{ev.KIND_NAMES[kind]},{id_a},{id_b}")
            if self.audit:
                self._audit_state()
        # waiting, assigned and picked-up calls have the codes below COMPLETED
        self.metrics.pending = int(np.count_nonzero(np.asarray(self.calls.status) < COMPLETED))
        return self.metrics

    def _audit_state(self) -> None:
        # New-call epochs run in id order, so the announced calls are the
        # first `calls_created` rows; the waiting ones among them are the pool.
        announced = np.asarray(self.calls.status)[: self.metrics.calls_created]
        waiting = np.flatnonzero(announced == WAITING).tolist()
        pooled = self.pool.ids.tolist()
        if waiting != pooled:
            raise AssertionError(f"pool desync at t={self.clock}: pool={pooled} waiting={waiting}")
        state = self.fleet_state
        idle = np.flatnonzero(state.idle).tolist()
        if idle != state.idle_ids:
            raise AssertionError(
                f"idle index desync at t={self.clock}: idle_ids={state.idle_ids} mask={idle}"
            )


def build_fleet(
    n: int,
    stochastic: StochasticConfig,
    placement_rng: np.random.Generator,
    rejection_rng: np.random.Generator,
    box: BoundingBox = BoundingBox(),
) -> FleetState:
    """Fleet with uniform initial placement and beta-sampled rejection probs.

    One n-row `FleetState`, which a day runs on, as on `build_calls`' table.
    Draws per vehicle, in id order: x then y from `placement_rng`, then the
    rejection probability from `rejection_rng`; one generator may serve as both.
    """
    xs, ys, rejects = [], [], []
    for _ in range(n):
        xs.append(placement_rng.uniform(box.x_min, box.x_max))
        ys.append(placement_rng.uniform(box.y_min, box.y_max))
        rejects.append(sample_rejection_prob(stochastic, rejection_rng))
    state = FleetState(n)
    state.x[:] = state.dest_x[:] = xs
    state.y[:] = state.dest_y[:] = ys
    state.reject_prob[:] = rejects
    return state


def run_day(
    fleet: Union[FleetState, List[Vehicle]],
    calls: Union[CallTable, Sequence[Call]],
    new_call_policy,
    free_vehicle_policy,
    speed: float,
    driver_rng: np.random.Generator,
    week_origin_offset: float = 0.0,
    max_events: int = 10_000_000,
    audit: bool = False,
    trace: Optional[list] = None,
) -> DayMetrics:
    """Simulate one day: drain all events generated by the given calls.

    `fleet` is a `FleetState`, which the day runs on in place, or vehicles
    with ids 0..n-1, which it adopts into one store; `calls` is a `CallTable`
    whose rows are in arrival order, or calls with ids 0..n-1 in arrival
    order, which it adopts into one table.  Only the new-call events are
    armed up-front, one push per call in id order, straight from the
    `created_at` column; since their times never decrease, the queue keeps
    them all as columns (see `EventQueue`).  Each new-call epoch arms its
    call's cancellation at `created_at + max_wait`.  Events due at the same
    time pop in push order, so a cancellation pops after the new calls of
    its time and after the vehicle events of its time that were pushed
    before its call arrived.  Under the package's policies none of those
    reads the pool or the canceled call, so the day's outcome does not
    depend on that order.
    """
    env = Environment(
        fleet,
        speed,
        driver_rng,
        week_origin_offset=week_origin_offset,
        max_events=max_events,
        audit=audit,
        trace=trace,
    )
    env.new_call_policy = new_call_policy
    env.free_vehicle_policy = free_vehicle_policy
    env.calls = calls
    arrivals = np.asarray(env.calls.created_at)
    if not (arrivals[1:] >= arrivals[:-1]).all():  # the audit relies on it; nan fails too
        raise ValueError("calls must be in arrival order")
    push = env.queue.push
    for cid, t in enumerate(env.calls.created_at):
        push(t, ev.NEW_CALL, cid)
    metrics = env.run()
    new_call_policy.on_day_end(env)
    if free_vehicle_policy is not new_call_policy:
        free_vehicle_policy.on_day_end(env)
    return metrics
