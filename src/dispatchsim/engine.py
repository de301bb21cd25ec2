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
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import events as ev
from .demand import StochasticConfig, sample_rejection_prob
from .entities import Call, CallStatus, FleetState, Vehicle
from .events import EventQueue
from .geometry import BoundingBox, Coordinate, manhattan_distance, travel_time

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
        fleet: List[Vehicle],
        speed: float,
        driver_rng: np.random.Generator,
        week_origin_offset: float = 0.0,
        max_events: int = 10_000_000,
        audit: bool = False,
        trace: Optional[list] = None,
    ):
        self.fleet = fleet
        self.fleet_state = FleetState.adopt(fleet)
        self.speed = speed
        self.driver_rng = driver_rng
        self.week_origin_offset = week_origin_offset
        self.max_events = max_events
        self.audit = audit
        self.trace = trace

        self.clock = 0.0
        self.queue = EventQueue()
        self.calls: dict[int, Call] = {}
        self.pool: dict[int, Call] = {}  # waiting calls, insertion == id order
        self.recent_arrivals: deque = deque()
        self.announced: set = set()  # call ids whose arrival epoch has run
        self.metrics = DayMetrics()

        self.new_call_policy = None
        self.free_vehicle_policy = None

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

    def propose_assignment(
        self, vehicle: Vehicle, call: Call
    ) -> Tuple[ProposalOutcome, float, float]:
        """Run the dual-acceptance protocol; returns (outcome, eta, drive)."""
        eta = travel_time(manhattan_distance(vehicle.location, call.origin), self.speed)
        drive = travel_time(
            manhattan_distance(call.origin, call.destination), self.speed
        )
        if self.driver_rng.random() < vehicle.reject_prob:
            return ProposalOutcome.DRIVER_REJECTED, eta, drive
        if self.clock + eta - call.created_at > call.max_wait:
            return ProposalOutcome.CUSTOMER_REJECTED, eta, drive
        # accepted: commit the assignment and schedule the pickup leg
        self.pool.pop(call.id, None)
        call.set_status(CallStatus.ASSIGNED)
        call.assigned_vehicle = vehicle.id
        call.assigned_at = self.clock
        vehicle.busy = True
        vehicle.move_destination = call.destination
        vehicle.free_at = self.clock + eta + drive
        self.queue.push(
            self.clock + eta, ev.ARRIVAL_AT_ORIGIN, vehicle.id, call.id, self.clock
        )
        return ProposalOutcome.ACCEPTED, eta, drive

    def _after_rejection(self, vehicle: Vehicle, call: Call) -> None:
        self.pool[call.id] = call
        self.queue.push(
            self.clock + REPOSITION_HOLD_MIN,
            ev.REPOSITION_TIMEOUT,
            vehicle.id,
            -1,
            self.clock,
        )

    # -- event handlers ------------------------------------------------------

    def handle_new_call(self, call: Call) -> None:
        self.metrics.calls_created += 1
        self.announced.add(call.id)
        self.recent_arrivals.append(call.created_at)
        if not self.fleet:
            self.pool[call.id] = call
            return
        vid = self.new_call_policy.choose_vehicle(self, call)
        if vid is None:
            self.pool[call.id] = call
            return
        vehicle = self.fleet[vid]
        if vehicle.busy:
            self.pool[call.id] = call
            return
        outcome, eta, drive = self.propose_assignment(vehicle, call)
        self.new_call_policy.on_proposal_outcome(self, "new_call", outcome, eta, drive)
        if outcome is not ProposalOutcome.ACCEPTED:
            self._after_rejection(vehicle, call)

    def handle_free_vehicle(self, vehicle: Vehicle) -> None:
        if vehicle.busy or not self.pool:
            return
        cid = self.free_vehicle_policy.choose_call(self, vehicle)
        if cid is None:
            return
        call = self.pool[cid]
        outcome, eta, drive = self.propose_assignment(vehicle, call)
        self.free_vehicle_policy.on_proposal_outcome(
            self, "free_vehicle", outcome, eta, drive
        )
        if outcome is not ProposalOutcome.ACCEPTED:
            self._after_rejection(vehicle, call)

    def fire_cancellation(self, call: Call) -> None:
        if call.status is not CallStatus.WAITING:
            return  # disarmed by a successful assignment
        call.set_status(CallStatus.CANCELED)
        call.canceled_at = self.clock
        self.pool.pop(call.id, None)
        self.metrics.calls_canceled += 1

    def handle_arrival_at_origin(self, vehicle: Vehicle, call: Call) -> None:
        call.set_status(CallStatus.PICKED_UP)
        call.pickup_time = self.clock
        self.metrics.calls_served += 1
        self.metrics.sum_delay += self.clock - call.created_at
        vehicle.location = call.origin
        drive = travel_time(
            manhattan_distance(call.origin, call.destination), self.speed
        )
        self.queue.push(
            self.clock + drive, ev.ARRIVAL_AT_DESTINATION, vehicle.id, call.id, self.clock
        )

    def handle_arrival_at_destination(self, vehicle: Vehicle, call: Call) -> None:
        call.set_status(CallStatus.COMPLETED)
        call.completion_time = self.clock
        self.metrics.sum_service_time += self.clock - call.pickup_time
        vehicle.set_idle(call.destination)
        self.queue.push(self.clock, ev.FREE_VEHICLE, vehicle.id, -1, self.clock)

    def handle_reposition_timeout(self, vehicle: Vehicle) -> None:
        if not vehicle.busy:
            self.queue.push(self.clock, ev.FREE_VEHICLE, vehicle.id, -1, self.clock)

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
                self.handle_new_call(self.calls[id_a])
            elif kind == ev.FREE_VEHICLE:
                self.handle_free_vehicle(self.fleet[id_a])
            elif kind == ev.CANCELLATION:
                self.fire_cancellation(self.calls[id_a])
            elif kind == ev.ARRIVAL_AT_ORIGIN:
                self.handle_arrival_at_origin(self.fleet[id_a], self.calls[id_b])
            elif kind == ev.ARRIVAL_AT_DESTINATION:
                self.handle_arrival_at_destination(self.fleet[id_a], self.calls[id_b])
            elif kind == ev.REPOSITION_TIMEOUT:
                self.handle_reposition_timeout(self.fleet[id_a])
            if self.trace is not None:
                self.trace.append(f"{time:.6f},{ev.KIND_NAMES[kind]},{id_a},{id_b}")
            if self.audit:
                self._audit_state()
        self.metrics.pending = sum(
            1
            for c in self.calls.values()
            if c.status
            in (CallStatus.WAITING, CallStatus.ASSIGNED, CallStatus.PICKED_UP)
        )
        return self.metrics

    def _audit_state(self) -> None:
        waiting = {
            c.id
            for c in self.calls.values()
            if c.status is CallStatus.WAITING and c.id in self.announced
        }
        if waiting != set(self.pool):
            raise AssertionError(
                f"pool desync at t={self.clock}: pool={sorted(self.pool)} "
                f"waiting={sorted(waiting)}"
            )


def build_fleet(
    n: int,
    stochastic: StochasticConfig,
    placement_rng: np.random.Generator,
    rejection_rng: np.random.Generator,
    box: BoundingBox = BoundingBox(),
) -> List[Vehicle]:
    """Fleet with uniform initial placement and beta-sampled rejection probs."""
    fleet = []
    for i in range(n):  # draws per vehicle: x, y, then the rejection probability
        x = placement_rng.uniform(box.x_min, box.x_max)
        y = placement_rng.uniform(box.y_min, box.y_max)
        reject = sample_rejection_prob(stochastic, rejection_rng)
        fleet.append(Vehicle(i, Coordinate(x, y), Coordinate(x, y), reject_prob=reject))
    return fleet


def run_day(
    fleet: List[Vehicle],
    calls: List[Call],
    new_call_policy,
    free_vehicle_policy,
    speed: float,
    driver_rng: np.random.Generator,
    week_origin_offset: float = 0.0,
    max_events: int = 10_000_000,
    audit: bool = False,
    trace: Optional[list] = None,
) -> DayMetrics:
    """Simulate one day: drain all events generated by the given call list.

    `calls` must be time-ordered with strictly increasing ids starting at 0.
    Cancellation timers are armed up-front so they are always scheduled by
    the time the matching new-call epoch runs.
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
    for call in calls:
        env.calls[call.id] = call
        env.queue.push(call.created_at, ev.NEW_CALL, call.id)
        env.queue.push(call.created_at + call.max_wait, ev.CANCELLATION, call.id)
    new_call_policy.on_day_start(env)
    if free_vehicle_policy is not new_call_policy:
        free_vehicle_policy.on_day_start(env)
    metrics = env.run()
    new_call_policy.on_day_end(env)
    if free_vehicle_policy is not new_call_policy:
        free_vehicle_policy.on_day_end(env)
    return metrics
