"""Domain entities: ride requests, fleet state and vehicles, trip records."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .geometry import Coordinate, MINUTES_PER_WEEK


class CallStatus(enum.Enum):
    WAITING = "waiting"
    ASSIGNED = "assigned"
    PICKED_UP = "picked_up"
    COMPLETED = "completed"
    CANCELED = "canceled"


# The only admissible status edges.  Trajectories are audited against this
# graph in debug runs and in tests.
ALLOWED_TRANSITIONS = {
    CallStatus.WAITING: {CallStatus.ASSIGNED, CallStatus.CANCELED},
    CallStatus.ASSIGNED: {CallStatus.PICKED_UP, CallStatus.WAITING},
    CallStatus.PICKED_UP: {CallStatus.COMPLETED},
    CallStatus.COMPLETED: set(),
    CallStatus.CANCELED: set(),
}


@dataclass
class Call:
    """A ride request with its sampled waiting tolerance and lifecycle state."""

    id: int
    created_at: float
    origin: Coordinate
    destination: Coordinate
    max_wait: float
    status: CallStatus = CallStatus.WAITING
    assigned_vehicle: Optional[int] = None
    assigned_at: Optional[float] = None
    pickup_time: Optional[float] = None
    completion_time: Optional[float] = None
    canceled_at: Optional[float] = None
    status_history: list = field(default_factory=list)

    def __post_init__(self):
        if self.max_wait <= 0:
            raise ValueError(f"call {self.id}: max_wait must be positive")
        self.status_history.append(self.status)

    def set_status(self, new: CallStatus) -> None:
        if new not in ALLOWED_TRANSITIONS[self.status]:
            raise ValueError(
                f"call {self.id}: illegal status transition "
                f"{self.status.value} -> {new.value}"
            )
        self.status = new
        self.status_history.append(new)


class FleetState:
    """Per-vehicle state as columns, one row per vehicle; vehicles are views onto rows.

    The float columns are the rows of one `floats` block, in the order of
    candidate features 0-5.  `idle` is the uint8 mask that the nearest-idle
    scan takes; a vehicle is busy exactly when its flag is 0.
    """

    def __init__(self, n: int):
        self.floats = np.zeros((6, n))
        self.x, self.y, self.dest_x, self.dest_y, self.free_at, self.reject_prob = self.floats
        self.idle = np.ones(n, dtype=np.uint8)

    @classmethod
    def adopt(cls, fleet: Sequence["Vehicle"]) -> "FleetState":
        """One store holding `fleet`'s current state; each vehicle is rebound to its row."""
        state = cls(len(fleet))
        for i, v in enumerate(fleet):
            if v.id != i:  # the engine indexes the fleet by vehicle id
                raise ValueError(f"fleet[{i}] has id {v.id}; vehicle ids must be 0..n-1 in order")
            state.floats[:, i] = v.store.floats[:, v.row]
            state.idle[i] = v.store.idle[v.row]
            v.bind(state, i)
        return state


def _cell(col: int) -> property:
    """A vehicle attribute kept in float column `col` of the vehicle's row."""

    def get(v):
        return v._floats[col]

    def put(v, value):
        v._floats[col] = value

    return property(get, put)


def _point(col: int) -> property:
    """A vehicle coordinate kept in float columns `col` and `col + 1` of its row."""

    def get(v):
        return Coordinate(v._floats[col], v._floats[col + 1])

    def put(v, at):
        v._floats[col], v._floats[col + 1] = at

    return property(get, put)


class Vehicle:
    """A fleet unit: a view onto row `row` of the `FleetState` `store`.

    A vehicle made on its own owns a one-row store until an environment
    adopts its fleet.  `reject_prob` is sampled once at creation.
    """

    __slots__ = ("id", "store", "row", "_floats", "_idle")

    location = _point(0)
    move_destination = _point(2)
    free_at = _cell(4)  # absolute time the current service ends
    reject_prob = _cell(5)

    def __init__(self, id: int, location: Coordinate, move_destination: Coordinate,
                 busy: bool = False, free_at: float = 0.0, reject_prob: float = 0.0):
        if not 0.0 <= reject_prob <= 1.0:
            raise ValueError(f"vehicle {id}: reject_prob outside [0,1]")
        self.id = id
        self.bind(FleetState(1), 0)
        self.location, self.move_destination = location, move_destination
        self.busy, self.free_at, self.reject_prob = busy, free_at, reject_prob

    def bind(self, store: FleetState, row: int) -> None:
        """Make this vehicle a view onto row `row` of `store`."""
        self.store, self.row = store, row
        # Memoryviews onto the row: scalar access through them costs about
        # half of numpy indexing and gives Python floats.
        self._floats = memoryview(store.floats[:, row])
        self._idle = memoryview(store.idle[row : row + 1])

    @property
    def busy(self) -> bool:
        return not self._idle[0]

    @busy.setter
    def busy(self, value: bool) -> None:
        self._idle[0] = not value

    def time_to_free(self, clock: float) -> float:
        """Remaining minutes of the current service; 0 when idle."""
        return max(0.0, self.free_at - clock) if self.busy else 0.0

    def set_idle(self, at: Coordinate) -> None:
        self.location = at
        self.move_destination = at
        self.busy = False
        self.free_at = 0.0


@dataclass(frozen=True)
class TripRecord:
    """One historical trip: when in the week it was requested, and where."""

    request_minute_of_week: float
    origin: Coordinate
    destination: Coordinate

    def __post_init__(self):
        if not 0.0 <= self.request_minute_of_week < MINUTES_PER_WEEK:
            raise ValueError(
                f"request_minute_of_week {self.request_minute_of_week} "
                f"outside [0, {MINUTES_PER_WEEK})"
            )

    @property
    def day_of_week(self) -> int:
        return int(self.request_minute_of_week // 1440.0)
