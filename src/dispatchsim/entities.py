"""Domain entities: call state and calls, the waiting pool, fleet state and vehicles."""

from __future__ import annotations

import enum
import math
from array import array
from bisect import bisect_left, insort
from typing import List, Optional, Sequence

import numpy as np

from .geometry import Coordinate


class CallStatus(enum.Enum):
    WAITING = "waiting"
    ASSIGNED = "assigned"
    PICKED_UP = "picked_up"
    COMPLETED = "completed"
    CANCELED = "canceled"

    # Enum.__hash__ is Python code; members are singletons, so identity
    # hashing is equivalent and keeps status lookups free of Python-level calls.
    __hash__ = object.__hash__


# The only admissible status edges.  A call waits, is assigned once a
# proposal is accepted (a refused one leaves it waiting), is picked up and
# completes, or is canceled while it waits.  So the graph is a tree rooted
# at WAITING, and the statuses a call has taken are the path to its current
# one.  `CallTable.set_status` refuses every other edge.
ALLOWED_TRANSITIONS = {
    CallStatus.WAITING: {CallStatus.ASSIGNED, CallStatus.CANCELED},
    CallStatus.ASSIGNED: {CallStatus.PICKED_UP},
    CallStatus.PICKED_UP: {CallStatus.COMPLETED},
    CallStatus.COMPLETED: set(),
    CallStatus.CANCELED: set(),
}


# A status's code is its index in STATUSES: the int8 values of call status
# columns.  EDGES[a, b] is 1 when code a -> code b is an allowed edge.
STATUSES = tuple(CallStatus)
WAITING, ASSIGNED, PICKED_UP, COMPLETED, CANCELED = range(len(STATUSES))
STATUS_CODES = {status: code for code, status in enumerate(STATUSES)}
EDGES = np.array([[b in ALLOWED_TRANSITIONS[a] for b in STATUSES] for a in STATUSES], np.int8)
_EDGE = EDGES.tobytes()  # flat and row-major; indexing it gives Python ints


def _path(status: CallStatus) -> tuple:
    """The statuses from WAITING to `status` in the transition tree."""
    for parent, targets in ALLOWED_TRANSITIONS.items():
        if status in targets:
            return _path(parent) + (status,)
    return (status,)


# PATHS[code] is the history of a call whose status has code `code`.
PATHS = tuple(map(_path, STATUSES))

# The float columns of a `CallTable`, in row order; the first five are what
# `CallPool.columns` gathers by default.
CALL_FLOATS = (
    "origin_x", "origin_y", "dest_x", "dest_y", "created_at", "max_wait",
    "assigned_at", "pickup_time", "completion_time", "canceled_at",
)

_new = object.__new__  # a view without its Python-level constructor
_new_tuple = tuple.__new__  # Coordinate(x, y) likewise


def _column(col: int, optional: bool = False) -> property:
    """A view's attribute kept in float column `col` of its table; nan is None when `optional`."""

    def get(view):
        value = view.table.columns[col][view.row]
        return None if optional and value != value else value

    def put(view, value):
        view.table.columns[col][view.row] = math.nan if value is None else value

    return property(get, put)


def _place(col: int) -> property:
    """A view coordinate kept in float columns `col` (x) and `col + 1` (y) of its table."""

    def get(view):
        columns, row = view.table.columns, view.row
        return _new_tuple(Coordinate, (columns[col][row], columns[col + 1][row]))

    def put(view, at):
        columns, row = view.table.columns, view.row
        columns[col][row], columns[col + 1][row] = at

    return property(get, put)


class Table:
    """The base of `CallTable` and `FleetState`: column r of `floats` is item `first_id + r`.

    An item is a view `(id, table, row)` of the subclass's `item` class;
    `view(row)` makes one, and `len`, indexing and iteration give them.
    """

    first_id = 0

    def __len__(self) -> int:
        return self.floats.shape[1]

    def view(self, row: int):
        item = _new(self.item)
        item.id, item.table, item.row = self.first_id + row, self, row
        return item

    def __getitem__(self, row: int):
        return self.view(range(len(self))[row])

    def __iter__(self):
        return map(self.view, range(len(self)))

    @classmethod
    def adopt(cls, items: Sequence):
        """One store holding `items`' current state; each item is rebound to its row.

        Item i must have id i, as the engine indexes by id.  Each id is
        checked as its row is filled (`_take`: the non-float columns), and
        no item is rebound before all are, so a refusal changes no item.
        """
        table = cls(len(items))
        for i, item in enumerate(items):
            if item.id != i:
                raise ValueError(
                    f"{cls.label}[{i}] has id {item.id}; {cls.kind} ids must be 0..n-1 in order")
            table.floats[:, i] = item.table.floats[:, item.row]
            table._take(i, item.table, item.row)
        for i, item in enumerate(items):
            item.table, item.row = table, i
        return table


class Call:
    """A ride request with its sampled waiting tolerance and lifecycle state.

    A view onto row `row` of the `CallTable` `table`.  A call made on its own
    owns a one-row table until a day adopts it; `CallTable.view` makes calls
    over an existing table instead.  `status_history` is the path of the
    row's status (`PATHS`).  The call keeps the list it returned, with how
    much of the path that list has taken, and a later read appends the
    path's new statuses to it; so an edit made through the call lasts as
    long as the call does, while another view of the row reads the path.
    """

    __slots__ = ("id", "table", "row", "_history")

    # column numbers are places in `CALL_FLOATS`
    origin, destination = _place(0), _place(2)
    created_at, max_wait = _column(4), _column(5)
    assigned_at = _column(6, optional=True)
    pickup_time = _column(7, optional=True)
    completion_time = _column(8, optional=True)
    canceled_at = _column(9, optional=True)

    def __init__(self, id: int, created_at: float, origin: Coordinate, destination: Coordinate,
                 max_wait: float, status: CallStatus = CallStatus.WAITING,
                 assigned_vehicle: Optional[int] = None, assigned_at: Optional[float] = None,
                 pickup_time: Optional[float] = None, completion_time: Optional[float] = None,
                 canceled_at: Optional[float] = None):
        if not math.isfinite(created_at):
            raise ValueError(f"call {id}: created_at must be finite, got {created_at}")
        if not max_wait > 0:  # nan fails too
            raise ValueError(f"call {id}: max_wait must be positive, got {max_wait}")
        self.id, self.table, self.row = id, CallTable(1, first_id=id), 0
        self.created_at, self.origin, self.destination, self.max_wait = (
            created_at, origin, destination, max_wait)
        self.assigned_vehicle, self.assigned_at, self.pickup_time = (
            assigned_vehicle, assigned_at, pickup_time)
        self.completion_time, self.canceled_at = completion_time, canceled_at
        self.status = status

    @property
    def status(self) -> CallStatus:
        return STATUSES[self.table.status[self.row]]

    @status.setter
    def status(self, value: CallStatus) -> None:
        self.table.status[self.row] = STATUS_CODES[value]

    @property
    def assigned_vehicle(self) -> Optional[int]:
        vid = self.table.assigned_vehicle[self.row]
        return None if vid < 0 else vid

    @assigned_vehicle.setter
    def assigned_vehicle(self, vid: Optional[int]) -> None:
        self.table.assigned_vehicle[self.row] = -1 if vid is None else vid

    @property
    def status_history(self) -> list:
        path = PATHS[self.table.status[self.row]]
        try:
            history, taken = self._history
        except AttributeError:  # the first read through this call
            history, taken = [], 0
        history += path[taken:]
        self._history = history, len(path)
        return history

    def set_status(self, new: CallStatus) -> None:
        self.table.set_status(self.row, STATUS_CODES[new])


class CallTable(Table):
    """Per-call state as columns, one row per call; calls are views onto rows.

    `floats` holds the `CALL_FLOATS` columns as rows, nan for a time not yet
    reached.  `columns` holds a memoryview onto each, also kept as the
    attribute of the column's name; scalar access through a memoryview costs
    about half of numpy indexing and gives Python values.  `status` (int8
    codes of `STATUSES`) and `assigned_vehicle` (a C int, -1 for none) are
    memoryviews too; `np.asarray` gives the array under any of them.  Row r
    is call `first_id + r`, and `view`, indexing, iteration and `values()`
    give calls (see `Table`).  A row's status history is `PATHS` of its
    status, so `history(row)` keeps nothing per row.
    """

    item, label, kind = Call, "calls", "call"

    def __init__(self, n: int, first_id: int = 0):
        self.first_id = first_id
        self.floats = np.full((len(CALL_FLOATS), n), np.nan)
        self.columns = tuple(map(memoryview, self.floats))
        (self.origin_x, self.origin_y, self.dest_x, self.dest_y, self.created_at, self.max_wait,
         self.assigned_at, self.pickup_time, self.completion_time, self.canceled_at) = self.columns
        self.status = memoryview(np.zeros(n, dtype=np.int8))  # all waiting
        self.assigned_vehicle = memoryview(np.full(n, -1, dtype=np.intc))

    def _take(self, row: int, src: "CallTable", at: int) -> None:
        self.status[row], self.assigned_vehicle[row] = src.status[at], src.assigned_vehicle[at]

    values = Table.__iter__

    def set_status(self, row: int, code: int) -> None:
        old = self.status[row]
        if not _EDGE[old * len(STATUSES) + code]:
            raise ValueError(
                f"call {self.first_id + row}: illegal status transition "
                f"{STATUSES[old].value} -> {STATUSES[code].value}"
            )
        self.status[row] = code

    def history(self, row: int) -> list:
        """Row `row`'s statuses in order: a fresh list of its status's path."""
        return list(PATHS[self.status[row]])


class CallPool:
    """The waiting calls of one `CallTable`, kept as their ids.

    `ids` is an `array('q')` of the pooled call ids in increasing order; an
    id is a row of `table`.  `columns(rows)` gathers the table's float
    rows `rows` (an index or a slice into `CALL_FLOATS`; by default the
    first five: origin x, origin y, destination x, destination y and
    `created_at`) at the pooled calls on every call.  It is a fresh
    C-contiguous float64 array whose last axis runs over `ids`, so it
    always shows the table's current values; a rule gathers only the rows
    it reads.  `pool[cid]` and `values()` give views onto the table's rows.
    """

    def __init__(self, table: CallTable):
        self.table = table
        self.ids = array("q")

    def columns(self, rows=slice(5)) -> np.ndarray:
        return self.table.floats[rows].take(np.frombuffer(self.ids, np.int64), axis=-1)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)

    def __contains__(self, cid) -> bool:
        ids = self.ids
        slot = bisect_left(ids, cid)
        return slot < len(ids) and ids[slot] == cid

    def __getitem__(self, cid) -> Call:
        if cid not in self:
            raise KeyError(cid)
        return self.table.view(cid)

    def values(self) -> List[Call]:
        return list(map(self.table.view, self.ids))

    def add(self, cid: int) -> None:
        """Pool call `cid`; a call already pooled keeps its place."""
        if not 0 <= cid < len(self.table.status):  # `columns` would fail only at its next read
            raise IndexError(f"call {cid} is not a row of the pool's table")
        ids = self.ids
        if ids and cid <= ids[-1]:  # out of id order, or pooled again after a rejection
            slot = bisect_left(ids, cid)
            if ids[slot] != cid:
                ids.insert(slot, cid)
        else:  # calls arrive in id order
            ids.append(cid)

    def discard(self, cid: int) -> None:
        """Remove call `cid` if it is pooled."""
        ids = self.ids
        slot = bisect_left(ids, cid)
        if slot < len(ids) and ids[slot] == cid:
            del ids[slot]


class Vehicle:
    """A fleet unit: a view onto row `row` of the `FleetState` `table`.

    A vehicle made on its own owns a one-row store until an environment
    adopts its fleet; `FleetState.view` makes vehicles over an existing
    store instead.  `reject_prob` is sampled once at creation.
    """

    __slots__ = ("id", "table", "row")

    # column numbers are the rows of `FleetState.floats`
    location, move_destination = _place(0), _place(2)
    free_at = _column(4)  # absolute time the current service ends
    reject_prob = _column(5)

    def __init__(self, id: int, location: Coordinate, move_destination: Coordinate,
                 busy: bool = False, free_at: float = 0.0, reject_prob: float = 0.0):
        if not 0.0 <= reject_prob <= 1.0:
            raise ValueError(f"vehicle {id}: reject_prob outside [0,1]")
        self.id, self.table, self.row = id, FleetState(1), 0
        self.location, self.move_destination = location, move_destination
        self.busy, self.free_at, self.reject_prob = busy, free_at, reject_prob

    @property
    def busy(self) -> bool:
        return not self.table.idle_flags[self.row]

    @busy.setter
    def busy(self, value: bool) -> None:
        self.table.set_busy(self.row, bool(value))

    def time_to_free(self, clock: float) -> float:
        """Remaining minutes of the current service; 0 when idle."""
        return max(0.0, self.free_at - clock) if self.busy else 0.0

    def set_idle(self, at: Coordinate) -> None:
        self.table.set_idle(self.row, *at)


class FleetState(Table):
    """Per-vehicle state as columns, one row per vehicle; vehicles are views onto rows.

    The float columns are the rows of one `floats` block, in the order of
    candidate features 0-5; `columns` holds a memoryview onto each, for
    scalar access by vehicle id.  `idle` is the uint8 mask that the
    nearest-idle scan takes (`idle_flags` is a memoryview onto it), and
    `idle_ids` the increasing ids of the vehicles whose flag is 1; a
    vehicle is busy exactly when its flag is 0.  `set_busy` is the one
    write path of the mask and the ids.  Row r is vehicle r (see `Table`),
    so a store is a fleet wherever the engine takes one.
    """

    item, label, kind = Vehicle, "fleet", "vehicle"

    def __init__(self, n: int):
        self.floats = np.zeros((6, n))
        self.x, self.y, self.dest_x, self.dest_y, self.free_at, self.reject_prob = self.floats
        self.columns = tuple(map(memoryview, self.floats))
        self.idle = np.ones(n, dtype=np.uint8)
        self.idle_flags = memoryview(self.idle)
        self.idle_ids: List[int] = list(range(n))

    def _take(self, row: int, src: "FleetState", at: int) -> None:
        self.set_busy(row, not src.idle_flags[at])

    def set_busy(self, vid: int, busy: bool) -> None:
        """Mark vehicle `vid` busy or idle in the mask and in `idle_ids`."""
        if self.idle_flags[vid] != busy:  # already in that state
            return
        ids = self.idle_ids
        if busy:
            del ids[bisect_left(ids, vid)]
            self.idle_flags[vid] = 0
        else:
            insort(ids, vid)
            self.idle_flags[vid] = 1

    def set_idle(self, vid: int, x: float, y: float) -> None:
        """Vehicle `vid` stands idle at (x, y) with nowhere to go."""
        x_, y_, dest_x, dest_y, free_at = self.columns[:5]
        x_[vid] = dest_x[vid] = x
        y_[vid] = dest_y[vid] = y
        free_at[vid] = 0.0
        self.set_busy(vid, False)
