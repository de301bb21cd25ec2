"""Timestamped simulation events and the time-ordered queue."""

from __future__ import annotations

import heapq
import math
from array import array
from typing import List, Optional, Tuple

NEW_CALL = 0
FREE_VEHICLE = 1
CANCELLATION = 2
ARRIVAL_AT_ORIGIN = 3
ARRIVAL_AT_DESTINATION = 4
REPOSITION_TIMEOUT = 5

KIND_NAMES = {
    NEW_CALL: "new_call",
    FREE_VEHICLE: "free_vehicle",
    CANCELLATION: "cancellation",
    ARRIVAL_AT_ORIGIN: "arrival_at_origin",
    ARRIVAL_AT_DESTINATION: "arrival_at_destination",
    REPOSITION_TIMEOUT: "reposition_timeout",
}

# (time, seq, kind, id_a, id_b); seq breaks same-time ties in insertion order
Event = Tuple[float, int, int, int, int]

# Run events turned into `Event` tuples at a time: a pop stays a list pop,
# and few tuples live at once (blocks of 1,024 read a median `day_nn_100k`
# peak RSS 0.46 MB above blocks of 64, 8 of 10 pairs, at the same speed;
# record 5 of `BENCH_event_columns.json`).
BLOCK = 64


class CausalityError(Exception):
    """An event was scheduled in the past."""


class EventQueue:
    """Events ordered by (time, insertion sequence).

    An event's seq is its push index + 1.  The run is the longest prefix of
    the pushes whose times never decrease (a day's new calls, which
    `run_day` pushes in arrival order).  It is kept as columns, a C double
    for the time, a signed byte for the kind and a C long long for each id,
    so 100,000 armed events take about 2.5 MB, not the 15 MB of one tuple
    each.  A push joins the run while its time is at or after the run's last
    time; the first push that is not, and every push after it, goes to a
    min-heap.  Pops take the run's events as `Event` tuples, `BLOCK` at a
    time, and the columns are dropped once the run is drained; `pop` takes
    the smaller head of the run and the heap.  A popped time is a float
    equal to the pushed one and a popped id an int.  `len` counts the
    unpopped run plus the heap.  A push at a time that is not at or after
    `clock`, nan included, raises `CausalityError`.
    """

    def __init__(self):
        self._times = array("d")
        self._kinds = array("b")
        self._id_a = array("q")
        self._id_b = array("q")
        # nan once the run is closed, so that no later time compares at or
        # after it (+inf would let a push at inf rejoin with a wrong seq)
        self._last = -math.inf
        self._taken = 0  # run events already made into tuples
        self._run: List[Event] = []  # the current block, in descending order
        self._heap: List[Event] = []
        self._seq = 0  # the last push's

    def __len__(self) -> int:
        rest = 0 if self._times is None else len(self._times) - self._taken
        return rest + len(self._run) + len(self._heap)

    def push(self, time: float, kind: int, id_a: int = -1, id_b: int = -1,
             clock: float = 0.0) -> None:
        if not time >= clock:  # nan fails too
            raise CausalityError(
                f"event {KIND_NAMES[kind]} at t={time} scheduled before clock={clock}"
            )
        self._seq += 1
        if time >= self._last:  # the run's seqs are its column index + 1
            try:
                self._times.append(time)
                self._kinds.append(kind)
                self._id_a.append(id_a)
                self._id_b.append(id_b)
            except BaseException:  # a value a column cannot hold: undo the push
                n = len(self._id_b)
                del self._times[n:], self._kinds[n:], self._id_a[n:]
                self._seq -= 1
                raise
            self._last = time
        else:
            self._last = math.nan
            heapq.heappush(self._heap, (time, self._seq, kind, id_a, id_b))

    def pop(self) -> Optional[Event]:
        run, heap = self._run, self._heap
        if not run and self._times is not None:
            run = self._next_block()
        if run:
            if heap and heap[0] < run[-1]:
                return heapq.heappop(heap)
            return run.pop()
        if heap:
            return heapq.heappop(heap)
        return None

    def _next_block(self) -> List[Event]:
        """The run's next `BLOCK` events as `self._run`; at the end, close the run."""
        lo = self._taken
        hi = self._taken = min(lo + BLOCK, len(self._times))
        if lo == hi:
            self._times = self._kinds = self._id_a = self._id_b = None
            self._last = math.nan
            return self._run
        block = list(zip(self._times[lo:hi], range(lo + 1, hi + 1), self._kinds[lo:hi],
                         self._id_a[lo:hi], self._id_b[lo:hi]))
        block.reverse()
        self._run = block
        return block
