"""Timestamped simulation events and the time-ordered queue."""

from __future__ import annotations

import heapq
from array import array
from typing import List, Optional, Tuple

import numpy as np

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

    Events pushed before the first `pop` (a day's new calls) form the run.
    It is kept as columns, a C double for the time, a signed byte for the
    kind and a C long long for each id, and an event's seq is its push
    index + 1, so 100,000 armed events take about 2.5 MB, not the 15 MB of
    one tuple each.  The first pop puts the columns in order in place by
    one stable argsort of the times, and then keeps the seqs as one more
    column; when the times are already in order it sorts nothing.  Pops
    take the run's events as `Event` tuples, `BLOCK` at a time, and the
    columns are dropped once the run is drained.  Later pushes (cancellation
    deadlines, which each new-call epoch arms, and the events of vehicles)
    go to a min-heap, and `pop` takes the smaller head of the two.  A popped
    time is a float equal to the pushed one and a popped id an int.  `len`
    counts the unpopped run plus the heap.  A push at a time that is not at
    or after `clock`, nan included, raises `CausalityError`.
    """

    def __init__(self):
        self._times = array("d")
        self._kinds = array("b")
        self._id_a = array("q")
        self._id_b = array("q")
        self._seqs: Optional[array] = None  # the sorted run's seqs; None while they are 1..n
        self._taken = 0  # run events already made into tuples
        self._run: List[Event] = []  # the current block, in descending order
        self._heap: List[Event] = []
        self._sorted = False
        self._seq = 0  # the last push's, brought up to date at the first pop

    def __len__(self) -> int:
        rest = 0 if self._times is None else len(self._times) - self._taken
        return rest + len(self._run) + len(self._heap)

    def push(self, time: float, kind: int, id_a: int = -1, id_b: int = -1,
             clock: float = 0.0) -> None:
        if not time >= clock:  # nan fails too
            raise CausalityError(
                f"event {KIND_NAMES[kind]} at t={time} scheduled before clock={clock}"
            )
        if self._sorted:
            self._seq += 1
            heapq.heappush(self._heap, (time, self._seq, kind, id_a, id_b))
        else:  # the run's seqs are push index + 1
            self._times.append(time)
            self._kinds.append(kind)
            self._id_a.append(id_a)
            self._id_b.append(id_b)

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
        """The run's next `BLOCK` events as `self._run`; at the end, drop the columns."""
        if not self._sorted:
            self._sort_run()
        lo = self._taken
        hi = self._taken = min(lo + BLOCK, len(self._times))
        if lo == hi:
            self._times = self._kinds = self._id_a = self._id_b = self._seqs = None
            return self._run
        seqs = range(lo + 1, hi + 1) if self._seqs is None else self._seqs[lo:hi]
        block = list(zip(self._times[lo:hi], seqs, self._kinds[lo:hi],
                         self._id_a[lo:hi], self._id_b[lo:hi]))
        block.reverse()
        self._run = block
        return block

    def _sort_run(self) -> None:
        """Put the run's columns in (time, seq) order, keeping the seqs unless they are 1..n."""
        self._sorted = True
        self._seq = len(self._times)
        times = np.frombuffer(self._times)
        if (times[1:] >= times[:-1]).all():
            return
        order = np.argsort(times, kind="stable")
        for col, dtype in ((self._times, np.float64), (self._kinds, np.int8),
                           (self._id_a, np.int64), (self._id_b, np.int64)):
            view = np.frombuffer(col, dtype)
            view[:] = view[order]
        self._seqs = array("q", (order + 1).tobytes())
