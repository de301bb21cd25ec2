"""Timestamped simulation events and the time-ordered queue."""

from __future__ import annotations

import heapq
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


class CausalityError(Exception):
    """An event was scheduled in the past."""


class EventQueue:
    """Events ordered by (time, insertion sequence).

    Events pushed before the first `pop` (a day's new calls) are kept in a
    run that is sorted once, in descending order, at that pop and consumed
    from its end; later pushes (cancellation deadlines, which each new-call
    epoch arms, and the events of vehicles) go to a min-heap.  `pop` takes
    the smaller head of the two.  A push at a time that is not at or after
    `clock`, nan included, raises `CausalityError`.
    """

    def __init__(self):
        self._run: List[Event] = []
        self._heap: List[Event] = []
        self._sorted = False
        self._seq = 0

    def __len__(self) -> int:
        return len(self._run) + len(self._heap)

    def push(self, time: float, kind: int, id_a: int = -1, id_b: int = -1,
             clock: float = 0.0) -> None:
        if not time >= clock:  # nan fails too
            raise CausalityError(
                f"event {KIND_NAMES[kind]} at t={time} scheduled before clock={clock}"
            )
        self._seq += 1
        event = (time, self._seq, kind, id_a, id_b)
        if self._sorted:
            heapq.heappush(self._heap, event)
        else:
            self._run.append(event)

    def pop(self) -> Optional[Event]:
        run, heap = self._run, self._heap
        if not self._sorted:
            run.sort(reverse=True)
            self._sorted = True
        if run:
            if heap and heap[0] < run[-1]:
                return heapq.heappop(heap)
            return run.pop()
        if heap:
            return heapq.heappop(heap)
        return None
