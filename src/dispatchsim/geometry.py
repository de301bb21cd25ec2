"""Coordinates, the bounding box and the weekly clock.

All positions live in a normalized bounding box (unit box by default) and
all times are real-valued minutes since simulation start.  Vehicle speed is
expressed in box units per minute.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple

MINUTES_PER_DAY = 1440.0
MINUTES_PER_WEEK = 10080.0


class Coordinate(NamedTuple):
    x: float
    y: float


class BoundingBox(NamedTuple):
    x_min: float = 0.0
    x_max: float = 1.0
    y_min: float = 0.0
    y_max: float = 1.0

    def contains(self, c: Tuple[float, float]) -> bool:
        """Whether the point `c`, a `Coordinate` or any (x, y) pair, is finite and in the box."""
        x, y = c
        return (
            math.isfinite(x)
            and math.isfinite(y)
            and self.x_min <= x <= self.x_max
            and self.y_min <= y <= self.y_max
        )


def minute_of_week(t: float, week_origin_offset: float = 0.0) -> float:
    """Map a simulation time to its position in the weekly cycle, [0, 10080)."""
    return (t + week_origin_offset) % MINUTES_PER_WEEK
