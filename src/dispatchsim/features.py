"""Candidate featurization for the learning agents.

Each candidate pair (vehicle, call) in a given context maps to 15 reals:
7 vehicle features, 5 call features, 3 context features, in that order.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from .entities import Call, Vehicle
from .geometry import MINUTES_PER_WEEK, minute_of_week

FEATURE_DIM = 15

_TWO_PI_OVER_WEEK = 2.0 * math.pi / MINUTES_PER_WEEK


def context_features(env) -> Tuple[float, float, float]:
    m = minute_of_week(env.clock, env.week_origin_offset)
    return (
        env.resource_demand_ratio(),
        math.sin(_TWO_PI_OVER_WEEK * m),
        math.cos(_TWO_PI_OVER_WEEK * m),
    )


def _fill(store, rows: slice, calls, clock: float, context) -> np.ndarray:
    """Candidate matrix pairing vehicles `rows` of `store` with `calls`.

    One side holds a single entry and is broadcast along the other.
    Values are computed in float64 and rounded to float32 once.
    """
    busy = np.logical_not(store.idle[rows])
    # origin, destination, the waiting time so far in minutes, then the context
    tails = [(*c.origin, *c.destination, clock - c.created_at, *context) for c in calls]
    n = len(tails) if len(busy) == 1 else len(busy)
    out = np.empty((n, FEATURE_DIM), dtype=np.float32)
    out[:, 0:6] = store.floats[:, rows].T  # column 4 is free_at until overwritten
    out[:, 4] = np.where(busy, np.maximum(store.free_at[rows] - clock, 0.0), 0.0)
    out[:, 6] = busy
    if tails:
        out[:, 7:] = tails
    return out


def featurize(vehicle: Vehicle, call: Call, clock: float, context) -> np.ndarray:
    """One candidate pair to its 15-feature vector."""
    rows = slice(vehicle.row, vehicle.row + 1)
    return _fill(vehicle.store, rows, [call], clock, context)[0]


def new_call_candidates(env, call: Call) -> Tuple[np.ndarray, List[int]]:
    """Feature matrix over the whole fleet for a new-call epoch."""
    mat = _fill(env.fleet_state, slice(None), [call], env.clock, context_features(env))
    return mat, list(range(len(env.fleet)))


def free_vehicle_candidates(env, vehicle: Vehicle) -> Tuple[np.ndarray, List[int]]:
    """Feature matrix over the waiting pool for a free-vehicle epoch."""
    calls = list(env.pool.values())
    rows = slice(vehicle.row, vehicle.row + 1)
    mat = _fill(vehicle.store, rows, calls, env.clock, context_features(env))
    return mat, [c.id for c in calls]
