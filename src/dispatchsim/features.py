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

# The columns that differ between the candidate rows of one epoch, by epoch
# kind: the vehicle in a new-call epoch, the call in a free-vehicle epoch.
# Every row shares the columns outside the range: the call and the context
# (7-14), or the vehicle and the context (0-6 and 12-14).  The builders below
# write those as one broadcast, so every row holds the same bits there.  A
# replay buffer keeps them once per transition, read from row 0 unchecked,
# so this must change with the fill code below.
VARYING_COLUMNS = {"new_call": slice(0, 7), "free_vehicle": slice(7, 12)}

_TWO_PI_OVER_WEEK = 2.0 * math.pi / MINUTES_PER_WEEK


def context_features(env) -> Tuple[float, float, float]:
    m = minute_of_week(env.clock, env.week_origin_offset)
    return (
        env.resource_demand_ratio(),
        math.sin(_TWO_PI_OVER_WEEK * m),
        math.cos(_TWO_PI_OVER_WEEK * m),
    )


def _vehicle_block(store, rows: slice, n: int, clock: float) -> np.ndarray:
    """An (n, 15) float32 matrix whose columns 0-6 describe vehicles `rows` of `store`.

    A single vehicle is broadcast along all n rows.  The caller writes the
    call features and the context (columns 7-14).  Values are computed in
    float64 and rounded to float32 once.
    """
    busy = np.logical_not(store.idle[rows])
    out = np.empty((n, FEATURE_DIM), dtype=np.float32)
    out[:, 0:6] = store.floats[:, rows].T  # column 4 is free_at until overwritten
    out[:, 4] = np.where(busy, np.maximum(store.free_at[rows] - clock, 0.0), 0.0)
    out[:, 6] = busy
    return out


def new_call_candidates(env, call: Call) -> Tuple[np.ndarray, List[int]]:
    """Feature matrix over the whole fleet for a new-call epoch."""
    n = len(env.fleet)
    out = _vehicle_block(env.fleet_state, slice(None), n, env.clock)
    # origin, destination, the waiting time so far in minutes, the context
    out[:, 7:] = (*call.origin, *call.destination, env.clock - call.created_at,
                  *context_features(env))
    return out, list(range(n))


def free_vehicle_candidates(env, vehicle: Vehicle) -> Tuple[np.ndarray, List[int]]:
    """Feature matrix over the waiting pool for a free-vehicle epoch."""
    calls = env.pool.columns()  # origin x/y, destination x/y, created_at
    rows = slice(vehicle.row, vehicle.row + 1)
    out = _vehicle_block(vehicle.table, rows, calls.shape[1], env.clock)
    out[:, 7:11] = calls[:4].T
    out[:, 11] = env.clock - calls[4]  # the waiting time so far in minutes
    out[:, 12:] = context_features(env)
    return out, list(env.pool)
