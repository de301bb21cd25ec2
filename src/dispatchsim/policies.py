"""Dispatch policies: the decision interface plus the heuristic baselines.

The baselines read the fleet and pool columns: FIFO and LIFO pick the
waiting call with the earliest and the latest `created_at`, the nearest
policy the call (or idle vehicle) at the least L1 distance, and ties go
to the lowest id.  The tests hold these three to brute-force oracles.

FIFO and LIFO are call-selection rules; at new-call epochs (which pick a
vehicle) they fall back to the nearest idle vehicle, so all baselines are
runnable in both epochs.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .entities import Call, Vehicle
from .kernels import nearest_index, nearest_index_masked


class DispatchPolicy:
    """Decision-maker for both epoch kinds.  Subclasses override the choices.

    The engine notifies policies about proposal outcomes and the end of a
    day; heuristics ignore those hooks, the learning policy uses them.
    """

    name = "abstract"

    def choose_vehicle(self, env, call: Call) -> Optional[int]:
        raise NotImplementedError

    def choose_call(self, env, vehicle: Vehicle) -> Optional[int]:
        raise NotImplementedError

    def on_proposal_outcome(self, env, epoch_kind, outcome, eta, drive) -> None:
        pass

    def on_day_end(self, env) -> None:
        pass


# The `CallPool.columns` rows the rules read (see `entities.CALL_FLOATS`):
# the origin's x and y, and `created_at`
_ORIGIN, _CREATED_AT = slice(2), 4

# Above this many idle vehicles the masked scan over the whole fleet is
# faster than a Python loop over the idle ids.  Measured with the numpy
# fallback on a 1,000-vehicle fleet (2 vCPUs, x86_64): the loop costs about
# 0.13 us per idle vehicle, the masked scan about 6.5 us in all.
NEAREST_SCAN_CROSSOVER = 48


def _nearest_idle_vehicle(env, call: Call) -> Optional[int]:
    """The idle vehicle nearest (L1) to the call's origin, ties to the lowest id."""
    state, table, row = env.fleet_state, call.table, call.row
    ax, ay = table.origin_x[row], table.origin_y[row]
    ids = state.idle_ids
    if len(ids) > NEAREST_SCAN_CROSSOVER:
        idx = nearest_index_masked(state.x, state.y, state.idle, ax, ay)
        return None if idx < 0 else idx
    xs, ys = state.columns[:2]
    best, best_d = None, math.inf
    for vid in ids:  # increasing ids and a strict `<`: the lowest id wins a tie
        d = abs(xs[vid] - ax) + abs(ys[vid] - ay)
        if d < best_d:
            best, best_d = vid, d
    return best


class FifoPolicy(DispatchPolicy):
    name = "fifo"

    def choose_vehicle(self, env, call):
        return _nearest_idle_vehicle(env, call)

    def choose_call(self, env, vehicle):
        # the columns are id-ordered and argmin takes the first minimum,
        # so ties go to the lowest id
        pool = env.pool
        return pool.ids[int(pool.columns(_CREATED_AT).argmin())] if pool else None


class LifoPolicy(DispatchPolicy):
    name = "lifo"

    def choose_vehicle(self, env, call):
        return _nearest_idle_vehicle(env, call)

    def choose_call(self, env, vehicle):
        pool = env.pool
        return pool.ids[int(pool.columns(_CREATED_AT).argmax())] if pool else None


class NearestPolicy(DispatchPolicy):
    name = "nn"

    def choose_vehicle(self, env, call):
        return _nearest_idle_vehicle(env, call)

    def choose_call(self, env, vehicle):
        pool = env.pool
        if not pool:
            return None
        xs, ys = pool.columns(_ORIGIN)
        return pool.ids[nearest_index(xs, ys, *vehicle.location)]


class RandomPolicy(DispatchPolicy):
    """Uniform choice over the full candidate set (including busy vehicles)."""

    name = "random"

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def choose_vehicle(self, env, call):
        if not env.fleet:
            return None
        return int(self.rng.integers(len(env.fleet)))

    def choose_call(self, env, vehicle):
        ids = env.pool.ids
        return ids[int(self.rng.integers(len(ids)))] if ids else None


def make_baseline(name: str, rng: Optional[np.random.Generator] = None) -> DispatchPolicy:
    if name == "fifo":
        return FifoPolicy()
    if name == "lifo":
        return LifoPolicy()
    if name == "nn":
        return NearestPolicy()
    if name == "random":
        if rng is None:
            raise ValueError("random policy needs an RNG stream")
        return RandomPolicy(rng)
    raise ValueError(f"unknown baseline policy {name!r}")
