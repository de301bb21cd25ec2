"""Dispatch policies: the decision interface plus the heuristic baselines.

The choice rules (`fifo_choose_call`, `lifo_choose_call`, `nn_choose`,
`random_choose`) are pure functions over lightweight snapshots so they can
be audited against brute-force oracles; the policy classes adapt them to
the engine's epoch interface.

FIFO and LIFO are call-selection rules; at new-call epochs (which pick a
vehicle) they fall back to the nearest idle vehicle, so all baselines are
runnable in both epochs.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .entities import Call, Vehicle
from .kernels import nearest_index, nearest_index_masked

# snapshot rows: (id, created_at) for time-ordered rules,
#                (id, x, y) for the distance rule
TimeEntry = Tuple[int, float]
LocEntry = Tuple[int, float, float]


def fifo_choose_call(snapshot: Sequence[TimeEntry]) -> Optional[int]:
    """Longest-waiting call: minimal created_at, ties by lowest id."""
    if not snapshot:
        return None
    return min(snapshot, key=lambda e: (e[1], e[0]))[0]


def lifo_choose_call(snapshot: Sequence[TimeEntry]) -> Optional[int]:
    """Most recent call: maximal created_at, ties by lowest id."""
    if not snapshot:
        return None
    return min(snapshot, key=lambda e: (-e[1], e[0]))[0]


def nn_choose(snapshot: Sequence[LocEntry], anchor: Tuple[float, float]) -> Optional[int]:
    """Candidate with minimal L1 distance to the anchor, ties by lowest id."""
    if not snapshot:
        return None
    best_id = None
    best_d = float("inf")
    for cid, x, y in snapshot:
        d = abs(x - anchor[0]) + abs(y - anchor[1])
        if d < best_d or (d == best_d and cid < best_id):
            best_d = d
            best_id = cid
    return best_id


def random_choose(ids: Sequence[int], rng: np.random.Generator) -> Optional[int]:
    """Uniform choice over the candidate ids, reproducible per stream."""
    if not ids:
        return None
    return ids[int(rng.integers(len(ids)))]


class DispatchPolicy:
    """Decision-maker for both epoch kinds.  Subclasses override the choices.

    The engine notifies policies about proposal outcomes and day boundaries;
    heuristics ignore those hooks, the learning policy uses them.
    """

    name = "abstract"

    def choose_vehicle(self, env, call: Call) -> Optional[int]:
        raise NotImplementedError

    def choose_call(self, env, vehicle: Vehicle) -> Optional[int]:
        raise NotImplementedError

    def on_proposal_outcome(self, env, epoch_kind, outcome, eta, drive) -> None:
        pass

    def on_day_start(self, env) -> None:
        pass

    def on_day_end(self, env) -> None:
        pass


def _nearest_idle_vehicle(env, call: Call) -> Optional[int]:
    state = env.fleet_state
    idx = nearest_index_masked(state.x, state.y, state.idle, call.origin.x, call.origin.y)
    return None if idx < 0 else idx


class FifoPolicy(DispatchPolicy):
    name = "fifo"

    def choose_vehicle(self, env, call):
        return _nearest_idle_vehicle(env, call)

    def choose_call(self, env, vehicle):
        # pool iterates in creation order, so the first entry is the oldest
        return fifo_choose_call([(c.id, c.created_at) for c in env.pool.values()])


class LifoPolicy(DispatchPolicy):
    name = "lifo"

    def choose_vehicle(self, env, call):
        return _nearest_idle_vehicle(env, call)

    def choose_call(self, env, vehicle):
        return lifo_choose_call([(c.id, c.created_at) for c in env.pool.values()])


class NearestPolicy(DispatchPolicy):
    name = "nn"

    def choose_vehicle(self, env, call):
        return _nearest_idle_vehicle(env, call)

    def choose_call(self, env, vehicle):
        if not env.pool:
            return None
        calls = list(env.pool.values())
        xs = np.array([c.origin.x for c in calls])
        ys = np.array([c.origin.y for c in calls])
        return calls[nearest_index(xs, ys, *vehicle.location)].id


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
        return random_choose(list(env.pool.keys()), self.rng)


BASELINE_POLICIES = ("fifo", "lifo", "nn", "random")
POLICY_NAMES = BASELINE_POLICIES + ("dqn",)


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
