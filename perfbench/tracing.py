"""Spans and counts recorded around calls into the dispatchsim modules.

A span is (name, start, end, parent): the host-clock interval of one call
into a wrapped function, and the span that was open when it started (-1
for none).  Spans are kept in flat arrays, so that a traced day of a few
million calls fits in memory, and are written out when the run ends.

`instrument` wraps the package's public functions from the outside; the
package itself is not modified.  Each wrapper records a span and may
update counts from the call's arguments and result.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

import numpy as np

# Event kind (as in `dispatchsim.events.KIND_NAMES`) -> its engine handler.
HANDLERS = {
    "new_call": "handle_new_call",
    "free_vehicle": "handle_free_vehicle",
    "cancellation": "fire_cancellation",
    "arrival_at_origin": "handle_arrival_at_origin",
    "arrival_at_destination": "handle_arrival_at_destination",
    "reposition_timeout": "handle_reposition_timeout",
}
LAYERS = ("engine", "events", "policies", "kernels", "features", "qnet", "agent", "demand", "harness")


class Tracer:
    """In-memory span and count store."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.maxima: Dict[str, float] = {}
        self._open = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap `fn` so each call records a span named `name`.

        `after(args, result)` runs once the span is closed, so its cost is
        not charged to `name`.
        """
        nid = self._intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        open_spans = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_spans[-1])
            end.append(0.0)
            open_spans.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_spans.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counting(self, fn: Callable, after: Callable) -> Callable:
        """Wrap `fn` to update counts only, without a span."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return wrapper

    def note_max(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def arrays(self):
        """(name_id, parent, start, end) as numpy arrays."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def span_counts(self) -> Dict[str, int]:
        name_id = self.arrays()[0]
        per_name = np.bincount(name_id, minlength=len(self.names))
        return {n: int(per_name[i]) for i, n in enumerate(self.names)}

    def self_seconds(self) -> Dict[str, float]:
        """Self time summed per span name."""
        name_id, parent, start, end = self.arrays()
        per_name = self_time_by_name(name_id, parent, start, end, len(self.names))
        return {n: float(per_name[i]) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=name_id,
            parent=parent,
            start=start,
            end=end,
        )


def self_time_by_name(name_id, parent, start, end, n_names: int) -> np.ndarray:
    """Sum over spans of each name of (duration - time covered by child spans).

    Children of one span never overlap (the program is single-threaded),
    so the part of a span covered by its children is the sum of their
    durations.
    """
    duration = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    nested = parent >= 0
    covered = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    return np.bincount(
        np.asarray(name_id), weights=duration - covered, minlength=n_names
    )


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples, restoring the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def instrument(tracer: Tracer):
    """Context manager that routes the package's public calls through `tracer`.

    Functions are replaced where their callers look them up: a name
    imported into another module is replaced in that module too.
    """
    from dispatchsim import agent, demand, engine, events, harness, policies, qnet

    counts = tracer.counts
    reps = []

    def wrap(owner, attr, name, after=None):
        reps.append((owner, attr, tracer.span(name, owner.__dict__[attr], after)))

    def count(owner, attr, after):
        reps.append((owner, attr, tracer.counting(owner.__dict__[attr], after)))

    def after_push(args, _result):
        tracer.note_max("events.max_len", len(args[0]))

    wrap(events.EventQueue, "push", "events.push", after_push)
    wrap(events.EventQueue, "pop", "events.pop")

    for handler in HANDLERS.values():
        wrap(engine.Environment, handler, f"engine.{handler}")

    def after_proposal(_args, result):
        counts[f"engine.proposals.{result[0].value}"] += 1

    wrap(engine.Environment, "propose_assignment", "engine.propose_assignment", after_proposal)
    for owner in (engine, harness):
        wrap(owner, "run_day", "engine.run_day")
        wrap(owner, "build_fleet", "engine.build_fleet")

    def after_choose_vehicle(args, vid):
        env = args[1]
        if vid is not None and env.fleet[vid].busy:
            counts["engine.busy_picks"] += 1

    def after_choose_call(args, _cid):
        pool = len(args[1].pool)
        counts["policies.pool_total"] += pool
        tracer.note_max("policies.pool_max", pool)

    for cls in (
        policies.FifoPolicy,
        policies.LifoPolicy,
        policies.NearestPolicy,
        policies.RandomPolicy,
        agent.DQNPolicy,
    ):
        wrap(cls, "choose_vehicle", "policies.choose_vehicle", after_choose_vehicle)
        wrap(cls, "choose_call", "policies.choose_call", after_choose_call)

    def after_scan(args, _idx):
        counts["kernels.scanned"] += len(args[0])

    wrap(policies, "nearest_index", "kernels.nearest", after_scan)
    wrap(policies, "nearest_index_masked", "kernels.nearest_masked", after_scan)

    def after_features(_args, result):
        counts["features.rows"] += result[0].shape[0]

    wrap(agent, "new_call_candidates", "features.new_call", after_features)
    wrap(agent, "free_vehicle_candidates", "features.free_vehicle", after_features)

    def after_forward(args, _q):
        x = args[1]
        counts["qnet.forward_rows"] += x.shape[0] if np.ndim(x) == 2 else 1

    wrap(qnet.QNetwork, "forward", "qnet.forward", after_forward)
    wrap(qnet.QNetwork, "train_batch", "qnet.train_batch")

    def after_train_step(_args, loss):
        if loss is not None:
            counts["agent.grad_steps"] += 1

    wrap(agent.DQNAgent, "act", "agent.act")
    wrap(agent.DQNAgent, "train_step", "agent.train_step", after_train_step)

    def after_arm(_args, _result):
        counts["agent.decisions"] += 1

    def after_buffer_push(_args, _result):
        counts["agent.transitions"] += 1

    count(agent.DQNAgent, "arm_decision", after_arm)
    count(agent.ReplayBuffer, "push", after_buffer_push)

    def after_generate(_args, result):
        counts["demand.calls"] += len(result)

    for owner in (demand, harness):
        wrap(owner, "generate_daily_calls", "demand.generate", after_generate)

    wrap(harness, "build_calls", "harness.build_calls")
    wrap(harness, "simulate_day", "harness.simulate_day")
    wrap(harness, "aggregate", "harness.aggregate")
    wrap(harness, "per_day_csv_lines", "harness.report")
    wrap(harness, "report_csv_lines", "harness.report")
    wrap(harness, "run_training", "harness.run_training")
    wrap(harness, "run_evaluation", "harness.run_evaluation")
    return patched(reps)
