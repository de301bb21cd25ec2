"""Output checks computed independently of the code under test.

Each simulated day is checked against properties the method must have,
recomputed from the `Call` objects, and sampled dispatch decisions are
compared with brute-force choices made from `Vehicle` and `Call` state.
Nothing here is compared with saved output.
"""

from __future__ import annotations

import bisect
import csv
import math
import statistics
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from dispatchsim.entities import ALLOWED_TRANSITIONS, CallStatus
from dispatchsim.qnet import QNetwork

# Taken before any tracing wrapper is installed, so oracle forwards are
# neither traced nor counted.
_FORWARD = QNetwork.forward

# Times are at most a day of minutes, so this leaves many ulps of room for
# the one rounding in `pickup + drive` while catching any real mistake.
TRIP_TOLERANCE_MIN = 1e-9
SUM_REL_TOLERANCE = 1e-9
# CSV files hold 9 significant digits.
CSV_REL_TOLERANCE = 1e-7

DEMAND_WINDOW_MIN = 15.0
MINUTES_PER_WEEK = 10080.0

_PENDING = (CallStatus.WAITING, CallStatus.ASSIGNED, CallStatus.PICKED_UP)


def l1(a, b) -> float:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def check_day(calls: Sequence, speed: float, metrics) -> List[str]:
    """Problems found in one finished day; empty when the day is sound."""
    problems = []
    served = canceled = pending = 0
    delays = []
    services = []
    for c in calls:
        history = c.status_history
        if (
            history[0] is not CallStatus.WAITING
            or history[-1] is not c.status
            or any(b not in ALLOWED_TRANSITIONS[a] for a, b in zip(history, history[1:]))
        ):
            problems.append(f"call {c.id}: illegal status history {[s.value for s in history]}")
        if c.pickup_time is not None:
            served += 1
            wait = c.pickup_time - c.created_at
            delays.append(wait)
            if wait > c.max_wait:
                problems.append(f"call {c.id}: waited {wait} > max_wait {c.max_wait}")
        if c.status is CallStatus.CANCELED:
            canceled += 1
            if c.canceled_at != c.created_at + c.max_wait:
                problems.append(
                    f"call {c.id}: canceled at {c.canceled_at}, "
                    f"expected {c.created_at + c.max_wait}"
                )
        elif c.status in _PENDING:
            pending += 1
        if c.status is CallStatus.COMPLETED:
            trip = c.completion_time - c.pickup_time
            services.append(trip)
            expected = l1(c.origin, c.destination) / speed
            if abs(trip - expected) > TRIP_TOLERANCE_MIN * max(1.0, c.completion_time):
                problems.append(f"call {c.id}: trip lasted {trip}, L1/speed is {expected}")

    counted = (len(calls), served, canceled, pending)
    reported = (
        metrics.calls_created,
        metrics.calls_served,
        metrics.calls_canceled,
        metrics.pending,
    )
    if counted != reported:
        problems.append(f"counts (created, served, canceled, pending) {reported} != {counted}")
    if metrics.calls_created != metrics.calls_served + metrics.calls_canceled + metrics.pending:
        problems.append(f"conservation broken: {reported}")
    avg_delay = math.fsum(delays) / served if served else 0.0
    if not math.isclose(metrics.avg_delay, avg_delay, rel_tol=SUM_REL_TOLERANCE, abs_tol=1e-12):
        problems.append(f"avg_delay {metrics.avg_delay} != recomputed {avg_delay}")
    service = math.fsum(services)
    if not math.isclose(
        metrics.sum_service_time, service, rel_tol=SUM_REL_TOLERANCE, abs_tol=1e-12
    ):
        problems.append(f"sum_service_time {metrics.sum_service_time} != recomputed {service}")
    return problems


# -- brute-force decision oracles -------------------------------------------


def nearest_idle_vehicle(env, call) -> Optional[int]:
    """Lowest-id L1 argmin over the idle vehicles."""
    best = min(
        ((l1(v.location, call.origin), v.id) for v in env.fleet if not v.busy),
        default=None,
    )
    return None if best is None else best[1]


def nearest_call(env, vehicle) -> Optional[int]:
    """Lowest-id L1 argmin over the waiting pool."""
    best = min(
        ((l1(c.origin, vehicle.location), c.id) for c in env.pool.values()),
        default=None,
    )
    return None if best is None else best[1]


def oldest_call(env, _vehicle) -> Optional[int]:
    best = min(((c.created_at, c.id) for c in env.pool.values()), default=None)
    return None if best is None else best[1]


def newest_call(env, _vehicle) -> Optional[int]:
    best = min(((-c.created_at, c.id) for c in env.pool.values()), default=None)
    return None if best is None else best[1]


def context_row(env, arrival_times: Sequence[float]) -> List[float]:
    """Features 12-14: fleet size per recent arrival, weekly sine and cosine.

    `arrival_times` are the creation times of all calls of the day in
    ascending order; the calls announced by `env.clock` are those created
    at or before it.
    """
    clock = env.clock
    recent = bisect.bisect_right(arrival_times, clock) - bisect.bisect_right(
        arrival_times, clock - DEMAND_WINDOW_MIN
    )
    ratio = len(env.fleet) / recent if recent else 1.0
    angle = 2.0 * math.pi / MINUTES_PER_WEEK * ((clock + env.week_origin_offset) % MINUTES_PER_WEEK)
    return [ratio, math.sin(angle), math.cos(angle)]


def vehicle_row(v, clock: float) -> List[float]:
    """Features 0-6 of a vehicle, as documented in `dispatchsim.features`."""
    to_free = max(0.0, v.free_at - clock) if v.busy else 0.0
    return [
        v.location.x,
        v.location.y,
        v.move_destination.x,
        v.move_destination.y,
        to_free,
        v.reject_prob,
        1.0 if v.busy else 0.0,
    ]


def call_row(c, clock: float) -> List[float]:
    """Features 7-11 of a call."""
    return [c.origin.x, c.origin.y, c.destination.x, c.destination.y, clock - c.created_at]


def greedy_pick(net: QNetwork, rows: List[List[float]], ids: List[int]) -> Optional[int]:
    if not rows:
        return None
    q = _FORWARD(net, np.array(rows, dtype=np.float32))
    return ids[int(np.argmax(q))]


class DecisionChecker:
    """Compares sampled policy decisions with brute-force choices.

    Wraps the choice methods of a policy instance.  After a sampled
    decision, the oracle for that policy recomputes the choice from the
    same environment state; the policies checked here change no state
    while choosing, so the state after the call is the state it saw.
    Time spent in oracles is kept in `seconds`, so callers can leave it
    out of the timed run.
    """

    def __init__(self, rng: np.random.Generator, mean_stride: int, tracer=None):
        self.rng = rng
        self.mean_stride = mean_stride
        self.countdown = self._next_stride()
        self.checked = 0
        self.seconds = 0.0
        self.mismatches: Dict[int, List[str]] = {}  # id(fleet) -> problems
        self._arrivals = (None, [])  # (a day's env.calls, its sorted creation times)
        self._oracle = self._run_oracle
        if tracer is not None:
            self._oracle = tracer.span("bench.oracle", self._run_oracle)

    def _next_stride(self) -> int:
        return int(self.rng.integers(1, 2 * self.mean_stride))

    def watch(self, policy):
        """Wrap `policy`'s choices where an oracle exists; returns `policy`."""
        if "choose_vehicle" in vars(policy):
            return policy  # already watched
        oracles = {
            "nn": (nearest_idle_vehicle, nearest_call),
            "fifo": (nearest_idle_vehicle, oldest_call),
            "lifo": (nearest_idle_vehicle, newest_call),
            "dqn": (self._dqn_vehicle(policy), self._dqn_call(policy)),
        }.get(policy.name)
        if oracles is None:
            return policy
        for method, oracle in zip(("choose_vehicle", "choose_call"), oracles):
            setattr(policy, method, self._wrap(policy.name, getattr(policy, method), oracle))
        return policy

    def _wrap(self, name, choose, oracle):
        def checked_choice(env, subject):
            picked = choose(env, subject)
            self.countdown -= 1
            if self.countdown == 0:
                self.countdown = self._next_stride()
                self._oracle(name, oracle, env, subject, picked)
            return picked

        return checked_choice

    def _run_oracle(self, name, oracle, env, subject, picked):
        start = time.perf_counter()
        expected = oracle(env, subject)
        self.checked += 1
        if expected != picked:
            self.mismatches.setdefault(id(env.fleet), []).append(
                f"{name} at t={env.clock}: picked {picked}, brute force gives {expected}"
            )
        self.seconds += time.perf_counter() - start

    def _arrival_times(self, env) -> List[float]:
        # Keeping the day's call dict alive keeps its identity unique.
        calls, times = self._arrivals
        if calls is not env.calls:
            times = sorted(c.created_at for c in env.calls.values())
            self._arrivals = (env.calls, times)
        return times

    def _dqn_vehicle(self, policy):
        def oracle(env, call):
            if policy.new_call_agent.train_mode:
                raise ValueError("dqn oracle needs a greedy policy")
            clock = env.clock
            tail = call_row(call, clock) + context_row(env, self._arrival_times(env))
            rows = [vehicle_row(v, clock) + tail for v in env.fleet]
            return greedy_pick(policy.new_call_agent.online, rows, [v.id for v in env.fleet])

        return oracle

    def _dqn_call(self, policy):
        def oracle(env, vehicle):
            if policy.free_vehicle_agent.train_mode:
                raise ValueError("dqn oracle needs a greedy policy")
            clock = env.clock
            head = vehicle_row(vehicle, clock)
            ctx = context_row(env, self._arrival_times(env))
            calls = list(env.pool.values())
            rows = [head + call_row(c, clock) + ctx for c in calls]
            return greedy_pick(policy.free_vehicle_agent.online, rows, [c.id for c in calls])

        return oracle


# -- report files -------------------------------------------------------------


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=CSV_REL_TOLERANCE, abs_tol=1e-9)


def check_report_files(per_day_path, report_path, per_day_metrics) -> List[str]:
    """`per_day.csv` against the returned days, `report.csv` against means of it."""
    problems = []
    with open(per_day_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(per_day_metrics):
        return [f"per_day.csv has {len(rows)} rows for {len(per_day_metrics)} days"]
    groups: Dict[tuple, Dict[str, List[float]]] = {}
    for row, m in zip(rows, per_day_metrics):
        if (row["policy"], row["scenario"]) != (m.policy, m.scenario) or (
            int(row["created"]),
            int(row["served"]),
            int(row["canceled"]),
        ) != (m.calls_created, m.calls_served, m.calls_canceled):
            problems.append(f"per_day.csv row {row} does not match {m}")
        values = {
            "avg_delay_min": float(row["avg_delay_min"]),
            "cancel_rate": float(row["cancel_rate"]),
            "total_service_min": float(row["total_service_min"]),
        }
        for metric, expected in (
            ("avg_delay_min", m.avg_delay),
            ("cancel_rate", m.cancel_rate),
            ("total_service_min", m.sum_service_time),
        ):
            if not _close(values[metric], expected):
                problems.append(f"per_day.csv {metric} {values[metric]} != {expected}")
        group = groups.setdefault((row["policy"], row["scenario"]), {})
        for metric, value in values.items():
            group.setdefault(metric, []).append(value)

    with open(report_path, newline="", encoding="utf-8") as fh:
        report = list(csv.DictReader(fh))
    seen = set()
    for row in report:
        key = (row["policy"], row["scenario"])
        values = groups.get(key, {}).get(row["metric"])
        if values is None:
            problems.append(f"report.csv row {row} has no per-day rows")
            continue
        seen.add((key, row["metric"]))
        n = len(values)
        mean = math.fsum(values) / n
        half = 1.96 * statistics.stdev(values) / math.sqrt(n) if n > 1 else 0.0
        if int(row["n"]) != n or not all(
            _close(float(row[col]), want)
            for col, want in (("mean", mean), ("ci_low", mean - half), ("ci_high", mean + half))
        ):
            problems.append(
                f"report.csv row {row} != recomputed mean {mean}, half-width {half}, n {n}"
            )
    expected_rows = {(k, metric) for k, g in groups.items() for metric in g}
    if seen != expected_rows:
        problems.append(f"report.csv misses rows {sorted(expected_rows - seen)}")
    return problems
