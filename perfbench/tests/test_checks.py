import csv
from types import SimpleNamespace

import numpy as np
import pytest

from dispatchsim import features
from dispatchsim.config import parse_lines
from dispatchsim.engine import Environment, run_day
from dispatchsim.entities import Call, CallStatus, Vehicle
from dispatchsim.geometry import Coordinate
from dispatchsim.harness import fresh_dqn_policy, run_evaluation
from dispatchsim.policies import NearestPolicy

from perfbench import checks

SPEED = 0.1


def vehicle(vid, x, y):
    loc = Coordinate(x, y)
    return Vehicle(id=vid, location=loc, move_destination=loc)


def call(cid, t, origin, dest, wait):
    return Call(
        id=cid,
        created_at=t,
        origin=Coordinate(*origin),
        destination=Coordinate(*dest),
        max_wait=wait,
    )


def hand_day(policy=None):
    """Two drivers who never reject and three calls with known outcomes.

    Call 0 (t=10) is 0.2 from vehicle 0: picked up at 12, dropped at 16.
    Call 1 (t=11) is 0.1 from vehicle 1: picked up at 12, dropped at 17.
    Call 2 (t=12.5) finds both vehicles busy and cancels at 13.5.
    """
    fleet = [vehicle(0, 0.0, 0.0), vehicle(1, 1.0, 1.0)]
    calls = [
        call(0, 10.0, (0.2, 0.0), (0.2, 0.4), 50.0),
        call(1, 11.0, (0.9, 1.0), (0.9, 0.5), 30.0),
        call(2, 12.5, (0.5, 0.5), (0.6, 0.6), 1.0),
    ]
    policy = policy or NearestPolicy()
    metrics = run_day(
        fleet, calls, policy, policy, speed=SPEED, driver_rng=np.random.default_rng(0)
    )
    return fleet, calls, metrics


def test_hand_day_has_the_known_outcome_and_passes():
    _, calls, metrics = hand_day()
    assert [c.status for c in calls] == [
        CallStatus.COMPLETED,
        CallStatus.COMPLETED,
        CallStatus.CANCELED,
    ]
    assert [c.pickup_time for c in calls[:2]] == pytest.approx([12.0, 12.0])
    assert calls[2].canceled_at == 13.5
    assert metrics.avg_delay == pytest.approx(1.5)
    assert metrics.sum_service_time == pytest.approx(9.0)
    assert checks.check_day(calls, SPEED, metrics) == []


@pytest.mark.parametrize(
    "corrupt, found",
    [
        (lambda calls, m: setattr(m, "calls_served", 3), "counts"),
        (lambda calls, m: setattr(m, "pending", 1), "conservation"),
        (lambda calls, m: calls[0].status_history.insert(1, CallStatus.COMPLETED), "illegal"),
        (lambda calls, m: setattr(calls[1], "pickup_time", 45.0), "max_wait"),
        (lambda calls, m: setattr(calls[2], "canceled_at", 13.25), "canceled at"),
        (lambda calls, m: setattr(calls[0], "completion_time", 16.5), "trip lasted"),
        (lambda calls, m: setattr(m, "sum_delay", 3.5), "avg_delay"),
        (lambda calls, m: setattr(m, "sum_service_time", 9.5), "sum_service_time"),
    ],
)
def test_each_broken_property_is_reported(corrupt, found):
    _, calls, metrics = hand_day()
    corrupt(calls, metrics)
    problems = checks.check_day(calls, SPEED, metrics)
    assert any(found in p for p in problems), problems


def test_oracles_on_a_known_snapshot():
    # coordinates are binary fractions, so equal distances are exact ties
    fleet = [vehicle(0, 0.0, 0.0), vehicle(1, 0.125, 0.0), vehicle(2, 0.5, 0.0), vehicle(3, 0.5, 0.25)]
    fleet[1].busy = True
    pool = {
        7: call(7, 5.0, (0.75, 0.0), (0, 0), 9.0),
        3: call(3, 5.0, (0.625, 0.0), (0, 0), 9.0),
        9: call(9, 2.0, (0.375, 0.0), (0, 0), 9.0),
    }
    env = SimpleNamespace(fleet=fleet, pool=pool)
    new = call(20, 6.0, (0.25, 0.0), (0, 0), 9.0)
    # vehicle 1 is nearest but busy; 0 and 2 tie at 0.25, lowest id wins
    assert checks.nearest_idle_vehicle(env, new) == 0
    # calls 3 and 9 tie at 0.125 from vehicle 2, lowest id wins
    assert checks.nearest_call(env, fleet[2]) == 3
    assert checks.oldest_call(env, fleet[2]) == 9
    # calls 7 and 3 tie on creation time, lowest id wins
    assert checks.newest_call(env, fleet[2]) == 3
    assert checks.nearest_call(SimpleNamespace(pool={}), fleet[0]) is None


def test_benchmark_rows_equal_the_package_features():
    fleet = [vehicle(0, 0.0, 0.0), vehicle(1, 1.0, 1.0), vehicle(2, 0.5, 0.2)]
    fleet[0].busy = True
    fleet[0].free_at = 26.0
    fleet[0].move_destination = Coordinate(0.2, 0.4)
    fleet[1].reject_prob = 0.25
    calls = [
        call(0, 1.0, (0.2, 0.0), (0.2, 0.4), 50.0),
        call(1, 11.0, (0.9, 1.0), (0.9, 0.5), 30.0),
        call(2, 12.0, (0.5, 0.5), (0.6, 0.6), 1.0),
        call(3, 30.0, (0.1, 0.1), (0.6, 0.6), 1.0),
    ]
    env = Environment(fleet, SPEED, np.random.default_rng(0), week_origin_offset=2000.0)
    env.calls = {c.id: c for c in calls}
    env.clock = 20.0  # call 0 is older than the 15-minute demand window
    env.recent_arrivals.extend([1.0, 11.0, 12.0])  # calls announced so far
    env.pool = {1: calls[1], 2: calls[2]}
    times = [c.created_at for c in calls]

    mat, ids = features.new_call_candidates(env, calls[2])
    tail = checks.call_row(calls[2], env.clock) + checks.context_row(env, times)
    rows = [checks.vehicle_row(v, env.clock) + tail for v in fleet]
    np.testing.assert_array_equal(mat, np.array(rows, dtype=np.float32))

    mat, ids = features.free_vehicle_candidates(env, fleet[2])
    ctx = checks.context_row(env, times)
    rows = [checks.vehicle_row(fleet[2], env.clock) + checks.call_row(c, env.clock) + ctx
            for c in env.pool.values()]
    np.testing.assert_array_equal(mat, np.array(rows, dtype=np.float32))
    assert ids == [1, 2]


def _checker():
    return checks.DecisionChecker(np.random.default_rng(0), mean_stride=1)


def test_checker_accepts_correct_decisions():
    checker = _checker()
    policy = checker.watch(NearestPolicy())
    fleet, calls, metrics = hand_day(policy)
    assert checker.checked >= 3
    assert checker.mismatches == {}
    assert checks.check_day(calls, SPEED, metrics) == []


class FarthestPolicy(NearestPolicy):
    """Claims to be `nn` but sends the farthest idle vehicle."""

    def choose_vehicle(self, env, c):
        idle = [v for v in env.fleet if not v.busy]
        if not idle:
            return None
        return max(idle, key=lambda v: checks.l1(v.location, c.origin)).id


def test_checker_reports_a_wrong_choice_against_its_day():
    checker = _checker()
    fleet, _, _ = hand_day(checker.watch(FarthestPolicy()))
    assert list(checker.mismatches) == [id(fleet)]
    assert "picked 1, brute force gives 0" in checker.mismatches[id(fleet)][0]


def test_checker_agrees_with_a_greedy_dqn():
    cfg = parse_lines(["seed=4"])
    policy = fresh_dqn_policy(cfg, 4)
    policy.set_train_mode(False)
    checker = _checker()
    checker.watch(policy)
    hand_day(policy)
    assert checker.checked >= 3
    assert checker.mismatches == {}


def test_report_files_agree_and_a_changed_mean_is_caught(tmp_path):
    cfg = parse_lines(
        ["seed=2", "daily_calls=60", "eval_days=3", "scenarios=easy", "policies=fifo,random"]
    )
    _, per_day = run_evaluation(cfg, out_dir=str(tmp_path))
    per_day_csv = tmp_path / "per_day.csv"
    report_csv = tmp_path / "report.csv"
    assert checks.check_report_files(per_day_csv, report_csv, per_day) == []

    with open(report_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[0]["mean"] = str(float(rows[0]["mean"]) * (1 + 1e-5) + 1e-6)
    with open(report_csv, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    problems = checks.check_report_files(per_day_csv, report_csv, per_day)
    assert len(problems) == 1 and "report.csv" in problems[0]
