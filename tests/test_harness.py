"""Training schedule, evaluation runs, aggregation and report emission."""

import hashlib
import math

import numpy as np
import pytest

from dispatchsim import harness
from dispatchsim.config import parse_lines
from dispatchsim.engine import DayMetrics
from dispatchsim.entities import FleetState
from dispatchsim.policies import NearestPolicy
from dispatchsim.harness import (
    PER_DAY_HEADER,
    REPORT_HEADER,
    aggregate,
    demand_source_from_config,
    load_dqn_policy,
    per_day_csv_lines,
    recompute_report_from_per_day_csv,
    report_csv_lines,
    report_text_table,
    run_evaluation,
    run_training,
    simulate_day,
)


def small_cfg(**extra):
    lines = [
        "seed=11",
        "daily_calls=60",
        "train_daily_calls=40",
        "train_days=1",
        "train_reps=1",
        "eval_days=2",
        "eval_seeds=1",
        "learning_starts=8",
        "batch_size=4",
        "buffer_capacity=64",
        "update_steps=16",
        "scenarios=easy",
        "policies=fifo,nn",
    ]
    lines += [f"{k}={v}" for k, v in extra.items()]
    return parse_lines(lines)


def dm(policy, scenario, served, canceled, created, delay_sum, service):
    m = DayMetrics(policy=policy, scenario=scenario, calls_created=created,
                   calls_served=served, calls_canceled=canceled)
    m.sum_delay = delay_sum
    m.sum_service_time = service
    return m


def test_aggregate_mean_and_ci_hand_check():
    days = [
        dm("nn", "easy", 10, 0, 10, 40.0, 100.0),  # avg delay 4
        dm("nn", "easy", 10, 0, 10, 60.0, 120.0),  # avg delay 6
        dm("nn", "easy", 10, 0, 10, 80.0, 140.0),  # avg delay 8
    ]
    rows = {r.metric: r for r in aggregate(days)}
    r = rows["avg_delay_min"]
    assert r.mean == pytest.approx(6.0)
    sd = np.std([4.0, 6.0, 8.0], ddof=1)
    half = 1.96 * sd / math.sqrt(3)
    assert r.ci_low == pytest.approx(6.0 - half)
    assert r.ci_high == pytest.approx(6.0 + half)
    assert r.n == 3
    assert rows["total_service_min"].mean == pytest.approx(120.0)


def test_aggregate_single_day_has_zero_width_ci():
    rows = aggregate([dm("fifo", "hard", 5, 5, 10, 10.0, 50.0)])
    for r in rows:
        assert r.ci_low == r.mean == r.ci_high
        assert r.n == 1


def test_report_lines_sorted_and_formatted():
    days = [
        dm("nn", "easy", 10, 0, 10, 40.0, 100.0),
        dm("fifo", "easy", 10, 2, 12, 50.0, 90.0),
    ]
    lines = report_csv_lines(aggregate(days))
    assert lines[0] == REPORT_HEADER
    body = [l.split(",")[:3] for l in lines[1:]]
    assert body == sorted(body)
    assert body[0][0] == "fifo"
    table = report_text_table(aggregate(days))
    assert "policy" in table[0]
    assert len(table) == 2 + len(lines) - 1


def test_per_day_csv_round_trip(tmp_path):
    days = [
        dm("nn", "easy", 10, 1, 11, 40.0, 100.0),
        dm("nn", "easy", 8, 3, 11, 30.0, 80.0),
        dm("fifo", "easy", 9, 2, 11, 45.0, 90.0),
    ]
    lines = per_day_csv_lines(days, ["0-0", "0-1", "0-0"])
    assert lines[0] == PER_DAY_HEADER
    p = tmp_path / "per_day.csv"
    p.write_text("\n".join(lines) + "\n")
    rebuilt = recompute_report_from_per_day_csv(p)
    original = aggregate(days)
    assert len(rebuilt) == len(original)
    for a, b in zip(
        sorted(rebuilt, key=lambda r: (r.policy, r.scenario, r.metric)),
        sorted(original, key=lambda r: (r.policy, r.scenario, r.metric)),
    ):
        assert a.policy == b.policy and a.metric == b.metric
        assert a.mean == pytest.approx(b.mean, rel=1e-8)
        assert a.ci_low == pytest.approx(b.ci_low, rel=1e-8)


def test_zero_fleet_day_cancels_everything():
    # hard scenario with 10 calls floors the fleet at a single vehicle, so
    # force zero supply through simulate_day's fleet sizing contract instead
    cfg = small_cfg(scenarios="hard", daily_calls=40)
    source = demand_source_from_config(cfg, 40)
    scenario = cfg.scenario_list[0]
    from dispatchsim.policies import make_baseline

    m = simulate_day(
        cfg, source, scenario, make_baseline("fifo"), 11, ("t",), 0, 40
    )
    assert m.calls_created > 0
    assert m.calls_served + m.calls_canceled + m.pending == m.calls_created


def test_evaluation_runs_and_writes_outputs(tmp_path):
    cfg = small_cfg(out_dir=str(tmp_path))
    report, per_day = run_evaluation(cfg, out_dir=str(tmp_path))
    # policies x scenarios x eval_days
    assert len(per_day) == 2 * 1 * 2
    assert (tmp_path / "per_day.csv").exists()
    assert (tmp_path / "report.csv").exists()
    # 2 policy groups x 3 metrics
    assert len(report) == 6
    header = (tmp_path / "report.csv").read_text().splitlines()[0]
    assert header == REPORT_HEADER


def test_evaluation_is_deterministic():
    cfg = small_cfg()
    r1, d1 = run_evaluation(cfg)
    r2, d2 = run_evaluation(cfg)
    for a, b in zip(d1, d2):
        assert (a.calls_served, a.calls_canceled, a.sum_delay) == (
            b.calls_served, b.calls_canceled, b.sum_delay,
        )
    for a, b in zip(r1, r2):
        assert a.mean == b.mean


def test_policies_see_identical_demand_per_day():
    cfg = small_cfg()
    _, per_day = run_evaluation(cfg)
    by_policy = {}
    for m in per_day:
        by_policy.setdefault(m.policy, []).append(m.calls_created)
    created = list(by_policy.values())
    assert created[0] == created[1]  # same arrival stream for fifo and nn


def test_training_schedule_counts_days():
    cfg = small_cfg(train_days=2, train_reps=2, scenarios="easy,hard")
    policy, curves, day_metrics = run_training(cfg)
    assert len(day_metrics) == 2 * 2 * 2  # days x scenarios x reps
    assert set(curves) == {
        "new_call/reward", "new_call/q_value", "new_call/loss",
        "free_vehicle/reward", "free_vehicle/q_value", "free_vehicle/loss",
    }


def test_training_saves_loadable_checkpoints(tmp_path):
    cfg = small_cfg()
    run_training(cfg, out_dir=str(tmp_path))
    assert (tmp_path / "dqn_new_call.ckpt").exists()
    assert (tmp_path / "dqn_free_vehicle.ckpt").exists()
    assert (tmp_path / "learning_curves.csv").exists()
    policy = load_dqn_policy(cfg, str(tmp_path))
    assert policy.new_call_agent.train_mode is False


def test_evaluation_does_not_mutate_checkpoints(tmp_path):
    cfg = small_cfg(policies="dqn")
    run_training(cfg, out_dir=str(tmp_path))

    def digest(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    before = (digest("dqn_new_call.ckpt"), digest("dqn_free_vehicle.ckpt"))
    run_evaluation(cfg, checkpoint_dir=str(tmp_path))
    after = (digest("dqn_new_call.ckpt"), digest("dqn_free_vehicle.ckpt"))
    assert before == after


def test_missing_checkpoint_errors(tmp_path):
    cfg = small_cfg(policies="dqn")
    with pytest.raises(FileNotFoundError):
        load_dqn_policy(cfg, str(tmp_path))
    with pytest.raises(ValueError, match="checkpoint"):
        run_evaluation(cfg)


@pytest.mark.parametrize(
    "names, refusal",
    [
        (["nn", "nn"], r"^policy 'nn' is listed twice$"),
        (["fifo", "greedy"], r"^unknown policy 'greedy'$"),
    ],
    ids=["repeated", "unknown"],
)
def test_evaluation_refuses_a_repeated_or_unknown_policy_before_any_day(names, refusal, tmp_path,
                                                                        monkeypatch):
    days = []
    monkeypatch.setattr(harness, "simulate_day", lambda *args: days.append(args) or DayMetrics())
    with pytest.raises(ValueError, match=refusal):
        run_evaluation(small_cfg(), policy_names=names, out_dir=str(tmp_path))
    assert days == [] and list(tmp_path.iterdir()) == []


def test_evaluation_refuses_an_empty_policy_list_before_any_day(tmp_path, monkeypatch):
    days = []
    monkeypatch.setattr(harness, "simulate_day", lambda *args: days.append(args) or DayMetrics())
    with pytest.raises(ValueError, match=r"^no policy to evaluate$"):
        run_evaluation(small_cfg(), policy_names=[], out_dir=str(tmp_path))
    assert days == [] and list(tmp_path.iterdir()) == []
    run_evaluation(small_cfg())  # no list at all still means the config's policies
    assert sorted({policy.name for _cfg, _source, _scenario, policy, *_ in days}) == ["fifo", "nn"]


def test_a_day_builds_one_fleet_store_and_runs_on_it(monkeypatch):
    made, ran = [], []
    init = FleetState.__init__

    def counted(self, n):
        made.append(self)
        init(self, n)

    class Keeping(NearestPolicy):
        def on_day_end(self, env):
            ran.append(env.fleet_state)

    monkeypatch.setattr(FleetState, "__init__", counted)
    cfg = small_cfg()
    source = demand_source_from_config(cfg, 60)
    simulate_day(cfg, source, cfg.scenario_list[0], Keeping(), 11, ("t",), 0, 60)
    assert len(made) == 1 and ran[0] is made[0]


def test_records_mode_requires_path():
    cfg = small_cfg(demand_mode="records")
    with pytest.raises(Exception, match="records_path"):
        demand_source_from_config(cfg, 10)


# SHA-256 of per_day.csv for one small fixed evaluation per baseline.  The
# baselines use neither the q-network nor BLAS, so these bytes move only when
# demand, fleet, engine or baseline behaviour changes; such a change re-pins
# them deliberately and says so.
BASELINE_DIGESTS = {
    "fifo": "2159cb9ed27f2f084375c754f7a98d0bed4e4d492b6c0e2c9bb7fac10b6636e2",
    "lifo": "45193ea0e4c5b036652f6df1ecde620b25023f6aacae5e85243df5e151cbd339",
    "nn": "0953b301386bf5260d310e0e8836be374fc54a6b7ff4fbc347d0bdb5162cd019",
    "random": "7d35170b44218d141e24f620d636c67858f2cbac90da7506d50a5260334dbc2d",
}


@pytest.mark.parametrize("policy", sorted(BASELINE_DIGESTS))
def test_baseline_per_day_csv_digest_is_pinned(policy, tmp_path):
    cfg = parse_lines(
        ["seed=11", "daily_calls=300", "eval_days=2", "eval_seeds=2", "scenarios=easy,hard"]
    )
    run_evaluation(cfg, policy_names=[policy], out_dir=str(tmp_path))
    data = (tmp_path / "per_day.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == BASELINE_DIGESTS[policy]


# SHA-256 of the run_training outputs for one small fixed run.  Unlike the
# baseline digests above these bytes pass through the q-networks, so they
# also depend on the numpy build and its BLAS; they pin that refactors of
# qnet.py and agent.py leave training byte-identical on a given machine.
TRAINING_DIGESTS = {
    "dqn_free_vehicle.ckpt": "9788970dbb43f329082d14de4c44c255f0a76f8e60a48ed184e818562fde1ffc",
    "dqn_new_call.ckpt": "743de82c1910f9c308b5700f819b2c7f9849bb36ef766f92312b3cd9130cdd8f",
    "learning_curves.csv": "0b86e33c5a0138bc3f508efbe9c1214af55b1abb161d26d46f4cf983b39d794d",
}


def test_training_outputs_digest_is_pinned(tmp_path):
    cfg = small_cfg(
        train_daily_calls=60, train_days=2, update_steps=8, scenarios="easy,hard"
    )
    policy, _, _ = run_training(cfg, out_dir=str(tmp_path))
    for agent in (policy.new_call_agent, policy.free_vehicle_agent):
        # the run must take gradient steps and sync each target at least once
        assert agent.gradient_steps >= agent.cfg.update_steps
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in TRAINING_DIGESTS
    }
    assert digests == TRAINING_DIGESTS
