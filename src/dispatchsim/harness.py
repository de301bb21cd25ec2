"""Experiment harness: scenario runs, training schedule, evaluation, reports."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .agent import DQNAgent, DQNPolicy
from .config import VALID_POLICIES, ExperimentConfig, Scenario
from .demand import (
    DemandError,
    DemandSource,
    flat_hourly_rates,
    generate_daily_calls,
    load_trip_records,
    sample_tolerances,
)
from .engine import DayMetrics, build_fleet, run_day
from .entities import CallTable
from .policies import DispatchPolicy, make_baseline
from .qnet import load_checkpoint
from .rng import substream

METRIC_NAMES = ("avg_delay_min", "cancel_rate", "total_service_min")

PER_DAY_HEADER = (
    "date,policy,scenario,created,served,canceled,"
    "avg_delay_min,cancel_rate,total_service_min,seed"
)
REPORT_HEADER = "policy,scenario,metric,mean,ci_low,ci_high,n"


def demand_source_from_config(cfg: ExperimentConfig, daily_calls: int) -> DemandSource:
    if cfg.demand_mode == "records":
        if not cfg.records_path:
            raise DemandError("demand_mode=records requires records_path")
        with open(cfg.records_path, "r", encoding="utf-8") as fh:
            records, _dropped = load_trip_records(fh, cfg.box)
        return DemandSource(mode="records", records=records, box=cfg.box)
    rate = cfg.synthetic_base_rate or daily_calls / 24.0
    clusters = cfg.cluster_list if cfg.spatial_mode == "clusters" else []
    return DemandSource(
        mode="synthetic",
        hourly_rates=flat_hourly_rates(rate),
        clusters=clusters,
        box=cfg.box,
    )


def build_calls(
    source: DemandSource,
    cfg: ExperimentConfig,
    day_of_week: int,
    daily_calls: int,
    demand_rng: np.random.Generator,
    tolerance_rng: np.random.Generator,
) -> CallTable:
    """One day's calls, with ids 0..n-1 in arrival order, as one table.

    Draw order: everything `generate_daily_calls` takes from `demand_rng`
    first, then one tolerance per call, in id order, from `tolerance_rng`.
    So one generator may serve as both streams.
    """
    demand = generate_daily_calls(source, day_of_week, daily_calls, demand_rng)
    calls = CallTable(len(demand))
    calls.floats[:4] = demand.locations.T
    calls.floats[4] = demand.times
    calls.floats[5] = sample_tolerances(cfg.stochastic, tolerance_rng, len(demand))
    return calls


def simulate_day(
    cfg: ExperimentConfig,
    source: DemandSource,
    scenario: Scenario,
    policy: DispatchPolicy,
    seed: int,
    stream_tag: Sequence,
    day_of_week: int,
    daily_calls: int,
    trace: Optional[list] = None,
) -> DayMetrics:
    """One simulated day; all randomness comes from named substreams of `seed`."""
    calls = build_calls(
        source,
        cfg,
        day_of_week,
        daily_calls,
        substream(seed, "demand", *stream_tag),
        substream(seed, "tolerance", *stream_tag),
    )
    fleet = build_fleet(
        scenario.fleet_size(daily_calls),
        cfg.stochastic,
        substream(seed, "placement", *stream_tag),
        substream(seed, "rejection", *stream_tag),
        cfg.box,
    )
    # day_of_week anchors the weekly cyclical features
    week_offset = cfg.week_origin_offset + day_of_week * 1440.0
    metrics = run_day(
        fleet,
        calls,
        policy,
        policy,
        speed=cfg.speed,
        driver_rng=substream(seed, "driver", *stream_tag),
        week_origin_offset=week_offset,
        max_events=cfg.max_events_per_day,
        trace=trace,
    )
    metrics.policy = policy.name
    metrics.scenario = scenario.name
    metrics.seed = seed
    return metrics


def make_policy(
    name: str,
    cfg: ExperimentConfig,
    seed: int,
    stream_tag: Sequence,
    dqn_policy: Optional[DQNPolicy] = None,
) -> DispatchPolicy:
    if name == "dqn":
        if dqn_policy is None:
            raise ValueError("dqn policy requested but no trained agents supplied")
        return dqn_policy
    return make_baseline(name, rng=substream(seed, "policy", name, *stream_tag))


def fresh_dqn_policy(cfg: ExperimentConfig, seed: int) -> DQNPolicy:
    agent_cfg = cfg.agent
    agents = {}
    for agent_name in ("new_call", "free_vehicle"):
        agents[agent_name] = DQNAgent(
            agent_name,
            agent_cfg,
            init_rng=substream(seed, "agent-init", agent_name),
            explore_rng=substream(seed, "exploration", agent_name),
        )
    return DQNPolicy(agents["new_call"], agents["free_vehicle"])


# -- training ------------------------------------------------------------------


def _per_thousand_means(series: Sequence[float]) -> List[float]:
    return [
        float(np.mean(series[i : i + 1000])) for i in range(0, len(series), 1000)
    ]


def run_training(
    cfg: ExperimentConfig, out_dir: Optional[str] = None
) -> Tuple[DQNPolicy, Dict[str, List[float]], List[DayMetrics]]:
    """Train both agents online over days x scenarios x repetitions.

    Returns the trained policy, the per-1000-sample learning curves and the
    per-training-day metrics.  Checkpoints and curves are written to
    `out_dir` when given.
    """
    seed = cfg.seed
    daily_calls = cfg.train_daily_calls
    source = demand_source_from_config(cfg, daily_calls)
    policy = fresh_dqn_policy(cfg, seed)
    policy.set_train_mode(True)

    day_metrics: List[DayMetrics] = []
    for day in range(cfg.train_days):
        for scenario in cfg.scenario_list:
            for rep in range(cfg.train_reps):
                tag = ("train", day, scenario.name, rep)
                metrics = simulate_day(
                    cfg, source, scenario, policy, seed, tag, day % 7, daily_calls
                )
                day_metrics.append(metrics)

    curves: Dict[str, List[float]] = {}
    for agent in (policy.new_call_agent, policy.free_vehicle_agent):
        curves[f"{agent.name}/reward"] = _per_thousand_means(agent.reward_history)
        curves[f"{agent.name}/q_value"] = _per_thousand_means(agent.q_history)
        curves[f"{agent.name}/loss"] = _per_thousand_means(agent.loss_history)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for agent in (policy.new_call_agent, policy.free_vehicle_agent):
            agent.save(os.path.join(out_dir, f"dqn_{agent.name}.ckpt"))
        with open(
            os.path.join(out_dir, "learning_curves.csv"), "w", encoding="utf-8", newline="\n"
        ) as fh:
            fh.write("series,index,value\n")
            for name in sorted(curves):
                for i, v in enumerate(curves[name]):
                    fh.write(f"{name},{i},{v:.9g}\n")
    return policy, curves, day_metrics


def load_dqn_policy(cfg: ExperimentConfig, checkpoint_dir: str) -> DQNPolicy:
    policy = fresh_dqn_policy(cfg, cfg.seed)
    for agent in (policy.new_call_agent, policy.free_vehicle_agent):
        path = os.path.join(checkpoint_dir, f"dqn_{agent.name}.ckpt")
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"missing checkpoint for agent {agent.name!r}: {path}"
            )
        net, name = load_checkpoint(path)
        if name != agent.name:
            raise ValueError(f"checkpoint {path} is for agent {name!r}, expected {agent.name!r}")
        if net.dims[0] != agent.online.dims[0]:
            raise ValueError(
                f"checkpoint {path} takes {net.dims[0]} input features, expected {agent.online.dims[0]}"
            )
        agent.load_network(net)
    policy.set_train_mode(False)
    return policy


# -- evaluation ------------------------------------------------------------------


@dataclass
class ReportRow:
    policy: str
    scenario: str
    metric: str
    mean: float
    ci_low: float
    ci_high: float
    n: int


def _day_fields(m: DayMetrics) -> Tuple[str, ...]:
    """A day's `per_day.csv` fields after `date`, as written: floats to 9 significant digits."""
    return (
        m.policy, m.scenario, str(m.calls_created), str(m.calls_served), str(m.calls_canceled),
        f"{m.avg_delay:.9g}", f"{m.cancel_rate:.9g}", f"{m.sum_service_time:.9g}", str(m.seed),
    )


def aggregate(per_day: List[DayMetrics]) -> List[ReportRow]:
    """Mean and 95% CI of each metric per (policy, scenario), over the values as written."""
    return _aggregate_fields([_day_fields(m) for m in per_day])


def _aggregate_fields(days: List[Sequence[str]]) -> List[ReportRow]:
    """`aggregate` over days given as their `_day_fields`."""
    groups: Dict[Tuple[str, str], List[Sequence[str]]] = {}
    for fields in days:
        groups.setdefault((fields[0], fields[1]), []).append(fields)
    rows = []
    for (policy, scenario), group in sorted(groups.items()):
        # METRIC_NAMES is sorted and in field order, from field 5 on
        for col, metric in enumerate(METRIC_NAMES, start=5):
            values = np.array([float(fields[col]) for fields in group])
            mean = float(values.mean())
            sd = float(values.std(ddof=1)) if len(values) > 1 else 0.0
            half = 1.96 * sd / math.sqrt(len(values))
            rows.append(
                ReportRow(policy, scenario, metric, mean, mean - half, mean + half, len(values))
            )
    return rows


def per_day_csv_lines(per_day: List[DayMetrics], dates: List[str]) -> List[str]:
    return [PER_DAY_HEADER] + [
        ",".join((date, *_day_fields(m))) for date, m in zip(dates, per_day)
    ]


def run_evaluation(
    cfg: ExperimentConfig,
    policy_names: Optional[List[str]] = None,
    dqn_policy: Optional[DQNPolicy] = None,
    checkpoint_dir: Optional[str] = None,
    out_dir: Optional[str] = None,
) -> Tuple[List[ReportRow], List[DayMetrics]]:
    """Deterministic greedy evaluation of each policy x scenario x day.

    Demand/fleet streams are keyed by (seed, day) only, so every policy sees
    the identical day; evaluation streams are disjoint from training streams.
    Each policy is named once: a repeated one's days would be counted twice.
    No `policy_names` means the config's list; an empty list is refused.
    """
    policy_names = cfg.policy_list if policy_names is None else policy_names
    if not policy_names:
        raise ValueError("no policy to evaluate")
    for i, name in enumerate(policy_names):
        if name not in VALID_POLICIES:
            raise ValueError(f"unknown policy {name!r}")
        if name in policy_names[:i]:
            raise ValueError(f"policy {name!r} is listed twice")
    if "dqn" in policy_names and dqn_policy is None:
        if checkpoint_dir is None:
            raise ValueError("dqn evaluation requires trained agents or a checkpoint_dir")
        dqn_policy = load_dqn_policy(cfg, checkpoint_dir)
    if dqn_policy is not None:
        dqn_policy.set_train_mode(False)

    daily_calls = cfg.daily_calls
    source = demand_source_from_config(cfg, daily_calls)
    per_day: List[DayMetrics] = []
    dates: List[str] = []
    for policy_name in policy_names:
        for scenario in cfg.scenario_list:
            for rep in range(cfg.eval_seeds):
                for day in range(cfg.eval_days):
                    tag = ("eval", rep, day)
                    policy = make_policy(policy_name, cfg, cfg.seed, tag, dqn_policy)
                    metrics = simulate_day(
                        cfg, source, scenario, policy, cfg.seed, tag, day % 7, daily_calls
                    )
                    metrics.seed = cfg.seed + rep
                    per_day.append(metrics)
                    dates.append(f"{rep}-{day}")

    report = aggregate(per_day)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_lines(os.path.join(out_dir, "per_day.csv"), per_day_csv_lines(per_day, dates))
        write_lines(os.path.join(out_dir, "report.csv"), report_csv_lines(report))
    return report, per_day


# -- report emission ------------------------------------------------------------


def report_csv_lines(report: List[ReportRow]) -> List[str]:
    lines = [REPORT_HEADER]
    for r in sorted(report, key=lambda r: (r.policy, r.scenario, r.metric)):
        lines.append(
            f"{r.policy},{r.scenario},{r.metric},"
            f"{r.mean:.9g},{r.ci_low:.9g},{r.ci_high:.9g},{r.n}"
        )
    return lines


def report_text_table(report: List[ReportRow]) -> List[str]:
    header = f"{'policy':<8} {'scenario':<10} {'metric':<18} {'mean':>12} {'ci_low':>12} {'ci_high':>12} {'n':>4}"
    lines = [header, "-" * len(header)]
    for r in sorted(report, key=lambda r: (r.policy, r.scenario, r.metric)):
        lines.append(
            f"{r.policy:<8} {r.scenario:<10} {r.metric:<18} "
            f"{r.mean:>12.4f} {r.ci_low:>12.4f} {r.ci_high:>12.4f} {r.n:>4}"
        )
    return lines


def write_lines(path, lines: List[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _check_per_day_row(fields: Sequence[str]) -> None:
    """Refuse a `per_day.csv` row that no simulated day can produce."""
    created, served, canceled, _seed = (int(fields[i]) for i in (3, 4, 5, 9))
    values = [float(fields[i]) for i in (6, 7, 8)]
    avg_delay, cancel_rate, service = values
    for name, count in (("created", created), ("served", served), ("canceled", canceled)):
        if count < 0:
            raise ValueError(f"{name} count {count} is negative")
    if served + canceled > created:
        raise ValueError(f"served {served} plus canceled {canceled} exceed created {created}")
    for name, value in zip(METRIC_NAMES, values):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} {value} is not finite and non-negative")
    if cancel_rate != float(f"{canceled / created if created else 0.0:.9g}"):
        raise ValueError(f"cancel_rate {cancel_rate} is not canceled/created {canceled}/{created}")
    if not served:
        for name, value in (("avg_delay_min", avg_delay), ("total_service_min", service)):
            if value:
                raise ValueError(f"{name} {value} on a day that served no call")


def recompute_report_from_per_day_csv(path) -> List[ReportRow]:
    """Re-aggregate a per-day CSV; used by the `report` CLI verb."""
    days: List[List[str]] = []
    first_line: Dict[Tuple[str, ...], int] = {}  # (date, policy, scenario) -> line
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != PER_DAY_HEADER:
            raise ValueError(f"{path}: unexpected per-day header")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.strip().split(",")
            try:
                if len(fields) != 10:
                    raise ValueError(f"expected 10 fields, got {len(fields)}")
                _check_per_day_row(fields)
                day = tuple(fields[:3])
                if day in first_line:
                    raise ValueError(
                        f"day {day[0]} of policy {day[1]} in scenario {day[2]} "
                        f"repeats line {first_line[day]}"
                    )
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            first_line[day] = lineno
            days.append(fields[1:])
    if not days:
        raise ValueError(f"{path}: no per-day rows")
    return _aggregate_fields(days)
