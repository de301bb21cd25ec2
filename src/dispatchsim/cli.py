"""Command-line entry point: simulate | train | evaluate | report."""

from __future__ import annotations

import argparse
import os
import sys

from .config import SCENARIO_RATIOS, ConfigError, Scenario, parse_config, parse_lines
from .harness import (
    demand_source_from_config,
    emit_report,
    make_policy,
    recompute_report_from_per_day_csv,
    report_text_table,
    run_evaluation,
    run_training,
    simulate_day,
    load_dqn_policy,
)


def _load_config(args):
    if args.config:
        cfg = parse_config(args.config)
    else:
        cfg = parse_lines([])
    if args.seed is not None:
        cfg.values["seed"] = args.seed
    if args.out_dir is not None:
        cfg.values["out_dir"] = args.out_dir
    return cfg


def _add_common(parser):
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out-dir", help="override the output directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dispatchsim",
        description="Event-driven vehicle dispatch simulator and DQN harness",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_sim = sub.add_parser("simulate", help="run one day with one policy")
    _add_common(p_sim)
    p_sim.add_argument("--policy", default="nn", help="fifo|lifo|nn|random|dqn")
    p_sim.add_argument("--scenario", default="medium", choices=tuple(SCENARIO_RATIOS))
    p_sim.add_argument("--day", type=int, default=0, help="day index (day-of-week = day %% 7)")
    p_sim.add_argument("--checkpoint-dir", help="where dqn checkpoints live")

    p_train = sub.add_parser("train", help="train the two agents")
    _add_common(p_train)

    p_eval = sub.add_parser("evaluate", help="evaluate policies against scenarios")
    _add_common(p_eval)
    p_eval.add_argument("--checkpoint-dir", help="where dqn checkpoints live")

    p_rep = sub.add_parser("report", help="re-aggregate a per-day CSV")
    _add_common(p_rep)
    p_rep.add_argument("per_day_csv")
    p_rep.add_argument("--format", choices=("csv", "text-table"), default="text-table")
    p_rep.add_argument("--output", help="write to file instead of stdout")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cfg = _load_config(args)

    if args.verb == "simulate":
        scenario = Scenario(args.scenario)
        tag = ("cli", args.day)
        dqn_policy = None
        if args.policy == "dqn":
            dqn_policy = load_dqn_policy(cfg, args.checkpoint_dir or cfg.out_dir)
        policy = make_policy(args.policy, cfg, cfg.seed, tag, dqn_policy)
        source = demand_source_from_config(cfg, cfg.daily_calls)
        trace = [] if cfg.event_trace else None
        m = simulate_day(
            cfg, source, scenario, policy, cfg.seed, tag, args.day % 7,
            cfg.daily_calls, trace=trace,
        )
        print(
            f"policy={m.policy} scenario={m.scenario} seed={m.seed} "
            f"created={m.calls_created} served={m.calls_served} "
            f"canceled={m.calls_canceled} pending={m.pending} "
            f"avg_delay_min={m.avg_delay:.4f} cancel_rate={m.cancel_rate:.4f} "
            f"total_service_min={m.sum_service_time:.2f}"
        )
        if trace is not None:
            os.makedirs(cfg.out_dir, exist_ok=True)
            path = os.path.join(cfg.out_dir, "event_trace.log")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(trace) + "\n")
            print(f"event trace written to {path}")
        return 0

    if args.verb == "train":
        _, curves, day_metrics = run_training(cfg, out_dir=cfg.out_dir)
        print(f"trained over {len(day_metrics)} simulated days")
        for name in sorted(curves):
            tail = curves[name][-1] if curves[name] else float("nan")
            print(f"  {name}: {len(curves[name])} points, last={tail:.4f}")
        print(f"checkpoints and learning curves written to {cfg.out_dir}")
        return 0

    if args.verb == "evaluate":
        ckpt = args.checkpoint_dir or cfg.out_dir
        names = cfg.policy_list
        report, per_day = run_evaluation(
            cfg,
            policy_names=names,
            checkpoint_dir=ckpt if "dqn" in names else None,
            out_dir=cfg.out_dir,
        )
        print("\n".join(report_text_table(report)))
        print(f"per-day and report CSVs written to {cfg.out_dir}")
        return 0

    if args.verb == "report":
        report = recompute_report_from_per_day_csv(args.per_day_csv)
        if args.output:
            emit_report(report, args.output, fmt=args.format)
            print(f"report written to {args.output}")
        else:
            lines = (
                report_text_table(report)
                if args.format == "text-table"
                else None
            )
            if lines is None:
                from .harness import report_csv_lines

                lines = report_csv_lines(report)
            print("\n".join(lines))
        return 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
