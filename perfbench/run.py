"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload day_nn_100k --seed 1 --seconds 5 --trace 0

With `--trace 0` the workload's inputs are set up several times (the
median is `setup_s`) and its timed round repeats until `--seconds` have
passed; the end-to-end metrics are printed.  With `--trace 1` one
untraced round is followed by one round with every public call of the
package wrapped in a span; the per-layer metrics are printed, and the
simulated days of the two rounds must be identical.

Every simulated day is checked after it ran (see `checks.py`); a day that
fails a check counts as failed.  The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Results, outputs
and spans go to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"


def import_package():
    """Import dispatchsim from this checkout's `src/`, never from elsewhere."""
    package = ROOT / "src" / "dispatchsim"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no dispatchsim sources under {package.parent}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import dispatchsim
    import dispatchsim.harness  # noqa: F401  (pulls in every module a workload uses)

    if Path(dispatchsim.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported dispatchsim from {dispatchsim.__file__}")
    return dispatchsim


def timed_setup(workload, seed, times):
    start = time.perf_counter()
    inputs = workload.setup(seed)
    times.append(time.perf_counter() - start)
    return inputs


def attempt(workload, inputs, checker, out_dir, timed_context=contextlib.nullcontext):
    """One checked round, or None if the package raised during it.

    Only the timed call runs inside `timed_context()`; the untimed
    follow-up and the checks run outside it.
    """
    shutil.rmtree(out_dir, ignore_errors=True)  # so the checks read this round's files
    out_dir.mkdir(parents=True)
    try:
        with timed_context():
            rnd = workload.run(inputs, checker, out_dir)
        workload.finish(rnd, checker, out_dir)
    except Exception:  # a raising day is a failed operation, not a crash
        traceback.print_exc()
        return None
    return rnd


def end_to_end(workload, seed, seconds, out_dir):
    """Set up `setup_repeats` times, then run rounds until `seconds` have passed."""
    from perfbench.workloads import checker_for

    setup_times = []
    for _ in range(workload.setup_repeats):
        inputs = None  # free the previous inputs before building the next
        inputs = timed_setup(workload, seed, setup_times)
    rounds = []
    started = time.perf_counter()
    while True:
        rounds.append(attempt(workload, inputs, checker_for(workload, seed), out_dir))
        if time.perf_counter() - started >= seconds:
            break
        inputs = None
        inputs = timed_setup(workload, seed, setup_times)
    done = [r for r in rounds if r is not None]
    if not done:
        return rounds, None, [], {}
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "work_per_s": (statistics.median(workload.work(r) / r.seconds for r in done), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "setup_seconds": setup_times,
        "work_unit": workload.work_unit,
    }
    return rounds, metrics, [], extra


def per_layer(workload, seed, out_dir):
    from perfbench.tracing import Tracer, instrument
    from perfbench.workloads import checker_for

    plain = attempt(workload, workload.setup(seed), checker_for(workload, seed), out_dir)
    tracer = Tracer()
    checker = checker_for(workload, seed, tracer)
    with instrument(tracer):
        inputs = workload.setup(seed)
    traced = attempt(workload, inputs, checker, out_dir, lambda: instrument(tracer))
    if plain is None or traced is None:
        return [plain, traced], None, [], {}
    problems = []
    if plain.day_metrics != traced.day_metrics:
        problems.append("traced and untraced rounds simulated different days")
    tracer.save(OUT_ROOT / f"trace-{workload.name}.npz")
    return [plain, traced], layer_metrics(tracer, plain, traced), problems, {}


def layer_metrics(tracer, plain, traced):
    """The per-layer metrics; every `_s` time is self time, in seconds."""
    from perfbench.tracing import HANDLERS, LAYERS, layer_of

    own = tracer.self_seconds()
    spans = tracer.span_counts()
    counts = tracer.counts

    def self_s(*names):
        return (sum(own.get(n, 0.0) for n in names), "s")

    def n(name):
        return (spans.get(name, 0), "count")

    def c(name):
        return (counts.get(name, 0), "count")

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "events.push": n("events.push"),
        "events.pop": n("events.pop"),
        "events.queue_s": self_s("events.push", "events.pop"),
        "events.max_len": (tracer.maxima.get("events.max_len", 0), "count"),
    }
    for kind, handler in HANDLERS.items():
        m[f"engine.events.{kind}"] = n(f"engine.{handler}")
    for handler in HANDLERS.values():
        m[f"engine.{handler}_s"] = self_s(f"engine.{handler}")
    choose_calls = spans.get("policies.choose_call", 0)
    m.update(
        {
            "policies.choose_vehicle_s": self_s("policies.choose_vehicle"),
            "policies.choose_call_s": self_s("policies.choose_call"),
            "policies.decisions": (spans.get("policies.choose_vehicle", 0) + choose_calls, "count"),
            "policies.pool_mean": (ratio(counts["policies.pool_total"], choose_calls), "count"),
            "policies.pool_max": (tracer.maxima.get("policies.pool_max", 0), "count"),
            "kernels.nearest_s": self_s("kernels.nearest"),
            "kernels.nearest_masked_s": self_s("kernels.nearest_masked"),
            "kernels.scanned": c("kernels.scanned"),
            "features.new_call_s": self_s("features.new_call"),
            "features.free_vehicle_s": self_s("features.free_vehicle"),
            "features.rows": c("features.rows"),
            "qnet.forward_s": self_s("qnet.forward"),
            "qnet.forward_calls": n("qnet.forward"),
            "qnet.forward_rows": c("qnet.forward_rows"),
            "qnet.train_batch_s": self_s("qnet.train_batch"),
            "agent.act_s": self_s("agent.act"),
            "agent.train_step_s": self_s("agent.train_step"),
            "agent.grad_steps": c("agent.grad_steps"),
            "agent.grad_steps_per_s": (ratio(plain.grad_steps, plain.seconds), "1/s"),
            "agent.decisions": c("agent.decisions"),
            "agent.transitions": c("agent.transitions"),
            "agent.transitions_per_decision": (
                ratio(counts["agent.transitions"], counts["agent.decisions"]),
                "ratio",
            ),
            "engine.busy_picks": c("engine.busy_picks"),
        }
    )
    proposals = 0
    for outcome in ("accepted", "driver_rejected", "customer_rejected"):
        m[f"engine.proposals.{outcome}"] = c(f"engine.proposals.{outcome}")
        proposals += counts[f"engine.proposals.{outcome}"]
    m.update(
        {
            "engine.accept_ratio": (ratio(counts["engine.proposals.accepted"], proposals), "ratio"),
            "demand.generate_s": self_s("demand.generate"),
            "demand.calls": c("demand.calls"),
            "harness.build_calls_s": self_s("harness.build_calls"),
            "engine.build_fleet_s": self_s("engine.build_fleet"),
            "harness.simulate_day_s": self_s("harness.simulate_day"),
            "harness.aggregate_s": self_s("harness.aggregate"),
            "harness.report_s": self_s("harness.report"),
        }
    )
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s(*(name for name in own if layer_of(name) == layer))
    m["trace.spans"] = (len(tracer.start), "count")
    m["trace.overhead_pct"] = (100.0 * (traced.seconds / plain.seconds - 1.0), "%")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One thread per run: OpenBLAS would start a worker per CPU as numpy loads.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    started = time.perf_counter()
    dispatchsim = import_package()
    import_s = time.perf_counter() - started
    import numpy

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    out_dir = OUT_ROOT / workload.name

    if args.trace:
        rounds, metrics, problems, extra = per_layer(workload, args.seed, out_dir)
    else:
        rounds, metrics, problems, extra = end_to_end(workload, args.seed, args.seconds, out_dir)
    attempted = sum(workload.days_per_round if r is None else len(r.days) for r in rounds)
    failed = sum(workload.days_per_round if r is None else len(r.problems) for r in rounds)
    if metrics is None:
        print(f"error: no round finished ({failed} of {attempted} days failed)", file=sys.stderr)
        return 1
    rounds = [r for r in rounds if r is not None]
    for r in rounds:
        problems += r.whole_run_problems
        for day, found in sorted(r.problems.items()):
            print(f"day {day} failed: " + "; ".join(found[:5]), file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    environment = {
        "kernel_implementation": dispatchsim.KERNEL_IMPLEMENTATION,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for key, value in environment.items():
        print(f"{key} {value}")
    for r in rounds:
        print(f"round: {r.seconds:.4f} s, {r.events} events, {r.grad_steps} gradient steps")
    for key, value in rounds[0].reference.items():
        print(f"reference only (not a metric): {key} {value:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  environment=environment, problems=problems, import_s=import_s,
                  reference=rounds[0].reference,
                  rounds=[{"seconds": r.seconds, "events": r.events, "grad_steps": r.grad_steps}
                          for r in rounds], **extra)
    results_dir = OUT_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
