"""Runs perfbench on two checkouts in interleaved pairs and writes a BENCH record.

    python3 benchmarks/bench_pairs.py --parent ../parent --change . \
        --workloads day_nn_100k,train_hard,eval_easy_10k --seeds 1,2,3,4,5 \
        --what "one line on the change" --out BENCH_topic.json

For every workload and seed, both checkouts run
`perfbench/run.py --workload W --seed S --seconds 5 --trace 0` from their own
root, one run at a time; pairs alternate which side runs first, because the
host drifts.  The record keeps every run (its metrics, correctness and the
events or gradient steps of each round), a SHA-256 over each side's `src/`
files, and per workload and end-to-end metric: each side's quartiles, the
parent's interquartile range, the pairs the change won and whether the
change's median stays within the bound that `BENCHMARK.json` fixes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROUND = re.compile(r"^round: ([\d.]+) s, (\d+) events, (\d+) gradient steps")


def src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_once(root: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "5", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {root} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    rounds = [m.groups() for m in map(ROUND.match, lines) if m]
    kernel = next((ln.split()[1] for ln in lines if ln.startswith("kernel_implementation")), None)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "rounds": [{"s": float(s), "events": int(e), "grad_steps": int(g)} for s, e, g in rounds],
        "kernel_implementation": kernel,
    }


def quartiles(values):
    if len(values) == 1:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(runs, end_to_end) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        rows = [r for r in runs if r["workload"] == workload]
        seeds = sorted({r["seed"] for r in rows})
        side = {
            s: {r["seed"]: r["metrics"] for r in rows if r["side"] == s} for s in ("parent", "change")
        }
        summary[workload] = {}
        for metric in end_to_end:
            name, higher = metric["name"], metric["better"] == "higher"
            parent = [side["parent"][s][name] for s in seeds]
            change = [side["change"][s][name] for s in seeds]
            pq, cq = quartiles(parent), quartiles(change)
            wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
            worse_by = (pq[1] - cq[1]) / pq[1] if higher else (cq[1] - pq[1]) / pq[1]
            summary[workload][name] = {
                "better": metric["better"],
                "bound": metric["bound"],
                "seeds": seeds,
                "parent_q1_median_q3": pq,
                "change_q1_median_q3": cq,
                "median_ratio_change_over_parent": cq[1] / pq[1],
                "parent_iqr": pq[2] - pq[0],
                "change_wins_pairs": f"{wins}/{len(seeds)}",
                "within_bound": worse_by <= metric["bound"],
            }
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="root of the changed checkout")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    ap.add_argument("--what", required=True, help="what the change does, for the record")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    end_to_end = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []
    pair = 0
    for workload in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(roots[side], workload, seed)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "first": order[0], **run})
                print(f"{workload} seed {seed} {side}: {run['metrics']}", flush=True)
            pair += 1

    record = {
        "what": args.what,
        "machine": f"{platform.machine()}, {platform.system()}, Python {platform.python_version()}",
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> --seconds 5 "
                   "--trace 0, from the root of each side, one run at a time",
        "order": "pairs alternate which side runs first (field 'first')",
        "src_sha256": {side: src_digest(root) for side, root in roots.items()},
        "summary": summarize(runs, end_to_end),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
