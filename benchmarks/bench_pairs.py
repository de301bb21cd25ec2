"""Runs perfbench on two checkouts in interleaved pairs and writes a BENCH record.

    python3 benchmarks/bench_pairs.py --parent ../parent --change . \
        --workloads day_nn_100k,train_hard,eval_easy_10k --seeds 1,2,3,4,5 \
        --what "one line on the change" --out BENCH_topic.json

Each side runs from a fresh copy of its checkout: the files `git ls-files`
lists there, with their working-tree contents, copied into a new temporary
directory beside it, which is deleted at the end (the same `src/` read
`train_hard` 14% slower from a working checkout than from such a copy).
For every workload and seed, both copies run
`perfbench/run.py --workload W --seed S --seconds T --trace 0` from their
root, one run at a time.  T is `--seconds`: 5 by default, as the benchmark
runs it; a larger T makes runs of more rounds.  Pairs alternate which side
runs first, because the host drifts.  Before each run a fixed probe is
timed: a pure-Python loop plus a numpy L1 argmin, each the median of a few
repeats; a slower host reads a larger `probe_s`, so records from different
sittings can be read side by side.  The record keeps T, every run (its
`probe_s`, metrics, correctness and the events or gradient steps of each
round), a SHA-256 over the `src/` files of each side's copy, the OpenBLAS
kernel numpy loads on this host (`openblas_core`), and per workload and
end-to-end metric: each side's quartiles, the parent's interquartile
range, the pairs the change won (a tie is no win), whether the change's
median stays within the bound that `BENCHMARK.json` fixes, and
`claim_met`: whether the change won at least nine tenths of the pairs and
its median beats the parent's by more than the parent's interquartile
range, the rule a claimed gain must meet.  A metric is `unresolved` when
the parent's interquartile range is wider than the bound times the
parent's median, as the runs then spread too widely to tell a change
within the bound from none, unless every change run reads better than
every parent run.  With `--append`, the new record is added to the
records in `--out` (a JSON list, or one record), and the file becomes a
list, so one file can keep several comparisons.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

import numpy as np

ROUND = re.compile(r"^round: ([\d.]+) s, (\d+) events, (\d+) gradient steps")
PROBE_REPEATS = 5
PROBE_XY = np.random.default_rng(0).random((2, 1000))
NUMPY_LIBS = Path(np.__file__).resolve().parent.with_name("numpy.libs")


def _median_seconds(fn) -> float:
    samples = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _python_loop() -> int:
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


def _numpy_argmin() -> None:
    xs, ys = PROBE_XY
    for _ in range(1_000):
        d = np.abs(xs - 0.5)
        d += np.abs(ys - 0.5)
        d.argmin()


def probe() -> float:
    """Seconds the host takes for the fixed probe: the loop's median plus the argmin's."""
    return _median_seconds(_python_loop) + _median_seconds(_numpy_argmin)


def openblas_core(libs: Path = NUMPY_LIBS) -> Optional[str]:
    """The kernel numpy's bundled OpenBLAS in `libs` picked for this CPU, or None without one.

    Training is byte-identical only on one kernel, so records name it.
    """
    found = sorted(libs.glob("*openblas*"))
    if not found:
        return None
    corename = getattr(ctypes.CDLL(str(found[0])), "scipy_openblas_get_corename64_", None)
    if corename is None:
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


def src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def fresh_copy(root: Path, side: str) -> Path:
    """A new directory beside `root` holding the files git tracks in `root`, as they are there."""
    proc = subprocess.run(["git", "ls-files", "-z"], cwd=root, capture_output=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: git ls-files in {root} failed:\n{proc.stderr.decode()}")
    copy = Path(tempfile.mkdtemp(prefix=f"{side}-", dir=root.parent))
    for name in filter(None, map(os.fsdecode, proc.stdout.split(b"\0"))):
        source = root / name
        if source.is_file():  # a tracked file deleted from the working tree is left out
            (copy / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, copy / name)
    return copy


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
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
            every_run_better = min(change) > max(parent) if higher else max(change) < min(parent)
            gain = cq[1] - pq[1] if higher else pq[1] - cq[1]
            summary[workload][name] = {
                "better": metric["better"],
                "bound": metric["bound"],
                "seeds": seeds,
                "parent_q1_median_q3": pq,
                "change_q1_median_q3": cq,
                "median_ratio_change_over_parent": cq[1] / pq[1],
                "parent_iqr": pq[2] - pq[0],
                "change_wins_pairs": f"{wins}/{len(seeds)}",
                "within_bound": -gain / pq[1] <= metric["bound"],
                "unresolved": pq[2] - pq[0] > metric["bound"] * pq[1] and not every_run_better,
                "claim_met": 10 * wins >= 9 * len(seeds) and gain > pq[2] - pq[0],
            }
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="root of the changed checkout")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    ap.add_argument("--seconds", type=float, default=5.0,
                    help="perfbench's --seconds for every run (default: 5)")
    ap.add_argument("--what", required=True, help="what the change does, for the record")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--append", action="store_true",
                    help="add the record to the JSON list in --out instead of replacing the file")
    args = ap.parse_args(argv)

    given = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    roots = {}
    try:
        for side, root in given.items():
            roots[side] = fresh_copy(root, side)
        end_to_end = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]
        runs = []
        pair = 0
        for workload in args.workloads.split(","):
            for seed in (int(s) for s in args.seeds.split(",")):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    probe_s = probe()
                    run = run_once(roots[side], workload, seed, args.seconds)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "first": order[0], "probe_s": probe_s, **run})
                    print(f"{workload} seed {seed} {side}: {run['metrics']}", flush=True)
                pair += 1
        src_sha256 = {side: src_digest(root) for side, root in roots.items()}
    finally:
        for root in roots.values():
            shutil.rmtree(root, ignore_errors=True)

    record = {
        "what": args.what,
        "machine": f"{platform.machine()}, {platform.system()}, Python {platform.python_version()}",
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0, from the root of a fresh copy of "
                   "each side's tracked files, one run at a time",
        "seconds": args.seconds,
        "order": "pairs alternate which side runs first (field 'first')",
        "src_sha256": src_sha256,
        "openblas_core": openblas_core(),
        "summary": summarize(runs, end_to_end),
        "runs": runs,
    }
    if args.append:
        records = json.loads(args.out.read_text()) if args.out.exists() else []
        if isinstance(records, dict):  # a file written without --append holds one record
            records = [records]
        record = [*records, record]
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
