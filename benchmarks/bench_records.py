"""Times records mode on a 1M-row trip CSV for two checkouts and writes a BENCH record.

    python3 benchmarks/bench_records.py --parent ../parent --change . --pairs 5 \
        --what "one line on the change" --out BENCH_records.json

`write_trip_csv` writes the trip file once into a temporary directory: ROWS
rows, a seventh of them on each day of the week, drawn from the package's
uniform synthetic demand with seed 0, so the file is the same on every run
and nothing is downloaded.  Each side runs from a fresh copy of its tracked
files (as `bench_pairs.py` makes them), and each run is one fresh process
that imports that copy's `dispatchsim`, reads the file with
`load_trip_records` and then draws the seven records days, each capped at
DAILY_CAP calls, from one generator seeded 0.  A run records the load's
seconds, the rise of the process's peak RSS over the load, the process's
peak RSS at the end (both read from Linux's `/proc/self/status`), each
day's seconds and call count, and a SHA-256 over every day's times and
locations, which must agree between the sides.
Pairs alternate which side runs first, because the host drifts, and before
each run `bench_pairs.probe` times a fixed probe.  The summary gives each
side's median of the load seconds, the RSS rise and the per-run median day
seconds, and the change's median over the parent's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_pairs import fresh_copy, openblas_core, probe, src_digest

ROOT = Path(__file__).resolve().parents[1]
ROWS = 1_000_000
DAILY_CAP = 100_000
METRICS = ("load_s", "load_rss_rise_mb", "day_median_s")


def write_trip_csv(path: Path, rows: int = ROWS, seed: int = 0) -> None:
    """Write `rows` trips, a seventh of them on each day of the week, from uniform demand."""
    from dispatchsim.demand import (
        CSV_HEADER, DemandSource, flat_hourly_rates, generate_daily_calls,
    )

    if rows < 7:
        raise ValueError(f"rows must be at least 7, one for each day, not {rows}")
    per_day = [rows // 7 + (day < rows % 7) for day in range(7)]
    # six Poisson standard deviations above the largest day's count, so the cap cuts every day
    most = max(per_day)
    source = DemandSource(mode="synthetic",
                          hourly_rates=flat_hourly_rates((most + 6 * most**0.5 + 1) / 24.0))
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for day, n in enumerate(per_day):
            demand = generate_daily_calls(source, day, n, rng)
            if len(demand) != n:
                raise SystemExit(f"error: day {day} drew {len(demand)} calls, not {n}")
            week = np.column_stack([demand.times + day * 1440.0, demand.locations])
            np.savetxt(fh, week, fmt="%.17g", delimiter=",")


def _peak_rss_mb() -> float:
    """This process's peak RSS since its exec (`VmHWM`; `ru_maxrss` keeps the spawner's peak)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    return int(kb) / 1024.0


def measure(csv_path: Path, src: Path) -> dict:
    """Load `csv_path` and draw the seven records days with the `dispatchsim` in `src`."""
    sys.path.insert(0, str(src))
    from dispatchsim.demand import DemandSource, generate_daily_calls, load_trip_records

    before = _peak_rss_mb()
    start = time.perf_counter()
    with open(csv_path, encoding="utf-8") as fh:
        records, dropped = load_trip_records(fh)
    load_s = time.perf_counter() - start
    rise = _peak_rss_mb() - before
    source = DemandSource(mode="records", records=records)
    rng = np.random.default_rng(0)
    digest = hashlib.sha256()
    days_s, calls = [], []
    for day in range(7):
        start = time.perf_counter()
        demand = generate_daily_calls(source, day, DAILY_CAP, rng)
        days_s.append(time.perf_counter() - start)
        calls.append(len(demand))
        digest.update(np.ascontiguousarray(demand.times).tobytes())
        digest.update(np.ascontiguousarray(demand.locations).tobytes())
    return {
        "rows": len(records), "dropped": dropped,
        "load_s": load_s, "load_rss_rise_mb": rise, "peak_rss_mb": _peak_rss_mb(),
        "days_s": days_s, "day_median_s": statistics.median(days_s), "calls": calls,
        "days_sha256": digest.hexdigest(),
    }


def run_once(root: Path, csv_path: Path) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--measure", str(csv_path),
           "--src", str(root / "src")]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def summarize(runs) -> dict:
    summary = {}
    for name in METRICS:
        med = {side: statistics.median(r[name] for r in runs if r["side"] == side)
               for side in ("parent", "change")}
        summary[name] = {**{f"{side}_median": v for side, v in med.items()},
                         "change_over_parent": med["change"] / med["parent"]}
    summary["days_agree"] = len({r["days_sha256"] for r in runs}) == 1
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, help="root of the parent checkout")
    ap.add_argument("--change", type=Path, help="root of the changed checkout")
    ap.add_argument("--pairs", type=int, default=5, help="parent/change pairs (default: 5)")
    ap.add_argument("--what", help="what the change does, for the record")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--measure", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--src", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure, args.src)))
        return 0
    if not (args.parent and args.change and args.what and args.out):
        ap.error("--parent, --change, --what and --out are required")

    sys.path.insert(0, str(ROOT / "src"))
    given = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    roots, runs = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "trips.csv"
        write_trip_csv(csv_path)
        csv_sha256 = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        try:
            for side, root in given.items():
                roots[side] = fresh_copy(root, side)
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    probe_s = probe()
                    run = run_once(roots[side], csv_path)
                    runs.append({"pair": pair, "side": side, "first": order[0],
                                 "probe_s": probe_s, **run})
                    print(f"pair {pair} {side}: load {run['load_s']:.2f} s, "
                          f"rise {run['load_rss_rise_mb']:.0f} MB, "
                          f"day {run['day_median_s']:.3f} s", flush=True)
            src_sha256 = {side: src_digest(root) for side, root in roots.items()}
        finally:
            for root in roots.values():
                shutil.rmtree(root, ignore_errors=True)

    record = {
        "what": args.what,
        "machine": f"{platform.machine()}, {platform.system()}, Python {platform.python_version()}",
        "command": f"bench_records.py --pairs {args.pairs}: one fresh process per run, "
                   f"load_trip_records on {ROWS:,} rows, then seven records days capped "
                   f"at {DAILY_CAP:,} calls",
        "csv_sha256": csv_sha256,
        "order": "pairs alternate which side runs first (field 'first')",
        "src_sha256": src_sha256,
        "openblas_core": openblas_core(),
        "summary": summarize(runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
