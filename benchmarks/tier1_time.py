"""Times the tier-1 test suite over three runs and writes a BENCH record.

    python3 benchmarks/tier1_time.py --out BENCH_tier1.json

Each run is the tier-1 command, `python -m pytest -q
--continue-on-collection-errors` with `src` on PYTHONPATH, from the root of
the checkout the script lives in.  Every run starts from an empty Hypothesis
example database in a temporary directory, so no run replays examples an
earlier one saved.  Runs write no pytest cache and no bytecode, and the JUnit
report goes to the same temporary directory, so a run leaves nothing in the
checkout.  The record keeps the OpenBLAS kernel numpy loads on this host;
per run, the wall time of the pytest process and the counts of passed,
failed, errored and skipped tests; the median wall time over runs; and the
ten tests with the largest median time (setup, call and teardown) over runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

from bench_pairs import openblas_core

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
RUNS = 3
SLOWEST = 10


def run_once() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "junit.xml"
        pythonpath = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, HYPOTHESIS_STORAGE_DIRECTORY=str(Path(tmp) / "hypothesis"),
                   PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=pythonpath)
        cmd = [sys.executable, *TIER1, "-p", "no:cacheprovider", f"--junitxml={report}"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=False)
        wall = time.perf_counter() - start
        if not report.exists():
            raise SystemExit(f"error: tier-1 wrote no report:\n{proc.stdout}{proc.stderr}")
        cases = ET.parse(report).getroot().iter("testcase")
        times, outcome = {}, {"passed": 0, "failed": 0, "errors": 0, "skipped": 0}
        for case in cases:
            name = f"{case.get('classname')}::{case.get('name')}"
            times[name] = float(case.get("time", 0.0))
            kinds = {child.tag for child in case}
            kind = ("failed" if "failure" in kinds else "errors" if "error" in kinds
                    else "skipped" if "skipped" in kinds else "passed")
            outcome[kind] += 1
    return {"wall_s": wall, "exit_code": proc.returncode, **outcome, "test_s": times}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_tier1.json")
    args = ap.parse_args(argv)

    runs = []
    for i in range(RUNS):
        run = run_once()
        runs.append(run)
        print(f"run {i + 1}: {run['passed']} passed, {run['failed']} failed, "
              f"{run['errors']} errors in {run['wall_s']:.1f} s", flush=True)
    names = set().union(*(run["test_s"] for run in runs))
    median_s = {n: statistics.median(run["test_s"].get(n, 0.0) for run in runs) for n in names}
    slowest = sorted(names, key=lambda n: (-median_s[n], n))[:SLOWEST]
    record = {
        "what": "wall time of the tier-1 suite, each run with an empty Hypothesis database",
        "machine": f"{platform.machine()}, {platform.system()}, "
                   f"Python {platform.python_version()}, {os.cpu_count()} CPUs",
        "openblas_core": openblas_core(),
        "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors "
                   "-p no:cacheprovider, from the root of the checkout",
        "median_wall_s": statistics.median(run["wall_s"] for run in runs),
        "passed": [run["passed"] for run in runs],
        "runs": [{k: v for k, v in run.items() if k != "test_s"} for run in runs],
        "slowest_tests": [
            {"test": n, "median_s": median_s[n], "runs_s": [run["test_s"].get(n) for run in runs]}
            for n in slowest
        ],
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if all(run["exit_code"] == 0 for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
