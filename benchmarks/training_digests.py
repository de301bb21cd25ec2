"""Prints the gradient steps and output digests of HARD training runs, as JSON.

    python3 benchmarks/training_digests.py --seeds 1,2,3,4,5

For each seed, `run_training` runs on perfbench's `HARD_CONFIG` (40 days of
1,000 calls served by 5 vehicles) with `seed=<seed>` put first, and writes
its outputs into a temporary directory.  The JSON gives, per seed, each
agent's gradient steps and the SHA-256 of both checkpoints and of
`learning_curves.csv`; the key `openblas_core` names the OpenBLAS kernel
numpy loaded, since the bytes hold only for that kernel.  Two checkouts
train alike on those seeds exactly when they print the same JSON on the
same kernel, so run it from both and compare.  The script imports
`dispatchsim` and `HARD_CONFIG` from the checkout it lives in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench_pairs import openblas_core  # noqa: E402
from dispatchsim.config import parse_lines  # noqa: E402
from dispatchsim.harness import run_training  # noqa: E402
from perfbench.workloads import HARD_CONFIG  # noqa: E402

OUTPUTS = ("dqn_new_call.ckpt", "dqn_free_vehicle.ckpt", "learning_curves.csv")


def digests(seed: int) -> dict:
    with tempfile.TemporaryDirectory() as out_dir:
        policy, _curves, _days = run_training(
            parse_lines([f"seed={seed}"] + HARD_CONFIG), out_dir=out_dir
        )
        sha = {name: hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
               for name in OUTPUTS}
    agents = (policy.new_call_agent, policy.free_vehicle_agent)
    return {"gradient_steps": {a.name: a.gradient_steps for a in agents}, "sha256": sha}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated seeds (default: 1-5)")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    out = {"openblas_core": openblas_core(), **{str(seed): digests(seed) for seed in seeds}}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
