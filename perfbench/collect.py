"""Repeat benchmark runs over several seeds and summarise each metric's spread.

Run from the repository root, for example:

    python3 perfbench/collect.py --workloads paths cli --seeds 1 2 3 4 5
    python3 perfbench/collect.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/baseline.json

Runs are sequential, with the run length from BENCHMARK.json.  For every
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, the interquartile distance as a share of the median; an
end-to-end spread at or above a third of the metric's bound is flagged.
With ``--out`` the summary and the environment (commit, Python and numpy
versions, nproc, seeds) are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(config: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, *config["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(config["run_seconds"]), "--trace", str(trace)]  # fmt: skip
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    summary: dict = {}
    for workload in args.workloads:
        results = [run_once(config, workload, seed, args.trace) for seed in args.seeds]
        problems = [r for r in results if not r["correct"] or r["failed"]]
        metrics = {}
        for name in results[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            metrics[name] = stats
            flag = ""
            if name in bounds and name != "setup_s" and stats["spread"] >= bounds[name] / 3:
                flag = f"  <-- spread at or above a third of the bound {bounds[name]}"
            print(
                f"{workload:10} {name:48} median {stats['median']:.6g} {stats['unit']}  "
                f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.4f}{flag}",
                flush=True,
            )
        print(f"{workload:10} runs with failures or incorrect results: {len(problems)}", flush=True)
        summary[workload] = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": metrics,
        }

    if args.out:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
        numpy = subprocess.run(
            [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
            capture_output=True, text=True,
        ).stdout.strip()  # fmt: skip
        doc = {
            "commit": commit or "unknown",
            "python": platform.python_version(),
            "numpy": numpy,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "run_seconds": config["run_seconds"],
            "trace": args.trace,
            "seeds": args.seeds,
            "workloads": summary,
        }
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
