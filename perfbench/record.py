"""Record a trajectory point: every workload over several seeds.

    python3 perfbench/record.py --out perfbench/BENCH_<label>.json

Runs `run.py --trace 0` once per seed (1..10) for each workload, for
BENCHMARK.json's `run_seconds`, the way a comparison of two commits
would, then one `--trace 1` run per workload.  Writes each end-to-end metric's values, median, quartiles
and spread (the distance between the quartiles as a share of the
median), and the traced per-layer metrics.  Prints the spreads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import gen
import run

SEEDS = tuple(range(1, 11))
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed calls: {proc.stderr}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seconds = run.run_seconds()
    record = {
        "machine": f"{platform.processor() or platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}",
        "seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in gen.WORKLOADS:
        values: dict[str, list] = {}
        for seed in SEEDS:
            for name, metric in _run(workload, seed, seconds, 0)["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "values": series}
            print(f"{workload:<12} {name:<14} median {median:<12.6g} spread {(q3 - q1) / median:.4f}",
                  flush=True)
        traced = _run(workload, 1, seconds, 1)["metrics"]
        record["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer_seed_1": {name: metric["value"] for name, metric in traced.items()},
        }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
