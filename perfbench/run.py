"""leastpriv pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

The first form runs one workload and prints, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  `--all` runs every workload both ways and prints every
metric by name with its unit, for people.

Run it from a checkout: the program is imported from `src/` next to
this directory, and inputs are generated under `.perfbench_work/` in
the checkout and deleted afterwards.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import child
import gen
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The call whose throughput is the workload's `work_per_s`, and the name
# `--all` prints that throughput under.
MAIN_OP = {
    "ingest-many": ("ingest", "records_per_s"),
    "trace-heavy": ("ingest", "records_per_s"),
    "synth-sweep": ("sweep", "policies_per_s"),
    "explore": ("explore", "probes_per_s"),
}

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("policy_events", "count", "lower"),
)

_COMMANDS = ("ingest", "synthesize", "sweep", "emit", "check", "explore", "plan",
             "validate-inference")
_SELF_TIMES = (
    "monitor.parse_trace", "monitor.replay_trace",
    "decision.load_store", "decision.save_store",
    "decision.synthesize_policy", "decision.functionality_score", "decision.classify_events",
    "decision.check_mitigation", "decision.dump_policy", "decision.load_policy",
    "decision.load_cvedb",
    "emitter.emit_seccomp_profile", "emitter.emit_capability_flags",
    "explorer.mutate_option_values", "explorer.validate_inference",
    "simharness.load_model", "simharness.evaluate",
    "environment.compose_environment", "environment.load_plan",
    "options.validate_value",
) + tuple(f"cli.{command}" for command in _COMMANDS)
_CALLS = ("decision.functionality_score", "explorer.EventProbe.evaluate", "simharness.evaluate",
          "environment.compose_environment", "options.validate_value")
_LAYER_TOTALS = ("cli",) + ("monitor", "events", "decision", "emitter", "explorer",
                            "simharness", "environment", "options")

# Per traced round.  Counts made by the program repeat exactly for one seed.
PER_LAYER = (
    tuple((f"{name}.self_s", "s", "lower") for name in _SELF_TIMES)
    + tuple((f"{name}.calls", "count", "lower") for name in _CALLS)
    + (
        ("events.canonical.self_s", "s", "lower"),
        ("events.canonical.calls", "count", "lower"),
        ("monitor.records_parsed", "count", "higher"),
        ("monitor.recorded_ratio", "ratio", "higher"),
        ("decision.store_bytes_read", "bytes", "lower"),
        ("decision.store_bytes_written", "bytes", "lower"),
        ("explorer.memo_hit_ratio", "ratio", "higher"),
    )
    + tuple((f"layer.{layer}.self_s", "s", "lower") for layer in _LAYER_TOTALS)
    + (("trace.overhead_s", "s", "lower"),)
)

# A fresh interpreter importing the CLI and loading the shipped data.
_SETUP_CODE = """
import leastpriv.cli
from leastpriv.decision import default_cvedb
from leastpriv.options import default_catalog
from leastpriv.simharness import FIXTURE_NAMES, load_fixture
default_cvedb()
default_catalog()
for name in FIXTURE_NAMES:
    load_fixture(name)
"""
# Half of the set-up runs go before the workload and half after.
SETUP_REPEATS = 5
# A bare interpreter start at the machine's full speed: 46 ms on a
# 2.1 GHz Xeon.
BARE_START_NOMINAL_S = 0.05


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _process_seconds(code: str) -> float:
    start = time.perf_counter()
    # no timeout: waiting with one polls, which rounds times up to 50 ms
    subprocess.run([sys.executable, "-c", code], env=_env(), check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_setup(repeats: int) -> list[tuple[float, float]]:
    """Wall times of fresh interpreters doing the set-up, each with the
    time of a bare interpreter start around it as its reference (see
    corrected())."""
    times = []
    for _ in range(repeats):
        before = _process_seconds("pass")
        elapsed = _process_seconds(_SETUP_CODE)
        times.append((elapsed, (before + _process_seconds("pass")) / 2))
    return times


def corrected(times: list[tuple[float, float]], nominal: float) -> list[float]:
    """Each (time, reference time) pair's time at the machine speed at
    which the reference takes `nominal` seconds.

    The machine is shared, and its speed swings 1.4-2x within seconds
    and between runs, more than any bound worth keeping.  A reference is
    a fixed piece of work of the same kind as the measured one, timed
    next to it, so their ratio cancels most of the swing:
    child.reference_seconds() for a CLI call, a bare interpreter start
    for the set-up.  Neither uses leastpriv, so a change to the program
    moves the measured times only.  The nominal times are fixed, not
    taken from the run, so a run that never sees the machine at full
    speed reads the same as one that does.
    """
    return [seconds * nominal / reference for seconds, reference in times]


def _run_child(truth: dict, work: str, seconds: float, trace: bool) -> tuple[dict, list]:
    """Run rounds in a fresh process; return its summary and checked rounds."""
    out = os.path.join(work, "traced" if trace else "plain")
    os.makedirs(out)
    script_path = os.path.join(out, "script.json")
    log_path = os.path.join(out, "calls.log")
    with open(script_path, "w", encoding="utf-8") as handle:
        json.dump({"calls": workloads.script(truth, out), "mark": gen.SALT_MARK,
                   "seconds": seconds, "trace": trace, "log": log_path}, handle)
    # no timeout: the child stops starting rounds after `seconds`
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), script_path],
                          env=_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}: {proc.stderr[-2000:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(log_path, encoding="utf-8") as handle:
        calls = [json.loads(line) for line in handle]
    by_round: dict[int, list] = {}
    times = corrected([(c["seconds"], c["reference_s"]) for c in calls], child.REFERENCE_NOMINAL_S)
    for call, seconds in zip(calls, times):
        by_round.setdefault(call["round"], []).append(dict(call, seconds=seconds))
    rounds = [workloads.check_round(truth, out, r, by_round[r]) for r in sorted(by_round)]
    return summary, rounds


def _quantile(values: list, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def end_to_end(workload: str, summary: dict, rounds: list, setup_s: float) -> dict:
    """Every end-to-end metric, under the names people read them by."""
    command, _ = MAIN_OP[workload]
    # Every round runs the same calls on inputs that differ only in their
    # salt, so each call's cost is the median of its corrected times.
    calls = [(ops[0], statistics.median(op.seconds for op in ops)) for ops in zip(*rounds)]
    main = [(op, seconds) for op, seconds in calls if op.command == command]
    named = {
        "setup_s": setup_s,
        "wall_s": sum(seconds for _, seconds in calls),
        "work_per_s": sum(op.work for op, _ in main) / sum(seconds for _, seconds in main),
        "peak_rss_mb": summary["peak_rss_mb"],
        "policy_events": statistics.median_low(sum(op.policy_events for op in ops) for ops in rounds),
    }
    if workload == "ingest-many":
        latencies = [op.seconds * 1000 for ops in rounds for op in ops if op.command == "ingest"]
        named["ingest_p50_ms"] = statistics.median(latencies)
        named["ingest_p95_ms"] = _quantile(latencies, 0.95)
        named["ingest_samples"] = len(latencies)
    return named


def per_layer(summary: dict, rounds: int, overhead_s: float) -> dict:
    spans, counts = summary["spans"], summary["counts"]

    def field(name: str, index: int) -> float:
        return spans.get(name, [0, 0.0, 0.0])[index] / rounds

    metrics = {f"{name}.self_s": field(name, 2) for name in _SELF_TIMES}
    metrics.update({f"{name}.calls": field(name, 0) for name in _CALLS})
    canonical = ("events.canonical_syscall", "events.canonical_capability")
    metrics["events.canonical.self_s"] = sum(field(name, 2) for name in canonical)
    metrics["events.canonical.calls"] = sum(field(name, 0) for name in canonical)
    parsed = counts.get("monitor.records_parsed", 0)
    metrics["monitor.records_parsed"] = parsed / rounds
    metrics["monitor.recorded_ratio"] = counts.get("monitor.records_recorded", 0) / parsed if parsed else 0.0
    for name in ("decision.store_bytes_read", "decision.store_bytes_written"):
        metrics[name] = counts.get(name, 0) / rounds
    evaluations = spans.get("explorer.EventProbe.evaluate", [0])[0]
    metrics["explorer.memo_hit_ratio"] = (
        1 - counts.get("explorer.probe_evaluations", 0) / evaluations if evaluations else 0.0
    )
    for layer in _LAYER_TOTALS:
        metrics[f"layer.{layer}.self_s"] = sum(
            entry[2] for name, entry in spans.items() if name.split(".")[0] == layer
        ) / rounds
    metrics["trace.overhead_s"] = overhead_s
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Generate, run and check one workload; return the result object."""
    work = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    try:
        truth = gen.generate(workload, seed, work, scale)
        setup = []
        if trace:
            # an untraced and a traced process share the time; their
            # difference in round wall time is the tracing overhead
            runs = [_run_child(truth, work, seconds / 2, trace=False),
                    _run_child(truth, work, seconds / 2, trace=True)]
        else:
            setup += measure_setup(SETUP_REPEATS)
            runs = [_run_child(truth, work, seconds, trace=False)]
            setup += measure_setup(SETUP_REPEATS)
        ops = [op for _, rounds in runs for ops in rounds for op in ops]
        failed = [op for op in ops if not op.ok]
        plain = end_to_end(workload, *runs[0], statistics.median(corrected(setup, BARE_START_NOMINAL_S)) if setup else 0.0)
        if trace:
            traced_wall = end_to_end(workload, *runs[1], 0.0)["wall_s"]
            summary, rounds = runs[1]
            metrics = per_layer(summary, len(rounds), traced_wall - plain["wall_s"])
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics = {name: plain[name] for name, _, _ in END_TO_END}
            units = {name: unit for name, unit, _ in END_TO_END}
        return {
            "correct": not failed,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            "named": plain,
            "problems": [f"{op.command}: {p}" for op in failed for p in op.problems][:20],
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run still uses it
            pass


def _dominant(metrics: dict) -> str:
    totals = {name: m["value"] for name, m in metrics.items() if name.startswith("layer.")}
    return max(totals, key=totals.get).split(".")[1]


def report_all(seed: int, seconds: float) -> int:
    units = {"ingest_p50_ms": "ms", "ingest_p95_ms": "ms", "ingest_samples": "count",
             "failed_ratio": "ratio", **{name: unit for name, unit, _ in END_TO_END}}
    status = 0
    for workload in gen.WORKLOADS:
        plain = run_workload(workload, seed, seconds, trace=False)
        traced = run_workload(workload, seed, seconds, trace=True)
        named = dict(plain["named"], failed_ratio=plain["failed"] / plain["attempted"])
        print(f"== {workload} (seed {seed}, {plain['attempted']} operations checked)")
        for name, value in named.items():
            label = f" ({MAIN_OP[workload][1]})" if name == "work_per_s" else ""
            print(f"  {name:<34} {value:>14.6g} {units[name]}{label}")
        print(f"  per layer, per traced round (dominant layer: {_dominant(traced['metrics'])})")
        for name, metric in traced["metrics"].items():
            if metric["value"]:
                print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
        for problem in plain["problems"] + traced["problems"]:
            print(f"  FAILED {problem}")
        status |= not (plain["correct"] and traced["correct"])
    return status


def run_seconds() -> int:
    """The run length BENCHMARK.json fixes."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)["run_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, print every metric")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "leastpriv", "cli.py")):
        print(f"error: no leastpriv sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    seconds = args.seconds or run_seconds()
    if args.all:
        return report_all(args.seed, seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    for problem in result.pop("problems"):
        print(f"FAILED {problem}", file=sys.stderr)
    result.pop("named")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
