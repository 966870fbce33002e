"""The benchmark's own tests: tiny runs pass the oracle, and the oracle
catches corrupted outputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tiny_run_passes_the_oracle(workload, trace):
    result = run.run_workload(workload, seed=7, seconds=0.05, trace=trace, scale="tiny")
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [name for name, _, _ in expected]
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_generator_is_deterministic(tmp_path):
    first = gen.generate("ingest-many", 3, str(tmp_path / "a"), "tiny")
    second = gen.generate("ingest-many", 3, str(tmp_path / "b"), "tiny")
    assert [i["events"] for i in first["ingests"]] == [i["events"] for i in second["ingests"]]
    for a, b in zip(first["ingests"], second["ingests"]):
        assert open(a["trace"]).read() == open(b["trace"]).read()


TARGETS = (0.25, 0.5)


def _ingest_all(truth: dict, store: str) -> dict:
    from leastpriv.cli import main

    for k, ing in enumerate(truth["ingests"]):
        trace = ing["trace"] + ".salted"
        child.stage(ing["trace"], trace, gen.SALT_MARK, f"{k:07d}")
        assert main(["ingest", trace, "--env-id", ing["env_id"], "--store", store]) == 0
    return {ing["env_id"]: ing["events"] for ing in truth["ingests"]}


def test_staged_copies_differ_per_call_and_parse_the_same(tmp_path, capsys):
    from leastpriv.cli import main

    truth = gen.generate("ingest-many", 4, str(tmp_path), "tiny")
    store = str(tmp_path / "s.obs")
    _ingest_all(truth, store)
    capsys.readouterr()
    outputs = []
    for salt in ("0000001", "0000002"):
        trace, cvedb, copy = (str(tmp_path / f"{salt}.{name}") for name in ("trace", "cvedb", "obs"))
        child.stage(truth["ingests"][0]["trace"], trace, gen.SALT_MARK, salt)
        child.stage(truth["cvedb"], cvedb, gen.SALT_MARK, salt)
        child.stage(store, copy, gen.SALT_MARK, salt)
        outputs.append([open(path).read() for path in (trace, cvedb, copy)])
        assert main(["synthesize", copy, cvedb, "--security-min", "0.25",
                     "--functionality-min", "0.5"]) == 0
        outputs[-1].append(capsys.readouterr().out)
    assert all(a != b for a, b in zip(outputs[0][:3], outputs[1][:3]))
    assert outputs[0][3] == outputs[1][3]


@pytest.fixture
def policy_case(tmp_path):
    """A tiny ingest-many store and the program's own policy for it."""
    from leastpriv.cli import main

    truth = gen.generate("ingest-many", 5, str(tmp_path), "tiny")
    store = str(tmp_path / "s.obs")
    envs = _ingest_all(truth, store)
    assert oracle.feasible(envs, truth["cvss"], *TARGETS)
    policy = str(tmp_path / "p.policy")
    seccomp, caps = str(tmp_path / "p.json"), str(tmp_path / "p.caps")
    assert main(["synthesize", store, truth["cvedb"], "--security-min", str(TARGETS[0]),
                 "--functionality-min", str(TARGETS[1]), "--out", policy]) == 0
    assert main(["emit", policy, "--seccomp", seccomp, "--caps", caps]) == 0
    return truth, envs, policy, seccomp, caps


def test_oracle_accepts_the_program_policy(policy_case):
    truth, envs, policy, seccomp, caps = policy_case
    allowed = oracle.policy_allowed(policy)
    assert oracle.policy_problems(allowed, envs, truth["cvss"], *TARGETS) == []
    assert oracle.emit_problems(seccomp, caps, allowed) == []


def test_oracle_rejects_a_policy_with_one_extra_event(policy_case):
    truth, envs, policy, _, _ = policy_case
    allowed = oracle.policy_allowed(policy)
    over = next(key for key, cvss in sorted(truth["cvss"].items())
                if cvss > oracle.ceiling(TARGETS[0]))
    for extra in ("SYS:never_observed", over):
        assert oracle.policy_problems(allowed | {extra}, envs, truth["cvss"], *TARGETS)


def test_oracle_rejects_emitted_artifacts_that_differ_from_the_policy(policy_case):
    _, _, policy, seccomp, caps = policy_case
    allowed = oracle.policy_allowed(policy)
    assert oracle.emit_problems(seccomp, caps, allowed | {"SYS:extra"})
    assert oracle.emit_problems(seccomp, caps, allowed | {"CAP:CAP_SYS_ADMIN"})


def test_oracle_rejects_a_flipped_check_row(policy_case, capsys):
    from leastpriv.cli import main

    truth, _, policy, _, _ = policy_case
    capsys.readouterr()
    assert main(["check", policy, truth["cvedb"]]) == 0
    stdout = capsys.readouterr().out
    allowed = oracle.policy_allowed(policy)
    assert oracle.check_problems(stdout, truth["cvedb"], allowed) == []
    flipped = stdout.replace("\ttrue\t", "\tfalse\t", 1)
    assert flipped != stdout
    assert oracle.check_problems(flipped, truth["cvedb"], allowed)


def test_oracle_rejects_a_store_missing_one_event(tmp_path):
    truth = gen.generate("ingest-many", 2, str(tmp_path), "tiny")
    store = str(tmp_path / "s.obs")
    expected = _ingest_all(truth, store)
    assert oracle.store_mismatches(store, expected) == set()
    lines = open(store).read().splitlines()
    dropped = next(i for i, line in enumerate(lines) if line.startswith("SYS "))
    with open(store, "w") as handle:
        handle.write("\n".join(lines[:dropped] + lines[dropped + 1:]) + "\n")
    assert len(oracle.store_mismatches(store, expected)) == 1


SWEEP_HEADER = ("security_min\tfunctionality_min\tstatus\tsize\tsyscalls\tcapabilities"
                "\tachieved_security\tachieved_functionality")


def test_oracle_rejects_infeasible_verdict_mismatch(tmp_path):
    truth = gen.generate("synth-sweep", 1, str(tmp_path), "tiny")
    envs = truth["envs"]
    rows = [f"{s:g}\t{f:g}\tinfeasible\t-\t-\t-\t0.1\t0.1" for s, f in truth["targets"]]
    problems = oracle.sweep_problems("\n".join([SWEEP_HEADER] + rows), truth["targets"], envs,
                                     truth["cvss"], {})
    feasible = [t for t in truth["targets"] if oracle.feasible(envs, truth["cvss"], *t)]
    assert feasible and len(problems) == len(feasible)


def test_oracle_rejects_a_sweep_row_smaller_than_the_synthesized_policy(policy_case):
    truth, envs, policy, _, _ = policy_case
    allowed = oracle.policy_allowed(policy)
    syscalls = sum(1 for key in allowed if key.startswith("SYS:"))
    targets = [list(TARGETS)]

    def row(size):
        return f"{TARGETS[0]:g}\t{TARGETS[1]:g}\tok\t{size}\t{size - (len(allowed) - syscalls)}" \
               f"\t{len(allowed) - syscalls}\t{TARGETS[0]}\t{TARGETS[1]}"

    policies = {TARGETS: allowed}
    assert oracle.sweep_problems(f"{SWEEP_HEADER}\n{row(len(allowed))}", targets, envs,
                                 truth["cvss"], policies) == []
    assert oracle.sweep_problems(f"{SWEEP_HEADER}\n{row(len(allowed) - 1)}", targets, envs,
                                 truth["cvss"], policies)


def test_oracle_rejects_explore_events_outside_the_truth():
    stdout = "explored cpu-shares in [0, 9]: 3 probes, 2 events\nSYS\tread\nSYS\tbogus\n"
    problems, probes = oracle.explore_problems(stdout, {"SYS:read"})
    assert probes == 3 and problems


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "explore", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
