"""The workloads: the CLI calls of one round, and their checks.

`script(truth, out)` lists one round's calls in the form child.py runs.
Every call reads its own salted copy of each input file, under a path
of its own, so a memo kept across calls, which an operator running one
process per call would never hit, cannot speed up the benchmark either.
`check_round(truth, out, r, calls)` runs the oracle over one round's
logged calls and returns one `Op` per call.

Every feasible policy a round asks for is written by `synthesize --out`
and checked by the oracle, and only those sizes make `policy_events`.
A round ends the way an operator's loop does: `synthesize --out`,
`emit` and `check`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import oracle


@dataclass
class Op:
    command: str
    seconds: float
    ok: bool
    work: int = 0  # records, sweep targets or probes this call completed
    policy_events: int = 0
    problems: tuple = ()


def _paths(work: str, r) -> dict:
    return {name: os.path.join(work, f"round{r}.{name}") for name in ("obs", "policy", "json", "caps")}


def _store(work: str, k: int, r="{round}") -> str:
    """The store as the k-th ingest of round r leaves it."""
    return os.path.join(work, f"round{r}.s{k:03d}.obs")


def _target_policy(work: str, j: int, r="{round}") -> str:
    return os.path.join(work, f"round{r}.t{j}.policy")


def _copy(path: str) -> str:
    """Where a call reads its own salted copy of `path`."""
    head, name = os.path.split(path)
    return os.path.join(head, "{salt}." + name)


def _call(argv: list, reads=()) -> dict:
    """A call that reads its own copy of each path in `reads`."""
    copies = {path: _copy(path) for path in reads}
    return {"argv": [copies.get(arg, arg) for arg in argv],
            "stage": [[path, copy] for path, copy in copies.items()],
            "drop": list(copies.values())}


def _synthesize(store: str, cvedb: str, targets, out: str) -> dict:
    sec, func = targets
    return _call(["synthesize", store, cvedb, "--security-min", str(sec),
                  "--functionality-min", str(func), "--out", out], reads=[store, cvedb])


def _envs(truth: dict) -> dict:
    if "ingests" in truth:
        return {ing["env_id"]: ing["events"] for ing in truth["ingests"]}
    return truth["envs"]


def _synthesized_sweep_targets(truth: dict) -> list:
    """The sweep targets that are feasible: each gets a `synthesize --out`."""
    envs = _envs(truth)
    return [t for t in truth.get("targets", ()) if oracle.feasible(envs, truth["cvss"], *t)]


def _ingest_calls(truth: dict, work: str) -> list[dict]:
    calls = []
    for k, ing in enumerate(truth["ingests"]):
        trace = _copy(ing["trace"])
        stage, drop = [[ing["trace"], trace]], [trace]
        if k:  # the store the previous ingest wrote, under a new path and salt
            stage.append([_store(work, k - 1), _store(work, k)])
            drop.append(_store(work, k - 1))
        argv = ["ingest", trace, "--env-id", ing["env_id"], "--store", _store(work, k),
                "--container", "app"]
        if "namespace" in ing:  # the trace copy's namespace numbers end in the salt
            argv += ["--namespace", f"{ing['namespace']}{{salt}}"]
        calls.append({"argv": argv, "stage": stage, "drop": drop})
    return calls


def script(truth: dict, work: str) -> list[dict]:
    calls = []
    if "ingests" in truth:
        calls += _ingest_calls(truth, work)
        store = _store(work, len(truth["ingests"]) - 1)
    else:
        store = truth["store"]
    if "targets" in truth:
        targets = ",".join(f"{sec}:{func}" for sec, func in truth["targets"])
        calls.append(_call(["sweep", store, truth["cvedb"], "--targets", targets],
                           reads=[store, truth["cvedb"]]))
        calls += [_synthesize(store, truth["cvedb"], t, _target_policy(work, j))
                  for j, t in enumerate(_synthesized_sweep_targets(truth))]
    if truth["workload"] == "explore":
        calls += [
            _call(["explore", truth["model"], "cpu-shares", "--seed", str(seed),
                   "--config", f"v_max={truth['domain'] - 1}", "--config", "p=0.3"],
                  reads=[truth["model"]])
            for seed in range(truth["calls"])
        ]
        plan = os.path.join(work, "round{round}.plan")
        calls.append(_call(["plan", "default", *truth["factors"], "--out", plan]))
        calls.append(_call(["validate-inference", truth["model"], plan], reads=[truth["model"], plan]))
    out = _paths(work, "{round}")
    return calls + [
        _synthesize(store, truth["cvedb"], truth["final_targets"], out["policy"]),
        _call(["emit", out["policy"], "--seccomp", out["json"], "--caps", out["caps"]],
              reads=[out["policy"]]),
        _call(["check", out["policy"], truth["cvedb"]], reads=[out["policy"], truth["cvedb"]]),
    ]


def _check_synthesize(call: dict, policy: str, truth: dict, envs: dict, targets) -> tuple[Op, set]:
    """Check one `synthesize --out` for feasible targets; return its Op and policy."""
    if call["code"]:
        problems, allowed = [f"synthesize exited {call['code']}: {call['err']}"], set()
    else:
        allowed = oracle.policy_allowed(policy)
        problems = oracle.policy_problems(allowed, envs, truth["cvss"], *targets)
    return Op("synthesize", call["seconds"], not problems, policy_events=len(allowed),
              problems=tuple(problems)), allowed


def _check_finish(calls: list, truth: dict, envs: dict, work: str, r: int) -> list[Op]:
    synth, emit, check = calls
    out = _paths(work, r)
    if not oracle.feasible(envs, truth["cvss"], *truth["final_targets"]):
        # every workload's final targets are feasible by construction
        problems = ["final targets are infeasible for this input"]
        return [Op(c["command"], c["seconds"], False, problems=problems) for c in calls]
    op, allowed = _check_synthesize(synth, out["policy"], truth, envs, truth["final_targets"])
    ops = [op]
    emitted = [f"emit exited {emit['code']}"] if emit["code"] else oracle.emit_problems(
        out["json"], out["caps"], allowed)
    ops.append(Op("emit", emit["seconds"], not emitted, problems=tuple(emitted)))
    checked = [f"check exited {check['code']}"] if check["code"] else oracle.check_problems(
        check["out"], truth["cvedb"], allowed)
    ops.append(Op("check", check["seconds"], not checked, problems=tuple(checked)))
    return ops


def _check_ingests(truth: dict, work: str, r: int, calls: list[dict], envs: dict) -> list[Op]:
    ingests = truth["ingests"]
    wrong = oracle.store_mismatches(_store(work, len(ingests) - 1, r), envs)
    ops = []
    for position, (ing, call) in enumerate(zip(ingests, calls), start=1):
        problems = [f"ingest exited {call['code']}: {call['err']}"] if call["code"] else \
            oracle.ingest_line_problems(call["out"], ing["env_id"], ing["events"], position)
        if ing["env_id"] in wrong:
            problems.append(f"store entry of {ing['env_id']} differs from the truth")
        ops.append(Op("ingest", call["seconds"], not problems, work=ing["records"],
                      problems=tuple(problems)))
    return ops


def _check_sweep(truth: dict, work: str, r: int, calls: list[dict], envs: dict) -> list[Op]:
    sweep, synths = calls[0], calls[1:]
    synth_ops, policies = [], {}
    for j, (targets, call) in enumerate(zip(_synthesized_sweep_targets(truth), synths)):
        op, policies[tuple(targets)] = _check_synthesize(
            call, _target_policy(work, j, r), truth, envs, targets)
        synth_ops.append(op)
    problems = oracle.sweep_problems(sweep["out"], truth["targets"], envs, truth["cvss"], policies)
    if sweep["code"]:
        problems.append(f"sweep exited {sweep['code']}: {sweep['err']}")
    return [Op("sweep", sweep["seconds"], not problems, work=len(truth["targets"]),
               problems=tuple(problems))] + synth_ops


def _check_explore(truth: dict, calls: list[dict]) -> list[Op]:
    ops = []
    truth_events = set(truth["explore_truth"])
    for call in calls[:-2]:
        problems, probes = oracle.explore_problems(call["out"], truth_events)
        ops.append(Op("explore", call["seconds"], not problems and call["code"] == 0,
                      work=probes, problems=tuple(problems)))
    plan, validate = calls[-2:]
    expected = f"planned {len(truth['factors'])} factors, {truth['pairs']} inferred pairs"
    problems = [] if plan["out"].startswith(expected) else [f"plan printed {plan['out']!r}"]
    ops.append(Op("plan", plan["seconds"], not problems and plan["code"] == 0,
                  problems=tuple(problems)))
    problems = oracle.validate_problems(validate["out"], truth["pairs"], truth["expected_exact"])
    ops.append(Op("validate-inference", validate["seconds"],
                  not problems and validate["code"] == 0, problems=tuple(problems)))
    return ops


def check_round(truth: dict, work: str, r: int, calls: list[dict]) -> list[Op]:
    """Check one round's logged calls, which follow script()'s order."""
    if len(calls) != len(script(truth, work)):
        raise RuntimeError(f"round {r} logged {len(calls)} calls")
    envs = _envs(truth)
    body, finish = calls[:-3], calls[-3:]
    ops = []
    if "ingests" in truth:
        ops += _check_ingests(truth, work, r, body[:len(truth["ingests"])], envs)
        body = body[len(truth["ingests"]):]
    if "targets" in truth:
        count = 1 + len(_synthesized_sweep_targets(truth))
        ops += _check_sweep(truth, work, r, body[:count], envs)
        body = body[count:]
    if truth["workload"] == "explore":
        ops += _check_explore(truth, body)
    return ops + _check_finish(finish, truth, envs, work, r)
