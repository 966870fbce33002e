"""Output oracle for the leastpriv benchmark.

Every check here recomputes the expected answer from the generator's
ground truth and the CVE database text, and compares it with what the
program printed or wrote.  Nothing here imports or calls leastpriv, so
a defect in the program cannot hide itself by also breaking its check.

Event keys are "SYS:name" or "CAP:CAP_NAME" in canonical spelling, the
same keys the generator's truth uses.  Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import re

import yaml


def _kind_key(name: str) -> str:
    if name.upper().startswith("CAP_"):
        return f"CAP:{name.upper()}"
    return f"SYS:{name.lower()}"


def parse_cvedb(path: str) -> list[tuple[str, float, list[str]]]:
    """(cve_id, cvss, vector keys) in file order."""
    entries = []
    with open(path, encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            if not line.strip() or line.startswith("#"):
                continue
            cve_id, cvss, names = line.rstrip("\n").split("\t")
            vector = {_kind_key(n.strip()) for n in names.split(",") if n.strip()}
            # syscalls before capabilities, each sorted, as `check` lists them
            entries.append((cve_id.strip(), float(cvss), sorted(vector, key=lambda k: (k[:4] != "SYS:", k))))
    return entries


def parse_store(path: str) -> dict[str, dict[str, int]]:
    envs: dict[str, dict[str, int]] = {}
    current = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            parts = line.split()
            if not parts or parts[0] in ("CONTAINER", "beacon-observations"):
                continue
            if parts[0] == "ENV":
                current = envs.setdefault(parts[1], {})
            else:
                current[f"{parts[0]}:{parts[1]}"] = int(parts[2])
    return envs


def store_mismatches(path: str, expected: dict[str, dict[str, int]]) -> set[str]:
    """Environment ids whose stored events or counts differ from the truth."""
    found = parse_store(path)
    return {env for env in expected.keys() | found.keys() if found.get(env) != expected.get(env)}


def ingest_line_problems(stdout: str, env_id: str, events: dict, position: int) -> list[str]:
    match = re.match(
        r"recorded (\S+) \(namespace \d+\): (\d+) syscalls, (\d+) capabilities -> .* \((\d+) environments\)$",
        stdout.strip(),
    )
    if not match:
        return [f"ingest {env_id}: unexpected output {stdout!r}"]
    syscalls = sum(1 for key in events if key.startswith("SYS:"))
    expected = (env_id, syscalls, len(events) - syscalls, position)
    got = (match[1], int(match[2]), int(match[3]), int(match[4]))
    return [] if got == expected else [f"ingest {env_id}: printed {got}, expected {expected}"]


def ceiling(security_min: float) -> float:
    return 10.0 * (1.0 - security_min)


def always_class(envs: dict) -> set[str]:
    sets = [set(events) for events in envs.values()]
    return set.intersection(*sets) if sets else set()


def coverage(envs: dict, allowed: set[str]) -> float:
    return sum(1 for events in envs.values() if allowed.issuperset(events)) / len(envs)


def feasible(envs: dict, cvss: dict, security_min: float, functionality_min: float) -> bool:
    """Direct feasibility: the always-class fits under the ceiling, and
    enough environments have every event under it."""
    top = ceiling(security_min)
    if any(cvss.get(key, 0.0) > top for key in always_class(envs)):
        return False
    coverable = sum(
        1 for events in envs.values() if all(cvss.get(key, 0.0) <= top for key in events)
    )
    return coverable / len(envs) >= functionality_min


def policy_allowed(path: str) -> set[str]:
    with open(path, encoding="utf-8") as handle:
        allowed = yaml.safe_load(handle)["allowed"] or {}
    return {f"SYS:{n}" for n in allowed.get("syscalls", ())} | {
        f"CAP:{n}" for n in allowed.get("capabilities", ())
    }


def policy_problems(allowed: set[str], envs: dict, cvss: dict, security_min: float,
                    functionality_min: float) -> list[str]:
    problems = []
    missing = always_class(envs) - allowed
    if missing:
        problems.append(f"policy lacks always-class events {sorted(missing)[:5]}")
    observed = set().union(*envs.values())
    if not allowed <= observed:
        problems.append(f"policy admits unobserved events {sorted(allowed - observed)[:5]}")
    over = [key for key in allowed if cvss.get(key, 0.0) > ceiling(security_min)]
    if over:
        problems.append(f"policy admits events over the CVSS ceiling {sorted(over)[:5]}")
    if coverage(envs, allowed) < functionality_min:
        problems.append(f"policy covers {coverage(envs, allowed)} < {functionality_min}")
    return problems


def sweep_problems(stdout: str, targets: list, envs: dict, cvss: dict,
                   policies: dict[tuple, set[str]]) -> list[str]:
    """Check each sweep row.  `policies` maps each feasible target to the
    policy `synthesize --out` wrote for it, checked on its own; an `ok`
    row must give that policy's sizes."""
    rows = [line.split("\t") for line in stdout.strip().splitlines()[1:]]
    if len(rows) != len(targets):
        return [f"sweep printed {len(rows)} rows for {len(targets)} targets"]
    problems = []
    for row, (sec, func) in zip(rows, targets):
        label = f"sweep {sec}:{func}"
        if (float(row[0]), float(row[1])) != (sec, func):
            problems.append(f"{label}: row is for {row[0]}:{row[1]}")
            continue
        expected = "ok" if feasible(envs, cvss, sec, func) else "infeasible"
        if row[2] != expected:
            problems.append(f"{label}: status {row[2]}, expected {expected}")
        elif expected == "ok":
            allowed = policies[(sec, func)]
            syscalls = sum(1 for key in allowed if key.startswith("SYS:"))
            if (int(row[3]), int(row[4]), int(row[5])) != (len(allowed), syscalls, len(allowed) - syscalls):
                problems.append(f"{label}: sizes {row[3:6]} differ from the synthesized policy")
            if float(row[7]) < func or float(row[6]) + 1e-9 < sec:
                problems.append(f"{label}: achieved scores {row[6:8]} miss the targets")
    return problems


def emit_problems(seccomp_path: str, caps_path: str, allowed: set[str]) -> list[str]:
    with open(seccomp_path, encoding="utf-8") as handle:
        doc = json.load(handle)
    names = set()
    for rule in doc["syscalls"]:
        if rule["action"] == "SCMP_ACT_ALLOW":
            names.update(rule["names"])
    problems = []
    if doc["defaultAction"] != "SCMP_ACT_ERRNO":
        problems.append(f"seccomp default action {doc['defaultAction']}")
    if names != {key[4:] for key in allowed if key.startswith("SYS:")}:
        problems.append("seccomp allowlist differs from the policy")
    with open(caps_path, encoding="utf-8") as handle:
        flags = handle.read().split()
    expected = ["--cap-drop=ALL"] + sorted(
        f"--cap-add={key[len('CAP:CAP_'):]}" for key in allowed if key.startswith("CAP:")
    )
    if flags != expected:
        problems.append("capability flags differ from the policy")
    return problems


def check_problems(stdout: str, cvedb_path: str, allowed: set[str]) -> list[str]:
    entries = parse_cvedb(cvedb_path)
    expected = ["cve_id\tcvss\tblocked\tmissing"]
    for cve_id, cvss, vector in entries:
        missing = [key.split(":", 1)[1] for key in vector if key not in allowed]
        expected.append(f"{cve_id}\t{cvss:g}\t{str(bool(missing)).lower()}\t{','.join(missing)}")
    blocked = sum(1 for row in expected[1:] if "\ttrue\t" in row)
    expected.append(f"blocked {blocked}/{len(entries)}")
    got = stdout.strip("\n").split("\n")
    bad = [g for g, e in zip(got, expected) if g != e]
    if len(got) != len(expected) or bad:
        return [f"check rows differ from recomputation, first: {(bad or got)[:1]}"]
    return []


def explore_problems(stdout: str, truth: set[str]) -> tuple[list[str], int]:
    """Check discovered events against the model truth; return probes run."""
    lines = stdout.strip().splitlines()
    match = re.match(r"explored \S+ in \[\d+, \d+\]: (\d+) probes, (\d+) events$", lines[0] if lines else "")
    if not match:
        return [f"explore: unexpected output {lines[:1]}"], 0
    events = {line.replace("\t", ":", 1) for line in lines[1:] if not line.startswith("warning:")}
    problems = []
    if len(events) != int(match[2]):
        problems.append(f"explore: {len(events)} event rows, header says {match[2]}")
    if not events <= truth:
        problems.append(f"explore: events outside the model truth {sorted(events - truth)[:5]}")
    return problems, int(match[1])


def validate_problems(stdout: str, pairs: int, expected_exact: int) -> list[str]:
    match = re.match(r"pairs (\d+) exact (\d+) rate", stdout.strip())
    if not match or (int(match[1]), int(match[2])) != (pairs, expected_exact):
        return [f"validate-inference: {stdout.splitlines()[:1]}, expected pairs {pairs} exact {expected_exact}"]
    return []
