"""Seeded input generator for the leastpriv benchmark.

`generate(workload, seed, out_dir)` writes every file one workload reads
(traces, observation stores, the CVE database, the container model) and
returns the ground truth the oracle checks the program's outputs
against.  The same seed gives byte-identical files.  Nothing here
imports leastpriv: the file formats are written out by hand, so the
program under test sees only files.

Shapes are fixed per workload and only the content varies with the
seed, so two seeds cost the program about the same work.  Traces carry
SALT_MARK after each namespace number; the benchmark puts a different
number there for every call (see child.stage), so that no two calls
read the same bytes.
"""

from __future__ import annotations

import math
import os
import random

TRACE_HEADER = "beacon-trace v1"
STORE_HEADER = "beacon-observations v1"
CVEDB_HEADER = "beacon-cvedb v1"
SALT_MARK = "@@SALT@"

# Real capability names, so that `emit` accepts every policy.  Traces
# spell them the way collectors do (lower case, no CAP_ prefix), which
# makes the program canonicalize them.
CAPABILITIES = (
    "CAP_CHOWN", "CAP_DAC_OVERRIDE", "CAP_FOWNER", "CAP_KILL", "CAP_SETGID",
    "CAP_SETUID", "CAP_NET_BIND_SERVICE", "CAP_NET_ADMIN", "CAP_NET_RAW",
    "CAP_IPC_LOCK", "CAP_SYS_CHROOT", "CAP_SYS_PTRACE", "CAP_SYS_ADMIN",
    "CAP_SYS_NICE", "CAP_SYS_RESOURCE", "CAP_MKNOD", "CAP_AUDIT_WRITE",
    "CAP_SETFCAP",
)

# Per-workload shapes.  "tiny" is for the benchmark's own tests.
SIZES = {
    "ingest-many": {
        "full": dict(envs=200, records=1000, always=24, sporadic=160, caps=10),
        "tiny": dict(envs=6, records=200, always=6, sporadic=20, caps=4),
    },
    "trace-heavy": {
        "full": dict(traces=3, records=150000, tracked=8, untracked=3, always=24, sporadic=120,
                     caps=10),
        "tiny": dict(traces=2, records=3000, tracked=3, untracked=2, always=6, sporadic=20, caps=4),
    },
    "synth-sweep": {
        "full": dict(envs=400, always=30, sporadic=250, caps=12),
        "tiny": dict(envs=40, always=6, sporadic=30, caps=4),
    },
    "explore": {
        "full": dict(range_rules=300, domain=4096, calls=8),
        "tiny": dict(range_rules=20, domain=256, calls=2),
    },
}

# Targets of ingest-many's `sweep`: (security_min, functionality_min).
# With the CVE database built below they give all three verdicts:
# feasible; infeasible because the floor needs the over-ceiling events
# of the ~10% of environments that draw risky events; and infeasible
# because an always-class event sits over the ceiling.
SWEEP_TARGETS = ((0.25, 0.8), (0.25, 0.99), (0.4, 0.5))
# Targets of the final `synthesize --out` of every workload.  With a
# functionality floor of 1.0 the policy is the union of what was
# observed, whose size varies little between seeds.
# Targets of synth-sweep's `sweep`.  Ceilings 9.5 and 8.55 admit every
# tier or tier B only; 7.5 admits neither tier; 6.0 excludes always-class
# events.  With 10% risk per tier, about 90% and 81% of environments
# stay coverable under 8.55 and 7.5, far from every floor below.
SYNTH_SWEEP_TARGETS = ((0.05, 0.95), (0.145, 0.8), (0.145, 0.97), (0.25, 0.6), (0.25, 0.95),
                       (0.4, 0.5))
FINAL_TARGETS = {
    "ingest-many": (0.05, 1.0),
    "trace-heavy": (0.05, 1.0),
    "synth-sweep": (0.05, 1.0),
    "explore": (0.25, 1.0),
}

# Plan factors of the explore workload: sixteen single-change factors,
# 120 inferred pairs.  Two interaction rules tie (tty, init) and
# (detach, interactive), so exactly two pairs are not union-exact.
PLAN_FACTORS = (
    "tty", "init", "detach", "interactive", "network=host", "pids-limit=100",
    "memory=512m", "stop-timeout=10", "oom-score-adj=-500", "shm-size=64",
    "W2", "W3", "W5", "W6", "W7", "W8",
)
_INTERACTIONS = (("tty", "init"), ("detach", "interactive"))
# A field that only this workload preset raises to the threshold, used as
# the factor's trigger (see leastpriv.environment.WORKLOAD_PRESETS).
_WORKLOAD_TRIGGERS = {
    "W2": ("update_ops", 1),
    "W3": ("scan_ops", 1),
    "W5": ("delete_ops", 1),
    "W6": ("field_count", 500),
    "W7": ("field_length", 10000),
    "W8": ("thread_count", 500),
}


def _syscall_names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{k:03d}" for k in range(count)]


def _cap_spelling(name: str) -> str:
    return name[len("CAP_"):].lower()


def _linear_popularity(count: int, mean: float) -> list[float]:
    """Inclusion probabilities falling linearly from 2*mean to ~0."""
    return [min(0.97, 2 * mean * (1 - (k + 0.5) / count)) for k in range(count)]


_RISKY_PER_TIER = 8


class _Universe:
    """Event names of one workload and the CVE database over them.

    Always-class events: a few are mapped at CVSS 6.6-7.0, so a security
    floor of 0.35 or more (ceiling 6.5) is infeasible outright.  Normal
    sporadic events are unmapped or mapped at 1.0-6.4.  Two risk tiers of
    sporadic events are mapped at 7.6-8.5 (tier B) and 8.6-9.5 (tier A);
    an environment draws them only with the workload's risk probability,
    which fixes the share of environments a CVSS ceiling can cover.
    """

    def __init__(self, rng: random.Random, always: int, sporadic: int, caps: int,
                 names_rng: random.Random | None = None):
        risky = _RISKY_PER_TIER
        names = _syscall_names("sys", always + sporadic + 2 * risky)
        (names_rng or rng).shuffle(names)
        cap_names = list(CAPABILITIES[:caps])
        rng.shuffle(cap_names)
        self.always = [("SYS", n) for n in names[:always]] + [("CAP", cap_names[0])]
        self.sporadic = [("SYS", n) for n in names[always:always + sporadic]]
        self.sporadic += [("CAP", c) for c in cap_names[1:]]
        rng.shuffle(self.sporadic)
        tail = names[always + sporadic:]
        self.tier_b = [("SYS", n) for n in tail[:risky]]
        self.tier_a = [("SYS", n) for n in tail[risky:]]
        self.rng = rng

    def risky_events(self, probability: float) -> list:
        chosen = []
        for tier in (self.tier_a, self.tier_b):
            if self.rng.random() < probability:
                chosen += self.rng.sample(tier, self.rng.randint(1, 3))
        return chosen

    def environment(self, popularity: list, risk: float, index: int) -> list:
        """The events of the index-th environment.  It always draws
        sporadic event index (mod their count), so that every sporadic
        event is observed somewhere and the union of the observations has
        about the same size for every seed."""
        own = index % len(self.sporadic)
        picked = [e for k, (e, p) in enumerate(zip(self.sporadic, popularity))
                  if k == own or self.rng.random() < p]
        return self.always + picked + self.risky_events(risk)

    def write_cvedb(self, path: str) -> dict:
        return _write_cvedb(path, self.rng, self.always, self.sporadic, self.tier_b, self.tier_a)


def _write_cvedb(path: str, rng: random.Random, always: list, sporadic: list,
                 tier_b: list = (), tier_a: list = ()) -> dict:
    """Write the database described in _Universe; return "KIND:name" -> worst CVSS."""
    entries = []
    for event in rng.sample(always, max(1, len(always) // 8)):
        entries.append((rng.uniform(6.6, 7.0), [event]))
    for event in sporadic:
        if rng.random() < 0.15:
            entries.append((rng.uniform(1.0, 6.4), [event]))
    for tier, lo, hi in ((tier_b, 7.6, 8.5), (tier_a, 8.6, 9.5)):
        for event in tier:
            entries.append((rng.uniform(lo, hi), [event]))
    worst: dict = {}
    lines = [CVEDB_HEADER]
    for number, (cvss, vector) in enumerate(entries, start=1):
        cvss = round(cvss, 1)
        lines.append(f"CVE-2099-{number:05d}\t{cvss:.1f}\t{', '.join(n for _, n in vector)}")
        for kind, name in vector:
            key = f"{kind}:{name}"
            worst[key] = max(worst.get(key, 0.0), cvss)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return worst


def _record_line(ts: int, ns: str, event: tuple) -> str:
    kind, name = event
    return f"{ts} {ns} {kind} {_cap_spelling(name) if kind == 'CAP' else name}"


def _counts(events: list, total: int, rng: random.Random) -> dict:
    """At least one record per event, the rest spread at random."""
    counts = {event: 1 for event in events}
    for event in rng.choices(events, k=max(0, total - len(events))):
        counts[event] += 1
    return counts


def _noise_events(rng: random.Random, k: int) -> list:
    return [("SYS", f"noise{rng.randrange(40):02d}") for _ in range(k)]


def _truth_entry(counts: dict) -> dict:
    return {f"{kind}:{name}": count for (kind, name), count in counts.items()}


def _gen_ingest_many(size: dict, rng: random.Random, out: str) -> dict:
    universe = _Universe(rng, size["always"], size["sporadic"], size["caps"])
    cvedb = os.path.join(out, "cves.cvedb")
    cvss = universe.write_cvedb(cvedb)
    popularity = _linear_popularity(len(universe.sporadic), 0.15)
    envs = []
    for i in range(size["envs"]):
        env_id = f"env-{i:04d}"
        namespace = f"{rng.randrange(1, 1 << 20)}{SALT_MARK}"
        counts = _counts(universe.environment(popularity, 0.05, i), size["records"], rng)
        payload = [e for e, c in counts.items() for _ in range(c)]
        rng.shuffle(payload)
        pre = [("SYS", "unshare")] + _noise_events(rng, 5) + [("SYS", "capset"), ("SYS", "prctl")]
        lines = [TRACE_HEADER]
        ts = rng.randrange(1, 1000)
        for event in pre + payload:
            lines.append(_record_line(ts, namespace, event))
            ts += rng.randrange(1, 2000)
        path = os.path.join(out, f"{env_id}.trace")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        envs.append({"env_id": env_id, "trace": path, "records": len(pre) + len(payload),
                     "events": _truth_entry(counts)})
    return {"ingests": envs, "cvss": cvss, "cvedb": cvedb, "targets": [list(t) for t in SWEEP_TARGETS]}


def _gen_trace_heavy(size: dict, rng: random.Random, out: str) -> dict:
    """Long traces, each interleaving `tracked` confined namespaces with
    `untracked` ones that never call unshare.  Every tracked namespace
    makes a few records before its unshare; those and the untracked
    namespaces' records, about 30% of the trace, are dropped by replay.
    Each trace is ingested for its first tracked namespace, which
    observes the always-class and a slice of the sporadic events of its
    own, so that the union of the store, which the final policy admits,
    has the same size for every seed."""
    universe = _Universe(rng, size["always"], size["sporadic"], size["caps"])
    cvedb = os.path.join(out, "cves.cvedb")
    cvss = universe.write_cvedb(cvedb)
    popularity = _linear_popularity(len(universe.sporadic), 0.15)
    tracked_records = int(size["records"] * 0.7) // size["tracked"]
    untracked_records = int(size["records"] * 0.25) // size["untracked"]
    pre_records = (size["records"] - tracked_records * size["tracked"]
                   - untracked_records * size["untracked"]) // size["tracked"]
    share = len(universe.sporadic) // size["traces"]
    ingests = []
    for t in range(size["traces"]):
        sequences, truth = {}, None
        namespaces = rng.sample(range(1, 1 << 20), size["tracked"] + size["untracked"])
        for k, namespace in enumerate(namespaces):
            if k >= size["tracked"]:
                sequences[namespace] = _noise_events(rng, untracked_records)
                continue
            if k == 0:
                events = universe.always + universe.sporadic[t * share:(t + 1) * share]
            else:
                events = universe.environment(popularity, 0.05, t * size["tracked"] + k)
            counts = _counts(events, tracked_records - 3, rng)
            payload = [e for e, c in counts.items() for _ in range(c)]
            rng.shuffle(payload)
            sequences[namespace] = (_noise_events(rng, pre_records) + [("SYS", "unshare")]
                                    + [("SYS", "capset"), ("SYS", "prctl")] + payload)
            if k == 0:
                truth = (namespace, _truth_entry(counts))
        order = [ns for ns, sequence in sequences.items() for _ in sequence]
        rng.shuffle(order)
        position = dict.fromkeys(sequences, 0)
        lines = [TRACE_HEADER]
        for ts, namespace in enumerate(order, start=1000):
            lines.append(_record_line(ts, f"{namespace}{SALT_MARK}", sequences[namespace][position[namespace]]))
            position[namespace] += 1
        env_id = f"heavy-{t:02d}"
        path = os.path.join(out, f"{env_id}.trace")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        ingests.append({"env_id": env_id, "trace": path, "records": len(order),
                        "namespace": truth[0], "events": truth[1]})
    return {"ingests": ingests, "cvss": cvss, "cvedb": cvedb}


def _gen_synth_sweep(size: dict, rng: random.Random, out: str) -> dict:
    """One large store with skewed event popularity; a tenth of the
    environments draw events of each risk tier.

    Greedy synthesis costs more or less with the store's shape, so the
    shape (which environment observes which event, the counts, the CVSS
    scores) does not depend on the seed, and the seed picks only which
    syscall name plays which part: every seed costs the program the
    same work.
    """
    layout = random.Random(f"synth-sweep-layout/{size['envs']}")
    universe = _Universe(layout, size["always"], size["sporadic"], size["caps"], names_rng=rng)
    cvedb = os.path.join(out, "cves.cvedb")
    cvss = universe.write_cvedb(cvedb)
    popularity = _linear_popularity(len(universe.sporadic), 0.12)
    envs = {}
    for i in range(size["envs"]):
        events = universe.environment(popularity, 0.1, i)
        envs[f"env-{i:04d}"] = {f"{kind}:{name}": layout.randint(1, 50) for kind, name in events}
    store = os.path.join(out, "sweep.obs")
    _write_store(store, "app", envs)
    return {"store": store, "envs": envs, "cvss": cvss, "cvedb": cvedb,
            "targets": [list(t) for t in SYNTH_SWEEP_TARGETS]}


def _write_store(path: str, container: str, envs: dict) -> None:
    lines = [STORE_HEADER, f"CONTAINER {container}"]
    for env_id in sorted(envs):
        lines.append(f"ENV {env_id}")
        events = envs[env_id]
        for key in sorted(k for k in events if k.startswith("SYS:")):
            lines.append(f"SYS {key[4:]} {events[key]}")
        for key in sorted(k for k in events if k.startswith("CAP:")):
            lines.append(f"CAP {key[4:]} {events[key]}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _gen_explore(size: dict, rng: random.Random, out: str) -> dict:
    """A model with range rules on cpu-shares plus one rule per plan factor.

    The range rules are nested thresholds and bands inside [0, domain),
    each adding its own event; `explore` runs with v_max = domain - 1,
    so every rule is reachable and the model's truth for cpu-shares is
    the base plus every range rule's event.  Two interaction rules make
    exactly two plan pairs inexact.
    """
    domain = size["domain"]
    base = sorted(rng.sample(_syscall_names("base", 60), 20))
    lines = ["model_version: 1", "name: benchmodel", "base_events:", "  syscalls:"]
    lines += [f"    - {name}" for name in base]
    lines += ["  capabilities:", "    - CAP_SETUID", "rules:"]
    explore_truth = [f"SYS:{name}" for name in base] + ["CAP:CAP_SETUID"]
    # The rule ranges do not depend on the seed: the explore calls then
    # make the same probes for every seed, so seeds differ in names and
    # rule order only and the probe count does not vary.
    layout = random.Random(f"explore-layout/{domain}")
    ranges = []
    for _ in range(size["range_rules"]):
        lo = layout.randrange(domain)
        wide = layout.random() < 0.5
        ranges.append((lo, domain - 1 if wide else min(domain - 1, lo + layout.randrange(domain // 16, domain // 2))))
    names = rng.sample(range(10 * len(ranges)), len(ranges))
    rules = list(zip(ranges, names))
    rng.shuffle(rules)
    for (lo, hi), number in rules:
        lines += [f"  - when: {{option_value_in_range: {{option: cpu-shares, lo: {lo}, hi: {hi}}}}}",
                  f"    adds: {{syscalls: [shares{number:04d}]}}"]
        explore_truth.append(f"SYS:shares{number:04d}")
    factor_adds = {}
    for k, factor in enumerate(PLAN_FACTORS):
        name = factor.partition("=")[0]
        if name in _WORKLOAD_TRIGGERS:
            field, threshold = _WORKLOAD_TRIGGERS[name]
            trigger = f"{{workload_field_at_least: {{field: {field}, threshold: {threshold}}}}}"
        else:
            trigger = f"{{option_present: {name}}}"
        adds = [f"factor{k:02d}x{j}{rng.randrange(100):02d}" for j in range(2)]
        factor_adds[factor] = adds
        lines += [f"  - when: {trigger}", f"    adds: {{syscalls: [{', '.join(adds)}]}}"]
    lines.append("interaction_rules:")
    for k, (first, second) in enumerate(_INTERACTIONS):
        lines += [f"  - when: [{{option_present: {first}}}, {{option_present: {second}}}]",
                  f"    adds: {{syscalls: [mix{k}]}}"]
    model = os.path.join(out, "model.yaml")
    with open(model, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")

    # The plan's executed environments (baseline and each factor alone)
    # as an observation store, for the final synthesize/emit/check.
    base_events = {f"SYS:{name}": 1 for name in base}
    base_events["CAP:CAP_SETUID"] = 1
    envs = {"baseline": dict(base_events)}
    for k, factor in enumerate(PLAN_FACTORS):
        envs[f"factor-{k:02d}"] = {**base_events, **{f"SYS:{n}": 1 for n in factor_adds[factor]}}
    cvedb = os.path.join(out, "cves.cvedb")
    cvss = _write_cvedb(
        cvedb, rng,
        [tuple(key.split(":", 1)) for key in base_events],
        [("SYS", n) for adds in factor_adds.values() for n in adds],
    )
    store = os.path.join(out, "plan.obs")
    _write_store(store, "benchmodel", envs)
    pairs = math.comb(len(PLAN_FACTORS), 2)
    return {"model": model, "domain": domain, "calls": size["calls"],
            "explore_truth": explore_truth, "factors": list(PLAN_FACTORS),
            "pairs": pairs, "expected_exact": pairs - len(_INTERACTIONS),
            "store": store, "envs": envs, "cvss": cvss, "cvedb": cvedb}


_GENERATORS = {
    "ingest-many": _gen_ingest_many,
    "trace-heavy": _gen_trace_heavy,
    "synth-sweep": _gen_synth_sweep,
    "explore": _gen_explore,
}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int, out_dir: str, scale: str = "full") -> dict:
    """Write the workload's inputs under out_dir; return its ground truth.

    The truth is plain JSON data: event keys are "SYS:name" or
    "CAP:CAP_NAME" in canonical spelling.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    truth = _GENERATORS[workload](SIZES[workload][scale], rng, out_dir)
    truth["workload"] = workload
    truth["final_targets"] = list(FINAL_TARGETS[workload])
    return truth
