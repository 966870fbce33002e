"""Policy scoring and synthesis from per-environment observations.

The two scores pull in opposite directions.  Security is worst-case: one
minus the highest normalized CVSS among allowed events, where an event's
CVSS is the maximum over database entries whose attack vector contains
it and zero when unmapped.  Functionality is the fraction of observed
environments whose full event set the policy covers.

Synthesis turns an operator target pair into a policy deterministically.
The sporadic events are ranked greedily (most environments first) once
per store: the order does not depend on the targets, and a target is a
cut of it.  The security floor becomes a hard CVSS ceiling
c* = 10*(1 - security_min) on admissible events: events observed in
every environment must all sit under the ceiling or synthesis is
infeasible outright, and sporadic events over the ceiling are excluded.
The policy admits the rest of the shortest prefix of the order that
covers functionality_min of the environments; when no prefix does, the
blocking events are the sporadic events over the ceiling.  Feasibility
decisions always compare raw CVSS against the ceiling rather than
recomputing score inequalities, so they cannot disagree with themselves
across call sites; the reported achieved scores are the exact formulas.
"""

from __future__ import annotations

import os
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Union

from ._files import (
    MAX_DIGITS, decode_lines, dump_yaml, load_yaml, packaged, read_header, reading, replacing,
    too_long,
)
from .events import (
    CAP_PREFIX,
    KIND_CAPABILITY,
    KIND_SYSCALL,
    MEMO_NAMES,
    EventSet,
    Observation,
    canonical_capability,
    canonical_syscall,
    listed,
    quoted,
)

__all__ = [
    "CVEDB_HEADER",
    "OBSERVATIONS_HEADER",
    "DecisionError",
    "DbFormatError",
    "StoreError",
    "StoreFormatError",
    "ContainerMismatchError",
    "CveEntry",
    "CveDatabase",
    "parse_cvedb",
    "load_cvedb",
    "default_cvedb",
    "parse_event_list",
    "ObservationStore",
    "load_store",
    "save_store",
    "append_observation",
    "security_score",
    "functionality_score",
    "EventClasses",
    "classify_events",
    "ScoreTargets",
    "Policy",
    "Infeasible",
    "synthesize_policy",
    "MitigationRow",
    "check_mitigation",
    "sweep",
    "POLICY_VERSION",
    "policy_to_doc",
    "policy_from_doc",
    "dump_policy",
    "load_policy",
]

CVEDB_HEADER = "beacon-cvedb v1"
OBSERVATIONS_HEADER = "beacon-observations v1"
POLICY_VERSION = 1

# Guard band for comparing achieved scores with targets; the ceiling
# construction makes achieved security >= the target up to rounding only.
_SCORE_EPS = 1e-9


class DecisionError(ValueError):
    pass


class DbFormatError(DecisionError):
    pass


class StoreError(DecisionError):
    pass


class StoreFormatError(StoreError):
    pass


class ContainerMismatchError(StoreError):
    pass


# -- CVE database ------------------------------------------------------------


@dataclass(frozen=True)
class CveEntry:
    cve_id: str
    cvss: float
    events: EventSet

    def __post_init__(self):
        if not self.cve_id:
            raise DecisionError("entry needs a CVE id")
        if not 0.0 <= self.cvss <= 10.0:
            raise DecisionError(f"{quoted(self.cve_id)}: CVSS {self.cvss} outside [0,10]")
        if not self.events:
            raise DecisionError(
                f"{quoted(self.cve_id)}: attack vector must name at least one event"
            )


class CveDatabase:
    """Entries plus a precomputed event -> worst CVSS index."""

    def __init__(self, entries: Iterable[CveEntry]):
        self.entries = tuple(entries)
        seen: set[str] = set()
        self._worst: dict[tuple[str, str], float] = {}
        for entry in self.entries:
            if entry.cve_id in seen:
                raise DecisionError(f"duplicate database entry {quoted(entry.cve_id)}")
            seen.add(entry.cve_id)
            for event in entry.events.events():
                if entry.cvss > self._worst.get(event, -1.0):
                    self._worst[event] = entry.cvss

    def max_cvss(self, kind: str, name: str) -> float:
        """Worst CVSS across entries whose vector contains the event; 0 unmapped."""
        return self._worst.get((kind, name), 0.0)

    def __len__(self) -> int:
        return len(self.entries)


def _parse_event_name(name: str) -> tuple[str, str]:
    if name.upper().startswith(CAP_PREFIX):
        return KIND_CAPABILITY, canonical_capability(name)
    return KIND_SYSCALL, canonical_syscall(name)


def parse_event_list(names: Iterable[str]) -> EventSet:
    """Names to an event set; the CAP_ prefix selects the capability kind."""
    return EventSet.from_events(_parse_event_name(name) for name in names)


def _decode_cve(line: str) -> Optional[CveEntry]:
    if line.lstrip().startswith("#"):
        return None
    parts = line.split("\t")
    if len(parts) != 3:
        raise DbFormatError(f"expected `cve_id<TAB>cvss<TAB>events`, got {len(parts)} fields")
    cve_id, cvss_text, events_text = (part.strip() for part in parts)
    try:
        cvss = float(cvss_text)
    except ValueError:
        raise DbFormatError(f"bad CVSS value {quoted(cvss_text)}") from None
    names = [piece.strip() for piece in events_text.split(",") if piece.strip()]
    return CveEntry(cve_id, cvss, parse_event_list(names))


def parse_cvedb(lines: Iterable[str], source: str = "<memory>") -> CveDatabase:
    # decoded before the try: a bad line's error already has its prefix
    entries = tuple(decode_lines(lines, CVEDB_HEADER, source, DbFormatError, _decode_cve))
    try:
        return CveDatabase(entries)
    except DecisionError as exc:
        raise DbFormatError(f"{source}: {exc}") from None


def load_cvedb(path) -> CveDatabase:
    with reading(path, DbFormatError) as handle:
        return parse_cvedb(handle, source=str(path))


def default_cvedb() -> CveDatabase:
    """The shipped attack-vector database."""
    return packaged("cves.cvedb", load_cvedb)


# -- observation store -------------------------------------------------------


def _check_name(label: str, name: str) -> None:
    """A container name or environment id: non-empty, no whitespace."""
    if name.split() != [name]:  # empty, or whitespace inside
        raise StoreError(f"bad {label} {quoted(name)}")


class ObservationStore:
    """Per-environment syscall and capability count maps for one container.

    The count maps are the only copy: events are their names, zero counts
    included, and recording an id again adds to them.  The environments
    should include the baseline: a policy must let the container start.
    """

    def __init__(self, container: str = "container"):
        _check_name("container name", container)
        self.container = container
        self._counts: dict[str, tuple[dict[str, int], dict[str, int]]] = {}

    def _add(self, environment_id: str, syscall_counts=(), capability_counts=()):
        """Add (name, count) pairs per kind to one environment's counts; return its two maps."""
        _check_name("environment id", environment_id)
        maps = self._counts.setdefault(environment_id, ({}, {}))
        for counts, pairs in zip(maps, (syscall_counts, capability_counts)):
            for name, count in pairs:
                counts[name] = counts.get(name, 0) + count
        return maps

    def record(self, environment_id: str, events: EventSet) -> None:
        """Count one occurrence of each event."""
        self._add(environment_id, ((name, 1) for name in events.syscalls),
                  ((name, 1) for name in events.capabilities))

    def record_observation(self, observation: Observation) -> None:
        self._add(observation.environment_id, observation.syscall_counts.items(),
                  observation.capability_counts.items())

    def environments(self) -> tuple[str, ...]:
        return tuple(sorted(self._counts))

    def events_for(self, environment_id: str) -> EventSet:
        syscalls, capabilities = self._maps(environment_id)
        return EventSet(frozenset(syscalls), frozenset(capabilities))

    def counts_for(self, environment_id: str) -> tuple[Counter, Counter]:
        syscalls, capabilities = self._maps(environment_id)
        return Counter(syscalls), Counter(capabilities)

    def _maps(self, environment_id: str) -> tuple[dict[str, int], dict[str, int]]:
        try:
            return self._counts[environment_id]
        except KeyError:
            raise StoreError(f"unknown environment {quoted(environment_id)}") from None

    def union_events(self) -> EventSet:
        return EventSet.from_events(self.event_frequencies())

    def event_frequencies(self) -> dict[tuple[str, str], int]:
        """Event -> number of environments it appeared in."""
        frequencies = {}
        for kind, index in ((KIND_SYSCALL, 0), (KIND_CAPABILITY, 1)):
            names = Counter(chain.from_iterable(counts[index] for counts in self._counts.values()))
            frequencies.update(((kind, name), count) for name, count in names.items())
        return frequencies

    def __len__(self) -> int:
        return len(self._counts)


def _block_text(environment_id: str, syscall_counts, capability_counts) -> str:
    """One ENV block as a store holds it: each kind's names sorted here, so maps come unsorted."""
    lines = [f"ENV {environment_id}\n"]
    for tag, counts in (("SYS", syscall_counts), ("CAP", capability_counts)):
        lines.extend(f"{tag} {name} {counts[name]}\n" for name in sorted(counts))
    return "".join(lines)


def _store_text(container: str, body: str) -> str:
    return f"{OBSERVATIONS_HEADER}\nCONTAINER {container}\n{body}"


def _blocks(store: ObservationStore) -> str:
    """A store's canonical ENV blocks: one per environment, in id order."""
    return "".join(_block_text(e, *store._counts[e]) for e in store.environments())


def save_store(store: ObservationStore, path) -> None:
    """Write the canonical form: one block per environment, in id order."""
    with replacing(path) as handle:
        handle.write(_store_text(store.container, _blocks(store)))


# The form ingest writes after a store's CONTAINER line, which load_store
# reads to exactly its counts: ENV, SYS and CAP lines whose names hold no
# whitespace (\s is exactly str.isspace, what load_store splits on) and no
# ASCII letter outside canonical case, and whose counts have no leading
# zeros and at most 18 digits.  _OFF_BODY finds the first line outside it.
# A flat lookahead keeps sre's stack constant, and starting at the newline
# before each line, not ^ under re.M, lets sre jump from newline to newline.
_COUNT = r"(?:0|[1-9][0-9]{0,17})"
_OFF_BODY = re.compile(
    rf"\n(?!ENV \S+\n|SYS [^\sA-Z]+ {_COUNT}\n|CAP CAP_[^\sa-z]+ {_COUNT}\n|\Z)"
)
_ENV_ID = re.compile(r"\nENV (\S+)")  # the id of an ENV line in that form


def _carried(path) -> tuple[str, str, Optional[ObservationStore]]:
    """(container, the text after its CONTAINER line, None) of the store at path, read once.

    The head is read by load_store's rules: the header line, lines that are
    blank or start with `#`, then a CONTAINER line of two tokens.  Any other
    head, text that is not UTF-8 or a block line off the form goes through
    load_store first, so its error is ingest's, and the store it accepts
    comes last instead of None.
    """
    try:
        with reading(path, StoreFormatError) as handle:
            text = handle.read()
    except StoreFormatError:  # not UTF-8: load_store may report an earlier line first
        text = ""
    text += "" if text.endswith("\n") else "\n"  # so the new block starts a line
    at, parts = len(OBSERVATIONS_HEADER) + 1, []
    if text.startswith(OBSERVATIONS_HEADER + "\n"):
        while at < len(text) and not parts:
            line = text[at:text.index("\n", at) + 1]
            at += len(line)
            if not line.startswith("#"):
                parts = line.split()
    off = (len(parts) != 2 or parts[0] != "CONTAINER"
           or text[at:] and not text.startswith("ENV ", at) or _OFF_BODY.search(text, at - 1))
    loaded = load_store(path) if off else None  # raises unless only block lines are off
    return parts[1], text[at:], loaded


def append_observation(path, observation: Observation, container: Optional[str] = None) -> int:
    """Append one environment's block to the store at path; return its environment count.

    A missing store is created for `container` (default "container"); an
    existing one must be for `container` when it is given.  A store is
    written once, as `_carried` read it: the header, its CONTAINER line,
    everything after that line as read, then the new ENV block, so an id
    seen before gets a second block, which load_store merges.  Comment and
    blank lines before CONTAINER are dropped, and newlines are written as
    `\n`.
    """
    name, blocks, loaded = "container" if container is None else container, "", None
    if os.path.exists(path):
        name, blocks, loaded = _carried(path)
    _check_name("container name", name)
    if container is not None and container != name:
        raise ContainerMismatchError(
            f"store {path} is for container {quoted(name)}, not {quoted(container)}"
        )
    environment_id = observation.environment_id
    _check_name("environment id", environment_id)
    block = _block_text(environment_id, observation.syscall_counts, observation.capability_counts)
    text = _store_text(name, blocks + block)
    with replacing(path) as handle:
        handle.write(text)
    if loaded is None:  # every block in the written form, so every ENV line too
        return len(set(_ENV_ID.findall(text)))
    return len({*loaded.environments(), environment_id})


def load_store(path) -> ObservationStore:
    """Read a store, merging its ENV blocks: any order, an id repeated adds its counts.

    One loop over the file's lines, in the shape of monitor's trace replay:
    a count line is cut at its last space, and when the head, `TAG name`,
    is one the memo holds, only the count is decoded inline.  Any other
    line, blank, comment, CONTAINER or ENV, new head or fault, goes to
    `decode`, which checks it in full and, while the memo holds fewer
    than MEMO_NAMES heads, keeps the head of a count line it passed.  A
    bad line is reported as decode_lines reports it, `path:lineno:` first.
    These rules are the one definition of a valid store: ingest reads a
    store's head by them and sends it here whenever it cannot tell.
    """
    store: Optional[ObservationStore] = None
    current: dict[str, dict[str, int]] = {}  # tag -> the store's counts for the ENV being read
    # `TAG name` of a checked count line -> (TAG, canonical name), this read.  A
    # head it holds ends in a name, one space before the count text, so a line
    # with that head whose tail int() reads splits into exactly three tokens.
    heads: dict[str, tuple[str, str]] = {}

    def decode(line: str) -> Optional[tuple[dict[str, int], str, int]]:
        """The full check of one line: the (counts, name, count) it adds, or None."""
        nonlocal store
        if line.startswith("#"):
            return None
        parts = line.split()
        tag = parts[0]
        if tag == "CONTAINER":
            if len(parts) != 2 or store is not None:
                raise StoreFormatError("bad CONTAINER line")
            store = ObservationStore(parts[1])
        elif tag == "ENV":
            if store is None or len(parts) != 2:
                raise StoreFormatError("bad ENV line")
            current.update(zip(("SYS", "CAP"), store._add(parts[1])))
        elif tag in ("SYS", "CAP"):
            if not current or len(parts) != 3:
                raise StoreFormatError(f"stray or malformed {tag} line")
            if len(parts[2]) > MAX_DIGITS:
                raise StoreFormatError(f"bad count: {too_long(parts[2])}")
            try:
                count = int(parts[2])
            except ValueError:
                raise StoreFormatError(f"bad count {quoted(parts[2])}") from None
            if count < 0:
                raise StoreFormatError(f"negative count {quoted(count)}")
            name = (canonical_syscall if tag == "SYS" else canonical_capability)(parts[1])
            if len(heads) < MEMO_NAMES:
                heads[f"{tag} {parts[1]}"] = tag, name
            return current[tag], name, count
        else:
            raise StoreFormatError(f"unknown tag {quoted(tag)}")
        return None

    with reading(path, StoreFormatError) as handle:
        read_header(handle, OBSERVATIONS_HEADER, str(path), StoreFormatError)
        for lineno, line in enumerate(handle, start=2):
            try:  # the common line; any other raises to the full check below
                if len(line) > MAX_DIGITS:
                    raise ValueError  # it may hold a too-long count
                head, _, text = line.rpartition(" ")
                tag, name = heads[head]
                counts, count = current[tag], int(text)
                if count < 0:
                    raise ValueError
            except (ValueError, KeyError):
                if line.isspace():
                    continue
                try:
                    added = decode(line.rstrip("\n"))
                except ValueError as exc:
                    raise StoreFormatError(f"{path}:{lineno}: {exc}") from None
                if added is None:
                    continue
                counts, name, count = added
            counts[name] = counts.get(name, 0) + count
    if store is None:
        raise StoreFormatError(f"{path}: missing CONTAINER line")
    return store


# -- scores ------------------------------------------------------------------


def security_score(allowed: EventSet, database: CveDatabase) -> float:
    """1 - worst normalized CVSS over allowed events; empty set scores 1.0."""
    worst = 0.0
    for event in allowed.events():
        cvss = database.max_cvss(*event)
        if cvss > worst:
            worst = cvss
    return 1.0 - worst / 10.0


def functionality_score(allowed: EventSet, store: ObservationStore) -> float:
    """Fraction of observed environments fully covered by the allowed set."""
    if not store:
        raise StoreError("functionality is undefined over an empty store")
    covered = sum(
        1 for environment_id in store.environments()
        if store.events_for(environment_id) <= allowed
    )
    return covered / len(store)


# -- classification and synthesis --------------------------------------------


@dataclass(frozen=True)
class EventClasses:
    """Observation partition: in every environment, in some, in none."""

    always: EventSet
    sporadic: EventSet


def classify_events(store: ObservationStore) -> EventClasses:
    """An event is always-class when every environment records it."""
    return _classes(store.event_frequencies(), len(store))


def _classes(frequencies: dict[tuple[str, str], int], environments: int) -> EventClasses:
    always = EventSet.from_events(event for event, n in frequencies.items() if n == environments)
    sporadic = EventSet.from_events(event for event, n in frequencies.items() if n < environments)
    return EventClasses(always, sporadic)


@dataclass(frozen=True)
class ScoreTargets:
    security_min: float
    functionality_min: float

    def __post_init__(self):
        for label, value in (
            ("security_min", self.security_min),
            ("functionality_min", self.functionality_min),
        ):
            if not 0.0 <= value <= 1.0:
                raise DecisionError(f"{label} must be in [0,1], got {value}")

    @property
    def cvss_ceiling(self) -> float:
        return 10.0 * (1.0 - self.security_min)


@dataclass(frozen=True)
class Policy:
    container: str
    allowed: EventSet
    achieved_security: float
    achieved_functionality: float
    always: EventSet
    sporadic_included: EventSet
    sporadic_excluded: EventSet
    targets: Optional[ScoreTargets] = None


@dataclass(frozen=True)
class Infeasible:
    """No policy meets both targets; names what stands in the way.

    best_security and best_functionality are the scores of the maximal
    admissible candidate (always-class plus every sporadic event under
    the ceiling): the policy the procedure would have produced with the
    failing constraint ignored.
    """

    reason: str
    blocking_events: tuple[tuple[str, str], ...]
    best_security: float
    best_functionality: float


def synthesize_policy(
    store: ObservationStore,
    database: CveDatabase,
    targets: ScoreTargets,
) -> Union[Policy, Infeasible]:
    """Deterministic target-driven synthesis; see the module docstring.

    Greedy order over sporadic events, whatever the targets: descending
    environment frequency, then ascending CVSS, then (kind, name).  The
    policy admits the events under the ceiling in the shortest prefix
    whose coverage meets functionality_min.  An unreachable target is
    blocked by exactly the sporadic events over the ceiling: each leaves
    an environment uncovered.
    """
    return _synthesizer(store, database)(targets)


def sweep(
    store: ObservationStore,
    database: CveDatabase,
    target_list: Iterable[ScoreTargets],
) -> list[tuple[ScoreTargets, Union[Policy, Infeasible]]]:
    """Synthesize once per target pair, in the given order.

    The store is ranked once: each target is a cut of the same greedy order.
    """
    cut = _synthesizer(store, database)
    return [(targets, cut(targets)) for targets in target_list]


def _synthesizer(store: ObservationStore, database: CveDatabase):
    """Rank the store once; return the cut that synthesizes for one target pair."""
    frequencies = store.event_frequencies()
    classes = _classes(frequencies, len(store))
    cvss = {event: database.max_cvss(*event) for event in frequencies}
    order = sorted(classes.sporadic.events(), key=lambda e: (-frequencies[e], cvss[e], e))
    # Per kind: name -> bit, 1 << its place in the order for a sporadic
    # event and 0 for an always-class one.  An environment is the sum of its
    # events' bits; its covering step, the rank of its last event, is the
    # sum's bit_length().
    bits: dict[str, dict[str, int]] = {KIND_SYSCALL: {}, KIND_CAPABILITY: {}}
    for kind, name in classes.always.events():
        bits[kind][name] = 0
    for place, (kind, name) in enumerate(order):
        bits[kind][name] = 1 << place
    environments = [
        sum(map(bits[KIND_SYSCALL].__getitem__, syscalls))
        + sum(map(bits[KIND_CAPABILITY].__getitem__, capabilities))
        for syscalls, capabilities in store._counts.values()
    ]

    def cut(targets: ScoreTargets) -> Union[Policy, Infeasible]:
        if not store:
            raise StoreError("cannot synthesize from an empty store")
        ceiling, fraction = targets.cvss_ceiling, targets.functionality_min
        # an environment that holds no sporadic event over the ceiling is
        # covered once the cut reaches its step
        over = sum(1 << place for place, event in enumerate(order) if cvss[event] > ceiling)
        steps = sorted(env.bit_length() for env in environments if not env & over)
        needed = next(n for n in range(len(store) + 1) if n / len(store) >= fraction)
        blocking = [event for event in classes.always.events() if cvss[event] > ceiling]
        if blocking:
            reason = f"always-required events exceed the CVSS ceiling {ceiling:g}"
        elif needed > len(steps):
            blocking = sorted(event for event in order if cvss[event] > ceiling)
            reason = (f"functionality target {fraction:g} unreachable: "
                      f"required events sit above the CVSS ceiling {ceiling:g}")
        else:
            stop = steps[needed - 1] if needed else 0
            included = EventSet.from_events(e for e in order[:stop] if cvss[e] <= ceiling)
            allowed = classes.always | included
            achieved_security = security_score(allowed, database)
            # ceiling admission implies the security target holds up to rounding
            if achieved_security + _SCORE_EPS < targets.security_min:
                raise DecisionError(
                    f"synthesized policy scores security {achieved_security}, "
                    f"below the target {targets.security_min}"
                )
            return Policy(
                container=store.container,
                allowed=allowed,
                achieved_security=achieved_security,
                achieved_functionality=sum(step <= stop for step in steps) / len(store),
                always=classes.always,
                sporadic_included=included,
                # excluded covers both over-ceiling events and admissible
                # ones the functionality target never required
                sporadic_excluded=classes.sporadic - included,
                targets=targets,
            )
        names = ", ".join(name for _, name in blocking)
        # the best pair is that of the maximal admissible candidate
        candidate = classes.always | EventSet.from_events(e for e in order if cvss[e] <= ceiling)
        return Infeasible(f"{reason}: {names}", tuple(blocking),
                          security_score(candidate, database), len(steps) / len(store))

    return cut


# -- mitigation report -------------------------------------------------------


@dataclass(frozen=True)
class MitigationRow:
    cve_id: str
    cvss: float
    blocked: bool
    missing: tuple[tuple[str, str], ...]


def check_mitigation(allowed: EventSet, database: CveDatabase) -> tuple[MitigationRow, ...]:
    """Per database entry: is at least one attack-vector event denied?

    A single missing event breaks the exploit chain, so a dropped
    capability blocks a CVE even when all its syscalls stay allowed.
    """
    rows = []
    for entry in database.entries:
        missing = tuple((entry.events - allowed).events())
        rows.append(MitigationRow(entry.cve_id, entry.cvss, bool(missing), missing))
    return tuple(rows)


# -- policy files ------------------------------------------------------------


def policy_to_doc(policy: Policy) -> dict:
    doc = {
        "policy_version": POLICY_VERSION,
        "container": policy.container,
        "achieved_security": policy.achieved_security,
        "achieved_functionality": policy.achieved_functionality,
        "allowed": policy.allowed.to_doc(),
        "classes": {
            "always": policy.always.to_doc(),
            "sporadic_included": policy.sporadic_included.to_doc(),
            "sporadic_excluded": policy.sporadic_excluded.to_doc(),
        },
    }
    if policy.targets is not None:
        doc["targets"] = {
            "security_min": policy.targets.security_min,
            "functionality_min": policy.targets.functionality_min,
        }
    return doc


def policy_from_doc(doc) -> Policy:
    if not isinstance(doc, dict):
        raise DecisionError("policy document must be a mapping")
    if doc.get("policy_version") != POLICY_VERSION:
        raise DecisionError(
            f"unsupported policy_version {quoted(doc.get('policy_version'))}, "
            f"expected {POLICY_VERSION}"
        )
    container = doc.get("container")
    if not isinstance(container, str) or not container:
        raise DecisionError("policy needs a container name")
    classes = doc.get("classes") or {}
    if not isinstance(classes, dict):
        raise DecisionError(f"classes must be a mapping, got {quoted(classes)}")
    allowed = EventSet.from_doc(doc.get("allowed"))
    always, included, excluded = (
        EventSet.from_doc(classes.get(key))
        for key in ("always", "sporadic_included", "sporadic_excluded")
    )
    stray = allowed ^ (always | included)
    if stray:
        raise DecisionError(
            "allowed must equal always + sporadic_included; they differ in "
            + listed([name for _, name in stray.events()], "event")
        )
    shared = (always & included) | (always & excluded) | (included & excluded)
    if shared:
        raise DecisionError(
            "event classes overlap in "
            + listed([name for _, name in shared.events()], "event")
        )
    targets_doc = doc.get("targets")
    targets = None
    if targets_doc is not None:
        if not isinstance(targets_doc, dict):
            raise DecisionError(f"bad targets block {quoted(targets_doc)}")
        targets = ScoreTargets(
            _unit_score(targets_doc, "security_min"), _unit_score(targets_doc, "functionality_min")
        )
    security = _unit_score(doc, "achieved_security")
    functionality = _unit_score(doc, "achieved_functionality")
    if targets is not None and (
        security + _SCORE_EPS < targets.security_min
        or functionality + _SCORE_EPS < targets.functionality_min
    ):
        raise DecisionError(
            f"achieved security {security} and functionality {functionality} miss the "
            f"policy's own targets {targets.security_min} and {targets.functionality_min}"
        )
    return Policy(
        container=container,
        allowed=allowed,
        achieved_security=security,
        achieved_functionality=functionality,
        always=always,
        sporadic_included=included,
        sporadic_excluded=excluded,
        targets=targets,
    )


def _unit_score(doc: dict, key: str) -> float:
    """A policy score field: a YAML number in [0, 1]; a bool is not a number."""
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= 1:
        raise DecisionError(f"{key} must be a number in [0, 1], got {quoted(value)}")
    return float(value)


def dump_policy(policy: Policy, path) -> None:
    dump_yaml(policy_to_doc(policy), path)


def load_policy(path) -> Policy:
    return policy_from_doc(load_yaml(path, DecisionError))
