"""Trace ingestion: replay collector streams into per-namespace event sets.

A trace is the wire format any event collector must produce:

    beacon-trace v1
    <timestamp_ns> <namespace_id> <kind> <name>

with kind SYS or CAP and timestamps non-decreasing within each namespace.

Replay tracks one entry per mount namespace and mirrors how a container
comes up: the runtime first calls unshare to create the namespace, then
installs its syscall filter (prctl or seccomp) and drops capabilities
(capset).  Only behavior after confinement belongs to the application, so
an entry starts recording syscalls once its seccomp flag is set and
capability checks once its capability flag is set.  The flag-setting
record itself arrives before confinement and is not recorded, but any
later occurrence of a marker is an ordinary event like any other.
Records for namespaces that never saw an unshare are dropped.  A second
unshare inside a tracked namespace does not reset the entry.  An entry
keeps one occurrence count per recorded event; its event sets are the
names it counted.

One loop steps the state machine, over a trace's lines as they are read:
each line is checked and decoded and the state machine stepped, so the
trace is never held whole and the first fault in line order, a bad line
or a backwards timestamp, is the one raised.  A line is split once into
its two integers and its raw tail; two bounded memos of the read map
each namespace text to its namespace's one state (last timestamp and
entry) and each tail already decoded to its kind, canonical name and
marker code, so the common record costs one split, one int() and two
lookups, and each distinct tail is canonicalised once per read.
`replay_file` runs it over a file and `replay_trace` over the text of
in-memory records, one trace line per record, so records are checked and
canonicalised exactly as a file's lines are.  `parse_trace` decodes
lines into TraceRecords with the same checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional

from ._files import MAX_DIGITS, decode_lines, read_header, reading, too_long
from .events import (
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
    "TRACE_HEADER",
    "TraceRecord",
    "TraceFormatError",
    "TraceOrderError",
    "UnknownNamespaceError",
    "NamespaceState",
    "parse_trace",
    "format_trace",
    "replay_trace",
    "replay_file",
    "ingest_trace",
    "event_set_for",
]

TRACE_HEADER = "beacon-trace v1"

# A syscall's marker code: unshare makes a namespace's entry, and the others
# arm its flags when they arrive pre-confinement.  Any other event's is 0.
_UNSHARE, _SECCOMP, _CAPSET = 1, 2, 3
_MARKERS = {"unshare": _UNSHARE, "prctl": _SECCOMP, "seccomp": _SECCOMP, "capset": _CAPSET}


class TraceFormatError(ValueError):
    pass


class TraceOrderError(TraceFormatError):
    pass


class UnknownNamespaceError(ValueError):
    pass


class TraceRecord(NamedTuple):
    timestamp_ns: int
    namespace_id: int
    kind: str
    name: str


def _decode_record(line: str) -> tuple[int, int, str, str]:
    """One line's fields, checked, with its name canonicalised."""
    parts = line.split()
    if len(parts) != 4:
        raise TraceFormatError(f"expected 4 fields, got {len(parts)}")
    ts_text, ns_text, kind, name = parts
    if len(line) > MAX_DIGITS:  # no shorter line holds a too-long integer
        for text in (ts_text, ns_text):
            if len(text) > MAX_DIGITS:
                raise TraceFormatError(too_long(text))
    try:
        timestamp = int(ts_text)
        namespace = int(ns_text)
    except ValueError:
        raise TraceFormatError("timestamp and namespace must be integers") from None
    if timestamp < 0:
        raise TraceFormatError(f"negative timestamp {quoted(timestamp)}")
    if namespace < 0:
        raise TraceFormatError(f"negative namespace id {quoted(namespace)}")
    if kind == KIND_SYSCALL:
        name = canonical_syscall(name)
    elif kind == KIND_CAPABILITY:
        name = canonical_capability(name)
    else:
        raise TraceFormatError(f"unknown kind {quoted(kind)}")
    return timestamp, namespace, kind, name


def parse_trace(lines: Iterable[str], source: str = "<memory>") -> list[TraceRecord]:
    rows = decode_lines(lines, TRACE_HEADER, source, TraceFormatError, _decode_record)
    return list(map(TraceRecord._make, rows))


def _trace_lines(records: Iterable[TraceRecord]) -> Iterator[str]:
    """The header, then one line per record, each with its newline."""
    yield TRACE_HEADER + "\n"
    for record in records:
        yield f"{record.timestamp_ns} {record.namespace_id} {record.kind} {record.name}\n"


def format_trace(records: Iterable[TraceRecord]) -> str:
    return "".join(_trace_lines(records))


@dataclass
class NamespaceState:
    seccomp_flag: bool = False
    capability_flag: bool = False
    syscall_counts: Counter = field(default_factory=Counter)
    capability_counts: Counter = field(default_factory=Counter)

    @property
    def syscalls(self) -> frozenset[str]:
        return frozenset(self.syscall_counts)

    @property
    def capabilities(self) -> frozenset[str]:
        return frozenset(self.capability_counts)


def replay_trace(records: Iterable[TraceRecord]) -> dict[int, NamespaceState]:
    """Replay TraceRecords in order into namespace_id -> state, as replay_file replays their lines.

    Each record is written as its own trace line and checked and
    canonicalised as a file's line is, so a bad record raises
    TraceFormatError, and a record whose timestamp is below its
    namespace's last one TraceOrderError, with a `<memory>:lineno:` prefix.
    """
    return _replay_lines(_trace_lines(records), "<memory>")


def replay_file(path) -> dict[int, NamespaceState]:
    """Replay the trace file at path as each line is read."""
    with reading(path, TraceFormatError) as handle:
        return _replay_lines(handle, str(path))


def _replay_lines(lines: Iterable[str], source: str) -> dict[int, NamespaceState]:
    """Check, decode and replay a trace's lines, each ending in its newline, as they are read.

    A line is split once, into its timestamp, its namespace and its raw
    tail (`SYS read\n`).  A tail that an earlier line of this read
    decoded is looked up in a memo of its kind, canonical name and marker
    code, and a namespace text in a memo of its namespace's one state;
    a namespace text the memo lacks is converted with int() there and
    then.  Any other line, blank, new tail or fault, goes to
    `_decode_record`, which checks it in full, so the first fault in line
    order is the one raised.  Both memos hold at most MEMO_NAMES texts.
    A namespace's state is made at its first record, its entry at its
    first `unshare`, and the states are returned in the order of those
    unshares.
    """
    tails: dict[str, tuple[bool, str, int]] = {}  # tail -> (is a syscall, name, marker code)
    # namespace -> [last timestamp, namespace, entry]; the entry is None until
    # the namespace's unshare, then [seccomp flag, capability flag, syscall
    # counts, capability counts]
    states: dict[int, list] = {}
    spaces: dict[str, list] = {}  # namespace text -> its namespace's state
    entries: dict[int, list] = {}  # namespace -> entry, in the order of their unshares
    lines = iter(lines)
    read_header(lines, TRACE_HEADER, source, TraceFormatError)
    for lineno, line in enumerate(lines, start=2):
        try:  # the common record; any other line raises to the full check below
            if len(line) > MAX_DIGITS:
                raise ValueError  # it may hold a too-long integer
            ts_text, ns_text, tail = line.split(None, 2)
            is_syscall, name, marker = tails[tail]
            timestamp = int(ts_text)
            state = spaces.get(ns_text)
            if state is None:
                namespace = int(ns_text)
                if namespace < 0:
                    raise ValueError
            if timestamp < 0:
                raise ValueError
        except (ValueError, KeyError):
            if line.isspace():
                continue
            try:
                timestamp, namespace, kind, name = _decode_record(line)
            except ValueError as exc:
                raise TraceFormatError(f"{source}:{lineno}: {exc}") from None
            is_syscall = kind == KIND_SYSCALL
            marker = _MARKERS.get(name, 0) if is_syscall else 0
            ts_text, ns_text, tail = line.split(None, 2)
            if len(tails) < MEMO_NAMES:
                tails[tail] = is_syscall, name, marker
            state = None
        if state is None:
            state = states.get(namespace)
            if state is None:
                state = states[namespace] = [0, namespace, None]
            if len(spaces) < MEMO_NAMES:
                spaces[ns_text] = state
        if timestamp < state[0]:
            raise TraceOrderError(
                f"{source}:{lineno}: timestamp {quoted(timestamp)} goes backwards "
                f"in namespace {quoted(state[1])}"
            )
        state[0] = timestamp
        entry = state[2]
        if entry is None:
            if marker == _UNSHARE:
                state[2] = entries[state[1]] = [False, False, {}, {}]
        elif is_syscall:
            if entry[0]:
                counts = entry[2]
                counts[name] = counts.get(name, 0) + 1
            if marker == _SECCOMP:
                entry[0] = True
            elif marker == _CAPSET:
                entry[1] = True
        elif entry[1]:
            counts = entry[3]
            counts[name] = counts.get(name, 0) + 1
    return {
        namespace: NamespaceState(
            seccomp, capability, Counter(syscall_counts), Counter(capability_counts)
        )
        for namespace, (seccomp, capability, syscall_counts, capability_counts) in entries.items()
    }


def ingest_trace(records: Iterable[TraceRecord]) -> dict[int, EventSet]:
    """Replay a record stream into namespace_id -> EventSet."""
    return {
        ns: EventSet(state.syscalls, state.capabilities)
        for ns, state in replay_trace(records).items()
    }


def event_set_for(
    environment_id: str,
    states: dict[int, NamespaceState],
    namespace_id: Optional[int] = None,
) -> Observation:
    """Label one namespace's count maps (default: the only one's), unsorted, with its env id."""
    if not states:
        raise UnknownNamespaceError(
            "trace tracks no namespace: it has no `unshare` record, "
            "so replay dropped every record"
        )
    if namespace_id is None and len(states) == 1:
        (namespace_id,) = states
    state = states.get(namespace_id)
    if state is None:
        known = listed(sorted(states), "namespace")
        if namespace_id is None:
            raise UnknownNamespaceError(f"trace tracks {known}; pick one with --namespace")
        raise UnknownNamespaceError(
            f"namespace {quoted(namespace_id)} not present in trace, which tracks {known}"
        )
    return Observation(environment_id, state.syscall_counts, state.capability_counts)
