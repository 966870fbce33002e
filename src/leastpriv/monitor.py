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

`read_trace` decodes each line into a plain (timestamp, namespace, kind,
name) row as it is read, canonicalising each distinct name once per read
through a bounded memo (`events.remember`).  `replay_trace` runs the
state machine inline over such rows or over TraceRecords, which are the
same tuples with field names.  So `replay_trace(read_trace(path))`
replays a trace as it is read, never holding it whole, and the first
fault in file order, a bad line or a backwards timestamp, is the one
raised.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, NamedTuple, Optional

from ._files import MAX_DIGITS, decode_lines, too_long
from .events import (
    KIND_CAPABILITY,
    KIND_SYSCALL,
    EventSet,
    Observation,
    canonical_capability,
    canonical_syscall,
    remember,
)

__all__ = [
    "TRACE_HEADER",
    "TraceRecord",
    "TraceFormatError",
    "TraceOrderError",
    "MonitorError",
    "UnknownNamespaceError",
    "NamespaceState",
    "parse_trace",
    "read_trace",
    "format_trace",
    "replay_trace",
    "ingest_trace",
    "event_set_for",
]

TRACE_HEADER = "beacon-trace v1"

# Syscalls that arm an entry's flags when they arrive pre-confinement.
_SECCOMP_MARKERS = frozenset({"prctl", "seccomp"})
_CAPABILITY_MARKER = "capset"
_NAMESPACE_MARKER = "unshare"


class TraceFormatError(ValueError):
    pass


class TraceOrderError(TraceFormatError):
    def __init__(self, message: str, record_index: int):
        super().__init__(message)
        self.record_index = record_index


class MonitorError(ValueError):
    pass


class UnknownNamespaceError(MonitorError):
    pass


class TraceRecord(NamedTuple):
    timestamp_ns: int
    namespace_id: int
    kind: str
    name: str


_Row = tuple[int, int, str, str]  # a TraceRecord's fields, as read_trace yields them


def _decode_record(syscalls: dict[str, str], capabilities: dict[str, str], line: str) -> _Row:
    """One line's row; its name is looked up in the read's memo of its kind first."""
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
        raise TraceFormatError(f"negative timestamp {timestamp}")
    if namespace < 0:
        raise TraceFormatError(f"negative namespace id {namespace}")
    if kind == KIND_SYSCALL:
        name = syscalls.get(name) or remember(syscalls, canonical_syscall, name)
    elif kind == KIND_CAPABILITY:
        name = capabilities.get(name) or remember(capabilities, canonical_capability, name)
    else:
        raise TraceFormatError(f"unknown kind {kind!r}")
    return timestamp, namespace, kind, name


def _rows(lines: Iterable[str], source: str) -> Iterator[_Row]:
    """The rows of lines, decoded lazily, with a fresh name memo per kind for this read."""
    decode = partial(_decode_record, {}, {})
    return decode_lines(lines, TRACE_HEADER, source, TraceFormatError, decode)


def parse_trace(lines: Iterable[str], source: str = "<memory>") -> list[TraceRecord]:
    return list(map(TraceRecord._make, _rows(lines, source)))


def read_trace(path) -> Iterator[_Row]:
    """The file's rows, decoded lazily as each line is read; parse_trace is the list form."""
    with open(path, "r", encoding="utf-8") as handle:
        yield from _rows(handle, str(path))


def format_trace(records: Iterable[TraceRecord]) -> str:
    lines = [TRACE_HEADER]
    for record in records:
        lines.append(
            f"{record.timestamp_ns} {record.namespace_id} {record.kind} {record.name}"
        )
    return "\n".join(lines) + "\n"


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


def replay_trace(records: Iterable[_Row]) -> dict[int, NamespaceState]:
    """Replay TraceRecords or read_trace rows, in order, into namespace_id -> state.

    A record whose timestamp is below its namespace's last one raises
    TraceOrderError with its index among the records.
    """
    states: dict[int, NamespaceState] = {}
    last_timestamp: dict[int, int] = {}
    for index, (timestamp, namespace, kind, name) in enumerate(records):
        if timestamp < last_timestamp.get(namespace, timestamp):
            raise TraceOrderError(
                f"record {index}: timestamp {timestamp} goes backwards in namespace {namespace}",
                record_index=index,
            )
        last_timestamp[namespace] = timestamp
        state = states.get(namespace)
        if state is None:
            if kind == KIND_SYSCALL and name == _NAMESPACE_MARKER:
                states[namespace] = NamespaceState()
        elif kind == KIND_SYSCALL:
            if state.seccomp_flag:
                state.syscall_counts[name] += 1
            if name in _SECCOMP_MARKERS:
                state.seccomp_flag = True
            elif name == _CAPABILITY_MARKER:
                state.capability_flag = True
        elif state.capability_flag:
            state.capability_counts[name] += 1
    return states


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
    """Label one namespace's replayed state (by default the only one) with its environment."""
    if not states:
        raise UnknownNamespaceError(
            "trace tracks no namespace: it has no `unshare` record, "
            "so replay dropped every record"
        )
    if namespace_id is None and len(states) == 1:
        (namespace_id,) = states
    state = states.get(namespace_id)
    if state is None:
        known = ", ".join(str(ns) for ns in sorted(states))
        if namespace_id is None:
            raise UnknownNamespaceError(
                f"trace tracks {len(states)} namespaces ({known}); pick one with --namespace"
            )
        raise UnknownNamespaceError(
            f"namespace {namespace_id} not present in trace (tracked: {known})"
        )
    return Observation(
        environment_id,
        tuple(sorted(state.syscall_counts.items())),
        tuple(sorted(state.capability_counts.items())),
    )
