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
names it counted.  `replay_trace(read_trace(path))` replays a trace as
it is read, never holding it whole, so the first fault in file order,
a bad line or a backwards timestamp, is the one raised.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from ._files import decode_lines
from .events import (
    KIND_CAPABILITY,
    KIND_SYSCALL,
    EventSet,
    canonical_capability,
    canonical_syscall,
)

__all__ = [
    "TRACE_HEADER",
    "TraceRecord",
    "TraceFormatError",
    "TraceOrderError",
    "MonitorError",
    "UnknownNamespaceError",
    "NamespaceState",
    "TraceReplayer",
    "parse_trace",
    "read_trace",
    "format_trace",
    "replay_trace",
    "ingest_trace",
    "Observation",
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


@dataclass(frozen=True)
class TraceRecord:
    timestamp_ns: int
    namespace_id: int
    kind: str
    name: str


def _decode_record(line: str) -> TraceRecord:
    parts = line.split()
    if len(parts) != 4:
        raise TraceFormatError(f"expected 4 fields, got {len(parts)}")
    ts_text, ns_text, kind, name = parts
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
        name = canonical_syscall(name)
    elif kind == KIND_CAPABILITY:
        name = canonical_capability(name)
    else:
        raise TraceFormatError(f"unknown kind {kind!r}")
    return TraceRecord(timestamp, namespace, kind, name)


def parse_trace(lines: Iterable[str], source: str = "<memory>") -> list[TraceRecord]:
    return list(decode_lines(lines, TRACE_HEADER, source, TraceFormatError, _decode_record))


def read_trace(path) -> Iterator[TraceRecord]:
    """The file's records, decoded lazily as each line is read; parse_trace is the list form."""
    with open(path, "r", encoding="utf-8") as handle:
        yield from decode_lines(handle, TRACE_HEADER, str(path), TraceFormatError, _decode_record)


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


class TraceReplayer:
    """Incremental replay; feed records one at a time with step()."""

    def __init__(self):
        self.states: dict[int, NamespaceState] = {}
        self._last_timestamp: dict[int, int] = {}
        self._index = 0

    def step(self, record: TraceRecord) -> None:
        index = self._index
        self._index += 1
        last = self._last_timestamp.get(record.namespace_id)
        if last is not None and record.timestamp_ns < last:
            raise TraceOrderError(
                f"record {index}: timestamp {record.timestamp_ns} goes backwards "
                f"in namespace {record.namespace_id}",
                record_index=index,
            )
        self._last_timestamp[record.namespace_id] = record.timestamp_ns

        state = self.states.get(record.namespace_id)
        if state is None:
            if record.kind == KIND_SYSCALL and record.name == _NAMESPACE_MARKER:
                self.states[record.namespace_id] = NamespaceState()
            return

        if record.kind == KIND_SYSCALL:
            if state.seccomp_flag:
                state.syscall_counts[record.name] += 1
            if record.name in _SECCOMP_MARKERS:
                state.seccomp_flag = True
            elif record.name == _CAPABILITY_MARKER:
                state.capability_flag = True
        elif state.capability_flag:
            state.capability_counts[record.name] += 1

    def run(self, records: Iterable[TraceRecord]) -> "TraceReplayer":
        for record in records:
            self.step(record)
        return self


def replay_trace(records: Iterable[TraceRecord]) -> dict[int, NamespaceState]:
    return TraceReplayer().run(records).states


def ingest_trace(records: Iterable[TraceRecord]) -> dict[int, EventSet]:
    """Replay a record stream into namespace_id -> EventSet."""
    return {
        ns: EventSet(state.syscalls, state.capabilities)
        for ns, state in replay_trace(records).items()
    }


@dataclass(frozen=True)
class Observation:
    """One environment's recorded behavior: sorted (name, count) pairs per kind."""

    environment_id: str
    syscall_counts: tuple[tuple[str, int], ...] = ()
    capability_counts: tuple[tuple[str, int], ...] = ()

    @property
    def events(self) -> EventSet:
        return EventSet(
            frozenset(name for name, _ in self.syscall_counts),
            frozenset(name for name, _ in self.capability_counts),
        )


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
