"""Event identities and observations, the only data the pipeline's stages share.

Two kinds of security-relevant events exist: system calls and capability
exercises.  Syscall names are lower-case; capability names are upper-case
and carry the CAP_ prefix.  Every module canonicalizes names through the
helpers here so that set algebra downstream never has to worry about case
or prefix variants.  A reader of a trace or a store canonicalises each
distinct text once per read: it looks the text up in a memo of the read
first and canonicalises only a text the memo lacks, keeping the result
while the memo holds fewer than MEMO_NAMES texts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "KIND_SYSCALL",
    "KIND_CAPABILITY",
    "CANONICAL_CAPABILITIES",
    "EventNameError",
    "EventSet",
    "Observation",
    "canonical_syscall",
    "canonical_capability",
    "MEMO_NAMES",
]

KIND_SYSCALL = "SYS"
KIND_CAPABILITY = "CAP"

CAP_PREFIX = "CAP_"

# The 38 capabilities of the kernel generation this tool targets, in
# numbering order (CAP_CHOWN = 0 .. CAP_AUDIT_READ = 37).
CANONICAL_CAPABILITIES: frozenset[str] = frozenset(
    {
        "CAP_CHOWN",
        "CAP_DAC_OVERRIDE",
        "CAP_DAC_READ_SEARCH",
        "CAP_FOWNER",
        "CAP_FSETID",
        "CAP_KILL",
        "CAP_SETGID",
        "CAP_SETUID",
        "CAP_SETPCAP",
        "CAP_LINUX_IMMUTABLE",
        "CAP_NET_BIND_SERVICE",
        "CAP_NET_BROADCAST",
        "CAP_NET_ADMIN",
        "CAP_NET_RAW",
        "CAP_IPC_LOCK",
        "CAP_IPC_OWNER",
        "CAP_SYS_MODULE",
        "CAP_SYS_RAWIO",
        "CAP_SYS_CHROOT",
        "CAP_SYS_PTRACE",
        "CAP_SYS_PACCT",
        "CAP_SYS_ADMIN",
        "CAP_SYS_BOOT",
        "CAP_SYS_NICE",
        "CAP_SYS_RESOURCE",
        "CAP_SYS_TIME",
        "CAP_SYS_TTY_CONFIG",
        "CAP_MKNOD",
        "CAP_LEASE",
        "CAP_AUDIT_WRITE",
        "CAP_AUDIT_CONTROL",
        "CAP_SETFCAP",
        "CAP_MAC_OVERRIDE",
        "CAP_MAC_ADMIN",
        "CAP_SYSLOG",
        "CAP_WAKE_ALARM",
        "CAP_BLOCK_SUSPEND",
        "CAP_AUDIT_READ",
    }
)


class EventNameError(ValueError):
    """Raised for event names or event blocks that cannot be read."""


# An error message shows a value by its length once its repr would take
# more than this many bytes (UTF-8) plus its quotes, so an error stays one
# short line whatever the input holds.
MAX_QUOTED = 40


def quoted(value: object, limit: int = MAX_QUOTED) -> str:
    """repr(value) for an error message, or what value is when that repr,
    quotes aside, takes more than limit bytes in UTF-8.

    An over-long string is named by its length, as `of 5000 characters`;
    any other value by its type and length, as `list of length 2000`, or
    by the length of its repr when it has no len(), as `int of 4300 characters`.
    """
    if isinstance(value, str):
        if len(value) <= limit and len(repr(value).encode()) <= limit + 2:
            return repr(value)
        return f"of {len(value)} characters"
    text = repr(value)
    if len(text.encode()) <= limit + 2:
        return text
    try:
        return f"{type(value).__name__} of length {len(value)}"
    except TypeError:
        return f"{type(value).__name__} of {len(text)} characters"


# A catalog syntax, an environment's text or a file name is quoted whole up
# to this many characters, which the shipped `publish` syntax (90), every
# workload factor's text (at most 115) and an ordinary path fit, and named
# by its length beyond.
MAX_QUOTED_TEXT = 120


def os_error_text(exc: OSError) -> str:
    """str(exc) with each path it names through quoted() up to MAX_QUOTED_TEXT,
    as `[Errno 2] No such file or directory: 'p'`; str(exc) repeats a path whole.
    """
    if exc.filename is None:
        return str(exc)
    text = f"[Errno {exc.errno}] {exc.strerror}: {quoted(exc.filename, MAX_QUOTED_TEXT)}"
    if exc.filename2 is not None:
        text += f" -> {quoted(exc.filename2, MAX_QUOTED_TEXT)}"
    return text


# A list in an error message shows its length and at most MAX_LISTED of its
# items, each through quoted() with LISTED_LIMIT, so the message stays one
# short line however many items the list holds.
MAX_LISTED = 3
LISTED_LIMIT = 20


def listed(values: Sequence[object], noun: str) -> str:
    """How many values there are and the first few, for an error message:
    `1 event: 'read'` or `301 events: 'a', 'b', 'c' and 298 more`.

    noun is singular; an s makes it plural.
    """
    shown = [quoted(value, LISTED_LIMIT) for value in values[:MAX_LISTED]]
    rest = len(values) - len(shown)
    more = f" and {rest} more" if rest else ""
    plural = "" if len(values) == 1 else "s"
    return f"{len(values)} {noun}{plural}: {', '.join(shown)}{more}"


def canonical_syscall(name: str) -> str:
    """Return the canonical (lower-case) form of a syscall name."""
    cleaned = name.strip().lower()
    if cleaned.split() != [cleaned]:  # empty, or whitespace inside
        raise EventNameError(f"invalid syscall name {quoted(name)}")
    return cleaned


def canonical_capability(name: str) -> str:
    """Return the canonical CAP_-prefixed upper-case capability name.

    Accepts both "NET_RAW" and "CAP_NET_RAW" spellings.  Unknown
    capability names are canonicalized but not rejected here; the policy
    emitter enforces membership in CANONICAL_CAPABILITIES.
    """
    cleaned = name.strip().upper()
    if cleaned.split() != [cleaned]:
        raise EventNameError(f"invalid capability name {quoted(name)}")
    if not cleaned.startswith(CAP_PREFIX):
        cleaned = CAP_PREFIX + cleaned
    if cleaned == CAP_PREFIX:
        raise EventNameError(f"invalid capability name {quoted(name)}")
    return cleaned


# Texts one memo of a line reader keeps: trace record tails and namespace
# texts, store names.  They are untrusted, so a memo stops growing here and
# a read with more distinct texts decodes the rest on each use.
MEMO_NAMES = 4096


@dataclass(frozen=True)
class EventSet:
    """Immutable pair of syscall and capability name sets.

    All comparisons and set operations work componentwise.  len() counts
    events of both kinds, which is the cardinality every score and
    threshold in the pipeline is defined over.
    """

    syscalls: frozenset[str] = field(default_factory=frozenset)
    capabilities: frozenset[str] = field(default_factory=frozenset)

    @classmethod
    def empty(cls) -> "EventSet":
        return cls()

    @classmethod
    def of(
        cls,
        syscalls: Iterable[str] = (),
        capabilities: Iterable[str] = (),
    ) -> "EventSet":
        return cls(
            frozenset(canonical_syscall(s) for s in syscalls),
            frozenset(canonical_capability(c) for c in capabilities),
        )

    @classmethod
    def from_events(cls, events: Iterable[tuple[str, str]]) -> "EventSet":
        """Build from (kind, name) pairs as produced by events()."""
        syscalls = []
        capabilities = []
        for kind, name in events:
            if kind == KIND_SYSCALL:
                syscalls.append(name)
            elif kind == KIND_CAPABILITY:
                capabilities.append(name)
            else:
                raise EventNameError(f"unknown event kind {kind!r}")
        return cls.of(syscalls, capabilities)

    @classmethod
    def from_doc(cls, doc) -> "EventSet":
        """Read a YAML event block written by to_doc; None is the empty set."""
        if doc is None:
            return cls()
        if not isinstance(doc, dict) or set(doc) - {"syscalls", "capabilities"}:
            raise EventNameError(
                f"bad event block {quoted(doc)}: expected a mapping with syscalls/capabilities"
            )
        syscalls = doc.get("syscalls") or []
        capabilities = doc.get("capabilities") or []
        for key, names in (("syscalls", syscalls), ("capabilities", capabilities)):
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise EventNameError(
                    f"bad event block: {key} must be a list of names, got {quoted(names)}"
                )
        return cls.of(syscalls, capabilities)

    def to_doc(self) -> dict:
        """YAML event block: sorted name lists, kinds without events left out."""
        doc: dict = {}
        if self.syscalls:
            doc["syscalls"] = sorted(self.syscalls)
        if self.capabilities:
            doc["capabilities"] = sorted(self.capabilities)
        return doc

    def __or__(self, other: "EventSet") -> "EventSet":
        return EventSet(self.syscalls | other.syscalls, self.capabilities | other.capabilities)

    def __sub__(self, other: "EventSet") -> "EventSet":
        return EventSet(self.syscalls - other.syscalls, self.capabilities - other.capabilities)

    def __and__(self, other: "EventSet") -> "EventSet":
        return EventSet(self.syscalls & other.syscalls, self.capabilities & other.capabilities)

    def __xor__(self, other: "EventSet") -> "EventSet":
        return EventSet(self.syscalls ^ other.syscalls, self.capabilities ^ other.capabilities)

    def __le__(self, other: "EventSet") -> bool:
        return self.syscalls <= other.syscalls and self.capabilities <= other.capabilities

    def __len__(self) -> int:
        return len(self.syscalls) + len(self.capabilities)

    def __bool__(self) -> bool:
        return bool(self.syscalls) or bool(self.capabilities)

    def events(self) -> Iterator[tuple[str, str]]:
        """Yield (kind, name) pairs in a stable sorted order."""
        for name in sorted(self.syscalls):
            yield (KIND_SYSCALL, name)
        for name in sorted(self.capabilities):
            yield (KIND_CAPABILITY, name)


@dataclass(frozen=True)
class Observation:
    """One environment's recorded behavior: a name -> count map per kind.

    Trace replay labels one namespace's count maps with it, unsorted, and
    the observation store adds their counts to that environment's.
    """

    environment_id: str
    syscall_counts: Mapping[str, int] = field(default_factory=dict)
    capability_counts: Mapping[str, int] = field(default_factory=dict)
