"""Every file the tool reads or writes goes through this module.

The line formats read (traces, CVE databases, observation stores) share
the lazy `decode_lines`, or only its header check `read_header` where a
trace is replayed in one loop, and their errors quote input values
through `quoted`, which names a value by its length when its repr is
long.  `quoted` lives in `events`, which imports no other module, so
event names are quoted the same way.  Plans,
models and policies are YAML read by `load_yaml` and written by
`dump_yaml`; every output file is written through `replacing`, so a
failed write leaves the old file as it was.
"""

from __future__ import annotations

import contextlib
import os
import re
import secrets
import shutil
from typing import Callable, Iterable, Iterator, Optional, TypeVar

import yaml

from .events import MAX_QUOTED, quoted  # noqa: F401  (re-exported for the line-format readers)

T = TypeVar("T")

# libyaml when PyYAML was built with it; both read the same documents.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

# No plan, model or policy nests deeper than about 6 collections or has an
# alias. The bounds, checked on the event stream before composing, keep the
# loaders and every `{doc!r}` error message from recursing, and a few bytes
# of aliases from expanding to any size.
MAX_DEPTH = 32
MAX_ALIAS_NODES = 10_000

# An integer written with more digits than this, in any input, is refused
# before int() meets it, so no interpreter's own limit on int() decides.
MAX_DIGITS = 4300
# An unquoted YAML number that long, which PyYAML would give to int().
_LONG_NUMBER = re.compile(rf"[-+]?[0-9][0-9_:]{{{MAX_DIGITS},}}")


def too_long(digits: str) -> str:
    """The error for an integer of more than MAX_DIGITS digits: its length, not its digits."""
    return f"integer of {len(digits)} digits is too long"


def read_header(lines: Iterator[str], header: str, source: str, error: type[ValueError]) -> None:
    """Take the first of lines and check it: a missing or wrong header raises `error`."""
    first = next(lines, None)
    if first is None:
        raise error(f"{source}: empty input, expected {header!r}")
    first = first.rstrip("\n")
    if first != header:
        raise error(f"{source}: bad header {quoted(first)}, expected {header!r}")


def decode_lines(
    lines: Iterable[str],
    header: str,
    source: str,
    error: type[ValueError],
    decode: Callable[[str], Optional[T]],
) -> Iterator[T]:
    """Check the header, then yield each non-blank line after it, decoded as it is read.

    The first next() checks the header; nothing is kept, so the caller
    decides what to hold.  Line numbers count the header as line 1.
    `decode` gets one line without its newline and returns a value, or
    None for a line that yields nothing.  A missing or wrong header, and
    any ValueError that `decode` raises, become `error` with a `source:`
    or `source:lineno:` prefix.
    """
    iterator = iter(lines)
    read_header(iterator, header, source, error)
    for lineno, raw in enumerate(iterator, start=2):
        line = raw.rstrip("\n")
        if not line or line.isspace():
            continue
        try:
            value = decode(line)
        except ValueError as exc:
            raise error(f"{source}:{lineno}: {exc}") from None
        if value is not None:
            yield value


def load_yaml(source, error: type[ValueError]):
    """The one YAML document in the file at source; malformed or too large raises `error`."""
    with open(source, "r", encoding="utf-8") as handle:
        try:
            if excess := _excess(yaml.parse(handle, Loader=_LOADER)):
                raise error(f"{source}: {excess}")
            handle.seek(0)
            return yaml.load(handle, Loader=_LOADER)
        except (yaml.YAMLError, RecursionError) as exc:
            raise error(f"{source}: {exc}") from None


def _excess(events) -> Optional[str]:
    """Which limit the events break, if any; an alias counts as the node it names."""
    named: dict = {}  # anchor -> (height, nodes) of the node it names
    alias_nodes = 0
    open_nodes = [[None, 0, 0]]  # the document, then [anchor, tallest child, nodes] per collection
    for event in events:
        if isinstance(event, yaml.CollectionStartEvent):
            named[event.anchor] = (MAX_DEPTH, 0)  # an alias inside it is a cycle
            open_nodes.append([event.anchor, 0, 1])
            height = size = 0
        elif isinstance(event, yaml.CollectionEndEvent):
            anchor, tallest, size = open_nodes.pop()
            height, size = named[anchor] = (tallest + 1, size)
        elif isinstance(event, yaml.ScalarEvent):
            if event.implicit[0] and _LONG_NUMBER.fullmatch(event.value):
                return too_long(event.value)
            height, size = named[event.anchor] = (0, 1)
        elif isinstance(event, yaml.AliasEvent):
            height, size = named.get(event.anchor, (0, 1))
            alias_nodes += size
        else:
            continue
        if alias_nodes > MAX_ALIAS_NODES:
            return f"aliases expand to more than {MAX_ALIAS_NODES} nodes"
        if len(open_nodes) - 1 + height > MAX_DEPTH:
            return f"collections nest deeper than {MAX_DEPTH} levels"
        open_nodes[-1][1] = max(open_nodes[-1][1], height)
        open_nodes[-1][2] += size
    return None


def dump_yaml(doc, path) -> None:
    """Write doc as block YAML, keys in insertion order, replacing path."""
    with replacing(path) as handle:
        yaml.dump(doc, handle, Dumper=yaml.SafeDumper, sort_keys=False)


@contextlib.contextmanager
def replacing(path):
    """Write a temporary file that replaces path, keeping open(path, "w")'s mode."""
    temporary = f"{path}.{secrets.token_hex(4)}.tmp"
    handle = open(temporary, "x", encoding="utf-8")
    try:
        with handle:
            if os.path.exists(path):
                shutil.copymode(path, temporary)
            yield handle
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise
