"""Every file the tool reads or writes goes through this module.

Each input file is opened by `reading`, so a byte that is not UTF-8
raises the reader's own error with the file's path first, as every other
fault in it does.  `not_utf8` words that error once, for files and for
a `cmd:` probe's output alike.

The line formats read (traces, CVE databases, observation stores) share
the lazy `decode_lines`, or only its header check `read_header` where a
trace is replayed or a store is loaded in one loop that decodes the
common line inline and sends any other line to its full check.  Their
errors quote input values through `quoted`, which names a value by its
length when its repr is long.
`quoted` lives in `events`, which imports no other module, so event
names are quoted the same way.  Plans, models and policies are YAML
read by `load_yaml` and written by `dump_yaml`, which writes SafeDumper's
bytes, through libyaml's emitter where PyYAML has it, every string in
the document is printable ASCII and every key is short; every output
file is written through `replacing`, so a failed write leaves the old
file as it was.
`packaged` finds the shipped data files (the CVE database, the option
catalog, the model fixtures) and hands each one's path to its reader.
`discard_stdout` sends stdout to devnull once its reader has gone.

`load_yaml` parses a file once: it pulls each event straight from one
loader's `get_event`, and one loop over them checks each against the
depth, alias and long-integer limits and builds the document in the
same pass, as SafeLoader would build it, with no node tree and no
second parse.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import re
import shutil
import sys
from typing import Callable, Iterable, Iterator, Optional, TypeVar

import yaml
from yaml.composer import ComposerError
from yaml.constructor import ConstructorError, SafeConstructor
from yaml.events import (
    AliasEvent,
    DocumentStartEvent,
    MappingEndEvent,
    MappingStartEvent,
    ScalarEvent,
    SequenceEndEvent,
    SequenceStartEvent,
)
from yaml.nodes import ScalarNode
from yaml.resolver import Resolver

from .events import quoted

T = TypeVar("T")

# libyaml when PyYAML was built with it; both read the same documents.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

# No plan, model or policy nests deeper than about 6 collections or has an
# alias. The bounds, checked on each event before it is used, keep every
# reader of a document from recursing, and a few bytes of aliases from
# expanding to any size.
MAX_DEPTH = 32
MAX_ALIAS_NODES = 10_000

# An integer written with more digits than this, in any input, is refused
# before int() meets it, so no interpreter's own limit on int() decides.
MAX_DIGITS = 4300
# A plain or `!!int` YAML scalar that long, which PyYAML would give to int().
_LONG_NUMBER = re.compile(rf"[-+]?[0-9][0-9_:]{{{MAX_DIGITS},}}")
# An integer that int() reads as SafeConstructor does: no `_`, `:`, base or leading 0.
_DECIMAL = re.compile(r"[-+]?(?:0|[1-9][0-9]*)")


# How `_build` resolves and constructs scalars: SafeLoader's resolver and
# its constructors for scalar tags (the collection ones are generators;
# `_build` makes lists and dicts itself).  Both are used only through
# methods that keep no state between calls.
_RESOLVE = Resolver().resolve
_CONSTRUCTOR = SafeConstructor()
_SCALAR_CONSTRUCTORS = {
    tag: construct
    for tag, construct in SafeConstructor.yaml_constructors.items()
    if tag is not None and not inspect.isgeneratorfunction(construct)
}
_STR_TAG, _INT_TAG, _MERGE_TAG, _VALUE_TAG = (
    f"tag:yaml.org,2002:{name}" for name in ("str", "int", "merge", "value")
)
_COLLECTION_TAGS = {
    MappingStartEvent: "tag:yaml.org,2002:map",
    SequenceStartEvent: "tag:yaml.org,2002:seq",
}
# A `<<` key until its mapping ends and merges what it names.
_MERGE = object()


def too_long(digits: str) -> str:
    """The error for an integer of more than MAX_DIGITS digits: its length, not its digits."""
    return f"integer of {len(digits)} digits is too long"


def not_utf8(exc: UnicodeDecodeError) -> str:
    """The error for text that is not UTF-8: the byte, not the decoder's position,
    which counts from the start of the chunk being decoded."""
    return f"not UTF-8 text (byte 0x{exc.object[exc.start]:02x})"


@contextlib.contextmanager
def reading(path, error: type[ValueError]) -> Iterator:
    """Open path as UTF-8 text; a byte that is not UTF-8, met while reading, raises `error`.

    The error is the path, then `not_utf8`'s message.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {not_utf8(exc)}") from None


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
    with reading(source, error) as handle:
        try:
            loader = _LOADER(handle)  # the pure reader checks the first bytes here
            try:
                return _build(iter(loader.get_event, None))
            finally:
                loader.dispose()
        except yaml.YAMLError as exc:
            raise error(f"{source}: {exc}") from None


def _build(events):
    """The document of one YAML event stream, built as SafeLoader builds it.

    Each event is checked against the limits before it is used, so no
    limit depends on the rest of the file: an alias counts as the node it
    names, and an integer too long for int() is refused before it is
    resolved.  The explicit collection tags `!!set`, `!!omap` and
    `!!pairs` are refused, as no reader takes a set or a list of pairs.
    """
    named: dict = {}  # anchor -> (height, nodes, value) of the node it names
    alias_nodes = 0
    resolved: dict = {}  # plain scalar -> its tag
    # the document, then [anchor, tallest child, nodes, items, start mark] per
    # open collection, where only a mapping has a start mark; a mapping's
    # items alternate key and value until it ends
    document = [None, 0, 0, [], None]
    open_nodes = [document]
    top = document
    for event in events:
        kind = type(event)
        if kind is ScalarEvent:
            anchor, value, tag = event.anchor, event.value, event.tag
            if anchor is not None and anchor in named:
                raise _duplicate(event)
            if (len(value) > MAX_DIGITS and (event.implicit[0] or tag == _INT_TAG)
                    and _LONG_NUMBER.fullmatch(value)):
                raise yaml.YAMLError(too_long(value))
            if tag is None or tag == "!":
                tag = resolved.get(value) if event.implicit[0] else _STR_TAG
                if tag is None:
                    tag = resolved[value] = _RESOLVE(ScalarNode, value, event.implicit)
            if tag == _INT_TAG and _DECIMAL.fullmatch(value):
                value = int(value)
            elif tag != _STR_TAG:
                value = _scalar(tag, event, top[4] is not None and not len(top[3]) % 2)
            if anchor is not None:  # no height, so no depth to check
                named[anchor] = (0, 1, value)
            top[2] += 1
            top[3].append(value)
            continue
        if kind is MappingStartEvent or kind is SequenceStartEvent:
            anchor = event.anchor
            if anchor is not None and anchor in named:
                raise _duplicate(event)
            if event.tag not in (None, "!", _COLLECTION_TAGS[kind]):
                raise ConstructorError(None, None, "cannot read a collection tagged "
                                       f"{quoted(event.tag)}", event.start_mark)
            if anchor is not None:
                named[anchor] = (MAX_DEPTH, 0, None)  # an alias inside it is a cycle
            top = [anchor, 0, 1, [], event.start_mark if kind is MappingStartEvent else None]
            open_nodes.append(top)
            if len(open_nodes) - 1 > MAX_DEPTH:
                raise yaml.YAMLError(f"collections nest deeper than {MAX_DEPTH} levels")
            continue
        elif kind is MappingEndEvent or kind is SequenceEndEvent:
            anchor, tallest, size, items, mark = open_nodes.pop()
            value = items if mark is None else _mapping(items, mark)
            height = tallest + 1
            top = open_nodes[-1]
        elif kind is AliasEvent:
            if event.anchor not in named:
                raise ComposerError(None, None, f"found undefined alias {quoted(event.anchor)}",
                                    event.start_mark)
            height, size, value = named[event.anchor]
            if value is _MERGE and not (top[4] is not None and not len(top[3]) % 2):
                raise ConstructorError(None, None, "found a merge key used as a value",
                                       event.start_mark)
            alias_nodes += size
            if alias_nodes > MAX_ALIAS_NODES:
                raise yaml.YAMLError(f"aliases expand to more than {MAX_ALIAS_NODES} nodes")
            anchor = None
        elif kind is DocumentStartEvent and document[3]:
            raise ComposerError("expected a single document in the stream", None,
                                "but found another document", event.start_mark)
        else:
            continue
        if len(open_nodes) - 1 + height > MAX_DEPTH:
            raise yaml.YAMLError(f"collections nest deeper than {MAX_DEPTH} levels")
        if anchor is not None:
            named[anchor] = (height, size, value)
        if top[1] < height:
            top[1] = height
        top[2] += size
        top[3].append(value)
    return document[3][0] if document[3] else None


def _duplicate(event) -> ComposerError:
    return ComposerError(None, None, f"found duplicate anchor {quoted(event.anchor)}",
                         event.start_mark)


def _scalar(tag: str, event, is_key: bool):
    """The value of a scalar event whose resolved tag is not str, as SafeConstructor builds it."""
    if is_key and tag == _MERGE_TAG:
        return _MERGE
    if is_key and tag == _VALUE_TAG:  # flatten_mapping reads a `=` key as a string
        return event.value
    construct = _SCALAR_CONSTRUCTORS.get(tag)
    if construct is None:
        raise ConstructorError(None, None, f"cannot read a scalar tagged {quoted(tag)}",
                               event.start_mark)
    node = ScalarNode(tag, event.value, event.start_mark, event.end_mark, event.style)
    try:
        return construct(_CONSTRUCTOR, node)
    except (ValueError, KeyError, AttributeError):  # as `!!bool maybe` or `!!timestamp x` raise
        raise ConstructorError(None, None, f"cannot read {quoted(event.value)} as {tag}",
                               event.start_mark) from None


def _mapping(items: list, mark) -> dict:
    """The dict of alternating keys and values; `<<` keys merge as SafeConstructor merges.

    Merged mappings come first, in the order their keys appear and a list
    of them last to first, so an earlier one wins; the mapping's own keys
    win over all of them, and a later duplicate key wins.
    """
    keys, values = items[::2], items[1::2]
    mapping: dict = {}
    if _MERGE in keys:
        own_keys, own_values = [], []
        for key, value in zip(keys, values):
            if key is not _MERGE:
                own_keys.append(key)
                own_values.append(value)
                continue
            merged = [value] if isinstance(value, dict) else value
            if not isinstance(merged, list) or not all(isinstance(m, dict) for m in merged):
                raise ConstructorError(None, None, "expected a mapping or list of mappings "
                                       "for merging", mark)
            for source in reversed(merged):
                mapping.update(source)
        keys, values = own_keys, own_values
    try:
        mapping.update(zip(keys, values))
    except TypeError:
        raise ConstructorError(None, None, "found unhashable key", mark) from None
    return mapping


def dump_yaml(doc, path) -> None:
    """Write doc as block YAML, keys in insertion order, replacing path.

    SafeDumper's bytes are the written form.  libyaml's emitter writes the
    same bytes in about a quarter of the time for a document
    `_libyaml_matches` accepts, so it writes those where PyYAML has
    libyaml; SafeDumper writes every other document, and all of them where
    PyYAML has no libyaml.
    """
    libyaml = yaml.__with_libyaml__ and _libyaml_matches(doc)
    dumper = yaml.CSafeDumper if libyaml else yaml.SafeDumper
    with replacing(path) as handle:
        yaml.dump(doc, handle, Dumper=dumper, sort_keys=False)


# SafeDumper writes a `? ` key once the key and its tag (`!!str`, 5
# characters) reach 128 characters; libyaml counts the key alone.
_SIMPLE_KEY = 128 - len("!!str")


def _libyaml_matches(doc) -> bool:
    """Whether doc is a mapping or list whose every str, key or value at
    any depth, is printable ASCII, and whose every key is a str of 1 to
    _SIMPLE_KEY - 1 characters.

    Only there does libyaml write SafeDumper's bytes.  It leaves a
    double-quoted scalar, which only a str with another character gets,
    on one line past column 80 where SafeDumper folds it; it writes an
    empty key, or one of 123 to 128 characters, as a plain key where
    SafeDumper writes `? `; and it ends a document of one scalar without
    SafeDumper's `...` line.
    """
    if not isinstance(doc, (dict, list)):
        return False
    pending = [doc]
    while pending:
        node = pending.pop()
        if isinstance(node, str):
            if not (node.isascii() and node.isprintable()):
                return False
        elif isinstance(node, dict):
            if not all(isinstance(key, str) and 0 < len(key) < _SIMPLE_KEY for key in node):
                return False
            pending.extend(node)
            pending.extend(node.values())
        elif isinstance(node, list):
            pending.extend(node)
    return True


@contextlib.contextmanager
def replacing(path):
    """Write a temporary file that replaces path, keeping open(path, "w")'s mode."""
    temporary = f"{path}.{os.urandom(4).hex()}.tmp"
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


def packaged(name: str, load: Callable[..., T]) -> T:
    """`load(path)` for the package data file `data/<name>`."""
    import importlib.resources  # only a call that reads package data pays for it

    resource = importlib.resources.files("leastpriv").joinpath(f"data/{name}")
    with importlib.resources.as_file(resource) as path:
        return load(path)


def discard_stdout() -> None:
    """Point stdout's descriptor at devnull, so what is still buffered flushes nowhere."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    finally:
        os.close(devnull)
