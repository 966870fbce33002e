"""The reader shared by the line-oriented file formats.

Traces, CVE databases, observation stores and mutation logs all start
with a pinned version line, followed by one record per line.  Which
lines are comments, and what a record means, stays with each format's
own line decoder.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, TypeVar

T = TypeVar("T")


def decode_lines(
    lines: Iterable[str],
    header: str,
    source: str,
    error: type[ValueError],
    decode: Callable[[str], Optional[T]],
) -> list[T]:
    """Check the header, then decode every non-blank line after it.

    Line numbers count the header as line 1.  `decode` gets one line
    without its newline and returns a value, or None for a line that
    yields nothing; the other values come back in order.  A missing or
    wrong header, and any ValueError that `decode` raises, become
    `error` with a `source:` or `source:lineno:` prefix.
    """
    iterator = iter(lines)
    first = next(iterator, None)
    if first is None:
        raise error(f"{source}: empty input, expected {header!r}")
    first = first.rstrip("\n")
    if first != header:
        raise error(f"{source}: bad header {first!r}, expected {header!r}")
    values = []
    for lineno, raw in enumerate(iterator, start=2):
        line = raw.rstrip("\n")
        if not line or line.isspace():
            continue
        try:
            value = decode(line)
        except ValueError as exc:
            raise error(f"{source}:{lineno}: {exc}") from None
        if value is not None:
            values.append(value)
    return values
