"""Launch-option syntax catalog: parsing and validation.

A catalog file is line-oriented: ``name<TAB>category<TAB>syntax-expression``
with ``#`` comment lines.  The syntax-expression notation:

    <Bool>                     boolean flag
    <U18>, <I11>               unsigned / signed integer of that bit width (U1..U64, I2..I64)
    (1000, 1000000)            integer range, inclusive low, exclusive high
    <Continuous_range>:(0, U16)  same, U16 denoting 2**16 as the high bound (U1..U64)
    "tcp"                      literal text
    a | b | c                  alternation (all-literal alternation is an enum)
    [ x ]                      optional part
    x y z                      concatenation
    <List>:( x )               comma-separated list of x, at most four elements
    <Signals>                  enum over the standard signal names
    <HVPath>, <CVPath>         enum over configured host / container path pools

All four integer forms parse to one IntRange window.  A compound with one
IntRange part and every other part optional, such as the byte size
``<Uw> [("b" | "k")]``, has that part's window and carries its integer.

Every expression denotes a finite value space.  Validating a raw string
parses it once and yields an OptionValue holding the canonical text
(integers without leading zeros or a negative zero, ``true`` for a bare
flag, optional parts that bind nothing left out) and, for the integer
shapes, the integer.  Environment ids, plan files and model triggers are
built from that text; range triggers and the mutation loop read the
integer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import Iterator, Optional

from ._files import MAX_DIGITS, MAX_QUOTED_TEXT, quoted, too_long

__all__ = [
    "OptionError",
    "CatalogError",
    "DuplicateOptionError",
    "UnknownOptionError",
    "ValueParseError",
    "ValueRangeError",
    "BoolFlag",
    "IntRange",
    "Enum",
    "ListOf",
    "Literal",
    "Compound",
    "CompoundPart",
    "OneOf",
    "OptionSpec",
    "OptionValue",
    "OptionCatalog",
    "parse_syntax",
    "parse_catalog",
    "load_catalog",
    "default_catalog",
    "validate_value",
    "integer_bounds",
]


class OptionError(ValueError):
    """Base class for catalog and value errors."""


class CatalogError(OptionError):
    pass


class DuplicateOptionError(CatalogError):
    pass


class UnknownOptionError(OptionError):
    pass


class ValueParseError(OptionError):
    pass


class ValueRangeError(ValueParseError):
    """Integer parsed but outside the legal bounds."""


# Standard signal names in kernel numbering order (1..31).
SIGNAL_NAMES: tuple[str, ...] = (
    "SIGHUP", "SIGINT", "SIGQUIT", "SIGILL", "SIGTRAP", "SIGABRT",
    "SIGBUS", "SIGFPE", "SIGKILL", "SIGUSR1", "SIGSEGV", "SIGUSR2",
    "SIGPIPE", "SIGALRM", "SIGTERM", "SIGSTKFLT", "SIGCHLD", "SIGCONT",
    "SIGSTOP", "SIGTSTP", "SIGTTIN", "SIGTTOU", "SIGURG", "SIGXCPU",
    "SIGXFSZ", "SIGVTALRM", "SIGPROF", "SIGWINCH", "SIGIO", "SIGPWR",
    "SIGSYS",
)

# The mount paths <HVPath> and <CVPath> accept.  Values are never checked
# against the real filesystem; the pools just have to be stable and
# prefix-free within themselves, so an enum parse is never ambiguous.
HOST_PATH_POOL: tuple[str, ...] = ("/srv/export", "/tmp/scratch", "/var/lib/shared")
CONTAINER_PATH_POOL: tuple[str, ...] = ("/data", "/mnt/ingest", "/var/cache/app")

LIST_MAX = 4

CATEGORIES = frozenset({"bool", "int", "string", "bytes", "list"})

# Brackets in a syntax expression nest at most this deep, the bound
# _files.MAX_DEPTH puts on YAML documents; the parser recurses per level.
MAX_NESTING = 32


class ValueSyntax:
    """Base class for syntax nodes.

    match() is a generator yielding one ``(text, number, bound, end)``
    tuple per parse of ``text`` starting at ``pos``: the canonical text
    of the parsed span, its integer for the shapes integer_bounds()
    gives a window for (else None), whether it bound a non-literal leaf,
    and the end position.  A Compound yields only the first parse to
    each end.  Validation takes the first parse that consumes the whole
    candidate.
    """

    def match(self, text: str, pos: int) -> Iterator[tuple[str, Optional[int], bool, int]]:
        raise NotImplementedError


# An integer written with more digits than MAX_DIGITS matches neither, so
# int() never meets one; _diagnose names it.
_DIGITS = re.compile(rf"\d{{1,{MAX_DIGITS}}}(?!\d)")
_SIGNED = re.compile(rf"-?\d{{1,{MAX_DIGITS}}}(?!\d)")
_TOO_LONG = re.compile(rf"\d{{{MAX_DIGITS + 1},}}")


@dataclass(frozen=True)
class BoolFlag(ValueSyntax):
    def match(self, text: str, pos: int):
        for token in ("true", "false"):
            if text.startswith(token, pos):
                yield token, None, True, pos + len(token)


@dataclass(frozen=True)
class IntRange(ValueSyntax):
    """Integer window: admits lo <= v < hi.

    ``<Uw>`` parses to ``IntRange(0, 2**w, signed=False)``, ``<Iw>`` to
    ``IntRange(-2**(w-1), 2**(w-1))``, and ``(lo, hi)`` or
    ``<Continuous_range>:(lo, Uw)`` to ``IntRange(lo, hi)``.  An
    unsigned window takes no minus sign, so ``-0`` reads as 0 only in a
    signed one.
    """

    lo: int
    hi: int
    signed: bool = True

    def __post_init__(self):
        if self.lo >= self.hi:
            raise CatalogError(f"empty range ({self.lo}, {self.hi})")

    def match(self, text: str, pos: int):
        m = (_SIGNED if self.signed else _DIGITS).match(text, pos)
        if m:
            value = int(m.group())
            if self.lo <= value < self.hi:
                yield str(value), value, True, m.end()


@dataclass(frozen=True)
class Enum(ValueSyntax):
    choices: tuple[str, ...]

    def __post_init__(self):
        if not self.choices:
            raise CatalogError("enum with no choices")
        if len(set(self.choices)) != len(self.choices):
            raise CatalogError(f"enum choices not unique: {self.choices}")
        if any(not c for c in self.choices):
            raise CatalogError("enum with empty choice")

    def match(self, text: str, pos: int):
        # Longest choices first so one choice cannot shadow an extension
        # of another ("SIGTT..." family, for instance).
        for choice in sorted(self.choices, key=len, reverse=True):
            if text.startswith(choice, pos):
                yield choice, None, True, pos + len(choice)


@dataclass(frozen=True)
class Literal(ValueSyntax):
    """Fixed text; only appears inside compounds and alternations."""

    text: str

    def __post_init__(self):
        if not self.text:
            raise CatalogError("empty literal")

    def match(self, text: str, pos: int):
        if text.startswith(self.text, pos):
            yield self.text, None, False, pos + len(self.text)


@dataclass(frozen=True)
class CompoundPart:
    node: ValueSyntax
    optional: bool


@dataclass(frozen=True)
class Compound(ValueSyntax):
    """Concatenation of literals and sub-syntaxes.

    An optional part that binds no non-literal leaf is left out of the
    canonical text when it ends the value, a trailing separator, so
    ``/data:`` against ``<CVPath> [":" ["ro" | "rw"]]`` reads as
    ``/data``.  Followed by any text, it stays in: ``12`` against
    ``["1"] <U8>`` reads as ``12``, not as the value ``2``.

    When one part is an IntRange and every other part is optional, the
    bare integer is itself a value: the compound has that part's window
    and carries its integer (``512m`` against ``<U32> [("b" | "m")]``
    reads as 512).
    """

    parts: tuple[CompoundPart, ...]
    # Index of the part whose integer the compound carries, or None.
    _numbered: Optional[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.parts:
            raise CatalogError("empty compound")
        for part in self.parts:
            if isinstance(part.node, ListOf):
                raise CatalogError("lists cannot nest inside compounds")
        ranges = [i for i, part in enumerate(self.parts) if isinstance(part.node, IntRange)]
        others_optional = all(p.optional for i, p in enumerate(self.parts) if i not in ranges)
        numbered = ranges[0] if len(ranges) == 1 and others_optional else None
        object.__setattr__(self, "_numbered", numbered)

    def match(self, text: str, pos: int):
        # One forward pass.  After each part, keep the first parse a
        # left-to-right backtracking search would meet to each end
        # position: what the later parts match depends only on that
        # position, so a later parse to it can never come first.
        reached: dict[int, tuple[str, Optional[int], bool]] = {pos: ("", None, False)}
        for index, part in enumerate(self.parts):
            numbered = index == self._numbered
            after: dict[int, tuple[str, Optional[int], bool]] = {}
            for at, (done, number, bound) in reached.items():
                for piece, value, binds, nxt in part.node.match(text, at):
                    if nxt not in after:
                        if part.optional and not binds and nxt == len(text):
                            after[nxt] = (done, number, bound)
                        else:
                            number_after = value if numbered else number
                            after[nxt] = (done + piece, number_after, bound or binds)
                if part.optional:
                    after.setdefault(at, (done, number, bound))
            reached = after
        for end, (done, number, bound) in reached.items():
            yield done, number, bound, end


@dataclass(frozen=True)
class ListOf(ValueSyntax):
    """Comma-separated list of an element syntax, at most LIST_MAX
    elements; top level only."""

    element: ValueSyntax

    def __post_init__(self):
        if isinstance(self.element, (ListOf, BoolFlag)):
            raise CatalogError("unsupported list element syntax")


@dataclass(frozen=True)
class OneOf(ValueSyntax):
    """Alternation whose branches are not all literals; always binds a leaf."""

    branches: tuple[ValueSyntax, ...]

    def __post_init__(self):
        if len(self.branches) < 2:
            raise CatalogError("alternation needs at least two branches")
        if any(isinstance(branch, ListOf) for branch in self.branches):
            raise CatalogError("lists cannot nest inside alternations")

    def match(self, text: str, pos: int):
        for branch in self.branches:
            for piece, number, _, end in branch.match(text, pos):
                yield piece, number, True, end


# --- syntax expression parsing -------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<angle><[A-Za-z_][A-Za-z_0-9]*>)
  | (?P<string>"[^"]*")
  | (?P<utoken>U\d+)
  | (?P<int>-?\d+)
  | (?P<punct>[()\[\]|,:])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str


def _tokenize(expression: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(expression):
        m = _TOKEN_RE.match(expression, pos)
        if not m:
            raise CatalogError(f"cannot tokenize syntax at {quoted(expression[pos:])}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        text = m.group()
        if kind == "punct":
            kind = text
        tokens.append(_Token(kind, text))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], expression: str):
        self.tokens = tokens
        self.pos = 0
        self.expression = expression
        self.depth = 0

    def error(self, message: str) -> CatalogError:
        return CatalogError(f"{message} in {quoted(self.expression)}")

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: Optional[str] = None) -> _Token:
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of syntax")
        if kind is not None and token.kind != kind:
            raise self.error(f"expected {kind!r} but found {quoted(token.text)}")
        self.pos += 1
        return token

    def parse(self) -> ValueSyntax:
        node = self.alternation()
        if self.peek() is not None:
            raise self.error(f"trailing tokens after syntax: {quoted(self.peek().text)}")
        return node

    def group(self, close: str) -> ValueSyntax:
        """The alternation inside brackets whose opener was just taken."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise CatalogError(f"brackets nest deeper than {MAX_NESTING} levels")
        inner = self.alternation()
        self.take(close)
        self.depth -= 1
        return inner

    def alternation(self) -> ValueSyntax:
        branches = [self.sequence()]
        while self.peek() is not None and self.peek().kind == "|":
            self.take("|")
            branches.append(self.sequence())
        if len(branches) == 1:
            return branches[0]
        if all(isinstance(b, Literal) for b in branches):
            return Enum(tuple(b.text for b in branches))
        return OneOf(tuple(branches))

    def sequence(self) -> ValueSyntax:
        items: list[CompoundPart] = []
        while True:
            token = self.peek()
            if token is None or token.kind in (")", "]", "|", ","):
                break
            items.append(self.item())
        if not items:
            raise self.error("empty sequence")
        if len(items) == 1 and not items[0].optional:
            return items[0].node
        return Compound(tuple(items))

    def item(self) -> CompoundPart:
        token = self.peek()
        if token.kind == "[":
            self.take("[")
            return CompoundPart(self.group("]"), True)
        return CompoundPart(self.base(), False)

    def base(self) -> ValueSyntax:
        token = self.peek()
        if token.kind == "angle":
            return self.angle()
        if token.kind == "string":
            self.take("string")
            return Literal(token.text[1:-1])
        if token.kind == "(":
            self.take("(")
            # an integer never starts a group, so it starts a range
            if self.peek() is not None and self.peek().kind == "int":
                return self.range_body()
            return self.group(")")
        raise self.error(f"unexpected token {quoted(token.text)}")

    def angle(self) -> ValueSyntax:
        name = self.take("angle").text[1:-1]
        if name == "Bool":
            return BoolFlag()
        if name == "Signals":
            return Enum(SIGNAL_NAMES)
        if name == "HVPath":
            return Enum(HOST_PATH_POOL)
        if name == "CVPath":
            return Enum(CONTAINER_PATH_POOL)
        if name == "List":
            self.take(":")
            self.take("(")
            return ListOf(self.group(")"))
        if name == "Continuous_range":
            self.take(":")
            self.take("(")
            return self.range_body()
        m = re.fullmatch(r"([UI])(\d+)", name)
        if m:
            width = _integer(m.group(2))
            if m.group(1) == "U":
                return IntRange(0, 1 << _unsigned_width(width), signed=False)
            if not 2 <= width <= 64:
                raise CatalogError(f"signed bit width out of range: {width}")
            return IntRange(-(1 << (width - 1)), 1 << (width - 1))
        raise self.error(f"unknown syntax token {quoted('<' + name + '>')}")

    def range_body(self) -> IntRange:
        """``lo, hi)`` or ``lo, Uw)``, after the opening bracket."""
        lo = _integer(self.take("int").text)
        self.take(",")
        hi_token = self.take()
        if hi_token.kind == "utoken":
            hi = 1 << _unsigned_width(_integer(hi_token.text[1:]))
        elif hi_token.kind == "int":
            hi = _integer(hi_token.text)
        else:
            raise self.error(f"bad range bound {quoted(hi_token.text)}")
        self.take(")")
        return IntRange(lo, hi)


def _integer(text: str) -> int:
    digits = text.lstrip("-")
    if len(digits) > MAX_DIGITS:
        raise CatalogError(too_long(digits))
    return int(text)


def _unsigned_width(width: int) -> int:
    """The width of <Uw> or of a (lo, Uw) bound, held to 1..64."""
    if not 1 <= width <= 64:
        raise CatalogError(f"unsigned bit width out of range: {width}")
    return width


def parse_syntax(expression: str) -> ValueSyntax:
    """Parse one syntax expression into its node tree."""
    return _Parser(_tokenize(expression), expression).parse()


# --- catalog ---------------------------------------------------------------


@dataclass(frozen=True)
class OptionSpec:
    name: str
    category: str
    syntax: ValueSyntax
    expression: str


@dataclass(frozen=True)
class OptionValue:
    """An option bound to one value: its canonical text and, for the
    shapes integer_bounds() gives a window for, its integer."""

    spec: OptionSpec
    text: str
    number: Optional[int] = None

    @property
    def name(self) -> str:
        return self.spec.name


class OptionCatalog:
    def __init__(self, specs: dict[str, OptionSpec]):
        """specs: name -> spec, as parse_catalog reads them, names unique."""
        self._specs = specs

    def __getitem__(self, name: str) -> OptionSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise UnknownOptionError(f"unknown option {quoted(name)}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self):
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def names(self) -> tuple[str, ...]:
        return tuple(self._specs)


def parse_catalog(text: str, source: str = "<memory>") -> OptionCatalog:
    specs: dict[str, OptionSpec] = {}
    for lineno, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        fields = raw_line.split("\t")
        if len(fields) != 3:
            raise CatalogError(
                f"{source}:{lineno}: expected name<TAB>category<TAB>syntax, got {quoted(raw_line)}"
            )
        name, category, expression = (f.strip() for f in fields)
        if not name:
            raise CatalogError(f"{source}:{lineno}: empty option name")
        if name in specs:
            raise DuplicateOptionError(f"{source}:{lineno}: option {quoted(name)} declared twice")
        if category not in CATEGORIES:
            raise CatalogError(f"{source}:{lineno}: unknown category {quoted(category)}")
        try:
            syntax = parse_syntax(expression)
        except CatalogError as exc:
            raise CatalogError(f"{source}:{lineno}: option {quoted(name)}: {exc}") from None
        specs[name] = OptionSpec(name, category, syntax, expression)
    return OptionCatalog(specs)


def load_catalog(path) -> OptionCatalog:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_catalog(handle.read(), source=str(path))


@lru_cache(maxsize=1)
def default_catalog() -> OptionCatalog:
    text = resources.files("leastpriv").joinpath("data/options.catalog").read_text("utf-8")
    return parse_catalog(text, source="options.catalog")


# --- value operations ------------------------------------------------------


def validate_value(spec: OptionSpec, raw: str) -> OptionValue:
    """Parse a raw candidate string against the option's syntax."""
    node = spec.syntax
    if isinstance(node, BoolFlag):
        if raw in ("", "true", "false"):
            return OptionValue(spec, raw or "true")
        raise ValueParseError(
            f"option {quoted(spec.name)}: {quoted(raw)} is not a boolean flag value"
        )
    if isinstance(node, ListOf):
        items = raw.split(",")
        if len(items) > LIST_MAX:
            raise ValueParseError(
                f"option {quoted(spec.name)}: {len(items)} elements exceed the cap of {LIST_MAX}"
            )
        text = ",".join(_validate_scalar(spec, node.element, item)[0] for item in items)
        return OptionValue(spec, text)
    return OptionValue(spec, *_validate_scalar(spec, node, raw))


def _validate_scalar(spec: OptionSpec, node: ValueSyntax, raw: str) -> tuple[str, Optional[int]]:
    for text, number, _, end in node.match(raw, 0):
        if end == len(raw):
            return text, number
    raise _diagnose(spec, node, raw)


def _diagnose(spec: OptionSpec, node: ValueSyntax, raw: str) -> OptionError:
    prefix = f"option {quoted(spec.name)}:"
    if digits := _TOO_LONG.search(raw):
        return ValueRangeError(f"{prefix} {too_long(digits.group())}")
    for value, (lo, high) in _windowed_integers(node, raw):
        if not lo <= value <= high:
            return ValueRangeError(f"{prefix} {quoted(value)} outside [{lo}, {high + 1})")
    syntax = quoted(spec.expression, MAX_QUOTED_TEXT)
    return ValueParseError(f"{prefix} {quoted(raw)} does not match {syntax}")


def _windowed_integers(node: ValueSyntax, raw: str) -> Iterator[tuple[int, tuple[int, int]]]:
    """Each integer raw puts where node has an integer window, with that window.

    A Compound's parts match left to right up to the first required one
    that fails; each IntRange part reads the integer at its position.
    """
    if isinstance(node, (IntRange, OneOf)):
        window = integer_bounds(node)
        if window is not None and _SIGNED.fullmatch(raw):
            yield int(raw), window
    elif isinstance(node, Compound):
        pos = 0
        for part in node.parts:
            number = _SIGNED.match(raw, pos)
            if number and isinstance(part.node, IntRange):
                yield int(number.group()), integer_bounds(part.node)
            end = next((end for *_, end in part.node.match(raw, pos)), None)
            if end is not None:
                pos = end
            elif not part.optional:
                return


def integer_bounds(node: ValueSyntax) -> Optional[tuple[int, int]]:
    """Inclusive (low, high) integer window for mutation, if one exists."""
    if isinstance(node, IntRange):
        return node.lo, node.hi - 1
    if isinstance(node, Compound) and node._numbered is not None:
        return integer_bounds(node.parts[node._numbered].node)
    if isinstance(node, OneOf):
        windows = [w for w in map(integer_bounds, node.branches) if w is not None]
        return max(windows, key=lambda w: w[1] - w[0], default=None)
    return None
