"""The line-oriented formats reject bad lines with their own error class.

Traces, CVE databases and observation stores share one reader; option
catalogs have no header but split lines the same way, at "\n" only.
Whatever lines follow a valid header, a read either succeeds or raises
the format's error class with a `source:` prefix, never a bare
ValueError from deeper down.  A valid store survives save and load with
its counts, and its events are exactly the names it counts.  Ingesting
into any store either fails with load_store's error and leaves the file
alone, or leaves the old text, head comments dropped, with the trace's
block after it.  Its scan of a store's blocks agrees with the ^-anchored
scan it replaced, and on blocks the scan passes, its ids with str.split().
load_store, which decodes the common count line inline, reads every
store as a plain per-line decoder does: the same counts in the same
order, or the same error.
"""

import io
import os
import re
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from leastpriv import decision
from leastpriv.cli import main
from leastpriv._files import MAX_DIGITS, decode_lines, too_long
from leastpriv.decision import (
    CVEDB_HEADER,
    OBSERVATIONS_HEADER,
    DbFormatError,
    ObservationStore,
    StoreFormatError,
    load_store,
    parse_cvedb,
    save_store,
)
from leastpriv.events import (
    MEMO_NAMES, EventSet, canonical_capability, canonical_syscall, quoted,
)
from leastpriv.monitor import TRACE_HEADER, TraceFormatError, parse_trace
from leastpriv.options import CatalogError, parse_catalog

# Fragments of valid and nearly valid records of every format, so that
# generated lines reach the decoders' deeper checks and not only the
# field-count check.
_TOKENS = (
    "0", "1", "-3", "7.5", "nan", "99999999999999999999999", "x",
    "SYS", "CAP", "ENV", "CONTAINER", "read", "READ", "cap_", "net_raw",
    "CAP_NET_RAW", "CVE-1", "socket,", "socket, cap_", "#", "# config",
    "# warning:", "v_min=abc", "v_max=5", "seed=1", "",
)

lines = st.lists(
    st.one_of(
        st.text(max_size=30),
        st.builds(
            lambda parts, sep: sep.join(parts),
            st.lists(st.sampled_from(_TOKENS), max_size=5),
            st.sampled_from((" ", "\t")),
        ),
    ),
    max_size=6,
)

def parses_or_rejects(read, error, source):
    """What read() returns, or None when it raised `error` with one `source:` prefix."""
    try:
        return read()
    except error as exc:
        assert str(exc).startswith(f"{source}:"), str(exc)
        assert str(exc).count(f"{source}:") == 1, str(exc)


def parses_or_rejects_file(lines, read, error):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "input")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        parses_or_rejects(lambda: read(path), error, path)


@settings(max_examples=200, deadline=None)
@given(body=lines)
@example(body=["1 1 CAP cap_"])
@example(body=["-1 1 SYS read"])
def test_trace_lines(body):
    parses_or_rejects(
        lambda: parse_trace([TRACE_HEADER, *body], source="t.trace"),
        TraceFormatError,
        "t.trace",
    )


@settings(max_examples=200, deadline=None)
@given(body=lines)
@example(body=["CVE-1\t7.5\tsocket, cap_"])
@example(body=["CVE-1\t11\tread"])
def test_cvedb_lines(body):
    parses_or_rejects(
        lambda: parse_cvedb([CVEDB_HEADER, *body], source="c.cvedb"),
        DbFormatError,
        "c.cvedb",
    )


@settings(max_examples=200, deadline=None)
@given(body=lines)
@example(body=["CAP cap_ 1"])
def test_store_lines(body):
    parses_or_rejects_file(
        [OBSERVATIONS_HEADER, "CONTAINER app", "ENV e1", *body], load_store, StoreFormatError
    )


@settings(max_examples=200, deadline=None)
@given(body=lines)
@example(body=["# note\x1cevil\tbool\t<Bool>"])
@example(body=["# note\u2028evil\tbool\t<Bool>"])
@example(body=["# note\x0cevil\tbool\t<Bool>"])
@example(body=["a\tbool\t<Bool>", "# note", "", "b\tint\t<U8>"])
@example(body=["a\tbool\t<Bool>", "a\tbool\t<Bool>"])
@example(body=[f'a\tstring\t{"(" * 400}"x"{")" * 400}'])
def test_catalog_lines(body):
    """Each "\n"-separated line that is not blank or a comment defines one option."""
    text = "\n".join(body) + "\n"
    catalog = parses_or_rejects(lambda: parse_catalog(text, "c.catalog"), CatalogError, "c.catalog")
    if catalog is not None:
        rows = [line for line in text.split("\n") if line.strip() and line.strip()[0] != "#"]
        assert catalog.names() == tuple(line.split("\t")[0].strip() for line in rows)


@pytest.mark.parametrize("argv,error", [
    (["ingest", "empty", "--env-id", "e1", "--store", "new.obs"],
     f"TraceFormatError: empty: empty input, expected {TRACE_HEADER!r}"),
    (["synthesize", "empty", "cvedb", "--security-min", "0", "--functionality-min", "1"],
     f"StoreFormatError: empty: empty input, expected {OBSERVATIONS_HEADER!r}"),
    (["synthesize", "store", "empty", "--security-min", "0", "--functionality-min", "1"],
     f"DbFormatError: empty: empty input, expected {CVEDB_HEADER!r}"),
    (["synthesize", "header", "cvedb", "--security-min", "0", "--functionality-min", "1"],
     "StoreFormatError: header: missing CONTAINER line"),
    (["score", "no-env", "cvedb", "--policy", "read"],
     "StoreError: functionality is undefined over an empty store"),
    # a file that is not UTF-8 is named by its path and the byte, as the
    # decoder's position counts from the chunk it was decoding
    (["ingest", "trace", "--env-id", "e2", "--store", "latin-1"],
     "StoreFormatError: latin-1: not UTF-8 text (byte 0xe9)"),
    (["synthesize", "latin-1", "cvedb", "--security-min", "0", "--functionality-min", "1"],
     "StoreFormatError: latin-1: not UTF-8 text (byte 0xe9)"),
    (["ingest", "latin-1.trace", "--env-id", "e2", "--store", "store"],
     "TraceFormatError: latin-1.trace: not UTF-8 text (byte 0xe9)"),
    (["synthesize", "store", "latin-1.cvedb", "--security-min", "0", "--functionality-min", "1"],
     "DbFormatError: latin-1.cvedb: not UTF-8 text (byte 0xe9)"),
    (["emit", "latin-1.policy", "--seccomp", "seccomp.json"],
     "DecisionError: latin-1.policy: not UTF-8 text (byte 0xe9)"),
    (["check", "latin-1.policy", "cvedb"],
     "DecisionError: latin-1.policy: not UTF-8 text (byte 0xe9)"),
])
def test_an_empty_file_is_one_error_line(tmp_path, monkeypatch, capsys, argv, error):
    monkeypatch.chdir(tmp_path)
    files = {"empty": "", "store": f"{OBSERVATIONS_HEADER}\nCONTAINER app\nENV e1\nSYS read 1\n",
             "cvedb": f"{CVEDB_HEADER}\n", "header": f"{OBSERVATIONS_HEADER}\n",
             "no-env": f"{OBSERVATIONS_HEADER}\nCONTAINER app\n",
             "latin-1": f"{OBSERVATIONS_HEADER}\nCONTAINER app\nENV caf\xe9\nSYS read 1\n",
             "trace": f"{TRACE_HEADER}\n1 1 SYS unshare\n2 1 SYS read\n",
             "latin-1.trace": f"{TRACE_HEADER}\n1 1 SYS unshare\n2 1 SYS r\xe9ad\n",
             "latin-1.cvedb": f"{CVEDB_HEADER}\nCVE-1\t5\tr\xe9ad\n",
             "latin-1.policy": "policy_version: 1\ncontainer: caf\xe9\n"}
    for name, text in files.items():
        encoding = "latin-1" if name.startswith("latin-1") else "utf-8"
        (tmp_path / name).write_text(text, encoding=encoding)
    assert (main(argv), capsys.readouterr().err) == (1, f"error: {error}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


# Valid store blocks: (environment id, [(tag, name, count)]).  Ids come
# from a small pool so that one id often has several ENV blocks, names
# mix cases, ASCII and not, and capability names often lack their CAP_
# prefix.
store_blocks = st.lists(
    st.tuples(
        st.sampled_from(("x1", "x2", "e" * 32, "café")),
        st.lists(
            st.one_of(
                st.tuples(st.just("SYS"), st.sampled_from(("read", "READ", "openat", "réad",
                                                           "rÉad", "RÉAD")),
                          st.integers(0, 3)),
                st.tuples(st.just("CAP"), st.sampled_from(("chown", "CAP_CHOWN", "net_raw",
                                                           "CAP_ÇHOWN", "CAP_çHOWN", "çhown")),
                          st.integers(0, 3)),
            ),
            max_size=5,
        ),
    ),
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(blocks=store_blocks)
@example(blocks=[("x", [("SYS", "read", 0)])])
@example(blocks=[("x", [("SYS", "read", 2)]), ("x", [("SYS", "read", 3), ("CAP", "chown", 1)])])
def test_store_round_trip(blocks):
    expected: dict[str, tuple[Counter, Counter]] = {}
    lines = [OBSERVATIONS_HEADER, "CONTAINER app"]
    for environment_id, entries in blocks:
        lines.append(f"ENV {environment_id}")
        syscalls, capabilities = expected.setdefault(environment_id, (Counter(), Counter()))
        for tag, name, count in entries:
            lines.append(f"{tag} {name} {count}")
            if tag == "SYS":
                syscalls[canonical_syscall(name)] += count
            else:
                capabilities[canonical_capability(name)] += count
    with tempfile.TemporaryDirectory() as directory:
        source, first, second = (os.path.join(directory, name) for name in ("in", "a", "b"))
        with open(source, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        store = load_store(source)
        save_store(store, first)
        save_store(load_store(first), second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    assert store.environments() == tuple(sorted(expected))
    for environment_id, counts in expected.items():
        assert store.counts_for(environment_id) == counts
        syscalls, capabilities = counts
        assert store.events_for(environment_id) == EventSet(
            frozenset(syscalls), frozenset(capabilities)
        )


# -- ingest into an existing store -------------------------------------------

# The trace every ingest below replays, and the counts it records.
_TRACE = [TRACE_HEADER, "1 4 SYS unshare", "2 4 SYS capset", "3 4 SYS prctl",
          "4 4 SYS read", "5 4 SYS read", "6 4 SYS openat", "7 4 CAP chown"]
_TRACE_COUNTS = (Counter({"read": 2, "openat": 1}), Counter({"CAP_CHOWN": 1}))


def _written(lines, newline="\n", final=True):
    return newline.join(lines) + (newline if final else "")


def _canonical_names(blocks):
    canonical = {"SYS": canonical_syscall, "CAP": canonical_capability}
    return [(env, [(tag, canonical[tag](name), count) for tag, name, count in entries])
            for env, entries in blocks]


# Each turns store blocks into a store's text: the form the tool writes
# (names in canonical case) and hand-written variants of it.
_STORE_FORMS = {
    "written": lambda blocks: _written(_store_lines(_canonical_names(blocks))),
    "mixed case": lambda blocks: _written(_store_lines(blocks)),
    "salt comment": lambda blocks: _written(
        [OBSERVATIONS_HEADER, "# salt 0001", "", *_store_lines(_canonical_names(blocks))[1:]]),
    "comment after CONTAINER": lambda blocks: _written(
        [*_store_lines(_canonical_names(blocks))[:2], "# note", *_store_lines(blocks)[2:]]),
    "CRLF": lambda blocks: _written(_store_lines(_canonical_names(blocks)), "\r\n"),
    "no final newline": lambda blocks: _written(_store_lines(_canonical_names(blocks)), final=False),
    "non-ASCII ids": lambda blocks: _written(
        [line.replace("ENV x", "ENV é") for line in _store_lines(_canonical_names(blocks))]),
    # whitespace that str.split() splits on but a line break does not end
    "odd whitespace": lambda blocks: _written(
        [line.replace("ENV x", "ENV x\u00a0").replace("ré", "r\u2028é").replace("ÇH", "Ç\x1cH")
         for line in _store_lines(_canonical_names(blocks))]),
}


def _store_lines(blocks):
    lines = [OBSERVATIONS_HEADER, "CONTAINER app"]
    for environment_id, entries in blocks:
        lines.append(f"ENV {environment_id}")
        lines.extend(f"{tag} {name} {count}" for tag, name, count in entries)
    return lines


store_texts = st.one_of(
    st.builds(lambda form, blocks: _STORE_FORMS[form](blocks),
              st.sampled_from(sorted(_STORE_FORMS)), store_blocks),
    st.builds(_STORE_FORMS["written"], store_blocks),
    st.builds(lambda body: _written([OBSERVATIONS_HEADER, "CONTAINER app", "ENV e1", *body]),
              lines),
)


def _counts(store):
    return {environment_id: store.counts_for(environment_id)
            for environment_id in store.environments()}


_H = OBSERVATIONS_HEADER


# Stores in and just outside the written form, each with the id ingested into it.
_STORE_EXAMPLES = [
    (f"{_H}\n# salt 1\nCONTAINER app\nENV x1\nSYS read 1\n", "x1"),
    (f"{_H}\nCONTAINER app\n# note\nENV x1\nSYS read 1\n", "new"),
    (f"{_H}\r\nCONTAINER app\r\nENV x1\r\nSYS read 1\r\n", "x1"),
    (f"{_H}\nCONTAINER app\nENV é\nSYS read 1\n", "é"),
    (f"{_H}\nCONTAINER app\nENV x1\nSYS read 1", "new"),
    (f"{_H}\nCONTAINER app\nENV x1\nSYS read 1\nENV x2\nENV x1\nCAP CAP_CHOWN 2\n", "x1"),
    (f"{_H}\nCONTAINER app\n", "x1"),
    (f"{_H}\nCONTAINER app\nENV x1\nSYS read 007\n", "x1"),
    (f"{_H}\nCONTAINER app\nENV x1\nSYS read {'9' * 5000}\n", "x1"),
    (f"{_H}\nCONTAINER app\nENV x1\nCAP cap_ 1\n", "x1"),
    (f"{_H}\nCONTAINER app\nENV x1\nSYS read -1\n", "x1"),
    (f"{_H}\n# a\rENV x\nCONTAINER app\nENV x1\n", "x1"),
    (f"{_H}\nCONTAINER app\nCONTAINER app\nENV x1\n", "x1"),
    (f"{_H}\nSYS read 1\nCONTAINER app\nENV x1\n", "x1"),
    (f"{_H}\nCONTAINER app\nENV café\nSYS rÉad 1\nCAP CAP_çHOWN 2\n", "café"),
    (f"{_H}\nCONTAINER app\nENV x1\nSYS READ 1\n", "x1"),
    (f"{_H}\nCONTAINER app\nENV x1\nCAP CAP_Chown 1\n", "x1"),
    (f"{_H}\nCONTAINER app\nENV caf\u00a0é\nSYS read 1\n", "x1"),
    (f"{_H}\nCONTAINER app\nENV x1\nSYS ré\u2028ad 1\n", "x1"),
    (f"{_H}\nCONTAINER app\nENV x1\nCAP CAP_Ç\x1cHOWN 1\n", "x1"),
    (f"{_H}\nCONTAINER á\x1cpp\nENV x1\n", "x1"),
    (f"{_H}\nCONTAINER app\nENV fooENV\nCAP CAP_FOOENV 1\nENV x1ENV\nENV fooENV\n", "x1"),
    (f"{_H}\r\n# note\r\nCONTAINER app\r\nENV x1\r\n# kept\r\nSYS read 1\r\n", "new"),
    (f"{_H}\n\x0c\nCONTAINER app\nENV x1\nSYS read 1\n", "x1"),
    (f"{_H}\nCONTAINER  app \nENV x1\nSYS read 1\n", "x1"),
    (f"{_H}\nCONTAINER app\nENV  x2\nSYS read 1\n\tENV x3\nENV\x1cx4\n", "x1"),
    (f"{_H}\nCONTAINER app\nENV x1\n# a comment\nSYS read 1\n", "x1"),
    (f"{_H}\nCONTAINER app\n", "x1"),
    (f"{_H}\nCONTAINER app", "x1"),
    (f"{_H}\nCONTAINER app\nENV x1\n  \n", "new"),
    (f"{_H}\nCONTAINER app\nSYS read 1\nENV x1\n", "x1"),
]


def store_examples(test):
    for text, environment_id in _STORE_EXAMPLES:
        test = example(text=text, environment_id=environment_id)(test)
    return test


# The ^-anchored body scan that ingest ran before it jumped from newline
# to newline: the reference for which blocks count as written.
_COUNT = r"(?:0|[1-9][0-9]{0,17})"
_REFERENCE_OFF_BODY = re.compile(
    rf"^(?!ENV \S+\n|SYS [^\sA-Z]+ {_COUNT}\n|CAP CAP_[^\sa-z]+ {_COUNT}\n|\Z)", re.M
)


def _translated(text):
    """text as a file read in text mode gives it: every \r\n and \r a \n."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _ingested(old, container, block):
    """The text ingest leaves from old, a text load_store accepts: its head's
    comment and blank lines dropped, newlines translated and the last line
    ended, then the block."""
    old = _translated(old)
    lines = (old if old.endswith("\n") else old + "\n").split("\n")
    at = next(at for at in range(1, len(lines)) if lines[at].strip() and lines[at][0] != "#")
    rest = "\n".join(lines[at + 1:])
    return f"{_H}\nCONTAINER {container}\n{rest}{block}"


# A byte that is not UTF-8 past the reader's first 8 KB chunk, after a bad
# line and alone: ingest fails with load_store's first error either way.
# A lone surrogate is written as the byte it escapes.
_NOT_UTF8_PAST_8K = "SYS read 1\n" * 1000 + "SYS r\udcffad 1\n"


@settings(max_examples=300, deadline=None)
@given(text=store_texts, environment_id=st.sampled_from(("x1", "new", "é")))
@store_examples
@example(text=f"{_H}\nCONTAINER app\nENV a b\n{_NOT_UTF8_PAST_8K}", environment_id="x1")
@example(text=f"{_H}\nCONTAINER app\nENV x1\n{_NOT_UTF8_PAST_8K}", environment_id="x1")
def test_ingest_appends_or_fails_like_load_store(text, environment_id):
    """ingest into any store: load_store's error line with the file untouched,
    or the old text, head comments dropped, then the trace's block, which
    loads to the old counts plus the trace's and to as many environments
    as ingest reports."""
    with tempfile.TemporaryDirectory() as directory:
        store, trace = os.path.join(directory, "s.obs"), os.path.join(directory, "t.trace")
        with open(store, "w", encoding="utf-8", errors="surrogateescape", newline="") as handle:
            handle.write(text)
        with open(trace, "w", encoding="utf-8") as handle:
            handle.write("\n".join(_TRACE) + "\n")
        try:
            old = load_store(store)
            expected, error = _counts(old), None
        except ValueError as exc:
            expected, error = None, f"error: {type(exc).__name__}: {exc}\n"
        before = Path(store).read_bytes()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["ingest", trace, "--env-id", environment_id, "--store", store])
        assert sorted(os.listdir(directory)) == ["s.obs", "t.trace"]
        if error is not None:
            assert (code, out.getvalue(), err.getvalue()) == (1, "", error)
            assert Path(store).read_bytes() == before
            return
        assert (code, err.getvalue()) == (0, "")
        syscalls, capabilities = expected.setdefault(environment_id, (Counter(), Counter()))
        syscalls.update(_TRACE_COUNTS[0])
        capabilities.update(_TRACE_COUNTS[1])
        result = load_store(store)
        assert _counts(result) == expected
        assert out.getvalue().endswith(f"({len(result)} environments)\n")
        block = f"ENV {environment_id}\nSYS openat 1\nSYS read 2\nCAP CAP_CHOWN 1\n"
        assert Path(store).read_bytes() == _ingested(text, old.container, block).encode()


# -- load_store against a per-line decoder -----------------------------------


def _reference_load_store(path):
    """Any store decoded one line at a time, each name canonicalised where it is read."""
    store = None
    current = {}  # tag -> the store's counts for the ENV being read
    canonical = {"SYS": canonical_syscall, "CAP": canonical_capability}

    def decode(line):
        nonlocal store
        if line.startswith("#"):
            return
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
            name = canonical[tag](parts[1])
            current[tag][name] = current[tag].get(name, 0) + count
        else:
            raise StoreFormatError(f"unknown tag {quoted(tag)}")

    with open(path, "r", encoding="utf-8") as handle:
        for _ in decode_lines(handle, OBSERVATIONS_HEADER, path, StoreFormatError, decode):
            pass
    if store is None:
        raise StoreFormatError(f"{path}: missing CONTAINER line")
    return store


def _read_or_error(read, path):
    """(container, ids in first-seen order, counts per id), or the error line."""
    try:
        store = read(path)
    except ValueError as exc:
        return f"error: {type(exc).__name__}: {exc}"
    return store.container, list(store._counts), _counts(store)


# Stores in the written form, ids and names repeated across blocks.
_BLOCK_EXAMPLES = [
    f"{_H}\nCONTAINER app\nENV x1\nSYS read 1\nENV x2\nSYS read 2\nENV x1\nSYS read 3\n",
    f"{_H}\nCONTAINER app\nENV x1\nSYS read 1\nCAP CAP_CHOWN 1\nSYS read 2\nCAP CAP_CHOWN 4\n",
    f"{_H}\nCONTAINER app\nENV x1\nCAP CAP_CHOWN 1\nCAP CAP_SETUID 2\nSYS read 3\n",
    f"{_H}\nCONTAINER app\nENV x1\nSYS read 0\nCAP CAP_CHOWN 0\nENV x2\n",
    f"{_H}\nCONTAINER app\nENV x1\nSYS read {'9' * 18}\nSYS read {'9' * 18}\n",
    f"{_H}\nCONTAINER app\nENV x1\nSYS Σx 1\nSYS σx 2\nENV x2\nSYS Σx 4\n",
]


def test_the_block_examples_are_in_the_written_form():
    for text in _BLOCK_EXAMPLES:
        head = f"{_H}\nCONTAINER app\n"
        assert text.startswith(head + "ENV "), text
        assert decision._OFF_BODY.search(text, len(head) - 1) is None, text


def block_examples(test):
    for text in [text for text, _ in _STORE_EXAMPLES] + _BLOCK_EXAMPLES:
        test = example(text=text)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(text=store_texts)
@block_examples
def test_store_scans_match_the_anchored_scans(text):
    body = _translated(text).partition("\nCONTAINER app\n")[2]
    found = decision._OFF_BODY.search("\n" + body)
    expected = _REFERENCE_OFF_BODY.search(body)
    assert (found and found.start()) == (expected and expected.start())
    if found is None:  # the ids of blocks in the written form, as load_store splits them
        ids = [parts[1] for parts in map(str.split, body.split("\n")) if parts[:1] == ["ENV"]]
        assert decision._ENV_ID.findall("\n" + body) == ids


# Lines at the edge of load_store's inline decode: three tokens that are
# not a count line, a count before any ENV, int() counts that are not
# canonical or are below 0, a line one character too long for the inline
# decode and one that, newline included, just fits, and names past the
# memo's capacity.
_LONG_NAME = "n" * (MAX_DIGITS + 1 - len("SYS  1"))
_INLINE_EDGE_EXAMPLES = [
    f"{_H}\nCONTAINER app\nENV x1\nSYS read 1\n# a b\nSYS read 2\n",
    f"{_H}\nCONTAINER app\nENV x1\nSYS read 1\n  # a b\n",
    f"{_H}\nCONTAINER app\nSYS read 1\nENV x1\n",
    f"{_H}\nCONTAINER app\nENV x1\nSYS read 1\nENV a b\n",
    f"{_H}\nCONTAINER app\nENV x1\nSYS read 1\nCONTAINER a b\n",
    f"{_H}\nCONTAINER a b\nENV x1\nSYS read 1\n",
    f"{_H}\nCONTAINER app\nENV x1\nSYS read 1\nSYS read +5\nCAP CAP_CHOWN 1\nCAP chown 1_0\n",
    f"{_H}\nCONTAINER app\nENV x1\nSYS read 1\nSYS read -1\n",
    f"{_H}\nCONTAINER app\nENV x1\nSYS {_LONG_NAME} 1\nSYS {_LONG_NAME} 2\nSYS read 1\n",
    f"{_H}\nCONTAINER app\nENV x1\nSYS {_LONG_NAME[2:]} 1\nSYS {_LONG_NAME[2:]} 2\n",
    f"{_H}\nCONTAINER app\nENV x1\n"
    + "".join(f"SYS n{i} 1\nCAP c{i} 1\n" for i in range(MEMO_NAMES + 2))
    + f"ENV x2\nSYS n{MEMO_NAMES + 1} 3\nSYS N{MEMO_NAMES + 1} 4\nSYS n0 5\nCAP C0 6\n",
    # a known head, `SYS read`, before a count after a tab, after two spaces,
    # before a trailing space or \x0b, and with two spaces after the tag
    f"{_H}\nCONTAINER app\nENV x1\nSYS read 1\nSYS read\t2\nSYS read \t3\nSYS read  4\n"
    "SYS read 5 \nSYS read 6\x0b\nSYS  read 7\n",
    f"{_H}\nCONTAINER app\nENV x1\nSYS read 1\nSYS read 2\x0b3\n",
    # two heads, one name
    f"{_H}\nCONTAINER app\nENV x1\nCAP CAP_CHOWN 1\nCAP chown 1\nENV x2\nCAP chown 2\n"
    "CAP CAP_CHOWN 3\n",
    # heads past the memo's capacity, read again in a second block, then a bad count
    f"{_H}\nCONTAINER app\nENV x1\n"
    + "".join(f"SYS n{i} 1\n" for i in range(MEMO_NAMES + 2))
    + "ENV x2\n" + "".join(f"SYS n{i} 2\n" for i in range(MEMO_NAMES + 2))
    + f"SYS n{MEMO_NAMES + 1} -1\n",
]


def inline_edge_examples(test):
    for text in _INLINE_EDGE_EXAMPLES:
        test = example(text=text)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(text=store_texts)
@block_examples
@inline_edge_examples
def test_load_store_reads_like_a_per_line_decoder(text):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "s.obs")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        assert _read_or_error(load_store, path) == _read_or_error(_reference_load_store, path)
