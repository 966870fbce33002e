"""The line-oriented formats reject bad lines with their own error class.

Traces, CVE databases, observation stores and mutation logs share one
reader.  Whatever lines follow a valid header, a read either succeeds or
raises the format's error class with a `source:` prefix, never a bare
ValueError from deeper down.
"""

import os
import tempfile

from hypothesis import example, given, settings, strategies as st

from leastpriv.decision import (
    CVEDB_HEADER,
    OBSERVATIONS_HEADER,
    DbFormatError,
    StoreFormatError,
    load_store,
    parse_cvedb,
)
from leastpriv.explorer import (
    LOG_HEADER,
    ExplorerError,
    MutationConfig,
    _format_config,
    read_log,
)
from leastpriv.monitor import TRACE_HEADER, TraceFormatError, parse_trace

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

_LOG_PREFIX = [LOG_HEADER, _format_config(MutationConfig(0, 100))]


def parses_or_rejects(read, error, source):
    try:
        read()
    except error as exc:
        assert str(exc).startswith(f"{source}:"), str(exc)


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
@example(body=["# config v_min=abc"])
@example(body=[_LOG_PREFIX[1].replace("v_min=0", "v_min=None")])
@example(body=[_LOG_PREFIX[1].replace("v_max=100", "v_max=" + "9" * 400)])
def test_mutation_log_lines(body):
    parses_or_rejects_file([*_LOG_PREFIX, *body], read_log, ExplorerError)
