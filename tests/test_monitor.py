"""Trace replay state machine and trace wire format."""

import itertools
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from leastpriv._files import MAX_DIGITS, decode_lines
from leastpriv.events import (
    KIND_CAPABILITY,
    KIND_SYSCALL,
    MEMO_NAMES,
    canonical_capability,
    canonical_syscall,
)
from leastpriv.monitor import (
    TRACE_HEADER,
    NamespaceState,
    TraceFormatError,
    TraceOrderError,
    TraceRecord,
    UnknownNamespaceError,
    event_set_for,
    format_trace,
    ingest_trace,
    parse_trace,
    replay_file,
    replay_trace,
)
from test_line_formats import _TOKENS


def sys(ts, ns, name):
    return TraceRecord(ts, ns, KIND_SYSCALL, name)


def cap(ts, ns, name):
    return TraceRecord(ts, ns, KIND_CAPABILITY, name)


class TestReplayExamples:
    def test_syscalls_recorded_only_after_seccomp_marker(self):
        events = ingest_trace([
            sys(1, 1, "unshare"),
            sys(2, 1, "write"),
            sys(3, 1, "prctl"),
            sys(4, 1, "read"),
        ])
        assert set(events[1].syscalls) == {"read"}
        assert not events[1].capabilities

    def test_capset_marks_capability_confinement(self):
        events = ingest_trace([
            sys(1, 1, "unshare"),
            sys(2, 1, "prctl"),
            sys(3, 1, "capset"),
            cap(4, 1, "CAP_NET_RAW"),
        ])
        # capset lands after the seccomp marker, so it is itself recorded
        assert set(events[1].syscalls) == {"capset"}
        assert set(events[1].capabilities) == {"CAP_NET_RAW"}

    def test_seccomp_syscall_is_alternate_marker(self):
        events = ingest_trace([
            sys(1, 1, "unshare"),
            sys(2, 1, "seccomp"),
            sys(3, 1, "read"),
        ])
        assert set(events[1].syscalls) == {"read"}

    def test_creation_record_is_not_an_event(self):
        events = ingest_trace([sys(1, 1, "unshare")])
        assert 1 in events
        assert not events[1]

    def test_capability_before_capset_dropped(self):
        events = ingest_trace([
            sys(1, 1, "unshare"),
            sys(2, 1, "prctl"),
            cap(3, 1, "CAP_CHOWN"),
            sys(4, 1, "capset"),
            cap(5, 1, "CAP_NET_RAW"),
        ])
        assert set(events[1].capabilities) == {"CAP_NET_RAW"}

    def test_marker_records_become_ordinary_events_once_flagged(self):
        states = replay_trace([
            sys(1, 1, "unshare"),
            sys(2, 1, "prctl"),
            sys(3, 1, "prctl"),
            sys(4, 1, "unshare"),
            sys(5, 1, "capset"),
        ])
        state = states[1]
        assert state.syscalls == {"prctl", "unshare", "capset"}
        # the first prctl flipped the flag and was itself not recorded
        assert state.syscall_counts["prctl"] == 1

    def test_second_unshare_does_not_reset_state(self):
        states = replay_trace([
            sys(1, 1, "unshare"),
            sys(2, 1, "prctl"),
            sys(3, 1, "read"),
            sys(4, 1, "unshare"),
            sys(5, 1, "write"),
        ])
        assert states[1].syscalls == {"read", "unshare", "write"}
        assert states[1].seccomp_flag

    def test_records_for_unknown_namespace_dropped(self):
        events = ingest_trace([
            sys(1, 1, "unshare"),
            sys(2, 2, "read"),
            sys(3, 1, "prctl"),
            sys(4, 1, "read"),
        ])
        assert set(events) == {1}
        assert set(events[1].syscalls) == {"read"}

    def test_counts_reflect_only_recorded_occurrences(self):
        states = replay_trace([
            sys(1, 1, "unshare"),
            sys(2, 1, "read"),
            sys(3, 1, "prctl"),
            sys(4, 1, "read"),
            sys(5, 1, "read"),
            sys(6, 1, "capset"),
            cap(7, 1, "CAP_CHOWN"),
            cap(8, 1, "CAP_CHOWN"),
        ])
        assert states[1].syscall_counts == {"read": 2, "capset": 1}
        assert states[1].capability_counts == {"CAP_CHOWN": 2}


class TestInMemoryRecords:
    """replay_trace checks and canonicalises records as replay_file does a file's lines."""

    def test_an_unknown_kind_is_refused(self):
        with pytest.raises(TraceFormatError, match="^<memory>:3: unknown kind 'NET'$"):
            replay_trace([sys(1, 1, "unshare"), TraceRecord(2, 1, "NET", "read")])

    def test_names_are_canonicalised(self):
        states = replay_trace([
            sys(1, 1, "unshare"), sys(2, 1, "prctl"), sys(3, 1, "capset"),
            sys(4, 1, "Read"), cap(5, 1, "net_raw"),
        ])
        assert states[1].syscall_counts == {"capset": 1, "read": 1}
        assert states[1].capability_counts == {"CAP_NET_RAW": 1}

    @pytest.mark.parametrize("name", ["re ad", "read\n5 1 SYS write", "re\u2028ad"])
    def test_a_name_holding_whitespace_is_refused(self, name):
        with pytest.raises(TraceFormatError, match="^<memory>:3: expected 4 fields, got "):
            replay_trace([sys(1, 1, "unshare"), sys(2, 1, name)])


class TestOrdering:
    def test_backwards_timestamp_rejected_with_index(self):
        with pytest.raises(TraceOrderError,
                           match="^<memory>:3: timestamp 4 goes backwards in namespace 1$"):
            replay_trace([sys(5, 1, "unshare"), sys(4, 1, "read")])

    def test_equal_timestamps_allowed(self):
        replay_trace([sys(5, 1, "unshare"), sys(5, 1, "read")])

    def test_order_checked_per_namespace(self):
        # interleaved namespaces may have globally unsorted timestamps
        replay_trace([
            sys(10, 1, "unshare"),
            sys(3, 2, "unshare"),
            sys(11, 1, "read"),
            sys(4, 2, "read"),
        ])

    def test_order_checked_even_for_untracked_namespace(self):
        with pytest.raises(TraceOrderError):
            replay_trace([sys(9, 7, "read"), sys(8, 7, "read")])


class TestWireFormat:
    def make(self):
        return [sys(1, 1, "unshare"), sys(2, 1, "prctl"), sys(3, 1, "read"), cap(4, 1, "CAP_CHOWN")]

    def test_round_trip(self):
        text = format_trace(self.make())
        assert text.splitlines()[0] == TRACE_HEADER
        assert parse_trace(text.splitlines()) == self.make()

    def test_header_required(self):
        with pytest.raises(TraceFormatError):
            parse_trace(["1\t1\tSYS\tread"])

    def test_field_count_enforced(self):
        with pytest.raises(TraceFormatError):
            parse_trace([TRACE_HEADER, "1\t1\tSYS"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(TraceFormatError):
            parse_trace([TRACE_HEADER, "1\t1\tNET\tread"])

    def test_names_are_canonicalized(self):
        records = parse_trace([TRACE_HEADER, "1\t1\tSYS\t READ ", "2\t1\tCAP\tnet_raw"])
        assert records[0].name == "read"
        assert records[1].name == "CAP_NET_RAW"

    def test_negative_fields_rejected(self):
        with pytest.raises(TraceFormatError, match="^t.trace:2: negative timestamp -1$"):
            parse_trace([TRACE_HEADER, "-1\t1\tSYS\tread"], source="t.trace")
        with pytest.raises(TraceFormatError, match="^t.trace:3: negative namespace id -1$"):
            parse_trace([TRACE_HEADER, "", "1\t-1\tSYS\tread"], source="t.trace")

    def test_blank_lines_skipped(self):
        records = parse_trace([TRACE_HEADER, "", "   ", "1\t1\tSYS\tunshare"])
        assert len(records) == 1

    def test_parse_trace_returns_a_list(self):
        assert type(parse_trace([TRACE_HEADER, "1\t1\tSYS\tunshare"])) is list


def test_replaying_a_trace_file_never_holds_its_records(tmp_path):
    path = tmp_path / "long.trace"
    lines = [TRACE_HEADER, "0 1 SYS unshare", "0 1 SYS capset", "0 1 SYS prctl"]
    lines += [f"{ts} 1 {'CAP chown' if ts % 9 == 0 else f'SYS call{ts % 50}'}"
              for ts in range(1, 100_001)]
    path.write_text("\n".join(lines) + "\n")
    del lines
    tracemalloc.start()
    try:
        states = replay_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    recorded = states[1].syscall_counts + states[1].capability_counts
    assert recorded.total() == 100_000
    assert peak < 1_000_000, f"replay of a 100k-record trace peaked at {peak} bytes"


def test_observation_labels_namespace():
    states = replay_trace([sys(1, 3, "unshare"), sys(2, 3, "prctl"), sys(3, 3, "read")])
    obs = event_set_for("env-a", states, 3)
    assert obs.environment_id == "env-a"
    assert obs.syscall_counts == {"read": 1}
    with pytest.raises(UnknownNamespaceError):
        event_set_for("env-a", states, 9)


@pytest.mark.parametrize("namespaces,pick,shown", [
    (range(1, 3001), None,
     "trace tracks 3000 namespaces: 1, 2, 3 and 2997 more; pick one with --namespace"),
    (range(1, 3001), 10 ** 4289,
     "namespace int of 4290 characters not present in trace, which tracks 3000 namespaces: "
     "1, 2, 3 and 2997 more"),
    ((10 ** 4289, 2 * 10 ** 4289), None,
     "trace tracks 2 namespaces: int of 4290 characters, int of 4290 characters; "
     "pick one with --namespace"),
], ids=["many", "long-pick", "long-ids"])
def test_tracked_namespaces_are_counted_not_all_listed(namespaces, pick, shown):
    states = {ns: NamespaceState() for ns in namespaces}
    with pytest.raises(UnknownNamespaceError) as raised:
        event_set_for("env-a", states, pick)
    assert str(raised.value) == shown


# --- randomized state machine properties -----------------------------------

_SYSCALL_POOL = ("read", "write", "openat", "prctl", "seccomp", "capset", "unshare", "close")
_CAP_POOL = ("CAP_NET_RAW", "CAP_CHOWN", "CAP_SYS_ADMIN")


@st.composite
def namespace_trace(draw, ns):
    """One namespace's records: an unshare followed by random activity."""
    start = draw(st.integers(min_value=0, max_value=50))
    records = [sys(start, ns, "unshare")]
    t = start
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        t += draw(st.integers(min_value=0, max_value=4))
        if draw(st.booleans()):
            records.append(sys(t, ns, draw(st.sampled_from(_SYSCALL_POOL))))
        else:
            records.append(cap(t, ns, draw(st.sampled_from(_CAP_POOL))))
    return records


@settings(max_examples=150, deadline=None)
@given(records=namespace_trace(ns=1), cut=st.integers(min_value=0, max_value=20))
def test_replay_grows_monotonically_with_trace_prefix(records, cut):
    cut = min(cut, len(records))
    partial = replay_trace(records[:cut])
    full = replay_trace(records)
    for ns, state in partial.items():
        assert state.syscalls <= full[ns].syscalls
        assert state.capabilities <= full[ns].capabilities
        if state.seccomp_flag:
            assert full[ns].seccomp_flag
        if state.capability_flag:
            assert full[ns].capability_flag


@settings(max_examples=150, deadline=None)
@given(records=namespace_trace(ns=1))
def test_no_event_predates_its_confinement_marker(records):
    state = replay_trace(records)[1]
    body = records[1:]
    first_seccomp = next(
        (i for i, r in enumerate(body) if r.kind == KIND_SYSCALL and r.name in ("prctl", "seccomp")),
        None,
    )
    first_capset = next(
        (i for i, r in enumerate(body) if r.kind == KIND_SYSCALL and r.name == "capset"),
        None,
    )
    sys_after = set() if first_seccomp is None else {
        r.name for r in body[first_seccomp + 1:] if r.kind == KIND_SYSCALL
    }
    cap_after = set() if first_capset is None else {
        r.name for r in body[first_capset + 1:] if r.kind == KIND_CAPABILITY
    }
    assert state.syscalls <= sys_after
    assert state.capabilities <= cap_after


@settings(max_examples=150, deadline=None)
@given(
    first=namespace_trace(ns=1),
    second=namespace_trace(ns=2),
    choices=st.lists(st.booleans(), max_size=40),
)
def test_namespace_interleaving_does_not_change_replay(first, second, choices):
    merged, a, b = [], list(first), list(second)
    picks = iter(choices)
    while a or b:
        take_first = bool(a) and (not b or next(picks, True))
        merged.append(a.pop(0) if take_first else b.pop(0))
    combined = replay_trace(merged)
    alone = {**replay_trace(first), **replay_trace(second)}
    assert set(combined) == {1, 2}
    for ns in (1, 2):
        assert combined[ns] == alone[ns]


# --- the one-loop file replay against the record-at-a-time reference

def _reference_decode(line):
    """The decoder as it was before rows and name memos: one TraceRecord per line."""
    parts = line.split()
    if len(parts) != 4:
        raise TraceFormatError(f"expected 4 fields, got {len(parts)}")
    ts_text, ns_text, kind, name = parts
    for text in (ts_text, ns_text):
        if len(text) > MAX_DIGITS:
            raise TraceFormatError(f"integer of {len(text)} digits is too long")
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


class _ReferenceReplayer:
    """Replay as it was before the state machine was inlined: one step() per record."""

    def __init__(self):
        self.states = {}
        self._last_timestamp = {}

    def step(self, record, where):
        last = self._last_timestamp.get(record.namespace_id)
        if last is not None and record.timestamp_ns < last:
            raise TraceOrderError(
                f"{where}: timestamp {record.timestamp_ns} goes backwards "
                f"in namespace {record.namespace_id}"
            )
        self._last_timestamp[record.namespace_id] = record.timestamp_ns

        state = self.states.get(record.namespace_id)
        if state is None:
            if record.kind == KIND_SYSCALL and record.name == "unshare":
                self.states[record.namespace_id] = NamespaceState()
            return

        if record.kind == KIND_SYSCALL:
            if state.seccomp_flag:
                state.syscall_counts[record.name] += 1
            if record.name in ("prctl", "seccomp"):
                state.seccomp_flag = True
            elif record.name == "capset":
                state.capability_flag = True
        elif state.capability_flag:
            state.capability_counts[record.name] += 1


def _reference_replay(path):
    replayer = _ReferenceReplayer()
    with open(path, "r", encoding="utf-8") as handle:
        read = [0]  # lines read, the header included

        def lines():
            for read[0], line in enumerate(handle, start=1):
                yield line

        # decode_lines yields each record as its line is read
        for record in decode_lines(lines(), TRACE_HEADER, str(path), TraceFormatError,
                                   _reference_decode):
            replayer.step(record, f"{path}:{read[0]}")
    return replayer.states


def _outcome(replay, path):
    """The states replay(path) returns, or the class and message of its error,
    with path written `<memory>` as replay_trace names its records."""
    try:
        return replay(path)
    except TraceFormatError as exc:
        return type(exc), str(exc).replace(str(path), "<memory>")


_HUGE = "9" * 4301  # one digit more than int() converts
_SYS_NAMES = ("unshare", "UNSHARE", "Unshare", "prctl", "PRCTL", "seccomp", "SecComp",
              "capset", "CapSet", "read", "READ", "ReAd", "openat")
_CAP_NAMES = ("net_raw", "NET_RAW", "Cap_Net_Raw", "CAP_NET_RAW", "chown", "cap_chown",
              "sys_admin", "cap_", "CAP_")
_record_lines = st.builds(
    lambda ts, ns, event, sep: sep.join((ts, ns, *event)),
    st.one_of(st.integers(0, 12).map(str), st.sampled_from(("-1", _HUGE, "x"))),
    st.one_of(st.integers(0, 2).map(str), st.sampled_from(("-2", _HUGE))),
    st.one_of(
        st.tuples(st.just("SYS"), st.sampled_from(_SYS_NAMES)),
        st.tuples(st.just("CAP"), st.sampled_from(_CAP_NAMES)),
    ),
    st.sampled_from((" ", "\t", "  ")),
)
_trace_lines = st.lists(
    st.one_of(
        _record_lines,
        _record_lines,
        st.sampled_from(("", " ", "\t", " \t ")),
        st.builds(
            lambda parts, sep: sep.join(parts),
            st.lists(st.sampled_from(_TOKENS), max_size=5),
            st.sampled_from((" ", "\t")),
        ),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
    ),
    max_size=25,
)


_MEMO_PAST_FULL = (
    ["0 1 SYS unshare", "0 1 SYS prctl", "0 1 SYS capset"]
    + [f"{round_} 1 SYS Call{i}" for round_ in (1, 2) for i in range(MEMO_NAMES + 2)]
    + [f"3 1 CAP cap{i}" for i in range(2)]
)


@settings(max_examples=300, deadline=None)
@given(body=_trace_lines)
@example(body=["1 1 SYS unshare", "2 1 SYS prctl", "1 1 SYS read"])
@example(body=["1 1 SYS unshare", "0 1 SYS read", "x 1 SYS read"])
@example(body=["1 1 SYS unshare", f"{_HUGE} 1 SYS read"])
@example(body=["1 1 SYS unshare", "2 1 SYS capset", "3 1 CAP net_raw", "4 1 CAP Net_Raw"])
@example(body=["1 1 SYS unshare", "", "  ", "\t", "2 1 SYS read", " \t ", "0 1 SYS read"])
# one namespace spelled several ways, clean and with a backwards record across spellings
@example(body=["1 1 SYS unshare", "2 01 SYS prctl", "3 +1 SYS read", "1 10 SYS unshare",
               "2 1_0 SYS prctl", "3 10 SYS read", "4 1_0 SYS read", "5 01 SYS read"])
@example(body=["1 1 SYS unshare", "2 01 SYS prctl", "3 +1 SYS read", "2 1 SYS read"])
@example(body=["1 10 SYS unshare", "3 1_0 SYS read", "2 10 SYS read"])
# a negative integer beside a known tail and a known namespace text
@example(body=["1 1 SYS unshare", "2 -1 SYS unshare"])
@example(body=["1 1 SYS unshare", "-1 1 SYS unshare"])
# one name in three tails, one with trailing whitespace
@example(body=["1 1 SYS unshare", "2 1 SYS prctl", "3 1 SYS read \t", "4 1 SYS read",
               "5 1 SYS READ", "6 1 SYS read \t", "7 1 SYS READ"])
# a known tail in a new namespace text, and a known namespace text with a new tail
@example(body=["1 1 SYS unshare", "2 2 SYS unshare", "3 1 SYS prctl", "3 2 SYS prctl",
               "4 3 SYS prctl", "5 1 SYS write", "6 2 SYS write", "7 3 SYS unshare",
               "8 3 CAP chown"])
# a new tail on a line with a bad timestamp: the timestamp's fault is the one raised
@example(body=["1 1 SYS unshare", "x 1 SYS openat"])
@example(body=["1 1 SYS unshare", "-1 1 FOO read"])
# a tail of three tokens, and an unknown kind in a negative namespace
@example(body=["1 1 SYS unshare", "2 1 SYS read extra"])
@example(body=["1 1 SYS unshare", "2 -1 FOO read"])
# more tails than the memo holds, so the last ones are decoded alone on every
# line, read whole and then with one of them going backwards
@example(body=_MEMO_PAST_FULL)
@example(body=[*_MEMO_PAST_FULL, f"2 1 SYS Call{MEMO_NAMES + 1}"])
def test_file_replay_matches_the_record_at_a_time_reference(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("trace") / "t.trace"
    path.write_text("\n".join([TRACE_HEADER, *body]) + "\n", encoding="utf-8")
    assert _outcome(replay_file, path) == _outcome(_reference_replay, path)


def test_namespaces_are_returned_in_the_order_of_their_unshares(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text(f"{TRACE_HEADER}\n1 5 SYS read\n2 7 SYS unshare\n3 9 SYS unshare\n"
                    "4 5 SYS unshare\n5 7 SYS read\n6 05 SYS unshare\n", encoding="utf-8")
    assert list(replay_file(path)) == list(_reference_replay(path)) == [7, 9, 5]


@settings(max_examples=150, deadline=None)
@given(first=namespace_trace(ns=1), second=namespace_trace(ns=2), data=st.data())
def test_replaying_records_matches_replaying_their_file(tmp_path_factory, first, second, data):
    records = data.draw(st.permutations([*first, *second]))
    path = tmp_path_factory.mktemp("trace") / "t.trace"
    path.write_text(format_trace(records), encoding="utf-8")
    assert _outcome(lambda _: replay_trace(records), path) == _outcome(replay_file, path)


def test_a_trace_with_more_names_than_the_memo_holds(tmp_path):
    names = MEMO_NAMES + 500
    lines = [TRACE_HEADER, "0 1 SYS unshare", "0 1 SYS capset", "0 1 SYS prctl"]
    for round_ in range(2):  # the second round meets tails the memo had no room for
        lines += [f"{round_} 1 SYS Call{i}" for i in range(names)]
        lines += [f"{round_} 1 CAP cap{i}" for i in range(names)]
    path = tmp_path / "many.trace"
    path.write_text("\n".join(lines) + "\n")
    for _ in range(2):  # each read starts with empty memos
        states = replay_file(path)
        assert states == _reference_replay(path)
    state = states[1]
    assert state.syscall_counts == Counter({f"call{i}": 2 for i in range(names)})
    assert state.capability_counts == Counter({f"CAP_CAP{i}": 2 for i in range(names)})


def _spellings_of_seven(count):
    """count texts that int() reads as 7: zeros, an underscore, more zeros, then 7."""
    texts = (f"{'0' * ahead}_{'0' * (width - ahead)}7"
             for width in itertools.count(1) for ahead in range(1, width + 1))
    return list(itertools.islice(texts, count))


@pytest.mark.parametrize("texts", [
    [str(namespace) for namespace in range(1, MEMO_NAMES + 501)],
    _spellings_of_seven(MEMO_NAMES + 500),
], ids=["namespaces", "spellings-of-one"])
def test_a_trace_with_more_namespace_texts_than_the_memo_holds(tmp_path, texts):
    lines = [TRACE_HEADER]
    for ts, name in enumerate(("unshare", "prctl", "read", "read")):  # the later rounds meet
        lines += [f"{ts} {text} SYS {name}" for text in texts]      # texts past the memo
    path = tmp_path / "many.trace"
    path.write_text("\n".join(lines) + "\n")
    states = replay_file(path)
    reference = _reference_replay(path)
    assert states == reference and list(states) == list(reference)
    assert len(states) == len({int(text) for text in texts})
    path.write_text("\n".join([*lines, f"2 {texts[-1]} SYS read"]) + "\n")  # backwards
    assert _outcome(replay_file, path) == _outcome(_reference_replay, path)
