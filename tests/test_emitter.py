"""Seccomp JSON and capability flag emission."""

import json

import pytest

from leastpriv.decision import parse_event_list
from leastpriv.emitter import (
    DEFAULT_ARCHITECTURES,
    EmitError,
    emit_capability_flags,
    emit_seccomp_profile,
    parse_seccomp_profile,
)
from leastpriv.events import EventSet


def events_of(*names):
    return parse_event_list(names)


class TestSeccompProfile:
    def test_document_shape(self):
        text = emit_seccomp_profile(events_of("read", "close", "CAP_CHOWN"))
        doc = json.loads(text)
        assert doc["defaultAction"] == "SCMP_ACT_ERRNO"
        assert doc["architectures"] == list(DEFAULT_ARCHITECTURES)
        assert doc["syscalls"] == [{"names": ["close", "read"], "action": "SCMP_ACT_ALLOW"}]

    def test_capabilities_do_not_leak_into_syscall_rules(self):
        text = emit_seccomp_profile(events_of("CAP_CHOWN"))
        assert json.loads(text)["syscalls"] == []

    def test_empty_set_yields_empty_rules(self):
        doc = json.loads(emit_seccomp_profile(EventSet.empty()))
        assert doc["syscalls"] == []

    def test_output_is_byte_stable(self):
        events = events_of("read", "write", "openat")
        assert emit_seccomp_profile(events) == emit_seccomp_profile(events)
        assert emit_seccomp_profile(events).endswith("\n")

    def test_names_are_sorted_regardless_of_input_order(self):
        first = emit_seccomp_profile(events_of("write", "read"))
        second = emit_seccomp_profile(events_of("read", "write"))
        assert first == second

    def test_round_trip(self):
        events = events_of("read", "close", "mmap")
        assert parse_seccomp_profile(emit_seccomp_profile(events)) == frozenset(events.syscalls)

    def test_empty_round_trip(self):
        assert parse_seccomp_profile(emit_seccomp_profile(EventSet.empty())) == frozenset()

    def test_parse_rejects_wrong_default_action(self):
        text = emit_seccomp_profile(events_of("read")).replace("SCMP_ACT_ERRNO", "SCMP_ACT_KILL")
        with pytest.raises(EmitError):
            parse_seccomp_profile(text)

    def test_parse_rejects_wrong_rule_action(self):
        text = emit_seccomp_profile(events_of("read")).replace("SCMP_ACT_ALLOW", "SCMP_ACT_TRACE")
        with pytest.raises(EmitError):
            parse_seccomp_profile(text)

    @pytest.mark.parametrize("doc,shown", [
        ({"defaultAction": "x" * 5000}, "unexpected defaultAction of 5000 characters"),
        ({"defaultAction": "SCMP_ACT_ERRNO", "architectures": [], "syscalls": ["x" * 5000]},
         "unexpected syscall rule of 5000 characters"),
        ({"defaultAction": "SCMP_ACT_ERRNO", "architectures": [],
          "syscalls": [{"action": "SCMP_ACT_ALLOW", "names": [""] * 2000}]},
         "malformed names in rule dict of length 2"),
        ({"defaultAction": "SCMP_ACT_ERRNO"}, "profile needs an architectures list"),
        ({"defaultAction": "SCMP_ACT_ERRNO", "architectures": []},
         "profile needs a syscalls list"),
    ], ids=["default-action", "rule", "names", "architectures", "syscalls"])
    def test_parse_quotes_what_it_rejects(self, doc, shown):
        with pytest.raises(EmitError) as raised:
            parse_seccomp_profile(json.dumps(doc))
        assert str(raised.value) == shown

    def test_parse_rejects_garbage(self):
        with pytest.raises(EmitError):
            parse_seccomp_profile("{not json")
        with pytest.raises(EmitError):
            parse_seccomp_profile("[]")


class TestCapabilityFlags:
    def test_drop_all_first_then_sorted_adds(self):
        flags = emit_capability_flags(events_of("read", "CAP_SETUID", "CAP_CHOWN"))
        assert flags == ["--cap-drop=ALL", "--cap-add=CHOWN", "--cap-add=SETUID"]

    def test_no_capabilities_still_drops_all(self):
        assert emit_capability_flags(events_of("read")) == ["--cap-drop=ALL"]

    def test_unknown_capability_rejected(self):
        with pytest.raises(EmitError):
            emit_capability_flags(events_of("CAP_FUTURE_THING"))

    def test_unknown_capabilities_are_counted_not_all_listed(self):
        unknown = [f"CAP_X{i:03d}" for i in range(301)]
        with pytest.raises(EmitError) as raised:
            emit_capability_flags(events_of("CAP_CHOWN", *unknown))
        assert str(raised.value) == (
            "not Linux capabilities: 301 names: 'CAP_X000', 'CAP_X001', 'CAP_X002' and 298 more"
        )
