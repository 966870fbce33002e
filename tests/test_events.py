"""Event name canonicalization and event-set algebra."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import leastpriv
from leastpriv.events import EventNameError, EventSet, canonical_capability, canonical_syscall

SPACES = [chr(code) for code in range(sys.maxunicode + 1) if chr(code).isspace()]


@pytest.mark.parametrize("canonical", [canonical_syscall, canonical_capability])
def test_whitespace_inside_a_name_is_rejected(canonical):
    assert len(SPACES) > 20
    for space in SPACES:
        with pytest.raises(EventNameError):
            canonical(f"net{space}raw")
        assert canonical(f"{space}net_raw{space}") == canonical("net_raw")


@pytest.mark.parametrize("canonical", [canonical_syscall, canonical_capability])
@pytest.mark.parametrize("name", ["net\u200braw", "net\ufeffraw", "net\u180eraw", "net\x00raw"])
def test_characters_that_are_not_whitespace_stay_in_the_name(canonical, name):
    assert canonical(name).lower().endswith(name.lower())


def test_set_operators_work_per_kind():
    a = EventSet.of(["read", "openat"], ["chown"])
    b = EventSet.of(["read"], ["net_raw"])
    assert a | b == EventSet.of(["read", "openat"], ["chown", "net_raw"])
    assert a - b == EventSet.of(["openat"], ["chown"])
    assert a & b == EventSet.of(["read"])
    assert a ^ b == EventSet.of(["openat"], ["chown", "net_raw"])
    assert a & b <= a and a <= a | b
    assert not a <= b and not EventSet.of([], ["chown"]) <= EventSet.of(["chown"])


def test_importing_events_loads_no_other_module_and_no_yaml():
    """The package re-exports nothing, so a module loads only what it imports."""
    src = str(Path(leastpriv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def loaded(module):
        snippet = (
            f"import sys\nimport {module}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('leastpriv', 'yaml')))\n"
        )
        env = {**os.environ, "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-c", snippet], env=env,
                             capture_output=True, text=True, check=True)
        return run.stdout

    assert loaded("leastpriv.events") == "['leastpriv', 'leastpriv.events']\n"
    # stages meet only at the event model
    assert loaded("leastpriv.emitter") == "['leastpriv', 'leastpriv.emitter', 'leastpriv.events']\n"
    decision = loaded("leastpriv.decision")
    assert "'leastpriv.decision'" in decision
    assert "'leastpriv.monitor'" not in decision and "'leastpriv.emitter'" not in decision
