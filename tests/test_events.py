"""Event name canonicalization."""

import sys

import pytest

from leastpriv.events import EventNameError, canonical_capability, canonical_syscall

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
