"""Deployable artifacts: seccomp profile JSON and capability flag lists.

The seccomp document follows the Docker/OCI profile shape with an
errno-returning default action, so a denied syscall fails with
"Operation not permitted" instead of killing the container.  Output is
canonical (fixed key order, sorted names, two-space indent, LF, trailing
newline): the same allowed set always renders to the same bytes.
"""

from __future__ import annotations

import json

from .events import CANONICAL_CAPABILITIES, CAP_PREFIX, EventSet, listed, quoted

__all__ = [
    "EmitError",
    "DEFAULT_ARCHITECTURES",
    "emit_seccomp_profile",
    "parse_seccomp_profile",
    "emit_capability_flags",
]

DEFAULT_ARCHITECTURES = ("SCMP_ARCH_X86_64", "SCMP_ARCH_X86", "SCMP_ARCH_X32")


class EmitError(ValueError):
    pass


def emit_seccomp_profile(allowed: EventSet) -> str:
    doc = {
        "defaultAction": "SCMP_ACT_ERRNO",
        "architectures": list(DEFAULT_ARCHITECTURES),
        "syscalls": [],
    }
    if allowed.syscalls:
        doc["syscalls"].append(
            {"names": sorted(allowed.syscalls), "action": "SCMP_ACT_ALLOW"}
        )
    return json.dumps(doc, indent=2) + "\n"


def parse_seccomp_profile(text: str) -> frozenset[str]:
    """Validate an emitted profile and recover its allowed syscall set."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EmitError(f"profile is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise EmitError("profile must be a JSON object")
    if doc.get("defaultAction") != "SCMP_ACT_ERRNO":
        raise EmitError(f"unexpected defaultAction {quoted(doc.get('defaultAction'))}")
    if not isinstance(doc.get("architectures"), list):
        raise EmitError("profile needs an architectures list")
    rules = doc.get("syscalls")
    if not isinstance(rules, list):
        raise EmitError("profile needs a syscalls list")
    names: set[str] = set()
    for rule in rules:
        if not isinstance(rule, dict) or rule.get("action") != "SCMP_ACT_ALLOW":
            raise EmitError(f"unexpected syscall rule {quoted(rule)}")
        rule_names = rule.get("names")
        if not isinstance(rule_names, list) or not all(
            isinstance(name, str) and name for name in rule_names
        ):
            raise EmitError(f"malformed names in rule {quoted(rule)}")
        names.update(rule_names)
    return frozenset(names)


def emit_capability_flags(allowed: EventSet) -> list[str]:
    """--cap-drop=ALL plus one --cap-add per allowed capability, sorted."""
    unknown = sorted(allowed.capabilities - CANONICAL_CAPABILITIES)
    if unknown:
        raise EmitError(f"not Linux capabilities: {listed(unknown, 'name')}")
    flags = ["--cap-drop=ALL"]
    for name in sorted(allowed.capabilities):
        flags.append(f"--cap-add={name[len(CAP_PREFIX):]}")
    return flags
