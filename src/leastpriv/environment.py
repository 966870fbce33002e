"""Execution environments: option bindings plus an optional workload.

An environment is the unit everything downstream keys on: traces are
labeled with an environment id, observation stores map environment ids to
event sets, and plans enumerate which environments get executed versus
inferred.  The id is a 128-bit blake2b digest of a canonical text
serialization, so identical contents always produce identical ids
regardless of construction order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from itertools import combinations
from typing import Iterable, Optional, Sequence

from ._files import dump_yaml, load_yaml
from .events import MAX_QUOTED_TEXT, quoted
from .options import (
    OptionCatalog,
    OptionError,
    OptionValue,
    validate_value,
)

__all__ = [
    "WorkloadSpec",
    "WORKLOAD_PRESETS",
    "combine_workloads",
    "Environment",
    "EnvironmentError",
    "PlanError",
    "PlanFormatError",
    "compose_environment",
    "compose_pair",
    "baseline_environment",
    "EnvironmentPlan",
    "plan_environments",
    "write_plan",
    "load_plan",
    "environment_to_doc",
    "environment_from_doc",
    "doc_list",
]

OPERATION_CAP = 100_000


class EnvironmentError(ValueError):
    pass


class PlanError(EnvironmentError):
    pass


class PlanFormatError(PlanError):
    pass


@dataclass(frozen=True)
class WorkloadSpec:
    """Operation mix and query properties for one benchmark run."""

    read_ops: int = 0
    update_ops: int = 0
    scan_ops: int = 0
    insert_ops: int = 0
    delete_ops: int = 0
    field_count: int = 10
    field_length: int = 100
    thread_count: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise EnvironmentError(f"workload field {f.name} must be an integer")
            if value < 0 or value > OPERATION_CAP:
                raise EnvironmentError(
                    f"workload field {f.name}={quoted(value)} outside [0, {OPERATION_CAP}]"
                )
        if not any(
            getattr(self, name) > 0
            for name in ("read_ops", "update_ops", "scan_ops", "insert_ops", "delete_ops")
        ):
            raise EnvironmentError("workload needs at least one positive operation count")
        for name in ("field_count", "field_length", "thread_count"):
            if getattr(self, name) < 1:
                raise EnvironmentError(f"workload field {name} must be positive")


# The eight stock workloads: single-operation focus (W1-W5), wide records
# (W6), long records (W7), and high client concurrency (W8).
WORKLOAD_PRESETS: dict[str, WorkloadSpec] = {
    "W1": WorkloadSpec(read_ops=1000, insert_ops=1000),
    "W2": WorkloadSpec(update_ops=1000, insert_ops=1000),
    "W3": WorkloadSpec(scan_ops=1000, insert_ops=1000),
    "W4": WorkloadSpec(insert_ops=1000),
    "W5": WorkloadSpec(insert_ops=1000, delete_ops=1000),
    "W6": WorkloadSpec(read_ops=1000, insert_ops=1000, field_count=500),
    "W7": WorkloadSpec(read_ops=1000, insert_ops=1000, field_length=10000),
    "W8": WorkloadSpec(read_ops=1000, insert_ops=1000, thread_count=500),
}


def combine_workloads(first: WorkloadSpec, second: WorkloadSpec) -> WorkloadSpec:
    """Merge two workloads field-wise by max.

    Used when a plan pairs two workload factors: the combination must
    still trigger every at-least-threshold behavior either one triggered.
    """
    merged = {
        f.name: max(getattr(first, f.name), getattr(second, f.name))
        for f in fields(first)
    }
    return WorkloadSpec(**merged)


@dataclass(frozen=True)
class Environment:
    options: tuple[OptionValue, ...]
    workload: Optional[WorkloadSpec] = None

    @cached_property
    def id(self) -> str:
        import hashlib  # here, not at the top: only plans and explorations hash an environment

        digest = hashlib.blake2b(self.canonical_text().encode("utf-8"), digest_size=16)
        return digest.hexdigest()

    def canonical_text(self) -> str:
        lines = ["environment v1"]
        for value in self.options:
            lines.append(f"option {value.name}={value.text}")
        if self.workload is not None:
            w = self.workload
            lines.append(
                "workload"
                f" read={w.read_ops} update={w.update_ops} scan={w.scan_ops}"
                f" insert={w.insert_ops} delete={w.delete_ops}"
                f" field_count={w.field_count} field_length={w.field_length}"
                f" threads={w.thread_count}"
            )
        return "\n".join(lines) + "\n"

    def option_value(self, name: str) -> Optional[OptionValue]:
        for value in self.options:
            if value.name == name:
                return value
        return None


def compose_environment(
    options: Iterable[OptionValue] = (),
    workload: Optional[WorkloadSpec] = None,
) -> Environment:
    """Build an environment, sorting options and rejecting duplicates."""
    ordered = sorted(options, key=lambda v: v.name)
    seen: set[str] = set()
    for value in ordered:
        if value.name in seen:
            raise EnvironmentError(f"option {quoted(value.name)} bound twice")
        seen.add(value.name)
    return Environment(tuple(ordered), workload)


def baseline_environment() -> Environment:
    return compose_environment()


def compose_pair(first: Environment, second: Environment) -> Environment:
    """Combine two factor environments into their joint environment."""
    workload = first.workload
    if second.workload is not None:
        workload = (
            second.workload
            if workload is None
            else combine_workloads(workload, second.workload)
        )
    return compose_environment(first.options + second.options, workload)


def _is_single_factor(env: Environment) -> bool:
    return len(env.options) + (env.workload is not None) == 1


@dataclass(frozen=True)
class EnvironmentPlan:
    """Baseline plus singleton factors; pair behavior is inferred, not run."""

    baseline: Environment
    factors: tuple[Environment, ...]

    @property
    def pairs(self) -> tuple[tuple[Environment, Environment], ...]:
        """Every unordered factor pair, in factor order, the smaller id first."""
        return tuple(
            (a, b) if a.id < b.id else (b, a) for a, b in combinations(self.factors, 2)
        )


def plan_environments(
    factors: Sequence[Environment],
    baseline: Optional[Environment] = None,
) -> EnvironmentPlan:
    """Plan execution for a factor set.

    Every factor must vary exactly one thing relative to the baseline
    (one option binding, or one workload).  Executed environments are the
    baseline plus each factor alone; every unordered factor pair is
    recorded for union inference instead of execution.
    """
    base = baseline if baseline is not None else baseline_environment()
    seen_ids: set[str] = set()
    seen_options: set[str] = set()
    for factor in factors:
        if not _is_single_factor(factor):
            raise PlanError(f"factor {quoted(factor.canonical_text(), MAX_QUOTED_TEXT)} "
                            "must vary exactly one option or one workload")
        if factor.id in seen_ids:
            raise PlanError(f"factor {quoted(factor.canonical_text(), MAX_QUOTED_TEXT)} "
                            "listed twice")
        seen_ids.add(factor.id)
        if factor.options:
            name = factor.options[0].name
            if name in seen_options:
                raise PlanError(f"two factors vary the same option {quoted(name)}")
            seen_options.add(name)
    return EnvironmentPlan(base, tuple(factors))


# --- plan file -------------------------------------------------------------


def doc_list(doc: dict, key: str, error: type[ValueError]) -> list:
    """A list field of an untrusted YAML mapping; missing or empty reads as []."""
    value = doc.get(key) or []
    if not isinstance(value, list):
        raise error(f"{key} must be a list, got {quoted(value)}")
    return value


def environment_to_doc(env: Environment) -> dict:
    doc: dict = {
        "options": [
            {"name": v.name, "value": v.text} for v in env.options
        ],
        "workload": None,
    }
    if env.workload is not None:
        doc["workload"] = {f.name: getattr(env.workload, f.name) for f in fields(env.workload)}
    return doc


_WORKLOAD_FIELDS = frozenset(f.name for f in fields(WorkloadSpec))


def environment_from_doc(doc: dict, catalog: OptionCatalog) -> Environment:
    if not isinstance(doc, dict):
        raise PlanFormatError(f"environment entry must be a mapping, got {quoted(doc)}")
    values = []
    for entry in doc_list(doc, "options", PlanFormatError):
        try:
            spec, raw = catalog[entry["name"]], entry["value"]
            if not isinstance(raw, str):
                raise PlanFormatError(
                    f"option {quoted(spec.name)}: value {quoted(raw)} is not a string; "
                    "quote it in the plan"
                )
            values.append(validate_value(spec, raw))
        except (KeyError, TypeError) as exc:
            raise PlanFormatError(f"bad option entry {quoted(entry)}") from exc
        except OptionError as exc:
            raise PlanFormatError(str(exc)) from exc
    workload_doc = doc.get("workload")
    workload = None
    if workload_doc is not None:
        if not isinstance(workload_doc, dict) or not set(workload_doc) <= _WORKLOAD_FIELDS:
            raise PlanFormatError(f"bad workload entry {quoted(workload_doc)}: "
                                  f"expected a mapping of {', '.join(sorted(_WORKLOAD_FIELDS))}")
        try:
            workload = WorkloadSpec(**workload_doc)
        except EnvironmentError as exc:
            raise PlanFormatError(f"bad workload entry {quoted(workload_doc)}: {exc}") from exc
    return compose_environment(values, workload)


def write_plan(plan: EnvironmentPlan, path) -> None:
    doc = {
        "plan_version": 1,
        "baseline": environment_to_doc(plan.baseline),
        "factors": [
            {"id": factor.id, **environment_to_doc(factor)} for factor in plan.factors
        ],
        "pairs": [[a.id, b.id] for a, b in plan.pairs],
    }
    dump_yaml(doc, path)


def load_plan(path, catalog: OptionCatalog) -> EnvironmentPlan:
    doc = load_yaml(path, PlanFormatError)
    if not isinstance(doc, dict) or doc.get("plan_version") != 1:
        raise PlanFormatError(f"{path}: not a plan_version 1 document")
    baseline = environment_from_doc(doc.get("baseline") or {}, catalog)
    factors = []
    for entry in doc_list(doc, "factors", PlanFormatError):
        factor = environment_from_doc(entry, catalog)
        declared = entry.get("id")
        if declared is not None and declared != factor.id:
            raise PlanFormatError(
                f"{path}: factor id {quoted(declared)} does not match contents ({factor.id})"
            )
        factors.append(factor)
    plan = plan_environments(factors, baseline)
    declared_pairs = []
    for pair in doc_list(doc, "pairs", PlanFormatError):
        is_pair = isinstance(pair, list) and len(pair) == 2
        if not is_pair or not all(isinstance(factor_id, str) for factor_id in pair):
            raise PlanFormatError(f"{path}: pair {quoted(pair)} is not two factor ids")
        declared_pairs.append(tuple(pair))
    if declared_pairs and sorted(declared_pairs) != sorted((a.id, b.id) for a, b in plan.pairs):
        raise PlanFormatError(f"{path}: pair list does not match the factor set")
    return plan
