"""Synthetic container models: deterministic environment -> event-set maps.

A model stands in for a real container image.  It owns a base event set
(startup behavior in the baseline environment) and ordered rules that add
events when a trigger matches the environment: an option being present,
an option value equal to a literal or inside an integer range, a workload
being applied, or a workload field clearing a threshold.  Interaction
rules fire only when two triggers match at once; they exist to exercise
code paths where a combined environment is not the union of its factors.

Evaluating a model is one union per probe: the adds of every matched rule
are collected, then joined onto the base events with one union per event
kind, so a probe copies the event set once, however many rules match.
A model groups its integer-range rules by option once, when it is first
evaluated, so a probe looks each such option up in the environment once
and compares its value with plain integers; only the other rules are
asked to match one by one.  That keeps the whole pipeline at desk scale:
emit_trace turns an evaluation into a collector stream that replays
through the monitor to exactly the evaluated set.
"""

from __future__ import annotations

import importlib.resources
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Union, get_type_hints

from ._files import load_yaml
from .environment import (
    _WORKLOAD_FIELDS,
    WORKLOAD_PRESETS,
    Environment,
    compose_environment,
    doc_list,
)
from .events import KIND_SYSCALL, EventSet, quoted
from .monitor import TraceRecord, format_trace
from .options import default_catalog, integer_bounds, validate_value

__all__ = [
    "ModelError",
    "OptionPresent",
    "OptionValueEquals",
    "OptionValueInRange",
    "WorkloadPresent",
    "WorkloadFieldAtLeast",
    "Predicate",
    "BehaviorRule",
    "InteractionRule",
    "SyntheticContainerModel",
    "evaluate",
    "emit_trace",
    "model_from_doc",
    "load_model",
    "load_fixture",
    "FIXTURE_NAMES",
    "PairCase",
    "build_pair_corpus",
    "ProbePlan",
    "build_threshold_probe",
]

MODEL_VERSION = 1
FIXTURE_NAMES = ("redis", "nginx")


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class OptionPresent:
    option: str

    def matches(self, env: Environment) -> bool:
        return env.option_value(self.option) is not None


@dataclass(frozen=True)
class OptionValueEquals:
    """Matches when the option is bound and its canonical text is exactly `value`."""

    option: str
    value: str

    def matches(self, env: Environment) -> bool:
        bound = env.option_value(self.option)
        return bound is not None and bound.text == self.value


@dataclass(frozen=True)
class OptionValueInRange:
    """Matches options bound to an integer with lo <= value <= hi."""

    option: str
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ModelError(f"empty range [{quoted(self.lo)}, {quoted(self.hi)}]")

    def matches(self, env: Environment) -> bool:
        bound = env.option_value(self.option)
        if bound is None or bound.number is None:
            return False
        return self.lo <= bound.number <= self.hi


@dataclass(frozen=True)
class WorkloadPresent:
    def matches(self, env: Environment) -> bool:
        return env.workload is not None


@dataclass(frozen=True)
class WorkloadFieldAtLeast:
    field: str
    threshold: int

    def __post_init__(self):
        if self.field not in _WORKLOAD_FIELDS:
            raise ModelError(f"unknown workload field {quoted(self.field)}")

    def matches(self, env: Environment) -> bool:
        if env.workload is None:
            return False
        return getattr(env.workload, self.field) >= self.threshold


Predicate = Union[
    OptionPresent,
    OptionValueEquals,
    OptionValueInRange,
    WorkloadPresent,
    WorkloadFieldAtLeast,
]


@dataclass(frozen=True)
class BehaviorRule:
    trigger: Predicate
    adds: EventSet


@dataclass(frozen=True)
class InteractionRule:
    first: Predicate
    second: Predicate
    adds: EventSet


@dataclass(frozen=True)
class SyntheticContainerModel:
    name: str
    base_events: EventSet
    rules: tuple[BehaviorRule, ...] = ()
    interaction_rules: tuple[InteractionRule, ...] = ()

    @cached_property
    def _grouped(self) -> tuple[dict[str, list[tuple[int, int, EventSet]]], list[BehaviorRule]]:
        """The `(lo, hi, adds)` of each range rule by option, and every other rule."""
        ranges: dict[str, list[tuple[int, int, EventSet]]] = {}
        others = []
        for rule in self.rules:
            trigger = rule.trigger
            if type(trigger) is OptionValueInRange:
                ranges.setdefault(trigger.option, []).append((trigger.lo, trigger.hi, rule.adds))
            else:
                others.append(rule)
        return ranges, others


def evaluate(model: SyntheticContainerModel, env: Environment) -> EventSet:
    """Deterministic event set: base plus the adds of every matched rule and
    matched interaction rule.

    Each option with range rules is looked up once and its integer value
    compared with their bounds; every other rule is matched on its own.
    One union per kind then builds the result, so a probe copies the event
    set once however many rules match.
    """
    ranges, others = model._grouped
    adds = []
    for option, group in ranges.items():
        bound = env.option_value(option)
        if bound is not None and (number := bound.number) is not None:
            adds += [added for lo, hi, added in group if lo <= number <= hi]
    adds += [rule.adds for rule in others if rule.trigger.matches(env)]
    adds += [
        rule.adds
        for rule in model.interaction_rules
        if rule.first.matches(env) and rule.second.matches(env)
    ]
    base = model.base_events
    if not adds:
        return base
    return EventSet(
        base.syscalls.union(*(added.syscalls for added in adds)),
        base.capabilities.union(*(added.capabilities for added in adds)),
    )


def emit_trace(
    model: SyntheticContainerModel,
    env: Environment,
    namespace_id: int = 1,
    seed: int = 0,
) -> str:
    """Render evaluate(model, env) as a collector stream.

    The runtime preamble appears first: unshare creates the namespace,
    capset drops capabilities, prctl installs the syscall filter.  capset
    must precede prctl so that no preamble syscall lands after the filter
    marker; replay therefore reproduces the evaluated set exactly.  The
    evaluated events follow in seeded-shuffled order with strictly
    increasing timestamps, so equal (model, env, seed) gives a
    byte-identical stream.
    """
    events = list(evaluate(model, env).events())
    random.Random(seed).shuffle(events)
    preamble = [(KIND_SYSCALL, marker) for marker in ("unshare", "capset", "prctl")]
    return format_trace(
        TraceRecord(1_000 * (index + 1), namespace_id, kind, name)
        for index, (kind, name) in enumerate(preamble + events)
    )


# -- model files ------------------------------------------------------------


# The trigger kinds whose body is a mapping of their class's fields.
_BODY_TRIGGERS = {
    key: (cls, get_type_hints(cls))
    for key, cls in (
        ("option_value_equals", OptionValueEquals),
        ("option_value_in_range", OptionValueInRange),
        ("workload_field_at_least", WorkloadFieldAtLeast),
    )
}


def _predicate_from_doc(doc) -> Predicate:
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ModelError(f"bad trigger {quoted(doc)}: expected a single-key mapping")
    key, body = next(iter(doc.items()))
    if key == "option_present":
        if not isinstance(body, str):
            raise ModelError("option_present takes an option name")
        return OptionPresent(body)
    if key == "workload_present":
        return WorkloadPresent()
    if key not in _BODY_TRIGGERS:
        raise ModelError(f"unknown trigger kind {quoted(key)}")
    cls, types = _BODY_TRIGGERS[key]
    values = []
    for name, kind in types.items():
        try:
            value = body[name]
        except (TypeError, KeyError):
            raise ModelError(f"bad {key} body {quoted(body)}") from None
        if type(value) is not kind:  # so a bool is no int, and a number no string
            noun = "an integer" if kind is int else "a string"
            raise ModelError(f"{key} {name} must be {noun}, got {quoted(value)}")
        values.append(value)
    return cls(*values)


def model_from_doc(doc) -> SyntheticContainerModel:
    if not isinstance(doc, dict):
        raise ModelError("model document must be a mapping")
    version = doc.get("model_version")
    if version != MODEL_VERSION:
        raise ModelError(f"unsupported model_version {quoted(version)}, expected {MODEL_VERSION}")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ModelError("model needs a non-empty name")
    rules = []
    for entry in doc_list(doc, "rules", ModelError):
        if not isinstance(entry, dict) or "when" not in entry:
            raise ModelError(f"bad rule entry {quoted(entry)}")
        rules.append(
            BehaviorRule(_predicate_from_doc(entry["when"]), EventSet.from_doc(entry.get("adds")))
        )
    interactions = []
    for entry in doc_list(doc, "interaction_rules", ModelError):
        if not isinstance(entry, dict):
            raise ModelError(f"bad interaction entry {quoted(entry)}")
        when = entry.get("when")
        if not isinstance(when, list) or len(when) != 2:
            raise ModelError("interaction rule needs exactly two triggers")
        interactions.append(
            InteractionRule(
                _predicate_from_doc(when[0]),
                _predicate_from_doc(when[1]),
                EventSet.from_doc(entry.get("adds")),
            )
        )
    return SyntheticContainerModel(
        name, EventSet.from_doc(doc.get("base_events")), tuple(rules), tuple(interactions)
    )


def load_model(path) -> SyntheticContainerModel:
    return model_from_doc(load_yaml(path, ModelError))


def load_fixture(name: str) -> SyntheticContainerModel:
    """Load one of the shipped models (redis, nginx) from package data."""
    if name not in FIXTURE_NAMES:
        raise ModelError(f"unknown fixture {quoted(name)}, have {', '.join(FIXTURE_NAMES)}")
    resource = importlib.resources.files("leastpriv").joinpath(
        f"data/fixtures/{name}.yaml"
    )
    with importlib.resources.as_file(resource) as path:
        return model_from_doc(load_yaml(path, ModelError))


# -- generated corpora ------------------------------------------------------


@dataclass(frozen=True)
class PairCase:
    """One model plus a factor pair for union-inference validation."""

    model: SyntheticContainerModel
    factor_a: Environment
    factor_b: Environment
    interacting: bool


_EXTRA_BASE_POOL = (
    "futex",
    "nanosleep",
    "getrandom",
    "dup2",
    "pipe2",
    "lseek",
    "uname",
    "getcwd",
)


def build_pair_corpus(seed: int = 20240601) -> list[PairCase]:
    """Corpus of 384 (model, factor, factor) cases for inference validation.

    64 models cross 4 single-change factors (tty, interactive, W1, W2)
    taken two at a time.  Models 0..47 carry an interaction rule on pair
    indices 0, 2 and 4 whose added event appears only in the combined
    environment, so exactly 240 of the 384 cases are union-exact and the
    144 interacting cases differ by that single event.
    """
    catalog = default_catalog()
    rng = random.Random(seed)

    tty = compose_environment([validate_value(catalog["tty"], "true")])
    interactive = compose_environment([validate_value(catalog["interactive"], "true")])
    w_read = compose_environment(workload=WORKLOAD_PRESETS["W1"])
    w_update = compose_environment(workload=WORKLOAD_PRESETS["W2"])
    factors = (tty, interactive, w_read, w_update)
    triggers: tuple[Predicate, ...] = (
        OptionPresent("tty"),
        OptionPresent("interactive"),
        WorkloadFieldAtLeast("read_ops", 1),
        WorkloadFieldAtLeast("update_ops", 1),
    )
    pair_indices = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    interacting_pairs = (0, 2, 4)

    cases: list[PairCase] = []
    for m in range(64):
        base = EventSet.of(
            ["read", "close", f"core_{m}"]
            + rng.sample(_EXTRA_BASE_POOL, rng.randint(1, 3))
        )
        rules = tuple(
            BehaviorRule(trigger, EventSet.of([f"probe_{m}_{i}"]))
            for i, trigger in enumerate(triggers)
        )
        interactions = ()
        if m < 48:
            interactions = tuple(
                InteractionRule(
                    triggers[pair_indices[k][0]],
                    triggers[pair_indices[k][1]],
                    EventSet.of([f"mix_{m}_{k}"]),
                )
                for k in interacting_pairs
            )
        model = SyntheticContainerModel(
            f"pair_model_{m}", base, rules, interactions
        )
        for k, (i, j) in enumerate(pair_indices):
            cases.append(
                PairCase(model, factors[i], factors[j], m < 48 and k in interacting_pairs)
            )
    return cases


@dataclass(frozen=True)
class ProbePlan:
    """A piecewise probe target for exercising the mutation loop.

    The model's behavior over `option` is piecewise constant on the
    integer domain [lo, hi]; `cut_values` lists every value where the
    event set can change, so probing {lo} ∪ cut_values enumerates all
    pieces and their union is the exact ground truth.
    """

    model: SyntheticContainerModel
    option: str
    lo: int
    hi: int
    cut_values: tuple[int, ...]

    def ground_truth(self) -> EventSet:
        spec = default_catalog()[self.option]
        truth = EventSet.empty()
        for value in sorted({self.lo, *self.cut_values}):
            env = compose_environment([validate_value(spec, str(value))])
            truth = truth | evaluate(self.model, env)
        return truth


def build_threshold_probe(seed: int) -> ProbePlan:
    """Random stepped probe over the cpu-shares domain, max 5 breakpoints.

    Nested thresholds each add a unique event from their breakpoint
    upward; 30% of plans also hide one event inside a wide band whose
    right edge sits near the top of the domain.  Both shapes keep every
    event discoverable by a rightward sweep: nesting means any probe at
    or past a breakpoint finds it, and the band is wide and high enough
    that a pass across the upper half lands inside.
    """
    rng = random.Random(seed)
    option = "cpu-shares"
    lo, hi = integer_bounds(default_catalog()[option].syntax)
    span = hi - lo

    with_band = rng.random() < 0.3
    count = rng.randint(1, 3 if with_band else 5)
    low_cut = lo + max(1, span // 50)
    high_cut = lo + int(span * 0.55)
    breakpoints = sorted(rng.sample(range(low_cut, high_cut), count))
    rules = [
        BehaviorRule(
            OptionValueInRange(option, point, hi), EventSet.of([f"step_{i}"])
        )
        for i, point in enumerate(breakpoints)
    ]
    cuts = set(breakpoints)

    if with_band:
        width = rng.randint(int(span * 0.40), int(span * 0.55))
        band_hi = rng.randint(lo + int(span * 0.95), hi)
        band_lo = max(lo, band_hi - width)
        rules.append(
            BehaviorRule(
                OptionValueInRange(option, band_lo, band_hi), EventSet.of(["band_evt"])
            )
        )
        cuts.update((band_lo, min(band_hi + 1, hi)))

    model = SyntheticContainerModel(
        f"probe_{seed}", EventSet.of(["read", "close"]), tuple(rules)
    )
    return ProbePlan(model, option, lo, hi, tuple(sorted(cuts)))
