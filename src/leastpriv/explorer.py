"""Event discovery: option value mutation and union-composition inference.

The mutation loop sweeps one integer-typed option through its domain with
an adaptive step.  Finding few new events widens the step (scaled by r
with a Gaussian perturbation), finding many shrinks it; both thresholds
decay exponentially with the iteration count so late discoveries keep
the sweep slow.  An occasional random reset re-seeds the position so a
single overshoot cannot end the run early.  The whole loop is driven by
one seeded generator and is exactly reproducible.

Pair inference avoids probing combined environments: the union of two
factors' event sets stands in for the pair, and validate_inference
measures how often that heuristic is exact.
"""

from __future__ import annotations

import io
import math
import random
import subprocess
from dataclasses import dataclass, fields
from typing import Callable, Optional, get_type_hints

from ._files import MAX_DIGITS, not_utf8, replacing, too_long
from .environment import Environment, compose_environment, compose_pair
from .events import EventSet, os_error_text, quoted
from .monitor import TraceFormatError, _replay_lines
from .options import OptionSpec, validate_value
from .simharness import evaluate as evaluate_model

__all__ = [
    "ExplorerError",
    "ConfigError",
    "ProbeError",
    "ExplorationError",
    "MutationConfig",
    "parse_config_field",
    "thresholds",
    "EventProbe",
    "model_probe",
    "command_probe",
    "ProbeLogEntry",
    "ExplorationResult",
    "mutate_option_values",
    "LOG_HEADER",
    "write_log",
    "InferenceReport",
    "validate_inference",
]

LOG_HEADER = "# mutation-log v1"

# Floor for the growth multiplier r*(1+gauss); keeps a bad Gaussian draw
# from stalling or reversing the sweep.
_GROWTH_FLOOR = 1.1


class ExplorerError(ValueError):
    pass


class ConfigError(ExplorerError):
    pass


class ProbeError(ExplorerError):
    pass


@dataclass(frozen=True)
class MutationConfig:
    """Tunable knobs of the mutation loop.

    step_init defaults to a 64th of the domain width; the threshold
    bases (5 and 10) and the decay rate 0.03 are the published operating
    point.  All values are carried explicitly so a log header can
    reproduce the run bit for bit.
    """

    v_min: int
    v_max: int
    r: float = 2.0
    step_init: Optional[float] = None
    it_max: int = 100
    p: float = 0.05
    t_base_lower: float = 5.0
    t_base_upper: float = 10.0
    decay: float = 0.03
    mu: float = 0.0
    sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.v_min > self.v_max:
            raise ConfigError(f"v_min {quoted(self.v_min)} > v_max {quoted(self.v_max)}")
        if not self.r > 1:
            raise ConfigError(f"scaling factor r must exceed 1, got {self.r}")
        try:
            float(self.v_min), float(self.v_max), float(self.v_max - self.v_min)
        except OverflowError:
            raise ConfigError(f"domain [{quoted(self.v_min)}, {quoted(self.v_max)}] "
                              "is too wide for float positions") from None
        if self.step_init is None:
            object.__setattr__(
                self, "step_init", float(max(1, (self.v_max - self.v_min) // 64))
            )
        if not self.step_init > 0:
            raise ConfigError(f"step_init must be positive, got {self.step_init}")
        if self.it_max < 1:
            raise ConfigError(f"it_max must be at least 1, got {quoted(self.it_max)}")
        if not 0 <= self.p <= 1:
            raise ConfigError(f"reset probability p must be in [0,1], got {self.p}")
        if not self.t_base_lower < self.t_base_upper:
            raise ConfigError(
                f"t_base_lower {self.t_base_lower} must be below "
                f"t_base_upper {self.t_base_upper}"
            )
        if self.decay < 0:
            raise ConfigError(f"decay must be non-negative, got {self.decay}")
        if self.sigma < 0:
            raise ConfigError(f"sigma must be non-negative, got {self.sigma}")


_CONFIG_FIELDS = tuple(f.name for f in fields(MutationConfig))
# Every field not annotated int is a float.
_INTEGER_FIELDS = frozenset(
    name for name, kind in get_type_hints(MutationConfig).items() if kind is int
)


def parse_config_field(token: str) -> tuple[str, object]:
    """Decode one `name=value` MutationConfig field of `explore --config`."""
    name, sep, text = token.partition("=")
    if not sep or name not in _CONFIG_FIELDS:
        known = ", ".join(sorted(_CONFIG_FIELDS))
        raise ConfigError(f"bad config entry {quoted(token)} (fields: {known})")
    if name in _INTEGER_FIELDS and len(text) > MAX_DIGITS:
        raise ConfigError(f"bad config value for {name}: {too_long(text)}")
    try:
        return name, int(text) if name in _INTEGER_FIELDS else float(text)
    except ValueError:
        raise ConfigError(f"bad config value {quoted(token)}") from None


def thresholds(config: MutationConfig, iteration: int) -> tuple[float, float]:
    """Decayed (t_lower, t_upper) for one iteration."""
    factor = math.exp(-config.decay * iteration)
    return config.t_base_lower * factor, config.t_base_upper * factor


class EventProbe:
    """Memoizing evaluator (environment, option value) -> EventSet.

    `evaluations` counts underlying evaluator calls; memo hits are free.
    Any evaluator failure surfaces as ProbeError.
    """

    def __init__(self, evaluator: Callable[[Environment, Optional[int]], EventSet], name: str = "probe"):
        self._evaluator = evaluator
        self._memo: dict[tuple[str, Optional[int]], EventSet] = {}
        self.name = name
        self.evaluations = 0

    def evaluate(self, env: Environment, value: Optional[int] = None) -> EventSet:
        key = (env.id, value)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        self.evaluations += 1
        try:
            result = self._evaluator(env, value)
        except ProbeError:
            raise
        except Exception as exc:
            detail = os_error_text(exc) if isinstance(exc, OSError) else exc
            raise ProbeError(f"{quoted(self.name)}: probe failed: {detail}") from exc
        if not isinstance(result, EventSet):
            raise ProbeError(
                f"{quoted(self.name)}: probe returned {type(result).__name__}, not an event set"
            )
        self._memo[key] = result
        return result


def model_probe(model, option_spec: Optional[OptionSpec] = None) -> EventProbe:
    """Probe backed by an in-process synthetic model.

    With an option_spec, integer probe values are bound onto the probed
    environment as that option; without one, only value-free evaluation
    is allowed.
    """

    def evaluator(env: Environment, value: Optional[int]) -> EventSet:
        target = env
        if value is not None:
            if option_spec is None:
                raise ProbeError("probe has no option bound for value mutation")
            bound = validate_value(option_spec, str(value))
            target = compose_environment([*env.options, bound], env.workload)
        return evaluate_model(model, target)

    return EventProbe(evaluator, name=model.name)


def command_probe(command: list[str]) -> EventProbe:
    """Probe that shells out to an external collector per evaluation.

    The command must print a `beacon-trace v1` stream on stdout, whose
    lines end only at newlines, as in a trace file; events are unioned
    across all namespaces it reports.  Occurrences of {option_value} and
    {env_id} in the argument list are substituted before each run.
    """
    if not command:
        raise ProbeError("empty probe command")

    def evaluator(env: Environment, value: Optional[int]) -> EventSet:
        argv = [
            arg.replace("{option_value}", "" if value is None else str(value)).replace(
                "{env_id}", env.id
            )
            for arg in command
        ]
        proc = subprocess.run(argv, capture_output=True)
        if proc.returncode != 0:
            raise ProbeError(
                f"probe command {quoted(argv[0])} exited {proc.returncode}: "
                f"{quoted(proc.stderr.decode('utf-8', 'replace').strip())}"
            )
        try:  # UTF-8 whatever the locale, as a trace file is read
            lines = io.StringIO(proc.stdout.decode("utf-8"), newline=None)
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"{quoted(argv[0])}: {not_utf8(exc)}") from None
        combined = EventSet.empty()
        for state in _replay_lines(lines, quoted(argv[0])).values():
            combined = combined | EventSet(state.syscalls, state.capabilities)
        return combined

    return EventProbe(evaluator, name=command[0])


@dataclass(frozen=True)
class ProbeLogEntry:
    iteration: int
    value: int
    step: float
    new_events: int


@dataclass(frozen=True)
class ExplorationResult:
    events: EventSet
    log: tuple[ProbeLogEntry, ...]
    warnings: tuple[str, ...]
    evaluations: int


class ExplorationError(ExplorerError):
    """Probe failure mid-run; carries everything gathered so far."""

    def __init__(self, message: str, events: EventSet, log: tuple[ProbeLogEntry, ...], warnings: tuple[str, ...]):
        super().__init__(message)
        self.events = events
        self.log = log
        self.warnings = warnings


def mutate_option_values(
    env: Environment, config: MutationConfig, probe: EventProbe
) -> ExplorationResult:
    """Adaptive sweep of one option's integer domain.

    Starts at a uniform value, probes, and walks right: fewer than
    t_lower new events grows the step by r*(1 + N(mu, sigma)) (floored
    at 1.1), at least t_upper new events shrinks it by r, in between it
    stays.  A degenerate step (non-positive or non-finite) is clamped to
    1 with a warning.  After each move the position resets to a fresh
    uniform value with probability p.  Stops once the real-valued
    position passes v_max or it_max iterations ran.  The log records
    each iteration's probed value, the step as updated by that
    iteration, and the new-event count.
    """
    rng = random.Random(config.seed)
    start = rng.randint(config.v_min, config.v_max)
    shadow = float(start)
    step = float(config.step_init)
    events = EventSet.empty()
    log: list[ProbeLogEntry] = []
    warnings: list[str] = []
    iteration = 0
    before = probe.evaluations

    while shadow <= config.v_max and iteration < config.it_max:
        value = int(round(shadow))
        try:
            observed = probe.evaluate(env, value)
        except ProbeError as exc:
            raise ExplorationError(
                f"iteration {iteration}: {exc}",
                events,
                tuple(log),
                tuple(warnings),
            ) from exc
        t_lower, t_upper = thresholds(config, iteration)
        new_count = len(observed - events)
        if new_count < t_lower:
            step *= max(config.r * (1.0 + rng.gauss(config.mu, config.sigma)), _GROWTH_FLOOR)
        elif new_count >= t_upper:
            step /= config.r
        if not math.isfinite(step) or step <= 0:
            warnings.append(
                f"iteration {iteration}: degenerate step {step!r} clamped to 1"
            )
            step = 1.0
        shadow += step
        if rng.random() < config.p:
            shadow = float(rng.randint(config.v_min, config.v_max))
        events = events | observed
        log.append(ProbeLogEntry(iteration, value, step, new_count))
        iteration += 1

    return ExplorationResult(
        events, tuple(log), tuple(warnings), probe.evaluations - before
    )


# -- log files ---------------------------------------------------------------


def _format_config(config: MutationConfig) -> str:
    parts = []
    for f in fields(config):
        value = getattr(config, f.name)
        parts.append(f"{f.name}={value!r}")
    return "# config " + " ".join(parts)


def write_log(config: MutationConfig, result: ExplorationResult, path) -> None:
    """Log file: version line, config echo, warnings, then one record per probe."""
    with replacing(path) as handle:
        handle.write(LOG_HEADER + "\n")
        handle.write(_format_config(config) + "\n")
        for warning in result.warnings:
            handle.write(f"# warning: {warning}\n")
        for entry in result.log:
            handle.write(
                f"{entry.iteration} {entry.value} {entry.step!r} {entry.new_events}\n"
            )


# -- pair inference ----------------------------------------------------------


@dataclass(frozen=True)
class InferenceReport:
    """Union heuristic vs. a real combined probe.

    delta is the symmetric-difference cardinality; size_delta the signed
    set-size difference (combined minus union), which is what a pure
    size comparison of the two sets would report.
    """

    exact: bool
    delta: int
    size_delta: int
    combined: EventSet
    union: EventSet


def validate_inference(
    probe: EventProbe,
    baseline: Environment,
    factor_1: Environment,
    factor_2: Environment,
) -> InferenceReport:
    env_1 = compose_pair(baseline, factor_1)
    env_2 = compose_pair(baseline, factor_2)
    combined_env = compose_pair(env_1, factor_2)
    union = probe.evaluate(env_1) | probe.evaluate(env_2)
    combined = probe.evaluate(combined_env)
    return InferenceReport(
        exact=combined == union,
        delta=len(combined ^ union),
        size_delta=len(combined) - len(union),
        combined=combined,
        union=union,
    )
