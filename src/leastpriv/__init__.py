"""Least-privilege container policies from emulated-environment traces.

The pipeline: describe launch-option grammars (options), compose
environments and plans (environment), replay collector traces into
per-namespace event counts (monitor), discover environment-sensitive
events by option mutation and pair inference (explorer, simharness),
score and synthesize policies under operator targets (decision), and
render seccomp profiles plus capability flags (emitter).
"""

from .events import (
    CANONICAL_CAPABILITIES,
    KIND_CAPABILITY,
    KIND_SYSCALL,
    EventNameError,
    EventSet,
    canonical_capability,
    canonical_syscall,
)
from .options import (
    OptionCatalog,
    OptionError,
    OptionSpec,
    OptionValue,
    default_catalog,
    integer_bounds,
    load_catalog,
    parse_catalog,
    parse_syntax,
    validate_value,
)
from .environment import (
    WORKLOAD_PRESETS,
    Environment,
    EnvironmentPlan,
    WorkloadSpec,
    baseline_environment,
    combine_workloads,
    compose_environment,
    compose_pair,
    load_plan,
    plan_environments,
    write_plan,
)
from .monitor import (
    TRACE_HEADER,
    NamespaceState,
    Observation,
    TraceFormatError,
    TraceOrderError,
    TraceRecord,
    TraceReplayer,
    event_set_for,
    format_trace,
    ingest_trace,
    parse_trace,
    read_trace,
    replay_trace,
)
from .explorer import (
    EventProbe,
    ExplorationError,
    ExplorationResult,
    InferenceReport,
    MutationConfig,
    command_probe,
    infer_combined_events,
    model_probe,
    mutate_option_values,
    read_log,
    thresholds,
    validate_inference,
    write_log,
)
from .simharness import (
    BehaviorRule,
    InteractionRule,
    SyntheticContainerModel,
    build_pair_corpus,
    build_threshold_probe,
    emit_trace,
    evaluate,
    load_fixture,
    load_model,
)
from .decision import (
    CveDatabase,
    CveEntry,
    Infeasible,
    MitigationRow,
    ObservationStore,
    Policy,
    ScoreTargets,
    append_observation,
    check_mitigation,
    classify_events,
    default_cvedb,
    dump_policy,
    functionality_score,
    load_cvedb,
    load_policy,
    load_store,
    parse_event_list,
    save_store,
    security_score,
    sweep,
    synthesize_policy,
)
from .emitter import (
    emit_capability_flags,
    emit_seccomp_profile,
    parse_seccomp_profile,
)

__version__ = "0.1.0"
