"""Synthetic container models: evaluation, trace emission, corpora."""

import random

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from leastpriv.environment import (
    _WORKLOAD_FIELDS,
    WORKLOAD_PRESETS,
    Environment,
    baseline_environment,
    compose_environment,
    compose_pair,
    plan_environments,
)
from leastpriv.events import EventSet
from leastpriv.explorer import MutationConfig, model_probe, mutate_option_values
from leastpriv.monitor import ingest_trace, parse_trace
from leastpriv.options import default_catalog, validate_value
from leastpriv.simharness import (
    BehaviorRule,
    FIXTURE_NAMES,
    InteractionRule,
    ModelError,
    OptionPresent,
    OptionValueEquals,
    OptionValueInRange,
    SyntheticContainerModel,
    WorkloadFieldAtLeast,
    WorkloadPresent,
    build_pair_corpus,
    build_threshold_probe,
    emit_trace,
    evaluate,
    load_fixture,
    load_model,
    model_from_doc,
)


def opt(name, raw=""):
    return validate_value(default_catalog()[name], raw)


def env_of(*options, workload=None):
    return compose_environment([opt(n, r) for n, r in options], workload)


class TestPredicates:
    def test_option_present(self):
        p = OptionPresent("tty")
        assert p.matches(env_of(("tty", "")))
        assert not p.matches(baseline_environment())

    def test_option_value_equals_uses_rendered_text(self):
        p = OptionValueEquals("network", "host")
        assert p.matches(env_of(("network", "host")))
        assert not p.matches(env_of(("network", "bridge")))
        assert not p.matches(baseline_environment())

    def test_option_value_in_range_is_inclusive(self):
        p = OptionValueInRange("cpu-shares", 100, 200)
        assert p.matches(env_of(("cpu-shares", "100")))
        assert p.matches(env_of(("cpu-shares", "200")))
        assert not p.matches(env_of(("cpu-shares", "99")))
        assert not p.matches(env_of(("cpu-shares", "201")))

    def test_workload_present(self):
        p = WorkloadPresent()
        assert p.matches(env_of(workload=WORKLOAD_PRESETS["W1"]))
        assert not p.matches(baseline_environment())

    def test_workload_field_at_least(self):
        p = WorkloadFieldAtLeast("field_length", 10000)
        assert p.matches(env_of(workload=WORKLOAD_PRESETS["W7"]))
        assert not p.matches(env_of(workload=WORKLOAD_PRESETS["W1"]))


class TestFixtureBehavior:
    """Per-factor deltas of the bundled models, checked against their baselines."""

    def test_redis_init_adds_signal_handling(self):
        model = load_fixture("redis")
        plain = evaluate(model, baseline_environment())
        with_init = evaluate(model, env_of(("init", "")))
        delta = with_init - plain
        assert set(delta.syscalls) == {"rt_sigtimedwait", "setpgid"}
        assert not delta.capabilities

    def test_nginx_host_network_adds_bind_capability(self):
        model = load_fixture("nginx")
        plain = evaluate(model, baseline_environment())
        host = evaluate(model, env_of(("network", "host")))
        delta = host - plain
        assert not delta.syscalls
        assert set(delta.capabilities) == {"CAP_NET_BIND_SERVICE"}

    def test_redis_read_workload_adds_persistence_calls(self):
        model = load_fixture("redis")
        plain = evaluate(model, baseline_environment())
        w1 = evaluate(model, env_of(workload=WORKLOAD_PRESETS["W1"]))
        delta = w1 - plain
        assert set(delta.syscalls) == {"fsync", "fdatasync", "fadvise64"}

    def test_redis_long_fields_add_vectored_io(self):
        model = load_fixture("redis")
        w1 = evaluate(model, env_of(workload=WORKLOAD_PRESETS["W1"]))
        w7 = evaluate(model, env_of(workload=WORKLOAD_PRESETS["W7"]))
        delta = w7 - w1
        assert set(delta.syscalls) == {"writev", "shutdown", "sync_file_range"}

    def test_redis_publish_adds_socket_calls(self):
        model = load_fixture("redis")
        plain = evaluate(model, baseline_environment())
        published = evaluate(model, env_of(("publish", "80:8080")))
        delta = published - plain
        assert set(delta.syscalls) == {
            "socket", "setsockopt", "epoll_ctl", "accept4", "bind", "listen",
        }

    def test_unknown_fixture_name(self):
        with pytest.raises(ModelError):
            load_fixture("postgres")
        assert FIXTURE_NAMES == ("redis", "nginx")

    def test_an_unknown_fixture_name_is_quoted(self):
        with pytest.raises(ModelError) as raised:
            load_fixture("x" * 5000)
        assert str(raised.value) == "unknown fixture of 5000 characters, have redis, nginx"


class TestEvaluationLaws:
    def test_base_events_always_present(self):
        for name in FIXTURE_NAMES:
            model = load_fixture(name)
            assert model.base_events <= evaluate(model, baseline_environment())

    def test_pair_evaluation_is_union_without_interactions(self):
        # fixture models carry no interaction rules, so composing two
        # single-factor environments can only union their deltas
        model = load_fixture("redis")
        cases = [
            (env_of(("init", "")), env_of(("publish", "80:8080"))),
            (env_of(("init", "")), env_of(workload=WORKLOAD_PRESETS["W7"])),
            (env_of(("tty", "")), env_of(workload=WORKLOAD_PRESETS["W1"])),
        ]
        for a, b in cases:
            assert evaluate(model, compose_pair(a, b)) == evaluate(model, a) | evaluate(model, b)

    def test_interaction_rule_fires_only_when_both_match(self):
        model = SyntheticContainerModel(
            name="toy",
            base_events=EventSet.of(syscalls=["read"]),
            rules=(),
            interaction_rules=(
                InteractionRule(
                    OptionPresent("tty"),
                    OptionPresent("init"),
                    EventSet.of(syscalls=["pipe2"]),
                ),
            ),
        )
        assert "pipe2" not in evaluate(model, env_of(("tty", ""))).syscalls
        assert "pipe2" not in evaluate(model, env_of(("init", ""))).syscalls
        both = env_of(("tty", ""), ("init", ""))
        assert "pipe2" in evaluate(model, both).syscalls


def fold_evaluate(model, env):
    """Reference for evaluate: one union per matched rule, in rule order."""
    events = model.base_events
    for rule in model.rules:
        if rule.trigger.matches(env):
            events = events | rule.adds
    for rule in model.interaction_rules:
        if rule.first.matches(env) and rule.second.matches(env):
            events = events | rule.adds
    return events


# Integer options (cpu-shares, oom-score-adj), a number with a unit
# (memory), an enum (network) and a flag (tty): bound or not, each gives
# the predicates a value with or without a number.
_OPTION_VALUES = {
    "cpu-shares": st.integers(0, 1100).map(str),
    "oom-score-adj": st.integers(-1024, 1024).map(str),
    "memory": st.sampled_from(["0", "64k", "512m", "1g"]),
    "network": st.sampled_from(["bridge", "host", "none"]),
    "tty": st.just(""),
}
_option_names = st.sampled_from(sorted(_OPTION_VALUES))
_predicates = st.one_of(
    st.builds(OptionPresent, _option_names),
    st.builds(OptionValueEquals, _option_names,
              st.sampled_from(["0", "10", "512", "-500", "512m", "host", "none", "true"])),
    st.builds(lambda option, lo, width: OptionValueInRange(option, lo, lo + width),
              _option_names, st.integers(-1100, 1100), st.integers(0, 1100)),
    st.just(WorkloadPresent()),
    st.builds(WorkloadFieldAtLeast, st.sampled_from(sorted(_WORKLOAD_FIELDS)),
              st.integers(0, 20000)),
)
# Empty adds, syscall adds and capability adds, overlapping across rules.
_adds = st.builds(
    EventSet.of,
    st.lists(st.sampled_from(["read", "write", "openat", "mmap", "futex", "ioctl"]), max_size=3),
    st.lists(st.sampled_from(["CAP_CHOWN", "CAP_NET_RAW", "CAP_SYS_ADMIN"]), max_size=2),
)
_models = st.builds(
    SyntheticContainerModel,
    st.just("differential"),
    _adds,
    st.lists(st.builds(BehaviorRule, _predicates, _adds), max_size=12).map(tuple),
    st.lists(st.builds(InteractionRule, _predicates, _predicates, _adds), max_size=4).map(tuple),
)


@st.composite
def _environments(draw):
    names = draw(st.lists(_option_names, unique=True))
    bound = [opt(name, draw(_OPTION_VALUES[name])) for name in names]
    workload = draw(st.none() | st.sampled_from(sorted(WORKLOAD_PRESETS)).map(
        WORKLOAD_PRESETS.__getitem__))
    return compose_environment(bound, workload)


# Small integer domains, so range rules overlap and hit often; an enum
# (network) and a flag (tty) bind values whose number is None.
_SMALL_VALUES = {
    "cpu-shares": st.integers(0, 8).map(str),
    "oom-score-adj": st.integers(-6, 6).map(str),
    "memory": st.sampled_from(["0", "8", "1k"]),
    "network": st.sampled_from(["bridge", "host"]),
    "tty": st.just(""),
}
_ranges = st.builds(
    lambda option, lo, width: OptionValueInRange(option, lo, lo + width),
    st.sampled_from(sorted(_SMALL_VALUES)),
    st.integers(-8, 8),
    st.sampled_from([0, 0, 1, 3, 2000]),
)
_range_models = st.builds(
    SyntheticContainerModel,
    st.just("ranges"),
    _adds,
    # each rule also adds an event of its own, so any rule that fires shows
    st.lists(st.builds(BehaviorRule, _ranges | _ranges | _predicates, _adds),
             min_size=8, max_size=24).map(lambda rules: tuple(
                 BehaviorRule(rule.trigger, rule.adds | EventSet.of([f"rule_{i}"]))
                 for i, rule in enumerate(rules))),
    st.lists(st.builds(InteractionRule, _ranges | _predicates, _ranges | _predicates, _adds),
             max_size=4).map(tuple),
)


@st.composite
def _range_environments(draw):
    """Composed environments, or built directly with one integer option bound twice."""
    names = draw(st.lists(st.sampled_from(sorted(_SMALL_VALUES)), unique=True))
    bound = [opt(name, draw(_SMALL_VALUES[name])) for name in names]
    workload = draw(st.none() | st.sampled_from(sorted(WORKLOAD_PRESETS)).map(
        WORKLOAD_PRESETS.__getitem__))
    numbered = [value for value in bound if value.number is not None]
    if not numbered or not draw(st.booleans()):
        return compose_environment(bound, workload)
    first = draw(st.sampled_from(numbered))
    bound.append(opt(first.name, draw(_SMALL_VALUES[first.name].filter(
        lambda text: opt(first.name, text).number != first.number))))
    return Environment(tuple(draw(st.permutations(bound))), workload)


class TestEvaluateMatchesTheFold:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(model=_models, env=_environments())
    def test_generated_models(self, model, env):
        assert evaluate(model, env) == fold_evaluate(model, env)

    def test_a_300_range_rule_model_at_every_swept_value(self):
        rng = random.Random(20261020)
        rules = []
        for i in range(300):
            lo = rng.randrange(4096)
            hi = 4095 if rng.random() < 0.5 else min(4095, lo + rng.randrange(256, 2048))
            adds = EventSet.of([f"shares{i:03d}"], ["CAP_CHOWN"] if i % 50 == 0 else [])
            rules.append(BehaviorRule(OptionValueInRange("cpu-shares", lo, hi), adds))
        model = SyntheticContainerModel(
            "ranges", EventSet.of(["read", "close"], ["CAP_SETUID"]), tuple(rules)
        )
        spec = default_catalog()["cpu-shares"]
        result = mutate_option_values(
            baseline_environment(), MutationConfig(0, 4095, seed=3), model_probe(model, spec)
        )
        assert len(result.log) > 10
        swept = EventSet.empty()
        for entry in result.log:
            env = compose_environment([validate_value(spec, str(entry.value))])
            events = evaluate(model, env)
            assert events == fold_evaluate(model, env)
            swept = swept | events
        assert swept == result.events

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(model=_range_models, envs=st.lists(_range_environments(), min_size=1, max_size=4))
    def test_range_heavy_models(self, model, envs):
        # several environments per model, so its grouping is reused across probes
        for env in envs:
            assert evaluate(model, env) == fold_evaluate(model, env)

    def test_an_option_bound_twice_reads_its_first_binding(self):
        model = SyntheticContainerModel("twice", EventSet.empty(), (
            BehaviorRule(OptionValueInRange("cpu-shares", 0, 10), EventSet.of(["low"])),
            BehaviorRule(OptionValueInRange("cpu-shares", 40, 60), EventSet.of(["high"])),
        ))
        low, high = opt("cpu-shares", "5"), opt("cpu-shares", "50")
        assert evaluate(model, Environment((low, high))) == EventSet.of(["low"])
        assert evaluate(model, Environment((high, low))) == EventSet.of(["high"])

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures_at_every_planned_environment(self, name):
        factors = [env_of((option, value)) for option, value in (
            ("init", ""), ("publish", "80:8080"), ("tty", ""), ("network", "host"),
            ("cpu-shares", "512"), ("memory", "512m"),
        )] + [env_of(workload=workload) for workload in WORKLOAD_PRESETS.values()]
        plan = plan_environments(factors)
        model = load_fixture(name)
        envs = [plan.baseline, *plan.factors, *(compose_pair(a, b) for a, b in plan.pairs)]
        assert len(envs) == 1 + 14 + 91
        for env in envs:
            assert evaluate(model, env) == fold_evaluate(model, env)


class TestTraceEmission:
    def test_emit_then_ingest_equals_evaluate(self):
        model = load_fixture("redis")
        for env in (
            baseline_environment(),
            env_of(("init", "")),
            env_of(("publish", "80:8080"), workload=WORKLOAD_PRESETS["W7"]),
        ):
            text = emit_trace(model, env, namespace_id=4, seed=11)
            events = ingest_trace(parse_trace(text.splitlines()))
            assert events == {4: evaluate(model, env)}

    def test_emission_is_deterministic_per_seed(self):
        model = load_fixture("nginx")
        env = env_of(("network", "host"))
        assert emit_trace(model, env, seed=3) == emit_trace(model, env, seed=3)
        assert emit_trace(model, env, seed=3) != emit_trace(model, env, seed=4)

    def test_seed_changes_order_not_content(self):
        model = load_fixture("nginx")
        env = env_of(("network", "host"))
        sets = {
            frozenset(ingest_trace(parse_trace(emit_trace(model, env, seed=s).splitlines()))[1].events())
            for s in range(6)
        }
        assert len(sets) == 1

    def test_confinement_markers_lead_the_trace(self):
        model = load_fixture("redis")
        records = parse_trace(emit_trace(model, baseline_environment()).splitlines())
        assert [r.name for r in records[:3]] == ["unshare", "capset", "prctl"]


class TestModelFiles:
    def build(self):
        return SyntheticContainerModel(
            name="toy",
            base_events=EventSet.of(syscalls=["read", "close"], capabilities=["CAP_CHOWN"]),
            rules=(
                BehaviorRule(OptionPresent("tty"), EventSet.of(syscalls=["ioctl"])),
                BehaviorRule(
                    OptionValueInRange("cpu-shares", 10, 90),
                    EventSet.of(syscalls=["sched_yield"]),
                ),
                BehaviorRule(
                    WorkloadFieldAtLeast("read_ops", 1),
                    EventSet.of(syscalls=["pread64"]),
                ),
                BehaviorRule(OptionValueEquals("network", "none"), EventSet.of(syscalls=["socketpair"])),
                BehaviorRule(WorkloadPresent(), EventSet.of(capabilities=["CAP_IPC_LOCK"])),
            ),
            interaction_rules=(
                InteractionRule(
                    OptionPresent("tty"),
                    WorkloadPresent(),
                    EventSet.of(syscalls=["eventfd2"]),
                ),
            ),
        )

    TOY = """\
model_version: 1
name: toy
base_events: {syscalls: [read, close], capabilities: [CAP_CHOWN]}
rules:
  - when: {option_present: tty}
    adds: {syscalls: [ioctl]}
  - when: {option_value_in_range: {option: cpu-shares, lo: 10, hi: 90}}
    adds: {syscalls: [sched_yield]}
  - when: {workload_field_at_least: {field: read_ops, threshold: 1}}
    adds: {syscalls: [pread64]}
  - when: {option_value_equals: {option: network, value: none}}
    adds: {syscalls: [socketpair]}
  - when: {workload_present: true}
    adds: {capabilities: [CAP_IPC_LOCK]}
interaction_rules:
  - when: [{option_present: tty}, {workload_present: true}]
    adds: {syscalls: [eventfd2]}
"""

    def test_doc_round_trip(self):
        assert model_from_doc(yaml.safe_load(self.TOY)) == self.build()

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "toy.yaml"
        path.write_text(self.TOY)
        model = load_model(path)
        assert model == self.build()
        env = env_of(("tty", ""), workload=WORKLOAD_PRESETS["W2"])
        assert evaluate(model, env) == evaluate(self.build(), env)

    def test_version_checked(self, tmp_path):
        path = tmp_path / "toy.yaml"
        path.write_text(self.TOY.replace("model_version: 1", "model_version: 9"))
        with pytest.raises(ModelError, match="unsupported model_version 9"):
            load_model(path)

    RANGE = "{option_value_in_range: {option: cpu-shares, lo: %s, hi: %s}}"
    EQUALS = "{option_value_equals: {option: %s, value: %s}}"
    AT_LEAST = "{workload_field_at_least: {field: %s, threshold: %s}}"

    @pytest.mark.parametrize("trigger,error", [
        (RANGE % ("2.9", "90"), "option_value_in_range lo must be an integer, got 2.9"),
        (RANGE % ("true", "90"), "option_value_in_range lo must be an integer, got True"),
        (RANGE % ("1", '"8"'), "option_value_in_range hi must be an integer, got '8'"),
        (RANGE % ("'" + "9" * 5000 + "'", "90"),
         "option_value_in_range lo must be an integer, got of 5000 characters"),
        (AT_LEAST % ("read_ops", "7.99"),
         "workload_field_at_least threshold must be an integer, got 7.99"),
        (AT_LEAST % ("read_ops", '"7"'),
         "workload_field_at_least threshold must be an integer, got '7'"),
        (AT_LEAST % ("1", "7"), "workload_field_at_least field must be a string, got 1"),
        (AT_LEAST % ("K" * 5000, "7"), "unknown workload field of 5000 characters"),
        (EQUALS % ("network", "true"), "option_value_equals value must be a string, got True"),
        (EQUALS % ("network", "8"), "option_value_equals value must be a string, got 8"),
        (EQUALS % ("5", "host"), "option_value_equals option must be a string, got 5"),
        (EQUALS % ("network", "null"), "option_value_equals value must be a string, got None"),
    ], ids=["float-lo", "bool-lo", "string-hi", "long-digit-string", "float-threshold",
            "string-threshold", "int-field", "long-field", "bool-value", "int-value",
            "int-option", "null-value"])
    def test_trigger_fields_keep_their_yaml_types(self, tmp_path, trigger, error):
        path = tmp_path / "m.yaml"
        path.write_text(f"model_version: 1\nname: m\nrules:\n  - when: {trigger}\n")
        with pytest.raises(ModelError) as raised:
            load_model(path)
        assert str(raised.value) == error

    def test_quoted_trigger_values_are_strings(self, tmp_path):
        path = tmp_path / "m.yaml"
        path.write_text(
            "model_version: 1\nname: m\nrules:\n"
            "  - when: {option_value_equals: {option: cpu-shares, value: '8'}}\n"
            "    adds: {syscalls: [sched_yield]}\n"
        )
        model = load_model(path)
        assert model.rules[0].trigger == OptionValueEquals("cpu-shares", "8")
        assert evaluate(model, env_of(("cpu-shares", "8"))) == EventSet.of(["sched_yield"])


class TestPairCorpus:
    def test_shape_and_interaction_split(self):
        cases = build_pair_corpus()
        assert len(cases) == 384
        interacting = [c for c in cases if c.interacting]
        assert len(interacting) == 144
        assert len(cases) - len(interacting) == 240

    def test_interaction_flag_matches_behavior(self):
        for case in build_pair_corpus():
            union = (
                evaluate(case.model, case.factor_a)
                | evaluate(case.model, case.factor_b)
            )
            combined = evaluate(case.model, compose_pair(case.factor_a, case.factor_b))
            if case.interacting:
                assert union <= combined and union != combined
                assert len(combined) - len(union) == 1
            else:
                assert union == combined

    def test_corpus_is_deterministic(self):
        first = build_pair_corpus()
        second = build_pair_corpus()
        assert [(c.model.name, c.factor_a.id, c.factor_b.id, c.interacting) for c in first] == [
            (c.model.name, c.factor_a.id, c.factor_b.id, c.interacting) for c in second
        ]


class TestThresholdProbe:
    def test_cut_values_are_real_boundaries(self):
        # each declared cut must actually change the event set relative
        # to the value just below it, and nothing may change between cuts
        catalog = default_catalog()
        rng = random.Random(99)
        for seed in range(12):
            plan = build_threshold_probe(seed)
            spec = catalog[plan.option]

            def probe(v):
                return evaluate(plan.model, compose_environment([validate_value(spec, str(v))]))

            cuts = sorted(set(plan.cut_values))
            assert len(cuts) <= 5
            for cut in cuts:
                assert plan.lo < cut <= plan.hi
                assert probe(cut) != probe(cut - 1)
            # piecewise-constant between consecutive boundaries
            edges = [plan.lo, *cuts, plan.hi + 1]
            for left, right in zip(edges, edges[1:]):
                base = probe(left)
                for _ in range(4):
                    v = rng.randrange(left, right)
                    assert probe(v) == base

    def test_ground_truth_is_union_of_all_pieces(self):
        for seed in range(12):
            plan = build_threshold_probe(seed)
            catalog = default_catalog()
            spec = catalog[plan.option]
            union = EventSet.empty()
            for value in sorted({plan.lo, *plan.cut_values}):
                env = compose_environment([validate_value(spec, str(value))])
                union = union | evaluate(plan.model, env)
            assert plan.ground_truth() == union
