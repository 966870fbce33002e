"""Mutation loop: thresholds, step dynamics, logging, pair inference."""

import sys

import pytest

from leastpriv.environment import baseline_environment, compose_environment
from leastpriv.events import EventSet
from leastpriv.explorer import (
    ConfigError,
    EventProbe,
    ExplorationError,
    ExplorationResult,
    LOG_HEADER,
    MutationConfig,
    ProbeError,
    ProbeLogEntry,
    command_probe,
    model_probe,
    mutate_option_values,
    thresholds,
    validate_inference,
    write_log,
)
from leastpriv.options import default_catalog, validate_value
from leastpriv.simharness import (
    BehaviorRule,
    OptionPresent,
    OptionValueInRange,
    SyntheticContainerModel,
    evaluate,
    load_fixture,
)

BASE = baseline_environment()


def piecewise_model():
    """Behavior changes at cpu-shares >= 10 and >= 30 within [0, 100]."""
    return SyntheticContainerModel(
        name="piecewise",
        base_events=EventSet.of(syscalls=["read", "close"]),
        rules=(
            BehaviorRule(
                OptionValueInRange("cpu-shares", 10, 100),
                EventSet.of(syscalls=["mmap"]),
            ),
            BehaviorRule(
                OptionValueInRange("cpu-shares", 30, 100),
                EventSet.of(syscalls=["mprotect"], capabilities=["CAP_IPC_LOCK"]),
            ),
        ),
        interaction_rules=(),
    )


def piecewise_probe():
    return model_probe(piecewise_model(), default_catalog()["cpu-shares"])


def brute_force_union(model, lo, hi):
    """Oracle: probe every single domain value."""
    spec = default_catalog()["cpu-shares"]
    union = EventSet.empty()
    for v in range(lo, hi + 1):
        env = compose_environment([validate_value(spec, str(v))])
        union = union | evaluate(model, env)
    return union


class TestThresholds:
    # 5e^(-0.03 it) and 10e^(-0.03 it), frozen
    CASES = [
        (0, 5.0, 10.0),
        (23, 2.507880345330278, 5.015760690660556),
        (100, 0.24893534183931973, 0.49787068367863946),
    ]

    def test_frozen_values(self):
        config = MutationConfig(0, 100)
        for it, lower, upper in self.CASES:
            got_lower, got_upper = thresholds(config, it)
            assert abs(got_lower - lower) < 1e-9
            assert abs(got_upper - upper) < 1e-9

    def test_upper_is_twice_lower_at_defaults(self):
        config = MutationConfig(0, 100)
        for it in range(0, 101, 7):
            lower, upper = thresholds(config, it)
            assert abs(upper - 2 * lower) < 1e-12

    def test_decay_zero_keeps_bases(self):
        config = MutationConfig(0, 100, decay=0.0)
        assert thresholds(config, 57) == (5.0, 10.0)


class TestConfig:
    def test_defaults(self):
        config = MutationConfig(0, 262143)
        assert config.r == 2.0
        assert config.step_init == float(max(1, 262143 // 64))
        assert config.it_max == 100
        assert config.p == 0.05

    def test_step_init_floor_is_one(self):
        assert MutationConfig(0, 10).step_init == 1.0

    def test_rejections(self):
        with pytest.raises(ConfigError):
            MutationConfig(10, 0)
        with pytest.raises(ConfigError):
            MutationConfig(0, 10, r=1.0)
        with pytest.raises(ConfigError):
            MutationConfig(0, 10, it_max=0)
        with pytest.raises(ConfigError):
            MutationConfig(0, 10, p=1.5)
        with pytest.raises(ConfigError):
            MutationConfig(0, 10, step_init=0.0)
        with pytest.raises(ConfigError):
            MutationConfig(0, 10, t_base_lower=10.0, t_base_upper=5.0)
        with pytest.raises(ConfigError):
            MutationConfig(0, 10, sigma=-0.1)
        nan, inf = float("nan"), float("inf")
        for field, value in [("decay", nan), ("mu", nan), ("sigma", nan), ("r", inf),
                             ("sigma", inf), ("step_init", inf), ("p", nan), ("mu", -inf),
                             ("t_base_lower", -inf), ("t_base_upper", inf)]:
            with pytest.raises(ConfigError, match=f"^{field} must be finite"):
                MutationConfig(0, 10, **{field: value})


class TestMutationLoop:
    def test_deterministic_per_seed(self):
        config = MutationConfig(0, 100, seed=7)
        first = mutate_option_values(BASE, config, piecewise_probe())
        second = mutate_option_values(BASE, config, piecewise_probe())
        assert first == second

    def test_explored_events_never_exceed_domain_union(self):
        oracle = brute_force_union(piecewise_model(), 0, 100)
        for seed in range(200):
            config = MutationConfig(0, 100, seed=seed)
            result = mutate_option_values(BASE, config, piecewise_probe())
            assert result.events <= oracle

    def test_recovers_full_union_for_known_seed(self):
        oracle = brute_force_union(piecewise_model(), 0, 100)
        config = MutationConfig(0, 100, seed=1)
        result = mutate_option_values(BASE, config, piecewise_probe())
        assert result.events == oracle

    def test_iteration_budget_respected(self):
        for seed in range(50):
            config = MutationConfig(0, 100, it_max=9, seed=seed)
            result = mutate_option_values(BASE, config, piecewise_probe())
            assert len(result.log) <= 9
            assert result.evaluations <= 9

    def test_certain_reset_runs_the_full_budget(self):
        config = MutationConfig(0, 100, p=1.0, it_max=25, seed=3)
        result = mutate_option_values(BASE, config, piecewise_probe())
        assert len(result.log) == 25

    def test_no_reset_sweeps_rightward(self):
        for seed in range(30):
            config = MutationConfig(0, 100, p=0.0, seed=seed)
            result = mutate_option_values(BASE, config, piecewise_probe())
            values = [entry.value for entry in result.log]
            assert values == sorted(values)

    def test_new_event_counts_sum_to_final_set_size(self):
        for seed in range(100):
            config = MutationConfig(0, 100, seed=seed)
            result = mutate_option_values(BASE, config, piecewise_probe())
            assert sum(e.new_events for e in result.log) == len(result.events)

    def test_step_updates_follow_the_threshold_rule(self):
        # reconstruct each iteration's branch from its logged new-event
        # count: below t_lower the step must grow (floored at 1.1x),
        # at or above t_upper it must shrink by exactly r, else hold
        burst = SyntheticContainerModel(
            name="burst",
            base_events=EventSet.of(syscalls=["read", "close"]),
            rules=(
                BehaviorRule(
                    OptionValueInRange("cpu-shares", 500, 2000),
                    EventSet.of(syscalls=[f"burst{i}" for i in range(12)]),
                ),
                BehaviorRule(
                    OptionValueInRange("cpu-shares", 1200, 2000),
                    EventSet.of(syscalls=[f"mid{i}" for i in range(7)]),
                ),
            ),
            interaction_rules=(),
        )
        probe_spec = default_catalog()["cpu-shares"]
        checked = {"grow": 0, "shrink": 0, "hold": 0}
        for seed in range(300):
            config = MutationConfig(0, 2000, seed=seed)
            result = mutate_option_values(BASE, config, model_probe(burst, probe_spec))
            assert not result.warnings
            step_before = config.step_init
            for entry in result.log:
                lower, upper = thresholds(config, entry.iteration)
                if entry.new_events < lower:
                    assert entry.step >= step_before * 1.1 - 1e-9
                    checked["grow"] += 1
                elif entry.new_events >= upper:
                    assert entry.step == step_before / config.r
                    checked["shrink"] += 1
                else:
                    assert entry.step == step_before
                    checked["hold"] += 1
                step_before = entry.step
        assert checked["grow"] > 1000
        assert checked["shrink"] > 0
        assert checked["hold"] > 0

    def test_degenerate_step_clamped_with_warning(self):
        # growth overflows to inf on the first iteration, is clamped to
        # 1, then overflows again and blows past v_max
        probe = EventProbe(lambda env, value: EventSet.empty(), name="empty")
        config = MutationConfig(0, 10 ** 9, r=1e308, sigma=0.0, p=0.0, it_max=4, seed=0, step_init=1e308)
        result = mutate_option_values(BASE, config, probe)
        assert result.warnings == ("iteration 0: degenerate step inf clamped to 1",)
        assert result.log[0].step == 1.0

    def test_probe_failure_carries_partial_progress(self):
        calls = {"n": 0}

        def flaky(env, value):
            calls["n"] += 1
            if calls["n"] > 3:
                raise RuntimeError("collector crashed")
            return EventSet.of(syscalls=[f"s{value}"])

        config = MutationConfig(0, 10 ** 6, p=1.0, it_max=10, seed=2)
        with pytest.raises(ExplorationError) as err:
            mutate_option_values(BASE, config, EventProbe(flaky, name="flaky"))
        assert len(err.value.log) == 3
        assert len(err.value.events) == 3


class TestProbes:
    def test_model_probe_memoizes(self):
        probe = piecewise_probe()
        probe.evaluate(BASE, 50)
        probe.evaluate(BASE, 50)
        assert probe.evaluations == 1

    def test_a_failing_model_probe_names_a_long_model_by_its_length(self):
        model = SyntheticContainerModel("m" * 5000, EventSet.empty(), ())
        probe = model_probe(model, default_catalog()["cpu-shares"])
        config = MutationConfig(300000, 400000)
        with pytest.raises(ExplorationError) as err:
            mutate_option_values(BASE, config, probe)
        message = str(err.value)
        assert message.startswith("iteration 0: of 5000 characters: probe failed: ")
        assert len(message) < 200

    def test_a_probe_that_returns_no_event_set_is_refused(self):
        probe = EventProbe(lambda env, value: ["read"], name="listy")
        with pytest.raises(ProbeError) as raised:
            probe.evaluate(BASE, 1)
        assert str(raised.value) == "'listy': probe returned list, not an event set"

    def test_model_probe_without_option_rejects_values(self):
        probe = model_probe(piecewise_model())
        with pytest.raises(ProbeError):
            probe.evaluate(BASE, 10)

    def test_command_probe_substitutes_and_parses(self):
        script = (
            "import sys\n"
            "print('beacon-trace v1')\n"
            "print('1\\t1\\tSYS\\tunshare')\n"
            "print('2\\t1\\tSYS\\tprctl')\n"
            "print('3\\t1\\tSYS\\tv%s' % sys.argv[1])\n"
        )
        probe = command_probe([sys.executable, "-c", script, "{option_value}"])
        events = probe.evaluate(BASE, 17)
        assert set(events.syscalls) == {"v17"}

    def test_command_probe_failure(self):
        probe = command_probe([sys.executable, "-c", "import sys; sys.exit(3)"])
        with pytest.raises(ProbeError, match="exited 3"):
            probe.evaluate(BASE, 1)


class TestLogFiles:
    def test_a_log_is_its_header_config_warnings_and_records(self, tmp_path):
        config = MutationConfig(0, 100, seed=5)
        log = (ProbeLogEntry(0, 5, 0.1 + 0.2, 3), ProbeLogEntry(1, 7, 1.0, 0))
        warnings = ("iteration 0: degenerate step nan clamped to 1",)
        path = tmp_path / "run.log"
        write_log(config, ExplorationResult(EventSet(), log, warnings, 2), path)
        assert path.read_text() == (
            f"{LOG_HEADER}\n"
            "# config v_min=0 v_max=100 r=2.0 step_init=1.0 it_max=100 p=0.05"
            " t_base_lower=5.0 t_base_upper=10.0 decay=0.03 mu=0.0 sigma=0.1 seed=5\n"
            "# warning: iteration 0: degenerate step nan clamped to 1\n"
            "0 5 0.30000000000000004 3\n"
            "1 7 1.0 0\n"
        )


class TestPairInference:
    def test_union_is_exact_for_independent_factors(self):
        model = load_fixture("redis")
        probe = model_probe(model)
        cat = default_catalog()
        factor_1 = compose_environment([validate_value(cat["init"], "")])
        factor_2 = compose_environment([validate_value(cat["publish"], "80:8080")])
        report = validate_inference(probe, BASE, factor_1, factor_2)
        assert report.exact
        assert report.delta == 0
        assert report.size_delta == 0

    def test_interaction_shows_up_as_delta(self):
        model = SyntheticContainerModel(
            name="toy",
            base_events=EventSet.of(syscalls=["read"]),
            rules=(),
            interaction_rules=(),
        )
        from leastpriv.simharness import InteractionRule

        model = SyntheticContainerModel(
            name=model.name,
            base_events=model.base_events,
            rules=model.rules,
            interaction_rules=(
                InteractionRule(
                    OptionPresent("tty"),
                    OptionPresent("init"),
                    EventSet.of(syscalls=["pipe2"]),
                ),
            ),
        )
        cat = default_catalog()
        probe = model_probe(model)
        factor_1 = compose_environment([validate_value(cat["tty"], "")])
        factor_2 = compose_environment([validate_value(cat["init"], "")])
        report = validate_inference(probe, BASE, factor_1, factor_2)
        assert not report.exact
        assert report.delta == 1
        assert report.size_delta == 1
        assert "pipe2" in report.combined.syscalls
