"""Environment composition, hashing, and plan round trips."""

from itertools import combinations

import pytest
import yaml

from leastpriv.environment import (
    Environment,
    EnvironmentError,
    PlanError,
    WORKLOAD_PRESETS,
    WorkloadSpec,
    baseline_environment,
    combine_workloads,
    compose_environment,
    compose_pair,
    environment_from_doc,
    environment_to_doc,
    load_plan,
    plan_environments,
    write_plan,
)
from leastpriv.options import default_catalog, validate_value


def opt(name, raw=""):
    return validate_value(default_catalog()[name], raw)


class TestWorkloads:
    def test_presets_cover_w1_through_w8(self):
        assert sorted(WORKLOAD_PRESETS) == [f"W{i}" for i in range(1, 9)]

    def test_preset_shapes(self):
        assert WORKLOAD_PRESETS["W1"] == WorkloadSpec(read_ops=1000, insert_ops=1000)
        assert WORKLOAD_PRESETS["W4"].insert_ops == 1000
        assert WORKLOAD_PRESETS["W6"].field_count == 500
        assert WORKLOAD_PRESETS["W7"].field_length == 10000
        assert WORKLOAD_PRESETS["W8"].thread_count == 500

    def test_combine_is_fieldwise_max(self):
        merged = combine_workloads(WORKLOAD_PRESETS["W2"], WORKLOAD_PRESETS["W7"])
        assert merged.update_ops == 1000
        assert merged.read_ops == 1000
        assert merged.field_length == 10000
        assert merged.field_count == 10

    def test_combine_commutes(self):
        a, b = WORKLOAD_PRESETS["W3"], WORKLOAD_PRESETS["W8"]
        assert combine_workloads(a, b) == combine_workloads(b, a)

    def test_rejects_all_zero_operations(self):
        with pytest.raises(EnvironmentError):
            WorkloadSpec()

    def test_rejects_negative_and_oversized(self):
        with pytest.raises(EnvironmentError):
            WorkloadSpec(read_ops=-1)
        with pytest.raises(EnvironmentError):
            WorkloadSpec(read_ops=100_001)


class TestEnvironment:
    def test_baseline_is_empty(self):
        env = baseline_environment()
        assert env.options == ()
        assert env.workload is None

    def test_id_is_stable_and_order_insensitive(self):
        a = compose_environment([opt("tty"), opt("init")])
        b = compose_environment([opt("init"), opt("tty")])
        assert a.id == b.id
        assert len(a.id) == 32  # 16-byte digest, hex

    def test_id_changes_with_value(self):
        a = compose_environment([opt("cpu-shares", "512")])
        b = compose_environment([opt("cpu-shares", "513")])
        assert a.id != b.id

    def test_id_changes_with_workload(self):
        a = compose_environment([], workload=WORKLOAD_PRESETS["W1"])
        b = compose_environment([], workload=WORKLOAD_PRESETS["W2"])
        assert a.id != b.id
        assert a.id != baseline_environment().id

    def test_duplicate_option_rejected(self):
        with pytest.raises(EnvironmentError):
            compose_environment([opt("tty"), opt("tty", "false")])

    def test_option_value_lookup(self):
        env = compose_environment([opt("network", "host")])
        assert env.option_value("network").text == "host"
        assert env.option_value("tty") is None

    def test_compose_pair_merges_options_and_workloads(self):
        first = compose_environment([opt("tty")], workload=WORKLOAD_PRESETS["W2"])
        second = compose_environment([], workload=WORKLOAD_PRESETS["W7"])
        both = compose_pair(first, second)
        assert both.option_value("tty") is not None
        assert both.workload.update_ops == 1000
        assert both.workload.field_length == 10000

    def test_doc_round_trip(self):
        env = compose_environment([opt("publish", "80:8080")], workload=WORKLOAD_PRESETS["W5"])
        doc = environment_to_doc(env)
        again = environment_from_doc(doc, default_catalog())
        assert again.id == env.id


class TestPlans:
    def factors(self):
        return [
            compose_environment([opt("tty")]),
            compose_environment([opt("network", "host")]),
            compose_environment([], workload=WORKLOAD_PRESETS["W1"]),
        ]

    def test_plan_builds_all_pairs(self):
        plan = plan_environments(self.factors())
        assert len(plan.factors) == 3
        assert len(plan.pairs) == 3  # C(3,2)
        # only baseline + single factors are executed; pairs are inferred
        ids = {env.id for env in (plan.baseline, *plan.factors)}
        assert len(ids) == 4
        composed = {compose_pair(a, b).id for a, b in plan.pairs}
        assert len(composed) == 3
        assert composed.isdisjoint(ids)

    def test_pairs_follow_factor_order_with_the_smaller_id_first(self):
        factors = self.factors()
        plan = plan_environments(factors)
        expected = [tuple(sorted((a.id, b.id))) for a, b in combinations(factors, 2)]
        assert [(a.id, b.id) for a, b in plan.pairs] == expected

    def test_plan_rejects_multi_factor_environment(self):
        bad = compose_environment([opt("tty"), opt("init")])
        with pytest.raises(PlanError) as error:
            plan_environments([bad])
        assert str(error.value) == (
            r"factor 'environment v1\noption init=true\noption tty=true\n' must vary "
            "exactly one option or one workload"
        )

    def test_plan_rejects_duplicate_factors(self):
        f = compose_environment([opt("tty")])
        with pytest.raises(PlanError) as error:
            plan_environments([f, f])
        assert str(error.value) == f"factor {f.canonical_text()!r} listed twice"

    def test_plan_file_round_trip(self, tmp_path):
        plan = plan_environments(self.factors())
        path = tmp_path / "plan.yaml"
        write_plan(plan, path)
        again = load_plan(path, default_catalog())
        assert [f.id for f in again.factors] == [f.id for f in plan.factors]
        assert [(a.id, b.id) for a, b in again.pairs] == [(a.id, b.id) for a, b in plan.pairs]

    def test_quoted_plan_value_keeps_its_digits(self, tmp_path):
        path = tmp_path / "plan.yaml"
        path.write_text(
            "plan_version: 1\nfactors: [{options: [{name: cpu-shares, value: '010'}]}]\n"
        )
        (factor,) = load_plan(path, default_catalog()).factors
        assert factor.option_value("cpu-shares").text == "10"

    def test_written_plan_values_load_as_strings(self, tmp_path):
        raw_values = [("tty", "false"), ("cpu-shares", "10"), ("oom-score-adj", "-5"),
                      ("pids-limit", "-1"), ("memory", "512"), ("publish", "1:30")]
        plan = plan_environments([compose_environment([opt(n, v)]) for n, v in raw_values])
        path = tmp_path / "plan.yaml"
        write_plan(plan, path)
        doc = yaml.safe_load(path.read_text())
        assert [f["options"][0]["value"] for f in doc["factors"]] == [v for _, v in raw_values]
        assert load_plan(path, default_catalog()) == plan

    def test_plan_file_rejects_tampered_factor_id(self, tmp_path):
        plan = plan_environments(self.factors())
        path = tmp_path / "plan.yaml"
        write_plan(plan, path)
        text = path.read_text()
        real_id = plan.factors[0].id
        path.write_text(text.replace(f"id: {real_id}", "id: " + "0" * 32))
        with pytest.raises(PlanError):
            load_plan(path, default_catalog())
