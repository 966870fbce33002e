"""Command line behaviors, end to end through main(argv)."""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest
import yaml

from leastpriv import cli, decision, events, monitor
from leastpriv.cli import main
from leastpriv.decision import (
    ObservationStore,
    ScoreTargets,
    load_cvedb,
    load_policy,
    load_store,
    parse_event_list,
    save_store,
    synthesize_policy,
)
from leastpriv.emitter import parse_seccomp_profile
from leastpriv.environment import (
    WORKLOAD_PRESETS,
    baseline_environment,
    compose_environment,
)
from leastpriv.options import default_catalog, validate_value
from leastpriv.simharness import emit_trace, evaluate, load_fixture

CVEDB = str(resources.files("leastpriv").joinpath("data/cves.cvedb"))
GOLDEN = Path(__file__).parent / "golden"


def opt(name, raw=""):
    return validate_value(default_catalog()[name], raw)


def redis_environments():
    return [
        ("plain", baseline_environment()),
        ("with-init", compose_environment([opt("init")])),
        ("published", compose_environment([opt("publish", "80:8080")])),
        ("reads", compose_environment([], workload=WORKLOAD_PRESETS["W1"])),
        ("long-fields", compose_environment([], workload=WORKLOAD_PRESETS["W7"])),
    ]


@pytest.fixture
def redis_store_path(tmp_path):
    model = load_fixture("redis")
    store = tmp_path / "redis.obs"
    for i, (env_id, env) in enumerate(redis_environments()):
        trace = tmp_path / f"{env_id}.trace"
        trace.write_text(emit_trace(model, env, namespace_id=1, seed=i))
        code = main([
            "ingest", str(trace),
            "--env-id", env_id,
            "--store", str(store),
            "--container", "redis",
        ])
        assert code == 0
    return store


def expected_policy(store_path, security_min, functionality_min):
    return synthesize_policy(
        load_store(store_path),
        load_cvedb(CVEDB),
        ScoreTargets(security_min, functionality_min),
    )


class TestPipeline:
    def test_ingest_reports_progress(self, redis_store_path, capsys):
        # fixture already ran the ingests; re-check the final store
        store = load_store(redis_store_path)
        assert store.container == "redis"
        assert len(store) == 5

    def test_synthesize_writes_a_loadable_policy(self, redis_store_path, tmp_path, capsys):
        out = tmp_path / "policy.yaml"
        code = main([
            "synthesize", str(redis_store_path), CVEDB,
            "--security-min", "0", "--functionality-min", "1",
            "--out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "policy for redis" in stdout
        policy = load_policy(out)
        assert policy == expected_policy(redis_store_path, 0.0, 1.0)
        assert policy.achieved_functionality == 1.0

    def test_synthesize_is_byte_deterministic(self, redis_store_path, tmp_path):
        a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
        for out in (a, b):
            main([
                "synthesize", str(redis_store_path), CVEDB,
                "--security-min", "0.5", "--functionality-min", "0.5",
                "--out", str(out),
            ])
        assert a.read_bytes() == b.read_bytes()

    def test_a_long_non_ascii_name_is_written_folded_and_read_back(self, tmp_path, capsys):
        # The SafeDumper folds a double-quoted scalar past column 80 with a
        # `\` continuation; yaml.CSafeDumper writes the same name on one
        # line, so a switch of dumper changes these bytes.
        name = "x" * 90 + "é" + "x" * 10
        trace, store, out = tmp_path / "t.trace", tmp_path / "s.obs", tmp_path / "p.policy"
        trace.write_text(f"beacon-trace v1\n1 4 SYS unshare\n2 4 SYS prctl\n3 4 SYS {name}\n"
                         "4 4 SYS read\n", encoding="utf-8")
        assert main(["ingest", str(trace), "--env-id", "e", "--store", str(store),
                     "--container", "app"]) == 0
        assert main(["synthesize", str(store), CVEDB, "--security-min", "0",
                     "--functionality-min", "1", "--out", str(out)]) == 0
        folded = '"' + "x" * 90 + "\\xE9\\\n{indent}xxxxxxxxxx\""
        assert out.read_bytes() == (
            "policy_version: 1\ncontainer: app\nachieved_security: 1.0\n"
            "achieved_functionality: 1.0\nallowed:\n  syscalls:\n  - read\n"
            f"  - {folded.format(indent=' ' * 4)}\n"
            "classes:\n  always:\n    syscalls:\n    - read\n"
            f"    - {folded.format(indent=' ' * 6)}\n"
            "  sporadic_included: {}\n  sporadic_excluded: {}\n"
            "targets:\n  security_min: 0.0\n  functionality_min: 1.0\n"
        ).encode()
        assert load_policy(out).allowed.syscalls == {"read", name}

    def test_a_hand_written_store_synthesizes_as_its_canonical_form(self, tmp_path,
                                                                    monkeypatch, capsys):
        # CRLF line ends, a comment after CONTAINER, upper-case names, a 007 count
        monkeypatch.chdir(tmp_path)
        (tmp_path / "hand.obs").write_bytes(
            b"beacon-observations v1\r\nCONTAINER app\r\n# written by hand\r\nENV base\r\n"
            b"SYS READ 007\r\nSYS Socket 2\r\nCAP net_raw 1\r\nENV web\r\nSYS read 1\r\n"
            b"SYS OPENAT 3\r\n"
        )
        canonical = ("beacon-observations v1\nCONTAINER app\nENV base\nSYS read 7\n"
                     "SYS socket 2\nCAP CAP_NET_RAW 1\nENV web\nSYS openat 3\nSYS read 1\n")
        (tmp_path / "canonical.obs").write_text(canonical)
        save_store(load_store("hand.obs"), "saved.obs")
        assert (tmp_path / "saved.obs").read_text() == canonical
        outputs = []
        for form in ("hand", "canonical"):
            assert main(["synthesize", f"{form}.obs", CVEDB, "--security-min", "0",
                         "--functionality-min", "1", "--format", "tsv",
                         "--out", f"{form}.policy"]) == 0
            outputs.append((capsys.readouterr().out, (tmp_path / f"{form}.policy").read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0].startswith("status\tok\ncontainer\tapp\nsize\t4\n")

    def test_emit_produces_profile_and_flags(self, redis_store_path, tmp_path, capsys):
        policy_path = tmp_path / "policy.yaml"
        main([
            "synthesize", str(redis_store_path), CVEDB,
            "--security-min", "0", "--functionality-min", "1",
            "--out", str(policy_path),
        ])
        seccomp = tmp_path / "profile.json"
        caps = tmp_path / "caps.txt"
        code = main(["emit", str(policy_path), "--seccomp", str(seccomp), "--caps", str(caps)])
        assert code == 0
        policy = load_policy(policy_path)
        assert parse_seccomp_profile(seccomp.read_text()) == frozenset(policy.allowed.syscalls)
        lines = caps.read_text().splitlines()
        assert lines[0] == "--cap-drop=ALL"
        assert all(line.startswith("--cap-add=") for line in lines[1:])

    def test_emit_requires_an_output(self, redis_store_path, tmp_path):
        policy_path = tmp_path / "policy.yaml"
        main([
            "synthesize", str(redis_store_path), CVEDB,
            "--security-min", "0", "--functionality-min", "1",
            "--out", str(policy_path),
        ])
        assert main(["emit", str(policy_path)]) == 1

    def test_sweep_rows_are_tab_separated_and_monotone(self, redis_store_path, capsys):
        code = main([
            "sweep", str(redis_store_path), CVEDB,
            "--targets", "0:1,0.5:0.5,0.7:0.25",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header, rows = lines[0].split("\t"), [l.split("\t") for l in lines[1:]]
        assert header[:3] == ["security_min", "functionality_min", "status"]
        assert len(rows) == 3
        sizes = [int(row[3]) for row in rows if row[2] == "ok"]
        assert sizes == sorted(sizes, reverse=True)

    def test_score_matches_library_results(self, redis_store_path, capsys):
        code = main([
            "score", str(redis_store_path), CVEDB,
            "--policy", "read,close,waitid",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"security {0.19999999999999996!r}" in out
        assert f"functionality {0.0!r}" in out

    def test_check_reports_blocked_count(self, redis_store_path, tmp_path, capsys):
        policy_path = tmp_path / "policy.yaml"
        main([
            "synthesize", str(redis_store_path), CVEDB,
            "--security-min", "0", "--functionality-min", "1",
            "--out", str(policy_path),
        ])
        capsys.readouterr()
        code = main(["check", str(policy_path), CVEDB])
        assert code == 0
        out = capsys.readouterr().out
        assert "blocked 42/44" in out

    def test_check_tsv_has_one_row_per_cve(self, redis_store_path, tmp_path, capsys):
        policy_path = tmp_path / "policy.yaml"
        main([
            "synthesize", str(redis_store_path), CVEDB,
            "--security-min", "0", "--functionality-min", "1",
            "--out", str(policy_path),
        ])
        capsys.readouterr()
        main(["check", str(policy_path), CVEDB, "--format", "tsv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split("\t") == ["cve_id", "cvss", "blocked", "missing"]
        assert len(lines) == 1 + len(load_cvedb(CVEDB))


REDIS_CPU_SHARES_EVENTS = (
    "SYS\tbrk\nSYS\tclose\nSYS\tepoll_create1\nSYS\tepoll_wait\nSYS\texit_group\n"
    "SYS\tfcntl\nSYS\tfutex\nSYS\tgetpid\nSYS\tgetrandom\nSYS\tmmap\nSYS\tnanosleep\n"
    "SYS\topenat\nSYS\tread\nSYS\trt_sigaction\nCAP\tCAP_SETGID\nCAP\tCAP_SETUID\n"
)


class TestOutputBytes:
    """The exact stdout of each output branch, in both formats."""

    def run(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert captured.err == ""
        return code, captured.out

    def test_synthesize_tsv_feasible(self, redis_store_path, capsys):
        assert self.run(capsys, [
            "synthesize", str(redis_store_path), CVEDB,
            "--security-min", "0.5", "--functionality-min", "0.5", "--format", "tsv",
        ]) == (0, "status\tok\ncontainer\tredis\nsize\t24\nsyscalls\t22\ncapabilities\t2\n"
                  "achieved_security\t1.0\nachieved_functionality\t0.6\n")

    @pytest.mark.parametrize("fmt,expected", [
        ("tsv", "status\tinfeasible\n"
                "reason\tfunctionality target 1 unreachable: required events sit above the"
                " CVSS ceiling 1: epoll_ctl, setsockopt, socket\n"
                "blocking\tepoll_ctl, setsockopt, socket\n"
                "best_security\t1.0\nbest_functionality\t0.8\n"),
        ("human", "infeasible: functionality target 1 unreachable: required events sit above the"
                  " CVSS ceiling 1: epoll_ctl, setsockopt, socket\n"
                  "blocking events: epoll_ctl, setsockopt, socket\n"
                  "best achievable: security 1.0 functionality 0.8\n"),
    ])
    def test_synthesize_infeasible(self, redis_store_path, capsys, fmt, expected):
        assert self.run(capsys, [
            "synthesize", str(redis_store_path), CVEDB,
            "--security-min", "0.9", "--functionality-min", "1", "--format", fmt,
        ]) == (2, expected)

    @pytest.mark.parametrize("fmt,expected", [
        ("tsv", "security\t0.19999999999999996\nfunctionality\t0.0\n"),
        ("human", "security 0.19999999999999996\nfunctionality 0.0\n"),
    ])
    def test_score(self, redis_store_path, capsys, fmt, expected):
        assert self.run(capsys, [
            "score", str(redis_store_path), CVEDB, "--policy", "read,close,waitid", "--format", fmt,
        ]) == (0, expected)

    def test_sweep_with_an_infeasible_row(self, redis_store_path, capsys):
        assert self.run(capsys, [
            "sweep", str(redis_store_path), CVEDB, "--targets", "0:1,0.9:1",
        ]) == (0, "security_min\tfunctionality_min\tstatus\tsize\tsyscalls\tcapabilities"
                  "\tachieved_security\tachieved_functionality\n"
                  "0\t1\tok\t30\t28\t2\t0.21999999999999997\t1.0\n"
                  "0.9\t1\tinfeasible\t-\t-\t-\t1.0\t0.8\n")

    @pytest.mark.parametrize("fmt,log,head,tail", [
        ("tsv", False, "", ""),
        ("tsv", True, "", ""),
        ("human", False, "explored cpu-shares in [0, 262143]: 7 probes, 16 events\n", ""),
        ("human", True, "explored cpu-shares in [0, 262143]: 7 probes, 16 events\n",
         "log -> {log}\n"),
    ])
    def test_explore(self, tmp_path, capsys, fmt, log, head, tail):
        log_path = tmp_path / "explore.log"
        argv = ["explore", "redis", "cpu-shares", "--seed", "5", "--config", "it_max=40",
                "--format", fmt] + (["--log", str(log_path)] if log else [])
        assert self.run(capsys, argv) == (
            0, head + REDIS_CPU_SHARES_EVENTS + tail.format(log=log_path)
        )
        assert log_path.exists() == log

    def test_explore_warns_of_a_degenerate_step(self, capsys):
        argv = ["explore", "redis", "cpu-shares", "--config", "r=1e308", "--config", "it_max=3"]
        assert self.run(capsys, argv) == (0, (
            "explored cpu-shares in [0, 262143]: 3 probes, 16 events\n"
            "warning: iteration 2: degenerate step inf clamped to 1\n"
        ) + REDIS_CPU_SHARES_EVENTS)


class TestInfeasibleExit:
    def test_exit_code_2_with_reason(self, tmp_path, capsys):
        store = ObservationStore("app")
        store.record("x1", parse_event_list(["socket"]))
        store_path = tmp_path / "app.obs"
        save_store(store, store_path)
        code = main([
            "synthesize", str(store_path), CVEDB,
            "--security-min", "0.9", "--functionality-min", "0",
        ])
        assert code == 2
        out = capsys.readouterr().out
        assert "infeasible" in out
        assert "socket" in out


class TestPlanAndInference:
    def test_plan_then_validate(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.yaml"
        code = main([
            "plan", "default", "init", "publish=80:8080", "W1", "W7",
            "--out", str(plan_path),
        ])
        assert code == 0
        assert "planned 4 factors, 6 inferred pairs" in capsys.readouterr().out
        code = main(["validate-inference", "redis", str(plan_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "pairs 6 exact 6 rate 1.0" in out
        assert "delta histogram: 0:6" in out

    def test_validate_inference_tsv(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.yaml"
        main(["plan", "default", "tty", "init", "--out", str(plan_path)])
        capsys.readouterr()
        main(["validate-inference", "redis", str(plan_path), "--format", "tsv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split("\t") == ["factor_a", "factor_b", "exact", "delta", "size_delta"]
        assert len(lines) == 2

    def test_validate_inference_reports_an_inexact_pair(self, tmp_path, monkeypatch, capsys):
        # one interaction rule ties the plan's two factors: the pair is off by one event
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pair.yaml").write_text(
            "model_version: 1\nname: pair\nbase_events: {syscalls: [read]}\n"
            "interaction_rules:\n  - when: [{option_present: tty}, {option_present: init}]\n"
            "    adds: {syscalls: [pipe2]}\n"
        )
        assert main(["plan", "default", "tty", "init", "--out", "pair.plan"]) == 0
        capsys.readouterr()
        assert main(["validate-inference", "pair.yaml", "pair.plan"]) == 0
        assert capsys.readouterr().out == "pairs 1 exact 0 rate 0.0\ndelta histogram: 1:1\n"

    def test_plan_ids_are_pinned_for_non_canonical_spellings(self, tmp_path):
        # Environment ids hash the canonical value text; the golden file
        # pins the ids of these non-canonical spellings byte for byte.
        plan_path = tmp_path / "plan.yaml"
        code = main([
            "plan", "default", "cpu-shares=007", "oom-score-adj=-0", "volume=/data:",
            "memory=512m", "pids-limit=100", "W1", "--out", str(plan_path),
        ])
        assert code == 0
        assert plan_path.read_bytes() == (GOLDEN / "plan-noncanonical.yaml").read_bytes()

    def test_plan_accepts_a_nested_optional_part(self, tmp_path, capsys):
        catalog = tmp_path / "my.catalog"
        catalog.write_text('tag\tstring\t<U8> [":" <U8> ["/" <U8>]]\n')
        plan_path = tmp_path / "plan.yaml"
        code = main(["plan", str(catalog), "tag=5:6", "--out", str(plan_path)])
        assert code == 0, capsys.readouterr().err
        factor = yaml.safe_load(plan_path.read_text())["factors"][0]
        assert factor["options"] == [{"name": "tag", "value": "5:6"}]

    def test_duplicate_option_error_names_the_line(self, tmp_path, capsys):
        catalog = tmp_path / "d.catalog"
        catalog.write_text("a\tbool\t<Bool>\na\tbool\t<Bool>\n")
        code = main(["plan", str(catalog), "a", "--out", str(tmp_path / "p.yaml")])
        assert (code, capsys.readouterr().err) == (
            1, f"error: DuplicateOptionError: {catalog}:2: option 'a' declared twice\n"
        )
        assert not (tmp_path / "p.yaml").exists()

    def test_an_integer_too_long_for_int_is_a_catalog_error(self, tmp_path, capsys):
        catalog = tmp_path / "d.catalog"
        catalog.write_text(f"a\tint\t({'9' * 5000}, 10)\n")
        code = main(["plan", str(catalog), "a=1", "--out", str(tmp_path / "p.yaml")])
        assert (code, capsys.readouterr().err) == (
            1, f"error: CatalogError: {catalog}:1: option 'a': integer of 5000 digits is too long\n"
        )
        assert not (tmp_path / "p.yaml").exists()

    @pytest.mark.parametrize("factor,error", [
        ("cpu-shares={n}", "ValueRangeError: option 'cpu-shares'"),
        ("publish={n}:80", "ValueRangeError: option 'publish'"),
        ("memory={n}k", "ValueRangeError: option 'memory'"),
    ])
    def test_an_option_value_too_long_for_int_is_one_error_line(self, tmp_path, capsys,
                                                                 factor, error):
        factor = factor.format(n="9" * 5000)
        assert main(["plan", "default", factor, "--out", str(tmp_path / "p.yaml")]) == 1
        assert capsys.readouterr().err == f"error: {error}: integer of 5000 digits is too long\n"
        assert not (tmp_path / "p.yaml").exists()

    @pytest.mark.parametrize("quoted", [True, False])
    def test_a_plan_value_too_long_for_int_is_a_plan_error(self, tmp_path, capsys, quoted):
        # write_plan quotes values; an unquoted one is a YAML integer
        plan = tmp_path / "p.yaml"
        assert main(["plan", "default", "cpu-shares=1", "--out", str(plan)]) == 0
        value = f"'{'9' * 5000}'" if quoted else "9" * 5000
        plan.write_text(plan.read_text().replace("'1'", value))
        capsys.readouterr()
        assert main(["validate-inference", "redis", str(plan)]) == 1
        where = "option 'cpu-shares'" if quoted else str(plan)
        assert capsys.readouterr().err == (
            f"error: PlanFormatError: {where}: integer of 5000 digits is too long\n"
        )

    def test_the_digit_limit_counts_leading_zeros(self, tmp_path, capsys):
        plan = tmp_path / "p.yaml"
        assert main(["plan", "default", "cpu-shares=" + "0" * 4299 + "7", "--out", str(plan)]) == 0
        assert yaml.safe_load(plan.read_text())["factors"][0]["options"] == [
            {"name": "cpu-shares", "value": "7"}
        ]
        assert main(["plan", "default", "cpu-shares=" + "0" * 4300 + "7", "--out", str(plan)]) == 1
        assert capsys.readouterr().err.endswith(
            "error: ValueRangeError: option 'cpu-shares': integer of 4301 digits is too long\n"
        )

    def test_bare_factor_must_be_boolean(self, tmp_path, capsys):
        code = main(["plan", "default", "cpu-shares", "--out", str(tmp_path / "p.yaml")])
        assert code == 1
        assert "needs =value" in capsys.readouterr().err


class TestExplore:
    def test_deterministic_run_with_log(self, tmp_path, capsys):
        log_a, log_b = tmp_path / "a.log", tmp_path / "b.log"
        for log in (log_a, log_b):
            code = main([
                "explore", "redis", "cpu-shares",
                "--seed", "5", "--config", "it_max=40", "--log", str(log),
            ])
            assert code == 0
        assert log_a.read_bytes() == log_b.read_bytes()
        out = capsys.readouterr().out
        assert "events" in out

    def test_command_probe_spec(self, tmp_path, capsys):
        import sys as _sys

        script = tmp_path / "probe.py"
        script.write_text(
            "print('beacon-trace v1')\n"
            "print('1\\t1\\tSYS\\tunshare')\n"
            "print('2\\t1\\tSYS\\tprctl')\n"
            "print('3\\t1\\tSYS\\tread')\n"
        )
        code = main([
            "explore", f"cmd:{_sys.executable} {script}", "cpu-shares",
            "--config", "it_max=3",
        ])
        assert code == 0

    def test_command_probe_substitutes_the_option_value(self, tmp_path, monkeypatch, capsys):
        # the collector reports one syscall named after the value it runs with
        monkeypatch.chdir(tmp_path)
        (tmp_path / "probe.py").write_text(
            "import sys\nprint('beacon-trace v1')\n"
            "for ts, name in enumerate(['unshare', 'prctl', 'read', 'call' + sys.argv[1]]):\n"
            "    print(ts, 1, 'SYS', name)\n"
        )
        assert main(["explore", f"cmd:{sys.executable} probe.py {{option_value}}", "cpu-shares",
                     "--config", "it_max=3"]) == 0
        head, *rows = capsys.readouterr().out.splitlines()
        assert head.endswith(": 3 probes, 4 events")
        calls = [row for row in rows if row.startswith("SYS\tcall")]
        assert len(calls) == 3 and all(row[len("SYS\tcall"):].isdigit() for row in calls)

    MERGED = ("model_version: 1\nname: merged\nbase_events: &base {syscalls: [read, write]}\n"
              "rules:\n"
              "  - when: {option_value_in_range: &range {option: cpu-shares, lo: 3, hi: 8}}\n"
              "    adds: {syscalls: [shares]}\n"
              "  - when: {option_value_in_range: {<<: *range, lo: 6}}\n"
              "    adds: {<<: *base, capabilities: [CAP_CHOWN]}\n")
    WRITTEN_OUT = ("model_version: 1\nname: merged\nbase_events: {syscalls: [read, write]}\n"
                   "rules:\n"
                   "  - when: {option_value_in_range: {option: cpu-shares, lo: 3, hi: 8}}\n"
                   "    adds: {syscalls: [shares]}\n"
                   "  - when: {option_value_in_range: {option: cpu-shares, lo: 6, hi: 8}}\n"
                   "    adds: {syscalls: [read, write], capabilities: [CAP_CHOWN]}\n")

    def test_a_model_with_anchors_aliases_and_merge_keys_reads_as_written_out(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        outputs = []
        for name, text in (("merged.yaml", self.MERGED), ("plain.yaml", self.WRITTEN_OUT)):
            (tmp_path / name).write_text(text)
            assert main(["explore", name, "cpu-shares", "--config", "v_min=1",
                         "--config", "v_max=9"]) == 0
            outputs.append(capsys.readouterr().out)
        head, *rows = outputs[0].splitlines()
        assert head.endswith(": 1 probes, 4 events")
        assert rows[-1] == "CAP\tCAP_CHOWN"
        assert outputs[0] == outputs[1]

    def test_command_probe_splits_lines_like_a_trace_file(self, tmp_path, monkeypatch, capsys):
        # \034 (FS) ends a line for str.splitlines() but not in a file;
        # str.split() splits on it, so line 3 has 8 fields
        script = tmp_path / "probe.sh"
        script.write_text("#!/bin/sh\nprintf 'beacon-trace v1\\n1 1 SYS unshare\\n"
                          "2 1 SYS prctl\\0343 1 SYS read\\n'\n")
        script.chmod(0o755)
        monkeypatch.chdir(tmp_path)
        assert main(["explore", "cmd:./probe.sh", "cpu-shares", "--config", "it_max=3"]) == 1
        assert capsys.readouterr().err == (
            "error: ExplorationError: iteration 0: './probe.sh': probe failed: "
            "'./probe.sh':3: expected 4 fields, got 8\n"
        )

    @pytest.mark.parametrize("option,hi", [("pids-limit", (1 << 22) - 1), ("memory", (1 << 32) - 1)])
    def test_range_rule_fires_on_every_integer_shape(self, tmp_path, capsys, option, hi):
        model = tmp_path / "m.yaml"
        model.write_text(yaml.safe_dump({
            "model_version": 1,
            "name": "ranged",
            "base_events": {"syscalls": ["read"]},
            "rules": [{
                "when": {"option_value_in_range": {"option": option, "lo": 0, "hi": hi}},
                "adds": {"syscalls": ["range_hit"]},
            }],
        }))
        assert main(["explore", str(model), option, "--config", "it_max=5"]) == 0
        assert "SYS\trange_hit" in capsys.readouterr().out.splitlines()

    def test_unknown_option_rejected(self, capsys):
        assert main(["explore", "redis", "no-such-option"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_integer_option_rejected(self, capsys):
        assert main(["explore", "redis", "network"]) == 1
        err = capsys.readouterr().err
        assert "error: CliError:" in err


class TestErrorReporting:
    def test_missing_file_is_exit_1(self, capsys):
        code = main(["ingest", "/nonexistent.trace", "--env-id", "x", "--store", "/tmp/x.obs"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError:")

    def test_bad_trace_header_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("not a trace\n")
        code = main(["ingest", str(bad), "--env-id", "x", "--store", str(tmp_path / "x.obs")])
        assert code == 1
        assert "error: TraceFormatError:" in capsys.readouterr().err

    def test_error_lines_are_single_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("line one\nline two\n")
        main(["ingest", str(bad), "--env-id", "x", "--store", str(tmp_path / "x.obs")])
        err = capsys.readouterr().err
        assert err.count("\n") == 1

    def test_usage_errors_exit_1_not_2(self, capsys):
        assert main(["synthesize"]) == 1
        assert main(["no-such-command"]) == 1

    def test_container_mismatch(self, tmp_path, capsys):
        model = load_fixture("redis")
        trace = tmp_path / "t.trace"
        trace.write_text(emit_trace(model, baseline_environment()))
        store = tmp_path / "s.obs"
        assert main(["ingest", str(trace), "--env-id", "a", "--store", str(store),
                     "--container", "redis"]) == 0
        capsys.readouterr()
        code = main(["ingest", str(trace), "--env-id", "b", "--store", str(store),
                     "--container", "nginx"])
        assert code == 1
        assert "error: CliError:" in capsys.readouterr().err

    def test_empty_container_name_is_rejected(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        trace.write_text(emit_trace(load_fixture("redis"), baseline_environment()))
        store = tmp_path / "s.obs"
        assert main(["ingest", str(trace), "--env-id", "a", "--store", str(store),
                     "--container", ""]) == 1
        assert capsys.readouterr().err == "error: StoreError: bad container name ''\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["t.trace"]

    def test_multi_namespace_trace_needs_namespace_flag(self, tmp_path, capsys):
        model = load_fixture("redis")
        text_a = emit_trace(model, baseline_environment(), namespace_id=1)
        text_b = emit_trace(model, baseline_environment(), namespace_id=2)
        merged = text_a + "".join(
            line + "\n" for line in text_b.splitlines()[1:]
        )
        trace = tmp_path / "multi.trace"
        trace.write_text(merged)
        store = tmp_path / "s.obs"
        code = main(["ingest", str(trace), "--env-id", "a", "--store", str(store)])
        assert code == 1
        assert "--namespace" in capsys.readouterr().err
        assert main(["ingest", str(trace), "--env-id", "a", "--store", str(store),
                     "--namespace", "2"]) == 0

    def test_trace_without_unshare_says_nothing_was_tracked(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        trace.write_text("beacon-trace v1\n1 7 SYS prctl\n2 7 SYS read\n")
        store = tmp_path / "s.obs"
        assert main(["ingest", str(trace), "--env-id", "a", "--store", str(store)]) == 1
        assert capsys.readouterr().err == (
            "error: UnknownNamespaceError: trace tracks no namespace: it has no "
            "`unshare` record, so replay dropped every record\n"
        )
        assert not store.exists()

    @pytest.mark.parametrize("fault,error", [
        ("4 1 SYS write\nbad line\n",
         "TraceOrderError: {trace}:5: timestamp 4 goes backwards in namespace 1"),
        ("bad line\n4 1 SYS write\n", "TraceFormatError: {trace}:5: expected 4 fields, got 2"),
    ])
    def test_first_fault_in_file_order_is_reported(self, tmp_path, capsys, fault, error):
        trace, store = tmp_path / "t.trace", tmp_path / "s.obs"
        good = "beacon-trace v1\n1 1 SYS unshare\n2 1 SYS prctl\n5 1 SYS read\n"
        trace.write_text(good)
        assert main(["ingest", str(trace), "--env-id", "a", "--store", str(store)]) == 0
        before = store.read_bytes()
        capsys.readouterr()
        trace.write_text(good + fault)
        assert main(["ingest", str(trace), "--env-id", "b", "--store", str(store)]) == 1
        assert capsys.readouterr() == ("", f"error: {error.format(trace=trace)}\n")
        assert store.read_bytes() == before
        assert sorted(path.name for path in tmp_path.iterdir()) == ["s.obs", "t.trace"]

    @pytest.mark.parametrize("key,value,error", [
        ("allowed", {"syscalls": "read"}, "EventNameError"),
        ("allowed", {"syscalls": [1, 2]}, "EventNameError"),
        ("classes", {"always": {"capabilities": [1, 2]}}, "EventNameError"),
        ("classes", [1, 2], "DecisionError"),
        ("allowed", {"syscalls": ["read", "ptrace"]}, "DecisionError"),
        ("classes", {"always": {"syscalls": ["read"]},
                     "sporadic_excluded": {"syscalls": ["read"]}}, "DecisionError"),
        ("achieved_security", 7.5, "DecisionError"),
        ("achieved_security", True, "DecisionError"),
        ("achieved_functionality", "1.0", "DecisionError"),
        ("targets", {"security_min": "high", "functionality_min": 0.5}, "DecisionError"),
        ("achieved_security", 0.1, "DecisionError"),
        ("achieved_functionality", 0.25, "DecisionError"),
    ])
    def test_malformed_policy_is_one_error_line(self, tmp_path, capsys, key, value, error):
        doc = {
            "policy_version": 1,
            "container": "web",
            "achieved_security": 1.0,
            "achieved_functionality": 1.0,
            "allowed": {"syscalls": ["read"]},
            "classes": {"always": {"syscalls": ["read"]}},
            "targets": {"security_min": 0.9, "functionality_min": 0.5},
            key: value,
        }
        policy = tmp_path / "bad.policy"
        policy.write_text(yaml.safe_dump(doc))
        code = main(["emit", str(policy), "--seccomp", str(tmp_path / "out.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ")
        assert err.count("\n") == 1

    def test_malformed_model_event_block_is_one_error_line(self, tmp_path, capsys):
        model = tmp_path / "bad.yaml"
        model.write_text(yaml.safe_dump({
            "model_version": 1,
            "name": "bad",
            "base_events": {"syscalls": ["read"]},
            "rules": [{"when": {"option_present": "tty"}, "adds": {"syscalls": "read"}}],
        }))
        code = main(["explore", str(model), "cpu-shares"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: EventNameError: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key,value", [("rules", 5), ("interaction_rules", 5)])
    def test_model_rule_lists_must_be_lists(self, tmp_path, capsys, key, value):
        model = tmp_path / "bad.yaml"
        model.write_text(yaml.safe_dump({"model_version": 1, "name": "bad", key: value}))
        assert main(["explore", str(model), "cpu-shares"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ModelError: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        "plan_version: 1\nfactors: 5\n",
        "plan_version: 1\npairs: 5\n",
        "plan_version: 1\npairs: [5]\n",
        "plan_version: 1\nbaseline: {options: 5}\n",
        "plan_version: 1\nfactors: [{options: 5}]\n",
        "plan_version: 1\nfactors: [\n",
        "plan_version: 1\nfactors: [{options: [{name: cpu-shares, value: 010}]}]\n",
        "plan_version: 1\nfactors: [{options: [{name: tty, value: true}]}]\n",
        "plan_version: 1\nfactors: [&a [1], &a [2]]\n",
    ], ids=["factors", "pairs", "pair-entry", "baseline-options", "factor-options", "yaml",
            "octal-value", "bool-value", "repeated-anchor"])
    def test_malformed_plan_is_one_error_line(self, tmp_path, capsys, text):
        plan = tmp_path / "bad.plan"
        plan.write_text(text)
        assert main(["validate-inference", "redis", str(plan)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: PlanFormatError: ")
        assert err.count("\n") == 1

    def test_emit_writes_nothing_on_error(self, tmp_path, capsys):
        policy = tmp_path / "bogus.policy"
        events = {"syscalls": ["read"], "capabilities": ["CAP_BOGUS"]}
        policy.write_text(yaml.safe_dump({
            "policy_version": 1,
            "container": "web",
            "achieved_security": 1.0,
            "achieved_functionality": 1.0,
            "allowed": events,
            "classes": {"always": events},
        }))
        code = main(["emit", str(policy),
                     "--seccomp", str(tmp_path / "s.json"), "--caps", str(tmp_path / "c.txt")])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: EmitError: ")
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bogus.policy"]

    # written raw: yaml.safe_dump itself recurses on a document this deep
    DEEP = "[" * 5000 + "]" * 5000

    @pytest.mark.parametrize("command,field,error", [
        ("emit", "policy_version: 1\ncontainer: web\nallowed: ", "DecisionError"),
        ("check", "policy_version: 1\ncontainer: web\nallowed: ", "DecisionError"),
        ("explore", "model_version: 1\nname: deep\nrules: ", "ModelError"),
        ("validate-inference", "plan_version: 1\nfactors: ", "PlanFormatError"),
    ], ids=["emit", "check", "explore", "validate-inference"])
    def test_deeply_nested_input_is_one_error_line(self, tmp_path, capsys, command, field, error):
        deep = tmp_path / "deep.yaml"
        deep.write_text(field + self.DEEP + "\n")
        argv = {
            "emit": ["emit", str(deep), "--seccomp", str(tmp_path / "s.json")],
            "check": ["check", str(deep), CVEDB],
            "explore": ["explore", str(deep), "cpu-shares"],
            "validate-inference": ["validate-inference", "redis", str(deep)],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ")
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.yaml"]

    def test_alias_tree_is_one_short_error_line(self, tmp_path, capsys):
        # a "billion laughs": 465 bytes whose last list expands to 10**5 names
        levels = ["&l0 [a, a, a, a, a, a, a, a, a, a]"] + [
            f"&l{i} [{', '.join([f'*l{i - 1}'] * 10)}]" for i in range(1, 6)
        ]
        policy = tmp_path / "laughs.policy"
        policy.write_text("policy_version: 1\ncontainer: web\n"
                          f"allowed: {{syscalls: [], capabilities: [{', '.join(levels)}]}}\n")
        assert main(["check", str(policy), CVEDB]) == 1
        err = capsys.readouterr().err
        assert err == f"error: DecisionError: {policy}: aliases expand to more than 10000 nodes\n"

    def test_config_value_too_large_is_one_error_line(self, capsys):
        code = main(["explore", "redis", "cpu-shares", "--config", "v_max=" + "9" * 400])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ")
        assert err.count("\n") == 1

    def test_a_config_integer_too_long_for_int_is_named_by_its_length(self, capsys):
        assert main(["explore", "redis", "cpu-shares", "--config", "v_max=" + "9" * 5000]) == 1
        assert capsys.readouterr().err == (
            "error: ConfigError: bad config value for v_max: integer of 5000 digits is too long\n"
        )

    def test_a_store_count_too_long_for_int_is_named_by_its_length(self, tmp_path, capsys):
        store = tmp_path / "s.obs"
        store.write_text(f"beacon-observations v1\nCONTAINER app\nENV a\nSYS read {'9' * 5000}\n")
        assert main(["synthesize", str(store), CVEDB, "--security-min", "0",
                     "--functionality-min", "1"]) == 1
        assert capsys.readouterr().err == (
            f"error: StoreFormatError: {store}:4: bad count: integer of 5000 digits is too long\n"
        )

    @pytest.mark.parametrize("record", ["{n} 1 SYS read", "5 {n} SYS read"])
    def test_a_trace_integer_too_long_for_int_is_named_by_its_length(self, tmp_path, capsys,
                                                                     record):
        trace, store = tmp_path / "t.trace", tmp_path / "s.obs"
        record = record.format(n="9" * 5000)
        trace.write_text(f"beacon-trace v1\n1 1 SYS unshare\n{record}\n")
        assert main(["ingest", str(trace), "--env-id", "a", "--store", str(store)]) == 1
        assert capsys.readouterr().err == (
            f"error: TraceFormatError: {trace}:3: integer of 5000 digits is too long\n"
        )
        assert not store.exists()

    LONG = "K" * 5000
    GOOD_STORE = "beacon-observations v1\nCONTAINER app\nENV a\nSYS read 1\n"
    SYNTHESIZE = ["synthesize", "s.obs", "c.cvedb", "--security-min", "0",
                  "--functionality-min", "1"]

    # 40 characters, each of which repr spells as 10
    TAGS = "\U000e0000" * 40
    POLICY = {"policy_version": 1, "container": "web", "achieved_security": 1.0,
              "achieved_functionality": 1.0}
    INGEST = ["ingest", "t.trace", "--env-id", "a", "--store", "s.obs"]

    @pytest.mark.parametrize("count,shown", [
        ("x" * 4000, "bad count of 4000 characters"),
        ("-" + "9" * 4299, "negative count int of 4300 characters"),
        ("x" * 5000, "bad count: integer of 5000 digits is too long"),
    ], ids=["not-a-number", "negative", "too-long-for-int"])
    def test_a_store_count_echo_is_bounded(self, tmp_path, monkeypatch, capsys, count, shown):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.obs").write_text(
            f"beacon-observations v1\nCONTAINER app\nENV a\nSYS read {count}\n"
        )
        assert main(["synthesize", "s.obs", CVEDB, "--security-min", "0",
                     "--functionality-min", "1"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: StoreFormatError: s.obs:4: {shown}\n"
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("records,shown", [
        (f"-{'9' * 4290} 1 SYS read\n",
         "TraceFormatError: t.trace:3: negative timestamp int of 4291 characters"),
        (f"5 -{'9' * 4290} SYS read\n",
         "TraceFormatError: t.trace:3: negative namespace id int of 4291 characters"),
        (f"5 {'9' * 4290} SYS unshare\n4 {'9' * 4290} SYS read\n",
         "TraceOrderError: t.trace:4: timestamp 4 goes backwards in namespace int of 4290 "
         "characters"),
    ], ids=["negative-timestamp", "negative-namespace", "backwards"])
    def test_a_trace_integer_echo_is_bounded(self, tmp_path, monkeypatch, capsys, records,
                                             shown):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.trace").write_text(f"beacon-trace v1\n1 1 SYS unshare\n{records}")
        assert main(self.INGEST) == 1
        err = capsys.readouterr().err
        assert err == f"error: {shown}\n"
        assert len(err.encode()) < 200
        assert not (tmp_path / "s.obs").exists()

    def test_a_probe_stderr_echo_is_bounded(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fail.py").write_text(
            "import sys\nsys.stderr.write('x' * 5000)\nsys.exit(3)\n"
        )
        assert main(["explore", f"cmd:{sys.executable} fail.py", "cpu-shares",
                     "--config", "it_max=1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ExplorationError: ") and err.count("\n") == 1
        assert err.endswith("exited 3: of 5000 characters\n")
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("catalog,shown", [
        (f"{LONG}\n", "expected name<TAB>category<TAB>syntax, got of 5000 characters"),
        (f"a\tint\t(1, 4) {'!' * 5000}\n", "cannot tokenize syntax at of 5000 characters"),
        (f'a\tstring\t"{LONG}" |\n', "empty sequence in of 5004 characters"),
        (f'a\tint\t(5 "{LONG}"\n',
         "expected ',' but found of 5002 characters in of 5005 characters"),
        (f"a\tint\t<{LONG}>\n", "unknown syntax token of 5002 characters in of 5002 "),
        (f"a\t{LONG}\t<Bool>\n", "unknown category of 5000 characters"),
        (f"{LONG}\tint\t!\n", "option of 5000 characters: cannot tokenize syntax at '!'"),
        (f'a\tstring\t"{"a" * 3000}" | "{"a" * 3000}"\n',
         "option 'a': enum choices not unique: tuple of length 2"),
        (f"a\tint\t({'9' * 4200}, 1)\n", "empty range (int of 4200 characters, 1)"),
        (f"a\tint\t<U{'9' * 4200}>\n", "unsigned bit width out of range: int of 4200 characters"),
        (f"a\tint\t<I{'9' * 4200}>\n", "signed bit width out of range: int of 4200 characters"),
        (" \tint\t<U8>\n", "F:1: empty option name"),
    ], ids=["line", "tokenize", "expression", "token", "angle", "category", "name",
            "enum-choices", "empty-range", "unsigned-width", "signed-width", "empty-name"])
    def test_a_catalog_echo_is_bounded(self, tmp_path, monkeypatch, capsys, catalog, shown):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "F").write_text(catalog, encoding="utf-8")
        assert main(["explore", "redis", "cpu-shares", "--catalog", "F"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert shown in err
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("syntax,factors,shown", [
        ("<U8>", [LONG], "CliError: factor of 5000 characters needs =value"),
        ("<Bool>", [f"{LONG}b=x"], "ValueParseError: option of 5001 characters: 'x' is not"),
        ("<List>:(<U8>)", [f"{LONG}l=1,2,3,4,5"],
         "ValueParseError: option of 5001 characters: 5 elements exceed"),
        ("<U8>", [f"{LONG}=999"], "ValueRangeError: option of 5000 characters: 999 outside"),
        ("<U8>", [f"{LONG}=1", f"{LONG}=2"],
         "PlanError: two factors vary the same option of 5000 characters"),
        ("<U8>", [f"{LONG}=1", f"{LONG}=1"], "PlanError: factor of 5025 characters listed twice"),
    ], ids=["needs-value", "bool", "list-cap", "range", "same-option", "listed-twice"])
    def test_a_catalog_option_name_echo_is_bounded(self, tmp_path, monkeypatch, capsys, syntax,
                                                    factors, shown):
        monkeypatch.chdir(tmp_path)
        name = factors[0].partition("=")[0]
        (tmp_path / "F").write_text(f"{name}\tint\t{syntax}\n", encoding="utf-8")
        assert main(["plan", "F", *factors, "--out", "p.yaml"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {shown}") and err.count("\n") == 1
        assert len(err.encode()) < 200

    def test_a_long_syntax_is_named_by_its_length(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "F").write_text(f'cpu-shares\tstring\t"{self.LONG}"\n', encoding="utf-8")
        assert main(["plan", "F", "cpu-shares=x", "--out", "p.yaml"]) == 1
        err = capsys.readouterr().err
        assert err == ("error: ValueParseError: option 'cpu-shares': 'x' does not match "
                       "of 5002 characters\n")

    @pytest.mark.parametrize("catalog,option,shown", [
        ('mem\tbytes\t<U32> ("b" | "k")\n', "mem", "'mem'"),
        (f"{LONG}\tstring\t<Signals>\n", LONG, "of 5000 characters"),
    ], ids=["unit-required", "long-name"])
    def test_an_option_without_a_window_is_not_explored(self, tmp_path, monkeypatch, capsys,
                                                        catalog, option, shown):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "F").write_text(catalog, encoding="utf-8")
        assert main(["explore", "redis", option, "--catalog", "F"]) == 1
        assert capsys.readouterr().err == (
            f"error: CliError: option {shown} has no integer domain to mutate\n"
        )

    @pytest.mark.parametrize("files,argv,length", [
        ({"t.trace": f"{LONG}\n"}, INGEST, 5000),
        ({"t.trace": f"beacon-trace v1\n1 1 {LONG} read\n"}, INGEST, 5000),
        ({"t.trace": f"beacon-trace v1\n1 1 {TAGS} read\n"}, INGEST, 40),
        ({"s.obs": f"{LONG}\n", "c.cvedb": "beacon-cvedb v1\n"}, SYNTHESIZE, 5000),
        ({"s.obs": f"{GOOD_STORE}{LONG} read 1\n", "c.cvedb": "beacon-cvedb v1\n"}, SYNTHESIZE,
         5000),
        ({"s.obs": GOOD_STORE, "c.cvedb": f"beacon-cvedb v1\nCVE-1\t{LONG}\tread\n"}, SYNTHESIZE,
         5000),
        ({"p.yaml": yaml.safe_dump({**POLICY, "allowed": {"syscalls": ["a " * 2500]}})},
         ["emit", "p.yaml"], 5000),
        ({"p.yaml": yaml.safe_dump({**POLICY, "allowed": {"capabilities": ["a " * 2500]}})},
         ["emit", "p.yaml"], 5000),
        ({"s.obs": GOOD_STORE, "c.cvedb": f"beacon-cvedb v1\n{LONG}\t11\tread\n"}, SYNTHESIZE,
         5000),
        ({"s.obs": GOOD_STORE, "c.cvedb": "beacon-cvedb v1\n" + f"{LONG}\t5\tread\n" * 2},
         SYNTHESIZE, 5000),
        ({"s.obs": GOOD_STORE, "c.cvedb": f"beacon-cvedb v1\n{LONG}\t5\t , \n"}, SYNTHESIZE,
         5000),
        ({"p.yaml": f"plan_version: 1\nfactors:\n- workload:\n    read_ops: {'9' * 4200}\n"},
         ["validate-inference", "redis", "p.yaml"], 4200),
        ({}, ["explore", f"cmd:{LONG}", "cpu-shares"], 5000),
    ], ids=["trace-header", "trace-kind", "trace-kind-escaped", "store-header", "store-tag",
            "cvss-value", "policy-syscall", "policy-capability", "cvss-range", "cve-twice",
            "cve-empty-vector", "workload-field-range", "command-probe-name"])
    def test_an_over_long_value_is_named_by_its_length(self, tmp_path, monkeypatch, capsys,
                                                        files, argv, length):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"of {length} characters" in err
        assert len(err.encode()) < 200

    MODEL = {"model_version": 1, "name": "m"}
    PLAN = {"plan_version": 1}
    NAMES = [f"n{i}" for i in range(1999)] + [1]

    @pytest.mark.parametrize("doc,argv,shown", [
        ({**POLICY, "allowed": LONG}, ["emit", "p.yaml"], "bad event block of 5000 characters"),
        ({**POLICY, "allowed": {"syscalls": LONG}}, ["emit", "p.yaml"],
         "syscalls must be a list of names, got of 5000 characters"),
        ({**POLICY, "allowed": {"syscalls": NAMES}}, ["emit", "p.yaml"],
         "syscalls must be a list of names, got list of length 2000"),
        ({**POLICY, "classes": [LONG]}, ["emit", "p.yaml"],
         "classes must be a mapping, got list of length 1"),
        ({**POLICY, "targets": LONG}, ["emit", "p.yaml"], "bad targets block of 5000 characters"),
        ({**POLICY, "achieved_security": NAMES}, ["emit", "p.yaml"],
         "achieved_security must be a number in [0, 1], got list of length 2000"),
        ({**POLICY, "policy_version": LONG}, ["emit", "p.yaml"],
         "unsupported policy_version of 5000 characters"),
        ({**MODEL, "rules": [LONG]}, ["explore", "p.yaml", "cpu-shares"],
         "bad rule entry of 5000 characters"),
        ({**MODEL, "rules": [{"when": LONG}]}, ["explore", "p.yaml", "cpu-shares"],
         "bad trigger of 5000 characters"),
        ({**MODEL, "rules": [{"when": {LONG: 1}}]}, ["explore", "p.yaml", "cpu-shares"],
         "unknown trigger kind of 5000 characters"),
        ({**MODEL, "rules": [{"when": {"option_value_equals": NAMES}}]},
         ["explore", "p.yaml", "cpu-shares"], "bad option_value_equals body list of length 2000"),
        ({**MODEL, "rules": [{"when": {"option_value_in_range": LONG}}]},
         ["explore", "p.yaml", "cpu-shares"],
         "bad option_value_in_range body of 5000 characters"),
        ({**MODEL, "rules": [{"when": {"workload_field_at_least": {"field": LONG}}}]},
         ["explore", "p.yaml", "cpu-shares"], "bad workload_field_at_least body dict of length 1"),
        ({**MODEL, "interaction_rules": [LONG]}, ["explore", "p.yaml", "cpu-shares"],
         "bad interaction entry of 5000 characters"),
        ({**MODEL, "model_version": NAMES}, ["explore", "p.yaml", "cpu-shares"],
         "unsupported model_version list of length 2000"),
        ({**MODEL, "rules": LONG}, ["explore", "p.yaml", "cpu-shares"],
         "rules must be a list, got of 5000 characters"),
        ({**PLAN, "factors": [LONG]}, ["validate-inference", "redis", "p.yaml"],
         "environment entry must be a mapping, got of 5000 characters"),
        ({**PLAN, "factors": [{"options": [LONG]}]}, ["validate-inference", "redis", "p.yaml"],
         "bad option entry of 5000 characters"),
        ({**PLAN, "factors": [{"options": [{"name": "tty", "value": NAMES}]}]},
         ["validate-inference", "redis", "p.yaml"], "value list of length 2000 is not a string"),
        ({**PLAN, "factors": [{"workload": NAMES}]}, ["validate-inference", "redis", "p.yaml"],
         "bad workload entry list of length 2000"),
        ({**PLAN, "factors": [{"workload": {LONG: 1}}]}, ["validate-inference", "redis", "p.yaml"],
         "bad workload entry dict of length 1: expected a mapping of "),
        ({**PLAN, "pairs": [LONG]}, ["validate-inference", "redis", "p.yaml"],
         "pair of 5000 characters is not two factor ids"),
        ([POLICY], ["emit", "p.yaml"], "DecisionError: policy document must be a mapping"),
        ({**POLICY, "container": ""}, ["emit", "p.yaml"],
         "DecisionError: policy needs a container name"),
        ({"plan_version": 2}, ["validate-inference", "redis", "p.yaml"],
         "PlanFormatError: p.yaml: not a plan_version 1 document"),
        ({**PLAN, "factors": [{"workload": {"read_ops": 1}}], "pairs": [["a", "b"]]},
         ["validate-inference", "redis", "p.yaml"],
         "PlanFormatError: p.yaml: pair list does not match the factor set"),
        ({**PLAN, "factors": [{"workload": {"read_ops": 1, "thread_count": 0}}]},
         ["validate-inference", "redis", "p.yaml"], "workload field thread_count must be positive"),
        ({**PLAN, "factors": [{"workload": {"read_ops": 1.5}}]},
         ["validate-inference", "redis", "p.yaml"],
         "bad workload entry {'read_ops': 1.5}: workload field read_ops must be an integer"),
        ({**MODEL, "interaction_rules": [{"when_all": [{"option_present": "tty"}]}]},
         ["explore", "p.yaml", "cpu-shares"],
         "ModelError: interaction rule needs exactly two triggers"),
        ({**MODEL, "rules": [{"when": {"option_value_in_range":
                                       {"option": "cpu-shares", "lo": 5, "hi": 1}}}]},
         ["explore", "p.yaml", "cpu-shares"], "ModelError: empty range [5, 1]"),
        ([], ["explore", "p.yaml", "cpu-shares"],
         "ModelError: model document must be a mapping"),
        ({"model_version": 1}, ["explore", "p.yaml", "cpu-shares"],
         "ModelError: model needs a non-empty name"),
        ({**MODEL, "rules": [{"when": {"option_present": 5}}]},
         ["explore", "p.yaml", "cpu-shares"], "ModelError: option_present takes an option name"),
    ], ids=["event-block", "event-names", "event-name-list", "classes", "targets",
            "score", "policy-version", "rule", "trigger", "trigger-kind", "equals-body",
            "range-body", "workload-body", "interaction", "model-version", "rule-list",
            "plan-entry", "option-entry", "option-value", "workload-entry", "workload-field",
            "pair", "policy-list", "policy-container", "plan-version", "pair-list",
            "thread-count", "read-ops-float", "one-trigger", "model-range", "model-list",
            "model-name", "option-present"])
    def test_a_whole_value_echo_is_bounded(self, tmp_path, monkeypatch, capsys, doc, argv,
                                           shown):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.yaml").write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert shown in err
        assert len(err.encode()) < 200

    CAPS = [f"CAP_X{i:03d}" for i in range(302)]
    WIDE_TRACE = "beacon-trace v1\n" + "".join(f"{n} {n} SYS unshare\n" for n in range(1, 3001))
    LONG_IDS = "".join(f"{t} {d}{'9' * 4289} SYS unshare\n" for t, d in ((1, 1), (2, 2)))

    @pytest.mark.parametrize("files,argv,shown", [
        ({"p.yaml": yaml.safe_dump({**POLICY, "allowed": {"syscalls": [LONG]}})},
         ["emit", "p.yaml"], "they differ in 1 event: of 5000 characters"),
        ({"p.yaml": yaml.safe_dump({**POLICY, "allowed": {"capabilities": CAPS},
                                    "classes": {"always": {"capabilities": CAPS[:1]}}})},
         ["check", "p.yaml", CVEDB], "they differ in 301 events: 'CAP_X001', "),
        ({"p.yaml": yaml.safe_dump({**POLICY, "allowed": {"capabilities": CAPS},
                                    "classes": {"always": {"capabilities": CAPS}}})},
         ["emit", "p.yaml", "--caps", "c.txt"],
         "EmitError: not Linux capabilities: 302 names: 'CAP_X000', "),
        ({"t.trace": WIDE_TRACE}, INGEST, "trace tracks 3000 namespaces: 1, 2, 3 and 2997 more"),
        ({"t.trace": f"beacon-trace v1\n{LONG_IDS}"}, INGEST,
         "trace tracks 2 namespaces: int of 4290 characters, int of 4290 characters"),
    ], ids=["stray-name", "stray-capabilities", "unknown-capabilities", "wide-trace",
            "long-namespace-ids"])
    def test_a_list_echo_names_its_count(self, tmp_path, monkeypatch, capsys, files, argv,
                                         shown):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert shown in err
        assert len(err.encode()) < 200
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)

    def test_a_declared_factor_id_is_named_by_its_length(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        factor = {"id": "x" * 5000, "options": [{"name": "cpu-shares", "value": "512"}]}
        (tmp_path / "p.yaml").write_text(yaml.safe_dump({**self.PLAN, "factors": [factor]}),
                                         encoding="utf-8")
        assert main(["validate-inference", "redis", "p.yaml"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: PlanFormatError: p.yaml: factor id of 5000 characters "
                              "does not match contents (")
        assert err.count("\n") == 1
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("argv,shown", [
        (["--config", LONG], "bad config entry of 5000 characters"),
        (["--config", "nosuch=" + LONG], "bad config entry of 5007 characters"),
        (["--config", "r=" + LONG], "bad config value of 5002 characters"),
        (["--config", "decay=-1"], "decay must be non-negative, got -1.0"),
    ], ids=["entry", "unknown-field", "value", "negative-decay"])
    def test_a_config_token_is_bounded(self, capsys, argv, shown):
        assert main(["explore", "redis", "cpu-shares", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
        assert shown in err
        assert len(err.encode()) < 200

    WEB_TRACE = "beacon-trace v1\n100 7 SYS unshare\n110 7 SYS prctl\n200 7 SYS read\n"
    # the temporary file `synthesize --out` writes under a 300-character
    # directory name is 322 characters long
    TOO_LONG = f"OSError: [Errno {errno.ENAMETOOLONG}] File name too long: of 5000 characters\n"
    SPACED = "a b" + "x" * 5000
    ORDINARY_PATH = "/home/operator/projects/containers/policies/web-frontend.policy"
    IGNORED = "argument -h/--help: ignored explicit argument of 5000 characters\n"
    # 40 characters, 151 bytes of UTF-8
    WIDE = "a b" + "\U0001f600" * 37

    @pytest.mark.parametrize("argv,shown", [
        (["plan", "default", "cpu-shares=" + "x" * 5000, "--out", "p.yaml"],
         "ValueParseError: option 'cpu-shares': of 5000 characters does not match"),
        (["plan", "default", "cpu-shares=" + "9" * 4300, "--out", "p.yaml"],
         "ValueRangeError: option 'cpu-shares': int of 4300 characters outside [0, 262144)"),
        (["sweep", "web.obs", CVEDB, "--targets", "1:" + "x" * 5000],
         "CliError: bad target of 5002 characters: both scores must be numbers"),
        (["sweep", "web.obs", CVEDB, "--targets", "1:" + "9" * 4300],
         "CliError: bad target of 4302 characters: functionality_min must be in [0,1], got inf"),
        (["ingest", "web.trace", "--env-id", SPACED, "--store", "web.obs"],
         "StoreError: bad environment id of 5003 characters"),
        (["ingest", "web.trace", "--env-id", "e", "--store", "web.obs", "--container", SPACED],
         "CliError: store web.obs is for container 'web', not of 5003 characters"),
        (["ingest", "web.trace", "--env-id", "e", "--store", "web.obs", "--container", WIDE],
         "CliError: store web.obs is for container 'web', not of 40 characters"),
        (["ingest", "web.trace", "--env-id", "e", "--store", "new.obs", "--container", SPACED],
         "StoreError: bad container name of 5003 characters"),
        (["explore", "redis", "cpu-shares", "--config", "v_min=" + "9" * 4300],
         "ConfigError: v_min int of 4300 characters > v_max 262143"),
        (["explore", "redis", "cpu-shares", "--config", "v_min=300000", "--config",
          "v_max=400000"],
         "CliError: --config window [300000, 400000] is outside the window [0, 262143] of "
         "option 'cpu-shares'"),
        (["explore", "cmd:true", "cpu-shares", "--config", "v_max=" + "9" * 300],
         "CliError: --config window [0, int of 300 characters] is outside the window "
         "[0, 262143] of option 'cpu-shares'"),
        (["sweep", "web.obs", CVEDB, "--targets", ","], "CliError: no targets given"),
        (["explore", "cmd:", "cpu-shares"], "ProbeError: empty probe command"),
        (["ingest", LONG, "--env-id", "e", "--store", "web.obs"], TOO_LONG),
        (["synthesize", LONG, CVEDB, "--security-min", "0", "--functionality-min", "1"],
         TOO_LONG),
        (["emit", LONG, "--seccomp", "s.json"], TOO_LONG),
        (["check", LONG, CVEDB], TOO_LONG),
        (["validate-inference", "redis", LONG], TOO_LONG),
        (["synthesize", "web.obs", CVEDB, "--security-min", "0", "--functionality-min", "1",
          "--out", "d" * 300 + "/p.policy"], TOO_LONG.replace("5000", "322")),
        (["check", "missing.policy", CVEDB],
         "error: FileNotFoundError: [Errno 2] No such file or directory: 'missing.policy'\n"),
        (["explore", "cmd:/no/such/probe", "cpu-shares"],
         "error: ExplorationError: iteration 0: '/no/such/probe': probe failed: "
         "[Errno 2] No such file or directory: '/no/such/probe'\n"),
        # 126 bytes: the probe's name and the path it could not run, by their length
        (["explore", "cmd:" + "/no" * 100, "cpu-shares"],
         "error: ExplorationError: iteration 0: of 300 characters: probe failed: "
         "[Errno 2] No such file or directory: of 300 characters\n"),
        (["ingest", "web.trace", "--env-id", "e", "--store", "web.obs", "--namespace", "9" * 5000],
         "CliError: argument --namespace: invalid int value: of 5000 characters\n"),
        (["explore", "redis", "cpu-shares", "--seed", LONG],
         "CliError: argument --seed: invalid int value: of 5000 characters\n"),
        (["synthesize", "web.obs", CVEDB, "--security-min", LONG, "--functionality-min", "1"],
         "CliError: argument --security-min: invalid float value: of 5000 characters\n"),
        (["synthesize", "web.obs", CVEDB, "--security-min", "0", "--functionality-min", LONG],
         "CliError: argument --functionality-min: invalid float value: of 5000 characters\n"),
        (["check", "p.policy", CVEDB, "--format", LONG],
         "CliError: argument --format: invalid choice: of 5000 characters "
         "(choose from 'human', 'tsv')\n"),
        ([LONG, "web.obs"],
         "CliError: argument command: invalid choice: of 5000 characters (choose from 'ingest', "),
        (["check", "p.policy", CVEDB, LONG, "y"],
         "CliError: 2 unrecognized arguments: of 5000 characters, 'y'\n"),
        (["check", ORDINARY_PATH, "cves.cvedb"],
         f"error: FileNotFoundError: [Errno 2] No such file or directory: {ORDINARY_PATH!r}\n"),
        (["-x", LONG],
         "CliError: argument command: invalid choice: of 5000 characters (choose from 'ingest', "),
        (["-h" + LONG], f"CliError: {IGNORED}"),
        (["--help=" + LONG], f"CliError: {IGNORED}"),
        (["ingest", "--help=" + LONG], f"CliError: {IGNORED}"),
        (["check", "-h" + LONG], f"CliError: {IGNORED}"),
        (["check", "p.policy", CVEDB, "-x", LONG],
         "CliError: 2 unrecognized arguments: '-x', of 5000 characters\n"),
        (["explore", "redis", "cpu-shares", "--c=" + LONG],
         "CliError: ambiguous option: of 5004 characters could match --catalog, --config\n"),
        # the program of a probe command is a piece of its argument
        (["explore", "cmd:/no/" + "p" * 116 + " {option_value}", "cpu-shares"],
         "probe failed: [Errno 2] No such file or directory: of 120 characters\n"),
    ], ids=["option-value", "option-integer", "target", "target-integer", "env-id",
            "container-mismatch", "wide-container-mismatch", "container-name", "config-integer", "config-window",
            "command-config-window", "no-targets", "empty-command", "ingest-path",
            "synthesize-path", "emit-path", "check-path", "validate-inference-path",
            "out-directory", "short-path", "probe-path", "long-probe-path", "namespace", "seed",
            "security-min", "functionality-min", "format", "command", "extra-arguments",
            "ordinary-path", "command-after-option", "glued-help", "help-value",
            "command-help-value", "command-glued-help", "command-extra-option",
            "ambiguous-option", "probe-program"])
    def test_an_argument_echo_is_bounded(self, tmp_path, monkeypatch, capsys, argv, shown):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "web.trace").write_text(self.WEB_TRACE)
        assert main(["ingest", "web.trace", "--env-id", "w", "--store", "web.obs",
                     "--container", "web"]) == 0
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert shown in err
        assert len(err.encode()) < 200

    # five nested 200-character directories: every reader puts a file's path
    # first in its errors
    DEEP_DIR = "/".join(["d" * 200] * 5)

    @pytest.mark.parametrize("files,argv,length", [
        ({"s.obs": f"{GOOD_STORE}SYS write x\n"},
         ["synthesize", f"{DEEP_DIR}/s.obs", CVEDB, "--security-min", "0", "--functionality-min",
          "1"], 1010),
        ({"t.trace": "beacon-trace v1\nbad line\n"},
         ["ingest", f"{DEEP_DIR}/t.trace", "--env-id", "a", "--store", "s.obs"], 1012),
        ({"p.policy": "allowed: [\n"}, ["emit", f"{DEEP_DIR}/p.policy", "--caps", "c.txt"], 1013),
        ({"s.obs": GOOD_STORE, "c.cvedb": "beacon-cvedb v1\nbad\n"},
         ["synthesize", f"{DEEP_DIR}/s.obs", f"{DEEP_DIR}/c.cvedb", "--security-min", "0",
          "--functionality-min", "1"], 1012),
        ({"o.catalog": "nonsense\n"}, ["plan", f"{DEEP_DIR}/o.catalog", "--out", "p.yaml"], 1014),
        ({"p.plan": "plan_version: [\n"}, ["validate-inference", "redis", f"{DEEP_DIR}/p.plan"],
         1011),
        ({"m.yaml": "a: b: c\n"}, ["explore", f"{DEEP_DIR}/m.yaml", "cpu-shares"], 1011),
    ], ids=["store", "trace", "policy", "cvedb", "catalog", "plan", "model"])
    def test_a_malformed_file_at_a_long_path_is_one_short_line(self, tmp_path, monkeypatch,
                                                                capsys, files, argv, length):
        monkeypatch.chdir(tmp_path)
        (tmp_path / self.DEEP_DIR).mkdir(parents=True)
        for name, text in files.items():
            (tmp_path / self.DEEP_DIR / name).write_text(text, encoding="utf-8")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"of {length} characters" in err
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("word,shown", [
        pytest.param(word, shown, id=word) for word, shown in (
            ("bogus", None), ("Ingest", None), ("é", None), ("x" * 40, "of 40 characters"),
        )
    ])
    def test_an_unknown_command_word_has_argparse_bytes(self, capsys, word, shown):
        """argparse's line, with a word that would take it to 200 bytes named by its length."""
        with pytest.raises(cli.CliError) as info:
            cli._build_parser([]).parse_args([word, "x"])
        expected = f"error: CliError: {info.value}\n"
        assert main([word, "x"]) == 1
        assert capsys.readouterr().err == expected.replace(repr(word), shown or repr(word))

    @pytest.mark.parametrize("name,shown", [
        ("p.tmp", "'p.tmp' -> 'p.tmp'"),
        (LONG, "of 5000 characters -> of 5000 characters"),
    ], ids=["short", "long"])
    def test_both_names_of_a_failed_rename_are_bounded(self, tmp_path, monkeypatch, capsys,
                                                       name, shown):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "web.trace").write_text(self.WEB_TRACE)
        assert main(["ingest", "web.trace", "--env-id", "w", "--store", "web.obs"]) == 0
        capsys.readouterr()

        def fail(source, target):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), name, None, name)

        monkeypatch.setattr(os, "replace", fail)
        assert main(["synthesize", "web.obs", CVEDB, "--security-min", "0",
                     "--functionality-min", "1", "--out", "p.policy"]) == 1
        assert capsys.readouterr().err == (
            f"error: OSError: [Errno {errno.EXDEV}] {os.strerror(errno.EXDEV)}: {shown}\n"
        )

    def test_an_unknown_option_name_is_bounded(self, capsys):
        assert main(["explore", "redis", self.LONG]) == 1
        assert capsys.readouterr().err == (
            "error: UnknownOptionError: unknown option of 5000 characters\n"
        )

    def test_bad_targets_string(self, redis_store_path, capsys):
        code = main(["sweep", str(redis_store_path), CVEDB, "--targets", "nonsense"])
        assert code == 1

    def test_a_closed_stdout_ends_quietly(self, tmp_path):
        """`leastpriv check P DB | head -1`: no error line, and the SIGPIPE status."""
        (tmp_path / "p.yaml").write_text(yaml.safe_dump(self.POLICY))
        # more rows than a pipe buffers, so check is still writing when the pipe closes
        (tmp_path / "c.cvedb").write_text(
            "beacon-cvedb v1\n" + "".join(f"CVE-{i}\t5\tread\n" for i in range(20000))
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        script = "import sys\nfrom leastpriv.cli import main\nsys.exit(main())\n"
        with open(tmp_path / "err", "wb") as err, subprocess.Popen(
                [sys.executable, "-c", script, "check", "p.yaml", "c.cvedb"],
                cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=err) as proc:
            try:
                first = proc.stdout.readline()
                proc.stdout.close()
                status = proc.wait(timeout=60)
            finally:
                proc.kill()
        assert first == b"cve_id\tcvss\tblocked\tmissing\n"
        assert (status, (tmp_path / "err").read_bytes()) == (141, b"")


class TestIngestAppends:
    """ingest appends one block to a store it wrote, without parsing the store."""

    @staticmethod
    def written_store(path, environments):
        store = ObservationStore("app")
        for i in range(environments):
            store.record(f"env-{i:04d}", parse_event_list([f"call{i % 7}", "read", "CAP_CHOWN"]))
        save_store(store, path)

    @staticmethod
    def trace(path, records):
        lines = ["beacon-trace v1", "1 5 SYS unshare", "2 5 SYS capset", "3 5 SYS prctl"]
        lines += [f"{ts} 5 {'CAP net_raw' if ts % 10 == 0 else f'SYS call{ts % 50}'}"
                  for ts in range(4, records + 1)]
        path.write_text("\n".join(lines) + "\n")

    def test_ingest_reads_each_record_once_and_never_loads_the_store(
        self, tmp_path, capsys, monkeypatch
    ):
        store, trace = tmp_path / "s.obs", tmp_path / "t.trace"
        self.written_store(store, 500)
        self.trace(trace, 1000)
        before = store.read_bytes()
        real_load_store = decision.load_store

        def no_load(path):
            raise AssertionError("ingest parsed the whole store")

        for module in (decision, cli):
            monkeypatch.setattr(module, "load_store", no_load)
        calls = Counter()
        for name in ("canonical_syscall", "canonical_capability"):
            def counted(text, _canonical=getattr(events, name)):
                calls["canonical"] += 1
                return _canonical(text)
            for module in (events, monitor, decision):
                monkeypatch.setattr(module, name, counted)

        @contextlib.contextmanager
        def counted_reading(path, error, _reading=monitor.reading):
            calls["opens"] += 1
            with _reading(path, error) as handle:
                def lines():
                    for line in handle:
                        calls["lines"] += 1
                        yield line
                yield lines()

        monkeypatch.setattr(monitor, "reading", counted_reading)
        assert main(["ingest", str(trace), "--env-id", "zz-new", "--store", str(store),
                     "--container", "app"]) == 0
        trace_lines = trace.read_text().splitlines()
        # each line is read once, and each distinct name canonicalised once
        assert (calls["opens"], calls["lines"]) == (1, len(trace_lines)) == (1, 1001)
        names = {tuple(line.split()[2:]) for line in trace_lines[1:]}
        assert calls["canonical"] == len(names) == 49
        assert capsys.readouterr().out.endswith("(501 environments)\n")
        after = store.read_bytes()
        assert after.startswith(before)
        assert after[len(before):].startswith(b"ENV zz-new\nSYS call1 19\n")
        loaded = real_load_store(store)
        assert len(loaded) == 501
        assert loaded.counts_for("zz-new")[1] == Counter({"CAP_NET_RAW": 100})

    def test_non_ascii_names_and_ids_keep_ingest_off_load_store(self, tmp_path, monkeypatch):
        store, trace = tmp_path / "s.obs", tmp_path / "t.trace"
        written = ObservationStore("app")
        written.record("café", parse_event_list(["réad", "CAP_ÇHOWN"]))
        save_store(written, store)
        trace.write_text("beacon-trace v1\n1 5 SYS unshare\n2 5 SYS capset\n3 5 SYS prctl\n"
                         "4 5 SYS rÉad\n5 5 SYS write\n6 5 CAP çhown\n", encoding="utf-8")
        real_load_store = decision.load_store

        def no_load(path):
            raise AssertionError("ingest parsed the whole store")

        for module in (decision, cli):
            monkeypatch.setattr(module, "load_store", no_load)
        for i in range(50):
            assert main(["ingest", str(trace), "--env-id", f"ünï-{i % 20}", "--store", str(store),
                         "--container", "app"]) == 0
        loaded = real_load_store(store)
        assert loaded.environments() == ("café", *sorted(f"ünï-{i}" for i in range(20)))
        assert loaded.counts_for("ünï-3") == (Counter({"réad": 3, "write": 3}),
                                              Counter({"CAP_ÇHOWN": 3}))


class TestParserPerSubcommand:
    """A call builds only its own subcommand's parser, with the full parser's bytes."""

    COMMANDS = ("ingest", "plan", "explore", "validate-inference", "score", "synthesize",
                "sweep", "emit", "check")
    ARGVS = [
        *([command, "-h"] for command in COMMANDS),
        *([command] for command in COMMANDS),
        [], ["-h"], ["--help"], ["bogus"], ["-x", "ingest"], ["--", "ingest"],
        ["Ingest", "t.trace"], ["ingest", "--bogus"], ["ingest", "t.trace", "--env-id"],
        ["explore", "redis", "cpu-shares", "--seed", "x"], ["check", "p.policy", "c", "--format", "x"],
    ]

    @staticmethod
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = ("SystemExit", exc.code)
        return status, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_output_matches_the_full_parser(self, argv, monkeypatch):
        got = self.run(list(argv))
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda _argv: build([]))
        assert got == self.run(list(argv))

    def test_main_reads_sys_argv_when_given_none(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["leastpriv", "check", "-h"])
        assert self.run(None) == self.run(["check", "-h"])
        monkeypatch.setattr(sys, "argv", ["leastpriv", "check", "missing.policy", "c"])
        status, out, err = self.run(None)
        assert (status, out) == (1, "")
        assert err.startswith("error: FileNotFoundError: ")

    def test_a_named_subcommand_gets_only_its_own_parser(self):
        for command in self.COMMANDS:
            usage = cli._build_parser([command, "x"]).format_usage()
            assert usage == f"usage: leastpriv [-h] {{{command}}} ...\n"

    def test_top_level_help_lists_every_command(self):
        status, out, _ = self.run(["-h"])
        assert status == ("SystemExit", 0)
        assert "{" + ",".join(self.COMMANDS) + "}" in out


# What main printed, and its status, for each argv of a help request or a
# usage error with short values: argparse's own help, usage and error
# bytes, which the one error-line rule leaves as they are in every line
# under 200 bytes.  A status of ["SystemExit", code] is argparse's exit
# after help.
SHORT_VALUES = json.loads((GOLDEN / "cli-short-values.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("row", SHORT_VALUES, ids=lambda row: " ".join(row["argv"]))
def test_argparse_bytes(row, tmp_path, monkeypatch):
    """argparse's own help, usage and error bytes, short values echoed whole."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    status, out, err = TestParserPerSubcommand.run(list(row["argv"]))
    assert (json.loads(json.dumps(status)), out, err) == (
        row["status"], row["stdout"], row["stderr"]
    )
