"""Event name canonicalization, event-set algebra, and what each import and call loads."""

import importlib.util
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import leastpriv
from leastpriv.cli import main
from leastpriv.events import EventNameError, EventSet, canonical_capability, canonical_syscall

SPACES = [chr(code) for code in range(sys.maxunicode + 1) if chr(code).isspace()]
SRC = str(Path(leastpriv.__file__).resolve().parents[1])
CVEDB = str(resources.files("leastpriv").joinpath("data/cves.cvedb"))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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


def test_an_unknown_event_kind_is_refused():
    with pytest.raises(EventNameError) as raised:
        EventSet.from_events([("NET", "x")])
    assert str(raised.value) == "unknown event kind 'NET'"


def test_set_operators_work_per_kind():
    a = EventSet.of(["read", "openat"], ["chown"])
    b = EventSet.of(["read"], ["net_raw"])
    assert a | b == EventSet.of(["read", "openat"], ["chown", "net_raw"])
    assert a - b == EventSet.of(["openat"], ["chown"])
    assert a & b == EventSet.of(["read"])
    assert a ^ b == EventSet.of(["openat"], ["chown", "net_raw"])
    assert a & b <= a and a <= a | b
    assert not a <= b and not EventSet.of([], ["chown"]) <= EventSet.of(["chown"])


def loaded(statements: str, cwd=None) -> list[str]:
    """The leastpriv, yaml and hashing modules a fresh interpreter holds after statements."""
    snippet = (
        f"import sys\n{statements}\nimport json\n"
        "roots = ('leastpriv', 'yaml', 'hashlib', '_hashlib')\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in roots)))\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-c", snippet], env=env, cwd=cwd,
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def test_importing_events_loads_no_other_module_and_no_yaml():
    """The package re-exports nothing, so a module loads only what it imports."""
    assert loaded("import leastpriv.events") == ["leastpriv", "leastpriv.events"]
    # stages meet only at the event model
    assert loaded("import leastpriv.emitter") == [
        "leastpriv", "leastpriv.emitter", "leastpriv.events"
    ]
    decision = loaded("import leastpriv.decision")
    assert "leastpriv.decision" in decision
    assert "leastpriv.monitor" not in decision and "leastpriv.emitter" not in decision


# The modules only plan, explore and validate-inference run, and OpenSSL's
# hashing module, which only an environment id needs.
EXPLORATION = ("leastpriv.explorer", "leastpriv.environment", "leastpriv.options",
               "leastpriv.simharness", "_hashlib")


@pytest.mark.parametrize("argv", [
    ["ingest", "t.trace", "--env-id", "e", "--store", "new.obs"],
    ["synthesize", "s.obs", CVEDB, "--security-min", "0", "--functionality-min", "1",
     "--out", "p.yaml"],
    ["emit", "p.yaml", "--seccomp", "seccomp.json", "--caps", "caps.txt"],
], ids=["ingest", "synthesize", "emit"])
def test_a_line_format_call_loads_no_exploration_module(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.trace").write_text("beacon-trace v1\n1 4 SYS unshare\n2 4 SYS read\n")
    assert main(["ingest", "t.trace", "--env-id", "e", "--store", "s.obs"]) == 0
    assert main(["synthesize", "s.obs", CVEDB, "--security-min", "0",
                 "--functionality-min", "1", "--out", "p.yaml"]) == 0
    capsys.readouterr()
    modules = loaded(f"from leastpriv.cli import main\nassert main({argv!r}) == 0", tmp_path)
    assert "leastpriv.decision" in modules
    assert [name for name in EXPLORATION if name in modules] == []


def test_a_plan_loads_environment_and_hashlib(tmp_path):
    modules = loaded("from leastpriv.cli import main\n"
                     "assert main(['plan', 'default', 'cpu-shares=512', '--out', 'p.yaml']) == 0",
                     tmp_path)
    assert "leastpriv.environment" in modules and "hashlib" in modules


def test_the_cli_and_explorer_load_every_layer_the_benchmark_tracer_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = loaded("import leastpriv.cli\nimport leastpriv.explorer")
    assert [layer for layer in tracer.LAYERS if f"leastpriv.{layer}" not in modules] == []
