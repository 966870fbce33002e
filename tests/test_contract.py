"""The CLI's contract over mutated input files.

Each subcommand reads one valid file with one mutation: a token replaced
by 5000 characters, by 4301 digits, by NUL or by bytes that are not
UTF-8, the file cut inside a line, its header written twice, or a line
deleted.  Whatever the file holds, `main` exits 0, 1 or 2; on exit 1
stderr is one `error: ` line under 200 bytes, and nothing prints a
traceback.
"""

import contextlib
import io
import re
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from leastpriv.cli import main
from leastpriv.environment import baseline_environment
from leastpriv.simharness import emit_trace, load_fixture

DATA = resources.files("leastpriv") / "data"

# kind -> the subcommand that reads it; `@name` is a file in the call's
# directory, which holds a valid file of every kind but the mutated one
COMMANDS = {
    "trace": ["ingest", "@trace", "--env-id", "e", "--store", "@out.obs"],
    "store": ["synthesize", "@store", "@cvedb", "--security-min", "0", "--functionality-min", "1"],
    "cvedb": ["check", "@policy", "@cvedb"],
    "policy": ["emit", "@policy", "--seccomp", "@out.json", "--caps", "@out.txt"],
    "plan": ["validate-inference", "@model", "@plan"],
    "model": ["explore", "@model", "cpu-shares", "--config", "it_max=2"],
    "catalog": ["plan", "@catalog", "init", "cpu-shares=2", "W1", "--out", "@out.plan"],
}

TOKENS = {"long": b"x" * 5000, "digits": b"9" * 4301, "nul": b"\x00", "not-utf-8": b"\xff\xfe"}
MUTATIONS = (*TOKENS, "truncated", "duplicated-header", "deleted-line")


def call(directory: Path, argv: list[str]) -> tuple[int, str, str]:
    argv = [str(directory / arg[1:]) if arg.startswith("@") else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def valid(tmp_path_factory) -> dict[str, bytes]:
    """A valid file of each kind, the store, policy and plan written by the CLI."""
    directory = tmp_path_factory.mktemp("valid")
    files = {
        "cvedb": (DATA / "cves.cvedb").read_bytes(),
        "model": (DATA / "fixtures" / "redis.yaml").read_bytes(),
        "catalog": (DATA / "options.catalog").read_bytes(),
        "trace": emit_trace(load_fixture("redis"), baseline_environment()).encode(),
    }
    for name, data in files.items():
        (directory / name).write_bytes(data)
    for argv in (["ingest", "@trace", "--env-id", "a", "--store", "@store"],
                 ["synthesize", "@store", "@cvedb", "--security-min", "0",
                  "--functionality-min", "1", "--out", "@policy"],
                 ["plan", "@catalog", "init", "cpu-shares=2", "W1", "--out", "@plan"]):
        assert call(directory, argv)[0] == 0
    for name in ("store", "policy", "plan"):
        files[name] = (directory / name).read_bytes()
    return files


def mutate(data: bytes, mutation: str, line: int, at: int) -> bytes:
    """data with one mutation at its line-th non-blank line, `at` choosing where in it."""
    lines = data.split(b"\n")
    candidates = [i for i, text in enumerate(lines) if text.strip()]
    index = candidates[line % len(candidates)]
    text = lines[index]
    if mutation == "duplicated-header":
        lines.insert(0, lines[0])
    elif mutation == "deleted-line":
        del lines[index]
    elif mutation == "truncated":
        lines[index:] = [text[:at % len(text)]]
    else:
        tokens = list(re.finditer(rb"\S+", text))
        token = tokens[at % len(tokens)]
        lines[index] = text[:token.start()] + TOKENS[mutation] + text[token.end():]
    return b"\n".join(lines)


@pytest.mark.parametrize("kind", COMMANDS)
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(mutation=st.sampled_from(MUTATIONS), line=st.integers(0, 1000), at=st.integers(0, 1000))
def test_a_mutated_file_keeps_the_contract(valid, kind, mutation, line, at):
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        for other, data in valid.items():
            (directory / other).write_bytes(data)
        (directory / kind).write_bytes(mutate(valid[kind], mutation, line, at))
        status, out, err = call(directory, COMMANDS[kind])
    assert status in (0, 1, 2)
    assert "Traceback" not in out + err
    if status == 1:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode()) < 200
