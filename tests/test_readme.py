"""The README's Quickstart runs as written.

Each `leastpriv` command of the Quickstart's shell blocks goes through
`cli.main` in a fresh directory, in order, after the block's heredoc has
written its trace and with the shipped CVE database as `cves.cvedb`.
Every `# ` line after a command must be a line of its stdout (of the
file, after `cat FILE`), and the command must exit with the status the
prose after its block states (`and exits 2`), else 0.
"""

import re
import shlex
from importlib import resources
from pathlib import Path

from leastpriv.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_blocks():
    """(shell lines, exit status the following prose states) per block."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Quickstart\n", 1)[1].split("\n## ", 1)[0]
    blocks = []
    for body, after in re.findall(r"```sh\n(.*?)```(.*?)(?=```|\Z)", section, re.S):
        stated = re.match(r"\s*and exits (\d)", after)
        blocks.append((body.splitlines(), int(stated[1]) if stated else 0))
    return blocks


def commands(lines):
    """(kind, argument, expected lines): kind is `heredoc`, `run` or `cat`."""
    steps, i = [], 0
    while i < len(lines):
        line = lines[i]
        i += 1
        heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
        if heredoc:
            end = lines.index("EOF", i)
            steps.append(("heredoc", heredoc[1], lines[i:end]))
            i = end + 1
            continue
        while line.endswith("\\"):
            line = line[:-1] + lines[i]
            i += 1
        if line.startswith("leastpriv "):
            steps.append(("run", shlex.split(line)[1:], []))
        elif line.startswith("cat "):
            steps.append(("cat", line.split()[1], []))
        elif line.startswith("# "):
            steps[-1][2].append(line[2:])
        elif line.strip():
            raise AssertionError(f"README Quickstart line not understood: {line!r}")
    return steps


def test_quickstart_commands_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cvedb = resources.files("leastpriv").joinpath("data/cves.cvedb")
    (tmp_path / "cves.cvedb").write_text(cvedb.read_text(encoding="utf-8"), encoding="utf-8")
    ran = 0
    for lines, status in quickstart_blocks():
        for kind, argument, expected in commands(lines):
            if kind == "heredoc":
                Path(argument).write_text("\n".join(expected) + "\n", encoding="utf-8")
                continue
            if kind == "run":
                code = main(argument)
                output = capsys.readouterr().out
                ran += 1
                assert code == status, (argument, code, output)
            else:
                output = Path(argument).read_text(encoding="utf-8")
            for line in expected:
                assert line in output.splitlines(), (argument, line, output)
    assert ran == 4
