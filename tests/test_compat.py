"""The package keeps to the oldest Python that pyproject.toml promises (3.10).

Newer `re` syntax such as possessive quantifiers and atomic groups
compiles on 3.11 and fails on 3.10 at import, and so does newer Python
syntax such as `except*`.  These tests compile every module-level
pattern and every source file of the package under a Python 3.10
interpreter when one is found, on PATH as `python3.10` or in a pyenv
install, and skip otherwise.  Only the patterns, as (pattern, flags)
pairs, and the file paths go across, and the interpreter compiles with
the standard library alone, so it needs no third-party packages.
"""

import glob
import importlib
import json
import os
import pkgutil
import re
import shutil
import subprocess
from pathlib import Path

import pytest

import leastpriv

_COMPILE_ALL = """
import json, re, sys
for module, name, pattern, flags in json.load(sys.stdin):
    try:
        re.compile(pattern, flags)
    except re.error as exc:
        sys.exit(f"{module}.{name}: {exc}")
print(sys.version_info[:2] == (3, 10))
"""

_COMPILE_SOURCES = """
import json, sys
for path in json.load(sys.stdin):
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    try:
        compile(source, path, "exec", dont_inherit=True)
    except SyntaxError as exc:
        sys.exit(f"{path}:{exc.lineno}: {exc.msg}")
print(sys.version_info[:2] == (3, 10))
"""


def _python310():
    pyenv = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    candidates = [shutil.which("python3.10")]
    candidates += sorted(glob.glob(os.path.join(pyenv, "versions", "3.10*", "bin", "python3")))
    for candidate in filter(None, candidates):
        try:
            probe = subprocess.run([candidate, "-c", "import sys; print(sys.version_info[:2])"],
                                   capture_output=True, text=True, timeout=30)
        except OSError:
            continue
        if probe.returncode == 0 and probe.stdout.strip() == "(3, 10)":
            return candidate
    return None


def _passes_on_python_3_10(script, items):
    """Run script under Python 3.10 with items as JSON on stdin; skip when there is none."""
    python = _python310()
    if python is None:
        pytest.skip("no Python 3.10 interpreter found")
    result = subprocess.run([python, "-c", script], input=json.dumps(items),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "True"


def _module_patterns():
    """Every module-level pattern of every module in the package, each module imported here."""
    modules = [leastpriv] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(leastpriv.__path__, "leastpriv.")
    ]
    return [
        (module.__name__, name, value.pattern, value.flags)
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, re.Pattern)
    ]


def test_module_patterns_compile_on_python_3_10():
    patterns = _module_patterns()
    for module in ("leastpriv.decision", "leastpriv.options"):
        assert any(name == module for name, *_ in patterns)
    _passes_on_python_3_10(_COMPILE_ALL, patterns)


def test_package_sources_compile_on_python_3_10():
    sources = sorted(str(path) for path in Path(leastpriv.__file__).parent.rglob("*.py"))
    assert any(path.endswith("cli.py") for path in sources)
    _passes_on_python_3_10(_COMPILE_SOURCES, sources)
