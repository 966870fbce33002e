"""pyproject.toml ships every data file the package opens.

The tests import the package from `src/` without installing it, so
nothing else checks that `[tool.setuptools.package-data]` covers the
resources: a file its globs miss is left out of an installed package,
and the first command that opens it fails there.  The globs are expanded
as setuptools expands them, relative to the package directory, with `*`
stopping at `/`.
"""

from pathlib import Path

import pytest

import leastpriv
from leastpriv.simharness import FIXTURE_NAMES

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = Path(leastpriv.__file__).resolve().parent

# What default_cvedb, default_catalog and load_fixture open.
OPENED = ("data/cves.cvedb", "data/options.catalog",
          *(f"data/fixtures/{name}.yaml" for name in FIXTURE_NAMES))


def files(paths):
    return {path.relative_to(PACKAGE).as_posix() for path in paths if path.is_file()}


def test_package_data_globs_cover_every_data_file():
    with open(PYPROJECT, "rb") as handle:
        globs = tomllib.load(handle)["tool"]["setuptools"]["package-data"]["leastpriv"]
    shipped = files(path for pattern in globs for path in PACKAGE.glob(pattern))
    data = files((PACKAGE / "data").rglob("*"))
    assert set(OPENED) <= data
    assert data - shipped == set()
