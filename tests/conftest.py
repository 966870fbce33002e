from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def pytest_collection_modifyitems(config, items):
    """Fail a test under tests/ that leaves a file open or an exception unraised."""
    for item in items:
        if TESTS in item.path.resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(
                pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
            )


@pytest.fixture
def announce(request):
    """Print a line on the real terminal, past any output capture."""
    manager = request.config.pluginmanager.getplugin("capturemanager")

    def _announce(line: str) -> None:
        if manager is None:
            print(line, flush=True)
            return
        with manager.global_and_fixture_disabled():
            print(line, flush=True)

    return _announce
