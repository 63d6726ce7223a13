import threading

import pytest

ACCEPTANCE_LINES = []


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that ends with a live thread it did not start with:
    scoring's noise helper, for one, must be joined before score returns."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads left running: {', '.join(left)}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
