import os
import threading

import numpy as np
import pytest

from ssadvae import models as md

ACCEPTANCE_LINES = []


@pytest.fixture(autouse=True)
def no_thread_or_process_left_running():
    """Fail a test that ends with a live thread it did not start with, or
    with a child process: every process that train or ensemble_score forks
    for its member groups must be reaped before it returns, also when a
    member raises. A child found here is reaped, or reported running."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads left running: {', '.join(left)}")
    children = []
    while True:
        try:
            pid, status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            children.append("one or more still running")
            break
        children.append(f"pid {pid}, exit {os.waitstatus_to_exitcode(status)}")
    if children:
        pytest.fail(f"child processes left: {'; '.join(children)}")


class PinnedNoise:
    """A stand-in for one member's noise generator: each
    ``standard_normal(out=)`` fills ``out`` with the same fixed numbers, so
    a loss evaluated twice sees the same noise."""

    def __init__(self, noise):
        self.noise = np.asarray(noise, dtype=np.float64)

    def standard_normal(self, out):
        assert out.shape == self.noise.shape, (out.shape, self.noise.shape)
        out[...] = self.noise
        return out


def encoded(enc, dec, x):
    """The posterior and the reconstruction-loss closure that the objectives
    hand ``vb.elbo`` and ``vb.cubo_loss``, built by ``md.encode_batch`` from
    a network on the rows ``x``: a test hands them over with pinned noise."""
    return md.encode_batch(enc, dec, x)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
