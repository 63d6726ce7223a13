import os
import threading

import numpy as np
import pytest

from ssadvae import gradcore as gc
from ssadvae import netblocks as nb
from ssadvae import vbounds as vb

ACCEPTANCE_LINES = []


@pytest.fixture(autouse=True)
def no_thread_or_process_left_running():
    """Fail a test that ends with a live thread it did not start with, or
    with a child process: scoring's noise helper, for one, must be joined
    before score returns, and every process that train or ensemble_score
    forks for its member groups must be reaped before it returns, also
    when a member raises. A child found here is reaped, or reported
    running."""
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
    """The posterior and the reconstruction-loss closure that ``vb.elbo``
    and ``vb.cubo_loss`` build from a network on the rows ``x`` before they
    draw noise: ``vb.elbo_from_posterior`` and ``vb.cubo_from_posterior``
    take them with pinned noise."""
    xt = gc.constant(x)
    return (nb.encode(enc, xt),
            lambda z: vb.reconstruction_loss(nb.decode(dec, z), xt, dec.family))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
