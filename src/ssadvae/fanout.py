"""Independent jobs in parallel forked processes.

``fan_out`` runs an ordered list of jobs: the first in the calling process,
each other one in a forked child that pickles its result back through a
pipe. ``trainer.train`` and ``models.ensemble_score`` use it for ensemble
members, which never read one another: they cut the members into
``min(K, _usable_cpus())`` contiguous groups with ``_member_groups`` and
fan out over the groups. Each caller keeps its own rule for when to stay in
process and for which of several errors to raise.
"""
from __future__ import annotations

import contextlib
import os
import pickle
import signal


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork or say."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _member_groups(items: list, n_groups: int) -> list:
    """``items`` cut into n_groups contiguous groups whose sizes differ by
    at most one, larger first: five items in two groups are 3 and 2."""
    size, extra = divmod(len(items), n_groups)
    ends = [g * size + min(g, extra) for g in range(n_groups + 1)]
    return [items[lo:hi] for lo, hi in zip(ends, ends[1:])]


def _fork(fn, job) -> tuple:
    """A forked child that pickles back ``fn(job)``, or the exception it
    raised, through a pipe. Returns (pid, read end). The child writes
    nothing else and never returns from here."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            try:
                outcome = fn(job)
            except Exception as e:
                outcome = e
            with open(w, "wb") as fh:
                pickle.dump(outcome, fh)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r


def _outcome(data: bytes, status: int, what: str):
    """A child's unpickled outcome, from what it wrote and its wait status;
    a RuntimeError naming ``what`` if it left none."""
    try:
        return pickle.loads(data)
    except Exception:
        code = os.waitstatus_to_exitcode(status)
        how = f"status {code}" if code >= 0 else f"signal {-code}"
        return RuntimeError(f"{what} ended without a result (exit {how})")


def fan_out(fn, jobs: list, what: str) -> list:
    """``fn(job)`` for every job, or the Exception it raised, in job order.

    Job 0 runs in this process after one forked child per other job has
    started; a lone job forks nothing. A child that ends without a result
    gives a RuntimeError "<what> <job> ended without a result" with its
    exit status. Every child is reaped before this returns; if this
    process raises or is interrupted, every child is killed and reaped.
    """
    children = []  # (pid, read end) of jobs 1.., the pid None once reaped
    try:
        for job in jobs[1:]:
            children.append(_fork(fn, job))
        try:
            outcomes = [fn(jobs[0])]
        except Exception as e:
            outcomes = [e]
        for i, ((pid, fd), job) in enumerate(zip(children, jobs[1:])):
            with open(fd, "rb", closefd=False) as fh:
                data = fh.read()
            status = os.waitpid(pid, 0)[1]
            children[i] = (None, fd)
            outcomes.append(_outcome(data, status, f"{what} {job}"))
    finally:
        for pid, fd in children:
            if pid is not None:  # left by an error or an interrupt
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)
            os.close(fd)
    return outcomes
