"""Independent work in parallel forked processes.

``fan_out`` is the one place that decides how ordered, independent items,
the members of an ensemble, are split across processes, and its fork is the
package's only concurrency: ``trainer.train`` and ``models.ensemble_score``
hand it their items and get back one outcome per group, and each keeps its
own rule for which of several errors to raise.
"""
from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading

from . import host


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


def _fork(fn, group) -> tuple:
    """A forked child that pickles back ``fn(group)``, or the exception it
    raised, through a pipe. Returns (pid, read end). The child is killed
    with its parent (``host.die_with``), writes nothing else and never returns
    from here."""
    parent = os.getpid()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            host.die_with(parent)
            os.close(r)
            try:
                outcome = fn(group)
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


def fan_out(fn, items: list, what: str, *, stacked: bool) -> list:
    """``fn(group)`` for every group of ``items``, or the Exception it
    raised, in group order.

    The items are cut into G contiguous groups whose sizes differ by at most
    one, larger first (``_member_groups``). ``stacked`` says whether ``fn``
    runs a group's items as one computation, which costs less per item the
    more it holds: stacked work (training) gets G = min(len(items), usable
    CPUs); unstacked work (scoring) gets one group per item, but at most
    4 x usable CPUs, so the process count is bounded by the machine. G = 1
    on one usable CPU, where ``os.fork`` or ``os.sched_getaffinity`` is
    missing, and while another thread runs, since a fork copies only the
    calling thread and a lock another thread holds would stay held in the
    child. Group 0 runs in this process after one forked child per other
    group has started; a lone group forks nothing. A child pickles its
    outcome back through a pipe, and one that ends without a result gives a
    RuntimeError "<what> <group> ended without a result" with its exit
    status. Every child is reaped before this returns; if this process
    raises or is interrupted, every child is killed and reaped.
    """
    cpus = 1 if threading.active_count() > 1 else _usable_cpus()
    per_cpu = 1 if stacked or cpus == 1 else 4
    groups = _member_groups(items, min(len(items), per_cpu * cpus))
    children = []  # (pid, read end) of groups 1.., the pid None once reaped
    try:
        for group in groups[1:]:
            children.append(_fork(fn, group))
        try:
            outcomes = [fn(groups[0])]
        except Exception as e:
            outcomes = [e]
        for i, ((pid, fd), group) in enumerate(zip(children, groups[1:])):
            with open(fd, "rb", closefd=False) as fh:
                data = fh.read()
            status = os.waitpid(pid, 0)[1]
            children[i] = (None, fd)
            outcomes.append(_outcome(data, status, f"{what} {group}"))
    finally:
        for pid, fd in children:
            if pid is not None:  # left by an error or an interrupt
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)
            os.close(fd)
    return outcomes
