"""No process outlives a run.

Every system under test stops its own children on the way out
(``HttpChild.stop``, ``ShardCoordinator.close``, ``Pool.join``).  Two
kinds of process still slipped through:

* the ``multiprocessing`` resource tracker, which the ``spawn`` start
  method of the shard workers launches once per process.  It ends only
  when its parent's end of a pipe closes — *after* this process has
  exited — so for a few milliseconds it was alive with no benchmark
  left: a process the caller of the benchmark can still see;
* whatever a system under test leaves behind when a run dies half-way.

:func:`adopt_orphans` makes this process the reaper of all its
descendants, so a grandchild whose parent died is re-parented here
instead of to init; :func:`stop_all` — called on every path out of
``main`` — stops the resource tracker the way ``multiprocessing`` does,
then ends and waits for every child that is left.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from typing import List

_PR_SET_CHILD_SUBREAPER = 36
_GRACE_SECONDS = 5.0  # between SIGTERM and SIGKILL
_GIVE_UP_SECONDS = 30.0


def adopt_orphans() -> None:
    """Orphaned descendants re-parent to this process (Linux; elsewhere
    a no-op and :func:`stop_all` sees direct children only)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def children() -> List[int]:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                # "pid (comm) state ppid ..." — comm may hold anything
                ppid = int(handle.read().rsplit(b")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # ended while we looked
        if ppid == me:
            found.append(int(entry))
    return found


def _stop_resource_tracker() -> None:
    """Close the tracker's pipe and wait for it, as ``multiprocessing``
    itself does in its tests.  It ignores SIGTERM, so without this it
    would have to be killed, and it would then not clean up."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass


def _signal(pids: List[int], signum: int) -> None:
    for pid in pids:
        try:
            os.kill(pid, signum)
        except ProcessLookupError:
            pass


def stop_all() -> int:
    """End every child of this process and wait until each has ended.
    Returns how many had to be told to (0 after a clean run)."""
    _stop_resource_tracker()
    told = set()
    started = time.monotonic()
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:  # reap what has ended
                pass
        except ChildProcessError:
            return len(told)  # no child left
        waited = time.monotonic() - started
        if waited > _GIVE_UP_SECONDS:
            return len(told)
        left = children()
        _signal(left, signal.SIGTERM if waited < _GRACE_SECONDS else signal.SIGKILL)
        told.update(left)
        time.sleep(0.01)
