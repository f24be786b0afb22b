"""Every process a run starts has ended before the run returns.

``repro serve`` and the in-process ``QueryService`` spawn their workers through
``multiprocessing``, which also starts a resource tracker per supervisor: a
helper that outlives its parent by the moment it takes to notice the closed
pipe.  Waiting for the supervisor alone therefore leaves processes behind --
the tracker always, the workers when the supervisor had to be killed.  Here a
run finds the processes below a given one in ``/proc``, waits until each has
ended, and kills what outlives a grace period.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from typing import Dict, Iterable, List, Tuple

PR_SET_CHILD_SUBREAPER = 36
#: Seconds a process may take to end by itself before it is killed.
GRACE_S = 10.0
POLL_S = 0.005


def adopt_orphans() -> None:
    """Become the parent of every descendant whose own parent ends (Linux).

    Such a process would otherwise be handed to init, where this process can
    neither wait for it nor tell whether it has been collected.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _table() -> Dict[int, Tuple[int, str]]:
    """pid -> (parent pid, state letter) of every process in ``/proc``."""
    table: Dict[int, Tuple[int, str]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue  # ended between listdir and open
        state, parent = stat[stat.rindex(")") + 2:].split()[:2]
        table[int(entry)] = (int(parent), state)
    return table


def descendants(root: int) -> List[int]:
    """Every process below ``root``, nearest first.

    A zombie whose parent is another live process is left out: it has ended,
    and collecting it is that parent's business.
    """
    table = _table()
    me = os.getpid()
    found: List[int] = []
    frontier = [root]
    while frontier:
        parents = set(frontier)
        frontier = [pid for pid, (parent, _) in table.items() if parent in parents]
        found.extend(pid for pid in frontier
                     if table[pid][1] != "Z" or table[pid][0] == me)
    return found


def _ended(pid: int) -> bool:
    try:
        return os.waitpid(pid, os.WNOHANG)[0] == pid
    except ChildProcessError:
        pass  # not (or no longer) a child of this process
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            stat = handle.read()
    except OSError:
        return True
    return stat[stat.rindex(")") + 2] == "Z"


def wait_ended(pids: Iterable[int], grace_s: float = GRACE_S) -> List[int]:
    """Return once every process of ``pids`` has ended; the ones killed for it."""
    left = list(pids)
    killed: List[int] = []
    deadline = time.monotonic() + grace_s
    while True:
        left = [pid for pid in left if not _ended(pid)]
        if not left:
            return killed
        if time.monotonic() > deadline:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    continue
                killed.append(pid)
            deadline = time.monotonic() + grace_s
        time.sleep(POLL_S)


def end_descendants(grace_s: float = GRACE_S) -> List[int]:
    """Wait until this process has no descendant left; the ones killed for it.

    Call :func:`adopt_orphans` first, or a process whose parent has ended is
    init's and no longer found.  ``multiprocessing``'s resource tracker of
    this very process only ends when told to, so it is told first.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    killed: List[int] = []
    while True:
        pids = descendants(os.getpid())
        if not pids:
            return killed
        killed.extend(wait_ended(pids, grace_s))
