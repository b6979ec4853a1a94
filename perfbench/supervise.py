"""Run a workload in a child interpreter and leave no process behind.

The program under test starts processes of its own: the scheduler's worker
pool and, through ``multiprocessing.shared_memory``, Python's resource
tracker.  The tracker only exits once its parent is gone, so it outlives the
interpreter that ran the workload by a few milliseconds, and a worker whose
parent died by a signal waits on its queue for ever.  The benchmark therefore
never runs a workload in the process the caller waits for: that process is a
*child subreaper* (``prctl(PR_SET_CHILD_SUBREAPER)``), so every descendant
the workload orphans is re-parented to it, and it returns only when it has
no child left — waiting a moment for those that end by themselves, killing
the rest — on every path out, a signal included.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Sequence

from perfbench import CLEARED_ENV, PINNED_ENV

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PR_SET_CHILD_SUBREAPER = 36
#: Seconds an orphan gets to end by itself before it is killed.
GRACE_SECONDS = 5.0


def pinned_environment() -> Dict[str, str]:
    """Hash seeding and BLAS threading are read when the interpreter and
    NumPy start, so the child is started under them."""
    environment = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    environment.update(PINNED_ENV)
    return environment


def _become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _children() -> List[int]:
    """Process ids whose parent is this process, read from ``/proc``."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # "pid (comm) state ppid ..."; comm may itself hold ") ".
                fields = handle.read().rpartition(") ")[2].split()
        except OSError:  # ended while we were looking
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def _reap_all() -> None:
    """Return once this process has no child, running or defunct."""
    kill_at = time.monotonic() + GRACE_SECONDS
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= kill_at:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            kill_at = time.monotonic() + GRACE_SECONDS
        time.sleep(0.005)


def _raise_exit(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def run_workload(arguments: Sequence[str], quiet: bool = False) -> int:
    """``python -m perfbench --child *arguments`` under the pinned
    environment; returns its exit code after every descendant has ended."""
    _become_subreaper()
    handled = (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)
    previous = {signum: signal.signal(signum, _raise_exit) for signum in handled}
    child = subprocess.Popen(
        [sys.executable, "-m", "perfbench", "--child", *arguments],
        cwd=ROOT,
        env=pinned_environment(),
        stdout=subprocess.DEVNULL if quiet else None,
    )
    try:
        return child.wait()
    finally:
        for signum in handled:  # nothing interrupts the clean-up
            signal.signal(signum, signal.SIG_IGN)
        if child.poll() is None:
            child.kill()
            child.wait()
        _reap_all()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
