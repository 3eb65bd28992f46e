"""Spawn the benchmark's commands one at a time and measure each.

Usage: ``python3 perfbench/launcher.py`` with JSON requests on standard input,
one a line: ``{"argv": [...], "timeout_s": T, "stdout": PATH, "stderr": PATH}``.
For each it starts ``<this interpreter> argv...`` with the launcher's own
environment, waits for it to exit (killing it at the timeout), reaps it and
answers one JSON line: exit code (minus the signal number when killed),
whether it timed out, spawn-to-exit wall seconds, and peak RSS in KiB.  It
exits when standard input closes.

Why a separate process: on Linux a child started by ``vfork``/``exec``
inherits its parent's RSS high-water mark in ``ru_maxrss`` (by ``fork``, the
parent's current RSS).  The benchmark process holds the generated inputs and
checks outputs with numpy, so children it started itself would report its
memory, not their own.  This launcher imports nothing large, so every
child's ``ru_maxrss`` is the child's own peak.
"""

from __future__ import annotations

import json
import os
import select
import signal
import sys
import time


def run_child(argv: list[str], timeout_s: float, stdout: str, stderr: str) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644),
    ]
    started = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ, file_actions=actions)
    exited = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            exited = bool(poller.poll(max(0, int(timeout_s * 1000))))
            ended = time.perf_counter()
        finally:
            os.close(pidfd)
    finally:
        if not exited:
            os.kill(pid, signal.SIGKILL)  # not reaped yet, so the pid is still ours
        _, status, usage = os.wait4(pid, 0)
    return {
        "code": os.waitstatus_to_exitcode(status),
        "timed_out": not exited,
        "wall_s": ended - started,
        "maxrss_kib": usage.ru_maxrss,
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        answer = run_child(request["argv"], request["timeout_s"], request["stdout"], request["stderr"])
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
