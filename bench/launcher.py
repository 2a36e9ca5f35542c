"""Starts the benchmark's child processes from a small interpreter of its own.

On Linux a child's peak RSS (``ru_maxrss``) starts from the memory high-water
mark of the process it was spawned from: ``exec`` carries the old memory map's
peak into the new program. Spawned straight from the benchmark, which has
imported numpy and crbm and read whole output files, every child would read at
least the benchmark's own peak. Children spawned here inherit only this
process's peak, about 15 MiB, since it loads nothing but the standard library
and never holds a child's output.

``Launcher`` starts this file as a separate interpreter and sends it one
request per child on a pipe; ``serve`` spawns the child with its output in a
file, waits for it with ``wait4`` and answers with the child's exit code, wall
time, CPU time and peak RSS.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass


@dataclass
class CallResult:
    """One finished child process, measured by ``wait4``."""

    returncode: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    stdout: str


def spawn_and_wait(argv, stdout_path, timeout_s) -> dict:
    """Run one child to completion; wall time spans spawn to reaped exit.

    A child that outlives ``timeout_s`` is killed and reported with its
    non-zero status.
    """
    files = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),  # not the request pipe
             (os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
             (os.POSIX_SPAWN_DUP2, 1, 2)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=files)
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        if not poller.poll(timeout_s * 1000.0):
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    return {"returncode": os.waitstatus_to_exitcode(status),
            "wall_s": time.perf_counter() - t0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mib": usage.ru_maxrss / 1024.0}


def serve(requests, replies) -> None:
    """Answer each JSON request line ``{argv, stdout, timeout_s}`` until EOF."""
    for line in requests:
        request = json.loads(line)
        reply = spawn_and_wait(request["argv"], request["stdout"], request["timeout_s"])
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


class Launcher:
    """A running launcher process; children get its environment, ``env``.

    Use it as a context manager, so that the launcher is stopped and reaped.
    """

    def __init__(self, env, timeout_s):
        self.timeout_s = timeout_s
        self.proc = subprocess.Popen([sys.executable, "-I", os.path.abspath(__file__)],
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run(self, argv, stdout_path) -> CallResult:
        request = {"argv": list(map(str, argv)), "stdout": os.path.abspath(stdout_path),
                   "timeout_s": self.timeout_s}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        with open(stdout_path, encoding="utf-8", errors="replace") as fh:
            return CallResult(stdout=fh.read(), **json.loads(line))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
