"""Run one CLI command in a fresh child process under the per-input limits.

The limits are the ROADMAP's per-input contract: 60 s of wall time and a
4 GiB address space (``RLIMIT_AS``).  A command that fails in any way is
charged both limits in every time and memory metric, so fixing a failure
counts as a gain and causing one counts as a loss.
"""

from __future__ import annotations

import os
import resource
import select
import signal
import subprocess
import sys
import time
from typing import NamedTuple

WALL_LIMIT_S = 60.0
AS_LIMIT_BYTES = 4 << 30
CHARGED_RSS_MB = AS_LIMIT_BYTES / 2**20  # 4096 MB

# The body of the ``schemelab`` console script.
CLI_ENTRY = ["-c", "import sys; from schemelab.cli import main; sys.exit(main())"]


class Run(NamedTuple):
    """What the parent observed of one finished child."""
    wall_s: float
    rss_mb: float      # peak RSS from wait4's ru_maxrss
    code: int | None   # exit code, None when killed by a signal
    timed_out: bool
    stdout: str
    stderr: str


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT_BYTES, AS_LIMIT_BYTES))


def run_child(argv, env, workdir, wall_limit=WALL_LIMIT_S):
    """Run ``python3 <argv>`` to completion, one child at a time.

    Waits on a pidfd, so the parent wakes the moment the child ends and the
    kill on timeout cannot reach a recycled pid.
    """
    out_path = os.path.join(workdir, "child.stdout")
    err_path = os.path.join(workdir, "child.stderr")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, env=env,
                                preexec_fn=_limit_address_space)
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([pidfd], [], [], wall_limit)[0]
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode(errors="replace")
        stderr = err.read().decode(errors="replace")
    code = proc.returncode if proc.returncode >= 0 else None
    return Run(wall, usage.ru_maxrss / 1024, code, timed_out, stdout, stderr)


def failure_kind(run, expected_exit, answer_ok):
    """Why a command failed, or None when it passed.

    ``answer_ok`` is a callable that checks stdout against the pin; it is
    only consulted once the exit code is the expected one.
    """
    if run.timed_out:
        return "timeout"
    if run.code is None:
        return "signal"
    if run.code != expected_exit:
        return "memory" if "MemoryError" in run.stderr else "exit"
    if not answer_ok(run.stdout):
        return "answer"
    return None


def charged(run, failure):
    """(wall seconds, peak RSS MB) as the metrics count them."""
    if failure is not None:
        return WALL_LIMIT_S, CHARGED_RSS_MB
    return run.wall_s, run.rss_mb
