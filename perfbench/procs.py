"""Child processes of a benchmark run: spawn, wait with a deadline, account.

Every child runs one of the benchmark's scripts with a JSON config file, in
its own session, with the ``REPRO_*`` variables removed from its
environment (no disk cache, no scale overrides) and every other variable
left as the user has them, unless the caller sets it (``env``).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

__all__ = ["BenchError", "Child"]


class BenchError(RuntimeError):
    """The run cannot produce a valid result."""


def child_env() -> dict:
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


class Child:
    """One script run in a fresh process; ``wait`` returns its rusage, which
    covers the process and every descendant it waited for."""

    def __init__(self, script: str, config: dict, work: Path, name: str,
                 stdout=None, env: "dict | None" = None) -> None:
        self.name = name
        self.log_path = work / f"{name}.log"
        config_path = work / f"{name}.json"
        config_path.write_text(json.dumps(config))
        self.spawned = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / script), str(config_path)],
                env={**child_env(), **(env or {})}, stdout=stdout or log, stderr=log,
                start_new_session=True, text=True,
            )
        self.exited: "float | None" = None

    def wait(self, deadline: float):
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.exited = time.perf_counter()
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.perf_counter() > deadline:
                self.kill()
                raise BenchError(f"{self.name} overran the run's deadline")
            time.sleep(0.005)
        if self.proc.returncode != 0:
            tail = self.log_path.read_text()[-2000:]
            raise BenchError(f"{self.name} exited {self.proc.returncode}:\n{tail}")
        return usage

    def kill(self) -> None:
        """Stop the child and everything it started, and reap the child."""
        if self.proc.returncode is not None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
