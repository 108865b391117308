"""The `serve` daemon as a subprocess, and the closed loop that times
every request.

The generator uses one connection and one thread: a closed loop sends
each request after the previous reply, through the program's own
:class:`~repro.service.client.ServiceClient`.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass

from repro.service.client import ServiceClient, ServiceUnavailable

START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


class BenchError(RuntimeError):
    """The daemon misbehaved in a way that ends the run."""


class Daemon:
    """One ``serve`` process over a journal directory.

    ``argv`` is the program to run (the plain CLI, or the traced
    launcher wrapping it); ``start`` returns the set-up time: spawn
    until the first ``health`` reply, journal replay included.
    """

    def __init__(self, argv: list[str], journal: str, sock: str, log: str) -> None:
        self.argv = argv + [
            "serve", "--socket", sock, "--journal", journal,
            "--epoch-mode", "delta",
        ]
        self.sock = sock
        self.log = log
        self.proc: subprocess.Popen | None = None

    def start(self) -> float:
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        env = dict(os.environ, PYTHONPATH="src")
        with open(self.log, "ab") as log:
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                self.argv, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=log,
            )
        while True:
            if self.proc.poll() is not None:
                raise BenchError(
                    f"serve exited with code {self.proc.returncode} during "
                    f"start-up; see {self.log}"
                )
            if time.perf_counter() - started > START_TIMEOUT_S:
                raise BenchError("serve did not come up in time")
            try:
                client = ServiceClient(self.sock)
            except ServiceUnavailable:
                time.sleep(0.002)
                continue
            with client:
                reply = client.health()
            setup = time.perf_counter() - started
            if reply.get("status") != "ok":
                raise BenchError(f"health probe failed: {reply}")
            return setup

    def client(self) -> ServiceClient:
        return ServiceClient(self.sock)

    def vm_hwm_mb(self) -> float:
        """Peak resident set of the daemon (``VmHWM``), in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM not found in /proc status")

    def shutdown(self, client: ServiceClient | None = None) -> None:
        """Ask the daemon to drain and exit; kill it if it will not."""
        if self.proc is None:
            return
        try:
            if client is not None:
                client.shutdown()
            else:
                with self.client() as own:
                    own.shutdown()
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
        if self.proc.returncode != 0:
            raise BenchError(f"serve exited with code {self.proc.returncode}")
        self.proc = None

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def launcher_argv(traced_spans: str | None) -> list[str]:
    """The command that runs ``python -m repro.cli`` (traced or not)."""
    if traced_spans is None:
        return [sys.executable, "-m", "repro.cli"]
    here = os.path.dirname(os.path.abspath(__file__))
    return [sys.executable, os.path.join(here, "launcher.py"),
            "--spans", traced_spans, "--"]


@dataclass(slots=True)
class Record:
    """One request as the client saw it."""

    line: dict
    sent: float
    done: float
    response: dict

    @property
    def latency(self) -> float:
        return self.done - self.sent


def closed_loop(client: ServiceClient, ops, deadline: float | None) -> list[Record]:
    """Send each op after the previous reply, until ``ops`` or time runs out."""
    records = []
    for line in ops:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        sent = time.perf_counter()
        response = client.request(line)
        records.append(Record(line, sent, time.perf_counter(), response))
    return records
