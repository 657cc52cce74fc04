"""The program as it ships: daemon subprocesses, their readiness and cost.

Every daemon runs as ``python -m repro serve|router|worker`` with its
stdout and stderr in a log file, so a chatty daemon can never block on a
full pipe.  :class:`Fleet` owns every process a run spawns and tears
them all down the same way: SIGTERM (a drain), then SIGKILL for any
still alive, then a reap.  A process that is still there afterwards is
a leak and fails the run.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from inputs import SRC

#: Seconds a daemon gets to become ready.
READY_TIMEOUT_S = 120.0
#: Seconds a SIGTERM'd daemon gets to drain before SIGKILL.
DRAIN_TIMEOUT_S = 20.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class LeakError(RuntimeError):
    """A spawned process outlived its run."""


class Daemon:
    """One spawned daemon process and its log."""

    def __init__(self, name: str, argv: list[str], log_path: Path) -> None:
        self.name = name
        self.log_path = log_path
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        with open(log_path, "wb") as log:
            self.started = time.perf_counter()
            self.process = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro", *argv],
                stdout=log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                env=env,
            )
        self.host = "127.0.0.1"
        self.port: int | None = None

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_banner(self, needle: str) -> float:
        """Block until the log shows the ready banner; return its instant.

        The banner's last ``host:port`` token becomes :attr:`port`.
        """
        deadline = self.started + READY_TIMEOUT_S
        while True:
            for line in self.log_path.read_text(errors="replace").splitlines():
                if needle in line:
                    ready = time.perf_counter()
                    token = [
                        piece
                        for piece in line.replace("(", " ").split()
                        if ":" in piece and piece.rsplit(":", 1)[1].isdigit()
                    ][-1]
                    self.host, _, port = token.rpartition(":")
                    self.port = int(port)
                    return ready
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"{self.name} exited (rc={self.process.returncode}) "
                    f"before {needle!r}: {self.tail()}"
                )
            if time.perf_counter() > deadline:
                raise RuntimeError(f"{self.name} never printed {needle!r}")
            time.sleep(0.002)

    def tail(self, lines: int = 5) -> str:
        return " | ".join(
            self.log_path.read_text(errors="replace").splitlines()[-lines:]
        )

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the process so far."""
        fields = Path(f"/proc/{self.pid}/stat").read_text().rsplit(")", 1)[1].split()
        # Fields after the ")" start at field 3 (state); utime and stime
        # are fields 14 and 15.
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """``VmHWM``: the process's peak resident set size."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"{self.name}: no VmHWM in /proc/{self.pid}/status")

    def http_get(self, path: str) -> bytes:
        """Body of one ``GET`` against the daemon's HTTP front."""
        return http_get(self.host, self.port, path)

    def stats(self) -> dict:
        return json.loads(self.http_get("/v1/stats"))

    def metrics(self) -> dict[str, float]:
        return parse_prometheus(self.http_get("/metrics").decode())


class Fleet:
    """Every daemon of one run; a context manager that always reaps."""

    def __init__(self, log_dir: Path) -> None:
        self.log_dir = log_dir
        self.daemons: list[Daemon] = []

    def spawn(self, name: str, argv: list[str]) -> Daemon:
        daemon = Daemon(name, argv, self.log_dir / f"{name}-{len(self.daemons)}.log")
        self.daemons.append(daemon)
        return daemon

    def stop(self, daemon: Daemon) -> int:
        """Drain one daemon: SIGTERM, SIGKILL if it will not finish, reap."""
        if daemon.process.poll() is None:
            daemon.process.send_signal(signal.SIGTERM)
            try:
                daemon.process.wait(DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                daemon.process.kill()
                daemon.process.wait(DRAIN_TIMEOUT_S)
        if daemon.process.poll() is None or Path(f"/proc/{daemon.pid}").exists():
            raise LeakError(f"{daemon.name} (pid {daemon.pid}) was not reaped")
        return daemon.process.returncode

    def stop_all(self) -> None:
        """Drain every daemon, newest first (workers before their router)."""
        errors = []
        for daemon in reversed(self.daemons):
            try:
                self.stop(daemon)
            except (LeakError, OSError, subprocess.TimeoutExpired) as exc:
                errors.append(exc)
        leftovers = _children(os.getpid())
        if errors or leftovers:
            raise LeakError(f"leaked processes: {errors} children={leftovers}")

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop_all()


def _children(pid: int) -> list[int]:
    """Live (non-zombie-reaped) child pids of ``pid``, from ``/proc``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid:
            found.append(int(entry.name))
    return found


def http_get(host: str, port: int, path: str, timeout: float = 30.0) -> bytes:
    """One HTTP/1.0 ``GET``; the body, or an error on a non-200 reply."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode())
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status = head.split(b"\r\n", 1)[0]
    if b" 200 " not in status + b" ":
        raise RuntimeError(f"GET {path} on {host}:{port}: {status!r}")
    return body


def parse_prometheus(text: str) -> dict[str, float]:
    """``{"name{labels}": value}`` of a Prometheus text exposition."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
    return samples


def metric_sum(samples: dict[str, float], name: str, **labels: str) -> float:
    """Sum of every sample of ``name`` whose labels include ``labels``."""
    total = 0.0
    for key, value in samples.items():
        base, _, rest = key.partition("{")
        if base != name:
            continue
        if all(f'{k}="{v}"' in rest for k, v in labels.items()):
            total += value
    return total
