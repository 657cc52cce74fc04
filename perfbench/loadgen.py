"""Closed-loop load generator: one thread, one connection, fixed depth.

The generator keeps exactly ``inflight`` match requests outstanding on
one pipelined NDJSON connection: every reply read releases the next
request, so a slower program receives proportionally less load (a
closed loop, the traffic of callers that each wait for their answer).
It sends a fixed number of requests, then collects what is still in
flight.  Latency is per request, from its send to its reply.

While it sends, the generator samples its progress every
:data:`WINDOW_S` seconds: the instant, the replies answered so far and
the server's CPU seconds (``cpu_probe``).  The rates over these windows
let the run report medians, which a burst of noise on a shared host
moves far less than a whole-run average.
"""

from __future__ import annotations

import gc
import json
import socket
import time
from dataclasses import dataclass, field

#: Requests kept outstanding on the connection.
INFLIGHT = 64
#: Seconds to wait for the in-flight replies after the last send.
COLLECT_TIMEOUT_S = 60.0
#: Seconds between progress samples of the measured phase.
WINDOW_S = 1.0


@dataclass
class LoadResult:
    """What one measured phase sent, received and how long it took."""

    tables: list = field(default_factory=list)  # query of request i
    expected: list = field(default_factory=list)  # construction expectation
    lines: list = field(default_factory=list)  # wire bytes of request i
    replies: list = field(default_factory=list)  # decoded reply or None
    latencies: list = field(default_factory=list)  # seconds, answered only
    #: ``(instant, answered ok so far, server CPU seconds)`` every
    #: :data:`WINDOW_S` while requests are still being sent.
    samples: list = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.tables)

    @property
    def answered_ok(self) -> int:
        return sum(1 for r in self.replies if r is not None and r.get("ok"))

    @property
    def elapsed(self) -> float:
        return self.finished - self.started


def request_line(request_id: int, table) -> bytes:
    return (
        json.dumps(
            {"op": "match", "id": request_id, "table": table.to_hex(), "n": table.n}
        ).encode()
        + b"\n"
    )


def run_closed_loop(
    host: str,
    port: int,
    stream,
    requests: int,
    cpu_probe,
    inflight: int = INFLIGHT,
) -> LoadResult:
    """Send the first ``requests`` queries of ``stream`` (``(table, expected)``).

    ``cpu_probe()`` returns the serving processes' CPU seconds so far.
    The cyclic garbage collector is off while the phase runs: a full
    collection over the growing reply log would stall the generator and
    read as server latency.
    """
    gc.disable()
    try:
        return _run(host, port, stream, requests, cpu_probe, inflight)
    finally:
        gc.enable()


def _run(
    host: str, port: int, stream, requests: int, cpu_probe, inflight: int
) -> LoadResult:
    result = LoadResult()
    sent_at: list[float] = []
    answered = 0
    with socket.create_connection((host, port), timeout=COLLECT_TIMEOUT_S) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = sock.makefile("rb")

        def send_next() -> None:
            table, expected = next(stream)
            line = request_line(len(result.tables), table)
            result.tables.append(table)
            result.expected.append(expected)
            result.lines.append(line)
            result.replies.append(None)
            sent_at.append(time.perf_counter())
            sock.sendall(line)

        result.started = time.perf_counter()
        result.samples.append((result.started, 0, cpu_probe()))
        next_sample = result.started + WINDOW_S
        for _ in range(min(inflight, requests)):
            send_next()
        outstanding = len(result.tables)
        try:
            while outstanding:
                raw = reader.readline()
                if not raw:
                    break
                now = time.perf_counter()
                reply = json.loads(raw)
                request_id = reply.get("id")
                if not isinstance(request_id, int) or not (
                    0 <= request_id < len(result.replies)
                ) or result.replies[request_id] is not None:
                    raise RuntimeError(f"reply with an unknown id: {raw[:200]!r}")
                result.replies[request_id] = reply
                result.latencies.append(now - sent_at[request_id])
                result.finished = now
                outstanding -= 1
                answered += bool(reply.get("ok"))
                if len(result.tables) < requests:
                    if now >= next_sample:
                        result.samples.append((now, answered, cpu_probe()))
                        next_sample = now + WINDOW_S
                    send_next()
                    outstanding += 1
        except socket.timeout:
            pass  # the unanswered requests count as failed
        reader.close()
    if not result.finished:
        result.finished = time.perf_counter()
    return result
