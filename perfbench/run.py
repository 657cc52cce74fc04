#!/usr/bin/env python3
"""The repository's benchmark: one served workload, checked, measured.

    python3 perfbench/run.py --workload cuts|wide|fabric --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  The program runs as it ships —
``python -m repro serve`` (``cuts``, ``wide``) or ``router`` + one
``worker`` (``fabric``) as subprocesses — on a library artifact built
from the seed with the code in the checkout.  One closed-loop client
(one thread, one connection, 64 requests in flight) sends a fixed
number of the workload's queries, sized to last about ``--seconds`` on
the reference host (``NOMINAL_QPS``); throughput and server CPU per
query are medians over its one-second windows.  Every answer then
passes the correctness gate (``gate.py``); a wrong answer fails the run
with exit code 1 and no numbers.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a separate traced run (``replay.py``).  The last
line of standard output is the result object; the line before it is the
run record (host, seed, repeats, spread, artifact state).  See
``perfbench/LAYERS.md`` for what each metric measures and which
end-to-end metric it should move on which workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import SCALES, SRC, WORK  # noqa: E402

WORKLOADS = ("cuts", "wide", "fabric")
#: Requests per second each workload is sized by: the measured phase
#: sends ``--seconds`` times this many requests, which lasts about
#: ``--seconds`` on the two-core reference host.  A fixed count, not a
#: fixed time, keeps every run of a seed on the same work however fast
#: the shared host runs at the time.
NOMINAL_QPS = {"cuts": 1600, "wide": 2200, "fabric": 1400}
#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 2
#: Leading sample windows of the measured phase left out of its
#: medians: the daemon's caches and the connection warm up in it.
WARMUP_WINDOWS = 1
#: Serving processes each workload runs (the generator adds one).
SERVING_PROCESSES = {"cuts": 1, "wide": 1, "fabric": 2}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="full",
        help="input sizes: full (measured) or smoke (self-tests)",
    )
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an error, so every spawned daemon is reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from gate import GateError
    from procs import Fleet

    scale = SCALES[args.scale]
    run_dir = WORK / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    started = time.perf_counter()
    with Fleet(run_dir) as fleet:
        run = Run(args, scale, fleet, run_dir)
        run.phases["inputs"] = time.perf_counter() - started
        run.serve()
    try:
        run.timed("gate", run.check)
    except GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        print(
            json.dumps(
                {
                    "correct": False,
                    "attempted": run.load.attempted,
                    "failed": run.load.attempted - run.load.answered_ok,
                    "metrics": {},
                }
            )
        )
        return 1
    metrics = run.timed("replay", run.per_layer) if args.trace else run.end_to_end()
    print(json.dumps({"record": run.record()}))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": run.load.attempted,
                "failed": run.load.attempted - run.load.answered_ok,
                "metrics": metrics,
            }
        )
    )
    shutil.rmtree(run_dir, ignore_errors=True)
    return 0


class Run:
    """One run of one workload: set up, serve, gate, report."""

    def __init__(self, args, scale, fleet, run_dir: Path) -> None:
        import inputs

        self.args = args
        self.workload = args.workload
        self.scale = scale
        self.fleet = fleet
        self.run_dir = run_dir
        self.setups: list[float] = []
        #: Wall seconds of each phase of the run, for the run record.
        self.phases: dict[str, float] = {}
        self.requests = max(1, round(args.seconds * NOMINAL_QPS[self.workload]))
        # The seed-independent cuts inputs take a minute or two to build;
        # the first run in a checkout builds them, whatever its workload,
        # so every later run stays short.
        self.cuts = inputs.cuts_inputs(scale)
        if self.workload == "cuts":
            self.source = self.cuts.library_dir
            self.stream = inputs.cuts_stream(self.cuts, args.seed, self.requests)
        else:
            from repro.library.store import ClassLibrary

            self.source = inputs.wide_library(scale, args.seed)
            library = ClassLibrary.load(self.source, verify=False)
            self.stream = inputs.wide_stream(library, scale, args.seed)

    def timed(self, phase: str, call):
        started = time.perf_counter()
        try:
            return call()
        finally:
            self.phases[phase] = time.perf_counter() - started

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def _artifact(self, name: str) -> Path:
        from inputs import fresh_artifact

        path = self.run_dir / name
        self.artifact_state = fresh_artifact(self.source, path)
        return path

    def _start(self, artifact: Path):
        """Spawn the program; return ``(serving daemons, client target)``."""
        if self.workload == "fabric":
            router = self.fleet.spawn("router", ["router", "--port", "0"])
            router.wait_banner("routing on")
            worker = self.fleet.spawn(
                "worker",
                [
                    "worker", "--id", "w0", "--ring", "w0",
                    "--library", str(artifact),
                    "--router", f"{router.host}:{router.port}",
                    "--port", "0",
                ],
            )
            worker.wait_banner("serving")
            deadline = time.perf_counter() + 60.0
            while _worker_state(router) != "alive":
                if time.perf_counter() > deadline:
                    raise RuntimeError("worker w0 never turned alive")
                time.sleep(0.005)
            self.setups.append(time.perf_counter() - router.started)
            return [worker, router], router
        argv = ["serve", "--library", str(artifact), "--port", "0"]
        if self.workload == "cuts":
            argv.insert(1, "--learn")
        daemon = self.fleet.spawn("daemon", argv)
        self.setups.append(daemon.wait_banner("serving") - daemon.started)
        return [daemon], daemon

    def serve(self) -> None:
        from loadgen import run_closed_loop

        started = time.perf_counter()
        setups = 1 if self.args.trace else SETUPS
        for k in range(setups - 1):
            daemons, _ = self._start(self._artifact(f"setup-{k}"))
            for daemon in daemons:
                self.fleet.stop(daemon)
        self.artifact = self._artifact("served")
        self.daemons, target = self._start(self.artifact)
        self.phases["setups"] = time.perf_counter() - started

        def server_cpu() -> float:
            return sum(d.cpu_seconds() for d in self.daemons)

        cpu_before = server_cpu()
        self.load = run_closed_loop(
            target.host, target.port, self.stream, self.requests, server_cpu
        )
        self.cpu_s = server_cpu() - cpu_before
        self.peak_rss_mb = sum(d.peak_rss_mb() for d in self.daemons)
        serving = self.daemons[0]
        # /metrics first: reading /v1/stats is itself a recorded request.
        self.metrics = serving.metrics()
        self.stats = serving.stats()
        if self.workload == "fabric":
            self.router_metrics = self.daemons[1].metrics()
            self.router_stats = self.daemons[1].stats()
        started = time.perf_counter()
        for daemon in self.daemons:
            self.fleet.stop(daemon)
        self.phases["drain"] = time.perf_counter() - started

    # ------------------------------------------------------------------
    # Correctness gate
    # ------------------------------------------------------------------

    def check(self) -> None:
        from gate import GateError, check_answers
        from repro.library.store import ClassLibrary

        # The drained artifact: a learning daemon compacted its mints in.
        library = ClassLibrary.load(self.artifact, verify=False)
        self.gate = check_answers(
            self.load.tables, self.load.expected, self.load.replies, library
        )
        if self.workload == "cuts":
            sent = {
                self.load.expected[i]
                for i, reply in enumerate(self.load.replies)
                if reply is not None and reply.get("ok")
            }
            absent = len(sent - self.cuts.arithmetic_classes)
            minted = self.stats["classes_minted"]
            if minted != absent:
                raise GateError(
                    f"daemon minted {minted} classes; the queries answered "
                    f"hold {absent} classes absent from the arithmetic library"
                )
            self.gate["minted"] = minted

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def windows(self) -> dict:
        return window_rates(self.load, self.cpu_s)

    def end_to_end(self) -> dict:
        load = self.load
        windows = self.windows()
        return _metrics(
            {
                "setup_s": (statistics.median(self.setups), "s"),
                "throughput_qps": (statistics.median(windows["throughput_qps"]), "1/s"),
                "answered_frac": (load.answered_ok / load.attempted, "fraction"),
                "server_cpu_ms_per_kq": (
                    statistics.median(windows["server_cpu_ms_per_kq"]),
                    "ms",
                ),
                "server_peak_rss_mb": (self.peak_rss_mb, "MB"),
            }
        )

    def per_layer(self) -> dict:
        from inputs import fresh_artifact
        from procs import metric_sum
        from replay import SERVING_SPANS, SETUP_SPANS, traced_replay

        batch = max(1, round(self.stats["mean_batch_size"]))
        lines = [
            line
            for line, reply in zip(self.load.lines, self.load.replies)
            if reply is not None and reply.get("ok")
        ]
        self.trace_file = self.run_dir.parent / f"trace-{self.run_dir.name}.json"

        def scratch_copy(name: str) -> Path:
            path = self.run_dir / f"replay-{name}"
            fresh_artifact(self.source, path)
            return path

        traced = traced_replay(
            lines,
            scratch_copy,
            batch,
            learn=self.workload == "cuts",
            fabric=self.workload == "fabric",
            out=self.trace_file,
        )
        self.traced = traced
        seconds, calls = traced["seconds"], traced["calls"]
        attributed = sum(seconds.get(name, 0.0) for name in SERVING_SPANS)
        m, stats = self.metrics, self.stats
        request_count = metric_sum(m, "repro_service_request_seconds_count")
        values = {
            f"{name}_s": (seconds.get(name, 0.0), "s")
            for name in SETUP_SPANS + SERVING_SPANS
        }
        values.update(
            {
                "engine.signature_rows": (traced["signature_rows"], "count"),
                "canonical.forms": (calls.get("canonical.forms", 0), "count"),
                "library.minted": (traced["minted"], "count"),
                "library.match_rounds": (
                    metric_sum(m, "repro_library_match_rounds_total"), "count"
                ),
                "library.witness_s": (
                    metric_sum(m, "repro_library_match_seconds_sum", phase="witness"),
                    "s",
                ),
                "service.cache_hit_ratio": (stats["cache_hit_rate"], "ratio"),
                "service.mean_batch": (stats["mean_batch_size"], "count"),
                "service.batches": (stats["batches"], "count"),
                "service.request_ms_mean": (
                    1e3 * metric_sum(m, "repro_service_request_seconds_sum")
                    / max(1.0, request_count),
                    "ms",
                ),
                "service.latency_p50_ms": (self._latency_ms()["p50"], "ms"),
                "service.latency_p99_ms": (self._latency_ms()["p99"], "ms"),
                "service.busy_s": (self.cpu_s, "s"),
                "service.attributed_s": (attributed, "s"),
                "service.unattributed_s": (self.cpu_s - attributed, "s"),
                "trace.overhead_s": (traced["traced_s"] - traced["untraced_s"], "s"),
                "trace.spans": (traced["spans"], "count"),
            }
        )
        values.update(self._fabric_layer())
        return _metrics(values)

    def _latency_ms(self) -> dict:
        """Per-request latency, send to reply, over every request of the run."""
        percentiles = statistics.quantiles(self.load.latencies, n=100)
        return {
            "p50": percentiles[49] * 1e3,
            "p99": percentiles[98] * 1e3,
            "samples": len(self.load.latencies),
        }

    def _fabric_layer(self) -> dict:
        from procs import metric_sum

        if self.workload != "fabric":
            return {
                "fabric.dispatch_ms_mean": (0.0, "ms"),
                "fabric.retries": (0, "count"),
                "fabric.hedges": (0, "count"),
                "fabric.degraded": (0, "count"),
            }
        m, fabric = self.router_metrics, self.router_stats["fabric"]
        dispatches = metric_sum(m, "repro_fabric_dispatch_seconds_count")
        return {
            "fabric.dispatch_ms_mean": (
                1e3 * metric_sum(m, "repro_fabric_dispatch_seconds_sum")
                / max(1.0, dispatches),
                "ms",
            ),
            "fabric.retries": (fabric["retries"], "count"),
            "fabric.hedges": (fabric["hedges"], "count"),
            "fabric.degraded": (fabric["degraded"], "count"),
        }

    def record(self) -> dict:
        import numpy

        cores = len(os.sched_getaffinity(0))
        busy = SERVING_PROCESSES[self.workload] + 1
        setups = sorted(self.setups)
        record = {
            "workload": self.workload,
            "seed": self.args.seed,
            "scale": self.scale.name,
            "trace": self.args.trace,
            "seconds": self.args.seconds,
            "requests": self.requests,
            "phase_wall_s": {**self.phases, "measured": self.load.elapsed},
            "host": {
                "schedulable_cores": cores,
                "cpu_model": _cpu_model(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            },
            "busy_processes": busy,
            "oversubscribed": busy > cores,
            "load": {"clients": 1, "connections": 1, "inflight": 64, "loop": "closed"},
            "repeats": {"setups": len(setups)},
            "latency_ms": self._latency_ms(),
            "spread": {
                "setup_s": setups,
                "setup_range_frac": (setups[-1] - setups[0]) / setups[len(setups) // 2],
                "warmup_windows": WARMUP_WINDOWS,
                **{
                    name: [round(v, 1) for v in values]
                    for name, values in self.windows().items()
                },
                "whole_run": {
                    "throughput_qps": self.load.answered_ok / self.load.elapsed,
                    "server_cpu_ms_per_kq": self.cpu_s * 1e6
                    / max(1, self.load.answered_ok),
                },
            },
            "artifact_state": {**self.artifact_state, "fresh_copy_per_setup": True},
            "gate": self.gate,
            "daemon": {
                key: self.stats.get(key)
                for key in ("mean_batch_size", "batches", "cache_hit_rate", "classes_minted")
            },
        }
        if self.args.trace:
            record["trace_file"] = str(self.trace_file.relative_to(WORK.parent))
            record["replay_wall_s"] = {
                "untraced": self.traced["untraced_s"],
                "traced": self.traced["traced_s"],
            }
        return record


def window_rates(load, cpu_s: float) -> dict:
    """Per-window rates of a measured phase, warm-up left out.

    Each window runs from one progress sample of the generator to the
    next: queries answered per second, and server CPU milliseconds per
    1,000 of them.  A phase too short for a window past the warm-up
    (smoke runs) reads as one whole-run window.
    """
    samples = load.samples[WARMUP_WINDOWS:]
    if len(samples) < 2:
        ok = load.answered_ok
        return {
            "throughput_qps": [ok / load.elapsed],
            "server_cpu_ms_per_kq": [cpu_s * 1e6 / max(1, ok)],
        }
    qps, cpu = [], []
    for (t0, n0, c0), (t1, n1, c1) in zip(samples, samples[1:]):
        qps.append((n1 - n0) / (t1 - t0))
        cpu.append((c1 - c0) * 1e6 / max(1, n1 - n0))
    return {"throughput_qps": qps, "server_cpu_ms_per_kq": cpu}


def _worker_state(router) -> str | None:
    workers = router.stats()["registry"]["workers"]
    return workers.get("w0", {}).get("state")


def _metrics(values: dict) -> dict:
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
