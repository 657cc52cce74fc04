"""The traced run: replay a workload in-process through the layers.

The end-to-end run says how fast the program served; this says where the
time went.  The queries the daemon answered are replayed, in send order,
through the same public functions the daemon calls — protocol decode,
shard key, signatures, ``match_many``, learn-on-miss, reply encode —
batched at the mean batch size the daemon reported.  The benchmark
records its own spans (name, start, end, parent) around each call,
keeps them in memory and writes them out at the end.  Calls made *inside*
a layer are reached by wrapping the module attribute the layer calls
through (``ClassLibrary.load`` → ``canonical_min``, ``match_many`` →
``key_matrices``, learn → ``canonical_form``), so nested spans split a
layer's time from its callee's and every span has a self time.

The serving replay runs twice, untraced and traced; the difference of
their wall times is the tracing overhead.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import kernels
from repro.baselines import matcher
from repro.engine import BatchedClassifier
from repro.fabric.ring import HashRing, shard_key_of
from repro.kernels import gather
from repro.library import online, store
from repro.library.online import LearningLibrary
from repro.library.store import ClassLibrary
from repro.service.protocol import encode_line, match_payload, ok_reply, parse_request

#: ``(module, attribute, span name)`` of the calls made inside layers.
NESTED_CALLS = (
    (store, "canonical_min", "kernels.canonical_min"),
    (kernels, "key_matrices", "kernels.key_matrices"),
    (online, "canonical_form", "canonical.forms"),
)

#: Spans of the set-up layers (paid at every daemon start).
SETUP_SPANS = (
    "library.load",
    "kernels.canonical_min",
    "library.load_unverified",
    "fabric.shard_filter",
)

#: Spans on the serving path; their self times plus the unattributed
#: remainder make up the daemon's busy time.
SERVING_SPANS = (
    "protocol.decode",
    "protocol.encode",
    "fabric.shard_key",
    "engine.signatures",
    "library.match_many",
    "kernels.key_matrices",
    "library.learn",
    "canonical.forms",
)


class _Span:
    __slots__ = ("spans", "index")

    def __init__(self, spans: "Spans", name: str) -> None:
        self.spans = spans
        stack = spans._stack
        self.index = len(spans.records)
        spans.records.append([name, 0.0, 0.0, stack[-1] if stack else None])

    def __enter__(self) -> None:
        self.spans._stack.append(self.index)
        self.spans.records[self.index][1] = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        self.spans.records[self.index][2] = time.perf_counter()
        self.spans._stack.pop()


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        pass

    def __exit__(self, *exc_info) -> None:
        pass


_NO_SPAN = _NoSpan()


class Spans:
    """In-memory span recorder: ``[name, start, end, parent index]``."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self._stack: list[int] = []
        self._wrapped: list[tuple] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def wrap_nested_calls(self) -> None:
        """Record a span around every call listed in :data:`NESTED_CALLS`."""
        for owner, attr, name in NESTED_CALLS:
            original = getattr(owner, attr, None)
            if original is None:
                continue  # the layer no longer calls through this name

            def traced(*args, _original=original, _name=name, **kwargs):
                with self.span(_name):
                    return _original(*args, **kwargs)

            setattr(owner, attr, traced)
            self._wrapped.append((owner, attr, original))

    def unwrap(self) -> None:
        while self._wrapped:
            owner, attr, original = self._wrapped.pop()
            setattr(owner, attr, original)

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-name self time (seconds) and call count."""
        child = [0.0] * len(self.records)
        for name, start, end, parent in self.records:
            if parent is not None:
                child[parent] += end - start
        seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, _), inner in zip(self.records, child):
            seconds[name] = seconds.get(name, 0.0) + (end - start - inner)
            calls[name] = calls.get(name, 0) + 1
        return seconds, calls

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                [
                    {"name": n, "start": s, "end": e, "parent": p}
                    for n, s, e, p in self.records
                ]
            )
        )


def _no_span(name: str) -> _NoSpan:
    return _NO_SPAN


def _cold_caches() -> None:
    """Start a replay as cold as a fresh daemon: no memoised keys or tables."""
    for value in vars(matcher).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    gather.clear_memory_cache()


def replay_setup(artifact: Path, spans: Spans, mmap: bool, fabric: bool) -> None:
    """Set-up layers: verified and unverified load, worker shard filter."""
    mode = "r" if mmap else None
    with spans.span("library.load"):
        library = ClassLibrary.load(artifact, verify=True, mmap_mode=mode)
    with spans.span("library.load_unverified"):
        ClassLibrary.load(artifact, verify=False, mmap_mode=mode)
    if fabric:
        ring = HashRing(("w0",))
        with spans.span("fabric.shard_filter"):
            library.subset(ring.shard_filter("w0", library.parts))


def replay_serving(
    lines: list[bytes],
    artifact: Path,
    batch: int,
    learn: bool,
    fabric: bool,
    span=_no_span,
) -> dict:
    """Replay the answered requests through the serving layers.

    ``artifact`` is a scratch copy (learn-on-miss writes its WAL there).
    Returns counts: signature rows computed and classes minted.
    """
    _cold_caches()
    library = ClassLibrary.load(artifact, verify=False, mmap_mode=None if learn else "r")
    learner = LearningLibrary(library, artifact) if learn else None
    classifier = BatchedClassifier(library.parts)
    cache: dict[tuple[int, int], object] = {}
    pending: list = []
    rows = 0

    def reply(request, outcome, cached: bool) -> None:
        payload = match_payload(request.table, outcome, cached)
        with span("protocol.encode"):
            encode_line(ok_reply(request.id, request.op, payload))

    def flush() -> None:
        nonlocal rows
        tables = [request.table for request in pending]
        rows += len(tables)
        with span("engine.signatures"):
            signatures = classifier.signatures(tables)
        with span("library.match_many"):
            outcomes = library.match_many(tables, signatures=signatures)
        for request, signature, outcome in zip(pending, signatures, outcomes):
            if outcome is None and learner is not None:
                with span("library.learn"):
                    outcome = learner.learn(request.table, signature)
            cache[(request.table.n, request.table.bits)] = outcome
            reply(request, outcome, False)
        pending.clear()

    for line in lines:
        with span("protocol.decode"):
            request = parse_request(line)
        if fabric:
            with span("fabric.shard_key"):
                shard_key_of(request.table, library.parts)
        key = (request.table.n, request.table.bits)
        if key in cache:
            reply(request, cache[key], True)
            continue
        pending.append(request)
        if len(pending) >= batch:
            flush()
    if pending:
        flush()
    minted = 0
    if learner is not None:
        minted = learner.minted
        learner.close_segment()
    return {"signature_rows": rows, "minted": minted}


def traced_replay(
    lines: list[bytes],
    artifact_copy,
    batch: int,
    learn: bool,
    fabric: bool,
    out: Path,
) -> dict:
    """Untraced then traced replay; per-layer self times, counts, overhead.

    ``artifact_copy(name)`` returns a fresh scratch copy of the artifact.
    """
    started = time.perf_counter()
    replay_serving(lines, artifact_copy("untraced"), batch, learn, fabric)
    untraced = time.perf_counter() - started

    spans = Spans()
    spans.wrap_nested_calls()
    try:
        replay_setup(artifact_copy("setup"), spans, mmap=not learn, fabric=fabric)
        serving_from = len(spans.records)
        started = time.perf_counter()
        counts = replay_serving(
            lines, artifact_copy("traced"), batch, learn, fabric, span=spans.span
        )
        traced = time.perf_counter() - started
    finally:
        spans.unwrap()
    spans.dump(out)
    seconds, calls = spans.self_times()
    return {
        "seconds": seconds,
        "calls": calls,
        "signature_rows": counts["signature_rows"],
        "minted": counts["minted"],
        "spans": len(spans.records),
        "serving_spans": len(spans.records) - serving_from,
        "untraced_s": untraced,
        "traced_s": traced,
    }
