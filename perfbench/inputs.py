"""Workload inputs: the artifacts the daemons load and the query streams.

Everything here is a pure function of the seed and of the code under
test.  Results that do not depend on the seed (the cut stream, the
arithmetic-circuit library, the exact class of every cut function) are
computed once per checkout and kept under ``.perfbench/cache/``, keyed by
a fingerprint of the program sources, so later runs skip the work.
Seed-dependent libraries are cached per seed the same way.

Two sizes exist: ``full`` (what the benchmark measures) and ``smoke``
(the self-tests; seconds, not minutes).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from collections import deque
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark scale."""

    name: str
    #: ``(arity, pool functions, library classes)`` of the ``wide``
    #: library: a seed-independent pool of random functions is classified
    #: once, and each seed's library is a seeded sample of its classes.
    wide_library: tuple[tuple[int, int, int], ...]
    #: Share of ``wide`` queries that are random functions, not images.
    wide_miss_share: float
    #: Suite circuits the ``cuts`` stream enumerates (``None``: all).
    cut_circuits: tuple[str, ...] | None


SCALES = {
    "full": Scale("full", ((5, 11000, 5500), (6, 120, 60)), 0.25, None),
    "smoke": Scale(
        "smoke",
        ((5, 300, 150), (6, 12, 6)),
        0.25,
        ("adder", "arbiter", "comparator", "parity"),
    ),
}

CUT_SIZES = (4, 5, 6)
#: Queries between a cut function's first sighting and its first repeat:
#: twice the client's requests in flight.
REPEAT_GAP = 128


def code_fingerprint() -> str:
    """Digest of the program sources and this module (cache key)."""
    digest = hashlib.blake2b(digest_size=8)
    files = sorted((SRC / "repro").rglob("*.py")) + [Path(__file__)]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cache_dir(scale: Scale) -> Path:
    path = WORK / "cache" / f"{scale.name}-{code_fingerprint()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json_atomic(path: Path, data) -> None:
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(data))
    os.replace(tmp, path)


def _save_library_atomic(library, path: Path) -> None:
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    library.save(tmp)
    os.replace(tmp, path)


def fresh_artifact(source: Path, dest: Path) -> dict:
    """Copy a library artifact into its stated start state.

    The state of every run: the manifest and table image only, an empty
    ``wal/`` (no segments, no stale ``wal/LOCK``) and no ``kernels/``
    gather-table cache, so each daemon builds its gather tables itself.
    Returns that state as recorded in the run record.
    """
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(source, dest, ignore=shutil.ignore_patterns("wal", "kernels"))
    (dest / "wal").mkdir()
    state = {
        "wal_files": sorted(p.name for p in (dest / "wal").iterdir()),
        "wal_lock": (dest / "wal" / "LOCK").exists(),
        "kernels_cache": (dest / "kernels").exists(),
    }
    if state != {"wal_files": [], "wal_lock": False, "kernels_cache": False}:
        raise RuntimeError(f"{dest}: artifact not in its start state: {state}")
    return state


# ----------------------------------------------------------------------
# cuts: the paper's own traffic
# ----------------------------------------------------------------------


@dataclass
class CutsInputs:
    """Seed-independent part of the ``cuts`` workload."""

    #: Every k=4..6 cut occurrence, ``(n, hex)``, in suite order.
    occurrences: list[tuple[int, str]]
    #: Exact class id of every distinct cut function.
    class_of: dict[tuple[int, str], str]
    #: Library of the arithmetic circuits' distinct cut functions.
    library_dir: Path
    #: Class ids that library holds.
    arithmetic_classes: frozenset[str]


def cuts_inputs(scale: Scale) -> CutsInputs:
    """Build (once per checkout) or read the ``cuts`` inputs."""
    from repro.aig.cuts import iter_cut_functions
    from repro.canonical.form import canonical_class_id, canonical_forms
    from repro.core.truth_table import TruthTable
    from repro.library import build_library
    from repro.workloads import epfl_like_suite
    from repro.workloads.epfl import ARITHMETIC, category_of

    base = cache_dir(scale)
    stream_file = base / "cuts-stream.json"
    library_dir = base / "cuts-library"
    if not (stream_file.exists() and library_dir.exists()):
        suite = epfl_like_suite(1)
        names = sorted(scale.cut_circuits or suite)
        occurrences: list[tuple[int, str]] = []
        arithmetic: dict[tuple[int, int], TruthTable] = {}
        distinct: dict[tuple[int, int], TruthTable] = {}
        for name in names:
            for _, _, tt in iter_cut_functions(suite[name], CUT_SIZES):
                occurrences.append((tt.n, tt.to_hex()))
                distinct[(tt.n, tt.bits)] = tt
                if category_of(name) == ARITHMETIC:
                    arithmetic[(tt.n, tt.bits)] = tt
        by_arity: dict[int, list[TruthTable]] = {}
        for tt in distinct.values():
            by_arity.setdefault(tt.n, []).append(tt)
        class_of = []
        for n, tables in sorted(by_arity.items()):
            for tt, rep in zip(tables, canonical_forms(tables, n)):
                class_of.append([n, tt.to_hex(), canonical_class_id(rep)])
        _save_library_atomic(build_library(arithmetic.values()), library_dir)
        _write_json_atomic(
            stream_file, {"occurrences": occurrences, "class_of": class_of}
        )
    data = json.loads(stream_file.read_text())
    manifest = json.loads((library_dir / "manifest.json").read_text())
    return CutsInputs(
        occurrences=[(n, text) for n, text in data["occurrences"]],
        class_of={(n, text): cid for n, text, cid in data["class_of"]},
        library_dir=library_dir,
        arithmetic_classes=frozenset(r["id"] for r in manifest["classes"]),
    )


def cuts_stream(inputs: CutsInputs, seed: int, count: int):
    """Seeded stream of cut queries: a fixed sample in a steady order.

    The sample is every occurrence of a set of distinct cut functions
    drawn once, independently of the seed, until it holds at least
    ``count`` occurrences (the whole suite when ``count`` covers it), so
    every run of one size sends the same multiset of queries — the same
    first sightings, the same mints — with the suite's repetition
    profile.  The seed orders it, pass after pass, so that new functions
    arrive at a steady rate: the distinct functions are introduced in a
    seeded order, one every ``total / distinct`` queries, and every other
    query repeats a function introduced at least :data:`REPEAT_GAP`
    queries earlier, drawn at random from the repeats left.  Misses then
    keep the batch worker busy through the whole run instead of crowding
    its start, and no repeat is sent while its first sighting may still
    be in flight (that would miss the match cache by luck of timing).
    Yields ``(table, expected_class_id)``.
    """
    from repro.core.truth_table import TruthTable

    suite: dict[tuple[int, str], int] = {}
    for key in inputs.occurrences:
        suite[key] = suite.get(key, 0) + 1
    keys = sorted(suite)
    random.Random("cuts-sample").shuffle(keys)
    multiplicity: dict[tuple[int, str], int] = {}
    total = 0
    for key in keys:
        if total >= count:
            break
        multiplicity[key] = suite[key]
        total += suite[key]
    distinct = len(multiplicity)
    rng = random.Random(f"cuts-{seed}")

    def one_pass():
        fresh = list(multiplicity)
        rng.shuffle(fresh)
        waiting: deque[tuple[int, tuple[int, str]]] = deque()
        repeats: list[tuple[int, str]] = []
        introduced = 0
        for position in range(total):
            while waiting and (waiting[0][0] <= position or introduced == distinct and not repeats):
                repeats.extend([waiting[0][1]] * (multiplicity[waiting.popleft()[1]] - 1))
            due = (position + 1) * distinct // total > introduced
            if introduced < distinct and (due or not repeats):
                key = fresh[introduced]
                introduced += 1
                waiting.append((position + REPEAT_GAP, key))
            else:
                pick = rng.randrange(len(repeats))
                repeats[pick], repeats[-1] = repeats[-1], repeats[pick]
                key = repeats.pop()
            yield TruthTable.from_hex(*key), inputs.class_of[key]

    def passes():
        while True:
            yield from one_pass()

    return passes()


# ----------------------------------------------------------------------
# wide: unique queries over more classes than any cache holds
# ----------------------------------------------------------------------


def wide_library(scale: Scale, seed: int) -> Path:
    """The ``wide`` library artifact of ``seed``.

    Classifying thousands of random functions costs as much as verifying
    them, so the pool of classes is built once per checkout and a seed's
    library is a seeded sample of it, saved (once per seed) as its own
    artifact.
    """
    from repro.library import build_library
    from repro.library.store import ClassLibrary
    from repro.workloads import random_tables

    base = cache_dir(scale)
    pool_dir = base / "wide-pool"
    if not pool_dir.exists():
        corpus = []
        for n, functions, _ in scale.wide_library:
            corpus += random_tables(n, functions, 2023 + n)
        _save_library_atomic(build_library(corpus), pool_dir)
    path = base / f"wide-library-{seed}"
    if not path.exists():
        pool = ClassLibrary.load(pool_dir, verify=False)
        rng = random.Random(f"wide-library-{seed}")
        chosen: set[str] = set()
        for n, _, classes in scale.wide_library:
            ids = sorted(e.class_id for e in pool.entries() if e.n == n)
            chosen.update(rng.sample(ids, min(classes, len(ids))))
        _save_library_atomic(pool.subset(lambda e: e.class_id in chosen), path)
    return path


def wide_stream(library, scale: Scale, seed: int):
    """Endless seeded stream of distinct ``wide`` queries.

    Each pass visits every class once, in a fresh seeded order, and
    sends one fresh random NPN image of it; random functions of the
    library's arity mix are interleaved so they make ``wide_miss_share``
    of the traffic.  No table is ever sent twice, so the daemon's match
    cache never hits.  Queries are drawn one at a time, so the client
    pays the same small cost per request instead of stalling between
    passes.  Yields ``(table, expected_class_id)``, where a random
    function expects ``None`` (the offline reference decides).
    """
    from repro.core.transforms import random_transform
    from repro.core.truth_table import TruthTable

    rng = random.Random(f"wide-{seed}")
    order = library.entries()
    arities = [e.n for e in order]
    seen: set[tuple[int, int]] = set()

    def fresh(draw):
        # A class whose orbit is exhausted sits the pass out.
        for _ in range(8):
            tt = draw()
            if (tt.n, tt.bits) not in seen:
                seen.add((tt.n, tt.bits))
                return tt
        return None

    while True:
        rng.shuffle(order)
        for entry in order:
            while rng.random() < scale.wide_miss_share:
                miss = fresh(lambda: TruthTable.random(rng.choice(arities), rng))
                if miss is not None:
                    yield miss, None
            tt = fresh(
                lambda: entry.representative.apply(random_transform(entry.n, rng))
            )
            if tt is not None:
                yield tt, entry.class_id
