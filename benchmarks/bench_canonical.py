"""Bench: canonical engine vs signature buckets — parity and pruning.

The canonical engine's acceptance contract:

* **Count parity** — on every n = 4..6 mixed workload the exact engine
  reports class counts byte-identical to the batched signature engine
  (the signatures are perfect discriminators there), with identical
  member partitions.
* **Pruning** — on the mixed n = 6 workload the signature pre-filter +
  matcher must decide at least 90% of the functions without an exact
  canonicalization (``pruned_fraction >= 0.90``).
* **Kernel** — on seeded n = 5 (2 000 tables) and n = 6 (200 tables)
  batches, the batched ``kernels.canonical_min`` equals the per-table
  ``orbit(tt).min()`` scan of the gather kernels and beats it by at
  least 10×, cold (first call, swap paths not yet memoised) and warm.

Results are persisted to ``results/BENCH_canonical.json`` and the
markdown table to ``results/canonical_compare.md``.
"""

import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.analysis.tables import write_markdown_table
from repro.canonical.engine import CanonicalClassifier
from repro.engine import BatchedClassifier
from repro.experiments.canonical_compare import (
    COMPARE_ARITIES,
    _mixed_workload,
    run_canonical_compare,
)
from repro.kernels import ops
from repro.workloads.random_functions import random_tables

#: Serving-shaped workload per arity: hot orbits (each contributing
#: many NPN images) salted with fresh random misses.
WORKLOAD_ORBITS = 40
WORKLOAD_REPEATS = 24
WORKLOAD_FRESH = 40
WORKLOAD_SEED = 2023

#: Minimum share of functions the pre-filter must decide at n = 6.
MIN_PRUNED_FRACTION = 0.90

#: Kernel batches: ``{n: tables}``, seeded.
KERNEL_BATCHES = {5: 2000, 6: 200}
KERNEL_SEED = 14
KERNEL_WARM_REPEATS = 5

#: Minimum speedup of ``canonical_min`` over the per-table orbit scan.
MIN_KERNEL_SPEEDUP = 10.0


def _partition(result):
    return sorted(
        tuple(sorted(tt.bits for tt in members))
        for members in result.groups.values()
    )


def _host() -> dict:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - macOS/Windows fallback
        cores = os.cpu_count() or 1
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "schedulable_cores": cores,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _seconds(call) -> tuple[float, object]:
    start = time.perf_counter()
    value = call()
    return time.perf_counter() - start, value


@pytest.fixture(scope="module")
def kernel_rows():
    """One row per arity: batched walk vs per-table orbit scan."""
    rows = []
    for n, count in KERNEL_BATCHES.items():
        tables = random_tables(n, count, seed=KERNEL_SEED + n)
        scan_seconds, scanned = _seconds(
            lambda: [int(kernels.orbit(tt).min()) for tt in tables]
        )
        ops._swap_path.cache_clear()
        cold_seconds, minima = _seconds(lambda: kernels.canonical_min(tables))
        warm = [
            _seconds(lambda: kernels.canonical_min(tables))[0]
            for _ in range(KERNEL_WARM_REPEATS)
        ]
        rows.append(
            {
                "n": n,
                "tables": count,
                "seed": KERNEL_SEED + n,
                "equal_to_orbit_scan": minima.tolist() == scanned,
                "orbit_scan_seconds": round(scan_seconds, 4),
                "cold_seconds": round(cold_seconds, 4),
                "warm_seconds_median": round(statistics.median(warm), 4),
                "warm_seconds_range": [round(min(warm), 4), round(max(warm), 4)],
                "warm_repeats": KERNEL_WARM_REPEATS,
                "speedup_cold": round(scan_seconds / cold_seconds, 1),
                "speedup_warm": round(scan_seconds / statistics.median(warm), 1),
            }
        )
    return rows


def test_kernel_matches_orbit_scan_and_beats_it(kernel_rows):
    for row in kernel_rows:
        assert row["equal_to_orbit_scan"], row
        assert row["speedup_cold"] >= MIN_KERNEL_SPEEDUP, row
        assert row["speedup_warm"] >= MIN_KERNEL_SPEEDUP, row


@pytest.fixture(scope="module")
def compare_rows():
    return run_canonical_compare(
        orbits=WORKLOAD_ORBITS,
        repeats=WORKLOAD_REPEATS,
        fresh=WORKLOAD_FRESH,
        seed=WORKLOAD_SEED,
    )


@pytest.mark.parametrize("n", COMPARE_ARITIES)
def test_class_count_parity(n):
    tables = _mixed_workload(
        n,
        orbits=WORKLOAD_ORBITS,
        repeats=WORKLOAD_REPEATS,
        fresh=WORKLOAD_FRESH,
        seed=WORKLOAD_SEED,
    )
    signature = BatchedClassifier().classify(tables)
    canonical = CanonicalClassifier().classify(tables)
    assert canonical.num_classes == signature.num_classes
    assert _partition(canonical) == _partition(signature)


def test_pruning_and_persist(
    compare_rows, kernel_rows, results_dir, persist_bench
):
    """The acceptance run: >= 90% pruned at n = 6, results persisted."""
    by_n = {row["n"]: row for row in compare_rows}
    for n in COMPARE_ARITIES:
        assert by_n[n]["canonical_classes"] == by_n[n]["signature_classes"]
    pruned = by_n[6]["pruned_fraction"]
    assert pruned >= MIN_PRUNED_FRACTION, (
        f"signature pre-filter pruned only {pruned:.1%} of exact "
        f"canonicalization calls at n=6 (need >= {MIN_PRUNED_FRACTION:.0%})"
    )
    write_markdown_table(
        compare_rows,
        results_dir / "canonical_compare.md",
        title=(
            "Canonical engine vs signature buckets — mixed "
            f"{WORKLOAD_ORBITS}+{WORKLOAD_FRESH} workload per n"
        ),
    )
    persist_bench(
        "canonical",
        {
            "workload": {
                "orbits": WORKLOAD_ORBITS,
                "repeats_per_orbit": WORKLOAD_REPEATS,
                "fresh": WORKLOAD_FRESH,
                "seed": WORKLOAD_SEED,
            },
            "min_pruned_fraction_required": MIN_PRUNED_FRACTION,
            "pruned_fraction_n6": pruned,
            "rows": compare_rows,
            "kernel": {
                "min_speedup_required": MIN_KERNEL_SPEEDUP,
                "host": _host(),
                "rows": kernel_rows,
            },
        },
    )
