"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

* a smoke-size run of every workload, end-to-end and traced, prints
  every metric ``BENCHMARK.json`` lists, by name and with its unit;
* the correctness gate fires on a corrupted witness transform and on a
  hit turned into a miss;
* window rates leave the warm-up out and fall back to the whole run;
* outside a checkout (only ``BENCHMARK.json`` and ``perfbench/``) the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from gate import GateError, check_answers  # noqa: E402
from loadgen import LoadResult  # noqa: E402
from run import WARMUP_WINDOWS, window_rates  # noqa: E402
from repro.core.transforms import random_transform  # noqa: E402
from repro.library import build_exhaustive_library  # noqa: E402
from repro.service.protocol import match_payload, ok_reply  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--scale", "smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float)), metric["name"]
    metrics = result["metrics"]
    if trace:
        parts = metrics["service.attributed_s"]["value"] + metrics[
            "service.unattributed_s"
        ]["value"]
        assert parts == pytest.approx(metrics["service.busy_s"]["value"])
    else:
        assert metrics["answered_frac"]["value"] == 1.0
        assert metrics["setup_s"]["value"] > 0


@pytest.fixture(scope="module")
def served():
    """A small library and correct served replies for random images."""
    library = build_exhaustive_library(3)
    rng = random.Random(7)
    tables, expected, replies = [], [], []
    for entry in library.entries() * 3:
        table = entry.representative.apply(random_transform(3, rng))
        match = library.match(table)
        tables.append(table)
        expected.append(entry.class_id)
        replies.append(ok_reply(len(replies), "match", match_payload(table, match, False)))
    return library, tables, expected, replies


def test_gate_accepts_correct_answers(served):
    library, tables, expected, replies = served
    summary = check_answers(tables, expected, replies, library)
    assert summary["checked"] == len(tables) == summary["hits"]


def test_gate_fires_on_corrupted_transform(served):
    library, tables, expected, replies = served
    replies = json.loads(json.dumps(replies))
    # Flipping the output phase turns a witness of f into one of ~f.
    replies[0]["result"]["transform"]["output_phase"] ^= 1
    with pytest.raises(GateError, match="witness"):
        check_answers(tables, expected, replies, library)


def test_gate_fires_on_hit_turned_into_miss(served):
    library, tables, expected, replies = served
    replies = json.loads(json.dumps(replies))
    replies[5]["result"] = {"hit": False, "n": 3, "cached": False}
    with pytest.raises(GateError, match="offline reference"):
        check_answers(tables, expected, replies, library)


def test_window_rates_leave_the_warm_up_out():
    load = LoadResult(replies=[{"ok": True}] * 5000, started=0.0, finished=4.0)
    warm_up = [(0.0, 0, 0.0)] * WARMUP_WINDOWS
    load.samples = warm_up + [(1.0, 1000, 1.0), (2.0, 3000, 2.0), (3.0, 4000, 2.5)]
    rates = window_rates(load, cpu_s=3.0)
    assert rates["throughput_qps"] == [2000.0, 1000.0]
    assert rates["server_cpu_ms_per_kq"] == [500.0, 500.0]


def test_window_rates_fall_back_to_the_whole_run():
    load = LoadResult(replies=[{"ok": True}] * 500, started=0.0, finished=0.5)
    load.samples = [(0.0, 0, 0.0)]
    rates = window_rates(load, cpu_s=0.25)
    assert rates == {"throughput_qps": [1000.0], "server_cpu_ms_per_kq": [500.0]}


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("wide", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
