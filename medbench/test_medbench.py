"""Self-tests of the mediator benchmark.

Run from the repository root::

    python3 -m pytest medbench -q

They pin what later changes may cite: the deterministic work counters
repeat exactly run over run, every answer matches the plain reference
and the checked-in digest, the traced run's self times are per thread,
and the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

#: deterministic work counters: they repeat exactly run over run on
#: sec5 and kb-churn, so later changes may cite them as counts
EXACT_COUNTERS = (
    "datalog.rule_firings",
    "datalog.facts_derived",
    "dm.graphop_calls",
    "source.calls",
    "wire.bytes",
    "cache.invalidated_entries",
)

#: fixed op budgets: enough for every op kind to run traced (every
#: other cycle of the workload is traced)
OPS = {"sec5": 24, "federation": 16, "kb-churn": 20}


def traced(workload, seed=7):
    return bench.run_workload(
        workload, seed, seconds=3600, trace=True, max_ops=OPS[workload]
    )


@pytest.mark.parametrize("workload", ["sec5", "kb-churn"])
def test_counters_repeat_exactly(workload):
    first, second = traced(workload), traced(workload)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    for name in EXACT_COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["datalog.rule_firings"]["value"] > 0
    assert first["metrics"]["wire.bytes"]["value"] > 0


def test_self_time_is_per_thread_on_federation():
    result = traced("federation")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    assert metrics["trace.min_self_ms"] >= 0.0
    assert metrics["trace.selftime_share"] == pytest.approx(1.0, abs=1e-9)
    # the labs are answered on worker threads while the op's thread
    # waits in the fan-out
    assert metrics["trace.worker_ms"] > 0.0
    assert metrics["fanout.wait_ms"] > 0.0
    assert metrics["fanout.tasks"] > 0.0


def test_end_to_end_result_shape():
    result = bench.run_workload(
        "sec5", 3, seconds=3600, trace=False, max_ops=8
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 8
    assert set(result["metrics"]) == set(bench.END_TO_END)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(bench.PER_LAYER)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == bench.END_TO_END[metric["name"]]
    for metric in spec["per_layer"]:
        assert metric["unit"] == bench.PER_LAYER[metric["name"]][0]
    assert [w["name"] for w in spec["workloads"]] == [
        "sec5", "federation", "kb-churn"
    ]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "medbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "medbench/run.py", "--workload", "sec5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
