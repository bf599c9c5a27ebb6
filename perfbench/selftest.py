"""Self-test of the benchmark: a tiny pass of every workload in both modes.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

It asserts that every metric ``BENCHMARK.json`` names is printed with its
unit, that no operation fails its check, that a traced operation answers
bitwise like an untraced one, that the exact counters repeat for a
repeated seed, and that the runner refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("backend.gap_slots", "backend.sample_gaps_calls",
                "core.yield_transform_calls", "coopt.candidates",
                "coopt.pruned", "coopt.escalated")


def _run(name: str, traced: bool, seed: int = 7):
    result, _ = run.run_workload(name, seed, 0.5, traced, size="tiny")
    return result


def test_workloads_match_the_spec():
    assert sorted(NAMES) == sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_and_checks(name):
    result = _run(name, traced=False)
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert printed["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_metrics_and_bitwise_tracing(name):
    # A traced answer that differs from the untraced one counts as failed.
    result = _run(name, traced=True)
    assert result["failed"] == 0 and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_operation_equals_untraced(name, tmp_path):
    workload = make_workload(name, 3, "tiny", tmp_path)
    tracer = Tracer()
    try:
        if not workload.per_op_setup:
            workload.setup()
            workload.setup(tracer=tracer)
            workload.operation(0)
        row = workload.trace_operation(1, tracer)
    finally:
        workload.close()
    assert row["equal"]


@pytest.mark.parametrize("name", ["chip-mc", "wafer-map", "coopt-front"])
def test_exact_counts_repeat(name):
    first = _run(name, traced=True, seed=11)["metrics"]
    second = _run(name, traced=True, seed=11)["metrics"]
    for key in EXACT_COUNTS:
        assert first[key] == second[key]
    assert any(first[key]["value"] > 0 for key in EXACT_COUNTS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
