"""Throughput benchmark of the batched levelized STA vs the scalar oracle.

Samples one per-trial delay matrix over a design-derived timing graph, then
times :func:`repro.timing.sta.propagate_arrivals` (vectorized, all trials in
one levelized sweep) against :func:`propagate_arrivals_scalar` (per-trial
Python walk — the pre-vectorisation oracle) on the *same* matrix, asserting
the arrivals are bitwise equal before comparing speed.  Writes
``BENCH_timing.json`` at the repository root with trials/sec and node-evals/
sec for both paths.  Runs as a pytest test
(``pytest benchmarks/bench_timing.py``) or standalone
(``python benchmarks/bench_timing.py``).

Set ``REPRO_BENCH_QUICK=1`` for a smaller graph and fewer trials (the CI
smoke configuration).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from repro.resilience.atomic import atomic_write_json
from repro.cells.nangate45 import build_nangate45_library
from repro.growth.pitch import pitch_distribution_from_cv
from repro.growth.types import CNTTypeModel
from repro.montecarlo.chip_sim import ChipMonteCarlo
from repro.netlist.openrisc import build_openrisc_like_design
from repro.netlist.placement import RowPlacement
from repro.timing import TimingMonteCarlo, derive_timing_graph
from repro.timing.parametric import _delays_from_currents, _sample_node_currents
from repro.timing.sta import propagate_arrivals, propagate_arrivals_scalar

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_timing.json"


def _quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def _build_delay_matrix(scale: float, n_trials: int):
    """A derived graph plus one Monte-Carlo-sampled (trials × nodes) matrix."""
    library = build_nangate45_library()
    design = build_openrisc_like_design(library, scale=scale, seed=2010)
    placement = RowPlacement(design, row_width_nm=40_000.0)
    chip = ChipMonteCarlo(
        placement,
        pitch=pitch_distribution_from_cv(8.0, 1.0),
        type_model=CNTTypeModel(0.30, 1.0, 0.05),
    )
    timing = derive_timing_graph(chip, seed=7)
    tmc = TimingMonteCarlo.from_chip(chip, timing=timing)
    payload = tmc._payload
    _, currents = _sample_node_currents(
        payload, n_trials, np.random.default_rng(1)
    )
    delays = _delays_from_currents(payload.scale_ps_ua, currents)
    return timing.graph, delays


def _time_pass(run, repeats: int) -> float:
    """Best-of-``repeats`` wall time; the first pass warms the caches."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(scale: float, scalar_trials: int, vector_trials: int) -> dict:
    """Measure both STA paths on shared delay samples; return the record."""
    graph, delays = _build_delay_matrix(scale, vector_trials)

    # Equivalence first: both paths must produce bitwise-equal arrivals on
    # the scalar slice before speed means anything.
    scalar_slice = delays[:scalar_trials]
    batched = propagate_arrivals(graph, scalar_slice)
    scalar = propagate_arrivals_scalar(graph, scalar_slice)
    if not np.array_equal(batched, scalar):
        raise AssertionError("batched STA disagrees with the scalar oracle")

    scalar_s = _time_pass(
        lambda: propagate_arrivals_scalar(graph, scalar_slice), repeats=1
    )
    vector_s = _time_pass(
        lambda: propagate_arrivals(graph, delays), repeats=2
    )

    scalar_tps = scalar_trials / scalar_s
    vector_tps = vector_trials / vector_s
    return {
        "benchmark": "levelized STA over a derived Nangate45 timing graph",
        "quick_mode": _quick_mode(),
        "graph": {
            "scale": scale,
            "n_nodes": graph.n_nodes,
            "n_arcs": graph.n_arcs,
            "depth": graph.depth,
        },
        "scalar": {
            "n_trials": scalar_trials,
            "seconds": scalar_s,
            "trials_per_sec": scalar_tps,
            "node_evals_per_sec": scalar_tps * graph.n_nodes,
        },
        "vectorized": {
            "n_trials": vector_trials,
            "seconds": vector_s,
            "trials_per_sec": vector_tps,
            "node_evals_per_sec": vector_tps * graph.n_nodes,
        },
        "speedup": vector_tps / scalar_tps,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def test_batched_sta_speedup():
    """The batched levelized sweep must stay well ahead of the scalar walk."""
    if _quick_mode():
        record = run_benchmark(scale=0.02, scalar_trials=10, vector_trials=200)
        floor = 5.0
    else:
        record = run_benchmark(scale=0.1, scalar_trials=20, vector_trials=1_000)
        floor = 10.0

    atomic_write_json(RESULT_PATH, record)

    print(f"\n=== Levelized STA throughput ({'quick' if record['quick_mode'] else 'full'}) ===")
    print(f"graph                : {record['graph']['n_nodes']} nodes, depth {record['graph']['depth']}")
    print(f"scalar trials/sec    : {record['scalar']['trials_per_sec']:.2f}")
    print(f"vectorized trials/sec: {record['vectorized']['trials_per_sec']:.2f}")
    print(f"speedup              : {record['speedup']:.1f}X")
    print(f"written              : {RESULT_PATH}")

    assert record["speedup"] >= floor, (
        f"batched STA only {record['speedup']:.1f}X faster (floor {floor:.0f}X)"
    )


if __name__ == "__main__":
    test_batched_sta_speedup()
