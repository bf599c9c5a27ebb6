"""Throughput benchmark of the chip-level Monte Carlo engines.

Times the scalar (pre-vectorisation oracle) and the vectorized batched
engine on the Nangate45 OpenRISC-like block, and writes
``BENCH_chip_sim.json`` at the repository root with trials/sec and
device-windows/sec for both, so future changes can track the performance
trajectory.  The record also carries its provenance (git commit, CPU,
Python and NumPy versions, dtype policy, mode) and the wall time of each
layer of one batched chunk: gap draw (of the working tubes only),
``cumsum`` and the window count.  Runs as a pytest test
(``pytest benchmarks/bench_chip_sim.py``) or standalone
(``python benchmarks/bench_chip_sim.py``).

Set ``REPRO_BENCH_QUICK=1`` for a smaller design and fewer trials (the CI
smoke configuration).
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

from repro.backend import buffer_pool, default_backend, release_buffers
from repro.resilience.atomic import atomic_write_json
from repro.cells.nangate45 import build_nangate45_library
from repro.growth.pitch import ExponentialPitch
from repro.growth.types import CNTTypeModel
from repro.montecarlo.chip_sim import (
    ChipMonteCarlo,
    _chip_trial_chunk,
    _chunk_queries,
    _drawn_pitch,
)
from repro.montecarlo.engine import count_in_windows_flat, tight_gap_budget
from repro.netlist.openrisc import build_openrisc_like_design
from repro.netlist.placement import RowPlacement

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_chip_sim.json"


def _quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def _build_simulator(scale: float) -> ChipMonteCarlo:
    library = build_nangate45_library()
    design = build_openrisc_like_design(library, scale=scale, seed=2010)
    placement = RowPlacement(design, row_width_nm=40_000.0)
    # The sparse-growth corner keeps per-device failures measurable, the
    # same configuration the validation tests use.
    return ChipMonteCarlo(
        placement,
        pitch=ExponentialPitch(20.0),
        type_model=CNTTypeModel(1.0 / 3.0, 1.0, 0.3),
    )


def _time_engine(run, n_trials: int, seed: int, repeats: int = 1) -> float:
    """Best-of-``repeats`` wall time; the first pass warms the allocator."""
    best = float("inf")
    for _ in range(repeats):
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        run(n_trials, rng)
        best = min(best, time.perf_counter() - start)
    return best


def _provenance() -> dict:
    """Commit, machine, library versions, dtype policy and mode of this run."""
    root = RESULT_PATH.parent
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        sha, dirty = "unknown", None
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info
                 if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    backend = default_backend()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "cpu_model": cpu,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dtype": backend.dtype.name,
        "accum_dtype": backend.accum_dtype.name,
        "mode": "quick" if _quick_mode() else "full",
    }


def _median_seconds(step, repeats: int, setup=None) -> float:
    """Median wall time of ``repeats`` calls of ``step`` after one warm-up.

    ``setup``, when given, runs untimed before every call (a step that
    works in place gets its input restored there).
    """
    times = []
    for i in range(repeats + 1):
        if setup is not None:
            setup()
        start = time.perf_counter()
        step()
        if i:
            times.append(time.perf_counter() - start)
    return float(np.median(times))


def chunk_layers(
    simulator: ChipMonteCarlo, n_trials: int, repeats: int = 30
) -> dict:
    """Median seconds of each layer of one default-sized trial chunk.

    The layers of :func:`repro.montecarlo.chip_sim._chip_window_counts_joint`
    timed one by one on the same slot-major chunk, inside a buffer pool
    scope as the chunk runner executes them: the gap draw of the first
    (tight-budget) batch from the thinned pitch the kernel draws (only
    the working tubes), its in-place running sum down the slot axis and
    the window count of every distinct window (column-local searches
    alone: an opens-only run draws no tube uniforms and takes no running
    count).  Top-up rounds and the failure reductions are left out, so
    the layers sum to a little less than one chunk.
    """
    geometry = simulator.chip_geometry()
    backend = default_backend()
    pitch = _drawn_pitch(geometry)
    n_chunk = _chip_trial_chunk(pitch, geometry, n_trials)
    shape = (
        tight_gap_budget(pitch, geometry.row_height_nm),
        n_chunk * geometry.n_rows,
    )
    trial_index, lo, hi = _chunk_queries(geometry, n_chunk)
    rng = np.random.default_rng(3)
    try:
        with buffer_pool():
            gaps = backend.sample_gaps(pitch, shape, rng, out=backend.empty(shape))
            positions = backend.cumsum(gaps.copy(), axis=0)
            layers = {
                "gap_draw": _median_seconds(
                    lambda: backend.sample_gaps(pitch, shape, rng, out=gaps),
                    repeats),
                "cumsum": _median_seconds(
                    lambda: backend.cumsum(positions, axis=0), repeats,
                    setup=lambda: np.copyto(positions, gaps)),
                "window_count": _median_seconds(
                    lambda: count_in_windows_flat(
                        positions, None, lo, hi, trial_index, backend=backend,
                    ), repeats),
            }
    finally:
        release_buffers()
    return {
        "trials_per_chunk": n_chunk,
        "batch_trials": shape[1],
        "budget_slots": shape[0],
        "window_queries": int(lo.size),
        "median_seconds": layers,
    }


def run_benchmark(scale: float, scalar_trials: int, vector_trials: int) -> dict:
    """Measure both engines and return the benchmark record."""
    simulator = _build_simulator(scale)

    scalar_s = _time_engine(simulator.run_scalar, scalar_trials, seed=1)
    vector_s = _time_engine(simulator.run, vector_trials, seed=1, repeats=2)

    scalar_tps = scalar_trials / scalar_s
    vector_tps = vector_trials / vector_s
    device_count = simulator.device_count
    return {
        "benchmark": "ChipMonteCarlo.run on Nangate45 OpenRISC-like block",
        "quick_mode": _quick_mode(),
        "provenance": _provenance(),
        "design": {
            "scale": scale,
            "device_count": device_count,
            "distinct_windows": int(simulator._geometry.window_lo.size),
            "rows": int(simulator._geometry.n_rows),
        },
        "scalar": {
            "n_trials": scalar_trials,
            "seconds": scalar_s,
            "trials_per_sec": scalar_tps,
            "device_windows_per_sec": scalar_tps * device_count,
        },
        "vectorized": {
            "n_trials": vector_trials,
            "seconds": vector_s,
            "trials_per_sec": vector_tps,
            "device_windows_per_sec": vector_tps * device_count,
        },
        "speedup": vector_tps / scalar_tps,
        "chunk_layers": chunk_layers(simulator, vector_trials),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def test_vectorized_engine_speedup():
    """The batched engine must stay well ahead of the scalar oracle."""
    if _quick_mode():
        record = run_benchmark(scale=0.05, scalar_trials=5, vector_trials=50)
        floor = 5.0
    else:
        record = run_benchmark(scale=0.25, scalar_trials=10, vector_trials=200)
        floor = 20.0

    atomic_write_json(RESULT_PATH, record)

    print(f"\n=== Chip Monte Carlo throughput ({'quick' if record['quick_mode'] else 'full'}) ===")
    print(f"devices              : {record['design']['device_count']}")
    print(f"scalar trials/sec    : {record['scalar']['trials_per_sec']:.2f}")
    print(f"vectorized trials/sec: {record['vectorized']['trials_per_sec']:.2f}")
    print(f"speedup              : {record['speedup']:.1f}X")
    for layer, seconds in record["chunk_layers"]["median_seconds"].items():
        print(f"chunk {layer:15s}: {seconds * 1e3:.3f} ms")
    print(f"written              : {RESULT_PATH}")

    assert record["speedup"] >= floor, (
        f"vectorized engine only {record['speedup']:.1f}X faster "
        f"(floor {floor:.0f}X)"
    )


if __name__ == "__main__":
    test_vectorized_engine_speedup()
