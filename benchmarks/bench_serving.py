"""Throughput + correctness benchmark of the yield-surface serving layer.

Measures the batched :class:`~repro.serving.YieldService` answering
interpolated chip-yield queries against a precomputed device-pF surface at
the paper's 45 nm operating region, and writes ``BENCH_serving.json`` at
the repository root.  Two headline checks:

* **throughput** — at least 1e6 interpolated queries/sec on a single core
  (the design target for the co-optimization inner loop; the measured
  figure is typically several times that);
* **correctness** — at the paper's Table 1 operating points (the device
  pF at the baseline Wmin and the three row-scenario pRF values), every
  interpolated answer must lie within its *reported* error bound of the
  exact Eq. 2.2 / 3.1 closed-form evaluation.

It also records, unfloored, what the same queries cost without a surface:
the exact evaluator's points per second for the Poisson and gamma pitch
families (the baseline the README's serving row quotes).

Runs as a pytest test (``pytest benchmarks/bench_serving.py``) or
standalone (``python benchmarks/bench_serving.py``).  Set
``REPRO_BENCH_QUICK=1`` for the CI smoke configuration.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict

import numpy as np

from repro.resilience.atomic import atomic_write_json
from repro.core.calibration import CalibratedSetup
from repro.core.correlation import LayoutScenario, RowYieldModel
from repro.core.count_model import count_model_from_pitch
from repro.core.failure import CNFETFailureModel
from repro.growth.pitch import pitch_distribution_from_cv
from repro.serving import YieldService
from repro.surface import (
    ALL_SCENARIOS,
    SCENARIO_DEVICE,
    ExactEvaluator,
    GridAxis,
    SurfaceBuilder,
    SweepSpec,
    density_to_mean_pitch_nm,
)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

THROUGHPUT_FLOOR = 1.0e6
W_LOW, W_HIGH = 60.0, 300.0
D_LOW, D_HIGH = 150.0, 400.0
NOMINAL_DENSITY = 250.0  # 1 / (4 nm mean pitch)


def _quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def build_surfaces(setup: CalibratedSetup):
    """Sweep all four scenario surfaces of the calibrated operating point."""
    pitch = pitch_distribution_from_cv(setup.mean_pitch_nm, setup.pitch_cv)
    surfaces = {}
    build_seconds = {}
    for scenario in ALL_SCENARIOS:
        spec = SweepSpec(
            scenario=scenario,
            width_axis=GridAxis.from_range("width_nm", W_LOW, W_HIGH, 33),
            density_axis=GridAxis.from_range(
                "cnt_density_per_um", D_LOW, D_HIGH, 17
            ),
            pitch=pitch,
            per_cnt_failure=setup.corner.per_cnt_failure_probability,
            correlation=setup.correlation,
        )
        start = time.perf_counter()
        surfaces[scenario] = SurfaceBuilder(spec).build()
        build_seconds[scenario] = time.perf_counter() - start
    return surfaces, build_seconds


def measure_throughput(service, key, n_queries: int, batch_size: int) -> dict:
    """Time batched in-grid queries (fresh uniform points per batch)."""
    rng = np.random.default_rng(20100613)
    batches = []
    remaining = n_queries
    while remaining > 0:
        n = min(batch_size, remaining)
        batches.append((
            rng.uniform(W_LOW, W_HIGH, n),
            rng.uniform(D_LOW, D_HIGH, n),
        ))
        remaining -= n
    start = time.perf_counter()
    for widths, densities in batches:
        service.query(key, widths, cnt_density_per_um=densities,
                      device_count=3.3e7)
    seconds = time.perf_counter() - start
    return {
        "n_queries": n_queries,
        "batch_size": batch_size,
        "seconds": seconds,
        "queries_per_sec": n_queries / seconds,
    }


def measure_exact_points(setup: CalibratedSetup, n_points: Dict[str, int]) -> dict:
    """Time the exact evaluator at fresh scattered points, per pitch family.

    This is what a query costs without a surface: the serving layer's
    off-grid fallback, one closed-form evaluation per (W, ρ) point.  The
    Poisson family (pitch CV 1) has the Eq. 2.2 closed form; the gamma
    family (CV 0.5) goes through the renewal count model.
    """
    rng = np.random.default_rng(20100614)
    records = {}
    for family, cv in (("poisson", 1.0), ("gamma_cv0.5", 0.5)):
        n = n_points[family]
        evaluator = ExactEvaluator(
            SCENARIO_DEVICE,
            pitch_distribution_from_cv(setup.mean_pitch_nm, cv),
            setup.corner.per_cnt_failure_probability,
            setup.correlation,
        )
        widths = rng.uniform(W_LOW, W_HIGH, n)
        densities = rng.uniform(D_LOW, D_HIGH, n)
        start = time.perf_counter()
        evaluator.points(widths, densities)
        seconds = time.perf_counter() - start
        records[family] = {
            "n_points": n,
            "seconds": seconds,
            "points_per_sec": n / seconds,
        }
    return records


def table1_crosscheck(setup: CalibratedSetup, surfaces, service) -> list:
    """Interpolated vs exact values at the paper's Table 1 operating points.

    The operating point is the device pF at the *baseline* Wmin (how the
    paper arrives at its pRF columns), queried at the nominal density and
    at the axis-interior neighbours around it.
    """
    wmin = setup.wmin_uncorrelated_nm()
    pitch = pitch_distribution_from_cv(setup.mean_pitch_nm, setup.pitch_cv)
    records = []
    query_points = [
        (wmin, NOMINAL_DENSITY),
        (wmin, 0.93 * NOMINAL_DENSITY),
        (0.8 * wmin, NOMINAL_DENSITY),
        (110.0, 275.0),
    ]
    for scenario, surface in surfaces.items():
        key = service.register(surface)
        for width, density in query_points:
            result = service.query(
                key, np.array([width]), cnt_density_per_um=np.array([density]),
                device_count=setup.min_size_device_count,
            )
            model = CNFETFailureModel(
                count_model_from_pitch(
                    pitch.with_mean(density_to_mean_pitch_nm(density))
                ),
                setup.corner.per_cnt_failure_probability,
            )
            exact_pf = model.failure_probability(width)
            if scenario == "device":
                exact = exact_pf
            else:
                exact = RowYieldModel(
                    parameters=setup.correlation
                ).row_failure_probability(LayoutScenario(scenario), exact_pf)
            records.append({
                "scenario": scenario,
                "width_nm": width,
                "cnt_density_per_um": density,
                "interpolated": float(result.failure_probability[0]),
                "exact": exact,
                "lower_bound": float(result.failure_lower[0]),
                "upper_bound": float(result.failure_upper[0]),
                "within_bounds": bool(
                    result.failure_lower[0] <= exact <= result.failure_upper[0]
                ),
            })
    return records


def run_benchmark(
    n_queries: int, batch_size: int, exact_points: Dict[str, int]
) -> dict:
    setup = CalibratedSetup()
    surfaces, build_seconds = build_surfaces(setup)
    service = YieldService()
    device_key = service.register(surfaces["device"])

    # Warm-up pass (page in the arrays, trigger any lazy NumPy setup).
    measure_throughput(service, device_key, min(n_queries, 100_000), batch_size)
    throughput = measure_throughput(service, device_key, n_queries, batch_size)
    crosscheck = table1_crosscheck(setup, surfaces, service)
    exact = measure_exact_points(setup, exact_points)

    return {
        "benchmark": "yield-surface serving layer, interpolated queries",
        "quick_mode": _quick_mode(),
        "operating_region": {
            "width_nm": [W_LOW, W_HIGH],
            "cnt_density_per_um": [D_LOW, D_HIGH],
            "wmin_baseline_nm": setup.wmin_uncorrelated_nm(),
            "min_size_device_count": setup.min_size_device_count,
        },
        "surfaces": {
            scenario: {
                **surface.describe(),
                "build_seconds": build_seconds[scenario],
            }
            for scenario, surface in surfaces.items()
        },
        "throughput": throughput,
        "throughput_floor": THROUGHPUT_FLOOR,
        "exact_points": exact,
        "table1_crosscheck": crosscheck,
        "cache": service.cache.stats(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def test_serving_throughput_and_bounds():
    """≥1e6 interpolated queries/sec; Table 1 points within error bounds."""
    if _quick_mode():
        record = run_benchmark(
            n_queries=500_000, batch_size=250_000,
            exact_points={"poisson": 2_000, "gamma_cv0.5": 200},
        )
    else:
        record = run_benchmark(
            n_queries=4_000_000, batch_size=1_000_000,
            exact_points={"poisson": 20_000, "gamma_cv0.5": 2_000},
        )

    atomic_write_json(RESULT_PATH, record)

    rate = record["throughput"]["queries_per_sec"]
    checks = record["table1_crosscheck"]
    print(f"\n=== Yield-surface serving "
          f"({'quick' if record['quick_mode'] else 'full'}) ===")
    for scenario, info in record["surfaces"].items():
        print(f"surface {scenario:24s}: "
              f"{info['n_width']}x{info['n_density']} grid, "
              f"max interp err {info['max_interp_error_log']:.2e}, "
              f"built in {info['build_seconds']:.2f}s")
    print(f"throughput           : {rate:.3e} queries/sec "
          f"(floor {record['throughput_floor']:.0e})")
    for family, info in record["exact_points"].items():
        print(f"exact, {family:14s}: {info['points_per_sec']:.3e} points/sec")
    n_ok = sum(1 for c in checks if c["within_bounds"])
    print(f"Table 1 cross-check  : {n_ok}/{len(checks)} points within "
          f"reported bounds")
    print(f"written              : {RESULT_PATH}")

    assert rate >= THROUGHPUT_FLOOR, (
        f"serving throughput {rate:.3e} q/s below the {THROUGHPUT_FLOOR:.0e} floor"
    )
    failing = [c for c in checks if not c["within_bounds"]]
    assert not failing, (
        "interpolated Table 1 points escaped their reported error bounds: "
        f"{failing}"
    )


if __name__ == "__main__":
    test_serving_throughput_and_bounds()
