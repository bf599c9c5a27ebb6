"""Throughput benchmark of the wafer tier: die-group passes vs per-die loops.

Three cases, all at equal trial counts per estimate, written to
``BENCH_wafer.json`` at the repository root:

* **width-class wafer** — :func:`repro.montecarlo.wafer_sim.simulate_wafer`
  (each die on the shared track kernel, one row-local search per die)
  against
  :func:`repro.montecarlo.wafer_sim.per_die_loop`
  (:class:`~repro.montecarlo.device_sim.DeviceMonteCarlo` once per die and
  width class) on the same radial-drift wafer;
* **correlated-field wafer** — the same comparison on a wafer whose
  density and misalignment carry spatially correlated Gaussian-random-field
  structure (:mod:`repro.growth.spatial`) with per-die misalignment
  de-rating applied inside the die-group pass;
* **chip wafer** — :func:`repro.montecarlo.wafer_sim.run_chip_wafer`
  (whole-placement per-die chip runs on one shared geometry) against
  :func:`repro.montecarlo.wafer_sim.chip_per_die_loop` (a fresh
  :class:`~repro.montecarlo.chip_sim.ChipMonteCarlo` per die), bitwise
  identical direct statistics by construction.

The width-class pass wins on two structural counts: all width classes of
a die are answered from one shared track set (the per-die loop
re-samples tracks per width), and the per-die Python overheads amortise
over a die group.
The chip-wafer pass wins by materialising the placement geometry once
instead of once per die.

Runs as a pytest test (``pytest benchmarks/bench_wafer.py``) or
standalone (``python benchmarks/bench_wafer.py``).  Set
``REPRO_BENCH_QUICK=1`` for the CI smoke configuration.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from repro.resilience.atomic import atomic_write_json
from repro.analysis.mispositioned import MisalignmentImpactModel
from repro.cells.nangate45 import build_nangate45_library
from repro.growth.pitch import ExponentialPitch
from repro.growth.spatial import SpatialFieldSpec
from repro.growth.types import CNTTypeModel
from repro.growth.wafer import WaferGrowthModel
from repro.montecarlo.chip_sim import ChipMonteCarlo
from repro.montecarlo.wafer_sim import (
    chip_per_die_loop,
    per_die_loop,
    run_chip_wafer,
    simulate_wafer,
)
from repro.netlist.openrisc import build_openrisc_like_design
from repro.netlist.placement import RowPlacement

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_wafer.json"

#: OpenRISC-flavoured minimum-size width-class histogram: the device
#: widths a die actually carries between the baseline Wmin region and the
#: upsized classes, with per-die multiplicities.  All classes physically
#: share each row's tracks — exactly what the die-group pass exploits.
WIDTH_CLASSES_NM = (90.0, 105.0, 120.0, 150.0, 178.0)
DEVICE_COUNTS = (400.0, 300.0, 250.0, 200.0, 150.0)

SEED_KEY = (20100616,)


def _quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def _time(fn, repeats: int = 3) -> float:
    fn()  # warm the allocator / import paths
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _width_class_case(wafer, pitch, type_model, n_trials: int,
                      misalignment=None) -> dict:
    """Stacked width-class pass vs per-die DeviceMonteCarlo loop."""
    args = (wafer, pitch, type_model, WIDTH_CLASSES_NM, DEVICE_COUNTS)
    kwargs = dict(n_trials=n_trials, seed_key=SEED_KEY,
                  misalignment=misalignment)

    loop_s = _time(lambda: per_die_loop(*args, **kwargs))
    stacked_s = _time(lambda: simulate_wafer(*args, **kwargs))

    stacked = simulate_wafer(*args, **kwargs)
    loop = per_die_loop(*args, **kwargs)
    estimates = wafer.die_count * len(WIDTH_CLASSES_NM)
    return {
        "die_count": wafer.die_count,
        "width_classes_nm": list(WIDTH_CLASSES_NM),
        "device_counts": list(DEVICE_COUNTS),
        "trials_per_die": n_trials,
        "misalignment_derated": misalignment is not None,
        "per_die_loop": {
            "seconds": loop_s,
            "die_estimates_per_sec": estimates / loop_s,
            "dtype": "float64",
        },
        "stacked": {
            "seconds": stacked_s,
            "die_estimates_per_sec": estimates / stacked_s,
            "dtype": "float64",
        },
        "speedup": loop_s / stacked_s,
        "agreement": {
            "mean_chip_yield_stacked": stacked.mean_chip_yield,
            "mean_chip_yield_loop": loop.mean_chip_yield,
            "good_die_fraction_stacked": stacked.good_die_fraction,
            "good_die_fraction_loop": loop.good_die_fraction,
        },
    }


def _chip_wafer_case(wafer, netlist_scale: float, n_trials: int) -> dict:
    """Shared-geometry whole-placement wafer pass vs fresh-simulator loop."""
    library = build_nangate45_library()
    design = build_openrisc_like_design(library, scale=netlist_scale, seed=2010)
    placement = RowPlacement(design)
    chip = ChipMonteCarlo(
        placement,
        pitch=ExponentialPitch(4.0),
        type_model=CNTTypeModel(1.0 / 3.0, 1.0, 0.3),
    )
    kwargs = dict(n_trials=n_trials, seed_key=SEED_KEY)

    loop_s = _time(lambda: chip_per_die_loop(wafer, chip, **kwargs), repeats=2)
    stacked_s = _time(lambda: run_chip_wafer(wafer, chip, **kwargs), repeats=2)

    stacked = run_chip_wafer(wafer, chip, **kwargs)
    loop = chip_per_die_loop(wafer, chip, **kwargs)
    bitwise = all(
        a.chip_yield == b.chip_yield
        and a.mean_failing_devices == b.mean_failing_devices
        and a.std_failing_devices == b.std_failing_devices
        and a.mean_failing_rows == b.mean_failing_rows
        for a, b in zip(stacked.dice, loop.dice)
    )
    return {
        "die_count": wafer.die_count,
        "netlist_scale": netlist_scale,
        "device_count": chip.device_count,
        "width_class_count": len(stacked.widths_nm),
        "trials_per_die": n_trials,
        "per_die_chip_loop": {"seconds": loop_s},
        "shared_geometry": {"seconds": stacked_s},
        "speedup": loop_s / stacked_s,
        "direct_stats_bitwise_equal": bitwise,
        "agreement": {
            "mean_chip_yield_stacked": stacked.mean_chip_yield,
            "mean_chip_yield_loop": loop.mean_chip_yield,
        },
    }


def run_benchmark(die_size_mm: float, n_trials: int, netlist_scale: float,
                  chip_trials: int) -> dict:
    """All three wafer-tier cases on one wafer geometry."""
    radial_wafer = WaferGrowthModel(
        center_pitch_nm=4.0, die_size_mm=die_size_mm
    ).generate(np.random.default_rng(1))
    correlated_wafer = WaferGrowthModel(
        center_pitch_nm=4.0,
        die_size_mm=die_size_mm,
        density_field=SpatialFieldSpec(sigma=0.04, correlation_length_mm=25.0),
        misalignment_field=SpatialFieldSpec(sigma=1.0, correlation_length_mm=30.0),
    ).generate(seed_key=(1,))
    pitch = ExponentialPitch(4.0)
    type_model = CNTTypeModel(1.0 / 3.0, 1.0, 0.3)
    misalignment = MisalignmentImpactModel(
        band_width_nm=103.0, cnt_length_um=200.0, min_cnfet_density_per_um=1.8
    )

    return {
        "benchmark": "wafer tier: die-group passes vs per-die loops",
        "quick_mode": _quick_mode(),
        "width_class": _width_class_case(
            radial_wafer, pitch, type_model, n_trials
        ),
        "correlated_field": _width_class_case(
            correlated_wafer, pitch, type_model, n_trials,
            misalignment=misalignment,
        ),
        "chip_wafer": _chip_wafer_case(
            correlated_wafer, netlist_scale, chip_trials
        ),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def test_stacked_wafer_speedup():
    """Every stacked wafer pass must stay well ahead of its per-die loop."""
    if _quick_mode():
        record = run_benchmark(die_size_mm=20.0, n_trials=128,
                               netlist_scale=0.02, chip_trials=32)
        floor, chip_floor = 1.5, 1.3
    else:
        record = run_benchmark(die_size_mm=10.0, n_trials=512,
                               netlist_scale=0.05, chip_trials=96)
        floor, chip_floor = 3.0, 1.5

    atomic_write_json(RESULT_PATH, record)

    mode = "quick" if record["quick_mode"] else "full"
    print(f"\n=== Wafer Monte Carlo throughput ({mode}) ===")
    for case in ("width_class", "correlated_field"):
        c = record[case]
        print(f"{case:17s}: loop {c['per_die_loop']['seconds']*1e3:8.1f} ms | "
              f"stacked {c['stacked']['seconds']*1e3:7.1f} ms | "
              f"{c['speedup']:.2f}X")
    c = record["chip_wafer"]
    print(f"chip_wafer       : loop {c['per_die_chip_loop']['seconds']*1e3:8.1f} ms | "
          f"shared  {c['shared_geometry']['seconds']*1e3:7.1f} ms | "
          f"{c['speedup']:.2f}X (bitwise={c['direct_stats_bitwise_equal']})")
    print(f"written          : {RESULT_PATH}")

    for case in ("width_class", "correlated_field"):
        assert record[case]["speedup"] >= floor, (
            f"{case} die-group pass only {record[case]['speedup']:.2f}X "
            f"faster than the per-die loop (floor {floor:.1f}X)"
        )
        agree = record[case]["agreement"]
        assert abs(
            agree["mean_chip_yield_stacked"] - agree["mean_chip_yield_loop"]
        ) < 0.05
    assert record["chip_wafer"]["speedup"] >= chip_floor, (
        f"chip-wafer shared-geometry pass only "
        f"{record['chip_wafer']['speedup']:.2f}X faster than the per-die "
        f"ChipMonteCarlo loop (floor {chip_floor:.1f}X)"
    )
    assert record["chip_wafer"]["direct_stats_bitwise_equal"]


if __name__ == "__main__":
    test_stacked_wafer_speedup()
