"""Benchmark of the joint opens+shorts chip engine against opens-only.

Runs the batched :class:`~repro.montecarlo.chip_sim.ChipMonteCarlo`
kernel on the same placed design twice — once with perfect metallic
removal (``eta = 1``, the opens-only regime) and once with imperfect
removal (``eta < 1``, the joint opens+shorts regime) — and writes
``BENCH_shorts.json`` at the repository root.  Two headline checks:

* **throughput floor** — the joint engine draws the kept tubes of a
  pitch thinned only slightly less than the opens-only pass (working
  tubes plus surviving shorts) and adds only the short marks, one
  geometric skip per mark, and their running count in the same window
  pass, so it must stay within 1.5X of the opens-only trials/sec;
* **accuracy** — the joint engine's mean failing-device count must match
  the thinned closed form of :mod:`repro.device.shorts` within Monte
  Carlo error (|z| < 6), trial by the same acceptance gate the
  equivalence suite applies.

Runs as a pytest test (``pytest benchmarks/bench_shorts.py``) or
standalone (``python benchmarks/bench_shorts.py``).  Set
``REPRO_BENCH_QUICK=1`` for the CI smoke configuration.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path

import numpy as np

from repro.cells.nangate45 import build_nangate45_library
from repro.core.count_model import PoissonCountModel
from repro.core.failure import CNFETFailureModel
from repro.growth.pitch import ExponentialPitch
from repro.growth.types import CNTTypeModel
from repro.montecarlo.chip_sim import ChipMonteCarlo
from repro.netlist.openrisc import build_openrisc_like_design
from repro.netlist.placement import RowPlacement
from repro.resilience.atomic import atomic_write_json

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_shorts.json"

#: The joint engine may cost at most this factor over opens-only.
SLOWDOWN_CEILING = 1.5

MEAN_PITCH_NM = 20.0
METALLIC_FRACTION = 1.0 / 3.0
REMOVAL_ETA = 0.95
REMOVAL_PROB_SEMI = 0.3


def _quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def build_simulator(scale: float, eta: float) -> ChipMonteCarlo:
    """Chip simulator on the scaled OpenRISC-like design at one eta."""
    library = build_nangate45_library()
    design = build_openrisc_like_design(library, scale=scale, seed=2010)
    placement = RowPlacement(design, row_width_nm=40_000.0)
    return ChipMonteCarlo(
        placement,
        pitch=ExponentialPitch(MEAN_PITCH_NM),
        type_model=CNTTypeModel(METALLIC_FRACTION, eta, REMOVAL_PROB_SEMI),
    )


def _timed_run(simulator: ChipMonteCarlo, n_trials: int, seed: int):
    start = time.perf_counter()
    result = simulator.run(n_trials, np.random.default_rng(seed))
    return result, time.perf_counter() - start


def run_benchmark(scale: float, n_trials: int) -> dict:
    opens = build_simulator(scale, eta=1.0)
    joint = build_simulator(scale, eta=REMOVAL_ETA)

    # Warm-up pass absorbs geometry materialisation and allocator churn.
    opens.run(4, np.random.default_rng(0))
    joint.run(4, np.random.default_rng(0))

    opens_result, opens_seconds = _timed_run(opens, n_trials, seed=20100620)
    joint_result, joint_seconds = _timed_run(joint, n_trials, seed=20100620)

    # Closed-form cross-check: mean failing devices is linear in the
    # per-class joint pF, so the engine must agree with the thinned form.
    widths, counts = joint.width_class_histogram()
    model = CNFETFailureModel.from_type_model(
        PoissonCountModel(mean_pitch_nm=MEAN_PITCH_NM),
        CNTTypeModel(METALLIC_FRACTION, REMOVAL_ETA, REMOVAL_PROB_SEMI),
    )
    predicted = float(np.sum(
        np.asarray(counts) * model.failure_probabilities(np.asarray(widths))
    ))
    se = joint_result.std_failing_devices / math.sqrt(n_trials)
    z = (joint_result.mean_failing_devices - predicted) / se if se > 0 else 0.0

    slowdown = joint_seconds / opens_seconds
    return {
        "benchmark": "joint opens+shorts chip engine vs opens-only",
        "quick_mode": _quick_mode(),
        "configuration": {
            "design_scale": scale,
            "n_trials": n_trials,
            "device_count": joint_result.device_count,
            "metallic_fraction": METALLIC_FRACTION,
            "removal_eta": REMOVAL_ETA,
            "removal_prob_semiconducting": REMOVAL_PROB_SEMI,
            "short_probability": METALLIC_FRACTION * (1.0 - REMOVAL_ETA),
        },
        "throughput": {
            "opens_only_seconds": opens_seconds,
            "joint_seconds": joint_seconds,
            "opens_only_trials_per_sec": n_trials / opens_seconds,
            "joint_trials_per_sec": n_trials / joint_seconds,
            "slowdown": slowdown,
            "ceiling": SLOWDOWN_CEILING,
        },
        "accuracy": {
            "mean_failing_devices": joint_result.mean_failing_devices,
            "closed_form_prediction": predicted,
            "standard_error": se,
            "z_score": z,
            "opens_only_mean_failing_devices":
                opens_result.mean_failing_devices,
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def test_joint_engine_throughput_and_accuracy():
    """Joint engine within 1.5X of opens-only; matches the closed form."""
    if _quick_mode():
        record = run_benchmark(scale=0.02, n_trials=96)
    else:
        record = run_benchmark(scale=0.1, n_trials=256)

    atomic_write_json(RESULT_PATH, record)

    throughput = record["throughput"]
    accuracy = record["accuracy"]
    print(f"\n=== Joint opens+shorts engine "
          f"({'quick' if record['quick_mode'] else 'full'}) ===")
    print(f"devices              : "
          f"{record['configuration']['device_count']}")
    print(f"opens-only           : "
          f"{throughput['opens_only_trials_per_sec']:.1f} trials/sec")
    print(f"joint                : "
          f"{throughput['joint_trials_per_sec']:.1f} trials/sec "
          f"(slowdown {throughput['slowdown']:.2f}X, "
          f"ceiling {SLOWDOWN_CEILING}X)")
    print(f"closed-form z        : {accuracy['z_score']:+.2f}")
    print(f"written              : {RESULT_PATH}")

    assert throughput["slowdown"] <= SLOWDOWN_CEILING, (
        f"joint engine {throughput['slowdown']:.2f}X slower than "
        f"opens-only, ceiling is {SLOWDOWN_CEILING}X"
    )
    assert accuracy["standard_error"] > 0.0
    assert abs(accuracy["z_score"]) < 6.0, (
        "joint engine disagrees with the thinned closed form: "
        f"z = {accuracy['z_score']:.2f}"
    )
    # The short channel must actually bite: the joint run fails more
    # devices than the opens-only run at the same seed and trial count.
    assert (
        accuracy["mean_failing_devices"]
        > accuracy["opens_only_mean_failing_devices"]
    )


if __name__ == "__main__":
    test_joint_engine_throughput_and_accuracy()
