"""Seeded golden-value regression against the frozen engine fixture.

``tests/fixtures/golden_engine_values.json`` freezes the exact outputs of
the NumPy float64 engine for a small chip run, a shorts-active chip run, a
tilted chip-tail run, and a device tail estimate, all under pinned seeds.
Any change to the engine's numerics — a reordered reduction, a dtype
promotion, a different RNG consumption pattern — shifts these values and
shows up here as a visible diff instead of silent statistical drift.

Count-derived statistics are compared exactly; smooth functionals allow
1e-9 relative slack for cross-platform libm differences in
``exp``/``log``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.cells.nangate45 import build_nangate45_library
from repro.growth.pitch import ExponentialPitch, GammaPitch
from repro.growth.types import CNTTypeModel
from repro.montecarlo.chip_sim import ChipMonteCarlo
from repro.montecarlo.rare_event import estimate_device_failure_tilted
from repro.netlist.openrisc import build_openrisc_like_design
from repro.netlist.placement import RowPlacement

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "golden_engine_values.json"

REL = 1e-9


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def simulator(golden):
    library = build_nangate45_library()
    design = build_openrisc_like_design(
        library, scale=golden["chip_naive"]["scale"], seed=2010
    )
    placement = RowPlacement(design, row_width_nm=40_000.0)
    return ChipMonteCarlo(
        placement,
        pitch=ExponentialPitch(20.0),
        type_model=CNTTypeModel(1.0 / 3.0, 1.0, 0.3),
    )


class TestGoldenChipNaive:
    def test_exact_failure_counts(self, golden, simulator):
        g = golden["chip_naive"]
        result = simulator.run(
            g["n_trials"], np.random.default_rng(g["seed"])
        )
        assert result.device_count == g["device_count"]
        assert result.small_device_count == g["small_device_count"]
        # Counts and their moments are exact rationals of integer counts:
        # any numerics change that moves a single window decision flips them.
        assert result.mean_failing_devices == g["mean_failing_devices"]
        assert result.mean_failing_rows == g["mean_failing_rows"]
        assert result.chip_yield == g["chip_yield"]
        assert result.std_failing_devices == pytest.approx(
            g["std_failing_devices"], rel=REL
        )
        assert result.device_failure_rate == pytest.approx(
            g["device_failure_rate"], rel=REL
        )


class TestGoldenChipShorts:
    def test_exact_failure_counts_with_shorts(self, golden):
        # Imperfect metallic removal (eta = 0.95) activates the joint
        # opens+shorts engine path; the frozen counts pin its RNG
        # consumption (the kept tubes, then the geometric-skip short
        # marks among them) and the short-count window reduction.
        g = golden["chip_shorts"]
        library = build_nangate45_library()
        design = build_openrisc_like_design(library, scale=g["scale"], seed=2010)
        placement = RowPlacement(design, row_width_nm=40_000.0)
        simulator = ChipMonteCarlo(
            placement,
            pitch=ExponentialPitch(20.0),
            type_model=CNTTypeModel(
                g["metallic_fraction"],
                g["removal_prob_metallic"],
                g["removal_prob_semiconducting"],
            ),
        )
        result = simulator.run(
            g["n_trials"], np.random.default_rng(g["seed"])
        )
        assert result.device_count == g["device_count"]
        assert result.small_device_count == g["small_device_count"]
        assert result.mean_failing_devices == g["mean_failing_devices"]
        assert result.mean_failing_rows == g["mean_failing_rows"]
        assert result.chip_yield == g["chip_yield"]
        assert result.std_failing_devices == pytest.approx(
            g["std_failing_devices"], rel=REL
        )
        assert result.device_failure_rate == pytest.approx(
            g["device_failure_rate"], rel=REL
        )


class TestGoldenChipTilted:
    def test_tilted_tail_estimate(self, golden, simulator):
        g = golden["chip_tilted"]
        result = simulator.run(
            g["n_trials"], np.random.default_rng(g["seed"]), sampler="tilted"
        )
        assert result.tilt_factor == pytest.approx(g["tilt_factor"], rel=REL)
        assert result.chip_yield == pytest.approx(g["chip_yield"], rel=REL)
        assert result.yield_standard_error == pytest.approx(
            g["yield_standard_error"], rel=REL
        )
        assert result.expected_failing_devices == pytest.approx(
            g["expected_failing_devices"], rel=REL
        )
        assert result.expected_failing_devices_se == pytest.approx(
            g["expected_failing_devices_se"], rel=REL
        )
        assert result.effective_sample_size == pytest.approx(
            g["effective_sample_size"], rel=REL
        )


class TestGoldenDeviceTilted:
    def test_tilted_device_estimate(self, golden):
        g = golden["device_tilted"]
        spec = g["pitch"]
        assert spec["family"] == "gamma"
        estimate = estimate_device_failure_tilted(
            GammaPitch(spec["mean_nm"], spec["cv"]),
            g["per_cnt_failure"],
            g["width_nm"],
            g["n_samples"],
            np.random.default_rng(g["seed"]),
        )
        assert estimate.estimate == pytest.approx(g["estimate"], rel=REL)
        assert estimate.standard_error == pytest.approx(
            g["standard_error"], rel=REL
        )
        assert estimate.effective_sample_size == pytest.approx(
            g["effective_sample_size"], rel=REL
        )
        assert math.isfinite(estimate.relative_error)
