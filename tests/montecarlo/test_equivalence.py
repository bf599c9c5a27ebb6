"""Statistical equivalence of the vectorized engine and the scalar oracles.

The batched engine consumes the RNG stream differently from the per-trial
scalar simulators, so results are not bitwise identical — but both draw
from the same distribution.  These tests pin that down quantitatively at
every level (device, row, chip) with fixed seeds and n-sigma tolerances,
and verify that multi-worker execution is *bitwise* identical to serial
execution (the chunk streams do not depend on the worker count).
"""

import math

import numpy as np
import pytest

from repro.cells.nangate45 import build_nangate45_library
from repro.core.correlation import LayoutScenario
from repro.core.count_model import PoissonCountModel
from repro.core.failure import CNFETFailureModel
from repro.growth.pitch import ExponentialPitch, GammaPitch
import repro.montecarlo.engine as engine
from repro.growth.types import CNTTypeModel
from repro.montecarlo.chip_sim import ChipMonteCarlo
from repro.montecarlo.device_sim import DeviceMonteCarlo
from repro.montecarlo.experiments import compare_chip_engines
from repro.montecarlo.row_sim import RowMonteCarlo, RowScenarioConfig
from repro.netlist.design import Design
from repro.netlist.placement import RowPlacement
from repro.resilience import Execution

N_SIGMA = 5.0


@pytest.fixture(scope="module")
def measurable_type_model():
    """Sparse-growth corner where failures are frequent enough to measure."""
    return CNTTypeModel(1.0 / 3.0, 1.0, 0.3)


def _assert_within_sigma(a, b, se, n_sigma=N_SIGMA):
    assert abs(a - b) <= n_sigma * se, (
        f"|{a} - {b}| = {abs(a - b)} exceeds {n_sigma} sigma = {n_sigma * se}"
    )


class TestDeviceLevelEquivalence:
    def test_engine_counts_match_analytic_failure_probability(
        self, measurable_type_model, rng
    ):
        # Exponential gaps make the renewal count exactly Poisson, so the
        # engine-sampled estimate must agree with the analytical Eq. 2.2
        # value computed from the Poisson count model.
        pitch = ExponentialPitch(8.0)
        count_model = PoissonCountModel(mean_pitch_nm=8.0)
        failure_model = CNFETFailureModel.from_type_model(
            count_model, measurable_type_model
        )
        analytic = failure_model.failure_probability(40.0)

        mc = DeviceMonteCarlo(pitch=pitch, type_model=measurable_type_model)
        result = mc.estimate(40.0, 20_000, rng)
        assert result.standard_error > 0.0
        _assert_within_sigma(
            result.failure_probability, analytic, result.standard_error
        )

    def test_engine_counts_match_count_model_sampling(
        self, measurable_type_model, rng
    ):
        # The naive 0/1 estimator must agree between engine-sampled counts
        # and analytically sampled Poisson counts.
        engine_mc = DeviceMonteCarlo(
            pitch=ExponentialPitch(12.0), type_model=measurable_type_model
        )
        model_mc = DeviceMonteCarlo(
            count_model=PoissonCountModel(mean_pitch_nm=12.0),
            type_model=measurable_type_model,
        )
        a = engine_mc.estimate_naive(36.0, 15_000, rng)
        b = model_mc.estimate_naive(36.0, 15_000, rng)
        se = math.hypot(a.standard_error, b.standard_error)
        _assert_within_sigma(a.failure_probability, b.failure_probability, se)


class TestRowLevelEquivalence:
    @pytest.mark.parametrize("scenario", list(LayoutScenario))
    def test_vectorized_matches_scalar(self, scenario, measurable_type_model):
        simulator = RowMonteCarlo(
            pitch=ExponentialPitch(4.0), type_model=measurable_type_model
        )
        config = RowScenarioConfig(device_width_nm=24.0, devices_per_segment=15)
        scalar = simulator.estimate(
            scenario, config, 3_000, np.random.default_rng(101), vectorized=False
        )
        vectorized = simulator.estimate(
            scenario, config, 3_000, np.random.default_rng(202), vectorized=True
        )
        se = math.hypot(scalar.standard_error, vectorized.standard_error)
        _assert_within_sigma(
            scalar.row_failure_probability,
            vectorized.row_failure_probability,
            se,
        )

    def test_vectorized_matches_scalar_gamma_pitch(self, measurable_type_model):
        # A non-exponential family exercises the generic renewal path.
        simulator = RowMonteCarlo(
            pitch=GammaPitch(4.0, 0.5), type_model=measurable_type_model
        )
        config = RowScenarioConfig(device_width_nm=20.0, devices_per_segment=10)
        scalar = simulator.estimate(
            LayoutScenario.DIRECTIONAL_NON_ALIGNED,
            config, 2_000, np.random.default_rng(31), vectorized=False,
        )
        vectorized = simulator.estimate(
            LayoutScenario.DIRECTIONAL_NON_ALIGNED,
            config, 2_000, np.random.default_rng(32), vectorized=True,
        )
        se = math.hypot(scalar.standard_error, vectorized.standard_error)
        _assert_within_sigma(
            scalar.row_failure_probability,
            vectorized.row_failure_probability,
            se,
        )


@pytest.fixture(scope="module")
def block_placement():
    library = build_nangate45_library()
    design = Design("equiv_block", library)
    for i in range(90):
        design.add(f"u{i}", "INV_X1" if i % 2 == 0 else "NAND2_X1")
    return RowPlacement(design, row_width_nm=20_000.0)


class TestChipLevelEquivalence:
    def test_vectorized_matches_scalar(self, block_placement, measurable_type_model):
        record = compare_chip_engines(
            block_placement,
            pitch=ExponentialPitch(20.0),
            type_model=measurable_type_model,
            n_trials=40,
            seed=2010,
        )
        assert record.standard_error > 0.0
        assert record.agrees(n_sigma=N_SIGMA, rtol=0.1)

    def test_multi_worker_bitwise_identical(
        self, block_placement, measurable_type_model
    ):
        simulator = ChipMonteCarlo(
            block_placement,
            pitch=ExponentialPitch(20.0),
            type_model=measurable_type_model,
        )
        # The default grain splits 24 trials into 12 chunks.
        serial = simulator.run(24, np.random.default_rng(9))
        parallel = simulator.run(
            24, np.random.default_rng(9), execution=Execution(n_workers=2)
        )
        assert serial == parallel

    def test_chunking_invariant(
        self, block_placement, measurable_type_model, monkeypatch
    ):
        # The same seed with different chunk sizes must stay within the
        # Monte Carlo error (chunking changes stream layout, not the law).
        simulator = ChipMonteCarlo(
            block_placement,
            pitch=ExponentialPitch(20.0),
            type_model=measurable_type_model,
        )
        a = simulator.run(40, np.random.default_rng(5))  # 14 chunks of <= 3
        monkeypatch.setattr(engine, "DEFAULT_BATCH_ELEMENTS", 1)
        b = simulator.run(40, np.random.default_rng(5))  # 40 chunks of 1
        se = math.hypot(a.std_failing_devices, b.std_failing_devices) / math.sqrt(40)
        _assert_within_sigma(a.mean_failing_devices, b.mean_failing_devices, se)

    def test_seed_reproducibility(self, block_placement, measurable_type_model):
        simulator = ChipMonteCarlo(
            block_placement,
            pitch=ExponentialPitch(20.0),
            type_model=measurable_type_model,
        )
        a = simulator.run(12, np.random.default_rng(77))
        b = simulator.run(12, np.random.default_rng(77))
        assert a == b
