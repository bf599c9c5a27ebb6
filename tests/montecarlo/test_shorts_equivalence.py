"""Oracle-and-engine equivalence for the metallic-short failure mode.

The joint opens+shorts regime (surviving metallic tubes, ``q = p_m ·
(1 - eta) > 0``) decides both channels from one tube population: the
scalar oracles give every tube one uniform, and the batched chip kernel
draws the working and shorting tubes together from the thinned pitch and
marks the shorts among them.  A shorts-active run must therefore agree
statistically with the retained scalar oracles at every level (device,
row, chip), match the thinned closed form of :mod:`repro.device.shorts`
within Monte Carlo error, stay *bitwise* invariant to worker count and
chunking, and — when ``q`` collapses to zero, however the (p_m, eta)
pair achieves it — reduce bitwise to the opens-only code path.
"""

import math

import numpy as np
import pytest

import repro.montecarlo.engine as engine
from repro.cells.nangate45 import build_nangate45_library
from repro.core.correlation import LayoutScenario
from repro.core.count_model import PoissonCountModel
from repro.core.failure import CNFETFailureModel
from repro.growth.pitch import ExponentialPitch, GammaPitch
from repro.growth.types import CNTTypeModel
from repro.montecarlo.chip_sim import ChipMonteCarlo
from repro.montecarlo.device_sim import DeviceMonteCarlo
from repro.montecarlo.experiments import compare_chip_engines
from repro.montecarlo.row_sim import RowMonteCarlo, RowScenarioConfig
from repro.growth.wafer import WaferGrowthModel
from repro.montecarlo.wafer_sim import simulate_wafer
from repro.netlist.design import Design
from repro.netlist.placement import RowPlacement
from repro.resilience import Execution

N_SIGMA = 6.0


@pytest.fixture(scope="module")
def shorts_type_model():
    """Imperfect removal (eta = 0.9): q = p_m/10, frequent enough to measure."""
    return CNTTypeModel(1.0 / 3.0, 0.9, 0.3)


@pytest.fixture(scope="module")
def block_placement():
    library = build_nangate45_library()
    design = Design("shorts_block", library)
    for i in range(90):
        design.add(f"u{i}", "INV_X1" if i % 2 == 0 else "NAND2_X1")
    return RowPlacement(design, row_width_nm=20_000.0)


def _assert_within_sigma(a, b, se, n_sigma=N_SIGMA):
    assert abs(a - b) <= n_sigma * se, (
        f"|{a} - {b}| = {abs(a - b)} exceeds {n_sigma} sigma = {n_sigma * se}"
    )


class TestDeviceLevelShorts:
    def test_naive_matches_joint_closed_form(self, shorts_type_model, rng):
        # Exponential gaps make the engine count exactly Poisson, so the
        # two-stage naive estimator must agree with the thinned closed
        # form at the paper's operating pitch.
        pitch = ExponentialPitch(8.0)
        model = CNFETFailureModel.from_type_model(
            PoissonCountModel(mean_pitch_nm=8.0), shorts_type_model
        )
        analytic = model.failure_probability(40.0)

        mc = DeviceMonteCarlo(pitch=pitch, type_model=shorts_type_model)
        result = mc.estimate_naive(40.0, 20_000, rng)
        assert result.standard_error > 0.0
        _assert_within_sigma(
            result.failure_probability, analytic, result.standard_error
        )

    def test_conditional_matches_naive(self, shorts_type_model, rng):
        # The Rao-Blackwellised joint value must agree with the plain
        # 0/1 estimator — same law, lower variance.
        mc = DeviceMonteCarlo(
            pitch=ExponentialPitch(12.0), type_model=shorts_type_model
        )
        naive = mc.estimate_naive(36.0, 15_000, rng)
        conditional = mc.estimate_conditional(36.0, 15_000, rng)
        se = math.hypot(naive.standard_error, conditional.standard_error)
        _assert_within_sigma(
            naive.failure_probability, conditional.failure_probability, se
        )

    def test_tilted_rejects_shorts(self, shorts_type_model, rng):
        mc = DeviceMonteCarlo(
            pitch=ExponentialPitch(8.0), type_model=shorts_type_model
        )
        with pytest.raises(ValueError, match="opens-only"):
            mc.estimate_tilted(40.0, 100, rng)


class TestRowLevelShorts:
    @pytest.mark.parametrize("scenario", list(LayoutScenario))
    def test_vectorized_matches_scalar(self, scenario, shorts_type_model):
        simulator = RowMonteCarlo(
            pitch=ExponentialPitch(4.0), type_model=shorts_type_model
        )
        config = RowScenarioConfig(device_width_nm=24.0, devices_per_segment=15)
        scalar = simulator.estimate(
            scenario, config, 3_000, np.random.default_rng(401), vectorized=False
        )
        vectorized = simulator.estimate(
            scenario, config, 3_000, np.random.default_rng(402), vectorized=True
        )
        se = math.hypot(scalar.standard_error, vectorized.standard_error)
        _assert_within_sigma(
            scalar.row_failure_probability,
            vectorized.row_failure_probability,
            se,
        )

    def test_gamma_pitch_non_aligned(self, shorts_type_model):
        simulator = RowMonteCarlo(
            pitch=GammaPitch(4.0, 0.5), type_model=shorts_type_model
        )
        config = RowScenarioConfig(device_width_nm=20.0, devices_per_segment=10)
        scalar = simulator.estimate(
            LayoutScenario.DIRECTIONAL_NON_ALIGNED,
            config, 2_000, np.random.default_rng(41), vectorized=False,
        )
        vectorized = simulator.estimate(
            LayoutScenario.DIRECTIONAL_NON_ALIGNED,
            config, 2_000, np.random.default_rng(42), vectorized=True,
        )
        se = math.hypot(scalar.standard_error, vectorized.standard_error)
        _assert_within_sigma(
            scalar.row_failure_probability,
            vectorized.row_failure_probability,
            se,
        )

    @pytest.mark.parametrize("sampler", ["tilted", "splitting"])
    def test_rare_event_samplers_reject_shorts(
        self, sampler, shorts_type_model
    ):
        simulator = RowMonteCarlo(
            pitch=ExponentialPitch(4.0), type_model=shorts_type_model
        )
        config = RowScenarioConfig(device_width_nm=24.0, devices_per_segment=5)
        with pytest.raises(ValueError, match="opens-only"):
            simulator.estimate(
                LayoutScenario.DIRECTIONAL_NON_ALIGNED,
                config, 100, np.random.default_rng(1), sampler=sampler,
            )


class TestChipLevelShorts:
    def test_vectorized_matches_scalar_oracle(
        self, block_placement, shorts_type_model
    ):
        record = compare_chip_engines(
            block_placement,
            pitch=ExponentialPitch(20.0),
            type_model=shorts_type_model,
            n_trials=40,
            seed=2026,
        )
        assert record.standard_error > 0.0
        assert record.agrees(n_sigma=N_SIGMA, rtol=0.1)

    @pytest.mark.parametrize("n_workers,batch_elements", [
        (2, None), (3, None), (2, 1), (3, 1),
    ])
    def test_multi_worker_bitwise_identical(
        self, block_placement, shorts_type_model, n_workers, batch_elements,
        monkeypatch,
    ):
        # Acceptance criterion: joint chip yield from the batched engine
        # is bitwise equal at equal seed across the worker/chunking grid
        # (the default grain's 12 chunks of 2, or 24 chunks of 1).
        if batch_elements is not None:
            monkeypatch.setattr(engine, "DEFAULT_BATCH_ELEMENTS", batch_elements)
        simulator = ChipMonteCarlo(
            block_placement,
            pitch=ExponentialPitch(20.0),
            type_model=shorts_type_model,
        )
        serial = simulator.run(24, np.random.default_rng(9))
        parallel = simulator.run(
            24, np.random.default_rng(9),
            execution=Execution(n_workers=n_workers),
        )
        assert serial == parallel

    def test_engine_matches_thinned_closed_form(
        self, block_placement, shorts_type_model
    ):
        # The mean failing-device count equals the sum of the per-class
        # joint pF (linear expectation), so the engine must agree with
        # the thinned closed form within Monte Carlo error (z < 6).
        simulator = ChipMonteCarlo(
            block_placement,
            pitch=ExponentialPitch(20.0),
            type_model=shorts_type_model,
        )
        n_trials = 400
        result = simulator.run(n_trials, np.random.default_rng(77))
        widths, counts = simulator.width_class_histogram()
        model = CNFETFailureModel.from_type_model(
            PoissonCountModel(mean_pitch_nm=20.0), shorts_type_model
        )
        predicted = float(np.sum(
            np.asarray(counts)
            * model.failure_probabilities(np.asarray(widths))
        ))
        se = result.std_failing_devices / math.sqrt(n_trials)
        assert se > 0.0
        z = (result.mean_failing_devices - predicted) / se
        assert abs(z) < N_SIGMA, f"z = {z}"

    def test_tilted_sampler_rejects_shorts(
        self, block_placement, shorts_type_model
    ):
        simulator = ChipMonteCarlo(
            block_placement,
            pitch=ExponentialPitch(20.0),
            type_model=shorts_type_model,
        )
        with pytest.raises(ValueError, match="opens-only"):
            simulator.run(8, np.random.default_rng(1), sampler="tilted")

    def test_zero_metallic_fraction_reduces_bitwise(self, block_placement):
        # q = p_m·(1 - eta) = 0 via p_m = 0 must replay the opens-only
        # stream exactly: with no shorts the kernel takes the opens-only
        # path and draws no marks, so eta cannot matter when p_m is zero.
        opens = ChipMonteCarlo(
            block_placement,
            pitch=ExponentialPitch(20.0),
            type_model=CNTTypeModel(0.0, 1.0, 0.4),
        )
        gated = ChipMonteCarlo(
            block_placement,
            pitch=ExponentialPitch(20.0),
            type_model=CNTTypeModel(0.0, 0.5, 0.4),
        )
        a = opens.run(16, np.random.default_rng(3))
        b = gated.run(16, np.random.default_rng(3))
        assert a == b


class TestWaferLevelShorts:
    @pytest.fixture(scope="class")
    def wafer(self):
        return WaferGrowthModel(
            center_pitch_nm=4.0, die_size_mm=20.0
        ).generate(np.random.default_rng(5))

    def test_worker_invariance_with_shorts(self, wafer, shorts_type_model):
        kwargs = dict(
            widths_nm=[60.0, 120.0], device_counts=[30.0, 10.0],
            n_trials=64, seed_key=(5,),
        )
        serial = simulate_wafer(
            wafer, ExponentialPitch(4.0), shorts_type_model, **kwargs,
        )
        parallel = simulate_wafer(
            wafer, ExponentialPitch(4.0), shorts_type_model,
            execution=Execution(n_workers=3), **kwargs,
        )
        assert serial.dice == parallel.dice

    def test_shorts_lower_wafer_yield(self, wafer):
        kwargs = dict(
            widths_nm=[120.0], device_counts=[40.0],
            n_trials=64, seed_key=(5,),
        )
        clean = simulate_wafer(
            wafer, ExponentialPitch(4.0), CNTTypeModel(1.0 / 3.0, 1.0, 0.3),
            **kwargs,
        )
        shorted = simulate_wafer(
            wafer, ExponentialPitch(4.0), CNTTypeModel(1.0 / 3.0, 0.9, 0.3),
            **kwargs,
        )
        assert shorted.mean_chip_yield < clean.mean_chip_yield
