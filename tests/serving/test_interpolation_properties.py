"""Property-based tests (hypothesis) for surface interpolation.

Three contracts the serving layer advertises:

* chip yield is monotone non-decreasing in the device width W (wider
  devices catch more tubes, on-grid and interpolated alike);
* yield is monotone in correlation strength — aligned-active can never
  serve a lower yield than non-aligned, which can never undercut
  uncorrelated growth, at matched query points;
* the reported error bounds never exclude the exact Eq. 2.2 / 3.1 value,
  nor, on a surface built at one removal efficiency eta (short
  probability q > 0), the exact joint opens+shorts value; off the grid
  that surface is answered by its exact evaluator with q restored.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.correlation import (
    CorrelationParameters,
    LayoutScenario,
    RowYieldModel,
)
from repro.core.count_model import count_model_from_pitch
from repro.core.failure import CNFETFailureModel, log_failure_probabilities
from repro.growth.pitch import GammaPitch
from repro.serving import YieldService
from repro.surface import (
    ExactEvaluator,
    GridAxis,
    SurfaceBuilder,
    SweepSpec,
    density_to_mean_pitch_nm,
)

W_LOW, W_HIGH = 60.0, 300.0
D_LOW, D_HIGH = 180.0, 350.0
CORRELATION = CorrelationParameters()

widths = st.floats(min_value=W_LOW, max_value=W_HIGH, allow_nan=False)
densities = st.floats(min_value=D_LOW, max_value=D_HIGH, allow_nan=False)

# One device surface at one removal efficiency: q = p_m (1 - eta) > 0.
JOINT_W_LOW, JOINT_W_HIGH = 60.0, 200.0
JOINT_D_LOW, JOINT_D_HIGH = 200.0, 320.0
JOINT_SPEC = SweepSpec(
    scenario="device",
    width_axis=GridAxis.from_range("width_nm", JOINT_W_LOW, JOINT_W_HIGH, 9),
    density_axis=GridAxis.from_range(
        "cnt_density_per_um", JOINT_D_LOW, JOINT_D_HIGH, 5
    ),
    metallic_fraction=1.0 / 3.0,
    removal_eta=0.92,
    tolerance_log=5e-3,
    max_refinement_rounds=3,
)
joint_widths = st.floats(
    min_value=JOINT_W_LOW, max_value=JOINT_W_HIGH, allow_nan=False
)
joint_densities = st.floats(
    min_value=JOINT_D_LOW, max_value=JOINT_D_HIGH, allow_nan=False
)


def build(scenario, pitch=None, tolerance=5e-3):
    return SurfaceBuilder(SweepSpec(
        scenario=scenario,
        width_axis=GridAxis.from_range("width_nm", W_LOW, W_HIGH, 17),
        density_axis=GridAxis.from_range("cnt_density_per_um", D_LOW, D_HIGH, 9),
        pitch=pitch if pitch is not None else SweepSpec().pitch,
        correlation=CORRELATION,
        tolerance_log=tolerance,
        max_refinement_rounds=4,
    )).build()


@pytest.fixture(scope="module")
def service():
    svc = YieldService()
    keys = {}
    keys["device"] = svc.register(build("device"))
    keys["device_gamma"] = svc.register(
        build("device", pitch=GammaPitch(4.0, 0.5))
    )
    for scenario in LayoutScenario:
        keys[scenario.value] = svc.register(build(scenario.value))
    return svc, keys


@pytest.fixture(scope="module")
def joint_service():
    svc = YieldService()
    return svc, svc.register(SurfaceBuilder(JOINT_SPEC).build())


def exact_joint_failure(w, d, short_probability):
    """Exact joint pF at one (W, ρ): the array evaluator with ``b = q``."""
    pitch = JOINT_SPEC.pitch.with_mean(density_to_mean_pitch_nm(d))
    log_pf = log_failure_probabilities(
        count_model_from_pitch(pitch),
        np.array([w]),
        JOINT_SPEC.per_cnt_failure,
        short_probability,
    )
    return float(np.exp(log_pf[0]))


class TestMonotonicity:
    @settings(max_examples=200, deadline=None)
    @given(w1=widths, w2=widths, d=densities)
    def test_yield_non_decreasing_in_width(self, service, w1, w2, d):
        svc, keys = service
        w_lo, w_hi = sorted((w1, w2))
        result = svc.query(
            keys["device"],
            np.array([w_lo, w_hi]),
            cnt_density_per_um=np.array([d, d]),
            device_count=3.3e7,
        )
        assert result.chip_yield[1] >= result.chip_yield[0] - 1e-12

    @settings(max_examples=200, deadline=None)
    @given(w=widths, d=densities)
    def test_yield_monotone_in_correlation_strength(self, service, w, d):
        svc, keys = service
        order = [
            LayoutScenario.UNCORRELATED_GROWTH,
            LayoutScenario.DIRECTIONAL_NON_ALIGNED,
            LayoutScenario.DIRECTIONAL_ALIGNED,
        ]
        yields = [
            svc.query(
                keys[scenario.value],
                np.array([w]),
                cnt_density_per_um=np.array([d]),
                device_count=3.3e7,
            ).chip_yield[0]
            for scenario in order
        ]
        # Stronger correlation can only help; allow the combined
        # interpolation bound as slack between neighbouring scenarios.
        assert yields[1] >= yields[0] - 1e-9
        assert yields[2] >= yields[1] - 1e-9


class TestErrorBounds:
    @settings(max_examples=200, deadline=None)
    @given(w=widths, d=densities)
    def test_bounds_never_exclude_exact_device_value(self, service, w, d):
        svc, keys = service
        result = svc.query(
            keys["device"], np.array([w]), cnt_density_per_um=np.array([d])
        )
        pitch = SweepSpec().pitch.with_mean(density_to_mean_pitch_nm(d))
        model = CNFETFailureModel(
            count_model_from_pitch(pitch), SweepSpec().per_cnt_failure
        )
        exact = model.failure_probability(w)
        assert result.failure_lower[0] <= exact <= result.failure_upper[0]

    @settings(max_examples=50, deadline=None)
    @given(w=widths, d=densities)
    def test_bounds_never_exclude_exact_gamma_value(self, service, w, d):
        svc, keys = service
        result = svc.query(
            keys["device_gamma"], np.array([w]), cnt_density_per_um=np.array([d])
        )
        pitch = GammaPitch(4.0, 0.5).with_mean(density_to_mean_pitch_nm(d))
        model = CNFETFailureModel(
            count_model_from_pitch(pitch), SweepSpec().per_cnt_failure
        )
        exact = model.failure_probability(w)
        assert result.failure_lower[0] <= exact <= result.failure_upper[0]

    @settings(max_examples=100, deadline=None)
    @given(w=widths, d=densities)
    def test_bounds_never_exclude_exact_row_value(self, service, w, d):
        svc, keys = service
        scenario = LayoutScenario.UNCORRELATED_GROWTH
        result = svc.query(
            keys[scenario.value], np.array([w]), cnt_density_per_um=np.array([d])
        )
        pitch = SweepSpec().pitch.with_mean(density_to_mean_pitch_nm(d))
        model = CNFETFailureModel(
            count_model_from_pitch(pitch), SweepSpec().per_cnt_failure
        )
        exact = RowYieldModel(parameters=CORRELATION).row_failure_probability(
            scenario, model.failure_probability(w)
        )
        assert result.failure_lower[0] <= exact <= result.failure_upper[0]


class TestJointSurfaceBounds:
    """A q > 0 device surface served through the one serving path."""

    @settings(max_examples=150, deadline=None)
    @given(w=joint_widths, d=joint_densities)
    def test_bounds_never_exclude_exact_joint_value(self, joint_service, w, d):
        svc, key = joint_service
        result = svc.query(key, np.array([w]), cnt_density_per_um=np.array([d]))
        exact = exact_joint_failure(w, d, JOINT_SPEC.short_probability)
        assert result.failure_lower[0] <= exact <= result.failure_upper[0]

    @settings(max_examples=50, deadline=None)
    @given(d=joint_densities)
    def test_off_grid_point_served_exactly_with_q_restored(
        self, joint_service, d
    ):
        svc, key = joint_service
        w = 2.0 * JOINT_W_HIGH  # outside the swept width axis
        result = svc.query(key, np.array([w]), cnt_density_per_um=np.array([d]))
        assert not result.interpolated[0]
        evaluator = ExactEvaluator.from_surface(svc.surface(key))
        assert evaluator.short_probability == JOINT_SPEC.short_probability
        log_exact, _ = evaluator.points(np.array([w]), np.array([d]))
        assert result.failure_probability[0] == pytest.approx(
            float(np.exp(log_exact[0])), rel=1e-12
        )
        joint = exact_joint_failure(w, d, JOINT_SPEC.short_probability)
        assert result.failure_probability[0] == pytest.approx(joint, rel=1e-9)
        # At this width the short term dominates: an evaluator that had
        # dropped q would serve the far smaller opens-only value.
        assert exact_joint_failure(w, d, 0.0) < 1e-6 * joint

    def test_close_etas_are_served_by_distinct_surfaces(self):
        # eta = 1 - 1e-16 still has a (tiny) short term that dominates the
        # opens-only value off the grid; the eta = 1 surface must not
        # answer for it, so each eta is its own surface and key.
        svc = YieldService()
        w, d = 2.0 * JOINT_W_HIGH, JOINT_D_LOW
        served = {}
        for eta in (1.0, float(np.nextafter(1.0, 0.0))):
            spec = dataclasses.replace(
                JOINT_SPEC, removal_eta=eta, max_refinement_rounds=0
            )
            key = svc.register(SurfaceBuilder(spec).build())
            result = svc.query(key, np.array([w]), cnt_density_per_um=np.array([d]))
            exact = exact_joint_failure(w, d, spec.short_probability)
            assert result.failure_probability[0] == pytest.approx(exact, rel=1e-9)
            served[key] = float(result.failure_probability[0])
        assert len(served) == 2
        opens_only, joint = served.values()
        assert joint > 10.0 * opens_only

    def test_tilted_sweep_rejected_when_shorts_survive(self):
        with pytest.raises(ValueError, match="opens-only"):
            dataclasses.replace(JOINT_SPEC, method="tilted")
