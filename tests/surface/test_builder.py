"""Tests for the sweep builder: exactness, refinement, MC path, hooks."""

import math

import numpy as np
import pytest

from repro.core.correlation import (
    CorrelationParameters,
    LayoutScenario,
    RowYieldModel,
    propagate_row_failure_se,
    scenario_row_failure_probabilities,
)
from repro.core.count_model import count_model_from_pitch
from repro.core.failure import CNFETFailureModel
from repro.growth.pitch import (
    DeterministicPitch,
    ExponentialPitch,
    GammaPitch,
    TruncatedNormalPitch,
)
from repro.resilience import Execution, FaultPlan, RetryPolicy, SupervisorError
from repro.surface import (
    ExactEvaluator,
    GridAxis,
    SurfaceBuilder,
    SweepSpec,
    density_to_mean_pitch_nm,
    pitch_descriptor,
    pitch_from_descriptor,
)

W_AXIS = GridAxis.from_range("width_nm", 40.0, 300.0, 9)
D_AXIS = GridAxis.from_range("cnt_density_per_um", 150.0, 400.0, 5)


def small_spec(**overrides):
    defaults = dict(width_axis=W_AXIS, density_axis=D_AXIS)
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestSweepSpec:
    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            small_spec(scenario="bogus")

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            small_spec(method="oracle")

    def test_rejects_bad_numbers(self):
        with pytest.raises(ValueError):
            small_spec(tolerance_log=0.0)
        with pytest.raises(ValueError):
            small_spec(max_refinement_rounds=-1)
        with pytest.raises(ValueError):
            small_spec(safety_factor=0.5)
        with pytest.raises(ValueError):
            small_spec(mc_samples=0)

    def test_auto_method_resolution(self):
        assert small_spec().resolved_method == "closed_form"
        assert (
            small_spec(pitch=GammaPitch(4.0, 0.5)).resolved_method == "closed_form"
        )
        trunc = TruncatedNormalPitch(nominal_mean_nm=4.0, nominal_std_nm=2.0)
        assert small_spec(pitch=trunc).resolved_method == "tilted"
        assert small_spec(pitch=trunc, method="closed_form").resolved_method == (
            "closed_form"
        )


class TestPitchDescriptor:
    @pytest.mark.parametrize("pitch", [
        ExponentialPitch(4.0),
        GammaPitch(4.0, 0.5),
        DeterministicPitch(3.0),
        TruncatedNormalPitch(nominal_mean_nm=4.0, nominal_std_nm=2.0),
    ])
    def test_round_trip(self, pitch):
        rebuilt = pitch_from_descriptor(pitch_descriptor(pitch))
        assert type(rebuilt) is type(pitch)
        assert rebuilt.mean_nm == pytest.approx(pitch.mean_nm)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown pitch family"):
            pitch_from_descriptor({"family": "CauchyPitch", "params": {}})


class TestDensityConversion:
    def test_density_to_mean_pitch(self):
        assert density_to_mean_pitch_nm(250.0) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            density_to_mean_pitch_nm(0.0)


class TestClosedFormBuild:
    def test_device_nodes_match_failure_model(self):
        spec = small_spec()
        surface = SurfaceBuilder(spec).build()
        for j, density in enumerate(surface.cnt_density_per_um[::2]):
            pitch = spec.pitch.with_mean(density_to_mean_pitch_nm(density))
            model = CNFETFailureModel(
                count_model_from_pitch(pitch), spec.per_cnt_failure
            )
            expected = model.log_failure_probabilities(surface.width_nm)
            np.testing.assert_allclose(
                surface.log_failure[:, 2 * j], expected, rtol=1e-12
            )
        assert surface.max_stat_se_log == 0.0

    def test_poisson_device_surface_interpolates_exactly(self):
        report = SurfaceBuilder(small_spec()).build_report()
        # log pF is bilinear in (W, density) for the Poisson family, so no
        # refinement is needed and the bound collapses to the floor.
        assert report.refinement_rounds == 0
        assert report.converged
        assert report.max_interp_error_log <= 1e-8

    def test_scenario_nodes_match_row_yield_model(self):
        params = CorrelationParameters()
        spec = small_spec(scenario="uncorrelated", correlation=params,
                          max_refinement_rounds=0)
        surface = SurfaceBuilder(spec).build()
        model = RowYieldModel(parameters=params)
        pitch = spec.pitch.with_mean(
            density_to_mean_pitch_nm(surface.cnt_density_per_um[0])
        )
        failure = CNFETFailureModel(
            count_model_from_pitch(pitch), spec.per_cnt_failure
        )
        for i in (0, 4, 8):
            p_f = failure.failure_probability(float(surface.width_nm[i]))
            expected = model.row_failure_probability(
                LayoutScenario.UNCORRELATED_GROWTH, p_f
            )
            assert surface.log_failure[i, 0] == pytest.approx(
                math.log(expected), rel=1e-9
            )

    def test_refinement_tightens_nonlinear_scenarios(self):
        loose = SurfaceBuilder(
            small_spec(scenario="uncorrelated", max_refinement_rounds=0)
        ).build_report()
        refined = SurfaceBuilder(
            small_spec(scenario="uncorrelated", max_refinement_rounds=2)
        ).build_report()
        assert refined.max_interp_error_log < loose.max_interp_error_log
        assert refined.surface.width_nm.size > loose.surface.width_nm.size
        assert refined.refinement_rounds == 2

    def test_gamma_family_builds(self):
        spec = small_spec(pitch=GammaPitch(4.0, 0.5), tolerance_log=0.05)
        report = SurfaceBuilder(spec).build_report()
        assert report.converged
        assert report.surface.metadata["pitch"]["family"] == "GammaPitch"

    def test_metadata_records_build_parameters(self):
        spec = small_spec(seed=7, tolerance_log=0.01)
        surface = SurfaceBuilder(spec).build()
        meta = surface.metadata
        assert meta["seed"] == 7
        assert meta["tolerance_log"] == 0.01
        assert meta["method"] == "closed_form"
        assert meta["correlation"]["cnt_length_um"] == pytest.approx(200.0)
        assert meta["pitch_cv"] == pytest.approx(1.0)


class TestMonteCarloBuild:
    def test_tilted_sweep_carries_standard_errors(self):
        spec = small_spec(
            width_axis=GridAxis.from_range("width_nm", 60.0, 120.0, 3),
            density_axis=GridAxis.from_range("cnt_density_per_um", 200.0, 300.0, 2),
            method="tilted",
            mc_samples=4_000,
            tolerance_log=0.5,
            max_refinement_rounds=0,
        )
        surface = SurfaceBuilder(spec).build()
        assert np.all(surface.stat_se_log > 0.0)
        # The sampled nodes must agree with the closed form within a few
        # sigma (log-space SE ≈ relative error of the estimate).
        pitch = spec.pitch.with_mean(
            density_to_mean_pitch_nm(surface.cnt_density_per_um[0])
        )
        model = CNFETFailureModel(
            count_model_from_pitch(pitch), spec.per_cnt_failure
        )
        exact = model.log_failure_probabilities(surface.width_nm)
        deviation = np.abs(surface.log_failure[:, 0] - exact)
        assert np.all(deviation <= 5.0 * np.maximum(surface.stat_se_log[:, 0], 1e-3))

    def test_grid_hook_is_batch_independent(self):
        from repro.montecarlo.rare_event import estimate_device_failure_grid

        pitch = ExponentialPitch(4.0)
        together = estimate_device_failure_grid(
            pitch, 0.5333333333333333, np.array([80.0, 100.0]), 2_000,
            seed_key=(7, 123),
        )
        alone = estimate_device_failure_grid(
            pitch, 0.5333333333333333, np.array([100.0]), 2_000,
            seed_key=(7, 123),
        )
        # Streams are keyed by the width coordinate, not the grid index:
        # the same point estimated in any batch gives bitwise-equal results.
        assert together[1].estimate == alone[0].estimate
        assert together[1].standard_error == alone[0].standard_error
        # ... and distinct widths do not share a stream.
        assert together[0].estimate != together[1].estimate

    def test_mc_refinement_does_not_chase_noise(self):
        # With a tolerance far below the Monte Carlo noise floor the probed
        # residual is pure noise; refinement must recognise that and stop
        # instead of splitting every cell each round.
        spec = small_spec(
            width_axis=GridAxis.from_range("width_nm", 60.0, 120.0, 3),
            density_axis=GridAxis.from_range("cnt_density_per_um", 200.0, 300.0, 2),
            method="tilted",
            mc_samples=2_000,
            tolerance_log=1e-4,
            max_refinement_rounds=2,
        )
        report = SurfaceBuilder(spec).build_report()
        assert report.refinement_rounds == 0
        assert report.converged

    def test_mc_build_is_deterministic(self):
        spec = small_spec(
            width_axis=GridAxis.from_range("width_nm", 60.0, 120.0, 2),
            density_axis=GridAxis.from_range("cnt_density_per_um", 200.0, 300.0, 2),
            method="tilted",
            mc_samples=2_000,
            max_refinement_rounds=0,
        )
        first = SurfaceBuilder(spec).build()
        second = SurfaceBuilder(spec).build()
        assert first.content_hash == second.content_hash


def tilted_spec():
    """A 2 x 2 tilted sweep without refinement: four grid campaigns' worth."""
    return small_spec(
        width_axis=GridAxis.from_range("width_nm", 60.0, 120.0, 2),
        density_axis=GridAxis.from_range("cnt_density_per_um", 200.0, 300.0, 2),
        method="tilted",
        mc_samples=2_000,
        max_refinement_rounds=0,
    )


class TestTiltedBuildExecution:
    """The builder's execution runs the tilted grid campaigns."""

    def test_fault_plan_reaches_the_grid_campaign(self):
        execution = Execution(
            policy=RetryPolicy(max_retries=0, backoff_s=0.0),
            faults=FaultPlan(kill_units=(0,)),
        )
        with pytest.raises(SupervisorError, match="unit 0"):
            SurfaceBuilder(tilted_spec(), execution).build()

    def test_retried_kill_gives_the_plain_surface(self):
        plain = SurfaceBuilder(tilted_spec()).build()
        execution = Execution(
            policy=RetryPolicy(max_retries=1, backoff_s=0.0),
            faults=FaultPlan(kill_units=(0, 3)),
        )
        retried = SurfaceBuilder(tilted_spec(), execution).build()
        assert retried.content_hash == plain.content_hash

    def test_two_workers_give_the_serial_surface(self):
        serial = SurfaceBuilder(tilted_spec()).build()
        pooled = SurfaceBuilder(tilted_spec(), Execution(n_workers=2)).build()
        assert pooled.content_hash == serial.content_hash
        np.testing.assert_array_equal(pooled.log_failure, serial.log_failure)
        np.testing.assert_array_equal(pooled.stat_se_log, serial.stat_se_log)

    def test_only_the_sweep_is_checkpointed(self, tmp_path):
        SurfaceBuilder(
            tilted_spec(), Execution(checkpoint_dir=tmp_path)
        ).build()
        assert [p.name for p in tmp_path.iterdir()] == ["sweep-device"]


class TestExactEvaluator:
    def test_cache_avoids_re_evaluation(self):
        spec = small_spec()
        evaluator = ExactEvaluator(
            scenario=spec.scenario,
            pitch=spec.pitch,
            per_cnt_failure=spec.per_cnt_failure,
            correlation=spec.correlation,
        )
        w_mesh, d_mesh = np.meshgrid(W_AXIS.values, D_AXIS.values, indexing="ij")
        evaluator.points(w_mesh, d_mesh)
        count = evaluator.evaluation_count
        evaluator.points(w_mesh, d_mesh)
        assert evaluator.evaluation_count == count

    def test_points_matches_mesh(self):
        spec = small_spec()
        evaluator = ExactEvaluator(
            scenario=spec.scenario,
            pitch=spec.pitch,
            per_cnt_failure=spec.per_cnt_failure,
            correlation=spec.correlation,
        )
        mesh_vals, _ = evaluator.points(
            *np.meshgrid(W_AXIS.values, D_AXIS.values, indexing="ij")
        )
        w = np.array([W_AXIS.values[2], W_AXIS.values[5]])
        d = np.array([D_AXIS.values[1], D_AXIS.values[3]])
        point_vals, point_errs = evaluator.points(w, d)
        assert point_vals[0] == pytest.approx(mesh_vals[2, 1])
        assert point_vals[1] == pytest.approx(mesh_vals[5, 3])
        assert np.all(point_errs == 0.0)

    def test_from_surface_round_trip(self):
        spec = small_spec(scenario="directional_aligned")
        surface = SurfaceBuilder(spec).build()
        evaluator = ExactEvaluator.from_surface(surface)
        w = np.array([100.0])
        d = np.array([250.0])
        vals, _ = evaluator.points(w, d)
        model = CNFETFailureModel(
            count_model_from_pitch(spec.pitch.with_mean(4.0)),
            spec.per_cnt_failure,
        )
        assert vals[0] == pytest.approx(
            model.log_failure_probabilities(w)[0], rel=1e-12
        )

    def test_points_shape_mismatch_raises(self):
        evaluator = ExactEvaluator(
            scenario="device",
            pitch=ExponentialPitch(4.0),
            per_cnt_failure=0.5,
            correlation=CorrelationParameters(),
        )
        with pytest.raises(ValueError):
            evaluator.points(np.array([1.0, 2.0]), np.array([1.0]))


class TestVectorisedCoreHooks:
    """The estimate-propagation hooks the builder rests on."""

    @pytest.mark.parametrize("scenario", list(LayoutScenario))
    def test_vectorised_matches_scalar_row_model(self, scenario):
        params = CorrelationParameters()
        model = RowYieldModel(parameters=params)
        p = np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.9])
        vectorised = scenario_row_failure_probabilities(scenario, p, params)
        scalar = np.array([
            model.row_failure_probability(scenario, float(x)) for x in p
        ])
        np.testing.assert_allclose(vectorised, scalar, rtol=1e-13)

    def test_shared_fraction_model_vectorised(self):
        params = CorrelationParameters(unaligned_offset_groups=None,
                                       alignment_fraction=0.5)
        model = RowYieldModel(parameters=params)
        p = np.array([1e-10, 1e-6, 1e-2])
        vectorised = scenario_row_failure_probabilities(
            LayoutScenario.DIRECTIONAL_NON_ALIGNED, p, params
        )
        scalar = np.array([
            model.row_failure_probability(
                LayoutScenario.DIRECTIONAL_NON_ALIGNED, float(x)
            )
            for x in p
        ])
        np.testing.assert_allclose(vectorised, scalar, rtol=1e-13)

    def test_propagated_se_matches_analytic_slope(self):
        params = CorrelationParameters()
        p = np.array([1e-9, 1e-6, 1e-3])
        se = np.full(3, 1e-10)
        # Uncorrelated: dpRF/dpF = m (1 - pF)^(m-1).
        m = params.devices_per_row
        slope = m * np.exp((m - 1.0) * np.log1p(-p))
        propagated = propagate_row_failure_se(
            LayoutScenario.UNCORRELATED_GROWTH, p, se, params
        )
        np.testing.assert_allclose(propagated, slope * se, rtol=1e-5)
        aligned = propagate_row_failure_se(
            LayoutScenario.DIRECTIONAL_ALIGNED, p, se, params
        )
        np.testing.assert_allclose(aligned, se, rtol=1e-5)

    def test_log_failure_probabilities_matches_scalar(self):
        from repro.core.count_model import RenewalCountModel

        widths = np.array([40.0, 80.0, 160.0])
        poisson_model = CNFETFailureModel(
            count_model_from_pitch(ExponentialPitch(4.0)), 0.5333333333333333
        )
        logs = poisson_model.log_failure_probabilities(widths)
        for w, value in zip(widths, logs):
            assert value == pytest.approx(
                math.log(poisson_model.failure_probability(w)), rel=1e-10
            )
        renewal_model = CNFETFailureModel(
            RenewalCountModel(GammaPitch(4.0, 0.5)), 0.5
        )
        logs = renewal_model.log_failure_probabilities(widths)
        for w, value in zip(widths, logs):
            assert value == pytest.approx(
                math.log(renewal_model.failure_probability(w)), rel=1e-10
            )

    def test_with_mean_preserves_cv(self):
        for pitch in (
            ExponentialPitch(4.0),
            GammaPitch(4.0, 0.5),
            DeterministicPitch(3.0),
            TruncatedNormalPitch(nominal_mean_nm=4.0, nominal_std_nm=2.0),
        ):
            rescaled = pitch.with_mean(7.0)
            assert rescaled.mean_nm == pytest.approx(7.0)
            assert rescaled.cv == pytest.approx(pitch.cv, rel=1e-9)


class TestShortsSweep:
    def test_short_probability_property(self):
        spec = small_spec(metallic_fraction=1.0 / 3.0, removal_eta=0.9)
        assert spec.short_probability == pytest.approx(
            (1.0 / 3.0) * 0.1, abs=1e-15
        )
        assert small_spec().short_probability == 0.0

    def test_tilted_method_rejects_shorts(self):
        with pytest.raises(ValueError, match="opens-only"):
            small_spec(
                method="tilted", metallic_fraction=1.0 / 3.0, removal_eta=0.9
            )

    def test_shorts_nodes_match_joint_failure_model(self):
        spec = small_spec(metallic_fraction=1.0 / 3.0, removal_eta=0.9)
        surface = SurfaceBuilder(spec).build()
        for j, density in enumerate(surface.cnt_density_per_um[::2]):
            pitch = spec.pitch.with_mean(density_to_mean_pitch_nm(density))
            model = CNFETFailureModel(
                count_model_from_pitch(pitch),
                spec.per_cnt_failure,
                short_probability=spec.short_probability,
            )
            expected = model.log_failure_probabilities(surface.width_nm)
            np.testing.assert_allclose(
                surface.log_failure[:, 2 * j], expected, rtol=1e-9
            )

    def test_metadata_records_shorts_knobs(self):
        spec = small_spec(metallic_fraction=1.0 / 3.0, removal_eta=0.9)
        meta = SurfaceBuilder(spec).build().metadata
        assert meta["metallic_fraction"] == pytest.approx(1.0 / 3.0)
        assert meta["removal_eta"] == pytest.approx(0.9)
        assert meta["short_probability"] == pytest.approx((1.0 / 3.0) * 0.1)
        default_meta = SurfaceBuilder(small_spec()).build().metadata
        assert default_meta["short_probability"] == 0.0

    def test_from_surface_restores_short_probability(self):
        spec = small_spec(metallic_fraction=1.0 / 3.0, removal_eta=0.9)
        surface = SurfaceBuilder(spec).build()
        evaluator = ExactEvaluator.from_surface(surface)
        assert evaluator.short_probability == pytest.approx(
            spec.short_probability, abs=1e-15
        )
        values, _ = evaluator.points(
            surface.width_nm[:3], np.full(3, surface.cnt_density_per_um[0])
        )
        np.testing.assert_allclose(values, surface.log_failure[:3, 0], rtol=1e-9)

    def test_eta_changes_surface_content(self):
        # Pin the base grid: the joint sweep would otherwise refine (log
        # pF is no longer bilinear once the short term bends it) and the
        # two surfaces could not be compared node for node.
        clean = SurfaceBuilder(small_spec(
            metallic_fraction=1.0 / 3.0, removal_eta=1.0,
            max_refinement_rounds=0,
        )).build()
        shorted = SurfaceBuilder(small_spec(
            metallic_fraction=1.0 / 3.0, removal_eta=0.9,
            max_refinement_rounds=0,
        )).build()
        assert clean.content_hash != shorted.content_hash
        assert np.all(shorted.log_failure >= clean.log_failure - 1e-12)
