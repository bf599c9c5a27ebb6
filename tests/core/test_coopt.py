"""Tests for the Pareto process/design co-optimization driver."""

import dataclasses
import inspect
import json

import numpy as np
import pytest

from repro.core.calibration import CalibratedSetup
from repro.core.coopt import (
    ParetoCoOptimizer,
    ProcessPoint,
    pareto_front,
    process_grid,
)
from repro.core.failure import FIG2_1_CORNERS
from repro.montecarlo.chip_sim import ChipMonteCarlo
from repro.netlist.openrisc import openrisc_width_histogram
from repro.resilience import Execution

DESIGN = openrisc_width_histogram(1.0e8)


def make_optimizer(**kwargs):
    defaults = dict(
        widths_nm=DESIGN.widths_nm,
        counts=DESIGN.counts,
        yield_target=0.99,
    )
    defaults.update(kwargs)
    return ParetoCoOptimizer(**defaults)


def front_fingerprint(result):
    return [
        (
            c.process.describe(),
            c.thresholds_nm,
            c.capacitance_penalty,
            c.chip_yield,
            c.yield_lower,
            c.yield_upper,
            c.escalated,
        )
        for c in result.front
    ]


class TestProcessPoint:
    def test_mean_pitch(self):
        assert ProcessPoint(cnt_density_per_um=250.0).mean_pitch_nm == 4.0

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            ProcessPoint(cnt_density_per_um=0.0)

    def test_invalid_misalignment(self):
        with pytest.raises(ValueError):
            ProcessPoint(misalignment_sigma_deg=-1.0)

    def test_grid_order_is_deterministic(self):
        grid = process_grid(
            densities_per_um=(200.0, 250.0), pitch_cvs=(1.0, 0.5)
        )
        assert len(grid) == 2 * 2
        assert grid == process_grid(
            densities_per_um=(200.0, 250.0), pitch_cvs=(1.0, 0.5)
        )
        assert grid[0].cnt_density_per_um == 200.0
        assert grid[0].pitch_cv == 1.0
        assert grid[1].pitch_cv == 0.5

    def test_grid_axes_cover_every_process_knob(self):
        # Arity gate: every ProcessPoint field must be a process_grid
        # axis, so a new processing knob cannot land without joining the
        # grid enumeration (and hence the determinism tests below).
        point_fields = {f.name for f in dataclasses.fields(ProcessPoint)}
        grid_axes = set(inspect.signature(process_grid).parameters)
        assert len(grid_axes) == len(point_fields), (
            f"process_grid axes {sorted(grid_axes)} out of step with "
            f"ProcessPoint fields {sorted(point_fields)}"
        )
        # Full-arity grid: every axis given two values enumerates 2**k
        # points, so a knob missing from the product would show up here.
        grid = process_grid(
            densities_per_um=(200.0, 250.0),
            pitch_cvs=(1.0, 0.5),
            corners=FIG2_1_CORNERS[:2],
            cnt_lengths_um=(100.0, 200.0),
            misalignments_deg=(0.0, 5.0),
            removal_etas=(0.98, 1.0),
        )
        assert len(grid) == 2 ** len(point_fields)
        assert len(set(grid)) == len(grid)

    def test_removal_eta_varies_fastest(self):
        # The eta axis was appended last so existing grids keep their
        # enumeration order at the default (1.0,).
        grid = process_grid(
            densities_per_um=(200.0, 250.0), removal_etas=(0.95, 1.0)
        )
        assert [p.metallic_removal_eta for p in grid] == [0.95, 1.0, 0.95, 1.0]
        assert [p.cnt_density_per_um for p in grid] == [
            200.0, 200.0, 250.0, 250.0,
        ]
        opens_only = process_grid(densities_per_um=(200.0, 250.0))
        assert grid[1::2] == opens_only

    def test_short_probability_knob(self):
        point = ProcessPoint(metallic_removal_eta=0.97)
        expected = point.corner.metallic_fraction * (1.0 - 0.97)
        assert point.short_probability == pytest.approx(expected, abs=1e-15)
        assert ProcessPoint().short_probability == 0.0
        with pytest.raises(ValueError):
            ProcessPoint(metallic_removal_eta=1.5)


class TestParetoFrontHelper:
    def test_dominated_points_dropped(self):
        penalties = np.array([0.1, 0.2, 0.3])
        yields = np.array([0.95, 0.94, 0.99])
        keep = pareto_front(penalties, yields)
        assert keep.tolist() == [0, 2]

    def test_duplicates_resolve_to_first(self):
        keep = pareto_front(np.array([0.1, 0.1]), np.array([0.9, 0.9]))
        assert keep.tolist() == [0]

    def test_empty(self):
        assert pareto_front(np.array([]), np.array([])).size == 0


class TestConstructorValidation:
    def test_requires_widths(self):
        with pytest.raises(ValueError):
            ParetoCoOptimizer(widths_nm=None)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_optimizer(widths_nm=[80.0], counts=[-1.0])

    def test_unreachable_target_rejected(self):
        with pytest.raises(ValueError):
            make_optimizer(yield_target=1.0)

    def test_empty_process_points_rejected(self):
        with pytest.raises(ValueError):
            make_optimizer(process_points=[])

    def test_max_combos_guard(self):
        optimizer = make_optimizer(extra_levels=8, max_combos=2)
        with pytest.raises(ValueError, match="max_combos"):
            optimizer.run()


class TestInnerLoop:
    @pytest.fixture(scope="class")
    def result(self):
        return make_optimizer().run()

    def test_meets_target_cheaper_than_uniform(self, result):
        # Acceptance criterion: at least one configuration reaches the
        # 99 % chip-yield target at a penalty no worse than the uniform
        # upsizing baseline of CoOptimizationFlow.
        assert result.meets_target
        assert result.best.chip_yield >= result.yield_target
        assert result.best.capacitance_penalty <= result.uniform_penalty
        assert result.beats_uniform

    def test_front_is_pareto(self, result):
        penalties = [c.capacitance_penalty for c in result.front]
        yields = [c.chip_yield for c in result.front]
        assert penalties == sorted(penalties)
        assert yields == sorted(yields)
        assert all(c.chip_yield >= result.yield_target for c in result.front)

    def test_uniform_plan_is_representable(self, result):
        # The ladder always contains max(W_c, uniform Wt), so the search
        # space includes the uniform-upsizing plan — the structural
        # reason the front can never lose to it.
        optimizer = make_optimizer()
        uniform = optimizer._uniform_optimized.wmin_nm
        for width, levels in zip(DESIGN.widths_nm, optimizer.class_levels):
            assert np.round(max(width, uniform), 6) in levels

    def test_counters_consistent(self, result):
        assert result.candidates_evaluated == (
            result.process_point_count
            * make_optimizer().combos_per_process_point()
        )
        assert result.candidates_pruned > 0
        assert 0 < result.candidates_feasible <= (
            result.candidates_evaluated - result.candidates_pruned
        )

    def test_bounds_bracket_estimate(self, result):
        for c in result.front:
            assert c.yield_lower <= c.chip_yield <= c.yield_upper

    def test_bitwise_deterministic_across_reruns(self, result):
        again = make_optimizer().run()
        assert front_fingerprint(again) == front_fingerprint(result)

    def test_summary_lines(self, result):
        text = "\n".join(result.summary_lines())
        assert "Pareto front" in text
        assert "pruned" in text


class TestEscalation:
    def test_wide_bounds_escalate_to_exact_and_agree(self):
        # A service with an absurd n_sigma stretches every bound until
        # no candidate can be pruned or accepted outright: the whole
        # space must straddle, escalate to the exact closed form, and
        # reproduce the tight-bound front's decisions.  (1e4 sigma keeps
        # log_p + err below the exp overflow threshold.)
        from repro.serving import YieldService

        points = process_grid(densities_per_um=(250.0, 320.0))
        tight = make_optimizer(process_points=points).run()
        wide = make_optimizer(
            process_points=points,
            service=YieldService(n_sigma=1e4),
            surface_method="tilted",
            surface_mc_samples=2000,
            grid_points=(9, 5),
        ).run()
        assert wide.candidates_escalated == wide.candidates_evaluated
        assert wide.candidates_pruned == 0
        assert all(c.escalated for c in wide.front)
        assert [c.thresholds_nm for c in wide.front] == [
            c.thresholds_nm for c in tight.front
        ]
        assert [c.capacitance_penalty for c in wide.front] == [
            c.capacitance_penalty for c in tight.front
        ]


class TestShortsDeterminism:
    def test_shorts_active_front_is_bitwise_deterministic(self):
        # The determinism contract must survive the (p_m, eta) knob:
        # a shorts-active grid (distinct surface per eta) reruns to the
        # identical front fingerprint.
        points = process_grid(
            densities_per_um=(250.0,), removal_etas=(0.995, 1.0)
        )
        first = make_optimizer(process_points=points).run()
        again = make_optimizer(process_points=points).run()
        assert front_fingerprint(again) == front_fingerprint(first)
        etas = {
            c.process.metallic_removal_eta for c in first.front
        }
        assert etas <= {0.995, 1.0}

    def test_imperfect_removal_never_improves_yield(self):
        # At identical thresholds, eta < 1 adds a failure channel, so
        # the best feasible candidate cannot beat the opens-only one.
        # (1e8 devices leave room for only a whisker of short risk; a
        # larger eta deficit makes the 0.99 target unreachable outright.)
        clean = make_optimizer(
            process_points=process_grid(densities_per_um=(250.0,))
        ).run()
        shorted = make_optimizer(
            process_points=process_grid(
                densities_per_um=(250.0,), removal_etas=(1.0 - 1e-10,)
            )
        ).run()
        assert clean.meets_target and shorted.meets_target
        assert shorted.best.chip_yield < clean.best.chip_yield
        assert (
            shorted.best.capacitance_penalty
            >= clean.best.capacitance_penalty - 1e-12
        )


class TestValidation:
    @pytest.fixture(scope="class")
    def validated(self):
        return make_optimizer(
            process_points=process_grid(densities_per_um=(250.0,))
        ).run(validate_trials=48, validate_top=1)

    def test_validation_fields(self, validated):
        assert len(validated.validations) == 1
        v = validated.validations[0]
        assert v.n_trials == 48
        assert v.device_count > 0
        assert 0.0 <= v.mc_chip_yield <= 1.0
        assert v.predicted_mean_failing_devices >= 0.0
        assert np.isfinite(v.z_score)
        assert v.t_clk_ps > 0.0
        assert 0.0 <= v.functional_yield <= 1.0
        assert 0.0 <= v.timing_yield <= 1.0
        assert v.combined_yield <= min(v.functional_yield, v.timing_yield) + 1e-12

    def test_invariant_to_n_workers(self, validated):
        # Acceptance criterion: the front (and the spawn-keyed
        # validation) is bitwise identical for any worker count.
        again = make_optimizer(
            process_points=process_grid(densities_per_um=(250.0,))
        ).run(
            validate_trials=48, validate_top=1,
            execution=Execution(n_workers=2),
        )
        assert front_fingerprint(again) == front_fingerprint(validated)
        a, b = validated.validations[0], again.validations[0]
        assert a.mc_chip_yield == b.mc_chip_yield
        assert a.mc_mean_failing_devices == b.mc_mean_failing_devices
        assert a.functional_yield == b.functional_yield
        assert a.timing_yield == b.timing_yield

    def test_validation_is_one_timing_run(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("validation must not run ChipMonteCarlo")

        monkeypatch.setattr(ChipMonteCarlo, "run", forbidden)
        optimizer = make_optimizer(
            process_points=process_grid(densities_per_um=(250.0,))
        )
        result = optimizer.run(validate_trials=48, validate_top=1)
        # A sparse process point where devices do fail gives the Eq. 2.2
        # z-test failing devices to compare.
        sparse = dataclasses.replace(
            result.best, process=ProcessPoint(cnt_density_per_um=80.0)
        )
        checks = (result.validations[0], optimizer.validate(sparse, n_trials=128))
        for v in checks:
            assert v.mc_chip_yield == v.functional_yield
        assert checks[1].mc_mean_failing_devices > 0.0
        assert 0.0 < checks[1].functional_yield < 1.0
        assert abs(checks[1].z_score) < 4.0

    def test_checkpointed_validations_resume(self, validated, tmp_path):
        # Every validated rank is its own campaign, so two ranks share a
        # checkpoint directory and a rerun resumes both bitwise.
        optimizer = make_optimizer(
            process_points=process_grid(densities_per_um=(250.0,))
        )
        execution = Execution(checkpoint_dir=tmp_path)
        first = optimizer.run(
            validate_trials=48, validate_top=2, execution=execution
        )
        resumed = optimizer.run(
            validate_trials=48, validate_top=2, execution=execution
        )
        assert len(first.validations) == 2
        assert resumed.validations == first.validations
        assert first.validations[0] == validated.validations[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "validate-0", "validate-1",
        ]

    def test_seed_changes_validation_not_front(self, validated):
        other = make_optimizer(
            process_points=process_grid(densities_per_um=(250.0,)),
            seed=7,
        ).run(validate_trials=48, validate_top=1)
        assert front_fingerprint(other) == front_fingerprint(validated)

    def test_run_rejects_bad_arguments(self):
        optimizer = make_optimizer()
        with pytest.raises(ValueError):
            optimizer.run(validate_trials=-1)
        with pytest.raises(ValueError):
            optimizer.run(validate_top=0)
        with pytest.raises(ValueError):
            optimizer.run(execution=Execution(n_workers=0))


class TestDifferentCorners:
    def test_cleaner_corner_needs_less_upsizing(self):
        # FIG2_1_CORNERS[0] is the worst corner (pm=33%, pRs=30%);
        # corners[1] removes the pRs loss, so its per-CNT failure is
        # lower and the target is reachable with less upsizing.
        worst = make_optimizer(
            process_points=process_grid(densities_per_um=(250.0,))
        ).run()
        cleaner = make_optimizer(
            process_points=process_grid(
                densities_per_um=(250.0,), corners=(FIG2_1_CORNERS[1],)
            ),
            setup=CalibratedSetup(corner=FIG2_1_CORNERS[1]),
        ).run()
        assert worst.meets_target and cleaner.meets_target
        assert (
            cleaner.best.capacitance_penalty
            <= worst.best.capacitance_penalty
        )


class TestCLI:
    def run_cli(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        return code, capsys.readouterr()

    def test_json_payload(self, capsys):
        code, captured = self.run_cli(
            ["co-opt", "--yield-target", "0.99", "--densities", "250,320",
             "--json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["meets_target"] is True
        assert payload["beats_uniform"] is True
        assert payload["best"]["capacitance_penalty"] <= payload["uniform_penalty"]
        assert payload["candidates_evaluated"] > 0
        assert len(payload["front"]) >= 1

    def test_human_output(self, capsys):
        code, captured = self.run_cli(
            ["co-opt", "--yield-target", "0.99", "--densities", "250"],
            capsys,
        )
        assert code == 0
        assert "Pareto front" in captured.out

    @pytest.mark.parametrize("argv", [
        ["co-opt", "--workers", "0"],
        ["co-opt", "--validate-trials", "-1"],
        ["co-opt", "--validate-top", "0"],
        ["co-opt", "--max-combos", "0"],
        ["co-opt", "--extra-levels", "-1"],
        ["co-opt", "--densities", "not-a-number"],
        ["co-opt", "--pitch-cvs", ""],
    ])
    def test_usage_errors_exit_2(self, argv, capsys):
        code, captured = self.run_cli(argv, capsys)
        assert code == 2
        assert "error:" in captured.err
