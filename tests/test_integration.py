"""Integration tests: end-to-end reproduction of the paper's headline results.

Each test exercises multiple subsystems together and checks the *shape* of
the paper's results: orderings, approximate factors and crossovers, rather
than exact absolute values (which depend on calibration assumptions
documented in DESIGN.md and EXPERIMENTS.md).
"""

import numpy as np
import pytest

from repro.cells.aligned_active import enforce_aligned_active
from repro.cells.area import area_penalty_report
from repro.core.calibration import CalibratedSetup
from repro.core.correlation import LayoutScenario
from repro.core.optimizer import CoOptimizationFlow
from repro.montecarlo.experiments import compare_device_failure
from repro.netlist.openrisc import build_openrisc_like_design, openrisc_width_histogram
from repro.netlist.placement import RowPlacement


@pytest.fixture(scope="module")
def report():
    setup = CalibratedSetup()
    design = openrisc_width_histogram(setup.chip_transistor_count)
    flow = CoOptimizationFlow(
        setup=setup,
        widths_nm=design.widths_nm,
        counts=design.counts,
        min_size_device_count=design.min_size_device_count,
    )
    return flow.run()


class TestHeadlineNumbers:
    def test_relaxation_factor_350x_regime(self, report):
        # Paper headline: 350X relaxation of the device-level pF requirement.
        assert report.relaxation_factor == pytest.approx(350.0, rel=0.1)

    def test_wmin_reduction_ratio(self, report):
        # Paper: 155 nm -> 103 nm (ratio ≈ 1.5).  The calibrated reproduction
        # gives 168 nm -> 118 nm (ratio ≈ 1.43).
        ratio = report.baseline_wmin.wmin_nm / report.optimized_wmin.wmin_nm
        assert ratio == pytest.approx(1.5, abs=0.15)

    def test_wmin_absolute_values_within_calibration_band(self, report):
        assert report.baseline_wmin.wmin_nm == pytest.approx(155.0, rel=0.15)
        assert report.optimized_wmin.wmin_nm == pytest.approx(103.0, rel=0.2)

    def test_table1_ordering_and_total_gain(self, report):
        scenarios = report.scenario_results
        uncorrelated = scenarios[LayoutScenario.UNCORRELATED_GROWTH]
        non_aligned = scenarios[LayoutScenario.DIRECTIONAL_NON_ALIGNED]
        aligned = scenarios[LayoutScenario.DIRECTIONAL_ALIGNED]
        assert (
            uncorrelated.row_failure_probability
            > non_aligned.row_failure_probability
            > aligned.row_failure_probability
        )
        total = (
            uncorrelated.row_failure_probability / aligned.row_failure_probability
        )
        assert total == pytest.approx(350.0, rel=0.1)

    def test_penalty_reduction_at_45nm(self, report):
        # Fig. 3.3: the optimisation removes most of the upsizing penalty at
        # the 45 nm node.
        assert (
            report.optimized_upsizing.capacitance_penalty
            < 0.5 * report.baseline_upsizing.capacitance_penalty
        )

    def test_penalty_grows_with_scaling_in_both_cases(self, report):
        for study in (report.baseline_scaling, report.optimized_scaling):
            penalties = study.penalties_percent
            assert all(b > a for a, b in zip(penalties, penalties[1:]))

    def test_optimized_penalty_smaller_at_every_node(self, report):
        assert np.all(
            report.optimized_scaling.penalties_percent
            <= report.baseline_scaling.penalties_percent
        )


class TestLibraryLevelIntegration:
    def test_nangate_table2_column(self, nangate45, report):
        result = enforce_aligned_active(
            nangate45, wmin_nm=report.optimized_wmin.wmin_nm
        )
        summary = area_penalty_report(result)
        # Paper: 4 of 134 cells affected, penalties 4-14 %.
        assert summary.cell_count == 134
        assert summary.penalised_cell_count == 4
        assert 0.02 <= summary.min_penalty <= 0.08
        assert 0.08 <= summary.max_penalty <= 0.2

    def test_commercial65_one_vs_two_regions(self, commercial65):
        one = area_penalty_report(enforce_aligned_active(commercial65, 107.0, 1))
        two = area_penalty_report(enforce_aligned_active(commercial65, 112.0, 2))
        assert one.penalised_fraction == pytest.approx(0.2, abs=0.05)
        assert two.penalised_cell_count == 0

    def test_modified_library_supports_resynthesis(self, nangate45):
        # The aligned-active library can be used for the same netlist flow.
        result = enforce_aligned_active(nangate45, wmin_nm=103.0)
        modified_library = result.to_library("nangate45_aligned")
        design = build_openrisc_like_design(modified_library, scale=0.05, seed=9)
        assert design.instance_count > 500
        widths = design.transistor_widths_nm()
        # No critical-width device remains below Wmin in the aligned library.
        assert widths.min() >= 103.0 - 1e-9


class TestPhysicalToAnalyticConsistency:
    def test_device_failure_monte_carlo_matches_model(self):
        record = compare_device_failure(width_nm=40.0, n_samples=40_000, seed=17)
        assert record.agrees(n_sigma=4.0, rtol=0.1)

    def test_placement_density_feeds_correlation_model(self, nangate45):
        design = build_openrisc_like_design(nangate45, scale=0.1, seed=21)
        placement = RowPlacement(design, row_width_nm=200_000.0)
        density = placement.small_device_density_per_um(160.0)
        setup = CalibratedSetup()
        # Plugging the measured density into the correlation parameters gives
        # a relaxation factor of LCNT * density (Eq. 3.2).
        from repro.core.correlation import CorrelationParameters, RowYieldModel

        params = CorrelationParameters(
            cnt_length_um=200.0, min_cnfet_density_per_um=density
        )
        model = RowYieldModel(parameters=params)
        factor = model.relaxation_factor(setup.required_pf())
        assert factor == pytest.approx(200.0 * density, rel=0.05)
