"""Tests for the row-based correlation yield model — Eq. 3.1 / 3.2, Table 1."""

import math

import numpy as np
import pytest

from repro.core.correlation import (
    CorrelationParameters,
    LayoutScenario,
    RowYieldModel,
    relaxation_factor,
    scenario_row_failure_probabilities,
)
from repro.core.count_model import PoissonCountModel


@pytest.fixture
def params():
    return CorrelationParameters(
        cnt_length_um=200.0, min_cnfet_density_per_um=1.8, alignment_fraction=0.5
    )


@pytest.fixture
def model(params):
    return RowYieldModel(parameters=params)


class TestCorrelationParameters:
    def test_devices_per_row_eq_3_2(self, params):
        # MRmin = LCNT * Pmin-CNFET = 200 µm * 1.8 FETs/µm = 360.
        assert params.devices_per_row == pytest.approx(360.0)

    def test_two_region_groups_halve_devices_per_row(self):
        params = CorrelationParameters(aligned_region_groups=2)
        single = CorrelationParameters(aligned_region_groups=1)
        assert params.devices_per_row == pytest.approx(single.devices_per_row / 2.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CorrelationParameters(cnt_length_um=0.0)
        with pytest.raises(ValueError):
            CorrelationParameters(aligned_region_groups=0)
        with pytest.raises(ValueError):
            CorrelationParameters(alignment_fraction=1.5)


class TestRowFailureProbability:
    def test_aligned_equals_device_pf(self, model):
        assert model.row_failure_probability(
            LayoutScenario.DIRECTIONAL_ALIGNED, 1e-6
        ) == pytest.approx(1e-6)

    def test_uncorrelated_is_m_r_times_larger(self, model, params):
        p_f = 1e-8
        p_rf = model.row_failure_probability(LayoutScenario.UNCORRELATED_GROWTH, p_f)
        assert p_rf == pytest.approx(params.devices_per_row * p_f, rel=1e-3)

    def test_uncorrelated_saturates_at_one(self, model):
        assert model.row_failure_probability(
            LayoutScenario.UNCORRELATED_GROWTH, 0.5
        ) <= 1.0

    def test_non_aligned_between_extremes(self, model):
        p_f = 1e-6
        aligned = model.row_failure_probability(LayoutScenario.DIRECTIONAL_ALIGNED, p_f)
        uncorrelated = model.row_failure_probability(
            LayoutScenario.UNCORRELATED_GROWTH, p_f
        )
        middle = model.row_failure_probability(
            LayoutScenario.DIRECTIONAL_NON_ALIGNED, p_f
        )
        assert aligned <= middle <= uncorrelated

    def test_non_aligned_cluster_model(self, model, params):
        # With the default offset-cluster model, the unmodified library
        # behaves like `unaligned_offset_groups` independent classes per row.
        p_f = 1e-8
        middle = model.row_failure_probability(
            LayoutScenario.DIRECTIONAL_NON_ALIGNED, p_f
        )
        assert middle == pytest.approx(params.unaligned_offset_groups * p_f, rel=1e-3)

    def test_alignment_fraction_one_reduces_to_aligned(self):
        params = CorrelationParameters(
            unaligned_offset_groups=None, alignment_fraction=1.0
        )
        model = RowYieldModel(parameters=params)
        assert model.row_failure_probability(
            LayoutScenario.DIRECTIONAL_NON_ALIGNED, 1e-6
        ) == pytest.approx(1e-6)

    def test_alignment_fraction_zero_reduces_to_uncorrelated(self):
        params = CorrelationParameters(
            unaligned_offset_groups=None, alignment_fraction=0.0
        )
        model = RowYieldModel(parameters=params)
        p_f = 1e-6
        assert model.row_failure_probability(
            LayoutScenario.DIRECTIONAL_NON_ALIGNED, p_f
        ) == pytest.approx(
            model.row_failure_probability(LayoutScenario.UNCORRELATED_GROWTH, p_f)
        )

    def test_shared_fraction_model_between_extremes(self):
        params = CorrelationParameters(
            unaligned_offset_groups=None, alignment_fraction=0.5
        )
        model = RowYieldModel(parameters=params)
        p_f = 1e-4
        aligned = model.row_failure_probability(LayoutScenario.DIRECTIONAL_ALIGNED, p_f)
        uncorrelated = model.row_failure_probability(
            LayoutScenario.UNCORRELATED_GROWTH, p_f
        )
        middle = model.row_failure_probability(
            LayoutScenario.DIRECTIONAL_NON_ALIGNED, p_f
        )
        assert aligned <= middle <= uncorrelated


class TestChipLevelEvaluation:
    def test_row_count(self, model):
        result = model.evaluate(
            LayoutScenario.DIRECTIONAL_ALIGNED, 1e-8, min_size_device_count=33e6
        )
        assert result.row_count == pytest.approx(33e6 / 360.0, rel=1e-6)

    def test_chip_yield_improves_with_alignment(self, model):
        p_f = 3e-9 * 360.0  # relaxed operating point
        aligned = model.evaluate(LayoutScenario.DIRECTIONAL_ALIGNED, p_f, 33e6)
        uncorrelated = model.evaluate(LayoutScenario.UNCORRELATED_GROWTH, p_f, 33e6)
        assert aligned.chip_yield > uncorrelated.chip_yield

    def test_aligned_yield_matches_paper_construction(self, model):
        # At pF = 350 x budget the aligned chip yield should be ≈ the target.
        budget = 0.1 / 33e6
        p_f = budget * 360.0
        result = model.evaluate(LayoutScenario.DIRECTIONAL_ALIGNED, p_f, 33e6)
        assert result.chip_yield == pytest.approx(0.9, abs=0.01)


class TestRelaxationFactor:
    def test_headline_value(self):
        # LCNT = 200 µm, Pmin-CNFET = 1.8 FETs/µm -> ≈360X (paper rounds to 350X).
        factor = relaxation_factor(200.0, 1.8, device_failure_probability=1e-8)
        assert factor == pytest.approx(360.0, rel=0.01)

    def test_scales_with_cnt_length(self):
        short = relaxation_factor(50.0, 1.8)
        long = relaxation_factor(200.0, 1.8)
        assert long == pytest.approx(4.0 * short, rel=0.01)

    def test_two_region_groups_halve_benefit(self):
        one = relaxation_factor(200.0, 1.8, aligned_region_groups=1)
        two = relaxation_factor(200.0, 1.8, aligned_region_groups=2)
        assert one / two == pytest.approx(2.0, rel=0.01)

    def test_model_level_relaxation(self, model):
        assert model.relaxation_factor(1e-8) == pytest.approx(360.0, rel=0.01)


class TestClosedFormInputs:
    """Every scenario is a closed form of pF and the row geometry alone."""

    @pytest.mark.parametrize(
        "keyword, value",
        [
            ("count_model", PoissonCountModel(4.0)),
            ("rng", np.random.default_rng(0)),
            ("mc_samples", 5_000),
        ],
        ids=["count_model", "rng", "mc_samples"],
    )
    def test_model_takes_only_parameters(self, params, keyword, value):
        with pytest.raises(TypeError):
            RowYieldModel(parameters=params, **{keyword: value})

    @pytest.mark.parametrize("keyword", ["width_nm", "per_cnt_failure"])
    def test_row_failure_takes_only_pf(self, model, keyword):
        with pytest.raises(TypeError):
            model.row_failure_probability(
                LayoutScenario.DIRECTIONAL_NON_ALIGNED, 1e-6, **{keyword: 1.0}
            )

    def test_vectorised_map_rejects_out_of_range_pf(self, params):
        with pytest.raises(ValueError, match="lie in"):
            scenario_row_failure_probabilities(
                LayoutScenario.DIRECTIONAL_ALIGNED, np.array([0.5, 1.5]), params
            )
