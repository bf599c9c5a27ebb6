"""Tests for the per-tube / per-device current model."""

import numpy as np
import pytest

from repro.device.current import CNTCurrentModel, device_on_current
from repro.growth.cnt import CNT, CNTType


class TestPerTubeCurrent:
    def test_nominal_current_at_reference(self):
        model = CNTCurrentModel(nominal_on_current_ua=20.0, reference_diameter_nm=1.5)
        assert model.semiconducting_on_current_ua(1.5) == pytest.approx(20.0)

    def test_diameter_scaling(self):
        model = CNTCurrentModel(diameter_exponent=1.0)
        assert model.semiconducting_on_current_ua(3.0) == pytest.approx(
            2.0 * model.semiconducting_on_current_ua(1.5)
        )

    def test_overdrive_scaling(self):
        low = CNTCurrentModel(vdd=0.6, threshold_voltage=0.3, reference_vdd=0.9)
        high = CNTCurrentModel(vdd=0.9, threshold_voltage=0.3, reference_vdd=0.9)
        assert low.semiconducting_on_current_ua(1.5) == pytest.approx(
            0.5 * high.semiconducting_on_current_ua(1.5)
        )

    def test_vdd_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            CNTCurrentModel(vdd=0.2, threshold_voltage=0.3)

    def test_invalid_diameter_rejected(self):
        model = CNTCurrentModel()
        with pytest.raises(ValueError):
            model.semiconducting_on_current_ua(0.0)


class TestDeviceAggregation:
    def make_cnt(self, cnt_type=CNTType.SEMICONDUCTING, removed=False, diameter=1.5):
        return CNT(0.0, 0.0, 100.0, cnt_type, diameter_nm=diameter, removed=removed)

    def test_parallel_tubes_sum(self):
        model = CNTCurrentModel(nominal_on_current_ua=20.0)
        cnts = [self.make_cnt() for _ in range(5)]
        assert model.device_on_current_ua(cnts) == pytest.approx(100.0)

    def test_removed_tubes_excluded(self):
        model = CNTCurrentModel()
        cnts = [self.make_cnt(), self.make_cnt(removed=True)]
        assert model.device_on_current_ua(cnts) == pytest.approx(
            model.semiconducting_on_current_ua(1.5)
        )

    def test_surviving_metallic_adds_current(self):
        model = CNTCurrentModel(metallic_current_ua=40.0)
        cnts = [self.make_cnt(), self.make_cnt(CNTType.METALLIC)]
        on = model.device_on_current_ua(cnts)
        assert on == pytest.approx(model.semiconducting_on_current_ua(1.5) + 40.0)
        assert model.device_off_current_ua(cnts) == pytest.approx(40.0)

    def test_sample_on_current_statistics(self):
        model = CNTCurrentModel(nominal_on_current_ua=20.0)
        rng = np.random.default_rng(0)
        samples = [model.sample_on_current_ua(10, rng) for _ in range(500)]
        assert np.mean(samples) == pytest.approx(200.0, rel=0.05)

    def test_sample_zero_tubes(self):
        model = CNTCurrentModel()
        rng = np.random.default_rng(0)
        assert model.sample_on_current_ua(0, rng) == 0.0

    def test_sample_negative_tubes_rejected(self):
        model = CNTCurrentModel()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            model.sample_on_current_ua(-1, rng)


class TestIdealisedHelper:
    def test_linear_in_count(self):
        assert device_on_current(5, 20.0) == 100.0

    def test_zero_count(self):
        assert device_on_current(0) == 0.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            device_on_current(-1)


class TestOnCurrentsFromCounts:
    def test_without_rng_is_count_times_mean_diameter_current(self):
        model = CNTCurrentModel(diameter_exponent=1.3)
        counts = np.array([[0, 1, 4], [7, 2, 0]])
        per_tube = model.semiconducting_on_current_ua(1.7)
        np.testing.assert_array_equal(
            model.on_currents_from_counts(counts, None, diameter_mean_nm=1.7),
            counts * per_tube,
        )

    def test_zero_counts_give_exactly_zero(self):
        model = CNTCurrentModel()
        counts = np.array([0, 3, 0, 5, 0])
        currents = model.on_currents_from_counts(counts, np.random.default_rng(1))
        assert np.all(currents[counts == 0] == 0.0)
        assert np.all(currents[counts > 0] > 0.0)
        assert np.all(
            model.on_currents_from_counts(np.zeros(4), np.random.default_rng(1))
            == 0.0
        )

    def test_negative_counts_rejected(self):
        model = CNTCurrentModel()
        with pytest.raises(ValueError, match="non-negative"):
            model.on_currents_from_counts(np.array([2, -1]), np.random.default_rng(0))
        with pytest.raises(ValueError, match="non-negative"):
            model.on_currents_from_counts(np.array([2, -1]))

    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 2)])
    def test_output_shape_equals_input_shape(self, shape):
        model = CNTCurrentModel()
        counts = np.random.default_rng(0).integers(0, 6, size=shape)
        for rng in (None, np.random.default_rng(1)):
            assert model.on_currents_from_counts(counts, rng).shape == shape

    def test_sum_of_iid_clipped_normal_tubes(self, censored_normal_moments):
        # A wide diameter spread puts ~5 % of the draws below the 0.5 nm
        # boundary, so the clip (a censored normal) shows in the moments.
        model = CNTCurrentModel()
        n_tubes, n_devices, mean_d, std_d = 9, 40_000, 1.5, 0.6
        currents = model.on_currents_from_counts(
            np.full(n_devices, n_tubes), np.random.default_rng(2010),
            diameter_mean_nm=mean_d, diameter_std_nm=std_d,
        )
        per_nm = model.semiconducting_on_current_ua(1.0)  # exponent 1: linear
        mean_y, var_y = censored_normal_moments(mean_d, std_d, 0.5)
        mean = n_tubes * per_nm * mean_y
        var = n_tubes * per_nm ** 2 * var_y
        assert abs(currents.mean() - mean) < 5.0 * np.sqrt(var / n_devices)
        var_se = var * np.sqrt(2.0 / (n_devices - 1))
        assert abs(currents.var(ddof=1) - var) < 5.0 * var_se
        # The unclipped normal's variance is excluded by the same bound.
        assert abs(n_tubes * per_nm ** 2 * std_d ** 2 - var) > 5.0 * var_se


class TestTubeOnCurrents:
    @pytest.mark.parametrize("exponent", [1.0, 1.3, 2.0])
    def test_equals_scalar_formula(self, exponent):
        model = CNTCurrentModel(diameter_exponent=exponent, vdd=0.8)
        diameters = np.random.default_rng(0).uniform(0.5, 3.0, size=64)
        expected = [model.semiconducting_on_current_ua(float(d)) for d in diameters]
        currents = model.tube_on_currents_ua(diameters)
        if exponent == 1.0:
            np.testing.assert_array_equal(currents, expected)
        else:  # NumPy's power may differ from Python's by an ulp
            np.testing.assert_allclose(currents, expected, rtol=1e-14)

    def test_in_place(self):
        model = CNTCurrentModel()
        diameters = np.array([1.0, 1.5, 2.0])
        out = model.tube_on_currents_ua(diameters, out=diameters)
        assert out is diameters
        np.testing.assert_array_equal(
            out, [model.semiconducting_on_current_ua(d) for d in (1.0, 1.5, 2.0)]
        )
