"""Tests for the surviving-m-CNT noise-margin extension."""

import math

import pytest

from repro.analysis.noise_margin import NoiseMarginModel
from repro.core.count_model import PoissonCountModel
from repro.growth.types import CNTTypeModel


def make_model(p_rm=0.999, pm=1.0 / 3.0):
    return NoiseMarginModel(
        count_model=PoissonCountModel(4.0),
        type_model=CNTTypeModel(pm, p_rm, 0.0),
    )


class TestDeviceLevel:
    def test_perfect_removal_no_hazard(self):
        model = make_model(p_rm=1.0)
        assert model.prob_device_has_surviving_mcnt(160.0) == 0.0
        assert model.expected_surviving_mcnt(160.0) == 0.0

    def test_no_removal_many_hazards(self):
        model = make_model(p_rm=0.0)
        assert model.prob_device_has_surviving_mcnt(160.0) > 0.99

    def test_hazard_probability_increases_with_width(self):
        model = make_model(p_rm=0.99)
        assert model.prob_device_has_surviving_mcnt(
            320.0
        ) > model.prob_device_has_surviving_mcnt(80.0)

    def test_expected_count_formula(self):
        model = make_model(p_rm=0.99)
        # mean count 40, q = pm (1-pRm) = 0.3333 * 0.01
        assert model.expected_surviving_mcnt(160.0) == pytest.approx(
            40.0 * (1.0 / 3.0) * 0.01, rel=1e-6
        )

    def test_at_least_k_monotone(self):
        model = make_model(p_rm=0.9)
        p1 = model.prob_device_has_at_least(160.0, 1)
        p2 = model.prob_device_has_at_least(160.0, 2)
        assert p1 >= p2
        assert model.prob_device_has_at_least(160.0, 0) == 1.0

    def test_near_perfect_removal_keeps_full_precision(self):
        # q = pm (1 - pRm) ~ 3e-13: 1 - PGF(1 - q) taken as a difference
        # from one keeps only ~3 significant digits; the closed form for
        # Poisson counts is 1 - exp(-lambda q) = -expm1(-40 q).
        p_rm = 1.0 - 1e-12
        model = make_model(p_rm=p_rm)
        q = (1.0 / 3.0) * (1.0 - p_rm)
        assert model.prob_device_has_surviving_mcnt(160.0) == pytest.approx(
            -math.expm1(-40.0 * q), rel=1e-12, abs=0.0
        )

    def test_at_least_one_matches_pgf_route(self):
        model = make_model(p_rm=0.9)
        assert model.prob_device_has_at_least(160.0, 1) == pytest.approx(
            model.prob_device_has_surviving_mcnt(160.0), rel=1e-6
        )


class TestChipLevel:
    def test_summary_scaling(self):
        model = make_model(p_rm=0.9999)
        summary = model.summarise_chip(160.0, chip_device_count=1e8)
        assert summary.expected_hazardous_devices_per_chip == pytest.approx(
            summary.prob_device_has_surviving_mcnt * 1e8
        )

    def test_required_removal_probability_is_high(self):
        # Reproduces the style of the paper's "pRm > 99.99 %" requirement:
        # keeping hazards below ~1e4 devices on a 1e8-device chip requires a
        # removal probability extremely close to 1.
        model = make_model(p_rm=1.0)
        required = model.required_removal_probability(
            160.0, chip_device_count=1e8, max_hazardous_devices=1e4
        )
        assert required > 0.999

    def test_required_removal_zero_when_no_metallic(self):
        model = NoiseMarginModel(
            count_model=PoissonCountModel(4.0),
            type_model=CNTTypeModel(0.0, 0.0, 0.0),
        )
        assert model.required_removal_probability(160.0, 1e8) == 0.0

    def test_hazard_curve_monotone_in_prm(self):
        model = make_model()
        curve = model.hazard_curve(160.0, [0.9, 0.99, 0.999, 1.0])
        assert all(a >= b for a, b in zip(curve, curve[1:]))
        assert curve[-1] == 0.0
