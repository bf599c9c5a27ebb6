"""Tests for the CNT count models Prob{N(W)}."""

import math

import numpy as np
import pytest
from scipy import stats

from repro.core.count_model import (
    EmpiricalCountModel,
    PoissonCountModel,
    RenewalCountModel,
    count_model_from_cv,
    count_model_from_pitch,
)
from repro.growth.pitch import DeterministicPitch, ExponentialPitch, GammaPitch


class TestPoissonCountModel:
    def test_mean_count(self):
        model = PoissonCountModel(mean_pitch_nm=4.0)
        assert model.mean_count(160.0) == pytest.approx(40.0)

    def test_pmf_sums_to_one(self):
        model = PoissonCountModel(4.0)
        assert model.pmf(80.0).sum() == pytest.approx(1.0, abs=1e-9)

    def test_pgf_closed_form(self):
        model = PoissonCountModel(4.0)
        lam = 160.0 / 4.0
        assert model.pgf(160.0, 0.5) == pytest.approx(math.exp(-lam * 0.5))

    def test_pgf_bounds(self):
        model = PoissonCountModel(4.0)
        with pytest.raises(ValueError):
            model.pgf(100.0, 1.5)

    def test_prob_zero(self):
        model = PoissonCountModel(4.0)
        assert model.prob_zero(8.0) == pytest.approx(math.exp(-2.0))

    def test_sampling_matches_mean(self):
        model = PoissonCountModel(4.0)
        rng = np.random.default_rng(0)
        counts = model.sample(160.0, 20_000, rng)
        assert counts.mean() == pytest.approx(40.0, rel=0.02)

    def test_std_count(self):
        model = PoissonCountModel(4.0)
        assert model.std_count(160.0) == pytest.approx(math.sqrt(40.0), rel=0.01)


class TestRenewalCountModel:
    def test_exponential_pitch_matches_poisson(self):
        renewal = RenewalCountModel(ExponentialPitch(4.0))
        poisson = PoissonCountModel(4.0)
        for width in (20.0, 80.0, 160.0):
            assert renewal.pgf(width, 0.533) == pytest.approx(
                poisson.pgf(width, 0.533), rel=0.02
            )

    def test_deterministic_pitch_pmf_is_degenerate(self):
        model = RenewalCountModel(DeterministicPitch(10.0))
        pmf = model.pmf(95.0)
        # Exactly 9 gaps fit below 95 nm, so the count is 9 with certainty.
        assert pmf[9] == pytest.approx(1.0, abs=1e-9)

    def test_gamma_pitch_lower_variance_than_poisson(self):
        regular = RenewalCountModel(GammaPitch(4.0, 0.3))
        poisson = PoissonCountModel(4.0)
        assert regular.std_count(160.0) < poisson.std_count(160.0)

    def test_pmf_sums_to_one(self):
        model = RenewalCountModel(GammaPitch(4.0, 0.5))
        assert model.pmf(120.0).sum() == pytest.approx(1.0, abs=1e-9)

    def test_mean_count(self):
        model = RenewalCountModel(GammaPitch(4.0, 0.5))
        assert model.mean_count(120.0) == pytest.approx(30.0)

    def test_pmf_cache_consistency(self):
        model = RenewalCountModel(GammaPitch(4.0, 0.5))
        first = model.pmf(100.0)
        second = model.pmf(100.0)
        assert np.array_equal(first, second)

    def test_low_count_tail_is_smooth_in_width(self):
        # pF ~ 1e-26 lives in the pmf's low-count tail, where P{N >= n}
        # rounds to one; the tail must not carry cancellation noise (it
        # used to show as ~1e-8 jitter in log pF from one width to the next).
        model = RenewalCountModel(GammaPitch(1000.0 / 349.5, 0.5))
        widths = np.linspace(294.0, 295.0, 11)
        log_pf = np.log([model.pgf(w, 0.533) for w in widths])
        assert log_pf.max() < -50.0
        assert np.abs(np.diff(log_pf, 2)).max() < 1e-11

    def test_sampling_respects_pmf(self):
        model = RenewalCountModel(GammaPitch(4.0, 0.5))
        rng = np.random.default_rng(1)
        counts = model.sample(100.0, 20_000, rng)
        assert counts.mean() == pytest.approx(model.mean_count(100.0), rel=0.05)


class TestRenewalBoundaryConvention:
    """The convention of the module notes: an ordinary renewal process from the edge.

    The first tube sits one full pitch from the window edge, so no tube
    falls in ``[0, W]`` exactly when the first pitch exceeds ``W``, and
    the mean count carries the width-independent boundary offset
    ``(cv² - 1) / 2`` of an ordinary renewal process, which vanishes for
    exponential pitch only.
    """

    CVS = (0.3, 0.5, 1.0, 2.0)

    @pytest.mark.parametrize("cv", CVS)
    def test_prob_zero_is_first_pitch_survival(self, cv):
        pitch = GammaPitch(4.0, cv)
        width = 40.0
        ordinary = stats.gamma.sf(width, pitch.shape, scale=pitch.scale_nm)
        # Stationary start: P{N = 0} = E[(S - W)+] / µS.
        stationary = (
            stats.gamma.sf(width, pitch.shape + 1.0, scale=pitch.scale_nm)
            - width / pitch.mean_nm * ordinary
        )
        p_zero = RenewalCountModel(pitch).pmf(width)[0]
        assert math.isclose(p_zero, ordinary, rel_tol=1e-9)
        assert math.isclose(p_zero, stationary, rel_tol=1e-3) == (cv == 1.0)

    @pytest.mark.parametrize("width", [200.0, 300.0])
    @pytest.mark.parametrize("cv", CVS)
    def test_mean_count_carries_boundary_offset(self, cv, width):
        pmf = RenewalCountModel(GammaPitch(4.0, cv)).pmf(width)
        mean = float(np.arange(pmf.size) @ pmf)
        assert mean - width / 4.0 == pytest.approx((cv**2 - 1.0) / 2.0, abs=1e-6)


class TestEmpiricalCountModel:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        reference = PoissonCountModel(4.0)
        samples = reference.sample(80.0, 50_000, rng)
        empirical = EmpiricalCountModel()
        empirical.add_samples(80.0, samples)
        assert empirical.mean_count(80.0) == pytest.approx(20.0, rel=0.03)
        assert empirical.pgf(80.0, 0.5) == pytest.approx(
            reference.pgf(80.0, 0.5), rel=0.05
        )

    def test_unknown_width_raises(self):
        empirical = EmpiricalCountModel()
        with pytest.raises(KeyError):
            empirical.pmf(80.0)

    def test_add_merges_samples(self):
        empirical = EmpiricalCountModel()
        empirical.add_samples(40.0, np.array([1, 2, 3]))
        empirical.add_samples(40.0, np.array([4, 5]))
        assert empirical.mean_count(40.0) == pytest.approx(3.0)

    def test_rejects_negative_counts(self):
        empirical = EmpiricalCountModel()
        with pytest.raises(ValueError):
            empirical.add_samples(40.0, np.array([-1, 2]))

    def test_widths_listing(self):
        empirical = EmpiricalCountModel()
        empirical.add_samples(40.0, np.array([1]))
        empirical.add_samples(80.0, np.array([2]))
        assert empirical.widths_nm == [40.0, 80.0]


class TestFactories:
    def test_exponential_maps_to_poisson(self):
        assert isinstance(count_model_from_pitch(ExponentialPitch(4.0)), PoissonCountModel)

    def test_gamma_maps_to_renewal(self):
        assert isinstance(count_model_from_pitch(GammaPitch(4.0, 0.5)), RenewalCountModel)

    def test_from_cv(self):
        assert isinstance(count_model_from_cv(4.0, 1.0), PoissonCountModel)
        assert isinstance(count_model_from_cv(4.0, 0.5), RenewalCountModel)
