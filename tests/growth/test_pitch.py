"""Tests for inter-CNT pitch distributions."""

import numpy as np
import pytest
from scipy import stats

from repro.growth.pitch import (
    DeterministicPitch,
    ExponentialPitch,
    GammaPitch,
    PitchDistribution,
    ThinnedPitch,
    TruncatedNormalPitch,
    pitch_distribution_from_cv,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestDeterministicPitch:
    def test_moments(self):
        pitch = DeterministicPitch(pitch_nm=4.0)
        assert pitch.mean_nm == 4.0
        assert pitch.std_nm == 0.0
        assert pitch.cv == 0.0

    def test_samples_are_constant(self, rng):
        pitch = DeterministicPitch(pitch_nm=4.0)
        samples = pitch.sample(100, rng)
        assert np.all(samples == 4.0)

    def test_sum_cdf_step(self):
        pitch = DeterministicPitch(pitch_nm=4.0)
        assert pitch.sum_cdf(3, 12.0) == 1.0
        assert pitch.sum_cdf(3, 11.9) == 0.0
        assert pitch.sum_cdf(0, 0.0) == 1.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            DeterministicPitch(pitch_nm=0.0)


class TestExponentialPitch:
    def test_moments(self):
        pitch = ExponentialPitch(mean_pitch_nm=4.0)
        assert pitch.mean_nm == 4.0
        assert pitch.std_nm == 4.0
        assert pitch.cv == pytest.approx(1.0)

    def test_density(self):
        pitch = ExponentialPitch(mean_pitch_nm=5.0)
        assert pitch.density_per_nm == pytest.approx(0.2)

    def test_sample_mean(self, rng):
        pitch = ExponentialPitch(mean_pitch_nm=4.0)
        samples = pitch.sample(50_000, rng)
        assert np.mean(samples) == pytest.approx(4.0, rel=0.03)

    def test_sum_cdf_matches_erlang(self):
        pitch = ExponentialPitch(mean_pitch_nm=4.0)
        # Sum of 1 exponential: CDF = 1 - exp(-w/4).
        assert pitch.sum_cdf(1, 4.0) == pytest.approx(1.0 - np.exp(-1.0))

    def test_sum_cdf_zero_terms(self):
        pitch = ExponentialPitch(mean_pitch_nm=4.0)
        assert pitch.sum_cdf(0, 10.0) == 1.0
        assert pitch.sum_cdf(5, 0.0) == 0.0

    def test_sum_cdf_monotone_in_n(self):
        pitch = ExponentialPitch(mean_pitch_nm=4.0)
        values = [pitch.sum_cdf(n, 40.0) for n in range(1, 30)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestGammaPitch:
    def test_moments(self):
        pitch = GammaPitch(mean_pitch_nm=4.0, cv_value=0.5)
        assert pitch.mean_nm == 4.0
        assert pitch.std_nm == pytest.approx(2.0)

    def test_shape_scale(self):
        pitch = GammaPitch(mean_pitch_nm=4.0, cv_value=0.5)
        assert pitch.shape == pytest.approx(4.0)
        assert pitch.scale_nm == pytest.approx(1.0)

    def test_sample_moments(self, rng):
        pitch = GammaPitch(mean_pitch_nm=4.0, cv_value=0.5)
        samples = pitch.sample(50_000, rng)
        assert np.mean(samples) == pytest.approx(4.0, rel=0.03)
        assert np.std(samples) == pytest.approx(2.0, rel=0.05)

    def test_sum_cdf_additive_shape(self):
        # Sum of n gammas with shape k equals a gamma with shape n*k: the CDF
        # at the mean of the sum should be close to (but below) ~0.5-0.6.
        pitch = GammaPitch(mean_pitch_nm=4.0, cv_value=0.5)
        value = pitch.sum_cdf(10, 40.0)
        assert 0.4 < value < 0.65

    def test_low_cv_approaches_deterministic(self):
        pitch = GammaPitch(mean_pitch_nm=4.0, cv_value=0.01)
        assert pitch.sum_cdf(10, 41.0) > 0.99
        assert pitch.sum_cdf(10, 39.0) < 0.01


class TestTruncatedNormalPitch:
    def test_mean_shifted_by_truncation(self):
        pitch = TruncatedNormalPitch(nominal_mean_nm=4.0, nominal_std_nm=2.0)
        # Truncation at zero pushes the mean slightly above the nominal mean.
        assert pitch.mean_nm > 4.0
        assert pitch.mean_nm < 5.0

    def test_samples_positive(self, rng):
        pitch = TruncatedNormalPitch(nominal_mean_nm=4.0, nominal_std_nm=3.0)
        samples = pitch.sample(10_000, rng)
        assert np.all(samples > 0)

    def test_single_sum_cdf_is_exact_cdf(self):
        pitch = TruncatedNormalPitch(nominal_mean_nm=4.0, nominal_std_nm=1.0)
        assert pitch.sum_cdf(1, 4.0) == pytest.approx(0.5, abs=0.02)

    def test_multi_sum_cdf_midpoint(self):
        pitch = TruncatedNormalPitch(nominal_mean_nm=4.0, nominal_std_nm=1.0)
        mid = pitch.sum_cdf(25, 25 * pitch.mean_nm)
        assert mid == pytest.approx(0.5, abs=0.05)


class TestThinnedPitch:
    """The gap law of the tubes kept independently with probability p."""

    FAMILIES = [
        DeterministicPitch(5.0),
        ExponentialPitch(4.0),
        GammaPitch(4.0, 0.5),
        TruncatedNormalPitch(4.0, 2.0),
    ]

    @pytest.mark.parametrize("pitch", FAMILIES)
    def test_keeping_every_tube_is_the_pitch_itself(self, pitch):
        assert pitch.thinned(1.0) is pitch

    @pytest.mark.parametrize("p_keep", [0.0, -0.1, 1.5, float("nan")])
    def test_rejects_keep_outside_the_unit_interval(self, p_keep):
        with pytest.raises(ValueError):
            GammaPitch(4.0, 0.5).thinned(p_keep)
        with pytest.raises(ValueError):
            ExponentialPitch(4.0).thinned(p_keep)

    def test_exponential_stays_in_its_family(self):
        thinned = ExponentialPitch(4.0).thinned(0.4)
        assert thinned == ExponentialPitch(10.0)

    @pytest.mark.parametrize("pitch", FAMILIES)
    def test_moments(self, pitch):
        p = 0.4
        thinned = pitch.thinned(p)
        mean, var = pitch.mean_nm, pitch.std_nm ** 2
        assert thinned.mean_nm == pytest.approx(mean / p, rel=1e-12)
        assert thinned.std_nm ** 2 == pytest.approx(
            var / p + mean ** 2 * (1.0 - p) / p ** 2, rel=1e-12
        )

    @pytest.mark.parametrize("pitch", FAMILIES)
    def test_sample_moments(self, pitch):
        thinned = pitch.thinned(0.4)
        samples = thinned.sample(200_000, np.random.default_rng(5))
        se = thinned.std_nm / np.sqrt(samples.size)
        assert abs(samples.mean() - thinned.mean_nm) < 5.0 * se
        assert samples.std() == pytest.approx(thinned.std_nm, rel=0.02)
        assert np.all(samples > 0.0)

    def test_gamma_closed_form_matches_generic_compound(self):
        # One Gamma(k·G, θ) draw per kept gap against G base gaps summed.
        pitch = GammaPitch(4.0, 0.5)
        counts = np.random.default_rng(1).geometric(0.4, 50_000)
        closed = pitch.sample_sums(counts, np.random.default_rng(2))
        generic = PitchDistribution.sample_sums(pitch, counts, np.random.default_rng(3))
        assert closed.shape == generic.shape == counts.shape
        assert stats.ks_2samp(closed, generic).pvalue > 1e-3
        # Given the same group sizes, both sums have mean k·θ·G each.
        assert closed.mean() == pytest.approx(4.0 * counts.mean(), rel=0.01)

    def test_generic_compound_sums_its_groups(self):
        pitch = ExponentialPitch(4.0)
        counts = np.array([1, 3, 2])
        gaps = pitch.sample(6, np.random.default_rng(4))
        sums = PitchDistribution.sample_sums(pitch, counts, np.random.default_rng(4))
        np.testing.assert_allclose(sums, [gaps[0], gaps[1:4].sum(), gaps[4:].sum()])

    def test_sum_cdf_mixture_matches_the_exponential_closed_form(self):
        # The generic mixture over base-gap counts, on a base whose
        # thinning has a closed form.
        mixture = ThinnedPitch(ExponentialPitch(4.0), 0.4)
        exact = ExponentialPitch(10.0)
        n = np.arange(0, 40)[:, None]
        w = np.array([-1.0, 0.0, 5.0, 30.0, 120.0, 400.0])
        np.testing.assert_allclose(
            mixture.sum_cdf_array(n, w), exact.sum_cdf_array(n, w),
            rtol=1e-10, atol=1e-15,
        )

    def test_sum_cdf_matches_samples(self):
        thinned = GammaPitch(4.0, 0.5).thinned(0.4)
        gaps = thinned.sample(3 * 40_000, np.random.default_rng(6))
        sums = gaps.reshape(-1, 3).sum(axis=1)
        p = thinned.sum_cdf(3, 30.0)
        se = np.sqrt(p * (1.0 - p) / sums.size)
        assert abs(np.mean(sums <= 30.0) - p) < 5.0 * se


class TestFactory:
    def test_zero_cv_gives_deterministic(self):
        assert isinstance(pitch_distribution_from_cv(4.0, 0.0), DeterministicPitch)

    def test_unit_cv_gives_exponential(self):
        assert isinstance(pitch_distribution_from_cv(4.0, 1.0), ExponentialPitch)

    def test_other_cv_gives_gamma(self):
        dist = pitch_distribution_from_cv(4.0, 0.4)
        assert isinstance(dist, GammaPitch)
        assert dist.cv == pytest.approx(0.4)

    def test_negative_cv_rejected(self):
        with pytest.raises(ValueError):
            pitch_distribution_from_cv(4.0, -0.1)

    def test_non_positive_mean_rejected(self):
        with pytest.raises(ValueError):
            pitch_distribution_from_cv(0.0, 1.0)


class TestSumCdfArray:
    """The vectorised sum_cdf_array must agree with the scalar sum_cdf."""

    @pytest.mark.parametrize("pitch", [
        DeterministicPitch(5.0),
        ExponentialPitch(4.0),
        GammaPitch(4.0, 0.5),
        GammaPitch(4.0, 1.7),
        TruncatedNormalPitch(4.0, 2.0),
        ThinnedPitch(GammaPitch(4.0, 0.5), 0.4),
    ])
    @pytest.mark.parametrize("w_nm", [-1.0, 0.0, 3.0, 40.0])
    def test_matches_scalar_elementwise(self, pitch, w_nm):
        n_values = np.arange(0, 12)
        vectorised = pitch.sum_cdf_array(n_values, w_nm)
        scalar = np.array([pitch.sum_cdf(int(n), w_nm) for n in n_values])
        np.testing.assert_allclose(vectorised, scalar, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("pitch", [
        DeterministicPitch(5.0),
        ExponentialPitch(4.0),
        GammaPitch(4.0, 0.5),
        GammaPitch(4.0, 1.7),
        TruncatedNormalPitch(4.0, 2.0),
        ThinnedPitch(GammaPitch(4.0, 0.5), 0.4),
    ])
    @pytest.mark.parametrize("w_nm", [-1.0, 0.0, 3.0, 40.0])
    def test_sf_complements_cdf(self, pitch, w_nm):
        n_values = np.arange(0, 12)
        total = pitch.sum_sf_array(n_values, w_nm) + pitch.sum_cdf_array(n_values, w_nm)
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("pitch, w_nm", [
        (ExponentialPitch(4.0), 400.0),
        (GammaPitch(4.0, 0.5), 400.0),
        (TruncatedNormalPitch(4.0, 2.0), 40.0),
    ])
    def test_sf_resolves_where_cdf_rounds_to_one(self, pitch, w_nm):
        n_values = np.array([1, 2, 3])
        assert np.all(pitch.sum_cdf_array(n_values, w_nm) == 1.0)
        sf = pitch.sum_sf_array(n_values, w_nm)
        assert np.all(sf > 0.0)
        assert np.all(np.diff(sf) > 0.0)

    def test_batch_sampling_matches_flat_stream(self):
        pitch = GammaPitch(4.0, 0.5)
        flat = pitch.sample(12, np.random.default_rng(3))
        batched = pitch.sample_batch((3, 4), np.random.default_rng(3))
        np.testing.assert_array_equal(batched.ravel(), flat)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            ExponentialPitch(4.0).sum_cdf_array(np.array([1, -1]), 10.0)
