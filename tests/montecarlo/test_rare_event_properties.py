"""Property-based tests for the rare-event layer.

Hypothesis sweeps the pitch families, tilt factors and spans to assert the
structural invariants of the importance sampler — likelihood-ratio weights
are always positive and finite, stopped weights are consistent with the
full-span weights — and a seeded grid mirrors PR 1's bitwise-invariance
tests: the weighted estimator must be bitwise independent of ``n_workers``
and statistically independent of the chunk size.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.montecarlo.engine as engine
from repro.growth.pitch import (
    ExponentialPitch,
    GammaPitch,
    TruncatedNormalPitch,
)
from repro.montecarlo.rare_event import (
    estimate_device_failure_tilted,
    sample_weighted_track_batch,
    window_stopped_log_weights,
)
from repro.resilience import Execution

PF = 1.0 / 3.0 + (2.0 / 3.0) * 0.3


def make_pitch(family: str, mean_nm: float, shape_param: float):
    if family == "exponential":
        return ExponentialPitch(mean_nm)
    if family == "gamma":
        return GammaPitch(mean_nm, cv_value=shape_param)
    return TruncatedNormalPitch(mean_nm, mean_nm * shape_param)


pitch_strategy = st.tuples(
    st.sampled_from(["exponential", "gamma", "truncnorm"]),
    st.floats(min_value=2.0, max_value=12.0),
    st.floats(min_value=0.3, max_value=0.9),
)


class TestWeightProperties:
    @given(
        pitch_args=pitch_strategy,
        mean_factor=st.floats(min_value=1.01, max_value=4.0),
        span_nm=st.floats(min_value=10.0, max_value=250.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_log_weights_finite_and_weights_positive(
        self, pitch_args, mean_factor, span_nm, seed
    ):
        pitch = make_pitch(*pitch_args)
        tilt = pitch.exponential_tilt(mean_factor)
        batch, log_w = sample_weighted_track_batch(
            tilt, span_nm, 64, np.random.default_rng(seed)
        )
        assert log_w.shape == (64,)
        # Positivity and finiteness live in log space: exp(log_w) can
        # underflow to zero for deliberately absurd tilts, but the log
        # weight itself must never be NaN/inf.
        assert np.all(np.isfinite(log_w))
        weights = np.exp(log_w)
        assert np.all(weights >= 0.0)
        assert np.all(weights[log_w > -700.0] > 0.0)
        # The batch must still satisfy the engine contract.
        assert np.all(batch.positions[:, -1] > span_nm)

    @given(
        pitch_args=pitch_strategy,
        mean_factor=st.floats(min_value=1.01, max_value=4.0),
        span_nm=st.floats(min_value=10.0, max_value=250.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_full_span_query_reproduces_trial_weight(
        self, pitch_args, mean_factor, span_nm, seed
    ):
        # A window query whose upper bound is the whole span must stop at
        # exactly the same gap as the per-trial weight — the two code paths
        # (per-trial and per-query) must agree bitwise.
        pitch = make_pitch(*pitch_args)
        tilt = pitch.exponential_tilt(mean_factor)
        batch, log_w = sample_weighted_track_batch(
            tilt, span_nm, 32, np.random.default_rng(seed)
        )
        trial_index = np.arange(32)
        hi = np.full(32, batch.span_nm)
        per_query = window_stopped_log_weights(batch, tilt, hi, trial_index)
        np.testing.assert_array_equal(per_query, log_w)

    @given(
        mean_factor=st.floats(min_value=1.05, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_stopped_weights_shrink_with_window_altitude(
        self, mean_factor, seed
    ):
        # Stopping earlier can only discard gaps: a query at a lower bound
        # must consume no more gaps than one at a higher bound.
        pitch = ExponentialPitch(4.0)
        tilt = pitch.exponential_tilt(mean_factor)
        batch, _ = sample_weighted_track_batch(
            tilt, 200.0, 16, np.random.default_rng(seed)
        )
        trial_index = np.tile(np.arange(16), 2)
        hi = np.concatenate([np.full(16, 50.0), np.full(16, 200.0)])
        log_w = window_stopped_log_weights(batch, tilt, hi, trial_index)
        low, high = log_w[:16], log_w[16:]
        # The stopped gap count must be monotone in the bound, and both
        # weight sets must stay finite.
        stops_low = np.sum(batch.positions <= 50.0, axis=1)
        stops_high = np.sum(batch.positions <= 200.0, axis=1)
        assert np.all(stops_low <= stops_high)
        assert np.all(np.isfinite(low)) and np.all(np.isfinite(high))

    def test_out_of_span_query_rejected(self):
        pitch = ExponentialPitch(4.0)
        tilt = pitch.exponential_tilt(2.0)
        batch, _ = sample_weighted_track_batch(
            tilt, 50.0, 4, np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="span"):
            window_stopped_log_weights(
                batch, tilt, np.array([60.0]), np.array([0])
            )


class TestEstimatorInvariance:
    """Mirrors PR 1's bitwise-invariance tests for the weighted estimator."""

    @pytest.mark.parametrize("n_samples", [1_000, 2_048, 777])
    def test_bitwise_invariant_to_n_workers(self, n_samples):
        pitch = ExponentialPitch(4.0)
        results = [
            estimate_device_failure_tilted(
                pitch, PF, 120.0, n_samples, np.random.default_rng(7),
                execution=Execution(n_workers=n_workers),
            )
            for n_workers in (1, 2, 3)
        ]
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_statistically_invariant_to_chunk_size(self, seed, monkeypatch):
        # Different chunk sizes consume different spawn-key streams, so the
        # invariance is statistical (same law), exactly as for the naive
        # engine's chunking test.
        pitch = ExponentialPitch(4.0)
        a = estimate_device_failure_tilted(
            pitch, PF, 120.0, 8_000, np.random.default_rng(seed),
        )
        monkeypatch.setattr(engine, "DEFAULT_BATCH_ELEMENTS", 2_000)
        b = estimate_device_failure_tilted(
            pitch, PF, 120.0, 8_000, np.random.default_rng(seed),
        )
        se = math.hypot(a.standard_error, b.standard_error)
        assert abs(a.estimate - b.estimate) <= 5.0 * se

    def test_seed_reproducibility(self):
        pitch = GammaPitch(4.0, 0.5)
        a = estimate_device_failure_tilted(
            pitch, PF, 80.0, 4_000, np.random.default_rng(99)
        )
        b = estimate_device_failure_tilted(
            pitch, PF, 80.0, 4_000, np.random.default_rng(99)
        )
        assert a == b
