"""Backend conformance suite for the engine and rare-event kernels.

Every kernel of :mod:`repro.montecarlo.engine` and the hot paths of
:mod:`repro.montecarlo.rare_event` run against the NumPy backend in
both dtype policies and are pinned to scalar oracles coded here from
first principles:

* NumPy/float64 is held to *bit identity* against a frozen plain-NumPy
  re-implementation of the slot-major sampler (same draws, same order,
  same stream);
* NumPy/float32 shares the float64 stream (draws are cast after sampling),
  so it is held to dtype-scaled tolerances against the same oracles.

The stopped likelihood-ratio weight path gets its own oracle — it is the
easiest place for a backend port to silently break (an off-by-one stop
index or a dtype promotion changes weights by factors of ``β``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.backend import get_backend, match_dtype
from repro.backend.core import ROW_LOOP_MIN
from repro.growth.pitch import ExponentialPitch, GammaPitch
from repro.montecarlo.engine import (
    BLOCK,
    count_in_windows,
    count_in_windows_flat,
    sample_track_batch,
    tight_gap_budget,
    window_stop_indices,
)
from repro.montecarlo.rare_event import (
    estimate_device_failure_tilted,
    sample_weighted_track_batch,
    window_stopped_log_weights,
)


def tolerance_for(backend) -> float:
    """Dtype-scaled relative tolerance for value comparisons.

    float64 NumPy is held to exact equality elsewhere; this tolerance
    covers float32 storage (~1e-7 rounding amplified through cumsums over
    a few hundred gaps).
    """
    return 5e-4 if backend.dtype == np.dtype(np.float32) else 1e-14


def _reference_sample_track_batch(pitch, span_nm, n_trials, rng):
    """The engine's sampler in plain NumPy, frozen as the bit-identity oracle.

    Slot-major: ``positions[j, t]`` is slot ``j`` of trial ``t``.  Tight
    initial budget with the start offset added to slot 0 before the
    running sum, then per-trial top-ups: each round draws one block of
    gaps for the trials still short of the span only, and the others
    repeat their own last position.  Rows past the last in-span track of
    every trial are dropped, all but the first of them.
    """
    start_offsets = rng.random(n_trials) * pitch.mean_nm
    gaps = pitch.sample_batch((tight_gap_budget(pitch, span_nm), n_trials), rng)
    gaps[0] -= start_offsets
    positions = np.cumsum(gaps, axis=0)
    while np.any(positions[-1] <= span_nm):
        short = np.flatnonzero(positions[-1] <= span_nm)
        extra = pitch.sample_batch((BLOCK, short.size), rng)
        tail = np.repeat(positions[-1:], BLOCK, axis=0)
        tail[:, short] += np.cumsum(extra, axis=0)
        positions = np.concatenate([positions, tail], axis=0)
    keep = positions.shape[0]
    while keep > 1 and np.all(positions[keep - 2] > span_nm):
        keep -= 1
    positions = positions[:keep]
    valid = (positions >= 0.0) & (positions <= span_nm)
    return positions, valid, start_offsets


def _brute_force_counts(positions, weights, lo, hi, trial_index):
    out = np.zeros(lo.size)
    for q in range(lo.size):
        column = positions[:, trial_index[q]]
        mask = (column >= lo[q]) & (column <= hi[q])
        out[q] = weights[:, trial_index[q]][mask].sum()
    return out


class TestSampleTrackBatch:
    # 128 trials sum with ``np.cumsum(axis=0)``, 600 with one add per row.
    @pytest.mark.parametrize("n_trials", [128, 600])
    def test_numpy_float64_bit_identical_to_reference_sampler(
        self, reference_backend, n_trials
    ):
        pitch = GammaPitch(5.0, 0.6)
        oracle_pos, oracle_valid, oracle_off = _reference_sample_track_batch(
            pitch, 240.0, n_trials, np.random.default_rng(2010)
        )
        batch = sample_track_batch(
            pitch, 240.0, n_trials, np.random.default_rng(2010),
            backend=reference_backend,
        )
        np.testing.assert_array_equal(batch.positions, oracle_pos)
        np.testing.assert_array_equal(batch.valid, oracle_valid)
        np.testing.assert_array_equal(batch.start_offsets, oracle_off)

    def test_poisson_count_statistics(self, backend):
        # Exponential gaps + uniform offset = Poisson counts over the span,
        # whatever the backend or dtype.
        batch = sample_track_batch(
            ExponentialPitch(4.0), 400.0, 4_000, np.random.default_rng(42),
            backend=backend,
        )
        counts = batch.counts()
        assert counts.mean() == pytest.approx(100.0, rel=0.05)
        assert counts.var() == pytest.approx(100.0, rel=0.15)

    def test_positions_sorted_and_dtype_policy_respected(self, backend):
        batch = sample_track_batch(
            GammaPitch(6.0, 0.8), 300.0, 64, np.random.default_rng(3),
            backend=backend,
        )
        positions = batch.positions
        assert positions.dtype == backend.dtype
        assert np.all(np.diff(positions, axis=0) >= 0.0)
        in_span = positions[batch.valid]
        assert np.all((in_span >= 0.0) & (in_span <= 300.0))

    def test_float32_counts_match_float64_stream(self):
        # The NumPy float32 policy consumes the same draws as float64;
        # integer counts may differ only where a track sits within
        # rounding distance of a window edge (none, at these sizes).
        b32 = get_backend(dtype="float32")
        b64 = get_backend(dtype="float64")
        c32 = sample_track_batch(
            ExponentialPitch(4.0), 200.0, 2_000, np.random.default_rng(11),
            backend=b32,
        ).counts()
        c64 = sample_track_batch(
            ExponentialPitch(4.0), 200.0, 2_000, np.random.default_rng(11),
            backend=b64,
        ).counts()
        assert np.mean(c32 == c64) > 0.999


class TestWindowCounting:
    def test_counts_match_brute_force(self, backend):
        batch = sample_track_batch(
            ExponentialPitch(6.0), 300.0, 48, np.random.default_rng(5),
            backend=backend,
        )
        positions = batch.positions
        weights = (
            (np.random.default_rng(6).random(positions.shape) < 0.7)
            & batch.valid
        )
        host_rng = np.random.default_rng(7)
        lo = host_rng.random(40) * 250.0
        hi = lo + host_rng.random(40) * 45.0
        trial_index = host_rng.integers(0, 48, size=40)
        counts = count_in_windows_flat(
            positions,
            np.asarray(weights, dtype=backend.dtype),
            lo, hi, trial_index,
            backend=backend,
        )
        expected = _brute_force_counts(
            positions.astype(float), weights, lo, hi, trial_index
        )
        # Counts of 0/1 weights accumulate exactly in the float64
        # accumulator; float32 *positions* can flip a window decision only
        # within rounding distance of an edge (none for these draws).
        np.testing.assert_allclose(counts, expected, atol=1e-9)

    def test_grid_counts_match_flat(self, backend):
        batch = sample_track_batch(
            GammaPitch(5.0, 0.5), 200.0, 16, np.random.default_rng(9),
            backend=backend,
        )
        weights = np.asarray(batch.valid, dtype=backend.dtype)
        lo = np.linspace(0.0, 150.0, 7)
        hi = lo + 40.0
        grid = count_in_windows(batch, weights, lo, hi, backend=backend)
        flat = count_in_windows_flat(
            batch.positions, weights,
            np.tile(lo, 16), np.tile(hi, 16), np.repeat(np.arange(16), 7),
            backend=backend,
        ).reshape(16, 7)
        np.testing.assert_array_equal(grid, flat)

    def test_stop_indices_match_scan(self, backend):
        batch = sample_track_batch(
            ExponentialPitch(5.0), 150.0, 32, np.random.default_rng(13),
            backend=backend,
        )
        positions = batch.positions
        host_rng = np.random.default_rng(14)
        hi = host_rng.random(20) * 150.0
        trial_index = host_rng.integers(0, 32, size=20)
        got = window_stop_indices(positions, hi, trial_index)
        expected = np.array([
            np.searchsorted(positions[:, trial_index[q]], hi[q], side="right")
            for q in range(20)
        ])
        np.testing.assert_array_equal(got, expected)


class TestStoppedLikelihoodRatios:
    """The stopped-LR weight path — the easiest place to silently break."""

    def _scalar_log_weights(self, positions, offsets, tilt, hi, trial_index):
        out = np.empty(hi.size)
        for q in range(hi.size):
            column = positions[:, trial_index[q]]
            stop = int(np.searchsorted(column, hi[q], side="right"))
            gap_sum = column[stop] + offsets[trial_index[q]]
            out[q] = (
                (stop + 1) * tilt.log_const_per_gap
                + gap_sum * tilt.log_slope_per_nm
            )
        return out

    def test_full_span_weights_match_scalar_oracle(self, backend):
        tilt = GammaPitch(4.0, 0.7).exponential_tilt(2.0)
        batch, log_w = sample_weighted_track_batch(
            tilt, 120.0, 64, np.random.default_rng(17), backend=backend
        )
        positions = batch.positions.astype(float)
        offsets = batch.start_offsets.astype(float)
        expected = np.empty(64)
        for t in range(64):
            stop = int(np.sum(positions[:, t] <= 120.0))
            gap_sum = positions[stop, t] + offsets[t]
            expected[t] = (
                (stop + 1) * tilt.log_const_per_gap
                + gap_sum * tilt.log_slope_per_nm
            )
        np.testing.assert_allclose(
            log_w, expected, rtol=tolerance_for(backend),
            atol=1e-6 if backend.dtype == np.dtype(np.float32) else 1e-12,
        )

    def test_window_stopped_weights_match_scalar_oracle(self, backend):
        tilt = ExponentialPitch(5.0).exponential_tilt(3.0)
        batch, _ = sample_weighted_track_batch(
            tilt, 200.0, 32, np.random.default_rng(19), backend=backend
        )
        host_rng = np.random.default_rng(20)
        hi = host_rng.random(25) * 200.0
        trial_index = host_rng.integers(0, 32, size=25)
        log_w = window_stopped_log_weights(
            batch, tilt, hi, trial_index, backend=backend
        )
        positions = batch.positions.astype(float)
        offsets = batch.start_offsets.astype(float)
        expected = self._scalar_log_weights(
            positions, offsets, tilt, hi, trial_index
        )
        np.testing.assert_allclose(
            log_w, expected, rtol=tolerance_for(backend),
            atol=1e-6 if backend.dtype == np.dtype(np.float32) else 1e-12,
        )

    def test_weights_are_unbiased_against_nominal_sampling(self, backend):
        # E_tilted[w] = 1 for the stopped trajectory: the weighted trial
        # count must reproduce the unweighted one within tolerance.
        tilt = ExponentialPitch(4.0).exponential_tilt(2.5)
        _, log_w = sample_weighted_track_batch(
            tilt, 80.0, 20_000, np.random.default_rng(23), backend=backend
        )
        w = np.exp(log_w.astype(float))
        assert w.mean() == pytest.approx(1.0, abs=4.0 * w.std() / math.sqrt(w.size))


class TestTiltedEstimator:
    def test_float64_reference_value(self, reference_backend):
        est = estimate_device_failure_tilted(
            GammaPitch(4.0, 0.7), 0.55, 120.0, 2048,
            np.random.default_rng(20100618), backend=reference_backend,
        )
        # Exact value pinned by tests/fixtures/golden_engine_values.json;
        # here we only anchor the magnitude so this test stays meaningful
        # for every backend param through the shared helper below.
        assert est.estimate == pytest.approx(1.8748722358075324e-07, rel=1e-12)

    def test_matches_reference_within_dtype_tolerance(self, backend):
        est = estimate_device_failure_tilted(
            GammaPitch(4.0, 0.7), 0.55, 120.0, 4096,
            np.random.default_rng(29), backend=backend,
        )
        reference = estimate_device_failure_tilted(
            GammaPitch(4.0, 0.7), 0.55, 120.0, 4096,
            np.random.default_rng(29),
            backend=get_backend(dtype="float64"),
        )
        assert est.estimate == pytest.approx(
            reference.estimate, rel=max(tolerance_for(backend), 1e-15)
        )

    def test_casting_helper_round_trip(self, backend):
        base = np.asarray(np.linspace(0.0, 1.0, 8), dtype=backend.dtype)
        cast = match_dtype(np.arange(4, dtype=np.float64), base)
        assert cast.dtype == backend.dtype
        np.testing.assert_array_equal(cast, np.arange(4))


class TestAccumulationRule:
    """The row loop and ``np.cumsum(axis=0)`` give the same bits.

    Batches at least :data:`~repro.backend.core.ROW_LOOP_MIN` trials wide
    are summed one row add at a time, narrower ones by ``np.cumsum``;
    both widths run here, so both paths are covered and compared with a
    plain ``np.cumsum`` down the slot axis.
    """

    WIDTHS = (ROW_LOOP_MIN - 1, ROW_LOOP_MIN, 3 * ROW_LOOP_MIN + 5)

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_in_place_cumsum_matches_numpy(self, backend, width, dtype):
        a = np.random.default_rng(width).exponential(4.0, (57, width))
        a = a.astype(dtype)
        want = np.cumsum(a, axis=0)
        got = backend.cumsum(a, axis=0)
        assert got is a
        assert got.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_running_counts_match_numpy(self, backend, width):
        rng = np.random.default_rng(width)
        tubes = rng.random((57, width)) < 0.6
        values = rng.exponential(4.0, (57, width)).astype(backend.dtype)
        for weights, dtype in ((tubes, np.int32), (values, backend.accum_dtype)):
            running = backend.prefix_sum(weights, 40)
            assert running.shape == (41, width)
            assert running.dtype == dtype
            np.testing.assert_array_equal(running[0], 0)
            np.testing.assert_array_equal(
                running[1:], np.cumsum(weights[:40], axis=0, dtype=dtype)
            )
