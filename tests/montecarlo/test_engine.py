"""Unit tests for the vectorized batched Monte Carlo engine."""

import math

import numpy as np
import pytest

import repro.montecarlo.engine as engine
from repro.cells.nangate45 import build_nangate45_library
from repro.growth.pitch import DeterministicPitch, ExponentialPitch, GammaPitch
from repro.growth.types import CNTTypeModel
from repro.montecarlo.chip_sim import ChipMonteCarlo
from repro.montecarlo.engine import (
    BLOCK,
    TrackBatch,
    chunk_sizes,
    count_in_windows,
    count_in_windows_flat,
    run_chunked,
    sample_track_batch,
    sample_track_counts,
    spawn_streams,
    tight_gap_budget,
)
from repro.netlist.design import Design
from repro.netlist.placement import RowPlacement


def _brute_force_counts(batch, weights, lo, hi):
    """Reference O(trials * windows * slots) window counter."""
    n_trials, n_windows = lo.shape
    out = np.zeros((n_trials, n_windows))
    for t in range(n_trials):
        for w in range(n_windows):
            in_window = (
                (batch.positions[t] >= lo[t, w])
                & (batch.positions[t] <= hi[t, w])
            )
            out[t, w] = weights[t][in_window].sum()
    return out


class TestSampleTrackBatch:
    def test_positions_sorted_and_valid_in_span(self, rng):
        batch = sample_track_batch(ExponentialPitch(4.0), 200.0, 64, rng)
        assert batch.positions.shape[0] == 64
        assert np.all(np.diff(batch.positions, axis=1) >= 0.0)
        in_span = batch.positions[batch.valid]
        assert np.all((in_span >= 0.0) & (in_span <= 200.0))
        # Every trial's gap budget cleared the span.
        assert np.all(batch.positions[:, -1] > 200.0)

    def test_poisson_count_statistics(self, rng):
        # Exponential gaps started at a uniform offset form a Poisson
        # process, so counts over W are Poisson(W / mean).
        batch = sample_track_batch(ExponentialPitch(4.0), 400.0, 4_000, rng)
        counts = batch.counts()
        assert counts.mean() == pytest.approx(100.0, rel=0.05)
        assert counts.var() == pytest.approx(100.0, rel=0.15)

    def test_deterministic_pitch_exact_counts(self, rng):
        # With a perfectly regular 5 nm array and a start offset in
        # (-5, 0], exactly ceil(span / pitch) tracks land in [0, span]
        # unless a track hits the boundary (measure zero for the uniform
        # offset).
        batch = sample_track_batch(DeterministicPitch(5.0), 102.5, 256, rng)
        counts = batch.counts()
        assert np.all((counts == 20) | (counts == 21))

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError):
            sample_track_batch(ExponentialPitch(4.0), 100.0, 0, rng)
        with pytest.raises(ValueError):
            sample_track_batch(ExponentialPitch(4.0), -1.0, 4, rng)


@pytest.fixture
def one_block_budget(monkeypatch):
    """Force multi-round top-ups: every first draw is a single block."""
    monkeypatch.setattr(engine, "tight_gap_budget", lambda pitch, span: BLOCK)


def _assert_top_up_invariants(batch, budget):
    """Rows sorted, last slot beyond the span, padding finite and invalid."""
    positions, span = batch.positions, batch.span_nm
    assert np.all(np.isfinite(positions))
    assert np.all(np.diff(positions, axis=1) >= 0.0)
    assert np.all(positions[:, -1] > span)
    slots = np.arange(positions.shape[1])[None, :]
    first_out = np.argmax(positions > span, axis=1)[:, None]
    assert not np.any(batch.valid & (slots >= first_out))
    # Blocks appended after a trial cleared the span repeat the last track
    # of the draw that cleared it.
    cleared_at = np.where(
        first_out < budget,
        budget - 1,
        budget - 1 + ((first_out - budget) // BLOCK + 1) * BLOCK,
    )
    rows = np.arange(positions.shape[0])[:, None]
    padding = slots > cleared_at
    assert np.any(padding)
    repeated = np.broadcast_to(positions[rows, cleared_at], positions.shape)
    np.testing.assert_array_equal(positions[padding], repeated[padding])


class TestTopUps:
    """Exact per-trial top-ups when the tight first draw falls short."""

    PITCH = GammaPitch(4.0, 4.0)
    SPAN = 100.0

    def test_high_cv_gamma_tops_up_often_and_repeatedly(self):
        batch = sample_track_batch(
            self.PITCH, self.SPAN, 2_000, np.random.default_rng(1)
        )
        budget = tight_gap_budget(self.PITCH, self.SPAN)
        rounds = (batch.positions.shape[1] - budget) // BLOCK
        topped_up = np.mean(batch.positions[:, budget - 1] <= self.SPAN)
        assert rounds >= 3
        assert topped_up > 0.01
        _assert_top_up_invariants(batch, budget)

    def test_invariants_under_one_block_budget(self, one_block_budget):
        batch = sample_track_batch(
            self.PITCH, self.SPAN, 500, np.random.default_rng(2)
        )
        assert batch.positions.shape[1] > 4 * BLOCK
        _assert_top_up_invariants(batch, BLOCK)

    def test_only_short_trials_draw(self, one_block_budget):
        # One block for the first draw, then one block per short trial per
        # round: the generator is advanced by exactly those draws.
        rng = np.random.default_rng(3)
        batch = sample_track_batch(ExponentialPitch(4.0), 60.0, 64, rng)
        first_out = np.argmax(batch.positions > 60.0, axis=1)
        blocks = first_out // BLOCK + 1
        replay = np.random.default_rng(3)
        replay.random(64)
        replay.standard_exponential((64, BLOCK))
        for r in range(1, blocks.max()):
            replay.standard_exponential((int(np.sum(blocks > r)), BLOCK))
        assert rng.random() == replay.random()

    def test_exponential_counts_are_poisson(self, one_block_budget):
        batch = sample_track_batch(
            ExponentialPitch(4.0), 400.0, 4_000, np.random.default_rng(4)
        )
        counts = batch.counts()
        assert batch.positions.shape[1] >= 12 * BLOCK
        assert counts.mean() == pytest.approx(100.0, rel=0.05)
        assert counts.var() == pytest.approx(100.0, rel=0.15)

    def test_chip_engine_matches_scalar_oracle(self, one_block_budget):
        library = build_nangate45_library()
        design = Design("top_up_block", library)
        for i in range(60):
            design.add(f"u{i}", "INV_X1" if i % 2 == 0 else "NAND2_X1")
        simulator = ChipMonteCarlo(
            RowPlacement(design, row_width_nm=20_000.0),
            pitch=GammaPitch(20.0, 2.0),
            type_model=CNTTypeModel(1.0 / 3.0, 1.0, 0.3),
        )
        batched = simulator.run(200, np.random.default_rng(5))
        scalar = simulator.run_scalar(200, np.random.default_rng(6))
        se = math.sqrt(
            (batched.std_failing_devices ** 2 + scalar.std_failing_devices ** 2)
            / 200
        )
        assert se > 0
        assert abs(batched.mean_failing_devices - scalar.mean_failing_devices) < 5 * se


class TestSampleTrackCounts:
    def test_matches_batch_counts_distribution(self, rng):
        counts = sample_track_counts(ExponentialPitch(4.0), 200.0, 5_000, rng)
        assert counts.shape == (5_000,)
        assert counts.mean() == pytest.approx(50.0, rel=0.05)

    def test_chunked_execution_covers_all_trials(self, rng):
        # Force many internal chunks and check every trial is filled.
        counts = sample_track_counts(
            GammaPitch(4.0, 0.5), 100.0, 1_000, rng, batch_elements=64
        )
        assert counts.shape == (1_000,)
        assert np.all(counts >= 0)
        assert counts.mean() == pytest.approx(25.0, rel=0.1)


class TestCountInWindows:
    def test_matches_brute_force_shared_windows(self, rng):
        batch = sample_track_batch(ExponentialPitch(6.0), 300.0, 32, rng)
        weights = (rng.random(batch.positions.shape) < 0.7) & batch.valid
        lo = np.sort(rng.random(12) * 250.0)
        hi = lo + rng.random(12) * 50.0
        counts = count_in_windows(batch, weights, lo, hi)
        lo2 = np.broadcast_to(lo, (32, 12))
        hi2 = np.broadcast_to(hi, (32, 12))
        np.testing.assert_array_equal(
            counts, _brute_force_counts(batch, weights, lo2, hi2)
        )

    def test_matches_brute_force_per_trial_windows(self, rng):
        batch = sample_track_batch(ExponentialPitch(6.0), 300.0, 16, rng)
        weights = batch.valid.astype(float)
        lo = rng.random((16, 8)) * 250.0
        hi = lo + rng.random((16, 8)) * 40.0
        counts = count_in_windows(batch, weights, lo, hi)
        np.testing.assert_array_equal(
            counts, _brute_force_counts(batch, weights, lo, hi)
        )

    def test_flat_queries_with_trial_index(self, rng):
        batch = sample_track_batch(ExponentialPitch(5.0), 200.0, 8, rng)
        weights = batch.valid
        # Interrogate only trials 2 and 5, twice each, out of order.
        trial_index = np.array([5, 2, 5, 2])
        lo = np.array([0.0, 10.0, 50.0, 0.0])
        hi = np.array([200.0, 60.0, 150.0, 200.0])
        counts = count_in_windows_flat(
            batch.positions, weights, batch.span_nm, lo, hi, trial_index
        )
        assert counts[0] == batch.counts()[5]
        assert counts[3] == batch.counts()[2]

    def test_stacked_weights_match_separate_calls(self, rng):
        # The joint opens+shorts pass: one banding and search pass, one
        # prefix per weight row, bitwise equal to one call per weight.
        batch = sample_track_batch(GammaPitch(5.0, 0.8), 300.0, 24, rng)
        u = rng.random(batch.positions.shape)
        working = (u >= 0.4) & batch.valid
        shorting = (u < 0.05) & batch.valid
        trial_index = rng.integers(0, 24, size=60)
        lo = rng.random(60) * 250.0
        hi = lo + rng.random(60) * 50.0
        args = (batch.span_nm, lo, hi, trial_index)
        stacked, stop = count_in_windows_flat(
            batch.positions, np.stack([working, shorting]), *args,
            return_stop_index=True,
        )
        opens, opens_stop = count_in_windows_flat(
            batch.positions, working, *args, return_stop_index=True
        )
        shorts = count_in_windows_flat(batch.positions, shorting, *args)
        assert stacked.shape == (2, 60)
        np.testing.assert_array_equal(stacked[0], opens)
        np.testing.assert_array_equal(stacked[1], shorts)
        np.testing.assert_array_equal(stop, opens_stop)

    def test_shape_mismatch_rejected(self, rng):
        batch = sample_track_batch(ExponentialPitch(5.0), 100.0, 4, rng)
        with pytest.raises(ValueError):
            count_in_windows(
                batch,
                batch.valid,
                np.zeros((3, 2)),
                np.ones((3, 2)),
            )


class TestStreamsAndChunks:
    def test_spawn_streams_deterministic(self):
        a = spawn_streams(np.random.default_rng(42), 4)
        b = spawn_streams(np.random.default_rng(42), 4)
        for ga, gb in zip(a, b):
            np.testing.assert_array_equal(ga.random(8), gb.random(8))
        with pytest.raises(ValueError):
            spawn_streams(np.random.default_rng(0), 0)

    def test_spawn_streams_independent(self):
        streams = spawn_streams(np.random.default_rng(42), 2)
        assert not np.allclose(streams[0].random(8), streams[1].random(8))

    def test_chunk_sizes(self):
        assert chunk_sizes(10, 4) == [4, 4, 2]
        assert chunk_sizes(8, 4) == [4, 4]
        assert chunk_sizes(3, 100) == [3]
        with pytest.raises(ValueError):
            chunk_sizes(0, 4)
        with pytest.raises(ValueError):
            chunk_sizes(4, 0)


def _sum_of_stream(payload, n_chunk, rng):
    """Picklable worker: per-chunk draws scaled by the payload."""
    return (payload * rng.random(n_chunk),)


class TestRunChunked:
    def test_serial_matches_parallel(self):
        serial = run_chunked(
            _sum_of_stream, 2.0, 50, np.random.default_rng(7),
            trial_chunk=13, n_workers=1,
        )
        parallel = run_chunked(
            _sum_of_stream, 2.0, 50, np.random.default_rng(7),
            trial_chunk=13, n_workers=2,
        )
        assert len(serial) == len(parallel) == 4
        for (a,), (b,) in zip(serial, parallel):
            np.testing.assert_array_equal(a, b)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            run_chunked(
                _sum_of_stream, 1.0, 10, np.random.default_rng(0),
                trial_chunk=5, n_workers=0,
            )
