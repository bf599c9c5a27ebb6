"""Unit tests for the vectorized batched Monte Carlo engine."""

import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.montecarlo.engine as engine
from repro.backend import get_backend
from repro.cells.nangate45 import build_nangate45_library
from repro.growth.pitch import DeterministicPitch, ExponentialPitch, GammaPitch
from repro.growth.types import CNTTypeModel
from repro.montecarlo.chip_sim import ChipMonteCarlo
from repro.montecarlo.engine import (
    BLOCK,
    TOP_UP_ROWS,
    TrackBatch,
    chunk_sizes,
    count_in_windows,
    count_in_windows_flat,
    count_leq_rows,
    run_chunked,
    sample_track_batch,
    sample_track_counts,
    tight_gap_budget,
)
from repro.netlist.design import Design
from repro.netlist.placement import RowPlacement
from repro.resilience import Execution, SupervisorError


def _brute_force_counts(batch, weights, lo, hi):
    """Reference O(trials * windows * slots) window counter."""
    n_trials, n_windows = lo.shape
    out = np.zeros((n_trials, n_windows))
    for t in range(n_trials):
        for w in range(n_windows):
            in_window = (
                (batch.positions[:, t] >= lo[t, w])
                & (batch.positions[:, t] <= hi[t, w])
            )
            out[t, w] = weights[:, t][in_window].sum()
    return out


class TestSampleTrackBatch:
    def test_positions_sorted_and_valid_in_span(self, rng):
        batch = sample_track_batch(ExponentialPitch(4.0), 200.0, 64, rng)
        assert batch.positions.shape[1] == 64
        assert np.all(np.diff(batch.positions, axis=0) >= 0.0)
        in_span = batch.positions[batch.valid]
        assert np.all((in_span >= 0.0) & (in_span <= 200.0))
        # Every trial's gap budget cleared the span.
        assert np.all(batch.positions[-1] > 200.0)
        # Only the last row is beyond the span in every column.
        assert np.any(batch.positions[-2] <= 200.0)

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
    """Columns sorted, last slot beyond the span, padding finite and invalid."""
    positions, span = batch.positions, batch.span_nm
    assert np.all(np.isfinite(positions))
    assert np.all(np.diff(positions, axis=0) >= 0.0)
    assert np.all(positions[-1] > span)
    slots = np.arange(positions.shape[0])[:, None]
    first_out = np.argmax(positions > span, axis=0)[None, :]
    assert not np.any(batch.valid & (slots >= first_out))
    # Blocks appended after a trial cleared the span repeat the last track
    # of the draw that cleared it (or of the kept rows, when the rows past
    # every trial's last in-span track were dropped).
    cleared_at = np.minimum(
        np.where(
            first_out < budget,
            budget - 1,
            budget - 1 + ((first_out - budget) // BLOCK + 1) * BLOCK,
        ),
        positions.shape[0] - 1,
    )
    columns = np.arange(positions.shape[1])[None, :]
    padding = slots > cleared_at
    assert np.any(padding)
    repeated = np.broadcast_to(positions[cleared_at, columns], positions.shape)
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
        rounds = -(-(batch.positions.shape[0] - budget) // BLOCK)
        topped_up = np.mean(batch.positions[budget - 1] <= self.SPAN)
        assert rounds >= 3
        assert topped_up > 0.01
        _assert_top_up_invariants(batch, budget)

    def test_invariants_under_one_block_budget(self, one_block_budget):
        batch = sample_track_batch(
            self.PITCH, self.SPAN, 500, np.random.default_rng(2)
        )
        assert batch.positions.shape[0] > 4 * BLOCK
        _assert_top_up_invariants(batch, BLOCK)

    def test_only_short_trials_draw(self, one_block_budget):
        # One block for the first draw, then one block per short trial per
        # round: the generator is advanced by exactly those draws.
        rng = np.random.default_rng(3)
        batch = sample_track_batch(ExponentialPitch(4.0), 60.0, 64, rng)
        first_out = np.argmax(batch.positions > 60.0, axis=0)
        blocks = first_out // BLOCK + 1
        replay = np.random.default_rng(3)
        replay.random(64)
        replay.standard_exponential((BLOCK, 64))
        for r in range(1, blocks.max()):
            replay.standard_exponential((BLOCK, int(np.sum(blocks > r))))
        assert rng.random() == replay.random()

    def test_exponential_counts_are_poisson(self, one_block_budget):
        batch = sample_track_batch(
            ExponentialPitch(4.0), 400.0, 4_000, np.random.default_rng(4)
        )
        counts = batch.counts()
        assert batch.positions.shape[0] >= 12 * BLOCK
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

    def test_chunked_execution_covers_all_trials(self, rng, monkeypatch):
        # Force many internal chunks and check every trial is filled.
        monkeypatch.setattr(engine, "DEFAULT_BATCH_ELEMENTS", 64)
        counts = sample_track_counts(GammaPitch(4.0, 0.5), 100.0, 1_000, rng)
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
            batch.positions, weights, lo, hi, trial_index
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
        args = (lo, hi, trial_index)
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


def _searchsorted_oracle(positions, bounds, columns=None, side="right"):
    """Per-query ``searchsorted`` of the bound into its trial's column.

    ``side="right"`` counts the column's slots <= bound, ``"left"`` those
    < bound.  Without ``columns`` bound column ``t`` queries trial ``t``.
    """
    if columns is None:
        return np.array([
            np.searchsorted(positions[:, t], bounds[:, t], side=side)
            for t in range(positions.shape[1])
        ]).T
    return np.array([
        np.searchsorted(positions[:, t], b, side=side)
        for t, b in zip(columns, bounds)
    ])


def _padded_columns(rng, n_trials, n_slots, dtype):
    """Sorted slot-major columns of positive-gap sums, each ending in +inf padding.

    Returns the ``(n_slots, n_trials)`` positions and each trial's number
    of finite slots.
    """
    positions = np.cumsum(rng.exponential(4.0, (n_slots, n_trials)), axis=0)
    positions = positions.astype(dtype)
    filled = rng.integers(1, n_slots + 1, size=n_trials)
    positions[np.arange(n_slots)[:, None] >= filled[None, :]] = np.inf
    return positions, filled


def _edge_bounds(rng, positions, filled):
    """Float64 bounds below every slot, above every slot and on a slot.

    Returns the ``(3, n_trials)`` bounds and the counts they must produce.
    """
    n_trials = positions.shape[1]
    above = float(np.max(np.where(np.isinf(positions), 0.0, positions))) + 1.0
    slot = rng.integers(0, filled)
    bounds = np.vstack([
        np.full(n_trials, -1.0),
        np.full(n_trials, above),
        positions[slot, np.arange(n_trials)],
    ])
    return bounds, np.vstack([np.zeros(n_trials), filled, slot + 1])


class TestCountLeqRows:
    """The column-local search of the wafer and chip tiers against per-trial searchsorted."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_trials=st.integers(1, 40),
        n_slots=st.integers(1, 130),
        n_between=st.integers(0, 5),
        dtype=st.sampled_from([np.float64, np.float32]),
        side=st.sampled_from(["left", "right"]),
    )
    def test_matches_searchsorted(
        self, seed, n_trials, n_slots, n_between, dtype, side
    ):
        rng = np.random.default_rng(seed)
        positions, filled = _padded_columns(rng, n_trials, n_slots, dtype)
        edges, _ = _edge_bounds(rng, positions, filled)
        between = rng.uniform(-1.0, edges[1, 0], (n_between, n_trials))
        # Bounds stay float64 whatever the positions' dtype.
        bounds = np.vstack([edges, between])
        np.testing.assert_array_equal(
            count_leq_rows(positions, bounds, side=side),
            _searchsorted_oracle(positions, bounds, side=side),
        )

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_trials=st.integers(1, 40),
        n_slots=st.integers(1, 130),
        n_queries=st.integers(1, 60),
        dtype=st.sampled_from([np.float64, np.float32]),
        bound_dtype=st.sampled_from([np.float64, np.float32]),
        side=st.sampled_from(["left", "right"]),
    )
    def test_per_query_columns_match_searchsorted(
        self, seed, n_trials, n_slots, n_queries, dtype, bound_dtype, side
    ):
        # The flat ``(trial_index, bound)`` form: each query names its own
        # trial, repeated and in any order, as the chip window lists do.
        rng = np.random.default_rng(seed)
        positions, filled = _padded_columns(rng, n_trials, n_slots, dtype)
        columns = rng.integers(0, n_trials, size=n_queries)
        on_slot = positions[rng.integers(0, filled[columns]), columns]
        kind = rng.integers(0, 4, size=n_queries)
        bounds = np.choose(kind, [
            on_slot,
            np.full(n_queries, -1.0),
            np.full(n_queries, np.inf),
            rng.uniform(-1.0, 4.0 * n_slots + 1.0, n_queries),
        ]).astype(bound_dtype)
        np.testing.assert_array_equal(
            count_leq_rows(positions, bounds, columns, side=side),
            _searchsorted_oracle(positions, bounds, columns, side=side),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_trials=st.integers(1, 40),
        span=st.floats(320.0, 400.0),
        n_queries=st.integers(1, 60),
        dtype=st.sampled_from(["float64", "float32"]),
        side=st.sampled_from(["left", "right"]),
    )
    def test_matches_searchsorted_on_topped_up_batches(
        self, seed, n_trials, span, n_queries, dtype, side
    ):
        # A one-block first draw leaves every trial short of spans this
        # wide for more top-up rounds than the spare rows hold, so the
        # batch moves to a grown buffer; trials that cleared the span
        # repeat their last position, runs of ties the search must count.
        rng = np.random.default_rng(seed)
        with mock.patch.object(engine, "tight_gap_budget", lambda p, s: BLOCK):
            batch = sample_track_batch(
                ExponentialPitch(4.0), span, n_trials, rng,
                backend=get_backend(dtype=dtype),
            )
        positions = batch.positions
        assert positions.shape[0] > BLOCK + TOP_UP_ROWS
        assert positions.dtype == np.dtype(dtype)
        columns = rng.integers(0, n_trials, size=n_queries)
        on_slot = positions[
            rng.integers(0, positions.shape[0], size=n_queries), columns
        ]
        # Float64 bounds: on a slot (ties on both sides), between slots,
        # below and beyond every slot.
        bounds = np.choose(rng.integers(0, 4, size=n_queries), [
            on_slot.astype(np.float64),
            rng.uniform(-5.0, span + 5.0, n_queries),
            np.full(n_queries, -5.0),
            np.full(n_queries, np.inf),
        ])
        np.testing.assert_array_equal(
            count_leq_rows(positions, bounds, columns, side=side),
            _searchsorted_oracle(positions, bounds, columns, side=side),
        )

    def test_side_left_excludes_a_bound_on_a_slot(self):
        positions = np.array([[1.0, 2.0, 2.0, 5.0], [0.5, 2.0, 3.0, np.inf]]).T
        columns = np.array([1, 0, 0, 1])
        bounds = np.array([2.0, 2.0, 5.0, 9.0])
        np.testing.assert_array_equal(
            count_leq_rows(positions, bounds, columns, side="left"), [1, 1, 3, 3]
        )
        np.testing.assert_array_equal(
            count_leq_rows(positions, bounds, columns), [2, 3, 4, 3]
        )
        with pytest.raises(ValueError, match="side"):
            count_leq_rows(positions, bounds, columns, side="middle")

    @pytest.mark.parametrize(
        "n_slots", [1, 2, 3, 7, 8, 9, 56, 64, 65, 104, 128, 129, 130]
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_edges_at_every_width(self, n_slots, dtype):
        rng = np.random.default_rng(n_slots)
        positions, filled = _padded_columns(rng, 25, n_slots, dtype)
        bounds, expected = _edge_bounds(rng, positions, filled)
        np.testing.assert_array_equal(count_leq_rows(positions, bounds), expected)

    def test_bound_equal_to_float32_slot_is_inclusive(self):
        positions = np.array([[1.5], [2.25], [7.0], [np.inf]], dtype=np.float32)
        bounds = np.array([[1.5], [2.25], [2.2499999], [7.0], [1e30]])
        np.testing.assert_array_equal(
            count_leq_rows(positions, bounds), [[1], [2], [1], [3], [3]]
        )

    def test_trial_counts_independent_of_batch(self, rng):
        positions, _ = _padded_columns(rng, 30, 24, np.float64)
        bounds = rng.uniform(-1.0, 120.0, (4, 30))
        whole = count_leq_rows(positions, bounds)
        for t in (0, 17, 29):
            np.testing.assert_array_equal(
                count_leq_rows(positions[:, t:t + 1], bounds[:, t:t + 1]),
                whole[:, t:t + 1],
            )


class TestStreamsAndChunks:
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


def _claim_first_call(marker):
    """True for exactly one caller across processes: it creates ``marker``."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def _fail_first_call(payload, n_chunk, rng):
    """Picklable worker whose first call anywhere raises or kills its process."""
    marker, mode = payload
    if _claim_first_call(marker):
        if mode == "exit":
            os._exit(1)
        raise RuntimeError("transient worker failure")
    return (rng.random(n_chunk),)


def _always_fails(payload, n_chunk, rng):
    """Picklable worker that always raises."""
    raise ValueError("bad chunk")


class TestRunChunked:
    def test_serial_matches_parallel(self):
        serial = run_chunked(
            _sum_of_stream, 2.0, 50, np.random.default_rng(7),
            trial_chunk=13, execution=Execution(n_workers=1),
        )
        parallel = run_chunked(
            _sum_of_stream, 2.0, 50, np.random.default_rng(7),
            trial_chunk=13, execution=Execution(n_workers=2),
        )
        assert len(serial) == len(parallel) == 4
        for (a,), (b,) in zip(serial, parallel):
            np.testing.assert_array_equal(a, b)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            run_chunked(
                _sum_of_stream, 1.0, 10, np.random.default_rng(0),
                trial_chunk=5, execution=Execution(n_workers=0),
            )

    def _assert_recovers(self, tmp_path, mode, n_workers):
        # A pre-existing marker means the worker never fails: the reference.
        (tmp_path / "done").touch()
        clean = run_chunked(
            _fail_first_call, (str(tmp_path / "done"), mode), 50,
            np.random.default_rng(7), trial_chunk=13,
        )
        marker = tmp_path / "failed-once"
        recovered = run_chunked(
            _fail_first_call, (str(marker), mode), 50,
            np.random.default_rng(7), trial_chunk=13,
            execution=Execution(n_workers=n_workers),
        )
        assert marker.exists()  # the first call really failed
        assert len(clean) == len(recovered) == 4
        for (a,), (b,) in zip(clean, recovered):
            np.testing.assert_array_equal(a, b)

    def test_plain_run_retries_a_failed_chunk(self, tmp_path):
        # Every run goes through the supervised executor, so a plain
        # in-process run (no policy, no checkpoint) retries the chunk from
        # its seed sequence and returns exactly the undisturbed result.
        self._assert_recovers(tmp_path, "raise", n_workers=1)

    def test_plain_pool_run_survives_worker_death(self, tmp_path):
        self._assert_recovers(tmp_path, "exit", n_workers=2)

    def test_persistent_failure_exhausts_default_budget(self):
        with pytest.raises(SupervisorError) as err:
            run_chunked(
                _always_fails, None, 10, np.random.default_rng(0),
                trial_chunk=5,
            )
        assert err.value.attempts == 3
        assert isinstance(err.value.__cause__, ValueError)
