"""Dtype policy, float32 window-count exactness, and backend selection tests.

Under the float32 policy the engine casts window bounds to the float32
positions dtype (:func:`~repro.backend.match_dtype`) instead of letting
NumPy promote, and counts each window by comparing only its own trial's
float32 positions with those float32 bounds.  These tests pin the cast
helper and check that a float32 window count is exactly the count of
the same float32 positions inside the same float32 bounds, however many
trials share the batch.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.backend import (
    default_backend,
    get_backend,
    match_dtype,
    resolve_dtype,
)
from repro.montecarlo.chip_sim import ChipMonteCarlo
from repro.montecarlo.engine import (
    count_in_windows_flat,
    sample_track_batch,
)
from repro.growth.pitch import ExponentialPitch
from repro.netlist.openrisc import build_openrisc_like_design
from repro.netlist.placement import RowPlacement


class TestMatchDtype:
    def test_casts_down_to_float32(self):
        out = match_dtype(np.array([1.0, 2.0]), np.empty(1, dtype=np.float32))
        assert out.dtype == np.float32

    def test_no_copy_when_already_matching(self):
        values = np.array([1.0, 2.0], dtype=np.float32)
        assert match_dtype(values, np.empty(1, dtype=np.float32)) is values

    def test_casts_lists_and_scalars(self):
        out = match_dtype([1.0, 2.5], np.empty(1, dtype=np.float64))
        assert out.dtype == np.float64


class TestFloat32PipelineStaysFloat32:
    """Audit: no step of the float32 window-count path promotes to float64."""

    def test_float64_queries_are_cast_not_promoted(self):
        b32 = get_backend(dtype="float32")
        batch = sample_track_batch(
            ExponentialPitch(4.0), 100.0, 8, np.random.default_rng(2),
            backend=b32,
        )
        # Deliberately float64 queries: the engine must cast them to the
        # positions dtype instead of letting NumPy upcast the haystack.
        lo = np.zeros(8, dtype=np.float64)
        hi = np.full(8, 100.0, dtype=np.float64)
        counts = count_in_windows_flat(
            batch.positions,
            batch.valid.astype(np.float32),
            lo, hi, np.arange(8),
            backend=b32,
        )
        np.testing.assert_array_equal(counts, np.asarray(batch.counts()))
        # Accumulation stays in the accumulator dtype (float64 default).
        assert counts.dtype == b32.accum_dtype

    def test_accumulator_dtype_is_configurable(self):
        b = get_backend(dtype="float32", accum_dtype="float32")
        assert b.prefix_sum(np.ones(4, dtype=np.float32)).dtype == np.float32

    def test_track_just_above_window_in_last_row(self):
        # A track 1e-4 nm above ``hi`` in the last of 1,000 trials: an
        # offset of ~1e5 nm per trial index would round it onto ``hi`` in
        # float32.
        b32 = get_backend(dtype="float32")
        positions = np.tile(np.float32([[10.0], [150.0], [200.0]]), (1, 1000))
        positions[:2, -1] = [40.0, np.float32(50.0001)]
        assert positions[1, -1] > np.float32(50.0)
        counts = count_in_windows_flat(
            positions, np.ones(positions.shape, dtype=bool),
            np.float32([30.0]), np.float32([50.0]), np.array([999]),
            backend=b32,
        )
        np.testing.assert_array_equal(counts, [1.0])

    def test_chip_window_counts_are_exact(self, nangate45):
        # The chip tier's flat queries over a batch of ~1,000 rows of
        # ~1,400 nm: every count must equal a direct count of the same
        # float32 positions within the same float32 bounds.
        b32 = get_backend(dtype="float32")
        placement = RowPlacement(
            build_openrisc_like_design(nangate45, scale=0.01, seed=2010),
            row_width_nm=40_000.0,
        )
        geometry = ChipMonteCarlo(
            placement, pitch=ExponentialPitch(4.0), backend=b32
        ).chip_geometry()
        n_chunk = 32
        batch = sample_track_batch(
            geometry.pitch, geometry.row_height_nm, n_chunk * geometry.n_rows,
            np.random.default_rng(4), backend=b32,
        )
        n_windows = geometry.window_lo.size
        trial_index = (
            np.repeat(np.arange(n_chunk) * geometry.n_rows, n_windows)
            + np.tile(geometry.window_row, n_chunk)
        )
        lo = np.tile(geometry.window_lo, n_chunk)
        hi = np.tile(geometry.window_hi, n_chunk)
        counts = count_in_windows_flat(
            batch.positions, batch.valid, lo, hi, trial_index, backend=b32
        )
        columns = batch.positions[:, trial_index].T
        inside = (
            (columns >= lo.astype(np.float32)[:, None])
            & (columns <= hi.astype(np.float32)[:, None])
            & batch.valid[:, trial_index].T
        )
        np.testing.assert_array_equal(counts, inside.sum(axis=1))

    def test_accum_env_variable_uses_alias_resolution(self, monkeypatch):
        import repro.backend.core as core

        monkeypatch.setenv("REPRO_ACCUM_DTYPE", "f32")
        core._CACHE.clear()
        try:
            assert get_backend().accum_dtype == np.dtype(np.float32)
            monkeypatch.setenv("REPRO_ACCUM_DTYPE", "int64")
            core._CACHE.clear()
            with pytest.raises(ValueError, match="dtype policy"):
                get_backend()
        finally:
            core._CACHE.clear()


class TestRegistry:
    """Selection of the cached backend instance per dtype policy."""

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype policy"):
            get_backend(dtype="float16")
        with pytest.raises(ValueError, match="unknown dtype"):
            resolve_dtype("bfloat16")

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        backend = default_backend()
        assert backend.name == "numpy"
        assert backend.dtype == np.dtype(np.float32)

    def test_instances_cached(self):
        assert get_backend(dtype="float64") is get_backend(dtype="float64")

    def test_repr_keeps_checkpoint_fingerprints(self):
        # Payload fingerprints encode an explicit backend by its repr, so
        # the repr is part of every checkpointed campaign's identity.
        assert repr(get_backend(dtype="float32", accum_dtype="float64")) == (
            "NumpyBackend(name='numpy', dtype=float32, accum_dtype=float64)"
        )

    def test_pickle_round_trip(self):
        for dtype in ("float64", "float32"):
            backend = get_backend(dtype=dtype)
            clone = pickle.loads(pickle.dumps(backend))
            assert clone is backend  # reconstructed through the cache
