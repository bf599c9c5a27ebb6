"""Dtype policy, searchsorted promotion audit, and backend selection tests.

NumPy silently promotes mixed-dtype ``searchsorted`` operands: a float32
haystack with float64 needles upcasts the *haystack* on every query
batch, which defeats the float32 policy's bandwidth saving.  These
tests audit the engine's hot path for that promotion (every
intermediate must stay in the policy dtype) and pin the explicit-cast
helper that prevents it.
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
from repro.montecarlo.engine import (
    _banded_positions,
    count_in_windows_flat,
    sample_track_batch,
)
from repro.growth.pitch import ExponentialPitch


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

    def test_banded_positions_keep_policy_dtype(self):
        b32 = get_backend(dtype="float32")
        batch = sample_track_batch(
            ExponentialPitch(4.0), 100.0, 16, np.random.default_rng(1),
            backend=b32,
        )
        assert batch.positions.dtype == np.float32
        flat, offsets = _banded_positions(batch.positions, 100.0, b32)
        assert flat.dtype == np.float32
        assert offsets.dtype == np.float32

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
            100.0, lo, hi, np.arange(8),
            backend=b32,
        )
        np.testing.assert_array_equal(counts, np.asarray(batch.counts()))
        # Accumulation stays in the accumulator dtype (float64 default).
        assert counts.dtype == b32.accum_dtype

    def test_accumulator_dtype_is_configurable(self):
        b = get_backend(dtype="float32", accum_dtype="float32")
        assert b.prefix_sum(np.ones(4, dtype=np.float32)).dtype == np.float32

    def test_huge_batches_promote_band_to_float64(self):
        # Band offsets grow with the trial count; once the float32 ulp at
        # the top band could move a track across a window edge, the band
        # must be built in float64 even under the float32 policy.
        b32 = get_backend(dtype="float32")
        small = np.sort(
            np.random.default_rng(0).random((64, 4), dtype=np.float32) * 100.0,
            axis=1,
        )
        flat, offsets = _banded_positions(small, 100.0, b32)
        assert flat.dtype == np.float32
        big = np.broadcast_to(small[:1], (200_000, 4))
        flat, offsets = _banded_positions(big, 100.0, b32)
        assert flat.dtype == np.float64
        assert offsets.dtype == np.float64

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
