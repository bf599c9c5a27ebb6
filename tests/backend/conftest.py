"""Fixtures for the backend conformance suite.

``backend`` parametrises every conformance test over the shared NumPy
backend and :class:`PlainBackend`, which writes the same step contracts
as the plainest NumPy: no buffer pool, no row loop, no direct ``out=``
gap draws.  Both must meet every oracle of the suite, so the engine's
results depend only on the documented contracts of the steps, which is
what a substituted backend (the benchmark's timing subclass) relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import NumpyBackend, default_backend


class PlainBackend(NumpyBackend):
    """The backend's steps in plain NumPy, allocating every output."""

    def empty(self, shape, dtype=None):
        return np.empty(shape, dtype=dtype or self.dtype)

    def cumsum(self, a, axis):
        a[...] = np.cumsum(a, axis=axis)
        return a

    def concatenate(self, arrays, axis):
        return np.concatenate(arrays, axis=axis)

    def take_pairs(self, a, rows, cols):
        return np.take(a, np.ravel_multi_index((rows, cols), a.shape))

    def prefix_sum(self, values, size=None):
        size = len(values) if size is None else size
        dtype = np.int32 if values.dtype == np.bool_ else self.accum_dtype
        out = np.zeros((size + 1,) + values.shape[1:], dtype=dtype)
        np.cumsum(values[:size], axis=0, dtype=dtype, out=out[1:])
        return out

    def uniform(self, rng, shape):
        return rng.random(shape)

    def sample_gaps(self, pitch, shape, rng, out=None):
        gaps = np.asarray(pitch.sample_batch(shape, rng), dtype=self.dtype)
        if out is None:
            return gaps
        out[...] = gaps
        return out


@pytest.fixture(
    params=[
        pytest.param(default_backend, id="numpy-f64"),
        pytest.param(PlainBackend, id="plain-f64"),
    ]
)
def backend(request):
    """The shared NumPy backend, or its plain re-implementation."""
    return request.param()
