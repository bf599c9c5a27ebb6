"""Fixtures for the backend conformance suite.

``backend`` parametrises every conformance test over both dtype policies
of the NumPy backend.
"""

from __future__ import annotations

import pytest

from repro.backend import get_backend

BACKEND_PARAMS = [
    pytest.param(("numpy", "float64"), id="numpy-f64"),
    pytest.param(("numpy", "float32"), id="numpy-f32"),
]


@pytest.fixture(params=BACKEND_PARAMS)
def backend(request):
    """One (backend, dtype) combination."""
    name, dtype = request.param
    return get_backend(name, dtype=dtype)


@pytest.fixture
def reference_backend():
    """The bit-identity anchor: NumPy at float64."""
    return get_backend("numpy", dtype="float64")
