"""Fixtures for the backend conformance suite.

``backend`` parametrises every conformance test over both dtype policies
of the NumPy backend.
"""

from __future__ import annotations

import pytest

from repro.backend import get_backend

BACKEND_PARAMS = [
    pytest.param("float64", id="numpy-f64"),
    pytest.param("float32", id="numpy-f32"),
]


@pytest.fixture(params=BACKEND_PARAMS)
def backend(request):
    """The NumPy backend under one dtype policy."""
    return get_backend(dtype=request.param)


@pytest.fixture
def reference_backend():
    """The bit-identity anchor: NumPy at float64."""
    return get_backend(dtype="float64")
