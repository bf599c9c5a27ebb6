"""Array-API backend dispatch for the batched Monte Carlo engine.

The engine's numerics (gap draw + ``cumsum`` + banded ``searchsorted`` +
prefix sums + stopped likelihood-ratio gathers) run against the small
:class:`~repro.backend.core.ArrayBackend` protocol instead of NumPy
directly; the NumPy backend runs them in either float64 (the
bit-identical reference) or float32.

Select a backend explicitly::

    from repro.backend import get_backend
    backend = get_backend("numpy", dtype="float32")

or through the environment (picked up by every engine entry point that is
not handed an explicit backend)::

    REPRO_BACKEND=numpy REPRO_DTYPE=float32 python -m repro.cli wafer ...

See :mod:`repro.backend.core` for the dtype policy, the bit-identity
contract and the chunk buffer pool, and ``tests/backend/`` for the
conformance suite that enforces them.
"""

from repro.backend.core import (
    ArrayBackend,
    available_backends,
    backend_signature,
    buffer_pool,
    default_backend,
    get_backend,
    match_dtype,
    register_backend,
    release_buffers,
    resolve_dtype,
)
from repro.backend.numpy_backend import NumpyBackend

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "available_backends",
    "backend_signature",
    "buffer_pool",
    "default_backend",
    "get_backend",
    "match_dtype",
    "register_backend",
    "release_buffers",
    "resolve_dtype",
]

