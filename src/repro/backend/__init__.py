"""Array-API backend dispatch for the batched Monte Carlo engine.

The engine's numerics (gap draw + ``cumsum`` + banded ``searchsorted`` +
prefix sums + stopped likelihood-ratio gathers) run against the small
:class:`~repro.backend.core.ArrayBackend` protocol instead of NumPy
directly, so the same kernels execute on NumPy (the bit-identical
reference), CuPy, or torch, in either float64 or float32.

Select a backend explicitly::

    from repro.backend import get_backend
    backend = get_backend("numpy", dtype="float32")

or through the environment (picked up by every engine entry point that is
not handed an explicit backend)::

    REPRO_BACKEND=cupy REPRO_DTYPE=float32 python -m repro.cli wafer ...

See :mod:`repro.backend.core` for the dtype policy and the bit-identity
contract, and ``tests/backend/`` for the conformance suite that enforces
both.
"""

from repro.backend.core import (
    ArrayBackend,
    BackendUnavailableError,
    available_backends,
    backend_signature,
    default_backend,
    get_backend,
    match_dtype,
    register_backend,
    resolve_dtype,
)
from repro.backend.numpy_backend import NumpyBackend

__all__ = [
    "ArrayBackend",
    "BackendUnavailableError",
    "NumpyBackend",
    "available_backends",
    "backend_signature",
    "default_backend",
    "get_backend",
    "match_dtype",
    "register_backend",
    "resolve_dtype",
]


def _cupy_factory(dtype, accum):
    from repro.backend.gpu import CupyBackend

    return CupyBackend(dtype=dtype, accum_dtype=accum)


def _torch_factory(dtype, accum):
    from repro.backend.gpu import TorchBackend

    return TorchBackend(dtype=dtype, accum_dtype=accum)


register_backend("cupy", _cupy_factory)
register_backend("torch", _torch_factory)
