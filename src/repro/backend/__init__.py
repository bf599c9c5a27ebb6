"""The NumPy backend of the batched Monte Carlo engine.

The engine's numerics (slot-major gap draw + running sum down the slot
axis + column-local window searches + running window counts + stopped
likelihood-ratio gathers) run on NumPy.  The steps
that apply the dtype policy or the chunk buffer pool go through
:class:`~repro.backend.core.NumpyBackend`, in float64 (the bit-identical
reference) or float32.

Select the dtype policy explicitly::

    from repro.backend import get_backend
    backend = get_backend(dtype="float32")

or through the environment (picked up by every engine entry point that is
not handed an explicit backend)::

    REPRO_DTYPE=float32 python -m repro.cli wafer ...

See :mod:`repro.backend.core` for the dtype policy, the bit-identity
contract and the chunk buffer pool, and ``tests/backend/`` for the
conformance suite that enforces them.
"""

from repro.backend.core import (
    NumpyBackend,
    backend_signature,
    buffer_pool,
    default_backend,
    get_backend,
    match_dtype,
    release_buffers,
    resolve_dtype,
)

__all__ = [
    "NumpyBackend",
    "backend_signature",
    "buffer_pool",
    "default_backend",
    "get_backend",
    "match_dtype",
    "release_buffers",
    "resolve_dtype",
]
