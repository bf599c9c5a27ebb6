"""The NumPy backend of the batched Monte Carlo engine.

The engine's numerics (slot-major gap draw + running sum down the slot
axis + column-local window searches + running window counts + stopped
likelihood-ratio gathers) run on NumPy, in float64.  The steps that the
chunk buffer pool serves, or that the repository benchmark times, go
through :class:`~repro.backend.core.NumpyBackend`; every engine entry
point that is not handed an explicit ``backend`` uses
:func:`~repro.backend.core.default_backend`.

See :mod:`repro.backend.core` for the bit-identity contract and the
chunk buffer pool, and ``tests/backend/`` for the conformance suite that
enforces them.
"""

from repro.backend.core import (
    NumpyBackend,
    backend_signature,
    buffer_pool,
    default_backend,
    release_buffers,
)

__all__ = [
    "NumpyBackend",
    "backend_signature",
    "buffer_pool",
    "default_backend",
    "release_buffers",
]
