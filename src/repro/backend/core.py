"""The NumPy backend: float64 dtypes, chunk buffer pool and the engine's steps.

The batched Monte Carlo engine is an array program over *slot-major*
track batches (gap ``j`` of every trial is one contiguous row): one 2D
gap draw, a running sum down the slot axis, column-local binary
searches, running window counts and a handful of gathers.
:class:`NumpyBackend` carries the steps of that program that need more
than a plain NumPy call — everything else the kernels call on NumPy
directly.  A method lives here only when it does at least one of:

* is served by the *buffer pool* (below);
* is one of the steps the repository benchmark's timing subclass
  (``perfbench/tracing.py``) overrides to time: :meth:`~NumpyBackend.uniform`,
  :meth:`~NumpyBackend.sample_gaps`, :meth:`~NumpyBackend.cumsum`,
  :meth:`~NumpyBackend.take_pairs` and :meth:`~NumpyBackend.prefix_sum`.

The engine computes in float64 only.  ``dtype`` (track positions and
values) and ``accum_dtype`` (window sums of float weights and
likelihood-ratio accumulation) are both float64; they stay attributes
because run records and checkpoint fingerprints name them.  Bool weights
are counted exactly in integers.

Accumulation along the slot axis
--------------------------------
:meth:`~NumpyBackend.cumsum` and :meth:`~NumpyBackend.prefix_sum` run
down axis 0 of a slot-major array.  Two loops give the same bits (each
column is summed strictly in slot order either way), so the choice is a
speed choice made by shape, not an option: rows of at least
:data:`ROW_LOOP_MIN` trials are summed as one vector add per row, which
streams contiguous memory; narrower batches use ``np.cumsum(axis=0)``,
whose per-call cost is lower than a Python loop over many short rows.

Bit-identity contract
---------------------
The backend is *bit-identical* to the same engine written in plain
NumPy: every method is a NumPy call or a loop of elementwise NumPy adds,
and the RNG steps pass the caller's :class:`numpy.random.Generator`
straight through.  The conformance suite under ``tests/backend/`` pins
this down.

Buffer pool
-----------
Chunked campaigns call the same kernel once per trial chunk with the same
array shapes.  Inside a :func:`buffer_pool` scope, ``empty`` (and so
``uniform``), ``concatenate`` and ``prefix_sum`` write outputs of at
least :data:`POOL_MIN_BYTES` into reused byte slabs (through NumPy's
``out=``) instead of fresh allocations, so a chunk does not pay first-touch
page faults on memory the previous chunk just returned.  The values are
those of the allocating call.  A slab is handed out again only once no
array views it: NumPy collapses a view's ``base`` to the owning slab, so
a slab whose only references are the pool's own is unreferenced by any
live array.  Slabs are per thread and persist across scopes until
:func:`release_buffers`; outside a scope every op allocates as usual.

Selection
---------
:func:`default_backend` returns the one shared instance, which every
engine entry point that is not handed an explicit ``backend`` uses.
"""

from __future__ import annotations

import math
import sys
import threading
from contextlib import contextmanager
from typing import Iterator, List, Optional, Set, Tuple

import numpy as np

__all__ = [
    "NumpyBackend",
    "POOL_MIN_BYTES",
    "ROW_LOOP_MIN",
    "backend_signature",
    "buffer_pool",
    "default_backend",
    "release_buffers",
]


#: Smallest output, in bytes, the pool serves; smaller arrays come from
#: the allocator's heap, which recycles them without page faults.
POOL_MIN_BYTES = 1 << 16


class _Pool(threading.local):
    """One thread's slabs, scope depth and the slabs the open scope used."""

    def __init__(self) -> None:
        self.depth = 0
        self.slabs: List[np.ndarray] = []
        self.used: Set[int] = set()


_POOL = _Pool()


@contextmanager
def buffer_pool() -> Iterator[None]:
    """Serve the calling thread's chunk-sized backend outputs from reused slabs.

    Scopes nest.  When the outermost scope closes, the pool keeps the
    slabs that scope handed out — exactly what the next chunk of the same
    shapes needs — and drops the rest, so a slab that a wider chunk
    outgrew does not linger.  The kept slabs last until
    :func:`release_buffers`.
    """
    _POOL.depth += 1
    try:
        yield
    finally:
        _POOL.depth -= 1
        if not _POOL.depth:
            _POOL.slabs = [s for s in _POOL.slabs if id(s) in _POOL.used]
            _POOL.used = set()


def release_buffers() -> None:
    """Drop the calling thread's slabs; arrays still viewing one keep it alive."""
    _POOL.slabs = []


def _refcount(slabs: List[np.ndarray], i: int) -> int:
    """CPython reference count of ``slabs[i]``."""
    return sys.getrefcount(slabs[i])


#: What :func:`_refcount` reads for a slab only the pool's list holds,
#: measured once because interpreters differ in the temporaries counted.
#: Every live view adds one through its ``base``, which NumPy collapses
#: to the owning slab.
_FREE_REFS = _refcount([np.empty(0, dtype=np.uint8)], 0)


def _pooled(shape, dtype) -> Optional[np.ndarray]:
    """Uninitialised ``shape``/``dtype`` array on a free slab, or ``None``.

    ``None`` (allocate as usual) outside a :func:`buffer_pool` scope and
    for outputs under :data:`POOL_MIN_BYTES`.  Picks the smallest free
    slab that fits, else appends a new one with a quarter of headroom, so
    the batch a few top-up rounds widened still fits (each round adds
    :data:`~repro.montecarlo.engine.BLOCK` slots to rows of ~100).
    Headroom a chunk never writes is never touched, so it costs address
    space, not memory.
    """
    if not _POOL.depth:
        return None
    shape = (int(shape),) if isinstance(shape, (int, np.integer)) else tuple(shape)
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes < POOL_MIN_BYTES:
        return None
    slabs = _POOL.slabs
    fits = [
        i for i in range(len(slabs))
        if slabs[i].size >= nbytes and _refcount(slabs, i) == _FREE_REFS
    ]
    if fits:
        slab = slabs[min(fits, key=lambda i: slabs[i].size)]
    else:
        slab = np.empty(nbytes + nbytes // 4, dtype=np.uint8)
        slabs.append(slab)
    _POOL.used.add(id(slab))
    return slab[:nbytes].view(dtype).reshape(shape)


#: Narrowest slot-major row (trials per batch) that :func:`_accumulate`
#: sums with one vector add per row.  A row add costs about 2 µs of call
#: overhead; from about this width that is cheaper than the strided
#: column walk of ``np.cumsum(axis=0)`` (measured on shapes of the chip,
#: wafer and timing chunks).
ROW_LOOP_MIN = 512


def _accumulate(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Cast ``values`` into ``out``, then sum ``out`` down axis 0 in place.

    Returns ``out``, whose row ``j`` holds ``values[0] + ... + values[j]``
    in ``out``'s dtype; ``out`` may be ``values`` itself.  Casting first
    keeps every add free of casts, and both paths add each column
    strictly in slot order, so they agree bit for bit; which one runs
    depends only on the row width.
    """
    if out is not values:
        np.copyto(out, values)
    if out.ndim == 2 and out.shape[1] >= ROW_LOOP_MIN:
        rows = list(out)
        for j in range(1, len(rows)):
            np.add(rows[j - 1], rows[j], out=rows[j])
        return out
    return np.cumsum(out, axis=0, out=out)


class NumpyBackend:
    """The engine's array steps on NumPy, in float64.

    Inside a :func:`buffer_pool` scope the outputs of ``empty`` (and so
    of ``uniform``), ``concatenate`` and ``prefix_sum`` come from the
    pool; the signatures are the same either way.
    """

    #: Backend name recorded in checkpoint fingerprints and run records.
    name = "numpy"
    #: Dtype of track positions and drawn values.
    dtype = np.dtype(np.float64)
    #: Dtype of the window sums of float weights and of likelihood ratios.
    accum_dtype = np.dtype(np.float64)

    def __init__(self, dtype=np.float64, accum_dtype=np.float64) -> None:
        # The keywords name the one supported policy, so that code which
        # spells it out (subclasses such as the benchmark's timing
        # backend) keeps constructing.
        if not (self.dtype == dtype and self.accum_dtype == accum_dtype):
            raise ValueError(
                f"the engine computes in float64 only, got dtype={dtype!r}, "
                f"accum_dtype={accum_dtype!r}"
            )

    def empty(self, shape, dtype=None) -> np.ndarray:
        """Uninitialised array; ``dtype=None`` means float64."""
        dtype = dtype or self.dtype
        out = _pooled(shape, dtype)
        return out if out is not None else np.empty(shape, dtype=dtype)

    def cumsum(self, a, axis) -> np.ndarray:
        """Inclusive cumulative sum of a float array along ``axis``, in place.

        Returns ``a`` itself, holding the running sums.  Along axis 0 the
        sum follows the accumulation rule of the module notes.
        """
        if axis == 0:
            return _accumulate(a, a)
        return np.cumsum(a, axis=axis, out=a)

    def concatenate(self, arrays, axis) -> np.ndarray:
        """Concatenate arrays along ``axis``."""
        out = None
        if _POOL.depth:  # outside a scope, skip working out the shape
            shape = list(arrays[0].shape)
            shape[axis] = sum(a.shape[axis] for a in arrays)
            out = _pooled(shape, np.result_type(*arrays))
        return np.concatenate(arrays, axis=axis, out=out)

    def take_pairs(self, a, rows, cols) -> np.ndarray:
        """``a[rows, cols]`` for a 2D array and paired index vectors."""
        return a[rows, cols]

    def prefix_sum(self, values, size=None) -> np.ndarray:
        """Zero-prefixed running sum down axis 0 of the first ``size`` rows.

        Returns an array of ``size + 1`` rows (``size=None``: every row of
        ``values``) whose row ``i`` is the sum of ``values[:i]``, per
        column for a 2D slot-major array.  Bool values are counted in
        int32, which is exact for any slot count; callers cast the
        differences they take to float64.  Other values accumulate in
        float64.
        """
        size = len(values) if size is None else size
        out = self.empty(
            (size + 1,) + values.shape[1:],
            dtype=np.int32 if values.dtype == np.bool_ else self.accum_dtype,
        )
        out[0] = 0
        _accumulate(values[:size], out[1:])
        return out

    def uniform(self, rng: np.random.Generator, shape) -> np.ndarray:
        """U(0, 1) draws from the caller's generator, into an :meth:`empty` buffer."""
        return rng.random(shape, out=self.empty(shape))

    def sample_gaps(self, pitch, shape, rng: np.random.Generator, out=None):
        """Inter-CNT gap draws from ``pitch`` of ``shape``.

        ``out`` is an optional pre-allocated destination (a pooled
        :meth:`empty`, or rows of one); when given, the draws land in it
        and it is returned.  Exponential and gamma families draw straight
        into it; any other family draws an array that is copied into
        ``out``.  The drawn values are identical on both paths.
        """
        if out is not None:
            # ``Generator.exponential(scale)`` / ``gamma(k, scale)`` are
            # exactly ``standard_* * scale`` on the same stream, so the
            # values (not just the law) match the generic path.
            from repro.growth.pitch import ExponentialPitch, GammaPitch

            if isinstance(pitch, ExponentialPitch):
                rng.standard_exponential(size=shape, out=out)
                out *= pitch.mean_pitch_nm
                return out
            if isinstance(pitch, GammaPitch):
                rng.standard_gamma(pitch.shape, size=shape, out=out)
                out *= pitch.scale_nm
                return out
        gaps = pitch.sample_batch(shape, rng)
        if out is None:
            return np.asarray(gaps, dtype=self.dtype)
        out[...] = gaps
        return out

    def __reduce_ex__(self, protocol):
        """Pickle the base class as the shared instance, a subclass as itself.

        Backends ride inside picklable chunk payloads dispatched to
        process pools, so a pinned subclass must reach the workers as
        the backend its campaign fingerprint's repr names.
        """
        if type(self) is NumpyBackend:
            return (default_backend, ())
        return super().__reduce_ex__(protocol)

    def __repr__(self) -> str:
        # Checkpoint fingerprints encode a payload's backend by this repr.
        return (
            f"{type(self).__name__}(name={self.name!r}, dtype={self.dtype.name}, "
            f"accum_dtype={self.accum_dtype.name})"
        )


_DEFAULT = NumpyBackend()


def default_backend() -> NumpyBackend:
    """The one shared backend instance.

    Backends are stateless: the buffer pool is per thread, not per
    backend.
    """
    return _DEFAULT


def backend_signature(backend: Optional[NumpyBackend]) -> Tuple[str, str, str]:
    """``(name, dtype, accum_dtype)`` of the backend a run executes on.

    ``None`` means :func:`default_backend`, which is what the chunk
    kernels use when no backend is pinned.  Campaign checkpoint
    fingerprints include this triple, so a run on a backend of another
    name cannot resume a campaign's units (and vice versa).
    """
    backend = backend if backend is not None else default_backend()
    return (backend.name, backend.dtype.name, backend.accum_dtype.name)
