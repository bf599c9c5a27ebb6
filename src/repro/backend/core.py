"""Array backend protocol, dtype policy, chunk buffer pool and registry.

The batched Monte Carlo engine is an array program: one 2D gap draw, a
``cumsum``, a banded ``searchsorted``, prefix sums, and a handful of
gathers.  The engine is written against the small namespace protocol
defined here instead of against ``numpy`` directly, so the dtype policy
and buffer reuse live in one place.

:class:`ArrayBackend` is that protocol.  A backend bundles three things:

* the *array namespace* — ``cumsum``, ``searchsorted``, ``take``,
  ``concatenate`` … (elementwise arithmetic and comparisons go through the
  arrays' own operators and need no dispatch);
* the *RNG adapter* — :meth:`ArrayBackend.uniform` and
  :meth:`ArrayBackend.sample_gaps` turn the caller's
  :class:`numpy.random.Generator` (the single source of randomness, keyed
  by ``spawn_key`` for reproducible chunking) into draws;
* the *dtype policy* — ``dtype`` is the storage/compute dtype of track
  positions and values (float64 reference, float32 for half-bandwidth
  runs), ``accum_dtype`` the dtype of the reductions that are sensitive
  to rounding (window prefix sums and likelihood-ratio accumulation),
  float64 by default even under a float32 storage policy.

Bit-identity contract
---------------------
The NumPy backend at float64 must be *bit-identical* to the same engine
written in plain NumPy: every method maps to exactly one NumPy call, in
the same order, and the RNG adapter passes the caller's
generator straight through (draws always happen in the generator's native
float64 and are cast to the policy dtype afterwards, so the float32 and
float64 policies consume identical streams).  The conformance suite under
``tests/backend/`` pins this down.

Buffer pool
-----------
Chunked campaigns call the same kernel once per trial chunk with the same
array shapes.  Inside a :func:`buffer_pool` scope, ``empty``, ``uniform``,
``cumsum``, ``clip``, ``concatenate`` and ``prefix_sum`` write outputs of
at least :data:`POOL_MIN_BYTES` into reused byte slabs (through NumPy's
``out=``) instead of fresh allocations, so a chunk does not pay first-touch
page faults on memory the previous chunk just returned.  The values are
those of the allocating call.  A slab is handed out again only once no
array views it: NumPy collapses a view's ``base`` to the owning slab, so
a slab whose only references are the pool's own is unreferenced by any
live array.  Slabs are per thread and persist across scopes until
:func:`release_buffers`; outside a scope every op allocates as usual.

Selection
---------
``get_backend()`` resolves a backend by name — explicitly, or from the
``REPRO_BACKEND`` environment variable (default ``numpy``); the dtype
policy likewise from ``REPRO_DTYPE`` (default ``float64``).
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

__all__ = [
    "ArrayBackend",
    "POOL_MIN_BYTES",
    "available_backends",
    "buffer_pool",
    "default_backend",
    "get_backend",
    "match_dtype",
    "register_backend",
    "release_buffers",
    "resolve_dtype",
]


_DTYPE_NAMES = {
    "float32": np.float32,
    "float64": np.float64,
    "f32": np.float32,
    "f64": np.float64,
}


def resolve_dtype(dtype) -> np.dtype:
    """Normalise a dtype spec (name or NumPy dtype) to a NumPy dtype.

    Only the two floating policies of the engine are accepted; anything
    else is a configuration error worth failing loudly on.
    """
    if isinstance(dtype, str):
        try:
            dtype = _DTYPE_NAMES[dtype.lower()]
        except KeyError:
            raise ValueError(
                f"unknown dtype policy {dtype!r}; expected one of "
                f"{sorted(set(_DTYPE_NAMES))}"
            ) from None
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(
            f"dtype policy must be float32 or float64, got {dt}"
        )
    return dt


def match_dtype(values, like: np.ndarray) -> np.ndarray:
    """Cast ``values`` to the dtype of ``like`` (no copy when it already matches).

    This is the explicit-cast helper for ``searchsorted`` operands: NumPy
    silently promotes a float32 haystack + float64 needle to float64,
    which is a full-array upcast on the hot path.  Casting the *queries* to
    the *positions* dtype keeps the promotion explicit, cheap (queries
    are the small side), and identical in float64 where it is a no-op.
    """
    return np.asarray(values, dtype=like.dtype)


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
    shape = tuple(shape) if np.ndim(shape) else (int(shape),)
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
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


class ArrayBackend:
    """Namespace protocol the engine's array programs are written against.

    The base class implements the whole protocol in terms of ``self.xp``,
    an array module with NumPy semantics.  The engine's steps
    (``searchsorted`` side flags, prefix sums, paired gathers, RNG) are
    the named methods below; everything elementwise stays on the arrays'
    operators.  Inside a :func:`buffer_pool` scope the outputs of
    ``empty`` (and so of the NumPy ``uniform``), ``cumsum``,
    ``concatenate``, ``clip`` and ``prefix_sum`` come from the pool; the
    signatures are the same either way.
    """

    #: registry name; subclasses override.
    name: str = "abstract"

    def __init__(self, dtype=np.float64, accum_dtype=np.float64) -> None:
        self.dtype = resolve_dtype(dtype)
        self.accum_dtype = resolve_dtype(accum_dtype)

    # -- identity / transport ------------------------------------------------

    @property
    def xp(self):  # pragma: no cover - subclasses bind a module
        """The backing array module."""
        raise NotImplementedError

    def asarray(self, a, dtype=None):
        """Backend array from ``a``; ``dtype=None`` keeps the input dtype."""
        return self.xp.asarray(a, dtype=dtype)

    def to_numpy(self, a) -> np.ndarray:
        """NumPy array from a backend array (host transfer when needed)."""
        return np.asarray(a)

    def cast_like(self, values, like):
        """Backend counterpart of :func:`match_dtype`."""
        return self.xp.asarray(values, dtype=like.dtype)

    # -- creation ------------------------------------------------------------

    def zeros(self, shape, dtype=None):
        """Zero-filled backend array; ``dtype=None`` uses the policy dtype."""
        return self.xp.zeros(shape, dtype=dtype or self.dtype)

    def empty(self, shape, dtype=None):
        """Uninitialised backend array; ``dtype=None`` uses the policy dtype."""
        dtype = dtype or self.dtype
        out = _pooled(shape, dtype)
        return out if out is not None else self.xp.empty(shape, dtype=dtype)

    def full(self, shape, fill_value, dtype=None):
        """Constant-filled backend array; ``dtype=None`` uses the policy dtype."""
        return self.xp.full(shape, fill_value, dtype=dtype or self.dtype)

    def arange(self, n, dtype=None):
        """``[0, n)`` index vector on the backend."""
        return self.xp.arange(n, dtype=dtype)

    def where(self, cond, a, b):
        """Elementwise ``a if cond else b`` on the backend."""
        return self.xp.where(cond, a, b)

    # -- the engine's array program ------------------------------------------

    def cumsum(self, a, axis):
        """Inclusive cumulative sum along ``axis``."""
        # Only float sums are pooled: NumPy widens bool and small-integer
        # sums to the platform integer.
        out = _pooled(a.shape, a.dtype) if a.dtype.kind == "f" else None
        return self.xp.cumsum(a, axis=axis, out=out)

    def concatenate(self, arrays, axis):
        """Concatenate backend arrays along ``axis``."""
        out = None
        if _POOL.depth:  # outside a scope, skip working out the shape
            shape = list(arrays[0].shape)
            shape[axis] = sum(a.shape[axis] for a in arrays)
            out = _pooled(shape, np.result_type(*arrays))
        return self.xp.concatenate(arrays, axis=axis, out=out)

    def clip(self, a, lo, hi):
        """Elementwise clamp of ``a`` into ``[lo, hi]``."""
        out = None
        if _POOL.depth:  # outside a scope, skip working out the shape
            out = _pooled(
                np.broadcast_shapes(a.shape, np.shape(lo), np.shape(hi)),
                np.result_type(a, lo, hi),
            )
        return self.xp.clip(a, lo, hi, out=out)

    def searchsorted(self, a, v, side):
        """Insertion indices of ``v`` into sorted ``a``.

        ``v`` must already share ``a``'s dtype (see :func:`match_dtype`);
        the conformance suite asserts the engine never relies on implicit
        promotion here.
        """
        return self.xp.searchsorted(a, v, side=side)

    def take(self, a, indices):
        """Gather ``a[indices]`` (flat take)."""
        return self.xp.take(a, indices)

    def take_pairs(self, a, rows, cols):
        """``a[rows, cols]`` for a 2D array and paired index vectors."""
        return a[rows, cols]

    def prefix_sum(self, values, size=None):
        """Zero-prefixed inclusive cumulative sum in the accumulator dtype.

        Returns an array of length ``len(values) + 1`` whose element ``i``
        is the sum of ``values[:i]``, accumulated in ``accum_dtype`` (the
        window-counting reduction is the engine step most sensitive to
        float32 rounding, so it gets its own dtype knob).
        """
        out = self.empty(
            (size if size is not None else values.shape[0]) + 1,
            dtype=self.accum_dtype,
        )
        out[0] = 0
        self.xp.cumsum(values, out=out[1:])
        return out

    def sum(self, a, axis=None):
        """Sum reduction over ``axis`` (all elements when ``None``)."""
        return self.xp.sum(a, axis=axis)

    def any(self, a) -> bool:
        """True when any element of ``a`` is truthy (host bool)."""
        return bool(self.xp.any(a))

    def exp(self, a):
        """Elementwise exponential."""
        return self.xp.exp(a)

    def power(self, base, exponent):
        """Elementwise ``base ** exponent``."""
        return self.xp.power(base, exponent)

    def reshape(self, a, shape):
        """View ``a`` with a new ``shape``."""
        return self.xp.reshape(a, shape)

    def ravel(self, a):
        """Flattened view (or copy) of ``a``."""
        return self.xp.ravel(a)

    # -- RNG adapter ---------------------------------------------------------

    def uniform(self, rng: np.random.Generator, shape):
        """U(0, 1) draws of ``shape`` as a backend array.

        Always consumes the caller's generator in its native float64, so
        the float32 policy sees the *same* stream, cast.
        """
        raise NotImplementedError

    def sample_gaps(self, pitch, shape, rng: np.random.Generator, out=None):
        """Inter-CNT gap draws from ``pitch`` of ``shape``, policy dtype.

        ``out`` is an optional pre-allocated destination (a view into a
        stacked batch, or a pooled :meth:`empty`); backends may ignore it
        and return a fresh array — callers must use the *returned* array
        either way.
        """
        raise NotImplementedError

    # -- plumbing ------------------------------------------------------------

    def __reduce__(self):
        # Backends ride inside picklable chunk payloads dispatched to
        # process pools; reconstruct by name so workers re-resolve the
        # runtime locally instead of shipping module handles.
        return (get_backend, backend_signature(self))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(name={self.name!r}, dtype={self.dtype.name}, "
            f"accum_dtype={self.accum_dtype.name})"
        )


_REGISTRY: Dict[str, Callable[[np.dtype, np.dtype], ArrayBackend]] = {}
_CACHE: Dict[Tuple[str, str, str], ArrayBackend] = {}


def register_backend(
    name: str, factory: Callable[[np.dtype, np.dtype], ArrayBackend]
) -> None:
    """Register a backend factory under ``name`` (used by :func:`get_backend`)."""
    _REGISTRY[name] = factory


def available_backends() -> Tuple[str, ...]:
    """Names accepted by :func:`get_backend` (availability checked lazily)."""
    return tuple(sorted(_REGISTRY))


def get_backend(
    name: Optional[str] = None,
    dtype=None,
    accum_dtype=None,
) -> ArrayBackend:
    """Resolve a backend by name and dtype policy.

    ``None`` arguments fall back to the ``REPRO_BACKEND`` / ``REPRO_DTYPE``
    environment variables and then to ``numpy`` / ``float64``.  Instances
    are cached per (name, dtype, accum_dtype) — backends are stateless
    (the buffer pool is per thread, not per backend).
    """
    if name is None:
        name = os.environ.get("REPRO_BACKEND", "numpy")
    if dtype is None:
        dtype = os.environ.get("REPRO_DTYPE", "float64")
    dt = resolve_dtype(dtype)
    if accum_dtype is None:
        accum_dtype = os.environ.get("REPRO_ACCUM_DTYPE", "float64")
    accum = resolve_dtype(accum_dtype)
    key = (name, dt.name, accum.name)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; known backends: {available_backends()}"
        ) from None
    backend = factory(dt, accum)
    _CACHE[key] = backend
    return backend


def default_backend() -> ArrayBackend:
    """The environment-selected backend (``numpy``/``float64`` by default)."""
    return get_backend()


def backend_signature(backend: Optional[ArrayBackend]) -> Tuple[str, str, str]:
    """``(name, dtype, accum_dtype)`` of the backend a run executes on.

    ``None`` resolves the environment default, which is what the chunk
    kernels use when no backend is pinned.  Campaign checkpoint
    fingerprints include this triple, so a run under ``REPRO_DTYPE=float32``
    cannot resume a float64 campaign's units (and vice versa).
    """
    xp = backend if backend is not None else default_backend()
    return (xp.name, xp.dtype.name, xp.accum_dtype.name)
