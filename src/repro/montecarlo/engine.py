"""Vectorized batched Monte Carlo engine for CNT track simulation.

The scalar simulators in :mod:`repro.montecarlo` build each trial with
Python loops: sample one gap, advance the cursor, test one device window at
a time.  That caps validation at tens of trials of small blocks.  This
module provides the batched primitives that replace those loops with NumPy
array programs over a leading ``(n_trials, ...)`` batch axis:

* :func:`sample_track_batch` — grow the CNT tracks of *all* trials at once:
  one 2D gap draw per batch sized by the tight budget of
  :func:`tight_gap_budget`, a single ``cumsum`` along the gap axis, exact
  per-trial top-ups for the few trials that budget leaves short of the
  span, and a validity mask marking the tracks that landed inside the
  span.  The renewal convention matches the scalar samplers exactly (the
  first track sits one uniformly-offset pitch below the span origin), so
  the batched and scalar engines draw from the same distribution.
* :func:`count_in_windows` / :func:`count_in_windows_flat` — answer "how
  many (working) tracks does window ``[lo, hi]`` of trial ``t`` capture?"
  for every window of every trial in one pass.  Each trial's track row is
  already sorted (a ``cumsum`` of positive gaps), so shifting trial ``t``
  by ``t * stride`` makes the whole batch globally sorted and two
  ``searchsorted`` calls plus a prefix sum answer every query at once.
* :func:`count_leq_rows` — how many of a row's sorted positions lie at or
  below each of that row's bounds, by a per-row binary search whose every
  step reads only the row itself.  The wafer tier counts with it, since
  its contract needs a trial's counts independent of the batch around it.
* :func:`sample_track_counts` — memory-bounded helper returning only the
  per-trial track counts (used when the positions themselves are not
  needed, e.g. device-level failure estimation).
* :func:`chunk_sizes` / :func:`run_chunked` — deterministic trial
  chunking, one spawn-keyed RNG stream per chunk, executed by the
  supervised runner.  Chunk boundaries depend only on the trial count
  and chunk size — never on the worker count — so a run with
  ``n_workers=4`` consumes exactly the same per-chunk streams as a serial
  run and produces bitwise-identical statistics.

Backend dispatch
----------------
Every array kernel takes an optional ``backend``
(:class:`repro.backend.ArrayBackend`); ``None`` resolves the
environment-selected default (``REPRO_BACKEND`` / ``REPRO_DTYPE``, NumPy
float64 out of the box).  The NumPy float64 path is bit-identical to a
plain-NumPy re-implementation of the same sampler kept in the
conformance suite under ``tests/backend/``; the float32 policy is held
to tolerance there.  Search operands are explicitly cast to the positions
dtype (:meth:`~repro.backend.ArrayBackend.cast_like`) — NumPy would
silently promote a float32 haystack to float64 on every query batch —
and band offsets are built in the positions dtype for the same reason.

Workers receive ``(payload, n_chunk, stream)`` tuples through
:func:`run_chunked`; the payload must be picklable (the simulators pass
small dataclasses of NumPy arrays plus the pitch/type models).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.backend import ArrayBackend, default_backend, release_buffers
from repro.growth.pitch import PitchDistribution
from repro.resilience.supervise import (
    SeededChunk,
    run_supervised,
    seed_sequences_for,
)
from repro.units import ensure_positive

__all__ = [
    "BLOCK",
    "TrackBatch",
    "estimate_gap_count",
    "tight_gap_budget",
    "sample_track_batch",
    "sample_track_counts",
    "count_in_windows",
    "count_in_windows_flat",
    "count_leq_rows",
    "window_stop_indices",
    "chunk_sizes",
    "default_trial_chunk",
    "run_chunked",
]

#: Soft cap on the number of elements of one batched gap matrix.  Callers
#: chunk their trial axis so ``n_trials * gaps_per_trial`` stays near this
#: (≈32 MB of float64 per matrix), keeping peak memory flat regardless of
#: the requested trial count.
DEFAULT_BATCH_ELEMENTS: int = 1 << 22

#: Gap draws per top-up round and the granule :func:`tight_gap_budget`
#: rounds up to.  Small, because a top-up round draws it for every
#: uncleared trial; the wafer tier counts each appended block with
#: :func:`count_leq_rows`, four gathers at this width.
BLOCK = 8


@dataclass(frozen=True)
class TrackBatch:
    """CNT track positions for a batch of independent row trials.

    ``positions`` is ``(n_trials, n_slots)`` and sorted ascending along the
    slot axis (it is a cumulative sum of positive gaps).  Slots whose track
    fell outside ``[0, span_nm]`` are retained for shape regularity and
    masked out by ``valid``.  ``start_offsets`` records each trial's uniform
    renewal offset ``u`` (position ``j`` sits at ``S_j - u`` with ``S_j`` the
    cumulative gap sum); the rare-event layer needs it to reconstruct the
    gap sums that enter the likelihood-ratio weights.
    """

    positions: np.ndarray
    valid: np.ndarray
    span_nm: float
    start_offsets: Optional[np.ndarray] = None

    @property
    def n_trials(self) -> int:
        """Number of renewal trials (rows of :attr:`positions`)."""
        return self.positions.shape[0]

    @property
    def dtype(self):
        """Storage dtype of the track positions (the backend's policy dtype)."""
        return self.positions.dtype

    def counts(self) -> np.ndarray:
        """Number of in-span tracks per trial, shape ``(n_trials,)``."""
        return self.valid.sum(axis=1)


def estimate_gap_count(pitch: PitchDistribution, span_nm: float) -> int:
    """Upper estimate of the gap slots one trial of ``span_nm`` occupies.

    The renewal count over ``span + mean`` fluctuates with standard
    deviation ≈ ``cv * sqrt(n)``; an 8-sigma margin plus a constant floor
    bounds it for all but a vanishing fraction of trials.  It sizes
    memory-bounded trial chunks (:func:`default_trial_chunk`) and the
    fixed state length of samplers that cannot top up (the splitting
    sampler of :mod:`repro.montecarlo.rare_event`).  The draw itself uses
    the tighter :func:`tight_gap_budget`.
    """
    mean = pitch.mean_nm
    n_mean = (span_nm + mean) / mean
    cv = pitch.std_nm / mean if mean > 0 else 0.0
    return int(n_mean + 8.0 * cv * math.sqrt(n_mean + 1.0)) + 16


def tight_gap_budget(pitch: PitchDistribution, span_nm: float) -> int:
    """Initial gaps per trial: 2-sigma renewal margin, rounded to blocks.

    The single budget rule of the track kernels (:func:`sample_track_batch`
    and the wafer tier's stacked pass).  Both top up the few trials it
    leaves short of the span exactly, so the budget only has to make
    top-ups *uncommon*, not negligible.
    """
    mean = pitch.mean_nm
    n_mean = (span_nm + mean) / mean
    cv = pitch.std_nm / mean if mean > 0 else 0.0
    n0 = int(n_mean + 2.0 * cv * math.sqrt(n_mean + 1.0)) + 4
    return BLOCK * (-(-n0 // BLOCK))


def sample_track_batch(
    pitch: PitchDistribution,
    span_nm: float,
    n_trials: int,
    rng: np.random.Generator,
    offset_mean_nm: Optional[float] = None,
    backend: Optional[ArrayBackend] = None,
) -> TrackBatch:
    """Sample the CNT tracks of ``n_trials`` independent rows in one pass.

    Matches the scalar samplers' convention: each trial starts a renewal
    process at ``-u`` with ``u ~ U(0, mean_pitch)`` and keeps the track
    positions that land inside ``[0, span_nm]``.

    The first draw is :func:`tight_gap_budget` gaps per trial.  While some
    trial's last track still lies at or below ``span_nm``, those trials
    alone draw one more block of :data:`BLOCK` gaps from ``rng`` and
    append it; trials that had already cleared the span are padded with
    their own last position repeated (finite, sorted, beyond the span,
    hence never valid).  Every row therefore ends with a track beyond the
    span, which the stopping-time weights of
    :mod:`repro.montecarlo.rare_event` rely on.

    ``offset_mean_nm`` overrides the mean used for the uniform start offset
    ``u``.  The rare-event importance sampler passes the *nominal* pitch mean
    here while ``pitch`` itself is the tilted distribution, so the offset law
    is common to both measures and only the gaps enter the likelihood ratio.
    """
    xp = backend if backend is not None else default_backend()
    ensure_positive(span_nm, "span_nm")
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    if offset_mean_nm is None:
        offset_mean_nm = pitch.mean_nm
    ensure_positive(offset_mean_nm, "offset_mean_nm")
    start_offsets = xp.uniform(rng, n_trials) * offset_mean_nm
    shape = (n_trials, tight_gap_budget(pitch, span_nm))
    # ``out`` lets the backend draw in place; the values are the same.
    # The gaps are not kept, so their buffer is free once summed.
    positions = xp.cumsum(
        xp.sample_gaps(pitch, shape, rng, out=xp.empty(shape)), axis=1
    )
    positions -= start_offsets[:, None]
    last = positions[:, -1]
    short = last <= span_nm
    block = xp.arange(BLOCK)[None, :]
    tails = []
    while xp.any(short):
        # Row r of the draw belongs to the r-th uncleared trial; cleared
        # trials gather an arbitrary row and mask it to a zero step.
        rank = xp.cumsum(short, axis=0) - 1
        n_short = int(rank[-1]) + 1
        steps = xp.cumsum(xp.sample_gaps(pitch, (n_short, BLOCK), rng), axis=1)
        rows = xp.clip(rank, 0, n_short - 1)[:, None]
        tails.append(last[:, None] + xp.where(
            short[:, None], xp.take_pairs(steps, rows, block), 0.0
        ))
        last = tails[-1][:, -1]
        short = last <= span_nm
    if tails:
        # One copy of the batch however many rounds the top-up took.
        positions = xp.concatenate([positions] + tails, axis=1)
    valid = (positions >= 0.0) & (positions <= span_nm)
    return TrackBatch(
        positions=positions,
        valid=valid,
        span_nm=float(span_nm),
        start_offsets=start_offsets,
    )


def sample_track_counts(
    pitch: PitchDistribution,
    span_nm: float,
    n_trials: int,
    rng: np.random.Generator,
    batch_elements: int = DEFAULT_BATCH_ELEMENTS,
    backend: Optional[ArrayBackend] = None,
) -> np.ndarray:
    """Per-trial count of tracks captured by a span, shape ``(n_trials,)``.

    Internally chunks the trial axis so peak memory stays bounded by
    ``batch_elements`` regardless of ``n_trials``.  Counts are returned on
    the host (NumPy int64) whatever the backend.
    """
    xp = backend if backend is not None else default_backend()
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    per_trial = max(1, estimate_gap_count(pitch, span_nm))
    chunk = max(1, batch_elements // per_trial)
    counts = np.empty(n_trials, dtype=np.int64)
    done = 0
    while done < n_trials:
        n = min(chunk, n_trials - done)
        counts[done:done + n] = xp.to_numpy(
            sample_track_batch(pitch, span_nm, n, rng, backend=xp).counts()
        )
        done += n
    return counts


def _banded_positions(
    positions: np.ndarray, span_nm: float, xp: ArrayBackend
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten sorted trial rows into one globally sorted banded array.

    Shifting trial ``t`` by ``t * stride`` makes the (clipped) rows
    disjoint, so one ``searchsorted`` on the flattened array answers every
    (trial, query) pair at once.  Clipping just outside the query range is
    monotone, preserves sortedness, and never moves a track across a query
    boundary (queries live inside ``[0, span]``).  Returns the flattened
    array and the per-trial band offsets, both in the positions dtype (an
    implicit float64 band would silently promote every float32 search) —
    except when a float32 band would be *inaccurate*: offsets grow with
    the trial count, and once the float32 ulp at the top band exceeds a
    fraction of the pad, rounding of ``position + offset`` can move
    tracks across window edges.  Such batches are banded in float64
    (correctness beats the bandwidth saving; float64 batches never hit
    this, their ulp at any realistic band is sub-femtometre).
    """
    pad = 1.0
    stride = span_nm + 4.0 * pad
    band_dtype = positions.dtype
    if xp.dtype == np.dtype(np.float32):
        top_offset = np.float32((positions.shape[0] - 1) * stride)
        if np.spacing(top_offset) > pad / 8.0:
            band_dtype = np.dtype(np.float64)
            positions = xp.asarray(positions, dtype=band_dtype)
    offsets = xp.arange(positions.shape[0], dtype=band_dtype) * stride
    banded = xp.clip(positions, -pad, span_nm + pad)
    banded += offsets[:, None]
    return xp.ravel(banded), offsets


def window_stop_indices(
    positions: np.ndarray,
    span_nm: float,
    hi: np.ndarray,
    trial_index: np.ndarray,
    backend: Optional[ArrayBackend] = None,
) -> np.ndarray:
    """Per-query slot index of the first track strictly above ``hi``.

    The rare-event layer stops each query's likelihood-ratio weight at this
    slot; :func:`sample_track_batch` guarantees the index exists for any
    bound inside the span (the last slot always clears it).
    """
    xp = backend if backend is not None else default_backend()
    flat, offsets = _banded_positions(positions, span_nm, xp)
    right = xp.searchsorted(
        flat, xp.cast_like(hi, flat) + xp.take(offsets, trial_index),
        side="right",
    )
    return right - trial_index * positions.shape[1]


def count_in_windows_flat(
    positions: np.ndarray,
    weights: np.ndarray,
    span_nm: float,
    lo: np.ndarray,
    hi: np.ndarray,
    trial_index: np.ndarray,
    return_stop_index: bool = False,
    backend: Optional[ArrayBackend] = None,
):
    """Weighted track counts for an arbitrary flat list of window queries.

    Parameters
    ----------
    positions:
        ``(n_trials, n_slots)`` track positions, sorted along the slot axis
        (as produced by :func:`sample_track_batch`).
    weights:
        Per-slot weights, same shape; must already be zero on slots that
        should not count (out-of-span tracks, failed tubes).  A stack of
        ``k`` such weight arrays, shape ``(k, n_trials, n_slots)``, or a
        list of them (rows of different dtypes, no stacking copy), is
        answered from one banding and search pass, with one prefix sum
        per weight row.
    span_nm:
        Span of the trials; queries must lie inside ``[0, span_nm]``.
    lo, hi:
        Query bounds, shape ``(n_queries,)``.  Both ends are inclusive,
        matching the scalar simulators.
    trial_index:
        ``(n_queries,)`` index of the trial each query interrogates.
    return_stop_index:
        When True also return each query's per-trial slot index of the
        first track strictly above ``hi`` (as :func:`window_stop_indices`,
        but sharing this pass's searchsorted work — the rare-event chip
        sampler needs both).

    Returns the weighted count per query, shape ``(n_queries,)``, or
    ``(k, n_queries)`` for stacked or listed weights (plus the stop
    indices when requested).  Counts accumulate in the backend's
    ``accum_dtype`` (float64 by default, even under a float32 policy).
    """
    xp = backend if backend is not None else default_backend()
    flat, offsets = _banded_positions(positions, span_nm, xp)
    shift = xp.take(offsets, trial_index)
    left = xp.searchsorted(flat, xp.cast_like(lo, flat) + shift, side="left")
    right = xp.searchsorted(flat, xp.cast_like(hi, flat) + shift, side="right")

    def weighted(w):
        prefix = xp.prefix_sum(xp.ravel(w))
        return xp.take(prefix, right) - xp.take(prefix, left)

    if isinstance(weights, list) or weights.ndim > positions.ndim:
        counts = xp.concatenate([weighted(w)[None, :] for w in weights], axis=0)
    else:
        counts = weighted(weights)
    if return_stop_index:
        return counts, right - trial_index * positions.shape[1]
    return counts


def count_in_windows(
    batch: TrackBatch,
    weights: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    backend: Optional[ArrayBackend] = None,
) -> np.ndarray:
    """Weighted track counts on a regular ``(n_trials, n_windows)`` grid.

    ``lo`` / ``hi`` may be ``(n_windows,)`` (the same windows for every
    trial) or ``(n_trials, n_windows)`` (per-trial windows, e.g. random
    device offsets).  Returns counts of shape ``(n_trials, n_windows)``.
    """
    xp = backend if backend is not None else default_backend()
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim == 1:
        lo = np.broadcast_to(lo, (batch.n_trials, lo.size))
    if hi.ndim == 1:
        hi = np.broadcast_to(hi, (batch.n_trials, hi.size))
    if lo.shape != hi.shape or lo.shape[0] != batch.n_trials:
        raise ValueError(
            f"window bounds {lo.shape} do not match batch of {batch.n_trials} trials"
        )
    n_trials, n_windows = lo.shape
    trial_index = np.repeat(np.arange(n_trials), n_windows)
    counts = count_in_windows_flat(
        batch.positions,
        weights,
        batch.span_nm,
        lo.ravel(),
        hi.ravel(),
        trial_index,
        backend=xp,
    )
    return xp.reshape(counts, (n_trials, n_windows))


def count_leq_rows(positions, bounds, backend: Optional[ArrayBackend] = None):
    """Per-row count of sorted positions at or below each of the row's bounds.

    ``positions`` is ``(n_rows, n_slots)``, ascending along each row
    (``+inf`` padding allowed, it never counts); ``bounds`` is
    ``(n_rows, n_bounds)``, any float dtype.  Returns the ``(n_rows,
    n_bounds)`` integer counts ``#{j : positions[r, j] <= bounds[r, b]}``,
    i.e. ``searchsorted(positions[r], bounds[r, b], side="right")`` for
    every pair at once.

    A branchless binary search: every query halves its own candidate
    range in lockstep, one flat gather and one compare per step, so
    ``ceil(log2(n_slots)) + 1`` gathers answer the whole matrix.  Unlike
    the banded search of :func:`count_in_windows_flat` no row is shifted
    by an offset that depends on its position in the batch: each compare
    reads only the row's own positions and bounds (mixed dtypes compare
    exactly, in the promoted dtype), so a row's counts are the same
    whatever batch it sits in.
    """
    xp = backend if backend is not None else default_backend()
    n_rows, n_slots = positions.shape
    flat = xp.ravel(positions)
    # Flat index of each row's first slot.  Invariant: the count lies in
    # [idx - start, idx - start + span], and every probe stays in the row.
    start = (xp.arange(n_rows) * n_slots)[:, None]
    idx = xp.zeros(bounds.shape, dtype=start.dtype) + start
    span = n_slots
    while span > 1:
        half = span // 2
        # Gathering from the view that starts ``half`` slots in reads
        # slot ``idx + half`` without materialising the probe indices.
        idx += (xp.take(flat[half:], idx) <= bounds) * half
        span -= half
    return idx - start + (xp.take(flat, idx) <= bounds)


# ----------------------------------------------------------------------
# Trial chunking and supervised (optionally multi-process) execution
# ----------------------------------------------------------------------


def default_trial_chunk(
    per_trial_elements: int, n_trials: int, grain: int = 16
) -> int:
    """Trials per batch under the engine's element budget.

    Bounded by :data:`DEFAULT_BATCH_ELEMENTS` (so one gap matrix stays near
    ~32 MB) and small enough that at least ``grain`` chunks exist, so
    process pools up to that size always receive work.  This is the single
    chunk-sizing policy shared by the chip simulator and the rare-event
    estimators.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    budget = max(1, DEFAULT_BATCH_ELEMENTS // max(1, per_trial_elements))
    spread = -(-n_trials // grain)
    return max(1, min(budget, spread))


def chunk_sizes(n_trials: int, trial_chunk: int) -> List[int]:
    """Split ``n_trials`` into deterministic chunks of ``trial_chunk``.

    The split depends only on its arguments — in particular not on the
    worker count — which is what makes multi-worker runs bitwise
    reproducible against serial runs.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    if trial_chunk <= 0:
        raise ValueError("trial_chunk must be positive")
    full, rest = divmod(n_trials, trial_chunk)
    return [trial_chunk] * full + ([rest] if rest else [])


def run_chunked(
    worker: Callable[..., Tuple[np.ndarray, ...]],
    payload,
    n_trials: int,
    rng: np.random.Generator,
    trial_chunk: int,
    n_workers: int = 1,
    policy=None,
    checkpoint=None,
    faults=None,
) -> List[Tuple[np.ndarray, ...]]:
    """Run ``worker(payload, n_chunk, stream)`` over deterministic chunks.

    One seed sequence is spawned from ``rng`` per chunk up front (the
    derivation :meth:`numpy.random.Generator.spawn` uses) and each chunk
    becomes a :class:`~repro.resilience.supervise.SeededChunk` executed
    by :func:`~repro.resilience.supervise.run_supervised`: in-process for
    ``n_workers=1``, otherwise on a process pool (``worker`` and
    ``payload`` must be picklable).  The returned list is ordered by
    chunk, so results are identical for any worker count, and a retried
    or resumed chunk rebuilds its stream from its seed sequence, so
    results are bitwise identical to an uninterrupted run.  Each chunk
    runs in a buffer pool scope (see :mod:`repro.backend.core`); the
    calling thread's slabs are released when this returns, and pool
    workers' slabs when their process exits.

    ``policy`` is the :class:`~repro.resilience.supervise.RetryPolicy`
    (``None`` = the default: a failed chunk is retried twice before
    :class:`~repro.resilience.supervise.SupervisorError` is raised);
    ``checkpoint`` is an optional
    :class:`~repro.resilience.checkpoint.CampaignCheckpoint` that
    completed chunks persist to and resume from; ``faults`` is a
    :class:`~repro.resilience.faults.FaultPlan` for chaos tests only.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be at least 1")
    sizes = chunk_sizes(n_trials, trial_chunk)
    seeds, bit_generator = seed_sequences_for(rng, len(sizes))
    tasks = [
        SeededChunk(worker, payload, n, seed, bit_generator)
        for n, seed in zip(sizes, seeds)
    ]
    try:
        return run_supervised(
            tasks,
            n_workers=n_workers,
            policy=policy,
            checkpoint=checkpoint,
            faults=faults,
        )
    finally:
        release_buffers()
