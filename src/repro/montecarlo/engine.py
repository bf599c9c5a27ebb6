"""Vectorized batched Monte Carlo engine for CNT track simulation.

The scalar simulators in :mod:`repro.montecarlo` build each trial with
Python loops: sample one gap, advance the cursor, test one device window at
a time.  That caps validation at tens of trials of small blocks.  This
module provides the batched primitives that replace those loops with NumPy
array programs over a batch of trials.

Every batch is stored *slot-major*: positions are ``(n_slots, n_trials)``,
so gap ``j`` of every trial is one contiguous row, and each trial is one
column.  Growing, accumulating and counting then run row by row over
contiguous vectors, and a trial that needs more gaps gets them as new
rows, not as a wider copy of the batch.

* :func:`sample_track_batch` — grow the CNT tracks of *all* trials at once:
  one 2D gap draw per batch sized by the tight budget of
  :func:`tight_gap_budget`, a running sum down the slot axis in place,
  exact per-trial top-ups written into spare rows for the few trials
  that budget leaves short of the span, and a validity mask (built on
  first use) marking the tracks that landed inside the span.  Every
  track path runs on it: chip, row, device, tilted, timing and both
  wafer tiers.  The renewal convention matches the scalar samplers
  exactly (the first track sits one uniformly-offset pitch below the
  span origin), so the batched and scalar engines draw from the same
  distribution.
* :func:`count_leq_rows` — how many of a trial's sorted positions lie
  below (or at or below) each bound, by a lockstep binary search whose
  every step reads only the queried trial's column.  Bounds come either
  as one matrix column per trial (the wafer tier) or as a flat list
  naming each query's trial (the window counters below).  Each column is
  already sorted (a running sum of positive gaps), so no global sort or
  batch-wide offset is needed, and a trial's counts do not depend on the
  batch around it.
* :func:`count_in_windows` / :func:`count_in_windows_flat` — answer "how
  many (working) tracks does window ``[lo, hi]`` of trial ``t`` capture?"
  for every window of every trial in one pass: two column-local searches
  find each window's first and last slot, which index the per-trial
  running counts of the weights down the slot axis.
* :func:`sample_track_counts` — memory-bounded helper returning only the
  per-trial track counts (used when the positions themselves are not
  needed, e.g. device-level failure estimation).
* :func:`chunk_sizes` / :func:`chunk_tasks` / :func:`run_chunked` —
  deterministic trial chunking, one spawn-keyed RNG stream per chunk,
  executed by :class:`~repro.resilience.supervise.Execution`.  Chunk
  boundaries depend only on the trial count and chunk size — never on
  the worker count — so a run with ``n_workers=4`` consumes exactly the
  same per-chunk streams as a serial run and produces bitwise-identical
  statistics.

RNG order
---------
Every draw fills its array in C order, so the generator is consumed slot
by slot: the start offsets of all trials, then gap 0 of every trial, gap
1 of every trial, and so on; each top-up round draws its block the same
way for the trials it serves.  Callers' per-tube draws come after the
batch and follow the positions' layout: the row tier's shared-track
path and the scalar oracles give every tube one uniform, while the naive
chip kernel (:func:`repro.montecarlo.chip_sim._chip_window_counts_joint`)
draws the kept tubes of a thinned pitch instead and, in joint mode, its
short marks.  The golden fixture and the SHA-256 pins under ``tests/``
fix this order.

Backend
-------
Every array kernel takes an optional ``backend``
(:class:`repro.backend.NumpyBackend`); ``None`` means
:func:`~repro.backend.default_backend`.  The engine computes in float64
and is bit-identical to a plain-NumPy re-implementation of the same
sampler kept in the conformance suite under ``tests/backend/``.

Workers receive ``(payload, n_chunk, stream)`` tuples through
:func:`run_chunked`; the payload must be picklable (the simulators pass
small dataclasses of NumPy arrays plus the pitch/type models).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.backend import NumpyBackend, default_backend
from repro.growth.pitch import PitchDistribution
from repro.resilience.supervise import (
    Execution,
    SeededChunk,
    seed_sequences_for,
)
from repro.units import ensure_positive

__all__ = [
    "BLOCK",
    "TOP_UP_ROWS",
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
    "chunk_tasks",
    "run_chunked",
]

#: Soft cap on the number of elements of one batched gap matrix.  Callers
#: chunk their trial axis so ``n_trials * gaps_per_trial`` stays near this
#: (≈32 MB of float64 per matrix), keeping peak memory flat regardless of
#: the requested trial count.
DEFAULT_BATCH_ELEMENTS: int = 1 << 22

#: Gap draws per top-up round of :func:`sample_track_batch` and the
#: granule :func:`tight_gap_budget` rounds up to.  Small, because a
#: top-up round draws it for every uncleared trial.
BLOCK = 8

#: Spare rows :func:`sample_track_batch` allocates after the first draw
#: for its top-up rounds to write into.  Four rounds reach the shortest
#: trial of batches of thousands at the 2-sigma budget; a batch that
#: needs more moves once to a buffer twice the size.  Rows never written
#: are never touched, so they cost address space, not memory.
TOP_UP_ROWS = 4 * BLOCK


@dataclass(frozen=True)
class TrackBatch:
    """CNT track positions for a batch of independent row trials.

    ``positions`` is slot-major, ``(n_slots, n_trials)``: column ``t``
    holds trial ``t``'s tracks, sorted ascending down the slot axis (a
    running sum of positive gaps), and row ``j`` holds slot ``j`` of every
    trial as one contiguous vector.  Slots whose track fell outside
    ``[0, span_nm]`` are retained for shape regularity and masked out by
    :attr:`valid`.  ``start_offsets`` records each trial's uniform renewal
    offset ``u`` (position ``j`` sits at ``S_j - u`` with ``S_j`` the
    cumulative gap sum); the rare-event layer needs it to reconstruct the
    gap sums that enter the likelihood-ratio weights.
    """

    positions: np.ndarray
    span_nm: float
    start_offsets: Optional[np.ndarray] = None

    @cached_property
    def valid(self) -> np.ndarray:
        """Mask of the slots whose track lies inside ``[0, span_nm]``.

        Built on first use and kept.  Windows inside the span never
        capture an out-of-span track, so the chip and wafer tiers count
        straight from :attr:`positions` and never pay for it.
        """
        return (self.positions >= 0.0) & (self.positions <= self.span_nm)

    @property
    def n_trials(self) -> int:
        """Number of renewal trials (columns of :attr:`positions`)."""
        return self.positions.shape[1]

    def counts(self) -> np.ndarray:
        """Number of in-span tracks per trial, shape ``(n_trials,)``."""
        return self.valid.sum(axis=0)


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

    The single budget rule of the track kernel :func:`sample_track_batch`,
    which every track path (the wafer tiers included) runs on.  It tops
    up the few trials the budget leaves short of the span exactly, so the
    budget only has to make top-ups *uncommon*, not negligible.
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
    backend: Optional[NumpyBackend] = None,
) -> TrackBatch:
    """Sample the CNT tracks of ``n_trials`` independent rows in one pass.

    Matches the scalar samplers' convention: each trial starts a renewal
    process at ``-u`` with ``u ~ U(0, mean_pitch)`` and keeps the track
    positions that land inside ``[0, span_nm]``.

    The first draw is :func:`tight_gap_budget` gaps per trial, written
    slot-major into a buffer with :data:`TOP_UP_ROWS` spare rows and
    summed down the slot axis in place; ``-u`` is added to slot 0 first,
    so no separate pass subtracts it.  While some trial's last track
    still lies at or below ``span_nm``, those trials alone draw one more
    block of :data:`BLOCK` gaps from ``rng``, whose running sums fill the
    next spare rows of their columns; trials that had already cleared
    the span repeat their own last position there (finite, sorted,
    beyond the span, hence never valid).  Every column therefore ends
    with a track beyond the span, which the stopping-time weights of
    :mod:`repro.montecarlo.rare_event` rely on.

    ``offset_mean_nm`` overrides the mean used for the uniform start offset
    ``u``.  The rare-event importance sampler passes the *nominal* pitch mean
    here while ``pitch`` itself is the tilted distribution, so the offset law
    is common to both measures and only the gaps enter the likelihood ratio.
    """
    if backend is None:
        backend = default_backend()
    ensure_positive(span_nm, "span_nm")
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    if offset_mean_nm is None:
        offset_mean_nm = pitch.mean_nm
    ensure_positive(offset_mean_nm, "offset_mean_nm")
    start_offsets = backend.uniform(rng, n_trials) * offset_mean_nm
    n_slots = tight_gap_budget(pitch, span_nm)
    buffer = backend.empty((n_slots + TOP_UP_ROWS, n_trials))
    positions = backend.sample_gaps(
        pitch, (n_slots, n_trials), rng, out=buffer[:n_slots]
    )
    positions[0] -= start_offsets
    last = backend.cumsum(positions, axis=0)[-1]
    short = np.flatnonzero(last <= span_nm)
    while short.size:
        if n_slots + BLOCK > len(buffer):
            grown = backend.empty((2 * len(buffer), n_trials))
            grown[:n_slots] = buffer[:n_slots]
            buffer = grown
        block = buffer[n_slots:n_slots + BLOCK]
        block[...] = last
        steps = backend.sample_gaps(pitch, (BLOCK, short.size), rng)
        block[:, short] += backend.cumsum(steps, axis=0)
        n_slots += BLOCK
        last = block[-1]
        short = short[last[short] <= span_nm]
    # Keep one row past the last that still holds an in-span track: the
    # rows below it only repeat tracks beyond the span in every column.
    while n_slots > 1 and buffer[n_slots - 2].min() > span_nm:
        n_slots -= 1
    return TrackBatch(
        positions=buffer[:n_slots],
        span_nm=float(span_nm),
        start_offsets=start_offsets,
    )


def sample_track_counts(
    pitch: PitchDistribution,
    span_nm: float,
    n_trials: int,
    rng: np.random.Generator,
    backend: Optional[NumpyBackend] = None,
) -> np.ndarray:
    """Per-trial count of tracks captured by a span, shape ``(n_trials,)``.

    Internally chunks the trial axis so peak memory stays bounded by
    :data:`DEFAULT_BATCH_ELEMENTS` regardless of ``n_trials``.  Counts are
    returned as NumPy int64.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    per_trial = max(1, estimate_gap_count(pitch, span_nm))
    chunk = max(1, DEFAULT_BATCH_ELEMENTS // per_trial)
    counts = np.empty(n_trials, dtype=np.int64)
    done = 0
    while done < n_trials:
        n = min(chunk, n_trials - done)
        counts[done:done + n] = sample_track_batch(
            pitch, span_nm, n, rng, backend=backend
        ).counts()
        done += n
    return counts


def _count_index(positions, bounds, columns, side="right"):
    """Flat index ``count * n_trials + column`` of each query's count.

    The search of :func:`count_leq_rows`, stopped before the flat index
    is split into slot and column: that index addresses row ``count`` of
    any slot-major array of the batch's width, such as the running counts
    of :func:`count_in_windows_flat`.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    below = np.less_equal if side == "right" else np.less
    n_slots, n_trials = positions.shape
    flat = np.ravel(positions)
    # Invariant: idx = slot * n_trials + column with the count in
    # [slot, slot + span], so every probe stays inside the column.
    idx = np.array(np.broadcast_to(columns, bounds.shape))
    span = n_slots
    while span > 1:
        half = span // 2
        stride = half * n_trials
        # Gathering from the view that starts ``half`` rows down reads
        # slot ``slot + half`` without materialising the probe indices.
        idx += below(np.take(flat[stride:], idx), bounds) * stride
        span -= half
    idx += below(np.take(flat, idx), bounds) * n_trials
    return idx


def count_leq_rows(positions, bounds, columns=None, side="right"):
    """Per-query count of a trial's sorted positions at or below a bound.

    ``positions`` is slot-major, ``(n_slots, n_trials)``, ascending down
    each column (``+inf`` padding allowed, it never counts).  Without
    ``columns``, ``bounds`` is ``(n_bounds, n_trials)`` and column ``t``
    of it queries trial ``t``.  With ``columns``, an integer array of
    ``bounds``' shape, each bound queries the trial it names (repeats and
    any order allowed), as in the flat ``(trial_index, lo, hi)`` lists of
    :func:`count_in_windows_flat`.  ``side="right"`` counts positions
    ``<=`` the bound, ``side="left"`` positions ``<`` it, so every query
    gets ``searchsorted(positions[:, t], bound, side=side)`` at once, as
    integer counts of ``bounds``' shape.

    A branchless binary search: every query halves its own candidate
    range in lockstep, one flat gather and one compare per step, so
    ``ceil(log2(n_slots)) + 1`` gathers answer every query.  Each compare
    reads only the queried trial's own column (mixed dtypes compare
    exactly, in the promoted dtype), so a trial's counts are the same
    whatever batch it sits in, and no rounding of a batch-wide offset
    can move a track across a bound.  Queries of neighbouring
    trials probe neighbouring addresses, because a slot's row is
    contiguous.
    """
    n_trials = positions.shape[1]
    if columns is None:
        columns = np.arange(n_trials)
    return (_count_index(positions, bounds, columns, side) - columns) // n_trials


def window_stop_indices(
    positions: np.ndarray,
    hi: np.ndarray,
    trial_index: np.ndarray,
) -> np.ndarray:
    """Per-query slot index of the first track strictly above ``hi``.

    The rare-event layer stops each query's likelihood-ratio weight at this
    slot; :func:`sample_track_batch` guarantees the index exists for any
    bound inside the span (the last slot always clears it).
    """
    return count_leq_rows(positions, hi, trial_index)


def count_in_windows_flat(
    positions: np.ndarray,
    weights,
    lo: np.ndarray,
    hi: np.ndarray,
    trial_index: np.ndarray,
    return_stop_index: bool = False,
    backend: Optional[NumpyBackend] = None,
):
    """Weighted track counts for an arbitrary flat list of window queries.

    Parameters
    ----------
    positions:
        Slot-major ``(n_slots, n_trials)`` track positions, sorted down
        the slot axis (as produced by :func:`sample_track_batch`).
    weights:
        Per-slot weights, same shape; must already be zero on slots that
        should not count (failed tubes; out-of-span tracks when a window
        reaches outside the span).  A stack of ``k`` such weight arrays,
        shape ``(k, n_slots, n_trials)``, or a list of them (arrays of
        different dtypes, no stacking copy), is answered from one search
        pass, with one running count per weight array.  ``None``, alone
        or as an entry of the list, counts every track of the window
        once, with no running count at all.
    lo, hi:
        Query bounds, any shape (``(n_queries,)`` for a flat list, or
        broadcast views of one grid).  Both ends are inclusive, matching
        the scalar simulators.
    trial_index:
        Index of the trial each query interrogates, of the queries'
        shape.
    return_stop_index:
        When True also return each query's per-trial slot index of the
        first track strictly above ``hi`` (as :func:`window_stop_indices`,
        from this pass's search — the rare-event chip sampler needs both).

    Returns the weighted count per query, of the queries' shape, with a
    leading axis of ``k`` for stacked or listed weights (plus the stop
    indices when requested).  Counts come out in float64: bool weights
    are counted exactly in integers, float weights summed in float64.

    Each query's column-local searches give the slots of its trial below
    ``lo`` and at or below ``hi``; as flat indices they address the
    per-trial running counts of each weight array
    (:meth:`~repro.backend.NumpyBackend.prefix_sum`), which are summed
    only down to the highest slot any window reaches.
    """
    if backend is None:
        backend = default_backend()
    n_trials = positions.shape[1]
    right = _count_index(positions, hi, trial_index)
    left = _count_index(positions, lo, trial_index, side="left")
    if weights is None:
        counts = ((right - left) // n_trials).astype(np.float64)
    else:
        # Rows below the highest stop are all any window reads.
        size = int(right.max()) // n_trials if right.size else 0

        def weighted(w):
            if w is None:
                return ((right - left) // n_trials).astype(np.float64)
            running = backend.prefix_sum(w, size)
            counts = np.take(running, right) - np.take(running, left)
            return counts.astype(np.float64, copy=False)

        if isinstance(weights, list) or weights.ndim > positions.ndim:
            counts = backend.concatenate(
                [weighted(w)[None, :] for w in weights], axis=0
            )
        else:
            counts = weighted(weights)
    if return_stop_index:
        return counts, (right - trial_index) // n_trials
    return counts


def count_in_windows(
    batch: TrackBatch,
    weights: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    backend: Optional[NumpyBackend] = None,
) -> np.ndarray:
    """Weighted track counts on a regular ``(n_trials, n_windows)`` grid.

    ``weights`` is slot-major like the batch's positions.  ``lo`` / ``hi``
    may be ``(n_windows,)`` (the same windows for every trial) or
    ``(n_trials, n_windows)`` (per-trial windows, e.g. random device
    offsets).  Returns counts of shape ``(n_trials, n_windows)``.
    """
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
        lo.ravel(),
        hi.ravel(),
        trial_index,
        backend=backend,
    )
    return np.reshape(counts, (n_trials, n_windows))


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


def chunk_tasks(
    worker: Callable[..., Tuple[np.ndarray, ...]],
    payload,
    n_trials: int,
    rng: np.random.Generator,
    trial_chunk: int,
) -> List[SeededChunk]:
    """One :class:`~repro.resilience.supervise.SeededChunk` per chunk.

    One seed sequence is spawned from ``rng`` per chunk up front (the
    derivation :meth:`numpy.random.Generator.spawn` uses), so a chunk
    rebuilds its stream on every call and a retried or resumed chunk is
    bitwise identical to an uninterrupted one.
    """
    sizes = chunk_sizes(n_trials, trial_chunk)
    seeds, bit_generator = seed_sequences_for(rng, len(sizes))
    return [
        SeededChunk(worker, payload, n, seed, bit_generator)
        for n, seed in zip(sizes, seeds)
    ]


def run_chunked(
    worker: Callable[..., Tuple[np.ndarray, ...]],
    payload,
    n_trials: int,
    rng: np.random.Generator,
    trial_chunk: int,
    execution: Execution = Execution(),
    campaign: str = "chunks",
) -> List[Tuple[np.ndarray, ...]]:
    """Run ``worker(payload, n_chunk, stream)`` over deterministic chunks.

    The :func:`chunk_tasks` of the run execute as one ``campaign`` under
    :meth:`~repro.resilience.supervise.Execution.run`: in-process for one
    worker, otherwise on a process pool (``worker`` and ``payload`` must
    be picklable).  The returned list is ordered by chunk, so results are
    identical for any worker count.  ``trial_chunk`` is computed by the
    calling campaign from its chunk policy (:func:`default_trial_chunk`);
    it fixes the spawned streams, so it is part of the result, not of the
    execution.  Each chunk runs in a buffer pool scope (see
    :mod:`repro.backend.core`); pool workers' slabs are released when
    their process exits.
    """
    return execution.run(
        campaign, chunk_tasks(worker, payload, n_trials, rng, trial_chunk)
    )
