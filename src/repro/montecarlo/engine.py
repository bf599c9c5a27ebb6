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
  span, and a validity mask (built on first use) marking the tracks that
  landed inside the span.  Every track path runs on it: chip, row,
  device, tilted, timing and both wafer tiers.  The renewal convention
  matches the scalar samplers exactly (the first track sits one
  uniformly-offset pitch below the span origin), so the batched and
  scalar engines draw from the same distribution.
* :func:`count_leq_rows` — how many of a row's sorted positions lie below
  (or at or below) each bound, by a lockstep binary search whose every
  step reads only the queried row.  Bounds come either as one matrix row
  per position row (the wafer tier) or as a flat list naming each
  query's row (the window counters below).  Each trial's track row is
  already sorted (a ``cumsum`` of positive gaps), so no global sort or
  batch-wide offset is needed, and a trial's counts do not depend on the
  batch around it.
* :func:`count_in_windows` / :func:`count_in_windows_flat` — answer "how
  many (working) tracks does window ``[lo, hi]`` of trial ``t`` capture?"
  for every window of every trial in one pass: two row-local searches
  find each window's first and last slot, which index one prefix sum of
  the flattened weights.
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

Backend
-------
Every array kernel takes an optional ``backend``
(:class:`repro.backend.NumpyBackend`); ``None`` resolves the
environment-selected dtype policy (``REPRO_DTYPE``, float64 out of the
box).  The float64 path is bit-identical to a plain-NumPy
re-implementation of the same sampler kept in the conformance suite
under ``tests/backend/``; the float32 policy is held to tolerance there.
Window bounds are explicitly cast to the positions dtype
(:func:`~repro.backend.match_dtype`), so a float32 batch is counted
exactly against float32 bounds, one row at a time.

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

from repro.backend import NumpyBackend, default_backend, match_dtype
from repro.growth.pitch import PitchDistribution
from repro.resilience.supervise import (
    Execution,
    SeededChunk,
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


@dataclass(frozen=True)
class TrackBatch:
    """CNT track positions for a batch of independent row trials.

    ``positions`` is ``(n_trials, n_slots)`` and sorted ascending along the
    slot axis (it is a cumulative sum of positive gaps).  Slots whose track
    fell outside ``[0, span_nm]`` are retained for shape regularity and
    masked out by :attr:`valid`.  ``start_offsets`` records each trial's
    uniform renewal offset ``u`` (position ``j`` sits at ``S_j - u`` with
    ``S_j`` the cumulative gap sum); the rare-event layer needs it to
    reconstruct the gap sums that enter the likelihood-ratio weights.
    """

    positions: np.ndarray
    span_nm: float
    start_offsets: Optional[np.ndarray] = None

    @cached_property
    def valid(self) -> np.ndarray:
        """Mask of the slots whose track lies inside ``[0, span_nm]``.

        Built on first use and kept: callers that count straight from
        :attr:`positions` (the wafer tier) never pay for it.
        """
        return (self.positions >= 0.0) & (self.positions <= self.span_nm)

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
    if backend is None:
        backend = default_backend()
    ensure_positive(span_nm, "span_nm")
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    if offset_mean_nm is None:
        offset_mean_nm = pitch.mean_nm
    ensure_positive(offset_mean_nm, "offset_mean_nm")
    start_offsets = backend.uniform(rng, n_trials) * offset_mean_nm
    shape = (n_trials, tight_gap_budget(pitch, span_nm))
    # ``out`` lets the backend draw in place; the values are the same.
    # The gaps are not kept, so their buffer is free once summed.
    positions = backend.cumsum(
        backend.sample_gaps(pitch, shape, rng, out=backend.empty(shape)), axis=1
    )
    positions -= start_offsets[:, None]
    last = positions[:, -1]
    short = last <= span_nm
    block = np.arange(BLOCK)[None, :]
    tails = []
    while np.any(short):
        # Row r of the draw belongs to the r-th uncleared trial; cleared
        # trials gather an arbitrary row and mask it to a zero step.
        rank = backend.cumsum(short, axis=0) - 1
        n_short = int(rank[-1]) + 1
        steps = backend.cumsum(
            backend.sample_gaps(pitch, (n_short, BLOCK), rng), axis=1
        )
        rows = backend.clip(rank, 0, n_short - 1)[:, None]
        tails.append(last[:, None] + np.where(
            short[:, None], backend.take_pairs(steps, rows, block), 0.0
        ))
        last = tails[-1][:, -1]
        short = last <= span_nm
    if tails:
        # One copy of the batch however many rounds the top-up took.
        positions = backend.concatenate([positions] + tails, axis=1)
    return TrackBatch(
        positions=positions,
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
    returned as NumPy int64 whatever the dtype policy.
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


def count_leq_rows(positions, bounds, rows=None, side="right"):
    """Per-query count of a row's sorted positions at or below a bound.

    ``positions`` is ``(n_rows, n_slots)``, ascending along each row
    (``+inf`` padding allowed, it never counts).  Without ``rows``,
    ``bounds`` is ``(n_rows, n_bounds)`` and row ``r`` of it queries
    position row ``r``.  With ``rows``, an integer array of ``bounds``'
    shape, each bound queries the row it names (repeats and any order
    allowed), as in the flat ``(trial_index, lo, hi)`` lists of
    :func:`count_in_windows_flat`.  ``side="right"`` counts positions
    ``<=`` the bound, ``side="left"`` positions ``<`` it, so every query
    gets ``searchsorted(positions[row], bound, side=side)`` at once, as
    integer counts of ``bounds``' shape.

    A branchless binary search: every query halves its own candidate
    range in lockstep, one flat gather and one compare per step, so
    ``ceil(log2(n_slots)) + 1`` gathers answer every query.  Each compare
    reads only the queried row's own positions (mixed dtypes compare
    exactly, in the promoted dtype), so a row's counts are the same
    whatever batch it sits in, and no float32 rounding of a batch-wide
    offset can move a track across a bound.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    below = np.less_equal if side == "right" else np.less
    n_rows, n_slots = positions.shape
    if rows is None:
        rows = np.arange(n_rows)[:, None]
    flat = np.ravel(positions)
    # Flat index of each query's first slot.  Invariant: the count lies in
    # [idx - start, idx - start + span], and every probe stays in the row.
    start = rows * n_slots
    idx = np.array(np.broadcast_to(start, bounds.shape))
    span = n_slots
    while span > 1:
        half = span // 2
        # Gathering from the view that starts ``half`` slots in reads
        # slot ``idx + half`` without materialising the probe indices.
        idx += below(np.take(flat[half:], idx), bounds) * half
        span -= half
    return idx - start + below(np.take(flat, idx), bounds)


def window_stop_indices(
    positions: np.ndarray,
    hi: np.ndarray,
    trial_index: np.ndarray,
) -> np.ndarray:
    """Per-query slot index of the first track strictly above ``hi``.

    The rare-event layer stops each query's likelihood-ratio weight at this
    slot; :func:`sample_track_batch` guarantees the index exists for any
    bound inside the span (the last slot always clears it).  Bounds are
    cast to the positions dtype, as in :func:`count_in_windows_flat`.
    """
    return count_leq_rows(positions, match_dtype(hi, positions), trial_index)


def count_in_windows_flat(
    positions: np.ndarray,
    weights: np.ndarray,
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
        ``(n_trials, n_slots)`` track positions, sorted along the slot axis
        (as produced by :func:`sample_track_batch`).
    weights:
        Per-slot weights, same shape; must already be zero on slots that
        should not count (out-of-span tracks, failed tubes).  A stack of
        ``k`` such weight arrays, shape ``(k, n_trials, n_slots)``, or a
        list of them (rows of different dtypes, no stacking copy), is
        answered from one search pass, with one prefix sum per weight row.
    lo, hi:
        Query bounds, shape ``(n_queries,)``.  Both ends are inclusive,
        matching the scalar simulators.  They are cast to the positions
        dtype, so a float32 batch is counted exactly against float32
        bounds.
    trial_index:
        ``(n_queries,)`` index of the trial each query interrogates.
    return_stop_index:
        When True also return each query's per-trial slot index of the
        first track strictly above ``hi`` (as :func:`window_stop_indices`,
        from this pass's search — the rare-event chip sampler needs both).

    Returns the weighted count per query, shape ``(n_queries,)``, or
    ``(k, n_queries)`` for stacked or listed weights (plus the stop
    indices when requested).  Counts come out in the backend's
    ``accum_dtype`` (float64 by default, even under a float32 policy):
    bool weights are counted exactly in integers, float weights summed in
    ``accum_dtype``.

    Each query's row-local :func:`count_leq_rows` search gives the slots
    of its trial below ``lo`` and at or below ``hi``; offset by the
    trial's first flat slot, they index one prefix sum of the flattened
    weights.
    """
    if backend is None:
        backend = default_backend()
    stop = count_leq_rows(positions, match_dtype(hi, positions), trial_index)
    first = trial_index * positions.shape[1]
    left = first + count_leq_rows(
        positions, match_dtype(lo, positions), trial_index, side="left"
    )
    right = first + stop

    def weighted(w):
        prefix = backend.prefix_sum(np.ravel(w))
        counts = np.take(prefix, right) - np.take(prefix, left)
        return counts.astype(backend.accum_dtype, copy=False)

    if isinstance(weights, list) or weights.ndim > positions.ndim:
        counts = backend.concatenate(
            [weighted(w)[None, :] for w in weights], axis=0
        )
    else:
        counts = weighted(weights)
    if return_stop_index:
        return counts, stop
    return counts


def count_in_windows(
    batch: TrackBatch,
    weights: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    backend: Optional[NumpyBackend] = None,
) -> np.ndarray:
    """Weighted track counts on a regular ``(n_trials, n_windows)`` grid.

    ``lo`` / ``hi`` may be ``(n_windows,)`` (the same windows for every
    trial) or ``(n_trials, n_windows)`` (per-trial windows, e.g. random
    device offsets).  Returns counts of shape ``(n_trials, n_windows)``.
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
