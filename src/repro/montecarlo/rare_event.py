"""Rare-event estimation for the batched Monte Carlo engine.

The paper's headline claims live deep in the tail: ~1e8 minimum-size CNFETs
whose per-device failure probability must drop to ~1e-9 for 90 % chip yield.
Direct (even Rao-Blackwellised) sampling needs ~1e6+ trials per digit of
relative error there; this module provides two complementary rare-event
layers on top of :mod:`repro.montecarlo.engine`:

**Exponentially tilted importance sampling** (:func:`sample_weighted_track_batch`,
:func:`estimate_device_failure_tilted`).  The inter-CNT gap distribution is
replaced by its exponentially tilted sibling (same family, stretched mean;
see :meth:`repro.growth.pitch.PitchDistribution.exponential_tilt`), which
makes under-count failures common.  Each renewal trial carries the exact
likelihood ratio of its trajectory *stopped at the first track beyond the
queried span* — a stopping time, so Wald's likelihood-ratio identity keeps
the weighted estimator unbiased — and the weight is an affine function of
(number of gaps, gap sum), both of which fall out of the engine's existing
``cumsum`` and window-search pass for free.

**How to pick a tilt.**  For the Rao-Blackwellised device value
``pf ** N(W)`` the near-optimal mean factor is ``1 / pf``: with exponential
gaps the count integrand ``pf^n · Poisson(λ)(n)`` is proportional to a
Poisson(λ·pf) pmf, so stretching the mean pitch by ``1/pf`` samples exactly
the dominant tail counts and the weight cancels the ``pf^N`` value up to an
O(1) overshoot term.  :func:`default_tilt_factor` encodes this rule (falling
back to "about one expected tube" when ``pf = 0``).  For *indicator* values
(no cancellation) the weight noise grows with the number of gaps covered by
the stopped trajectory — ``Var(log w) ≈ (span/(β·mean)) · k · ln²β`` — so
long spans need milder tilts; :func:`max_stable_tilt` returns the largest
factor whose log-weight variance stays inside a budget, and the chip-level
sampler clips its default to it.

**Multilevel splitting** (:func:`multilevel_splitting`) is the fallback for
scenarios with no closed-form tilt — the non-aligned layout, whose failure
event couples shared tubes with random per-device offsets, and pitch
families that are not closed under exponential tilting.  It is a standard
adaptive subset simulation: particles are states of the full trial
randomness, levels are quantiles of a severity function (the minimum
working-tube count over the row's devices), and between levels the particles
are rejuvenated by a Metropolis kernel that refreshes a random subset of
each particle's coordinates from the prior (acceptance = the constraint
itself, because the proposal is prior-reversible).

The weighted-estimator API (:class:`WeightedEstimate`) reports the yield
estimate, its relative error and the *contribution* effective sample size
``(Σ v)² / Σ v²`` — the honest diagnostic when the value cancels part of
the weight, unlike the raw-weight ESS which is pessimistic by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import NumpyBackend, default_backend
from repro.growth.pitch import GapTilt, PitchDistribution
from repro.montecarlo.engine import (
    DEFAULT_BATCH_ELEMENTS,
    TrackBatch,
    chunk_tasks,
    count_in_windows,
    default_trial_chunk,
    estimate_gap_count,
    sample_track_batch,
    window_stop_indices,
)
from repro.resilience.supervise import Execution, SeededChunk
from repro.units import ensure_positive

__all__ = [
    "WeightedEstimate",
    "weighted_estimate",
    "default_tilt_factor",
    "max_stable_tilt",
    "resolve_tilt",
    "sample_weighted_track_batch",
    "window_stopped_log_weights",
    "sample_tilted_contributions",
    "estimate_device_failure_tilted",
    "estimate_device_failure_grid",
    "SplittingModel",
    "AlignedRowModel",
    "UncorrelatedRowModel",
    "NonAlignedRowModel",
    "SplittingResult",
    "multilevel_splitting",
]


# ----------------------------------------------------------------------
# Weighted estimator API
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedEstimate:
    """An importance-sampled estimate with its error diagnostics.

    ``effective_sample_size`` is computed on the per-trial *contributions*
    ``v_i = h_i · w_i`` (value times likelihood ratio), i.e. how many equal
    contributions would carry the same estimate; it honours the cancellation
    between value and weight that a raw-weight ESS would ignore.
    """

    estimate: float
    standard_error: float
    n_samples: int
    effective_sample_size: float

    @property
    def relative_error(self) -> float:
        """Standard error over estimate (NaN when the estimate is zero)."""
        if self.estimate == 0:
            return float("nan")
        return self.standard_error / self.estimate

    @property
    def variance_per_sample(self) -> float:
        """Per-sample variance implied by the standard error."""
        return self.standard_error ** 2 * self.n_samples


def weighted_estimate(contributions: np.ndarray) -> WeightedEstimate:
    """Summarise per-trial contributions ``v_i = h_i · w_i`` into an estimate.

    The contributions must already carry their likelihood-ratio weights;
    the estimate is their plain mean (unbiased under the sampling measure
    they were drawn from).
    """
    v = np.asarray(contributions, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("contributions must contain at least one sample")
    n = v.size
    estimate = float(np.mean(v))
    stderr = float(np.std(v, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    sum_v = float(np.sum(np.abs(v)))
    sum_v2 = float(np.sum(v * v))
    ess = sum_v ** 2 / sum_v2 if sum_v2 > 0 else 0.0
    return WeightedEstimate(
        estimate=estimate,
        standard_error=stderr,
        n_samples=int(n),
        effective_sample_size=float(ess),
    )


# ----------------------------------------------------------------------
# Tilt selection
# ----------------------------------------------------------------------


def default_tilt_factor(
    pitch: PitchDistribution, span_nm: float, per_cnt_failure: float
) -> float:
    """Near-optimal mean factor for the Rao-Blackwellised ``pf ** N`` value.

    The weighted value of a trial stopped after ``τ`` gaps is
    ``pf^(τ-1) · exp(τ·c(β) + S_τ·slope)`` with ``c(β)`` the per-gap log
    constant of the tilt; choosing ``β`` so that ``c(β) = -ln pf`` cancels
    the ``τ`` dependence exactly and leaves only the O(1) overshoot noise.
    For exponential pitch that root is ``1/pf``; for gamma shape ``k`` it is
    ``pf^(-1/k)``; in general it is found by bisection on the family's tilt.
    The factor is capped so the tilted span still expects about one tube —
    stretching further buys nothing — and with ``pf = 0`` (pure open-region
    events) the cap itself is the answer.
    """
    ensure_positive(span_nm, "span_nm")
    if not 0.0 <= per_cnt_failure <= 1.0:
        raise ValueError(
            f"per_cnt_failure must lie in [0, 1], got {per_cnt_failure}"
        )
    mean_count = span_nm / pitch.mean_nm
    cap = max(mean_count, 1.0)
    if per_cnt_failure <= 0.0:
        return cap
    if per_cnt_failure >= 1.0 or cap <= 1.0:
        return 1.0
    target = -math.log(per_cnt_failure)

    def log_const(beta: float) -> float:
        return pitch.exponential_tilt(beta).log_const_per_gap

    if log_const(cap) <= target:
        return cap
    lo, hi = 1.0, cap
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if log_const(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


def max_stable_tilt(
    pitch: PitchDistribution,
    span_nm: float,
    log_weight_variance_budget: float = 2.0,
) -> float:
    """Largest mean factor whose stopped-trajectory weights stay usable.

    For indicator-style values the log-weight variance over a span ``H`` is
    approximately ``(H / (β·mean)) · k · ln²β`` (``k`` the gamma shape, 1 for
    exponential pitch): the count of the stopped trajectory fluctuates by
    ``≈ √(cv²·H/(β·mean))`` gaps and each gap contributes ``k·lnβ`` of
    log-weight.  This returns the largest ``β ≤ e²`` keeping that variance
    inside the budget (``β = e²`` maximises ``ln²β/β``; beyond it the
    approximation stops being monotone and no sane tilt lives there).
    """
    ensure_positive(span_nm, "span_nm")
    ensure_positive(log_weight_variance_budget, "log_weight_variance_budget")
    mean = pitch.mean_nm
    cv = pitch.cv
    shape = 1.0 / (cv * cv) if cv > 0 else float("inf")
    if not math.isfinite(shape):
        return 1.0  # deterministic pitch: no tilt is meaningful

    def log_weight_variance(beta: float) -> float:
        return (span_nm / (beta * mean)) * shape * math.log(beta) ** 2

    upper = math.e ** 2
    if log_weight_variance(upper) <= log_weight_variance_budget:
        return upper
    lo, hi = 1.0, upper
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if log_weight_variance(mid) <= log_weight_variance_budget:
            lo = mid
        else:
            hi = mid
    return lo


def resolve_tilt(
    pitch: PitchDistribution,
    span_nm: float,
    per_cnt_failure: float,
    tilt_factor: Optional[float] = None,
) -> GapTilt:
    """Build the :class:`GapTilt` for a sampler, defaulting the factor.

    Raises ``NotImplementedError`` (from the pitch family) when no
    closed-form tilt exists; callers surface that as "use splitting".
    """
    if tilt_factor is None:
        tilt_factor = default_tilt_factor(pitch, span_nm, per_cnt_failure)
    return pitch.exponential_tilt(tilt_factor)


# ----------------------------------------------------------------------
# Tilted renewal sampling with stopped likelihood ratios
# ----------------------------------------------------------------------


def _affine_log_weights(
    tilt: GapTilt, n_gaps, gap_sum, backend: NumpyBackend
):
    """``log dP_nominal/dP_tilted`` as the tilt's affine form, on-backend.

    Mirrors :meth:`repro.growth.pitch.GapTilt.log_likelihood_ratio` but
    accumulates in the backend's ``accum_dtype`` (likelihood-ratio
    accumulation is the float32 policy's most rounding-sensitive step, so
    it stays in float64 unless explicitly lowered).
    """
    return (
        np.asarray(n_gaps, dtype=backend.accum_dtype) * tilt.log_const_per_gap
        + np.asarray(gap_sum, dtype=backend.accum_dtype) * tilt.log_slope_per_nm
    )


def sample_weighted_track_batch(
    tilt: GapTilt,
    span_nm: float,
    n_trials: int,
    rng: np.random.Generator,
    backend: Optional[NumpyBackend] = None,
) -> Tuple[TrackBatch, np.ndarray]:
    """Sample tilted renewal trials and their full-span log weights.

    The batch is drawn from the *tilted* gap distribution with the start
    offset drawn from the *nominal* uniform law (so the offset cancels in
    the likelihood ratio).  The returned per-trial log weight is the exact
    ``log dP_nominal/dP_tilted`` of the trajectory stopped at the first
    track strictly beyond ``span_nm`` — a stopping time of the gap
    filtration, hence unbiased for any functional of the in-span tracks.
    """
    if backend is None:
        backend = default_backend()
    batch = sample_track_batch(
        tilt.tilted,
        span_nm,
        n_trials,
        rng,
        offset_mean_nm=tilt.nominal.mean_nm,
        backend=backend,
    )
    positions = batch.positions
    # First slot strictly beyond the span: columns are sorted and the
    # engine guarantees the last slot cleared the span, so the index
    # always exists.
    stop_index = np.sum(positions <= span_nm, axis=0)
    columns = np.arange(positions.shape[1])
    gap_sum = (
        backend.take_pairs(positions, stop_index, columns) + batch.start_offsets
    )
    n_gaps = stop_index + 1
    log_w = _affine_log_weights(tilt, n_gaps, gap_sum, backend)
    return batch, log_w


def window_stopped_log_weights(
    batch: TrackBatch,
    tilt: GapTilt,
    hi: np.ndarray,
    trial_index: np.ndarray,
    stop_index: Optional[np.ndarray] = None,
    backend: Optional[NumpyBackend] = None,
) -> np.ndarray:
    """Per-query log weights stopped at each query's own upper bound.

    For a flat list of window queries (as in
    :func:`repro.montecarlo.engine.count_in_windows_flat`) the unbiased
    weight for a functional of the tracks below ``hi[q]`` only needs the
    trajectory up to the first track beyond ``hi[q]`` — stopping there keeps
    the weight noise proportional to the window's altitude instead of the
    whole span, which is what makes per-device values usable on full
    placement rows.

    ``stop_index`` lets callers reuse indices already produced by the
    counting pass (``count_in_windows_flat(..., return_stop_index=True)``)
    instead of searching a second time.
    """
    if backend is None:
        backend = default_backend()
    positions = batch.positions
    if batch.start_offsets is None:
        raise ValueError("batch must carry start_offsets (engine-sampled)")
    hi = np.asarray(hi, dtype=float)
    if np.any(hi > batch.span_nm):
        raise ValueError("window upper bounds must lie inside the span")
    if stop_index is None:
        stop_index = window_stop_indices(positions, hi, trial_index)
    gap_sum = (backend.take_pairs(positions, stop_index, trial_index)
               + np.take(batch.start_offsets, trial_index))
    n_gaps = stop_index + 1
    return _affine_log_weights(tilt, n_gaps, gap_sum, backend)


# ----------------------------------------------------------------------
# Chunked device-level tail estimator
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _TiltedDevicePayload:
    """Picklable chunk payload for the tilted device estimator."""

    tilt: GapTilt
    width_nm: float
    per_cnt_failure: float
    backend: Optional[NumpyBackend] = None


def _device_tilted_chunk(
    payload: _TiltedDevicePayload, n_chunk: int, rng: np.random.Generator
) -> Tuple[np.ndarray]:
    """One chunk of tilted device trials: per-trial contributions."""
    backend = payload.backend if payload.backend is not None else default_backend()
    batch, log_w = sample_weighted_track_batch(
        payload.tilt, payload.width_nm, n_chunk, rng, backend=backend
    )
    values = np.power(
        payload.per_cnt_failure,
        np.asarray(batch.counts(), dtype=backend.accum_dtype),
    )
    return (values * np.exp(log_w),)


def _default_trial_chunk(
    pitch: PitchDistribution, span_nm: float, n_trials: int
) -> int:
    """Engine chunk-sizing policy with the renewal gap count per trial."""
    return default_trial_chunk(
        max(1, estimate_gap_count(pitch, span_nm)), n_trials
    )


def sample_tilted_contributions(
    tilt: GapTilt,
    span_nm: float,
    per_cnt_failure: float,
    n_samples: int,
    rng: np.random.Generator,
    backend: Optional[NumpyBackend] = None,
) -> np.ndarray:
    """Per-trial contributions ``pf^N · w`` for ``n_samples`` tilted trials.

    The sequential building block shared by the row-level samplers: same
    per-chunk computation as the chunk worker of
    :func:`estimate_device_failure_tilted`, but drawing from one caller
    stream (memory-bounded by the engine chunk policy) instead of spawned
    per-chunk streams.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    payload = _TiltedDevicePayload(
        tilt=tilt, width_nm=float(span_nm),
        per_cnt_failure=float(per_cnt_failure), backend=backend,
    )
    chunk = _default_trial_chunk(tilt.tilted, span_nm, n_samples)
    contributions = np.empty(n_samples)
    done = 0
    while done < n_samples:
        n = min(chunk, n_samples - done)
        contributions[done:done + n] = _device_tilted_chunk(payload, n, rng)[0]
        done += n
    return contributions


def _tilted_device_tasks(
    pitch: PitchDistribution,
    per_cnt_failure: float,
    width_nm: float,
    n_samples: int,
    rng: np.random.Generator,
    tilt_factor: Optional[float],
    backend: Optional[NumpyBackend] = None,
) -> List[SeededChunk]:
    """The chunk tasks of one tilted device estimate (engine chunk policy)."""
    ensure_positive(width_nm, "width_nm")
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    tilt = resolve_tilt(pitch, width_nm, per_cnt_failure, tilt_factor)
    payload = _TiltedDevicePayload(
        tilt=tilt, width_nm=float(width_nm),
        per_cnt_failure=float(per_cnt_failure), backend=backend,
    )
    return chunk_tasks(
        _device_tilted_chunk, payload, n_samples, rng,
        _default_trial_chunk(tilt.tilted, width_nm, n_samples),
    )


def _weighted_estimates(
    campaign: str, task_lists: List[List[SeededChunk]], execution: Execution
) -> List[WeightedEstimate]:
    """Run every estimate's chunks as one campaign; one summary per list."""
    chunks = execution.run(campaign, [t for tasks in task_lists for t in tasks])
    estimates, start = [], 0
    for tasks in task_lists:
        mine = chunks[start:start + len(tasks)]
        estimates.append(weighted_estimate(np.concatenate([c[0] for c in mine])))
        start += len(tasks)
    return estimates


def estimate_device_failure_tilted(
    pitch: PitchDistribution,
    per_cnt_failure: float,
    width_nm: float,
    n_samples: int,
    rng: np.random.Generator,
    tilt_factor: Optional[float] = None,
    backend: Optional[NumpyBackend] = None,
    execution: Execution = Execution(),
) -> WeightedEstimate:
    """Importance-sampled device failure probability pF(W) — the tail path.

    Samples renewal trials under the exponentially tilted gap law and
    averages ``pf^N · w`` with the stopped likelihood-ratio weight ``w``.
    Runs through the engine's deterministic chunking, so results are
    bitwise independent of ``execution`` exactly like the naive engine.
    """
    tasks = _tilted_device_tasks(
        pitch, per_cnt_failure, width_nm, n_samples, rng, tilt_factor, backend
    )
    return _weighted_estimates("device-tilted", [tasks], execution)[0]


def estimate_device_failure_grid(
    pitch: PitchDistribution,
    per_cnt_failure: float,
    widths_nm: np.ndarray,
    n_samples: int,
    seed_key: Sequence[int],
    tilt_factor: Optional[float] = None,
    execution: Execution = Execution(),
) -> List[WeightedEstimate]:
    """Tilted tail estimates over a width grid — the yield-surface MC path.

    Every grid point gets its own stream seeded by ``seed_key`` extended
    with the width *coordinate* (rounded to 1e-6 nm), not the grid index:
    a point's estimate is therefore independent of grid order and of how
    the sweep was batched — evaluating ``[a, b]`` and later ``[b]`` alone
    under the same ``seed_key`` yields bitwise-identical results for
    ``b``, which is what lets the surface builder's refinement cache mix
    batches freely.  The chunks of every point run as one campaign, so
    the estimates stay bitwise independent of ``execution``, exactly
    like the single-point estimator.
    """
    base_key = [int(part) for part in seed_key]
    task_lists = [
        _tilted_device_tasks(
            pitch,
            per_cnt_failure,
            float(width),
            n_samples,
            np.random.default_rng(base_key + [int(round(width * 1e6))]),
            tilt_factor,
        )
        for width in np.asarray(widths_nm, dtype=float)
    ]
    return _weighted_estimates("device-tilted-grid", task_lists, execution)


# ----------------------------------------------------------------------
# Multilevel splitting (adaptive subset simulation)
# ----------------------------------------------------------------------


class SplittingModel:
    """State space of one splitting particle.

    A particle is a dict of coordinate arrays whose leading axis indexes
    particles; every coordinate is i.i.d. under the prior, which is what
    makes the refresh-a-random-subset Metropolis kernel correct (the
    proposal is prior-reversible, so acceptance reduces to the level
    constraint).  Subclasses declare the coordinate blocks and map a state
    to its severity — failure is the event ``severity <= 0``, and severity
    must be monotone: conditioning on ``severity <= level`` for decreasing
    levels walks toward the failure set.
    """

    def component_shapes(self, n_particles: int) -> Dict[str, Tuple[int, ...]]:
        """Name and array shape of every coordinate block of ``n_particles``."""
        raise NotImplementedError

    def sample_component(
        self, name: str, shape: Tuple[int, ...], rng: np.random.Generator
    ) -> np.ndarray:
        """Prior draw of coordinate block ``name`` at ``shape``."""
        raise NotImplementedError

    def severity(self, state: Dict[str, np.ndarray]) -> np.ndarray:
        """Per-particle severity; a particle has failed where it is ``<= 0``."""
        raise NotImplementedError

    # -- generic machinery ------------------------------------------------

    def sample(self, n_particles: int, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        """Prior draw of ``n_particles`` whole states, block by block."""
        return {
            name: self.sample_component(name, shape, rng)
            for name, shape in self.component_shapes(n_particles).items()
        }

    def mutate(
        self,
        state: Dict[str, np.ndarray],
        rng: np.random.Generator,
        refresh_fraction: float,
    ) -> Dict[str, np.ndarray]:
        """Propose a state with a random subset of coordinates refreshed."""
        proposal: Dict[str, np.ndarray] = {}
        for name, arr in state.items():
            mask = rng.random(arr.shape) < refresh_fraction
            fresh = self.sample_component(name, arr.shape, rng)
            proposal[name] = np.where(mask, fresh, arr)
        return proposal


class _RowModelBase(SplittingModel):
    """Shared geometry bookkeeping for the row-scenario splitting models."""

    def __init__(
        self,
        pitch: PitchDistribution,
        per_cnt_failure: float,
        device_width_nm: float,
        devices_per_segment: int,
        span_nm: float,
    ) -> None:
        self.pitch = pitch
        self.per_cnt_failure = float(per_cnt_failure)
        self.device_width_nm = ensure_positive(device_width_nm, "device_width_nm")
        if devices_per_segment < 1:
            raise ValueError("devices_per_segment must be at least 1")
        self.devices_per_segment = int(devices_per_segment)
        self.span_nm = ensure_positive(span_nm, "span_nm")
        # 8-sigma renewal margin: the truncation probability of the fixed
        # gap budget is negligible against any estimable failure level.
        self.n_slots = max(1, estimate_gap_count(pitch, span_nm))

    def _positions(
        self, gaps: np.ndarray, offset_u: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        positions = np.cumsum(gaps, axis=-1)
        positions = positions - (offset_u * self.pitch.mean_nm)[..., None]
        valid = (positions >= 0.0) & (positions <= self.span_nm)
        return positions, valid

    def sample_component(
        self, name: str, shape: Tuple[int, ...], rng: np.random.Generator
    ) -> np.ndarray:
        if name == "gaps":
            return self.pitch.sample_batch(shape, rng)
        # offset_u / tube_u / dev_u are all uniform(0, 1) coordinates.
        return rng.random(shape)


class AlignedRowModel(_RowModelBase):
    """Aligned-active segment: one shared track set, severity = working count."""

    def __init__(
        self,
        pitch: PitchDistribution,
        per_cnt_failure: float,
        device_width_nm: float,
    ) -> None:
        super().__init__(
            pitch, per_cnt_failure, device_width_nm,
            devices_per_segment=1, span_nm=device_width_nm,
        )

    def component_shapes(self, n: int) -> Dict[str, Tuple[int, ...]]:
        """One shared gap sequence, offset and per-tube uniforms per particle."""
        return {
            "gaps": (n, self.n_slots),
            "offset_u": (n,),
            "tube_u": (n, self.n_slots),
        }

    def severity(self, state: Dict[str, np.ndarray]) -> np.ndarray:
        """Working tubes inside the shared device window."""
        _, valid = self._positions(state["gaps"], state["offset_u"])
        working = (state["tube_u"] >= self.per_cnt_failure) & valid
        return working.sum(axis=1)


class UncorrelatedRowModel(_RowModelBase):
    """Uncorrelated segment: independent tracks per device, severity = min count.

    The particle state scales as ``n_particles × devices × slots``, so this
    model is a *cross-check* tool for modest segments; paper-scale segments
    (hundreds of devices) have the closed-form tilt and should use the
    tilted sampler instead.  :meth:`component_shapes` enforces a memory
    budget to fail fast rather than thrash.
    """

    def __init__(
        self,
        pitch: PitchDistribution,
        per_cnt_failure: float,
        device_width_nm: float,
        devices_per_segment: int,
    ) -> None:
        super().__init__(
            pitch, per_cnt_failure, device_width_nm,
            devices_per_segment=devices_per_segment, span_nm=device_width_nm,
        )

    def component_shapes(self, n: int) -> Dict[str, Tuple[int, ...]]:
        """Independent gaps, offset and tube uniforms per device per particle.

        Raises ``ValueError`` when the state would exceed the memory budget.
        """
        d = self.devices_per_segment
        if n * d * self.n_slots > 8 * DEFAULT_BATCH_ELEMENTS:
            raise ValueError(
                f"uncorrelated splitting state ({n} particles × {d} devices "
                f"× {self.n_slots} slots) exceeds the memory budget; this "
                "scenario has a closed-form tilt — use sampler='tilted' or "
                "reduce the particle count"
            )
        return {
            "gaps": (n, d, self.n_slots),
            "offset_u": (n, d),
            "tube_u": (n, d, self.n_slots),
        }

    def severity(self, state: Dict[str, np.ndarray]) -> np.ndarray:
        """Fewest working tubes over the segment's independent devices."""
        _, valid = self._positions(state["gaps"], state["offset_u"])
        working = (state["tube_u"] >= self.per_cnt_failure) & valid
        return working.sum(axis=2).min(axis=1)


class NonAlignedRowModel(_RowModelBase):
    """Non-aligned segment: shared tubes, random per-device y offsets.

    This is the scenario the paper itself evaluates numerically and the one
    with no closed-form tilt: the failure event couples the shared tube
    outcomes with every device's random offset window.  Severity is the
    minimum working-tube count over the segment's device windows.
    """

    def __init__(
        self,
        pitch: PitchDistribution,
        per_cnt_failure: float,
        device_width_nm: float,
        devices_per_segment: int,
        cell_height_window_nm: float,
    ) -> None:
        if cell_height_window_nm < 0:
            raise ValueError("cell_height_window_nm must be non-negative")
        super().__init__(
            pitch, per_cnt_failure, device_width_nm,
            devices_per_segment=devices_per_segment,
            span_nm=cell_height_window_nm + device_width_nm,
        )
        self.cell_height_window_nm = float(cell_height_window_nm)

    def component_shapes(self, n: int) -> Dict[str, Tuple[int, ...]]:
        """Shared tracks per particle plus one window-offset uniform per device."""
        return {
            "gaps": (n, self.n_slots),
            "offset_u": (n,),
            "tube_u": (n, self.n_slots),
            "dev_u": (n, self.devices_per_segment),
        }

    def severity(self, state: Dict[str, np.ndarray]) -> np.ndarray:
        """Fewest working tubes over the devices' offset windows."""
        positions, valid = self._positions(state["gaps"], state["offset_u"])
        working = (state["tube_u"] >= self.per_cnt_failure) & valid
        # The particle state is trial-major; the engine's batches are
        # slot-major, so the counter reads the transposes.
        batch = TrackBatch(positions=positions.T, span_nm=self.span_nm)
        lo = state["dev_u"] * self.cell_height_window_nm
        counts = count_in_windows(
            batch, working.T.astype(float), lo, lo + self.device_width_nm
        )
        return counts.min(axis=1)


@dataclass(frozen=True)
class SplittingResult:
    """Outcome of one adaptive multilevel-splitting run.

    ``relative_error`` uses the standard independent-level approximation
    ``Σ_l (1 - p_l) / (p_l · n)``; level-to-level particle correlation makes
    it a mild underestimate, which the statistical tests absorb in their
    n-sigma margins.
    """

    probability: float
    relative_error: float
    n_particles: int
    level_probabilities: Tuple[float, ...]
    levels: Tuple[float, ...]

    @property
    def standard_error(self) -> float:
        """Absolute standard error (``inf`` when the relative error is)."""
        if not math.isfinite(self.relative_error):
            return float("inf")
        return self.probability * self.relative_error

    @property
    def n_levels(self) -> int:
        """Number of intermediate levels the run went through."""
        return len(self.level_probabilities)


def multilevel_splitting(
    model: SplittingModel,
    n_particles: int,
    rng: np.random.Generator,
    level_fraction: float = 0.25,
    n_mutation_sweeps: int = 3,
    refresh_fraction: float = 0.2,
    max_levels: int = 64,
) -> SplittingResult:
    """Estimate ``P{severity <= 0}`` by adaptive subset simulation.

    Levels are picked as the running ``level_fraction`` quantile of the
    particle severities (floored to the integer grid and forced strictly
    decreasing), survivors are bootstrap-resampled back to ``n_particles``
    and rejuvenated by ``n_mutation_sweeps`` prior-refresh Metropolis
    sweeps.  The product of per-level survival fractions estimates the
    failure probability.
    """
    if n_particles < 8:
        raise ValueError("n_particles must be at least 8")
    if not 0.0 < level_fraction < 1.0:
        raise ValueError("level_fraction must lie in (0, 1)")
    if not 0.0 < refresh_fraction <= 1.0:
        raise ValueError("refresh_fraction must lie in (0, 1]")
    state = model.sample(n_particles, rng)
    sev = np.asarray(model.severity(state), dtype=float)
    level_probs: List[float] = []
    levels: List[float] = []
    prev_level = math.inf
    for _ in range(max_levels):
        candidate = math.floor(float(np.quantile(sev, level_fraction)))
        level = min(candidate, prev_level - 1.0)
        if level <= 0.0:
            p_final = float(np.mean(sev <= 0.0))
            level_probs.append(p_final)
            levels.append(0.0)
            break
        p_l = float(np.mean(sev <= level))
        if p_l <= 0.0:
            # The floor-and-decrement rule left no survivors: the estimate
            # collapses to zero with no error information.
            return SplittingResult(
                probability=0.0,
                relative_error=float("inf"),
                n_particles=n_particles,
                level_probabilities=tuple(level_probs),
                levels=tuple(levels),
            )
        level_probs.append(p_l)
        levels.append(level)
        prev_level = level
        survivors = np.flatnonzero(sev <= level)
        take = survivors[rng.integers(0, survivors.size, n_particles)]
        state = {name: arr[take] for name, arr in state.items()}
        sev = sev[take]
        for _ in range(n_mutation_sweeps):
            proposal = model.mutate(state, rng, refresh_fraction)
            prop_sev = np.asarray(model.severity(proposal), dtype=float)
            accept = prop_sev <= level
            for name in state:
                state[name][accept] = proposal[name][accept]
            sev[accept] = prop_sev[accept]
    else:
        raise RuntimeError(
            f"splitting did not reach severity 0 within {max_levels} levels; "
            "the failure probability is too small for this particle budget"
        )
    probability = float(np.prod(level_probs))
    if probability > 0.0:
        re2 = sum((1.0 - p) / (p * n_particles) for p in level_probs)
        relative_error = math.sqrt(re2)
    else:
        relative_error = float("inf")
    return SplittingResult(
        probability=probability,
        relative_error=relative_error,
        n_particles=int(n_particles),
        level_probabilities=tuple(level_probs),
        levels=tuple(levels),
    )
