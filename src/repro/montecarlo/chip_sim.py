"""Full-chip Monte Carlo: placed design + directional growth + device capture.

The device- and row-level simulators validate the analytical formulas in
isolation.  This module closes the loop at the design level: it takes a
*placed* concrete design (cells packed into rows by
:class:`~repro.netlist.placement.RowPlacement`), grows CNT tracks over every
row, materialises each transistor as a y-window over those tracks, and
counts CNT-count failures.  Because devices in the same row that share a
y-band capture the *same* tracks, the correlation the paper exploits emerges
from the geometry rather than being assumed — so comparing an original
library against its aligned-active variant directly demonstrates the yield
benefit.

Batched engine
--------------
:meth:`ChipMonteCarlo.run` is an array program built on
:mod:`repro.montecarlo.engine`: every (trial, row) pair of a chunk becomes
one renewal trial, one column of a single slot-major
:func:`~repro.montecarlo.engine.sample_track_batch` call (one 2D gap draw
and a running sum down the slot axis), and every device window of every
trial is answered by one pass of column-local searches
(:func:`~repro.montecarlo.engine.count_in_windows_flat`).  Only the tubes
an answer reads are drawn: the tracks are the working tubes (and, with
imperfect metallic removal, the surviving shorts) of the pitch thinned
by :meth:`~repro.growth.pitch.PitchDistribution.thinned`, so an
opens-only window count is its search alone.  Trials are
processed in fixed-size chunks whose boundaries depend only on the trial
count, and each chunk consumes its own ``spawn_key``-derived RNG stream —
so a run is bitwise reproducible for any
:class:`~repro.resilience.supervise.Execution`, and ``n_workers > 1``
distributes the same chunks over a process pool for multi-core scaling.
The pre-vectorisation per-trial loop is retained as
:meth:`ChipMonteCarlo.run_scalar` as a cross-check oracle for the
statistical-equivalence tests.

The simulator targets small blocks (thousands of devices) at elevated
failure probabilities where the statistics are measurable; the analytical
model extrapolates to the 1e8-device, 1e-9-probability regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

import repro.montecarlo.rare_event as rare_event
from repro.backend import NumpyBackend, default_backend
from repro.growth.pitch import GapTilt, PitchDistribution, pitch_distribution_from_cv
from repro.growth.types import CNTTypeModel
from repro.montecarlo.engine import (
    BLOCK,
    count_in_windows_flat,
    default_trial_chunk,
    estimate_gap_count,
    run_chunked,
    sample_track_batch,
)
from repro.netlist.placement import PlacedInstance, RowPlacement
from repro.resilience.guards import check_finite
from repro.resilience.supervise import Execution
from repro.units import ensure_positive


@dataclass(frozen=True)
class ChipMCResult:
    """Aggregate outcome of a chip-level Monte Carlo run."""

    n_trials: int
    device_count: int
    small_device_count: int
    chip_yield: float
    mean_failing_devices: float
    std_failing_devices: float
    mean_failing_rows: float
    device_failure_rate: float

    @property
    def failure_clustering_index(self) -> float:
        """Variance-to-mean ratio of the failing-device count.

        Independent device failures give a ratio near 1 (Poisson-like);
        correlated failures (shared tubes) push it well above 1 because
        failures arrive in row-sized bursts.
        """
        if self.mean_failing_devices == 0:
            return float("nan")
        return self.std_failing_devices ** 2 / self.mean_failing_devices


@dataclass(frozen=True)
class ChipTailResult:
    """Importance-sampled tail estimate of a placed design's chip yield.

    Produced by :meth:`ChipMonteCarlo.run` with ``sampler="tilted"``.  The
    per-window device failure probabilities are Rao-Blackwellised
    (``pf ** N_window`` given the sampled tracks) and weighted by
    likelihood ratios stopped at each window's own upper bound; the chip
    yield is assembled as ``Π_rows (1 - Σ_windows pF_window)`` — rows are
    independent and the within-row union bound is first-order exact in the
    rare-failure regime this sampler targets (the same approximation
    Eq. 3.1 makes analytically).
    """

    n_trials: int
    device_count: int
    small_device_count: int
    chip_yield: float
    yield_standard_error: float
    expected_failing_devices: float
    expected_failing_devices_se: float
    effective_sample_size: float
    tilt_factor: float

    @property
    def device_failure_rate(self) -> float:
        """Mean per-device failure probability implied by the estimate."""
        if self.device_count == 0:
            return float("nan")
        return self.expected_failing_devices / self.device_count

    @property
    def yield_relative_error(self) -> float:
        """Standard error of the yield-loss, relative to the yield-loss."""
        loss = 1.0 - self.chip_yield
        if loss == 0:
            return float("nan")
        return self.yield_standard_error / loss


@dataclass(frozen=True)
class _ChipGeometry:
    """Picklable snapshot of everything a chunk worker needs.

    Device windows are flattened across the rows that contain at least one
    transistor, after per-row deduplication: cells repeat along a row, so
    many transistors cover the *same* y-band and therefore capture exactly
    the same tracks.  One query per distinct ``(y_low, y_high)`` window with
    a multiplicity weight gives bit-identical failure counts at a fraction
    of the lookups.  ``window_lo/hi[w]`` bound distinct window ``w``,
    ``window_weight[w]`` is how many devices share it, ``window_row[w]``
    names its row, and ``row_starts`` delimits each row's contiguous slice
    (for ``np.add.reduceat``).  ``short_probability`` is the per-tube
    surviving-short probability ``q`` of :mod:`repro.device.shorts` and
    ``min_working_tubes`` the open threshold ``N_min``; at the defaults
    (``q = 0``, ``N_min = 1``) every kernel reduces bitwise to the
    pre-shorts opens-only behaviour.
    """

    pitch: PitchDistribution
    per_cnt_failure: float
    row_height_nm: float
    n_rows: int
    window_lo: np.ndarray
    window_hi: np.ndarray
    window_weight: np.ndarray
    window_row: np.ndarray
    row_starts: np.ndarray
    backend: Optional[NumpyBackend] = None
    short_probability: float = 0.0
    min_working_tubes: int = 1


def _width_class_matrix(
    geometry: _ChipGeometry,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Width-class structure of a placement geometry — the single source.

    Returns ``(widths_nm, class_matrix, class_counts)``: the sorted
    distinct window spans (each window's ``y_high - y_low``, rounded to
    6 decimals so float noise cannot split a class), the dense
    ``(n_windows, Q)`` matrix whose entry ``(w, q)`` is the device
    multiplicity of window ``w`` if it belongs to class ``q`` (else 0),
    and the per-class device totals.  One matmul of a per-trial failing
    mask against ``class_matrix`` yields every class's failing-device
    count.  Both :meth:`ChipMonteCarlo.width_class_histogram` and the
    wafer tier's Eq. 2.3 assembly derive their classes here, so the two
    views can never diverge.
    """
    spans = np.round(geometry.window_hi - geometry.window_lo, 6)
    widths = np.unique(spans)
    class_matrix = (
        (spans[:, None] == widths[None, :])
        * geometry.window_weight[:, None].astype(float)
    )
    return widths, class_matrix, class_matrix.sum(axis=0)


def _chunk_queries(
    geometry: _ChipGeometry, n_chunk: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(trial_index, lo, hi)`` window queries of a chunk's batch.

    Query ``(t, w)`` of the ``(n_chunk, n_windows)`` grid asks window
    ``w`` of chip trial ``t``, which lives on flat renewal trial
    ``t * n_rows + window_row[w]``.  The trial index is one broadcast
    add; ``lo`` and ``hi`` are read-only broadcast views of the
    geometry's bounds, so no per-chunk copy of them is made.
    """
    shape = (n_chunk, geometry.window_lo.size)
    trial_index = (
        (np.arange(n_chunk) * geometry.n_rows)[:, None] + geometry.window_row
    )
    lo = np.broadcast_to(geometry.window_lo, shape)
    hi = np.broadcast_to(geometry.window_hi, shape)
    return trial_index, lo, hi


def _kept_fraction(geometry: _ChipGeometry) -> float:
    """Share of tubes the naive chip kernel draws: working ones and shorts.

    The three per-tube states partition the tubes as short (``q``), dud
    (``pf − q``) and working (``1 − pf``); only duds are never read.
    """
    return 1.0 - geometry.per_cnt_failure + geometry.short_probability


def _drawn_pitch(geometry: _ChipGeometry) -> PitchDistribution:
    """Gap law :func:`_chip_window_counts_joint` draws (the full law when it
    keeps no tube and so draws nothing)."""
    keep = _kept_fraction(geometry)
    return geometry.pitch.thinned(keep) if keep > 0.0 else geometry.pitch


def _short_marks(
    rng: np.random.Generator, n_cells: int, p_short: float
) -> np.ndarray:
    """Sorted indices in ``[0, n_cells)`` of independent Bernoulli(p_short) marks.

    The skips between marks are geometric, so the draw costs one variate
    per mark, not one per cell: one block sized for the expected marks
    plus a margin, and a further block while the last mark falls short
    of the end.
    """
    expected = n_cells * p_short
    size = int(expected + 4.0 * math.sqrt(expected)) + BLOCK
    marks = np.cumsum(rng.geometric(p_short, size)) - 1
    while marks[-1] < n_cells:
        more = np.cumsum(rng.geometric(p_short, size))
        marks = np.concatenate([marks, more + marks[-1]])
    return marks[:np.searchsorted(marks, n_cells)]


def _chip_window_counts_joint(
    geometry: _ChipGeometry,
    n_chunk: int,
    rng: np.random.Generator,
    slot_values: Optional[Callable] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Per-(trial, distinct window) working and short tube counts.

    Every (trial, row) pair is one renewal trial; flat trial ``t * n_rows + r``
    carries row ``r`` of chip trial ``t``.  Returns ``(working, shorts,
    summed)`` matrices of shape ``(n_chunk, n_windows)``; ``shorts`` is
    ``None`` in the opens-only regime (``short_probability = 0``).

    Only the tubes a window's answer reads are drawn: the tracks are the
    kept tubes of the pitch thinned to :func:`_kept_fraction`
    (:meth:`~repro.growth.pitch.PitchDistribution.thinned`), started one
    uniformly offset *unthinned* mean pitch below the origin, so they
    are equal in law to drawing every tube and dropping the duds.  In the
    opens-only regime every kept tube works and a window's count is its
    search alone, with no running count.  In the joint regime each kept
    tube is a short with probability ``q / (1 − pf + q)``; the marks are
    drawn after the tracks, one geometric skip per mark over the batch's
    slot-major cells (:func:`_short_marks`), and get the one running
    count of the pass.  The joint mode therefore draws its own stream;
    ``q = 0`` runs take the literal opens-only path.  With ``pf = 1`` and
    no shorts no tube is kept: nothing is drawn and every window counts
    zero.

    ``slot_values(rng, tubes, backend)``, when given, draws one value per
    working in-span tube, the ``True`` slots of the slot-major mask
    ``tubes`` (the timing tier's per-tube on-current), and returns them
    in an array of the mask's shape that is zero elsewhere; ``summed`` is
    then each window's sum of it over its working tubes, else ``None``.
    The draw comes last and gets its own running count in the same
    search pass, so the counts are bitwise those of a run without it.

    Device windows lie inside the row span (the geometry clamps them), so
    they never capture an out-of-span track: the tube states are counted
    without the batch's validity mask.
    """
    backend = geometry.backend if geometry.backend is not None else default_backend()
    shape = (n_chunk, geometry.window_lo.size)
    keep = _kept_fraction(geometry)
    if keep <= 0.0:
        return np.zeros(shape), None, (
            np.zeros(shape) if slot_values is not None else None
        )
    batch = sample_track_batch(
        _drawn_pitch(geometry), geometry.row_height_nm, n_chunk * geometry.n_rows,
        rng, offset_mean_nm=geometry.pitch.mean_nm, backend=backend,
    )
    trial_index, lo, hi = _chunk_queries(geometry, n_chunk)
    # Kept-tube counts come from the search alone; the short marks and the
    # slot values, when present, get one running count each in that pass.
    weights = [None]
    marked = None
    if geometry.short_probability > 0.0:
        marked = np.zeros(batch.positions.shape, dtype=np.bool_)
        marked.ravel()[_short_marks(
            rng, marked.size, geometry.short_probability / keep
        )] = True
        weights.append(marked)
    if slot_values is not None:
        tubes = batch.valid if marked is None else batch.valid & ~marked
        weights.append(slot_values(rng, tubes, backend))
    if len(weights) == 1:
        kept = count_in_windows_flat(
            batch.positions, None, lo, hi, trial_index, backend=backend
        )
        return kept, None, None
    counts = count_in_windows_flat(
        batch.positions, weights, lo, hi, trial_index, backend=backend
    )
    working, shorts = counts[0], None
    if marked is not None:
        shorts = counts[1]
        working = working - shorts
    return working, shorts, counts[-1] if slot_values is not None else None


def _failing_windows(
    geometry: _ChipGeometry, good: np.ndarray, shorts: Optional[np.ndarray]
) -> np.ndarray:
    """The functional failure predicate on :func:`_chip_window_counts_joint` counts.

    A window fails with fewer than ``min_working_tubes`` working tubes
    (open) or at least one surviving short.  The opens-only predicate is
    kept as the literal ``== 0`` comparison so the default configuration
    stays bitwise identical to the pre-shorts engine.
    """
    if geometry.min_working_tubes <= 1:
        failing = good == 0
    else:
        failing = good < geometry.min_working_tubes
    if shorts is not None:
        failing = failing | (shorts > 0)
    return failing


def _chip_window_failures(
    geometry: _ChipGeometry, n_chunk: int, rng: np.random.Generator
) -> np.ndarray:
    """Boolean failing matrix ``(n_chunk, n_windows)`` of one chunk.

    :func:`_failing_windows` over freshly sampled counts: the kernel of
    :func:`_simulate_chip_chunk` and the wafer tier's per-die chip runs
    (:func:`repro.montecarlo.wafer_sim.run_chip_wafer`).  The timing tier
    (:mod:`repro.timing.parametric`) applies the same predicate to the
    same counts, so functional and parametric yield come from the *same*
    per-trial tracks.
    """
    working, shorts, _ = _chip_window_counts_joint(geometry, n_chunk, rng)
    return _failing_windows(geometry, working, shorts)


def _failing_devices(geometry: _ChipGeometry, failing: np.ndarray) -> np.ndarray:
    """Per-trial failing-device count of a failing-window matrix.

    Each failing window counts once per device sharing it.  The chip
    chunk and the timing tier both reduce through here, so their failing
    devices are bitwise equal for the same counts.
    """
    return (failing * geometry.window_weight).sum(axis=1).astype(float)


def _failing_devices_and_rows(
    geometry: _ChipGeometry, failing: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-trial failing device and failing row counts of a failing-window matrix.

    The per-row reduction is a host-side ``reduceat`` over the (small)
    per-window results.  The chip chunk and the wafer tier's per-die chip
    chunk both reduce through here.
    """
    per_row = np.add.reduceat(failing, geometry.row_starts, axis=1)
    failing_rows = (per_row > 0).sum(axis=1).astype(float)
    return _failing_devices(geometry, failing), failing_rows


def _simulate_chip_chunk(
    geometry: _ChipGeometry, n_chunk: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Simulate one chunk of whole-chip trials, fully vectorised.

    Returns the per-trial failing device and failing row counts of
    :func:`_chip_window_failures`.
    """
    failing = _chip_window_failures(geometry, n_chunk, rng)
    return _failing_devices_and_rows(geometry, failing)


def _direct_statistics(
    failing_devices: np.ndarray, failing_rows: np.ndarray, device_count: float
) -> Dict[str, float]:
    """The direct chip statistics of per-trial failing devices and rows.

    Keyed by the field names :class:`ChipMCResult` and the wafer tier's
    :class:`~repro.montecarlo.wafer_sim.ChipDieYield` share, so a
    per-die chip run reports exactly what a fresh simulator would.
    """
    check_finite(failing_devices, "chip_mc.failing_devices")
    check_finite(failing_rows, "chip_mc.failing_rows")
    n_trials = failing_devices.size
    return dict(
        chip_yield=float(np.mean(failing_devices == 0)),
        mean_failing_devices=float(np.mean(failing_devices)),
        std_failing_devices=(
            float(np.std(failing_devices, ddof=1)) if n_trials > 1 else 0.0
        ),
        mean_failing_rows=float(np.mean(failing_rows)),
        device_failure_rate=(
            float(np.mean(failing_devices) / device_count)
            if device_count else float("nan")
        ),
    )


def _chip_trial_chunk(
    pitch: PitchDistribution, geometry: _ChipGeometry, n_trials: int
) -> int:
    """Trials per batch of a chip campaign that draws its gaps from ``pitch``.

    The engine's one chunk policy (:func:`default_trial_chunk`) with the
    chip's gap count per trial, at the law actually drawn: naive runs and
    the wafer tier's per-die chip runs at the thinned pitch of
    :func:`_drawn_pitch` (a die's with its own mean, so its layout, hence
    its RNG streams, are those of a fresh per-die simulator), tilted runs
    at the tilted pitch.
    """
    est_slots = estimate_gap_count(pitch, geometry.row_height_nm)
    return default_trial_chunk(max(1, geometry.n_rows * est_slots), n_trials)


@dataclass(frozen=True)
class _TiltedChipPayload:
    """Picklable chunk payload for the importance-sampled chip estimator."""

    geometry: _ChipGeometry
    tilt: GapTilt


def _simulate_chip_chunk_tilted(
    payload: _TiltedChipPayload, n_chunk: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """One chunk of tilted chip trials.

    Every (trial, row) pair is one tilted renewal trial.  Each distinct
    device window contributes the Rao-Blackwellised value
    ``pf ** N_window`` times the likelihood ratio of the trajectory stopped
    at the window's upper bound (stopping per window keeps the weight noise
    proportional to the window's altitude in the row, not the full row
    span).  Returns per-trial per-row window sums (union-bound row failure
    probabilities) and per-trial failing-device expectations.
    """
    geometry = payload.geometry
    backend = geometry.backend if geometry.backend is not None else default_backend()
    batch = sample_track_batch(
        payload.tilt.tilted,
        geometry.row_height_nm,
        n_chunk * geometry.n_rows,
        rng,
        offset_mean_nm=payload.tilt.nominal.mean_nm,
        backend=backend,
    )
    trial_index, lo, hi = _chunk_queries(geometry, n_chunk)
    # Windows lie inside the span: every track of a window counts.
    counts, stop_index = count_in_windows_flat(
        batch.positions, None, lo, hi, trial_index,
        return_stop_index=True,
        backend=backend,
    )
    log_w = rare_event.window_stopped_log_weights(
        batch, payload.tilt, hi, trial_index, stop_index=stop_index,
        backend=backend,
    )
    values = (
        np.power(geometry.per_cnt_failure, counts) * np.exp(log_w)
    ).reshape(n_chunk, -1)
    row_sums = np.add.reduceat(values, geometry.row_starts, axis=1)
    device_sums = (values * geometry.window_weight).sum(axis=1)
    return row_sums, device_sums


class ChipMonteCarlo:
    """Monte Carlo CNT-count-yield simulation of a placed design.

    Placement geometry is materialised exactly once at construction:
    ``placement.run()`` is executed a single time, and the device windows,
    device counts and small-device counts are all derived from that cached
    result.

    Parameters
    ----------
    placement:
        A row placement of the design to simulate.
    pitch:
        Inter-CNT pitch distribution along the device-width (y) axis.
    type_model:
        Metallic/semiconducting and removal statistics.
    row_height_nm:
        Height of the placement row (the span tracks are grown over); taken
        from the first cell when omitted.
    small_width_threshold_nm:
        Devices at or below this width are counted as "small" in the
        statistics (mirrors the Mmin bookkeeping of the analytical model).
    backend:
        Backend of the batched passes (see :mod:`repro.backend`).
        ``None`` means :func:`~repro.backend.default_backend`.
    min_working_tubes:
        Open threshold ``N_min``: a device fails open with fewer working
        tubes than this.  The short failure mode needs no extra knob here —
        it activates whenever ``type_model.surviving_metallic_probability``
        is positive (imperfect metallic removal).
    """

    def __init__(
        self,
        placement: RowPlacement,
        pitch: Optional[PitchDistribution] = None,
        type_model: Optional[CNTTypeModel] = None,
        row_height_nm: Optional[float] = None,
        small_width_threshold_nm: float = 160.0,
        backend: Optional[NumpyBackend] = None,
        min_working_tubes: int = 1,
    ) -> None:
        self.placement = placement
        self.backend = backend
        self.pitch = pitch or pitch_distribution_from_cv(4.0, 1.0)
        self.type_model = type_model or CNTTypeModel()
        if int(min_working_tubes) < 1 or min_working_tubes != int(min_working_tubes):
            raise ValueError(
                f"min_working_tubes must be a positive integer, got {min_working_tubes!r}"
            )
        self.min_working_tubes = int(min_working_tubes)
        self.small_width_threshold_nm = ensure_positive(
            small_width_threshold_nm, "small_width_threshold_nm"
        )
        self._rows = placement.run()
        if row_height_nm is None:
            first_cell = next(
                (p.cell for row in self._rows for p in row.placed
                 if p.cell.transistors),
                None,
            )
            if first_cell is None:
                raise ValueError("placement contains no transistors to simulate")
            row_height_nm = first_cell.height_nm
        self.row_height_nm = ensure_positive(row_height_nm, "row_height_nm")
        self._geometry = self._build_geometry()

    # ------------------------------------------------------------------
    # Geometry pre-computation
    # ------------------------------------------------------------------

    def _build_geometry(self) -> _ChipGeometry:
        """Materialise every device window of the placement in one pass.

        A device's y-window does not depend on where its cell sits along the
        row, so one ``active_regions()`` call per cell master serves all its
        instances (masters are told apart by identity within this
        construction only: cells are mutable).  Windows are clamped into the
        grown span — tracks only exist in ``[0, row_height]`` and the batched
        counter requires in-span queries; a region entirely outside collapses
        to a zero-width window that captures no tracks (the device always
        fails).  From the per-device window keys of one pass over the placed
        instances, array operations derive the counts, the scalar oracle's
        per-row windows, the device-to-window map of :meth:`instance_windows`
        and the engine arrays.  Those are deduplicated per row (devices on
        the same y-band capture the same tracks, so one weighted query
        answers them all) and numbered row by row in order of first
        appearance; rows without transistors cannot fail and are dropped,
        which keeps every simulated row non-empty (``reduceat`` needs that).
        """
        keys: Dict[Tuple[float, float], int] = {}
        masters: Dict[int, Tuple[np.ndarray, int]] = {}
        # An empty leading entry starts the cumulative instance offsets at 0
        # and keeps an empty placement concatenable.
        instance_keys: List[np.ndarray] = [np.zeros(0, np.int64)]
        instance_rows: List[int] = [-1]
        small = 0
        for row_index, row in enumerate(self._rows):
            for placed in row.placed:
                master = masters.get(id(placed.cell))
                if master is None:
                    cell_keys = []
                    for cell_region in placed.cell.active_regions():
                        region = cell_region.region
                        y_low = min(max(region.y_nm, 0.0), self.row_height_nm)
                        y_high = min(max(region.y_end_nm, y_low), self.row_height_nm)
                        cell_keys.append(keys.setdefault((y_low, y_high), len(keys)))
                    master = masters[id(placed.cell)] = (
                        np.asarray(cell_keys, dtype=np.int64),
                        sum(w <= self.small_width_threshold_nm
                            for w in placed.cell.transistor_widths_nm()),
                    )
                instance_keys.append(master[0])
                instance_rows.append(row_index)
                small += master[1]
        per_instance = np.asarray([k.size for k in instance_keys], dtype=np.int64)
        self._instance_starts = np.cumsum(per_instance)
        self._device_count = int(self._instance_starts[-1])
        self._small_device_count = small
        device_key = np.concatenate(instance_keys)
        device_row = np.repeat(instance_rows, per_instance)
        key_lo = np.asarray([lo for lo, _ in keys], dtype=float)
        key_hi = np.asarray([hi for _, hi in keys], dtype=float)

        self._row_windows: List[np.ndarray] = (
            np.split(np.column_stack((key_lo[device_key], key_hi[device_key])),
                     np.flatnonzero(np.diff(device_row)) + 1)
            if self._device_count else []
        )

        n_keys = max(len(keys), 1)
        row_key, first, inverse = np.unique(
            device_row * n_keys + device_key,
            return_index=True, return_inverse=True,
        )
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        self._device_window = rank[inverse]
        row_key = row_key[order]
        window_key = row_key % n_keys
        _, window_row = np.unique(row_key // n_keys, return_inverse=True)
        return _ChipGeometry(
            pitch=self.pitch,
            per_cnt_failure=self.type_model.per_cnt_failure_probability,
            row_height_nm=self.row_height_nm,
            n_rows=len(self._row_windows),
            window_lo=key_lo[window_key],
            window_hi=key_hi[window_key],
            window_weight=np.bincount(
                self._device_window, minlength=order.size
            ).astype(np.int64),
            window_row=window_row.astype(np.int64),
            row_starts=np.flatnonzero(np.diff(window_row, prepend=-1)),
            backend=self.backend,
            short_probability=self.type_model.surviving_metallic_probability,
            min_working_tubes=self.min_working_tubes,
        )

    @property
    def device_count(self) -> int:
        """Number of transistors simulated."""
        return self._device_count

    def chip_geometry(self) -> _ChipGeometry:
        """The cached, picklable geometry snapshot of the placed design.

        One snapshot serves every run of this simulator; the wafer tier
        (:func:`repro.montecarlo.wafer_sim.run_chip_wafer`) substitutes a
        per-die pitch into copies of it (``dataclasses.replace``) instead
        of re-materialising the placement once per die — the structural
        saving its benchmark measures.
        """
        return self._geometry

    def instance_windows(self) -> List[Tuple["PlacedInstance", List[int]]]:
        """Per placed instance, the distinct-window index of each transistor.

        Read from the device-to-window map built with the geometry, so the
        returned indices address columns of the count matrices the chunk
        kernels produce (:func:`_chip_window_counts_joint`).  Instances are
        returned in placement order, each transistor in cell order; an
        instance without transistors (filler cells) gets an empty index
        list.  This is the bridge the timing tier uses to read each gate's
        captured-tube count out of the same sampled tracks that decide
        functional yield.
        """
        windows = self._device_window.tolist()
        starts = self._instance_starts.tolist()
        placed = (p for row in self._rows for p in row.placed)
        return [(p, windows[a:b]) for p, a, b in zip(placed, starts, starts[1:])]

    def width_class_histogram(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """Distinct device-width classes of the placement and their counts.

        Returns
        -------
        widths_nm, device_counts:
            Sorted distinct device widths (each window's ``y_high - y_low``
            span, in nm) and how many transistors of the whole placement
            carry each width.  This is the width-class view the wafer
            tier's Eq. 2.3 product runs over: all classes of a die are
            answered from the same sampled tracks.
        """
        widths, _, counts = _width_class_matrix(self._geometry)
        return tuple(float(w) for w in widths), tuple(float(c) for c in counts)

    @property
    def small_device_count(self) -> int:
        """Number of transistors at or below the small-width threshold."""
        return self._small_device_count

    # ------------------------------------------------------------------
    # Scalar reference implementation (pre-vectorisation oracle)
    # ------------------------------------------------------------------

    def _sample_tracks(
        self, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample track y-positions, working and shorting flags for one row.

        Deliberately does NOT use the batched engine: this is the
        independent implementation of the renewal convention (first track
        one uniformly-offset pitch below the origin, gaps accumulated until
        the span is cleared) that the equivalence tests check the engine
        against.  It draws every tube, and one uniform per track decides
        both failure modes (``[0, q)`` short, ``[q, pf)`` dud, ``[pf, 1)``
        working), so the joint oracle consumes exactly the opens-only RNG
        stream; the batched kernel reaches the same law by drawing only
        the kept tubes (:func:`_chip_window_counts_joint`).
        """
        mean = self.pitch.mean_nm
        block = max(16, int(self.row_height_nm / mean * 1.5) + 8)
        positions: List[float] = []
        y = -float(rng.random()) * mean
        done = False
        while not done:
            for gap in self.pitch.sample(block, rng):
                y += float(gap)
                if y > self.row_height_nm:
                    done = True
                    break
                if y >= 0.0:
                    positions.append(y)
        pos = np.asarray(positions, dtype=float)
        u = rng.random(pos.size)
        working = u >= self.type_model.per_cnt_failure_probability
        shorting = u < self.type_model.surviving_metallic_probability
        return pos, working, shorting

    def _row_failing_devices(
        self, windows: np.ndarray, rng: np.random.Generator
    ) -> int:
        """Number of failing devices in one row for one trial.

        ``windows`` holds one ``(y_low, y_high)`` row per device.  A device
        fails open (fewer than ``min_working_tubes`` working tubes) or short
        (at least one surviving metallic tube in its window).
        """
        positions, working, shorting = self._sample_tracks(rng)
        if positions.size == 0:
            return len(windows)
        # Prefix sums of working tubes let each device query its y-window in
        # O(log n) instead of scanning every track.
        prefix = np.concatenate([[0], np.cumsum(working.astype(int))])
        joint = self.type_model.surviving_metallic_probability > 0.0
        short_prefix = (
            np.concatenate([[0], np.cumsum(shorting.astype(int))]) if joint else None
        )
        n_min = self.min_working_tubes
        failing = 0
        for y_low, y_high in windows:
            lo = np.searchsorted(positions, y_low, side="left")
            hi = np.searchsorted(positions, y_high, side="right")
            good = prefix[hi] - prefix[lo]
            fails = good == 0 if n_min <= 1 else good < n_min
            if not fails and joint:
                fails = short_prefix[hi] - short_prefix[lo] > 0
            if fails:
                failing += 1
        return failing

    def run_scalar(self, n_trials: int, rng: np.random.Generator) -> ChipMCResult:
        """Per-trial/per-row reference implementation of :meth:`run`.

        Draws the same distribution as the batched engine but walks every
        trial, row and window in Python; kept as the oracle for the
        statistical-equivalence tests and as readable documentation of the
        sampling process.
        """
        if n_trials <= 0:
            raise ValueError("n_trials must be positive")
        failing_devices = np.zeros(n_trials, dtype=float)
        failing_rows = np.zeros(n_trials, dtype=float)
        for trial in range(n_trials):
            total_failing = 0
            rows_failing = 0
            for windows in self._row_windows:
                row_failures = self._row_failing_devices(windows, rng)
                total_failing += row_failures
                if row_failures > 0:
                    rows_failing += 1
            failing_devices[trial] = total_failing
            failing_rows[trial] = rows_failing
        return self._result(failing_devices, failing_rows)

    # ------------------------------------------------------------------
    # Batched simulation
    # ------------------------------------------------------------------

    def run(
        self,
        n_trials: int,
        rng: np.random.Generator,
        sampler: str = "naive",
        tilt_factor: Optional[float] = None,
        execution: Execution = Execution(),
    ) -> Union["ChipMCResult", "ChipTailResult"]:
        """Simulate ``n_trials`` fabrications of the placed design.

        Parameters
        ----------
        n_trials:
            Number of whole-chip fabrication trials, processed in chunks
            that keep one batched gap matrix near the engine's element
            budget (~32 MB) and number at least the engine's default
            grain, so a process pool always has work to distribute.
        rng:
            Root generator; each trial chunk consumes its own child stream
            spawned from it, so results do not depend on ``execution``.
        sampler:
            ``"naive"`` (default) returns a :class:`ChipMCResult` from
            direct indicator sampling.  ``"tilted"`` importance-samples the
            failure tail under an exponentially tilted gap distribution and
            returns a :class:`ChipTailResult`; use it when per-device
            failures are too rare for indicators to resolve.
        tilt_factor:
            Mean-pitch stretch factor for ``sampler="tilted"``.  The
            default balances the ``pf``-cancellation rule against the
            stopped-weight stability budget of the row span (see
            :mod:`repro.montecarlo.rare_event`).
        execution:
            How the chunks run (:class:`~repro.resilience.supervise.Execution`):
            workers, checkpoint/resume, retry policy.
        """
        if n_trials <= 0:
            raise ValueError("n_trials must be positive")
        if sampler not in ("naive", "tilted"):
            raise ValueError(
                f"unknown sampler {sampler!r}; expected 'naive' or 'tilted'"
            )
        if sampler == "tilted":
            if (
                self._geometry.short_probability > 0.0
                or self._geometry.min_working_tubes > 1
            ):
                raise ValueError(
                    "sampler='tilted' supports only the opens-only regime: "
                    "its Rao-Blackwellised pf ** N values have no joint "
                    "opens+shorts counterpart (use the naive sampler or the "
                    "closed form of repro.device.shorts)"
                )
            return self._run_tilted(n_trials, rng, tilt_factor, execution)
        if self._geometry.n_rows == 0:
            # No row carries a transistor window: nothing can fail (matches
            # the scalar oracle, which skips empty rows).
            zeros = np.zeros(n_trials)
            return self._result(zeros, zeros)
        geometry = self._geometry
        chunks = run_chunked(
            _simulate_chip_chunk, geometry, n_trials, rng,
            _chip_trial_chunk(_drawn_pitch(geometry), geometry, n_trials),
            execution, "chip-naive",
        )
        failing_devices = np.concatenate([c[0] for c in chunks])
        failing_rows = np.concatenate([c[1] for c in chunks])
        return self._result(failing_devices, failing_rows)

    def default_chip_tilt_factor(self) -> float:
        """Default tilt for :meth:`run` with ``sampler="tilted"``.

        The ``pf``-cancellation rule fixes the in-window weight noise; the
        stability budget over the full row span bounds the below-window
        noise that the per-window stopped weights still accumulate.  The
        smaller of the two wins.
        """
        pf = self._geometry.per_cnt_failure
        return min(
            rare_event.default_tilt_factor(self.pitch, self.row_height_nm, pf),
            rare_event.max_stable_tilt(self.pitch, self.row_height_nm),
        )

    def _run_tilted(
        self,
        n_trials: int,
        rng: np.random.Generator,
        tilt_factor: Optional[float],
        execution: Execution,
    ) -> ChipTailResult:
        if self._geometry.n_rows == 0:
            return ChipTailResult(
                n_trials=int(n_trials),
                device_count=self.device_count,
                small_device_count=self.small_device_count,
                chip_yield=1.0,
                yield_standard_error=0.0,
                expected_failing_devices=0.0,
                expected_failing_devices_se=0.0,
                effective_sample_size=float(n_trials),
                tilt_factor=1.0,
            )
        if tilt_factor is None:
            tilt_factor = self.default_chip_tilt_factor()
        tilt = self.pitch.exponential_tilt(tilt_factor)
        # Size chunks from the *tilted* pitch actually sampled: its
        # stretched mean means ~tilt_factor fewer gaps per row, so the
        # nominal-pitch estimate would leave most of the element budget
        # unused.
        chunks = run_chunked(
            _simulate_chip_chunk_tilted,
            _TiltedChipPayload(geometry=self._geometry, tilt=tilt),
            n_trials, rng,
            _chip_trial_chunk(tilt.tilted, self._geometry, n_trials),
            execution, "chip-tilted",
        )
        row_sums = np.vstack([c[0] for c in chunks])
        # Importance weights may legitimately overflow to inf under extreme
        # tilts (reported as infinite uncertainty below); NaN never is.
        check_finite(row_sums, "chip_mc.tilted.row_sums", allow_inf=True)
        device_summary = rare_event.weighted_estimate(
            np.concatenate([c[1] for c in chunks])
        )
        p_row = row_sums.mean(axis=0)
        se_row = (
            row_sums.std(axis=0, ddof=1) / np.sqrt(n_trials)
            if n_trials > 1 else np.zeros_like(p_row)
        )
        p_clipped = np.clip(p_row, 0.0, 1.0)
        chip_yield = float(np.prod(1.0 - p_clipped))
        survive = 1.0 - p_clipped
        if np.all(survive > 0.0):
            yield_se = chip_yield * float(
                np.sqrt(np.sum((se_row / survive) ** 2))
            )
        else:
            # A row's union-bound probability clipped at 1: the sampler is
            # outside its rare-failure regime (or a weight outlier hit) and
            # the yield estimate carries no information — report infinite
            # uncertainty rather than a falsely exact zero.
            yield_se = float("inf")
        return ChipTailResult(
            n_trials=int(n_trials),
            device_count=self.device_count,
            small_device_count=self.small_device_count,
            chip_yield=chip_yield,
            yield_standard_error=yield_se,
            expected_failing_devices=device_summary.estimate,
            expected_failing_devices_se=device_summary.standard_error,
            effective_sample_size=device_summary.effective_sample_size,
            tilt_factor=float(tilt_factor),
        )

    def _result(
        self, failing_devices: np.ndarray, failing_rows: np.ndarray
    ) -> ChipMCResult:
        return ChipMCResult(
            n_trials=int(failing_devices.size),
            device_count=self.device_count,
            small_device_count=self.small_device_count,
            **_direct_statistics(failing_devices, failing_rows, self.device_count),
        )


def compare_libraries(
    original_placement: RowPlacement,
    aligned_placement: RowPlacement,
    type_model: Optional[CNTTypeModel] = None,
    pitch: Optional[PitchDistribution] = None,
    n_trials: int = 50,
    seed: int = 2010,
    execution: Execution = Execution(),
    rng: Optional[np.random.Generator] = None,
) -> Dict[str, ChipMCResult]:
    """Simulate the same netlist on the original and aligned-active libraries.

    Returns a dictionary with keys ``"original"`` and ``"aligned"``; the
    aligned variant should show both a lower device failure rate (devices
    were upsized to Wmin) and a higher failure-clustering index (failures
    concentrate on shared tracks), which together produce the chip-yield
    benefit the paper reports.

    An externally supplied ``rng`` takes precedence over ``seed``: each
    library consumes its own child stream spawned from it, so callers can
    coordinate this comparison with other estimators through shared spawn
    keys instead of ad-hoc reseeding.
    """
    if rng is not None:
        streams = rng.spawn(2)
    else:
        streams = [np.random.default_rng(seed), np.random.default_rng(seed)]
    results: Dict[str, ChipMCResult] = {}
    for stream, (label, placement) in zip(
        streams,
        (("original", original_placement), ("aligned", aligned_placement)),
    ):
        simulator = ChipMonteCarlo(placement, pitch=pitch, type_model=type_model)
        results[label] = simulator.run(n_trials, stream, execution=execution)
    return results
