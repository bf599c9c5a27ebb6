"""Wafer-level batched Monte Carlo: each die on the shared track kernel.

:mod:`repro.growth.wafer` models die-to-die growth variation — each die of
a :class:`~repro.growth.wafer.WaferMap` carries its own mean CNT pitch —
which makes every die a *distinct* simulation: a different gap law, hence
a different renewal process, hence a separate Monte Carlo run.  Looping
the single-die estimator over a wafer wastes most of its time on per-die
overheads and on per-width re-sampling.  This module runs each die on
:func:`~repro.montecarlo.engine.sample_track_batch`, the track kernel of
every other tier, with one column-local search per die:

* every die's trials are drawn from a *spawn-keyed stream* derived from
  the die's grid coordinates (:func:`die_stream`) — never from the die's
  position in a loop — so per-die results are bitwise independent of die
  ordering, of how dies are grouped into batches, and of the
  :class:`~repro.resilience.supervise.Execution`;
* each die's trials grow tracks over its widest window under the
  kernel's gap budget (:func:`~repro.montecarlo.engine.tight_gap_budget`,
  a 2-sigma margin), and the rare trials it leaves short are *topped up
  exactly* from the same die stream;
* one vectorised per-trial binary search
  (:func:`~repro.montecarlo.engine.count_leq_rows`) counts, for every
  trial at once, the tracks at or below 0 and at or below every width
  class's upper edge.  The search is column-local: each compare reads only
  the trial's own positions, so a die's counts do not depend on the
  group it ran in;
* all device-width classes of a die are answered from the *same* sampled
  tracks (they physically share them — the paper's correlation insight),
  where the per-die loop must re-sample per width.

Per die the estimator is the Rao-Blackwellised conditional
``pf ** N(W)`` of :mod:`repro.montecarlo.device_sim`; per-die chip yield
is assembled through the Eq. 2.3 product over width classes with a full
delta-method covariance (the width classes share tracks, so their
estimates are correlated — the covariance keeps the reported standard
error honest).  Aggregates are computed in canonical die order
(sorted by grid coordinates), so they too are order-invariant.

The retained per-die reference path (:func:`per_die_loop`) drives
:class:`~repro.montecarlo.device_sim.DeviceMonteCarlo` die by die and
width by width; it is the statistical oracle for the equivalence tests
and the baseline for ``benchmarks/bench_wafer.py``.

Misalignment de-rating
----------------------
Each die of a :class:`~repro.growth.wafer.WaferMap` carries a
growth-direction misalignment angle.  Passing a
:class:`~repro.analysis.mispositioned.MisalignmentImpactModel` as
``misalignment`` applies the Sec. 3 analytic relaxation *inside* the
die-group pass: every die's Rao-Blackwellised failure values are divided by
the relaxation factor at that die's own angle
(:meth:`~repro.analysis.mispositioned.MisalignmentImpactModel.relaxation_for_angle`),
so the per-device failure budget is relaxed exactly as the aligned-active
optimisation assumes, de-rated by how far the local growth direction has
drifted.  The factor is a pure function of the die site, so de-rated runs
keep every bitwise-invariance guarantee.

Whole-placement chip runs
-------------------------
:func:`run_chip_wafer` closes the loop at the design level: it drives the
batched :class:`~repro.montecarlo.chip_sim.ChipMonteCarlo` kernel over
every die of a wafer under the wafer stream convention — per-die
spawn-keyed streams (:func:`chip_die_stream`), the placement geometry
materialised *once* and re-pitched per die, and every device-width class
of the placement answered from each trial's shared tracks.  Per die it
reports both the direct indicator yield (which captures the row-level
failure correlation the paper exploits) and the Eq. 2.3 product over the
placement's width classes with full delta-method covariance.  The
retained reference (:func:`chip_per_die_loop`) constructs a fresh
:class:`~repro.montecarlo.chip_sim.ChipMonteCarlo` per die; it is the
bitwise oracle for the equivalence tests and the baseline
``benchmarks/bench_wafer.py`` measures the shared-geometry pass against.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.mispositioned import MisalignmentImpactModel
from repro.backend import NumpyBackend, buffer_pool, default_backend
from repro.device.shorts import conditional_failure_probabilities
from repro.montecarlo.chip_sim import (
    ChipMonteCarlo,
    _ChipGeometry,
    _chip_trial_chunk,
    _chip_window_failures,
    _direct_statistics,
    _drawn_pitch,
    _failing_devices_and_rows,
    _width_class_matrix,
)
from repro.growth.pitch import PitchDistribution
from repro.growth.types import CNTTypeModel
from repro.growth.wafer import DieSite, WaferMap
from repro.montecarlo.engine import (
    DEFAULT_BATCH_ELEMENTS,
    count_leq_rows,
    run_chunked,
    sample_track_batch,
)
from repro.resilience.guards import check_finite
from repro.resilience.supervise import Execution
from repro.units import ensure_positive

__all__ = [
    "DieYieldEstimate",
    "WaferYieldResult",
    "ChipDieYield",
    "ChipWaferResult",
    "die_stream",
    "chip_die_stream",
    "simulate_die",
    "simulate_wafer",
    "per_die_loop",
    "run_chip_wafer",
    "chip_per_die_loop",
]

#: Domain-separation tag mixed into every die stream's spawn key, so wafer
#: streams can never collide with the engine's chunk streams or the
#: surface sweep's grid streams under a shared root seed.
DIE_STREAM_TAG = 0x57A6ED

#: Domain-separation tag of the whole-placement chip runs, distinct from
#: :data:`DIE_STREAM_TAG` so a width-class wafer run and a chip-wafer run
#: sharing one root seed key never consume the same streams.
CHIP_STREAM_TAG = 0xC417


def die_stream(seed_key: Sequence[int], site: DieSite) -> np.random.Generator:
    """The RNG stream owned by one die under a wafer-run seed key.

    Keyed by the die's *grid coordinates*, not its index in any
    particular ordering — this is what makes wafer results invariant to
    die ordering and to how dies are batched across workers.
    """
    return np.random.default_rng(
        [int(part) for part in seed_key]
        + [DIE_STREAM_TAG, int(site.column), int(site.row)]
    )


def chip_die_stream(seed_key: Sequence[int], site: DieSite) -> np.random.Generator:
    """The RNG stream owned by one die's whole-placement chip run.

    Same grid-coordinate keying as :func:`die_stream` (hence the same
    order/grouping/``n_workers`` invariance), under a separate domain tag
    so chip runs and width-class runs can share a root seed key without
    stream collisions.
    """
    return np.random.default_rng(
        [int(part) for part in seed_key]
        + [CHIP_STREAM_TAG, int(site.column), int(site.row)]
    )


# ----------------------------------------------------------------------
# Result containers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DieYieldEstimate:
    """Monte Carlo yield estimate of one die at its local growth statistics.

    ``failure_probabilities`` are the *effective* per-width failure
    probabilities that enter the Eq. 2.3 chip yield: under misalignment
    de-rating they are the raw Rao-Blackwellised estimates divided by
    ``relaxation_factor`` (1.0 when no de-rating was requested, in which
    case they are the raw estimates bit for bit).
    """

    column: int
    row: int
    x_mm: float
    y_mm: float
    mean_pitch_nm: float
    n_trials: int
    widths_nm: Tuple[float, ...]
    device_counts: Tuple[float, ...]
    failure_probabilities: Tuple[float, ...]
    failure_standard_errors: Tuple[float, ...]
    chip_yield: float
    chip_yield_se: float
    misalignment_deg: float = 0.0
    relaxation_factor: float = 1.0

    @property
    def radius_mm(self) -> float:
        """Distance of the die centre from the wafer centre."""
        return math.hypot(self.x_mm, self.y_mm)

    @property
    def cnt_density_per_um(self) -> float:
        """Local CNT density implied by the die's mean pitch."""
        return 1.0e3 / self.mean_pitch_nm


@dataclass(frozen=True)
class WaferYieldResult:
    """Per-die and wafer-aggregate outcome of one wafer simulation.

    ``dice`` is sorted canonically by (column, row); every aggregate is
    computed over that order, so results are bitwise invariant to the
    ordering of the input :class:`~repro.growth.wafer.WaferMap` sites.
    """

    wafer_diameter_mm: float
    die_size_mm: float
    widths_nm: Tuple[float, ...]
    device_counts: Tuple[float, ...]
    n_trials: int
    good_die_threshold: float
    dice: Tuple[DieYieldEstimate, ...]

    @property
    def die_count(self) -> int:
        """Number of dies simulated."""
        return len(self.dice)

    def die_yields(self) -> np.ndarray:
        """Chip yield per die, canonical order."""
        return np.array([d.chip_yield for d in self.dice])

    @property
    def mean_chip_yield(self) -> float:
        """Wafer-average chip yield (the expected per-die yield)."""
        return float(np.mean(self.die_yields())) if self.dice else float("nan")

    @property
    def good_die_fraction(self) -> float:
        """Fraction of dies whose yield estimate clears the threshold."""
        if not self.dice:
            return 0.0
        return float(np.mean(self.die_yields() >= self.good_die_threshold))

    @property
    def expected_good_dice(self) -> float:
        """Expected number of good dies on the wafer, Σ_die yield_die."""
        return float(np.sum(self.die_yields()))


# ----------------------------------------------------------------------
# The die-group kernel
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _WaferPayload:
    """Picklable spec of a wafer run, shared by every die group.

    ``short_probability`` is the per-tube surviving-short probability
    ``q`` of :mod:`repro.device.shorts`; at the default 0 every value
    pass reduces bitwise to the opens-only ``pf ** N`` conditional.
    """

    pitch: PitchDistribution
    per_cnt_failure: float
    widths_nm: Tuple[float, ...]
    device_counts: Tuple[float, ...]
    n_trials: int
    seed_key: Tuple[int, ...]
    backend: Optional[NumpyBackend] = None
    misalignment: Optional[MisalignmentImpactModel] = None
    short_probability: float = 0.0


def _die_relaxations(
    misalignment: Optional[MisalignmentImpactModel], sites: Sequence[DieSite]
) -> Optional[np.ndarray]:
    """Per-die Sec. 3 relaxation factors at each die's misalignment angle.

    ``None`` when de-rating is off — callers must then skip the division
    entirely (dividing by an all-ones array would already be a no-op in
    IEEE arithmetic, but skipping keeps the contract self-evident).
    """
    if misalignment is None:
        return None
    return np.array([
        misalignment.relaxation_for_angle(site.misalignment_deg)
        for site in sites
    ])


def _simulate_die_group(
    payload: _WaferPayload, sites: Sequence[DieSite]
) -> List[DieYieldEstimate]:
    """Simulate one group of dies, each on the shared track kernel.

    Each die grows its trials' tracks with
    :func:`~repro.montecarlo.engine.sample_track_batch` from its own
    stream, and one column-local search counts every width class of every
    trial.  Every per-die quantity depends only on that die's own stream
    and rows, so group composition cannot change results.
    """
    backend = payload.backend if payload.backend is not None else default_backend()
    n_trials = payload.n_trials
    widths = payload.widths_nm
    w_max = max(widths)
    n_dies = len(sites)

    # Row 0 counts each trial's tracks at or below 0 and row 1 + q those
    # at or below W_q, so class q captures the tracks in (0, W_q], all on
    # one track set.  Built contiguous once per group: the search compares
    # against it at every step, and a stride-0 view is slower.
    edges = np.asarray((0.0,) + widths, dtype=np.float64)
    bounds = np.repeat(edges[:, None], n_trials, axis=1)
    counts = np.empty((1 + len(widths), n_dies * n_trials), dtype=np.intp)
    for i, site in enumerate(sites):
        counts[:, i * n_trials:(i + 1) * n_trials] = count_leq_rows(
            sample_track_batch(
                payload.pitch.with_mean(site.mean_pitch_nm), w_max, n_trials,
                die_stream(payload.seed_key, site), backend=backend,
            ).positions,
            bounds,
        )

    # The value of a trial depends only on its count, so it is looked up
    # in a per-count table instead of evaluated per (class, die, trial).
    n_cnt = counts[1:] - counts[:1]
    k = np.arange(int(n_cnt.max()) + 1, dtype=float)
    table = conditional_failure_probabilities(
        k, payload.per_cnt_failure, payload.short_probability
    )
    # Each (class, die) trial slice is contiguous, so its reductions sum
    # in the same order as in any other group.
    values = np.take(table, n_cnt).reshape(len(widths), n_dies, n_trials)
    return _assemble_group(sites, values, payload)


def _class_mean_covariance(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-die mean and covariance-of-the-mean of per-trial class values.

    ``values`` has shape ``(n_classes, n_dies, n_trials)``; returns the
    class means ``(Q, D)`` and the per-die covariance of those means
    ``(D, Q, Q)``.  The classes share tracks, so their estimates are
    correlated — downstream yield errors must use the full covariance.
    """
    n_classes, n_dies, n_trials = values.shape
    p = values.mean(axis=2)  # (Q, D)
    if n_trials > 1:
        centred = values - p[:, :, None]
        # (D, Q, T) @ (D, T, Q) -> per-die covariance of the means.
        cov = (
            np.matmul(centred.transpose(1, 0, 2), centred.transpose(1, 2, 0))
            / (n_trials - 1) / n_trials
        )
    else:
        cov = np.zeros((n_dies, n_classes, n_classes))
    return p, cov


def _eq23_chip_yield(
    p: np.ndarray, cov: np.ndarray, counts_q: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. 2.3 chip yield per die with full delta-method covariance.

    ``p`` is ``(Q, D)`` per-class failure probabilities, ``cov`` the
    ``(D, Q, Q)`` covariance of those estimates, ``counts_q`` the device
    count per class.  Returns per-die ``(yield, standard error)``; a die
    whose survival collapses to zero reports yield 0 with infinite SE
    (the estimate carries no information there).
    """
    n_classes = p.shape[0]
    n_dies = p.shape[1]
    survive = 1.0 - np.clip(p, 0.0, 1.0)
    ok = np.all(survive > 0.0, axis=0)
    with np.errstate(divide="ignore"):
        chip_yield = np.where(
            ok, np.exp(np.sum(counts_q[:, None] * np.log(
                np.where(survive > 0.0, survive, 1.0)), axis=0)), 0.0
        )
    grad = counts_q[:, None] / np.where(survive > 0.0, survive, 1.0)  # (Q, D)
    # Quadratic form Σ_qr grad_q · cov_qr · grad_r in a fixed accumulation
    # order: einsum picks different contraction paths for different die
    # counts, which would break the bitwise group-vs-single-die contract
    # by an ulp.
    var = np.zeros(n_dies)
    for qi in range(n_classes):
        for ri in range(n_classes):
            var += grad[qi] * cov[:, qi, ri] * grad[ri]
    chip_yield_se = np.where(
        ok, chip_yield * np.sqrt(np.maximum(var, 0.0)), np.inf
    )
    return chip_yield, chip_yield_se


def _assemble_group(
    sites: Sequence[DieSite], values: np.ndarray, payload: _WaferPayload
) -> List[DieYieldEstimate]:
    """Fold per-trial ``pf ** N`` values, shape (widths, dies, trials), into
    per-die yield estimates.

    The width classes share tracks, so their pF estimates are correlated;
    the Eq. 2.3 chip-yield standard error therefore uses the full
    delta-method covariance of the per-width means instead of treating
    them as independent.  All statistics are batched over the die axis
    (per-(width, die) reductions run over each die's own contiguous trial
    slice, so a group's estimates match a single-die run bit for bit).
    Misalignment de-rating divides every die's per-trial values by that
    die's analytic relaxation factor before any statistic is formed, so
    mean, covariance and Eq. 2.3 yield stay mutually consistent.
    """
    relaxations = _die_relaxations(payload.misalignment, sites)
    if relaxations is not None:
        values = values / relaxations[None, :, None]
    # A NaN here (poisoned draw, corrupt backend buffer) would silently
    # spread through every per-die statistic; fail loudly instead.
    check_finite(values, "wafer.die_group.values")
    n_trials = values.shape[2]
    p, cov = _class_mean_covariance(values)
    se = np.sqrt(np.diagonal(cov, axis1=1, axis2=2)).T  # (Q, D)
    counts_q = np.asarray(payload.device_counts, dtype=float)
    chip_yield, chip_yield_se = _eq23_chip_yield(p, cov, counts_q)
    return [
        DieYieldEstimate(
            column=site.column,
            row=site.row,
            x_mm=site.x_mm,
            y_mm=site.y_mm,
            mean_pitch_nm=site.mean_pitch_nm,
            n_trials=int(n_trials),
            widths_nm=payload.widths_nm,
            device_counts=payload.device_counts,
            failure_probabilities=tuple(float(x) for x in p[:, i]),
            failure_standard_errors=tuple(float(x) for x in se[:, i]),
            chip_yield=float(chip_yield[i]),
            chip_yield_se=float(chip_yield_se[i]),
            misalignment_deg=float(site.misalignment_deg),
            relaxation_factor=(
                float(relaxations[i]) if relaxations is not None else 1.0
            ),
        )
        for i, site in enumerate(sites)
    ]


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------


def _wafer_payload(
    pitch: PitchDistribution,
    type_model: CNTTypeModel,
    widths_nm,
    device_counts,
    n_trials: int,
    seed_key: Sequence[int],
    backend: Optional[NumpyBackend] = None,
    misalignment: Optional[MisalignmentImpactModel] = None,
) -> _WaferPayload:
    """Validated payload of a width-class wafer run.

    The single place the public entry points normalise the width classes
    and device counts, check ``n_trials`` and take the per-tube failure
    and short probabilities from ``type_model``.
    """
    widths = np.atleast_1d(np.asarray(widths_nm, dtype=float))
    if widths.size == 0:
        raise ValueError("widths_nm must contain at least one width")
    for w in widths:
        ensure_positive(float(w), "widths_nm")
    if device_counts is None:
        counts = np.ones_like(widths)
    else:
        counts = np.atleast_1d(np.asarray(device_counts, dtype=float))
        if counts.shape != widths.shape:
            raise ValueError(
                f"device_counts shape {counts.shape} does not match "
                f"widths shape {widths.shape}"
            )
        if np.any(counts < 0):
            raise ValueError("device_counts must be non-negative")
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    return _WaferPayload(
        pitch=pitch,
        per_cnt_failure=type_model.per_cnt_failure_probability,
        widths_nm=tuple(float(w) for w in widths),
        device_counts=tuple(float(c) for c in counts),
        n_trials=int(n_trials),
        seed_key=tuple(int(part) for part in seed_key),
        backend=backend,
        misalignment=misalignment,
        short_probability=type_model.surviving_metallic_probability,
    )


def _wafer_result(
    wafer: WaferMap,
    payload: _WaferPayload,
    good_die_threshold: float,
    dice: Sequence[DieYieldEstimate],
) -> WaferYieldResult:
    """The :class:`WaferYieldResult` of a run's canonically ordered dice."""
    return WaferYieldResult(
        wafer_diameter_mm=wafer.wafer_diameter_mm,
        die_size_mm=wafer.die_size_mm,
        widths_nm=payload.widths_nm,
        device_counts=payload.device_counts,
        n_trials=payload.n_trials,
        good_die_threshold=float(good_die_threshold),
        dice=tuple(dice),
    )


def _canonical_sites(wafer: WaferMap) -> List[DieSite]:
    return sorted(wafer.sites, key=lambda s: (s.column, s.row))


#: Minimum number of die groups a wafer run is split into (when it has
#: that many dies), so process pools up to this size always receive work.
#: A constant — never the worker count — which, together with per-die
#: streams, keeps results bitwise independent of ``n_workers``.
DEFAULT_PARALLEL_GRAIN = 8


def _dies_per_group(n_dies: int, payload: _WaferPayload) -> int:
    """Dies per group: value-array element budget bounded, grain-split.

    A group holds a ``(classes, dies, trials)`` value array; track
    batches are drawn and counted one die at a time and not kept.
    """
    per_die = max(1, payload.n_trials * len(payload.widths_nm))
    budget = max(1, DEFAULT_BATCH_ELEMENTS // per_die)
    spread = -(-n_dies // DEFAULT_PARALLEL_GRAIN)
    return max(1, min(budget, spread))


# ----------------------------------------------------------------------
# Campaign units: every wafer run executes these under the supervisor
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _DieGroupTask:
    """Picklable zero-arg task simulating one die group.

    Die streams are derived inside the kernel from stateless spawn keys,
    so re-executing the task after a worker death reproduces its results
    bit for bit with no supervisor-side state.
    """

    payload: _WaferPayload
    sites: Tuple[DieSite, ...]

    def __call__(self) -> List[DieYieldEstimate]:
        # Die after die draws batches of one shape: the pool serves each
        # from the slabs the previous die returned.
        with buffer_pool():
            return _simulate_die_group(self.payload, list(self.sites))


@dataclass(frozen=True)
class _ChipDieTask:
    """Picklable zero-arg task for one die's whole-placement chip run."""

    payload: "_ChipWaferPayload"
    site: DieSite

    def __call__(self) -> "ChipDieYield":
        return _simulate_chip_die(self.payload, self.site)


def _estimate_from_json(cls, payload: Dict[str, object]):
    """Rebuild a frozen result dataclass from its JSON round-trip.

    JSON turns the tuple fields into lists; everything else (ints,
    ``repr``-round-tripping floats, ±inf under Python's JSON dialect)
    comes back exactly, so the reconstruction is bitwise faithful.
    """
    return cls(**{
        key: tuple(value) if isinstance(value, list) else value
        for key, value in payload.items()
    })


def _die_group_encode(results):
    """Checkpoint codec: die-group results as a JSON meta payload."""
    return {}, [asdict(est) for est in results]


def _die_group_decode(arrays, meta):
    """Inverse of :func:`_die_group_encode`."""
    del arrays
    return [_estimate_from_json(DieYieldEstimate, d) for d in meta]


def _chip_die_encode(result):
    """Checkpoint codec: one chip-die result as a JSON meta payload."""
    return {}, asdict(result)


def _chip_die_decode(arrays, meta):
    """Inverse of :func:`_chip_die_encode`."""
    del arrays
    return _estimate_from_json(ChipDieYield, meta)


def simulate_die(
    site: DieSite,
    pitch: PitchDistribution,
    type_model: CNTTypeModel,
    widths_nm,
    device_counts=None,
    n_trials: int = 1024,
    seed_key: Sequence[int] = (20100616,),
    backend: Optional[NumpyBackend] = None,
    misalignment: Optional[MisalignmentImpactModel] = None,
) -> DieYieldEstimate:
    """Simulate one die independently — the per-die reference of the runner.

    Runs the *same* die-group kernel on a single die — the die's trials on
    :func:`~repro.montecarlo.engine.sample_track_batch`, one column-local
    search per die — with the same spawn-keyed stream, so a die's
    estimate here is bitwise identical to its estimate inside any
    :func:`simulate_wafer` run sharing the seed key (the
    wafer-combination property tests pin this).

    Parameters
    ----------
    site:
        The die position and local growth statistics to simulate.
    pitch, type_model, widths_nm, device_counts, n_trials, seed_key, backend:
        As for :func:`simulate_wafer`.
    misalignment:
        Optional analytic de-rating model; when given, the die's failure
        values are divided by the Sec. 3 relaxation factor at the die's
        misalignment angle (see the module notes).

    Returns
    -------
    DieYieldEstimate
        The die's per-width failure probabilities and Eq. 2.3 chip yield.
    """
    payload = _wafer_payload(
        pitch, type_model, widths_nm, device_counts, n_trials, seed_key,
        backend, misalignment,
    )
    return _simulate_die_group(payload, [site])[0]


def simulate_wafer(
    wafer: WaferMap,
    pitch: PitchDistribution,
    type_model: CNTTypeModel,
    widths_nm,
    device_counts=None,
    n_trials: int = 1024,
    seed_key: Sequence[int] = (20100616,),
    good_die_threshold: float = 0.5,
    backend: Optional[NumpyBackend] = None,
    misalignment: Optional[MisalignmentImpactModel] = None,
    execution: Execution = Execution(),
) -> WaferYieldResult:
    """Simulate every die of ``wafer`` on the shared track kernel.

    Each die draws its trials with
    :func:`~repro.montecarlo.engine.sample_track_batch` and counts every
    width class with one column-local search per die; dies run in groups
    under the supervised executor.

    Parameters
    ----------
    wafer:
        Die map with per-die growth statistics; each die's gap law is
        ``pitch.with_mean(site.mean_pitch_nm)`` (same family and CV,
        rescaled to the local density).
    type_model:
        Metallic/semiconducting and removal statistics (fixes the per-CNT
        failure probability of the conditional estimator).
    widths_nm, device_counts:
        Device-width classes evaluated per die and how many devices of
        each class a die carries; all classes are answered from the same
        sampled tracks.  ``device_counts=None`` means one device per
        class.
    n_trials:
        Renewal trials per die (each trial grows one shared track set).
    seed_key:
        Root spawn key; die streams derive from it and the die's grid
        coordinates, so per-die results are reproducible and independent
        of ordering, grouping and ``execution``.
    backend:
        Array backend for the track draws and counts (``None`` =
        environment default).
    misalignment:
        Optional :class:`~repro.analysis.mispositioned.MisalignmentImpactModel`.
        When given, every die's failure values are divided by the Sec. 3
        analytic relaxation factor at that die's misalignment angle,
        inside the die-group pass (see the module notes).  ``None`` (the
        default) leaves results bitwise identical to a run without the
        parameter.
    execution:
        How the die groups run (:class:`~repro.resilience.supervise.Execution`;
        one checkpoint unit per group).

    Returns
    -------
    WaferYieldResult
        Per-die estimates in canonical (column, row) order plus wafer
        aggregates; bitwise invariant to die order, grouping and
        ``execution``.
    """
    payload = _wafer_payload(
        pitch, type_model, widths_nm, device_counts, n_trials, seed_key,
        backend, misalignment,
    )
    if not 0.0 <= good_die_threshold <= 1.0:
        raise ValueError("good_die_threshold must lie in [0, 1]")
    sites = _canonical_sites(wafer)
    dice: List[DieYieldEstimate] = []
    if sites:
        group = _dies_per_group(len(sites), payload)
        group_results = execution.run(
            "wafer",
            [
                _DieGroupTask(payload, tuple(sites[i:i + group]))
                for i in range(0, len(sites), group)
            ],
            encode=_die_group_encode,
            decode=_die_group_decode,
        )
        for result in group_results:
            dice.extend(result)
    return _wafer_result(wafer, payload, good_die_threshold, dice)


def per_die_loop(
    wafer: WaferMap,
    pitch: PitchDistribution,
    type_model: CNTTypeModel,
    widths_nm,
    device_counts=None,
    n_trials: int = 1024,
    seed_key: Sequence[int] = (20100616,),
    good_die_threshold: float = 0.5,
    misalignment: Optional[MisalignmentImpactModel] = None,
) -> WaferYieldResult:
    """Reference wafer evaluation: the die-by-die, width-by-width loop.

    Drives :class:`~repro.montecarlo.device_sim.DeviceMonteCarlo` once per
    (die, width class) — fresh tracks per width, engine gap budget, per-die
    Python overhead.  Statistically equivalent to :func:`simulate_wafer`
    at equal ``n_trials`` (the equivalence tests pin that down) and the
    baseline that ``benchmarks/bench_wafer.py`` measures the die-group pass
    against.  Per-width streams extend the die spawn key with the class
    index, so this path is deterministic and order-invariant too.
    Misalignment de-rating divides each die's estimates by the same
    analytic relaxation factor the die-group pass applies.
    """
    from repro.montecarlo.device_sim import DeviceMonteCarlo

    payload = _wafer_payload(
        pitch, type_model, widths_nm, device_counts, n_trials, seed_key,
        misalignment=misalignment,
    )
    widths, counts = payload.widths_nm, payload.device_counts
    dice: List[DieYieldEstimate] = []
    for site in _canonical_sites(wafer):
        die_pitch = pitch.with_mean(site.mean_pitch_nm)
        mc = DeviceMonteCarlo(pitch=die_pitch, type_model=type_model)
        p = np.empty(len(widths))
        se = np.empty(len(widths))
        for q, width in enumerate(widths):
            stream = np.random.default_rng(
                list(payload.seed_key)
                + [DIE_STREAM_TAG, int(site.column), int(site.row), q]
            )
            result = mc.estimate_conditional(width, n_trials, stream)
            p[q] = result.failure_probability
            se[q] = result.standard_error
        if misalignment is not None:
            relaxation = misalignment.relaxation_for_angle(site.misalignment_deg)
            p = p / relaxation
            se = se / relaxation
        else:
            relaxation = 1.0
        counts_q = np.asarray(counts, dtype=float)
        survive = 1.0 - np.clip(p, 0.0, 1.0)
        if np.all(survive > 0.0):
            chip_yield = float(np.exp(np.sum(counts_q * np.log(survive))))
            chip_yield_se = chip_yield * float(
                np.sqrt(np.sum((counts_q * se / survive) ** 2))
            )
        else:
            chip_yield, chip_yield_se = 0.0, float("inf")
        dice.append(DieYieldEstimate(
            column=site.column,
            row=site.row,
            x_mm=site.x_mm,
            y_mm=site.y_mm,
            mean_pitch_nm=site.mean_pitch_nm,
            n_trials=int(n_trials),
            widths_nm=widths,
            device_counts=counts,
            failure_probabilities=tuple(float(x) for x in p),
            failure_standard_errors=tuple(float(x) for x in se),
            chip_yield=chip_yield,
            chip_yield_se=chip_yield_se,
            misalignment_deg=float(site.misalignment_deg),
            relaxation_factor=float(relaxation),
        ))
    return _wafer_result(wafer, payload, good_die_threshold, dice)


# ----------------------------------------------------------------------
# Whole-placement chip runs per die
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChipDieYield:
    """Whole-placement Monte Carlo outcome of one die of a chip wafer.

    Two yield views are reported per die:

    * the *direct* indicator yield — the fraction of trials in which no
      device of the placed design failed; it captures the row-level
      failure correlation (shared tubes) the paper exploits;
    * the *Eq. 2.3* product over the placement's device-width classes —
      the independent-device chip yield at the sampled per-class failure
      probabilities, with full delta-method covariance (classes share
      tracks, so their estimates are correlated).  Under misalignment
      de-rating the class probabilities are divided by
      ``relaxation_factor`` first.

    The direct yield exceeding the Eq. 2.3 product — often by orders of
    magnitude — is the paper's correlation benefit made measurable:
    failures arrive in row-sized bursts on shared tubes, so far fewer
    *chips* fail than the independent-device product predicts.  The
    reference :func:`chip_per_die_loop` reports only the direct view
    (its class fields are empty / NaN).
    """

    column: int
    row: int
    x_mm: float
    y_mm: float
    mean_pitch_nm: float
    misalignment_deg: float
    n_trials: int
    chip_yield: float
    mean_failing_devices: float
    std_failing_devices: float
    mean_failing_rows: float
    device_failure_rate: float
    widths_nm: Tuple[float, ...]
    device_counts: Tuple[float, ...]
    class_failure_probabilities: Tuple[float, ...]
    class_failure_standard_errors: Tuple[float, ...]
    eq23_chip_yield: float
    eq23_chip_yield_se: float
    relaxation_factor: float = 1.0

    @property
    def radius_mm(self) -> float:
        """Distance of the die centre from the wafer centre."""
        return math.hypot(self.x_mm, self.y_mm)

    @property
    def cnt_density_per_um(self) -> float:
        """Local CNT density implied by the die's mean pitch."""
        return 1.0e3 / self.mean_pitch_nm


@dataclass(frozen=True)
class ChipWaferResult:
    """Per-die and wafer-aggregate outcome of a whole-placement wafer run.

    ``dice`` is sorted canonically by (column, row), so aggregates are
    bitwise invariant to the ordering of the input wafer's sites — the
    same contract as :class:`WaferYieldResult` (and the radial summary
    table of :func:`repro.reporting.tables.wafer_summary_rows` accepts
    either result type).
    """

    wafer_diameter_mm: float
    die_size_mm: float
    device_count: int
    small_device_count: int
    n_trials: int
    good_die_threshold: float
    widths_nm: Tuple[float, ...]
    device_counts: Tuple[float, ...]
    dice: Tuple[ChipDieYield, ...]

    @property
    def die_count(self) -> int:
        """Number of dies simulated."""
        return len(self.dice)

    def die_yields(self) -> np.ndarray:
        """Direct chip yield per die, canonical order."""
        return np.array([d.chip_yield for d in self.dice])

    @property
    def mean_chip_yield(self) -> float:
        """Wafer-average direct chip yield."""
        return float(np.mean(self.die_yields())) if self.dice else float("nan")

    @property
    def good_die_fraction(self) -> float:
        """Fraction of dies whose direct yield clears the threshold."""
        if not self.dice:
            return 0.0
        return float(np.mean(self.die_yields() >= self.good_die_threshold))

    @property
    def expected_good_dice(self) -> float:
        """Expected number of good dies on the wafer, Σ_die yield_die."""
        return float(np.sum(self.die_yields()))


@dataclass(frozen=True)
class _ChipWaferPayload:
    """Picklable spec of a chip-wafer run, shared by every die job."""

    geometry: _ChipGeometry
    pitch: PitchDistribution
    class_matrix: np.ndarray
    class_counts: np.ndarray
    widths_nm: Tuple[float, ...]
    n_trials: int
    seed_key: Tuple[int, ...]
    misalignment: Optional[MisalignmentImpactModel]


def _chip_die_chunk(
    payload: Tuple[_ChipGeometry, np.ndarray],
    n_chunk: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One chunk of whole-placement trials plus per-width-class reductions.

    Draws and reduces exactly what
    :func:`~repro.montecarlo.chip_sim._simulate_chip_chunk` does (failing
    devices and failing rows, from the same kernel consuming the
    generator identically), plus failing devices per width class (one
    matmul against the class matrix).
    """
    geometry, class_matrix = payload
    failing = _chip_window_failures(geometry, n_chunk, rng)
    failing_devices, failing_rows = _failing_devices_and_rows(geometry, failing)
    return failing_devices, failing_rows, failing.astype(float) @ class_matrix


def _simulate_chip_die(payload: _ChipWaferPayload, site: DieSite) -> ChipDieYield:
    """Run one die's whole-placement trials on the shared geometry.

    The die's gap law is the nominal pitch rescaled to the local density
    (``with_mean``); its trials consume the die's own
    :func:`chip_die_stream`, chunked by the same policy a fresh per-die
    simulator would use, so the result is bitwise identical to
    :func:`chip_per_die_loop` on that die — while skipping the per-die
    placement materialisation entirely.
    """
    die_pitch = payload.pitch.with_mean(site.mean_pitch_nm)
    geometry = replace(payload.geometry, pitch=die_pitch)
    chunks = run_chunked(
        _chip_die_chunk,
        (geometry, payload.class_matrix),
        payload.n_trials,
        chip_die_stream(payload.seed_key, site),
        _chip_trial_chunk(_drawn_pitch(geometry), geometry, payload.n_trials),
    )
    failing_devices = np.concatenate([c[0] for c in chunks])
    failing_rows = np.concatenate([c[1] for c in chunks])
    class_failing = np.vstack([c[2] for c in chunks])

    if payload.misalignment is not None:
        relaxation = payload.misalignment.relaxation_for_angle(
            site.misalignment_deg
        )
    else:
        relaxation = 1.0
    # Per-trial per-class failure fractions feed the Eq. 2.3 product; the
    # de-rating divides the per-trial values (not just the means) so the
    # covariance stays consistent with the estimate.
    values = (class_failing / payload.class_counts[None, :]).T[:, None, :]
    if payload.misalignment is not None:
        values = values / relaxation
    p, cov = _class_mean_covariance(values)
    se = np.sqrt(np.diagonal(cov, axis1=1, axis2=2)).T
    eq23_yield, eq23_se = _eq23_chip_yield(
        p, cov, np.asarray(payload.class_counts, dtype=float)
    )
    return ChipDieYield(
        column=site.column,
        row=site.row,
        x_mm=site.x_mm,
        y_mm=site.y_mm,
        mean_pitch_nm=site.mean_pitch_nm,
        misalignment_deg=float(site.misalignment_deg),
        n_trials=int(failing_devices.size),
        **_direct_statistics(
            failing_devices, failing_rows, float(payload.class_counts.sum())
        ),
        widths_nm=payload.widths_nm,
        device_counts=tuple(float(c) for c in payload.class_counts),
        class_failure_probabilities=tuple(float(x) for x in p[:, 0]),
        class_failure_standard_errors=tuple(float(x) for x in se[:, 0]),
        eq23_chip_yield=float(eq23_yield[0]),
        eq23_chip_yield_se=float(eq23_se[0]),
        relaxation_factor=float(relaxation),
    )


def run_chip_wafer(
    wafer: WaferMap,
    chip: ChipMonteCarlo,
    n_trials: int = 256,
    seed_key: Sequence[int] = (20100616,),
    good_die_threshold: float = 0.5,
    misalignment: Optional[MisalignmentImpactModel] = None,
    execution: Execution = Execution(),
) -> ChipWaferResult:
    """Yield-map a placed design across every die of a wafer in one run.

    Drives the batched :class:`~repro.montecarlo.chip_sim.ChipMonteCarlo`
    kernel under the wafer stream convention: the placement geometry is
    materialised once (by ``chip``) and re-pitched per die, each die's
    trials consume the die's own spawn-keyed :func:`chip_die_stream`, and
    every device-width class of the placement is answered from each
    trial's shared tracks.

    Parameters
    ----------
    wafer:
        Die map with per-die growth statistics; each die's gap law is
        ``chip.pitch.with_mean(site.mean_pitch_nm)``.
    chip:
        The placed-design simulator whose geometry (and nominal pitch,
        type model, backend) the wafer run shares.
    n_trials:
        Whole-chip fabrication trials per die.
    seed_key:
        Root spawn key; die streams derive from it and the die's grid
        coordinates (under :data:`CHIP_STREAM_TAG`), so per-die results
        are bitwise invariant to die order and ``execution``.  Each die
        chunks its trials by the per-die simulator's policy at its local
        pitch (the bitwise-equivalence contract with
        :func:`chip_per_die_loop`).
    good_die_threshold:
        Direct yield above which a die counts as good.
    misalignment:
        Optional analytic de-rating of the Eq. 2.3 view (the direct
        indicator yield is a realised count and is never de-rated).
    execution:
        How the dies run (:class:`~repro.resilience.supervise.Execution`;
        one checkpoint unit per die).

    Returns
    -------
    ChipWaferResult
        Per-die direct and Eq. 2.3 yields in canonical (column, row)
        order plus wafer aggregates.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    if not 0.0 <= good_die_threshold <= 1.0:
        raise ValueError("good_die_threshold must lie in [0, 1]")
    geometry = chip.chip_geometry()
    widths, class_matrix, class_counts = _width_class_matrix(geometry)
    payload = _ChipWaferPayload(
        geometry=geometry,
        pitch=chip.pitch,
        class_matrix=class_matrix,
        class_counts=class_counts,
        widths_nm=tuple(float(w) for w in widths),
        n_trials=int(n_trials),
        seed_key=tuple(int(part) for part in seed_key),
        misalignment=misalignment,
    )
    dice = execution.run(
        "chip-wafer",
        [_ChipDieTask(payload, site) for site in _canonical_sites(wafer)],
        encode=_chip_die_encode,
        decode=_chip_die_decode,
    )
    return ChipWaferResult(
        wafer_diameter_mm=wafer.wafer_diameter_mm,
        die_size_mm=wafer.die_size_mm,
        device_count=chip.device_count,
        small_device_count=chip.small_device_count,
        n_trials=int(n_trials),
        good_die_threshold=float(good_die_threshold),
        widths_nm=payload.widths_nm,
        device_counts=tuple(float(c) for c in class_counts),
        dice=tuple(dice),
    )


def chip_per_die_loop(
    wafer: WaferMap,
    chip: ChipMonteCarlo,
    n_trials: int = 256,
    seed_key: Sequence[int] = (20100616,),
    good_die_threshold: float = 0.5,
) -> ChipWaferResult:
    """Reference chip-wafer evaluation: a fresh simulator per die.

    Constructs a new :class:`~repro.montecarlo.chip_sim.ChipMonteCarlo`
    for every die — re-running the placement, re-collecting the device
    windows and re-building the engine geometry each time — and runs it
    on the die's :func:`chip_die_stream`.  Its direct statistics are
    bitwise identical to :func:`run_chip_wafer` (same streams, same chunk
    policy, same kernel); the width-class / Eq. 2.3 fields are not
    computed (empty tuples, NaN yields).  This is the baseline
    ``benchmarks/bench_wafer.py`` measures the shared-geometry pass
    against.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    dice: List[ChipDieYield] = []
    for site in _canonical_sites(wafer):
        mc = ChipMonteCarlo(
            chip.placement,
            pitch=chip.pitch.with_mean(site.mean_pitch_nm),
            type_model=chip.type_model,
            row_height_nm=chip.row_height_nm,
            small_width_threshold_nm=chip.small_width_threshold_nm,
            backend=chip.backend,
            min_working_tubes=chip.min_working_tubes,
        )
        result = mc.run(n_trials, chip_die_stream(seed_key, site))
        dice.append(ChipDieYield(
            column=site.column,
            row=site.row,
            x_mm=site.x_mm,
            y_mm=site.y_mm,
            mean_pitch_nm=site.mean_pitch_nm,
            misalignment_deg=float(site.misalignment_deg),
            n_trials=int(result.n_trials),
            chip_yield=result.chip_yield,
            mean_failing_devices=result.mean_failing_devices,
            std_failing_devices=result.std_failing_devices,
            mean_failing_rows=result.mean_failing_rows,
            device_failure_rate=result.device_failure_rate,
            widths_nm=(),
            device_counts=(),
            class_failure_probabilities=(),
            class_failure_standard_errors=(),
            eq23_chip_yield=float("nan"),
            eq23_chip_yield_se=float("nan"),
        ))
    return ChipWaferResult(
        wafer_diameter_mm=wafer.wafer_diameter_mm,
        die_size_mm=wafer.die_size_mm,
        device_count=chip.device_count,
        small_device_count=chip.small_device_count,
        n_trials=int(n_trials),
        good_die_threshold=float(good_die_threshold),
        widths_nm=(),
        device_counts=(),
        dice=tuple(dice),
    )
