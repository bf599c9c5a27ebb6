"""Process/design co-optimization — a Pareto yield-vs-cost search.

The paper's endgame is a *decision*: choose processing conditions and a
(selective) upsizing plan that hit a chip-yield target (Eq. 2.3) at the
smallest capacitance penalty (Fig. 2.2b).  Following the rapid
co-optimization methodology of Hills et al., this module searches jointly
over

* **processing knobs** — CNT density ρ, inter-CNT pitch family (via its
  CV), processing corner (pm, pRs), metallic-removal efficiency eta (the
  shorts knob of :mod:`repro.device.shorts`), CNT correlation length
  LCNT and the growth-direction misalignment spec, and
* **design knobs** — per-width-class upsizing thresholds, generalising the
  uniform ``U_Wt`` operator of :mod:`repro.core.upsizing` to ECO-style
  selective upsizing of only the worst-yield classes.

The inner loop never runs Monte Carlo: candidate points are answered by
batched :class:`repro.serving.YieldService` queries against precomputed
device-pF surfaces, whose guaranteed error bounds drive dominance pruning
— a candidate whose *upper-bound* chip yield already misses the target is
rejected outright, one whose *lower bound* meets it is accepted outright,
and only the straddlers escalate to the exact closed-form evaluation.
Because the chip log-yield is additive across width classes, the full
cross product of per-class upsizing levels costs one service query per
(class, level) plus an outer-sum reduction — millions of candidate
evaluations per second on one core.

Winners are validated end-to-end: a placed OpenRISC-like design is
simulated with :class:`repro.montecarlo.chip_sim.ChipMonteCarlo` at the
winning process point (the expected failing-device count is compared
against the serving tier's prediction, which is unbiased under track
correlation because expectation is linear) and the joint
functional/timing yield is measured with
:class:`repro.timing.TimingMonteCarlo`.

Everything is deterministic: candidate enumeration is a pure function of
the configuration, Monte Carlo validation draws from spawn-keyed
:class:`numpy.random.SeedSequence` streams, and the returned front is
bitwise identical across reruns at the same seed and across worker
counts.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.mispositioned import MisalignmentImpactModel
from repro.core.calibration import CalibratedSetup
from repro.core.count_model import count_model_from_pitch
from repro.core.failure import CNFETFailureModel, FIG2_1_CORNERS, ProcessingCorner
from repro.core.optimizer import CoOptimizationFlow
from repro.resilience.supervise import Execution
from repro.units import ensure_positive, ensure_probability

#: Nominal CNT density of the paper's calibration (µS = 4 nm → 250 /µm).
NOMINAL_DENSITY_PER_UM = 250.0


@dataclass(frozen=True)
class ProcessPoint:
    """One processing condition of the joint search space.

    Attributes
    ----------
    cnt_density_per_um:
        CNT density ρ (tubes/µm); the mean inter-CNT pitch is 1000/ρ nm.
    pitch_cv:
        Coefficient of variation of the inter-CNT pitch (1.0 = the
        calibrated exponential family, 0.0 = deterministic pitch).
    corner:
        Processing corner (pm, pRs) — see :data:`repro.core.FIG2_1_CORNERS`.
    cnt_length_um:
        CNT correlation length LCNT (growth knob of Eq. 3.2).
    misalignment_sigma_deg:
        Growth-direction misalignment spec; truncates the usable
        correlation length via the Sec. 3 band geometry.
    metallic_removal_eta:
        Conditional metallic-removal probability ``eta`` of the removal
        step.  The paper's pRm = 1 assumption (the default) leaves no
        surviving shorts; values below 1 activate the metallic-short
        failure mode of :mod:`repro.device.shorts` with per-tube short
        probability ``p_m · (1 - eta)``.
    """

    cnt_density_per_um: float = NOMINAL_DENSITY_PER_UM
    pitch_cv: float = 1.0
    corner: ProcessingCorner = field(default_factory=lambda: FIG2_1_CORNERS[0])
    cnt_length_um: float = 200.0
    misalignment_sigma_deg: float = 0.0
    metallic_removal_eta: float = 1.0

    def __post_init__(self) -> None:
        ensure_positive(self.cnt_density_per_um, "cnt_density_per_um")
        if self.pitch_cv < 0:
            raise ValueError("pitch_cv must be non-negative")
        ensure_positive(self.cnt_length_um, "cnt_length_um")
        if self.misalignment_sigma_deg < 0:
            raise ValueError("misalignment_sigma_deg must be non-negative")
        ensure_probability(self.metallic_removal_eta, "metallic_removal_eta")

    @property
    def mean_pitch_nm(self) -> float:
        """Mean inter-CNT pitch µS = 1000/ρ in nm."""
        return 1000.0 / self.cnt_density_per_um

    @property
    def short_probability(self) -> float:
        """Per-tube surviving-short probability ``q = p_m · (1 - eta)``."""
        return self.corner.metallic_fraction * (1.0 - self.metallic_removal_eta)

    def describe(self) -> Dict[str, object]:
        """JSON-serialisable summary of the knob values."""
        return {
            "cnt_density_per_um": self.cnt_density_per_um,
            "pitch_cv": self.pitch_cv,
            "corner": self.corner.name,
            "cnt_length_um": self.cnt_length_um,
            "misalignment_sigma_deg": self.misalignment_sigma_deg,
            "metallic_removal_eta": self.metallic_removal_eta,
        }


def process_grid(
    densities_per_um: Sequence[float] = (200.0, NOMINAL_DENSITY_PER_UM, 320.0),
    pitch_cvs: Sequence[float] = (1.0,),
    corners: Sequence[ProcessingCorner] = (),
    cnt_lengths_um: Sequence[float] = (200.0,),
    misalignments_deg: Sequence[float] = (0.0,),
    removal_etas: Sequence[float] = (1.0,),
) -> Tuple[ProcessPoint, ...]:
    """Cartesian grid of :class:`ProcessPoint` in deterministic order.

    The order is the :func:`itertools.product` order of the argument
    sequences, so two calls with identical arguments enumerate identical
    candidate indices — part of the bitwise-determinism contract.
    ``removal_etas`` is the last (fastest-varying) factor, so existing
    grids keep their enumeration order at the default ``(1.0,)``.
    """
    corner_list = tuple(corners) or (FIG2_1_CORNERS[0],)
    return tuple(
        ProcessPoint(
            cnt_density_per_um=float(rho),
            pitch_cv=float(cv),
            corner=corner,
            cnt_length_um=float(length),
            misalignment_sigma_deg=float(angle),
            metallic_removal_eta=float(eta),
        )
        for rho, cv, corner, length, angle, eta in itertools.product(
            densities_per_um, pitch_cvs, corner_list,
            cnt_lengths_um, misalignments_deg, removal_etas,
        )
    )


@dataclass(frozen=True)
class CandidatePoint:
    """One evaluated (process, per-class upsizing) configuration.

    ``thresholds_nm`` are the *applied* per-class widths after upsizing
    (``max(W_c, t_c)``), in the order of the design's width classes.
    ``chip_yield`` is the service point estimate, replaced by the exact
    closed-form value when the candidate straddled the target and was
    escalated (``escalated=True``); the lower/upper bounds always come
    from the surface's guaranteed error channel.
    """

    process: ProcessPoint
    thresholds_nm: Tuple[float, ...]
    capacitance_penalty: float
    chip_yield: float
    yield_lower: float
    yield_upper: float
    relaxation_factor: float
    escalated: bool = False

    @property
    def penalty_percent(self) -> float:
        """Penalty as a percentage (the unit of Fig. 2.2b)."""
        return 100.0 * self.capacitance_penalty

    def describe(self) -> Dict[str, object]:
        """JSON-serialisable summary of the candidate."""
        return {
            "process": self.process.describe(),
            "thresholds_nm": list(self.thresholds_nm),
            "capacitance_penalty": self.capacitance_penalty,
            "chip_yield": self.chip_yield,
            "yield_lower": self.yield_lower,
            "yield_upper": self.yield_upper,
            "relaxation_factor": self.relaxation_factor,
            "escalated": self.escalated,
        }


@dataclass(frozen=True)
class CoOptValidation:
    """End-to-end Monte Carlo validation of one front candidate.

    A placed OpenRISC-like design is fabricated ``n_trials`` times at the
    candidate's process point by one :class:`repro.timing.TimingMonteCarlo`
    run.  ``z_score`` compares its mean failing-device count against the
    serving tier's prediction (the sum of per-class pF over the
    placement's width classes — unbiased under track correlation because
    expectation is linear).  The timing fields are the joint
    functional/parametric yields of the same trials, so
    ``mc_chip_yield == functional_yield``.
    """

    candidate: CandidatePoint
    n_trials: int
    device_count: int
    mc_chip_yield: float
    mc_mean_failing_devices: float
    mc_failing_devices_se: float
    predicted_mean_failing_devices: float
    z_score: float
    t_clk_ps: float
    functional_yield: float
    timing_yield: float
    combined_yield: float

    def describe(self) -> Dict[str, object]:
        """JSON-serialisable summary of the validation run."""
        return {
            "process": self.candidate.process.describe(),
            "n_trials": self.n_trials,
            "device_count": self.device_count,
            "mc_chip_yield": self.mc_chip_yield,
            "mc_mean_failing_devices": self.mc_mean_failing_devices,
            "mc_failing_devices_se": self.mc_failing_devices_se,
            "predicted_mean_failing_devices": self.predicted_mean_failing_devices,
            "z_score": self.z_score,
            "t_clk_ps": self.t_clk_ps,
            "functional_yield": self.functional_yield,
            "timing_yield": self.timing_yield,
            "combined_yield": self.combined_yield,
        }


@dataclass(frozen=True)
class CoOptResult:
    """Outcome of one Pareto co-optimization run.

    ``front`` is sorted by ascending capacitance penalty (and strictly
    descending yield — the Pareto property); ``best`` is the cheapest
    feasible configuration, ``None`` when nothing meets the target.
    ``uniform_penalty`` is the uniform-upsizing reference produced by
    :class:`repro.core.optimizer.CoOptimizationFlow` at the same yield
    target (with the correlation benefit); ``uniform_baseline_penalty``
    the Sec. 2 no-correlation reference.
    """

    yield_target: float
    front: Tuple[CandidatePoint, ...]
    best: Optional[CandidatePoint]
    uniform_wmin_nm: float
    uniform_penalty: float
    uniform_baseline_wmin_nm: float
    uniform_baseline_penalty: float
    candidates_evaluated: int
    candidates_pruned: int
    candidates_escalated: int
    candidates_feasible: int
    process_point_count: int
    surface_build_seconds: float
    inner_loop_seconds: float
    validations: Tuple[CoOptValidation, ...] = ()

    @property
    def evaluations_per_second(self) -> float:
        """Candidate evaluations per second through the surface tier."""
        if self.inner_loop_seconds <= 0.0:
            return float("inf")
        return self.candidates_evaluated / self.inner_loop_seconds

    @property
    def meets_target(self) -> bool:
        """Whether at least one configuration satisfies the yield target."""
        return self.best is not None

    @property
    def beats_uniform(self) -> bool:
        """Whether the best penalty is no worse than uniform upsizing."""
        return (
            self.best is not None
            and self.best.capacitance_penalty <= self.uniform_penalty + 1e-12
        )

    def summary_lines(self) -> List[str]:
        """Human-readable summary used by the CLI and benchmarks."""
        lines = [
            f"yield target              : {self.yield_target:.2%}",
            f"process points            : {self.process_point_count}",
            f"candidates evaluated      : {self.candidates_evaluated} "
            f"({self.candidates_pruned} pruned by upper bound, "
            f"{self.candidates_escalated} escalated to exact)",
            f"feasible candidates       : {self.candidates_feasible}",
            f"inner-loop throughput     : {self.evaluations_per_second:.3e} "
            "candidates/sec",
            f"uniform upsizing penalty  : {100.0 * self.uniform_penalty:.2f} % "
            f"(Wt = {self.uniform_wmin_nm:.1f} nm, with correlation)",
            f"Pareto front              : {len(self.front)} configuration(s)",
        ]
        for point in self.front:
            knobs = point.process
            lines.append(
                f"  penalty {point.penalty_percent:6.2f} %  "
                f"yield {point.chip_yield:.6f}  "
                f"rho {knobs.cnt_density_per_um:5.1f}/um  "
                f"cv {knobs.pitch_cv:.2f}  "
                f"thresholds {'/'.join(f'{t:.0f}' for t in point.thresholds_nm)} nm"
                + ("  [exact]" if point.escalated else "")
            )
        if self.best is None:
            lines.append("no configuration meets the yield target")
        for validation in self.validations:
            lines.append(
                f"validated: MC yield {validation.mc_chip_yield:.4f}, "
                f"failing devices {validation.mc_mean_failing_devices:.3f} "
                f"(predicted {validation.predicted_mean_failing_devices:.3f}, "
                f"z = {validation.z_score:+.2f}), "
                f"timing yield {validation.timing_yield:.4f}"
            )
        return lines


def pareto_front(
    penalties: np.ndarray, yields: np.ndarray
) -> np.ndarray:
    """Indices of the Pareto-optimal (min penalty, max yield) points.

    Points are scanned in (penalty ascending, yield descending) order
    with a stable sort; a point joins the front only when its yield
    strictly exceeds every cheaper point's yield, so duplicates resolve
    deterministically to the first occurrence.
    """
    penalties = np.asarray(penalties, dtype=float)
    yields = np.asarray(yields, dtype=float)
    if penalties.shape != yields.shape:
        raise ValueError("penalties and yields must have matching shapes")
    if penalties.size == 0:
        return np.empty(0, dtype=np.intp)
    order = np.lexsort((-yields, penalties))
    keep: List[int] = []
    best_yield = -np.inf
    for idx in order:
        if yields[idx] > best_yield:
            keep.append(int(idx))
            best_yield = yields[idx]
    return np.asarray(keep, dtype=np.intp)


@dataclass(frozen=True)
class _ProcessEvaluation:
    """Per-process-point inner-loop bookkeeping (front + counters)."""

    penalties: np.ndarray
    log_yields: np.ndarray
    front_flat: np.ndarray
    shape: Tuple[int, ...]
    yield_lower: np.ndarray
    yield_upper: np.ndarray
    escalated_mask: np.ndarray
    n_combos: int
    n_pruned: int
    n_escalated: int
    n_feasible: int


class ParetoCoOptimizer:
    """Deterministic Pareto driver over processing and design knobs.

    Parameters
    ----------
    setup:
        Calibrated setup supplying the yield target default, the design
        correlation parameters (Pmin-CNFET) and the Mmin bookkeeping.
    widths_nm, counts:
        The design's transistor-width histogram (bin centres and
        multiplicities), e.g. from
        :func:`repro.netlist.openrisc.openrisc_width_histogram`.
    yield_target:
        Chip-yield constraint (Eq. 2.3); defaults to ``setup.yield_target``.
    process_points:
        Processing conditions to search; defaults to a small density grid
        around the nominal point (:func:`process_grid`).
    extra_levels:
        Number of additional upsizing levels spaced geometrically between
        the smallest class width and the uniform baseline Wmin.  The
        ladder always contains each class's own width (no upsizing) and
        the two uniform Wmin values, so the uniform-upsizing plan is
        always representable — the search can never do worse than it.
    max_combos:
        Guard on the per-process-point combination count (the outer-sum
        arrays are materialised densely).
    service:
        Optional shared :class:`repro.serving.YieldService`; a private
        in-memory instance is created when omitted.
    grid_points:
        (width, density) node counts of the swept device-pF surfaces.
    surface_method, surface_mc_samples:
        Evaluation method of the swept surfaces (``"auto"`` resolves to
        the closed form whenever the pitch family supports it, which
        makes the bounds tight enough that escalation almost never
        fires; ``"tilted"`` produces statistical Monte Carlo bounds and
        exercises the bound-straddling escalation path).
    seed:
        Root seed for the spawn-keyed validation streams (the inner loop
        itself is deterministic and consumes no randomness).
    """

    def __init__(
        self,
        setup: Optional[CalibratedSetup] = None,
        widths_nm: Optional[Sequence[float]] = None,
        counts: Optional[Sequence[float]] = None,
        yield_target: Optional[float] = None,
        process_points: Optional[Sequence[ProcessPoint]] = None,
        extra_levels: int = 4,
        max_combos: int = 200_000,
        service: Optional[object] = None,
        grid_points: Tuple[int, int] = (17, 9),
        surface_method: str = "auto",
        surface_mc_samples: int = 20_000,
        seed: int = 20100613,
    ) -> None:
        self.setup = setup or CalibratedSetup()
        if widths_nm is None:
            raise ValueError("widths_nm is required (the design's width histogram)")
        self.widths_nm = np.asarray(widths_nm, dtype=float)
        if self.widths_nm.size == 0:
            raise ValueError("widths_nm must not be empty")
        if np.any(self.widths_nm <= 0):
            raise ValueError("all widths must be strictly positive")
        if counts is None:
            self.counts = np.ones_like(self.widths_nm)
        else:
            self.counts = np.asarray(counts, dtype=float)
            if self.counts.shape != self.widths_nm.shape:
                raise ValueError("counts must match widths_nm in shape")
            if np.any(self.counts < 0):
                raise ValueError("counts must be non-negative")
        if self.counts.sum() <= 0:
            raise ValueError("the design must contain at least one device")
        target = self.setup.yield_target if yield_target is None else yield_target
        self.yield_target = ensure_probability(target, "yield_target")
        if self.yield_target >= 1.0:
            raise ValueError("a yield target of exactly 1.0 cannot be met")
        if process_points is None:
            self.process_points = process_grid()
        else:
            self.process_points = tuple(process_points)
        if not self.process_points:
            raise ValueError("process_points must not be empty")
        if extra_levels < 0:
            raise ValueError("extra_levels must be non-negative")
        self.extra_levels = int(extra_levels)
        if max_combos < 1:
            raise ValueError("max_combos must be at least 1")
        self.max_combos = int(max_combos)
        self.service = service
        w_points, d_points = grid_points
        if w_points < 2 or d_points < 2:
            raise ValueError("grid_points must be at least (2, 2)")
        self.grid_points = (int(w_points), int(d_points))
        if surface_method not in ("auto", "closed_form", "tilted"):
            raise ValueError(f"unknown surface method {surface_method!r}")
        self.surface_method = surface_method
        self.surface_mc_samples = int(surface_mc_samples)
        self.seed = int(seed)

        # The uniform-upsizing reference at the *same* target: the flow's
        # simplified Eq. 2.5 thresholds seed the level ladder, anchor the
        # misalignment band geometry and provide the penalty baseline.
        self._flow = CoOptimizationFlow(
            setup=replace(self.setup, yield_target=self.yield_target),
            widths_nm=self.widths_nm,
            counts=self.counts,
        )
        self._uniform_baseline = self._flow.baseline_wmin()
        self._uniform_optimized = self._flow.optimized_wmin()
        self._levels = self._build_levels()
        self._surfaces: Dict[Tuple[float, float], object] = {}

    # ------------------------------------------------------------------
    # Search-space construction
    # ------------------------------------------------------------------

    def _build_levels(self) -> Tuple[np.ndarray, ...]:
        """Per-class ladders of applied widths (sorted, deduplicated).

        Global threshold candidates are: no upsizing, the two uniform
        Wmin anchors, and ``extra_levels`` geometric intermediates; each
        class keeps ``max(W_c, t)`` rounded to 1e-6 nm so float noise
        cannot split a level.
        """
        w_lo = float(np.min(self.widths_nm))
        w_hi = float(self._uniform_baseline.wmin_nm)
        thresholds = [0.0, self._uniform_optimized.wmin_nm, w_hi]
        if self.extra_levels > 0 and w_hi > w_lo:
            thresholds.extend(
                np.geomspace(w_lo, w_hi, self.extra_levels + 2)[1:-1].tolist()
            )
        levels: List[np.ndarray] = []
        for width in self.widths_nm:
            applied = np.round(
                np.maximum(float(width), np.asarray(thresholds, dtype=float)), 6
            )
            levels.append(np.unique(applied))
        return tuple(levels)

    @property
    def class_levels(self) -> Tuple[np.ndarray, ...]:
        """The per-class upsizing ladders (applied widths, nm)."""
        return self._levels

    def combos_per_process_point(self) -> int:
        """Size of the design-knob cross product (per process point)."""
        return int(np.prod([lv.size for lv in self._levels]))

    def relaxation_factor(self, point: ProcessPoint) -> float:
        """Correlation relaxation of one process point (Eq. 3.2, de-rated).

        The misalignment spec truncates the usable correlation length via
        the Sec. 3 band geometry (band width = the uniform optimized Wmin),
        deterministically through
        :meth:`repro.analysis.mispositioned.MisalignmentImpactModel.relaxation_for_angle`.
        """
        model = MisalignmentImpactModel(
            band_width_nm=self._uniform_optimized.wmin_nm,
            cnt_length_um=point.cnt_length_um,
            min_cnfet_density_per_um=(
                self.setup.correlation.min_cnfet_density_per_um
            ),
        )
        return model.relaxation_for_angle(point.misalignment_sigma_deg)

    # ------------------------------------------------------------------
    # Surface tier
    # ------------------------------------------------------------------

    def _surface_key(self, point: ProcessPoint) -> Tuple[float, float, float]:
        return (
            round(point.pitch_cv, 9),
            round(point.corner.per_cnt_failure_probability, 12),
            round(point.short_probability, 12),
        )

    def _ensure_service(self) -> object:
        if self.service is None:
            from repro.serving import YieldService

            self.service = YieldService()
        return self.service

    def _surface_for(self, point: ProcessPoint) -> object:
        """Build (or reuse) the device-pF surface for a pitch/corner family.

        One surface covers every density of the family: the builder
        rescales the pitch per density column, so the density axis simply
        needs to bracket the candidate densities.
        """
        key = self._surface_key(point)
        surface = self._surfaces.get(key)
        if surface is not None:
            return surface
        from repro.growth.pitch import pitch_distribution_from_cv
        from repro.surface import GridAxis, SurfaceBuilder, SweepSpec

        all_levels = np.concatenate(self._levels)
        w_lo = 0.9 * float(np.min(all_levels))
        w_hi = 1.1 * float(np.max(all_levels))
        family = [
            p.cnt_density_per_um for p in self.process_points
            if self._surface_key(p) == key
        ]
        d_lo = 0.9 * min(family)
        d_hi = 1.1 * max(family)
        spec = SweepSpec(
            scenario="device",
            width_axis=GridAxis.from_range(
                "width_nm", w_lo, w_hi, self.grid_points[0]
            ),
            density_axis=GridAxis.from_range(
                "cnt_density_per_um", d_lo, d_hi, self.grid_points[1]
            ),
            pitch=pitch_distribution_from_cv(
                self.setup.mean_pitch_nm, point.pitch_cv
            ),
            per_cnt_failure=point.corner.per_cnt_failure_probability,
            correlation=self.setup.correlation,
            method=self.surface_method,
            mc_samples=self.surface_mc_samples,
            max_refinement_rounds=2,
            seed=self.seed,
            metallic_fraction=point.corner.metallic_fraction,
            removal_eta=point.metallic_removal_eta,
        )
        surface = SurfaceBuilder(spec).build()
        self._ensure_service().register(surface)
        self._surfaces[key] = surface
        return surface

    # ------------------------------------------------------------------
    # Inner loop
    # ------------------------------------------------------------------

    def _evaluate_process_point(self, point: ProcessPoint) -> _ProcessEvaluation:
        """Evaluate the full design-knob cross product at one process point.

        The chip log-yield is additive across width classes, so the
        ``L_1 × … × L_n`` combination space costs one batched service
        query over the distinct ladder widths plus an outer-sum
        reduction.  Bounds prune: combos whose upper-bound yield misses
        the target are rejected with no further work; straddlers are
        escalated to the exact closed form.
        """
        n_combos = self.combos_per_process_point()
        if n_combos > self.max_combos:
            raise ValueError(
                f"{n_combos} design combinations per process point exceed "
                f"max_combos={self.max_combos}; reduce extra_levels or "
                "raise max_combos"
            )
        surface = self._surface_for(point)
        service = self._ensure_service()
        relaxation = self.relaxation_factor(point)
        eff_counts = self.counts / relaxation

        distinct = np.unique(np.concatenate(self._levels))
        result = service.query(
            surface,
            distinct,
            cnt_density_per_um=np.full(
                distinct.shape, point.cnt_density_per_um
            ),
            device_count=1.0,
        )
        index_of = {float(w): i for i, w in enumerate(distinct)}

        def per_class(prob: np.ndarray) -> List[np.ndarray]:
            with np.errstate(divide="ignore"):
                log_survival = np.log1p(-np.minimum(prob, 1.0))
            return [
                eff_counts[c] * log_survival[
                    [index_of[float(w)] for w in self._levels[c]]
                ]
                for c in range(self.widths_nm.size)
            ]

        logy = functools.reduce(
            np.add.outer, per_class(result.failure_probability)
        ).ravel()
        logy_lower = functools.reduce(
            np.add.outer, per_class(result.failure_upper)
        ).ravel()
        logy_upper = functools.reduce(
            np.add.outer, per_class(result.failure_lower)
        ).ravel()
        pen_terms = [
            self.counts[c] * (self._levels[c] - self.widths_nm[c])
            for c in range(self.widths_nm.size)
        ]
        penalties = (
            functools.reduce(np.add.outer, pen_terms).ravel()
            / float(np.sum(self.counts * self.widths_nm))
        )
        shape = tuple(lv.size for lv in self._levels)

        log_target = np.log(self.yield_target)
        pruned = logy_upper < log_target
        certain = logy_lower >= log_target
        straddle = ~pruned & ~certain
        n_escalated = int(np.count_nonzero(straddle))
        feasible = certain.copy()
        if n_escalated:
            # Exact escalation: closed-form pF at this density, reduced
            # only over the straddling combos.
            from repro.surface.builder import density_to_mean_pitch_nm

            pitch = self._surfaces_pitch(point)
            model = CNFETFailureModel(
                count_model_from_pitch(
                    pitch.with_mean(
                        density_to_mean_pitch_nm(point.cnt_density_per_um)
                    )
                ),
                point.corner.per_cnt_failure_probability,
                short_probability=point.short_probability,
            )
            exact_log_pf = model.log_failure_probabilities(distinct)
            with np.errstate(divide="ignore"):
                exact_survival = np.log1p(
                    -np.minimum(np.exp(exact_log_pf), 1.0)
                )
            exact_class = [
                eff_counts[c] * exact_survival[
                    [index_of[float(w)] for w in self._levels[c]]
                ]
                for c in range(self.widths_nm.size)
            ]
            flat = np.flatnonzero(straddle)
            multi = np.unravel_index(flat, shape)
            exact_logy = np.zeros(flat.size)
            for c, idx in enumerate(multi):
                exact_logy += exact_class[c][idx]
            logy = logy.copy()
            logy[flat] = exact_logy
            feasible[flat] = exact_logy >= log_target

        n_feasible = int(np.count_nonzero(feasible))
        if n_feasible:
            feasible_flat = np.flatnonzero(feasible)
            front_local = pareto_front(
                penalties[feasible_flat], logy[feasible_flat]
            )
            front_flat = feasible_flat[front_local]
        else:
            front_flat = np.empty(0, dtype=np.intp)

        return _ProcessEvaluation(
            penalties=penalties,
            log_yields=logy,
            front_flat=front_flat,
            shape=shape,
            yield_lower=np.exp(np.minimum(logy_lower, 0.0)),
            yield_upper=np.exp(np.minimum(logy_upper, 0.0)),
            escalated_mask=straddle,
            n_combos=n_combos,
            n_pruned=int(np.count_nonzero(pruned)),
            n_escalated=n_escalated,
            n_feasible=n_feasible,
        )

    def _surfaces_pitch(self, point: ProcessPoint) -> object:
        """The pitch family a process point's surface was swept with."""
        from repro.growth.pitch import pitch_distribution_from_cv

        return pitch_distribution_from_cv(
            self.setup.mean_pitch_nm, point.pitch_cv
        )

    def _candidate(
        self, point: ProcessPoint, evaluation: _ProcessEvaluation, flat: int
    ) -> CandidatePoint:
        """Materialise one flat combo index as a :class:`CandidatePoint`."""
        multi = np.unravel_index(flat, evaluation.shape)
        thresholds = tuple(
            float(self._levels[c][idx]) for c, idx in enumerate(multi)
        )
        return CandidatePoint(
            process=point,
            thresholds_nm=thresholds,
            capacitance_penalty=float(evaluation.penalties[flat]),
            chip_yield=float(np.exp(min(evaluation.log_yields[flat], 0.0))),
            yield_lower=float(evaluation.yield_lower[flat]),
            yield_upper=float(evaluation.yield_upper[flat]),
            relaxation_factor=self.relaxation_factor(point),
            escalated=bool(evaluation.escalated_mask[flat]),
        )

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def run(
        self,
        validate_trials: int = 0,
        validate_top: int = 1,
        validation_scale: float = 0.05,
        t_clk_factor: float = 1.2,
        execution: Execution = Execution(),
    ) -> CoOptResult:
        """Search the joint space and return the Pareto front.

        Parameters
        ----------
        validate_trials:
            Monte Carlo trials per validated front candidate (0 disables
            validation).
        validate_top:
            How many front members (cheapest first) to validate.
        validation_scale:
            Scale factor of the placed OpenRISC-like validation design.
        t_clk_factor:
            Clock period of the timing validation as a multiple of the
            nominal critical path.
        execution:
            How the validation Monte Carlo runs
            (:class:`~repro.resilience.supervise.Execution`); the search
            itself runs in-process, and the returned front and
            validations are bitwise identical for any value.
        """
        if validate_trials < 0:
            raise ValueError("validate_trials must be non-negative")
        if validate_top < 1:
            raise ValueError("validate_top must be at least 1")

        build_start = time.perf_counter()
        for point in self.process_points:
            self._surface_for(point)
        surface_seconds = time.perf_counter() - build_start

        inner_start = time.perf_counter()
        candidates: List[CandidatePoint] = []
        totals = {"combos": 0, "pruned": 0, "escalated": 0, "feasible": 0}
        for point in self.process_points:
            evaluation = self._evaluate_process_point(point)
            totals["combos"] += evaluation.n_combos
            totals["pruned"] += evaluation.n_pruned
            totals["escalated"] += evaluation.n_escalated
            totals["feasible"] += evaluation.n_feasible
            for flat in evaluation.front_flat:
                candidates.append(self._candidate(point, evaluation, int(flat)))

        # Merge the per-process fronts into the global one.  The sort key
        # is fully deterministic: penalty, then yield (descending), then
        # the enumeration order already fixed by process_points/levels.
        if candidates:
            merged = pareto_front(
                np.array([c.capacitance_penalty for c in candidates]),
                np.array([c.chip_yield for c in candidates]),
            )
            front = tuple(candidates[i] for i in merged)
        else:
            front = ()
        inner_seconds = time.perf_counter() - inner_start

        best = front[0] if front else None
        validations: List[CoOptValidation] = []
        if best is not None and validate_trials > 0:
            for rank, candidate in enumerate(front[:validate_top]):
                validations.append(
                    self.validate(
                        candidate,
                        n_trials=validate_trials,
                        rank=rank,
                        scale=validation_scale,
                        t_clk_factor=t_clk_factor,
                        execution=execution,
                    )
                )

        report = self._flow.run()
        upsizing = report.optimized_upsizing
        baseline_upsizing = report.baseline_upsizing
        return CoOptResult(
            yield_target=self.yield_target,
            front=front,
            best=best,
            uniform_wmin_nm=float(self._uniform_optimized.wmin_nm),
            uniform_penalty=float(upsizing.capacitance_penalty),
            uniform_baseline_wmin_nm=float(self._uniform_baseline.wmin_nm),
            uniform_baseline_penalty=float(
                baseline_upsizing.capacitance_penalty
            ),
            candidates_evaluated=totals["combos"],
            candidates_pruned=totals["pruned"],
            candidates_escalated=totals["escalated"],
            candidates_feasible=totals["feasible"],
            process_point_count=len(self.process_points),
            surface_build_seconds=surface_seconds,
            inner_loop_seconds=inner_seconds,
            validations=tuple(validations),
        )

    # ------------------------------------------------------------------
    # End-to-end validation
    # ------------------------------------------------------------------

    def validate(
        self,
        candidate: CandidatePoint,
        n_trials: int,
        rank: int = 0,
        scale: float = 0.05,
        t_clk_factor: float = 1.2,
        execution: Execution = Execution(),
    ) -> CoOptValidation:
        """Monte Carlo validation of one candidate's process point.

        Builds the placed OpenRISC-like design at the candidate's
        pitch/density/corner and fabricates it ``n_trials`` times in one
        :class:`~repro.timing.TimingMonteCarlo` run over its
        :class:`~repro.montecarlo.chip_sim.ChipMonteCarlo` geometry.  The
        run's per-trial failing devices answer the cross-check against
        the serving tier's per-class pF sum (linear expectation makes the
        comparison unbiased even though devices share tracks); its
        critical paths answer the joint functional/timing yield.  The RNG
        stream is keyed on the optimizer seed and the candidate's front
        rank, so validations are bitwise reproducible and independent of
        ``execution``; each rank checkpoints under its own
        ``validate-<rank>`` subdirectory of the checkpoint directory.
        """
        ensure_positive(n_trials, "n_trials")
        from repro.cells.nangate45 import build_nangate45_library
        from repro.growth.pitch import pitch_distribution_from_cv
        from repro.montecarlo.chip_sim import ChipMonteCarlo
        from repro.netlist.openrisc import build_openrisc_like_design
        from repro.netlist.placement import RowPlacement
        from repro.timing import TimingMonteCarlo

        point = candidate.process
        library = build_nangate45_library()
        design = build_openrisc_like_design(library, scale=scale, seed=2010)
        placement = RowPlacement(design)
        pitch = pitch_distribution_from_cv(
            point.mean_pitch_nm, point.pitch_cv
        )
        chip = ChipMonteCarlo(
            placement,
            pitch=pitch,
            type_model=point.corner.to_type_model(
                removal_prob_metallic=point.metallic_removal_eta
            ),
        )

        if execution.checkpoint_dir is not None:
            # Each rank is its own timing campaign (its own stream).
            execution = replace(
                execution,
                checkpoint_dir=Path(execution.checkpoint_dir) / f"validate-{rank}",
            )
        engine = TimingMonteCarlo.from_chip(chip, seed=self.seed)
        t_clk = engine.default_t_clk_ps(factor=t_clk_factor)
        timing = engine.run(
            n_trials,
            np.random.default_rng(np.random.SeedSequence((self.seed, rank))),
            t_clk_ps=t_clk,
            execution=execution,
        )

        widths, counts = chip.width_class_histogram()
        surface = self._surface_for(point)
        query = self._ensure_service().query(
            surface,
            np.asarray(widths, dtype=float),
            cnt_density_per_um=np.full(
                len(widths), point.cnt_density_per_um
            ),
            device_count=1.0,
        )
        predicted = float(
            np.sum(np.asarray(counts) * query.failure_probability)
        )
        failing = timing.failing_devices
        mean_failing = float(np.mean(failing))
        se = (
            float(np.std(failing, ddof=1)) / np.sqrt(n_trials)
            if n_trials > 1 else 0.0
        )
        z_score = (mean_failing - predicted) / se if se > 0 else 0.0

        return CoOptValidation(
            candidate=candidate,
            n_trials=int(n_trials),
            device_count=chip.device_count,
            mc_chip_yield=timing.functional_yield,
            mc_mean_failing_devices=mean_failing,
            mc_failing_devices_se=float(se),
            predicted_mean_failing_devices=predicted,
            z_score=float(z_score),
            t_clk_ps=float(t_clk),
            functional_yield=timing.functional_yield,
            timing_yield=timing.timing_yield,
            combined_yield=timing.combined_yield,
        )
