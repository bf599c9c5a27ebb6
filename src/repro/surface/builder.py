"""Sweeping the closed forms (and MC estimators) into yield surfaces.

The builder walks a (width, CNT density) mesh and tabulates the log
failure probability of one scenario:

* **Closed-form path** — every pitch family is a scale family
  (:meth:`~repro.growth.pitch.PitchDistribution.with_mean`), so pF
  depends on (W, ρ) only through the mean count x = W / µS = W·ρ.  All
  missing points go through the one exact array evaluator
  (:func:`~repro.core.failure.log_failure_probabilities`) in a single call
  on a unit-mean count model at x, then map device pF to the scenario's
  row failure probability with the vectorised Table 1 closed forms.

* **Tilted Monte Carlo path** — for pitch families whose n-fold sum CDF
  is only approximate (truncated normal), or on request, each column is
  estimated by the exponentially tilted importance sampler
  (:func:`~repro.montecarlo.rare_event.estimate_device_failure_grid`);
  the delta-method standard errors ride along into ``stat_se_log``.

**Interpolation-error probing.**  After each sweep the builder evaluates
the exact model on the midpoint-interleaved mesh, interpolates the coarse
grid onto it, and records ``safety_factor ×`` the worst residual per cell
as that cell's error bound.  Cells above ``tolerance_log`` get their
midpoints promoted to real grid lines and the sweep repeats — the probe
evaluations are cached, so a refinement round costs no re-evaluation of
points it has already touched.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.correlation import (
    CorrelationParameters,
    LayoutScenario,
    propagate_row_failure_se,
    scenario_row_failure_probabilities,
)
from repro.core.count_model import count_model_from_pitch
from repro.core.failure import log_failure_probabilities
from repro.growth.pitch import ExponentialPitch, PitchDistribution, TruncatedNormalPitch
from repro.resilience.supervise import Execution
from repro.surface.grid import GridAxis, bilinear_interpolate
from repro.surface.surface import (
    LOG_FLOOR,
    SCENARIO_DEVICE,
    YieldSurface,
    pitch_descriptor,
    pitch_from_descriptor,
)
from repro.units import NM_PER_UM, ensure_positive, ensure_probability, per_um_to_per_nm

#: Every queryable scenario tag: the device pF surface plus Table 1's three.
ALL_SCENARIOS = (SCENARIO_DEVICE,) + tuple(s.value for s in LayoutScenario)

#: Absolute floor on the probed per-cell error bound (log space), well above
#: float noise in the residual arithmetic and far below any useful tolerance.
INTERP_ERROR_FLOOR = 1e-9

#: Sigma multiplier on the probe points' statistical noise when deciding
#: whether a cell's residual reflects real interpolation error: refinement
#: can shrink curvature error but never the Monte Carlo noise floor, so
#: cells whose residual is statistically indistinguishable from that floor
#: must not be refined (they would split forever without converging).
REFINE_NOISE_SIGMA = 4.0

def density_to_mean_pitch_nm(cnt_density_per_um: float) -> float:
    """CNT density ρ (tubes/µm) to mean pitch µS (nm): µS = 1 / ρ."""
    ensure_positive(cnt_density_per_um, "cnt_density_per_um")
    return 1.0 / per_um_to_per_nm(cnt_density_per_um)


@dataclass
class SweepSpec:
    """Everything that defines one surface sweep.

    The default axes bracket the paper's 45 nm operating region: widths
    from sub-minimum (20 nm) past the uncorrelated Wmin (≈170 nm with the
    calibrated Poisson model), densities around the nominal 250 CNTs/µm
    (µS = 4 nm) with head-room for wafer-level density drift.
    """

    scenario: str = SCENARIO_DEVICE
    width_axis: GridAxis = field(
        default_factory=lambda: GridAxis.from_range("width_nm", 20.0, 400.0, 33)
    )
    density_axis: GridAxis = field(
        default_factory=lambda: GridAxis.from_range(
            "cnt_density_per_um", 125.0, 500.0, 17
        )
    )
    pitch: PitchDistribution = field(
        default_factory=lambda: ExponentialPitch(mean_pitch_nm=4.0)
    )
    per_cnt_failure: float = 0.5333333333333333
    correlation: CorrelationParameters = field(default_factory=CorrelationParameters)
    method: str = "auto"
    tolerance_log: float = 1e-3
    max_refinement_rounds: int = 3
    safety_factor: float = 2.0
    mc_samples: int = 20_000
    seed: int = 20100613
    #: Metallic fraction p_m and removal efficiency eta of the short
    #: failure mode (:mod:`repro.device.shorts`).  The defaults give a
    #: per-tube surviving-short probability of 0 — the opens-only sweep
    #: every pre-shorts surface was built with, bit for bit.
    metallic_fraction: float = 0.0
    removal_eta: float = 1.0

    def __post_init__(self) -> None:
        if self.scenario not in ALL_SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; expected one of {ALL_SCENARIOS}"
            )
        ensure_probability(self.per_cnt_failure, "per_cnt_failure")
        ensure_probability(self.metallic_fraction, "metallic_fraction")
        ensure_probability(self.removal_eta, "removal_eta")
        if self.method not in ("auto", "closed_form", "tilted"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.short_probability > 0.0 and self.resolved_method == "tilted":
            raise ValueError(
                "method='tilted' supports only the opens-only regime; "
                "joint opens+shorts sweeps must use the closed form"
            )
        ensure_positive(self.tolerance_log, "tolerance_log")
        if self.max_refinement_rounds < 0:
            raise ValueError("max_refinement_rounds must be non-negative")
        if self.safety_factor < 1.0:
            raise ValueError("safety_factor must be at least 1.0")
        if self.mc_samples <= 0:
            raise ValueError("mc_samples must be positive")

    @property
    def short_probability(self) -> float:
        """Per-tube surviving-short probability ``q = p_m · (1 - eta)``."""
        return self.metallic_fraction * (1.0 - self.removal_eta)

    @property
    def resolved_method(self) -> str:
        """``auto`` resolves by family: exact sum CDFs sweep closed-form,
        the CLT-approximated truncated normal goes through the sampler."""
        if self.method != "auto":
            return self.method
        if isinstance(self.pitch, TruncatedNormalPitch):
            return "tilted"
        return "closed_form"


class ExactEvaluator:
    """Evaluates the exact (or MC-estimated) log failure value per point.

    All evaluations go through a coordinate-keyed cache, so the builder's
    midpoint probes, refinement rounds and the serving layer's fallback
    queries never pay twice for the same (W, ρ) point.  ``execution`` runs
    the tilted Monte Carlo grid campaigns of ``method="tilted"``; like
    every execution it changes no result bit.
    """

    def __init__(
        self,
        scenario: str,
        pitch: PitchDistribution,
        per_cnt_failure: float,
        correlation: CorrelationParameters,
        method: str = "closed_form",
        mc_samples: int = 20_000,
        seed: int = 20100613,
        short_probability: float = 0.0,
        execution: Execution = Execution(),
    ) -> None:
        if scenario not in ALL_SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}")
        if method not in ("closed_form", "tilted"):
            raise ValueError(f"unknown resolved method {method!r}")
        ensure_probability(short_probability, "short_probability")
        if short_probability > 0.0 and method == "tilted":
            raise ValueError(
                "method='tilted' supports only the opens-only regime; "
                "joint opens+shorts evaluation must use the closed form"
            )
        self.scenario = scenario
        self.pitch = pitch
        self.per_cnt_failure = ensure_probability(per_cnt_failure, "per_cnt_failure")
        self.correlation = correlation
        self.method = method
        self.mc_samples = int(mc_samples)
        self.seed = int(seed)
        self.short_probability = float(short_probability)
        self.execution = execution
        self._cache: Dict[Tuple[float, float], Tuple[float, float]] = {}
        self.evaluation_count = 0

    @classmethod
    def from_surface(cls, surface: YieldSurface) -> "ExactEvaluator":
        """Rebuild the evaluator a surface was swept with (serving fallback)."""
        meta = surface.metadata
        return cls(
            scenario=surface.scenario,
            pitch=pitch_from_descriptor(meta["pitch"]),
            per_cnt_failure=float(meta["per_cnt_failure"]),
            correlation=CorrelationParameters(**meta["correlation"]),
            method=str(meta.get("method", "closed_form")),
            mc_samples=int(meta.get("mc_samples", 20_000)),
            seed=int(meta.get("seed", 20100613)),
            short_probability=float(meta.get("short_probability", 0.0)),
        )

    # ------------------------------------------------------------------
    # Point evaluation
    # ------------------------------------------------------------------

    def _device_values(
        self, widths_nm: np.ndarray, densities_per_um: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(log pF, SE of log pF) at matched (W, ρ) arrays."""
        if self.method == "closed_form":
            # µS formed by the same operations as density_to_mean_pitch_nm,
            # so the Poisson values are bitwise those of a per-density model.
            x = widths_nm / (1.0 / (densities_per_um / NM_PER_UM))
            log_pf = log_failure_probabilities(
                count_model_from_pitch(self.pitch.with_mean(1.0)),
                x,
                self.per_cnt_failure,
                self.short_probability,
            )
            return log_pf, np.zeros(x.size)
        from repro.montecarlo.rare_event import estimate_device_failure_grid

        log_pf = np.empty(widths_nm.size)
        se_log = np.empty(widths_nm.size)
        for density in np.unique(densities_per_um):
            at = densities_per_um == density
            # The seed key carries the density coordinate and every point
            # adds its width coordinate inside the grid hook, so a node's
            # estimate is independent of batching/refinement history — the
            # content hash of an MC surface depends only on (spec, grid).
            estimates = estimate_device_failure_grid(
                self.pitch.with_mean(density_to_mean_pitch_nm(float(density))),
                self.per_cnt_failure,
                widths_nm[at],
                self.mc_samples,
                seed_key=(self.seed, int(round(float(density) * 1e6))),
                execution=self.execution,
            )
            p = np.array([e.estimate for e in estimates])
            se = np.array([e.standard_error for e in estimates])
            with np.errstate(divide="ignore"):
                log_pf[at] = np.where(p > 0.0, np.log(np.maximum(p, 1e-300)), LOG_FLOOR)
                se_log[at] = np.where(p > 0.0, se / np.maximum(p, 1e-300), 0.0)
        return log_pf, se_log

    def _scenario_values(
        self, widths_nm: np.ndarray, densities_per_um: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(log value, SE of log value) after the scenario map."""
        log_pf, se_log_pf = self._device_values(widths_nm, densities_per_um)
        log_pf = np.maximum(log_pf, LOG_FLOOR)
        if self.scenario == SCENARIO_DEVICE:
            return log_pf, se_log_pf
        scenario = LayoutScenario(self.scenario)
        p = np.exp(log_pf)
        prf = scenario_row_failure_probabilities(scenario, p, self.correlation)
        se_prf = propagate_row_failure_se(
            scenario, p, se_log_pf * p, self.correlation
        )
        with np.errstate(divide="ignore"):
            log_prf = np.where(
                prf > 0.0, np.log(np.maximum(prf, 1e-300)), LOG_FLOOR
            )
            se_log_prf = np.where(prf > 0.0, se_prf / np.maximum(prf, 1e-300), 0.0)
        return np.maximum(log_prf, LOG_FLOOR), se_log_prf

    @staticmethod
    def _key(width_nm: float, density_per_um: float) -> Tuple[float, float]:
        return (round(float(width_nm), 9), round(float(density_per_um), 9))

    def points(
        self, widths_nm: np.ndarray, densities_per_um: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate (W, ρ) pairs of any matching shape, reusing cached points.

        Every point not yet cached is evaluated in one batch (one array
        call for the closed form); a mesh is the meshgrid of its axes.
        """
        widths = np.asarray(widths_nm, dtype=float)
        densities = np.asarray(densities_per_um, dtype=float)
        if widths.shape != densities.shape:
            raise ValueError("widths and densities must have matching shapes")
        keys = list(map(self._key, widths.ravel().tolist(), densities.ravel().tolist()))
        missing: Dict[Tuple[float, float], int] = {}
        for i, key in enumerate(keys):
            if key not in self._cache:
                missing.setdefault(key, i)
        if missing:
            at = np.fromiter(missing.values(), dtype=np.intp, count=len(missing))
            values, errors = self._scenario_values(
                widths.ravel()[at], densities.ravel()[at]
            )
            self.evaluation_count += at.size
            self._cache.update(zip(missing, zip(values.tolist(), errors.tolist())))
        pairs = np.array([self._cache[k] for k in keys], dtype=float).reshape(-1, 2)
        return pairs[:, 0].reshape(widths.shape), pairs[:, 1].reshape(widths.shape)


@dataclass(frozen=True)
class BuildReport:
    """What a sweep did: mesh growth, evaluations, residual error."""

    surface: YieldSurface
    refinement_rounds: int
    evaluations: int
    max_interp_error_log: float
    converged: bool


class SurfaceBuilder:
    """Runs a :class:`SweepSpec` to a persisted-ready :class:`YieldSurface`.

    Parameters
    ----------
    spec:
        The sweep to run (defaults to :class:`SweepSpec`).
    execution:
        Its :meth:`~repro.resilience.supervise.Execution.checkpoint`
        persists the evaluator's point cache after every refinement round
        when a checkpoint directory is set.  A rerun of the same spec
        resumes from the last verified snapshot: every cached grid point
        replays instead of re-evaluating, and because refinement
        decisions are deterministic functions of the point values, the
        resumed surface is bitwise identical (same content hash) to an
        uninterrupted build.  The tilted Monte Carlo grid campaigns of a
        ``method="tilted"`` sweep run under the same workers, retry
        policy and fault plan, without a checkpoint of their own: the
        point cache already persists what they computed.
    """

    def __init__(
        self, spec: Optional[SweepSpec] = None, execution: Execution = Execution()
    ) -> None:
        self.spec = spec or SweepSpec()
        self.execution = execution

    def build(self) -> YieldSurface:
        """Run the sweep and return only its :class:`YieldSurface`."""
        return self.build_report().surface

    @staticmethod
    def _restore_cache(evaluator: ExactEvaluator, checkpoint) -> None:
        """Preload the evaluator cache from the latest verified snapshot."""
        units = checkpoint.verified_units()
        if not units:
            return
        arrays, _meta = units[max(units)]
        for w, d, v, e in zip(
            arrays["key_w"], arrays["key_d"], arrays["value"], arrays["error"]
        ):
            evaluator._cache[(float(w), float(d))] = (float(v), float(e))

    @staticmethod
    def _snapshot_cache(evaluator: ExactEvaluator, checkpoint, unit: int) -> None:
        """Persist the evaluator cache as the round-``unit`` snapshot."""
        keys = list(evaluator._cache)
        values = [evaluator._cache[k] for k in keys]
        checkpoint.save_unit(
            unit,
            arrays={
                "key_w": np.array([k[0] for k in keys], dtype=float),
                "key_d": np.array([k[1] for k in keys], dtype=float),
                "value": np.array([v[0] for v in values], dtype=float),
                "error": np.array([v[1] for v in values], dtype=float),
            },
            meta={"round": int(unit), "points": len(keys)},
        )

    def build_report(self) -> BuildReport:
        """Run the sweep with adaptive refinement; report what it did.

        Sweeps the grid, refines every axis interval whose cell error
        exceeds the tolerance plus the statistical noise allowance, and
        repeats until no cell is flagged or ``max_refinement_rounds`` is
        reached.  The :class:`BuildReport` carries the surface, the
        rounds, the exact evaluations made and whether it converged.
        """
        spec = self.spec
        evaluator = ExactEvaluator(
            scenario=spec.scenario,
            pitch=spec.pitch,
            per_cnt_failure=spec.per_cnt_failure,
            correlation=spec.correlation,
            method=spec.resolved_method,
            mc_samples=spec.mc_samples,
            seed=spec.seed,
            short_probability=spec.short_probability,
            execution=dataclasses.replace(self.execution, checkpoint_dir=None),
        )
        checkpoint = self.execution.checkpoint(
            f"sweep-{spec.scenario}", spec.max_refinement_rounds + 1, spec
        )
        if checkpoint is not None:
            self._restore_cache(evaluator, checkpoint)
        w_axis, d_axis = spec.width_axis, spec.density_axis
        rounds = 0
        while True:
            values, stat_se, cell_err, cell_noise = self._sweep_once(
                evaluator, w_axis, d_axis
            )
            if checkpoint is not None:
                self._snapshot_cache(evaluator, checkpoint, rounds)
            # cell_err carries the safety factor, so the statistical gate
            # must scale its noise allowance identically: a residual that
            # is REFINE_NOISE_SIGMA probe-SEs of pure noise would show up
            # here as safety_factor times that.
            bad = cell_err > (
                spec.tolerance_log
                + spec.safety_factor * REFINE_NOISE_SIGMA * cell_noise
            )
            if not bad.any() or rounds >= spec.max_refinement_rounds:
                converged = not bad.any()
                break
            w_axis = w_axis.refined(bad.any(axis=1))
            d_axis = d_axis.refined(bad.any(axis=0))
            rounds += 1

        metadata = {
            "pitch": pitch_descriptor(spec.pitch),
            "pitch_cv": float(spec.pitch.cv),
            "per_cnt_failure": float(spec.per_cnt_failure),
            "correlation": dataclasses.asdict(spec.correlation),
            "method": evaluator.method,
            "mc_samples": int(spec.mc_samples),
            "seed": int(spec.seed),
            "metallic_fraction": float(spec.metallic_fraction),
            "removal_eta": float(spec.removal_eta),
            "short_probability": float(spec.short_probability),
            "tolerance_log": float(spec.tolerance_log),
            "safety_factor": float(spec.safety_factor),
            "refinement_rounds": rounds,
            "converged": bool(converged),
        }
        surface = YieldSurface(
            scenario=spec.scenario,
            width_nm=w_axis.values,
            cnt_density_per_um=d_axis.values,
            log_failure=values,
            stat_se_log=stat_se,
            interp_error_log=cell_err,
            metadata=metadata,
        )
        return BuildReport(
            surface=surface,
            refinement_rounds=rounds,
            evaluations=evaluator.evaluation_count,
            max_interp_error_log=float(np.max(cell_err)),
            converged=converged,
        )

    # ------------------------------------------------------------------
    # One sweep + midpoint error probe
    # ------------------------------------------------------------------

    def _sweep_once(
        self, evaluator: ExactEvaluator, w_axis: GridAxis, d_axis: GridAxis
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        w_mesh, d_mesh = np.meshgrid(
            w_axis.with_midpoints(), d_axis.with_midpoints(), indexing="ij"
        )
        fine_values, fine_se = evaluator.points(w_mesh, d_mesh)
        values = fine_values[0::2, 0::2]
        stat_se = fine_se[0::2, 0::2]

        # Interpolate the coarse grid onto the fine probe mesh and take the
        # worst residual in each cell's 3×3 probe block as its error bound;
        # the block's worst statistical SE is the cell's noise floor, which
        # gates the refinement decision (MC probes cannot distinguish
        # interpolation error below their own noise).
        interp, _, _ = bilinear_interpolate(
            w_axis.values, d_axis.values, values, w_mesh.ravel(), d_mesh.ravel()
        )
        residual = np.abs(fine_values - interp.reshape(fine_values.shape))
        n_w, n_d = w_axis.n_points, d_axis.n_points
        cell_err = np.zeros((n_w - 1, n_d - 1))
        cell_noise = np.zeros((n_w - 1, n_d - 1))
        for di in range(3):
            for dj in range(3):
                rows = slice(di, di + 2 * (n_w - 1) - 1, 2)
                cols = slice(dj, dj + 2 * (n_d - 1) - 1, 2)
                cell_err = np.maximum(cell_err, residual[rows, cols])
                cell_noise = np.maximum(cell_noise, fine_se[rows, cols])
        cell_err = np.maximum(
            self.spec.safety_factor * cell_err, INTERP_ERROR_FLOOR
        )
        return values, stat_se, cell_err, cell_noise
