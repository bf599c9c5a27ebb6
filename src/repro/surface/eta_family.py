"""A removal-efficiency (eta) axis over 2D yield surfaces.

The shorts extension (:mod:`repro.device.shorts`) adds two process knobs
to every sweep — the metallic fraction ``p_m`` and the removal efficiency
``eta`` — but only their product ``q = p_m · (1 - eta)`` enters the
closed forms, and co-optimization loops sweep ``eta`` while holding the
growth chemistry (``p_m``) fixed.  Rebuilding a full (W, density) surface
per queried ``eta`` would defeat the serving tier, so this module
tabulates a *family*: one closed-form surface per ``eta`` node, linear
interpolation along ``eta`` between them, and a probed error bound on
that third axis so the serving contract ("the bound always contains the
exact closed form") extends to off-node ``eta`` queries.

The eta-axis bound follows the builder's probing recipe: within each
``[eta_k, eta_k+1]`` interval the exact joint closed form is evaluated at
interior fraction points and compared against the fused (eta-interpolated)
estimate; ``safety_factor ×`` the worst residual becomes the interval's
error term, added on top of the *maximum* of the two bracketing surfaces'
own per-query bounds (linear weights are convex, so the fused value's
surface error can never exceed the worse bracket).  Queries outside the
swept ``eta`` range — or off the (W, density) grid — fall back to the
exact evaluator instead of extrapolating.

Only the closed-form method is supported: the probe comparisons must be
against exact values, and the tilted sampler has no joint opens+shorts
counterpart anyway.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.surface.builder import (
    ExactEvaluator,
    INTERP_ERROR_FLOOR,
    SurfaceBuilder,
    SweepSpec,
)
from repro.surface.grid import bilinear_interpolate
from repro.surface.surface import YieldSurface
from repro.units import ensure_probability

#: Absolute log-space slack on every served bound, matching the 2D serving
#: layer's allowance for float noise in the probed residuals.
FLOAT_SLACK_LOG = 1e-9

#: Interior fractions of each eta interval probed for interpolation error.
ETA_PROBE_FRACTIONS = (0.25, 0.5, 0.75)


class EtaQuery(NamedTuple):
    """Served log failure values along the eta axis with error bounds.

    ``exact`` marks the per-point queries answered by the exact evaluator
    (off the eta range or off the 2D grid) — their bound is float slack
    only, since nothing was interpolated.
    """

    log_failure: np.ndarray
    error_log: np.ndarray
    exact: np.ndarray


def _interpolate_surface(
    surface: YieldSurface, widths: np.ndarray, densities: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(log p, error bound) of one node surface at in-grid query points.

    Mirrors the serving layer's bound: probed cell residual plus float
    slack.  The family builds closed-form surfaces only, so the
    statistical channel is identically zero and does not contribute.
    """
    log_p, i, j = bilinear_interpolate(
        surface.width_nm,
        surface.cnt_density_per_um,
        surface.log_failure,
        widths,
        densities,
    )
    return np.minimum(log_p, 0.0), surface.interp_error_log[i, j] + FLOAT_SLACK_LOG


class EtaSurfaceFamily:
    """One yield surface per ``eta`` node, served with eta interpolation.

    Build with :meth:`build`; query with :meth:`query`.  The family holds
    the spec's scenario, pitch, per-CNT failure, correlation and — via the
    spec's ``metallic_fraction`` — the growth chemistry; ``removal_eta``
    is the swept axis.
    """

    def __init__(
        self,
        spec: SweepSpec,
        removal_etas: Sequence[float],
        surfaces: Sequence[YieldSurface],
        eta_interp_error_log: Sequence[float],
    ) -> None:
        etas = [ensure_probability(float(e), "removal_eta") for e in removal_etas]
        if len(etas) != len(set(etas)) or etas != sorted(etas):
            raise ValueError("removal_etas must be strictly increasing")
        if not etas:
            raise ValueError("removal_etas must not be empty")
        if len(surfaces) != len(etas):
            raise ValueError("one surface per eta node required")
        if len(eta_interp_error_log) != max(len(etas) - 1, 0):
            raise ValueError("one eta error term per eta interval required")
        self.spec = spec
        self.removal_etas = etas
        self.surfaces = list(surfaces)
        self.eta_interp_error_log = [float(e) for e in eta_interp_error_log]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        spec: SweepSpec,
        removal_etas: Sequence[float],
        eta_probe_fractions: Sequence[float] = ETA_PROBE_FRACTIONS,
    ) -> "EtaSurfaceFamily":
        """Sweep one surface per eta node and probe the eta-axis error.

        ``spec.removal_eta`` is ignored (each node substitutes its own);
        everything else — including ``metallic_fraction`` — carries over
        verbatim into every node's sweep.
        """
        if spec.resolved_method != "closed_form":
            raise ValueError(
                "EtaSurfaceFamily requires the closed-form method: its "
                "probe comparisons are against exact values, and the "
                "tilted sampler has no joint opens+shorts counterpart"
            )
        etas = sorted({ensure_probability(float(e), "removal_eta")
                       for e in removal_etas})
        if not etas:
            raise ValueError("removal_etas must not be empty")
        for fraction in eta_probe_fractions:
            if not 0.0 < float(fraction) < 1.0:
                raise ValueError("eta probe fractions must lie strictly in (0, 1)")

        surfaces = [
            SurfaceBuilder(dataclasses.replace(spec, removal_eta=eta)).build()
            for eta in etas
        ]

        w_mesh, d_mesh = np.meshgrid(
            spec.width_axis.values, spec.density_axis.values, indexing="ij"
        )
        w_flat, d_flat = w_mesh.ravel(), d_mesh.ravel()

        errors: List[float] = []
        for k in range(len(etas) - 1):
            lo_vals, _ = _interpolate_surface(surfaces[k], w_flat, d_flat)
            hi_vals, _ = _interpolate_surface(surfaces[k + 1], w_flat, d_flat)
            worst = INTERP_ERROR_FLOOR
            for fraction in eta_probe_fractions:
                t = float(fraction)
                eta_probe = etas[k] + t * (etas[k + 1] - etas[k])
                exact, _ = cls._evaluator_for(spec, eta_probe).points(
                    w_flat, d_flat
                )
                fused = (1.0 - t) * lo_vals + t * hi_vals
                residual = np.abs(fused - exact)
                worst = max(worst, float(np.max(residual)))
            errors.append(spec.safety_factor * worst)

        return cls(spec, etas, surfaces, errors)

    @staticmethod
    def _evaluator_for(spec: SweepSpec, eta: float) -> ExactEvaluator:
        """Exact joint evaluator at one eta (probing and fallback path).

        Built per query: evaluation is one array call, and the evaluator's
        short probability depends on every bit of ``eta``, so nothing is
        worth keeping between queries.
        """
        return ExactEvaluator(
            scenario=spec.scenario,
            pitch=spec.pitch,
            per_cnt_failure=spec.per_cnt_failure,
            correlation=spec.correlation,
            method="closed_form",
            mc_samples=spec.mc_samples,
            seed=spec.seed,
            short_probability=spec.metallic_fraction * (1.0 - eta),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(
        self,
        width_nm: np.ndarray,
        cnt_density_per_um: np.ndarray,
        removal_eta: float,
    ) -> EtaQuery:
        """Serve ``log p`` at (W, density) points for one ``removal_eta``.

        On-node etas serve that node's surface alone; interior etas fuse
        the bracketing surfaces and add the interval's probed error term;
        etas outside the swept range — and any point off the 2D grid —
        are answered exactly.
        """
        eta = ensure_probability(float(removal_eta), "removal_eta")
        widths = np.asarray(width_nm, dtype=float)
        densities = np.asarray(cnt_density_per_um, dtype=float)
        if widths.shape != densities.shape:
            raise ValueError("width and density query arrays must match in shape")
        w_flat, d_flat = widths.ravel(), densities.ravel()

        if eta < self.removal_etas[0] or eta > self.removal_etas[-1]:
            values, errors, exact = self._query_exact(w_flat, d_flat, eta)
        else:
            values, errors, exact = self._query_interpolated(w_flat, d_flat, eta)
        return EtaQuery(
            log_failure=values.reshape(widths.shape),
            error_log=errors.reshape(widths.shape),
            exact=exact.reshape(widths.shape),
        )

    def _query_exact(
        self, w_flat: np.ndarray, d_flat: np.ndarray, eta: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        values, _ = self._evaluator_for(self.spec, eta).points(w_flat, d_flat)
        errors = np.full(w_flat.shape, FLOAT_SLACK_LOG)
        return values, errors, np.ones(w_flat.shape, dtype=bool)

    def _query_interpolated(
        self, w_flat: np.ndarray, d_flat: np.ndarray, eta: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        hi_idx = int(np.searchsorted(self.removal_etas, eta, side="left"))
        if self.removal_etas[hi_idx] == eta:
            surface = self.surfaces[hi_idx]
            values, errors = _interpolate_surface(surface, w_flat, d_flat)
            in_grid = surface.covers(w_flat, d_flat)
        else:
            lo_idx = hi_idx - 1
            e_lo, e_hi = self.removal_etas[lo_idx], self.removal_etas[hi_idx]
            t = (eta - e_lo) / (e_hi - e_lo)
            lo_vals, lo_errs = _interpolate_surface(
                self.surfaces[lo_idx], w_flat, d_flat
            )
            hi_vals, hi_errs = _interpolate_surface(
                self.surfaces[hi_idx], w_flat, d_flat
            )
            values = np.minimum((1.0 - t) * lo_vals + t * hi_vals, 0.0)
            errors = (
                np.maximum(lo_errs, hi_errs)
                + self.eta_interp_error_log[lo_idx]
                + FLOAT_SLACK_LOG
            )
            in_grid = self.surfaces[lo_idx].covers(
                w_flat, d_flat
            ) & self.surfaces[hi_idx].covers(w_flat, d_flat)

        exact = ~in_grid
        if exact.any():
            off_vals, _ = self._evaluator_for(self.spec, eta).points(
                w_flat[exact], d_flat[exact]
            )
            values = values.copy()
            errors = errors.copy()
            values[exact] = off_vals
            errors[exact] = FLOAT_SLACK_LOG
        return values, errors, exact

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """Flat summary row (reporting / CLI / JSON friendly)."""
        return {
            "scenario": self.spec.scenario,
            "metallic_fraction": float(self.spec.metallic_fraction),
            "removal_etas": [float(e) for e in self.removal_etas],
            "n_surfaces": len(self.surfaces),
            "eta_interp_error_log": list(self.eta_interp_error_log),
            "surface_keys": [s.key for s in self.surfaces],
        }
