"""End-to-end processing/design co-optimization flow.

This module ties the core models together into the flow the paper describes:

1. take a design's transistor-width histogram (and total device count M),
2. compute the unrelaxed Wmin and the upsizing penalty (Sec. 2 baseline),
3. compute the correlation relaxation from the growth (LCNT) and design
   (Pmin-CNFET) parameters (Sec. 3.1),
4. recompute Wmin with the relaxed budget and the residual penalty
   (Sec. 3.3),
5. report everything needed for Table 1, Fig. 2.2b and Fig. 3.3.

The flow operates purely on width statistics, so it can be driven either by
the synthetic OpenRISC design from :mod:`repro.netlist.openrisc` or by any
user-provided histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.constants import TECHNOLOGY_NODES_NM
from repro.core.calibration import CalibratedSetup
from repro.core.correlation import LayoutScenario, RowYieldResult
from repro.core.scaling import ScalingStudy, penalty_versus_node
from repro.core.upsizing import UpsizingAnalysis, UpsizingResult
from repro.core.wmin import WminResult
from repro.units import ensure_positive


@dataclass(frozen=True)
class CoOptimizationReport:
    """Complete result of the co-optimization flow for one design.

    Attributes
    ----------
    baseline_wmin:
        Wmin without correlation (Sec. 2).
    optimized_wmin:
        Wmin with directional growth + aligned-active layout (Sec. 3).
    relaxation_factor:
        Ratio of the two failure-probability budgets (≈350X in the paper).
    scenario_results:
        Row/chip yield per layout scenario, all evaluated at the *baseline*
        Wmin operating point — one shared device pF across the three
        columns, which is the paper's Table 1 convention (and the one
        :func:`repro.reporting.tables.table1_data` and
        :func:`repro.montecarlo.experiments.compare_tail_scenarios` use):
        the table isolates the layout/growth effect on pRF, so the device
        operating point must not change between columns.
    baseline_upsizing, optimized_upsizing:
        Upsizing penalty of the design at the two Wmin values (45 nm node).
    baseline_scaling, optimized_scaling:
        Penalty-versus-node series (the two lines of Fig. 3.3).
    """

    baseline_wmin: WminResult
    optimized_wmin: WminResult
    relaxation_factor: float
    scenario_results: Dict[LayoutScenario, RowYieldResult]
    baseline_upsizing: UpsizingResult
    optimized_upsizing: UpsizingResult
    baseline_scaling: ScalingStudy
    optimized_scaling: ScalingStudy

    @property
    def wmin_reduction_nm(self) -> float:
        """Absolute reduction of the upsizing threshold."""
        return self.baseline_wmin.wmin_nm - self.optimized_wmin.wmin_nm

    @property
    def penalty_reduction(self) -> float:
        """Reduction (fraction of the original total capacitance) in penalty."""
        return (
            self.baseline_upsizing.capacitance_penalty
            - self.optimized_upsizing.capacitance_penalty
        )

    def summary_lines(self) -> Sequence[str]:
        """Human-readable summary used by examples and benchmarks."""
        lines = [
            f"Yield target                : {self.baseline_wmin.yield_target:.2%}",
            f"Mmin (minimum-size devices) : {self.baseline_wmin.min_size_device_count:.3g}",
            f"Required pF (uncorrelated)  : {self.baseline_wmin.required_pf:.3g}",
            f"Required pF (optimized)     : {self.optimized_wmin.required_pf:.3g}",
            f"Relaxation factor           : {self.relaxation_factor:.1f}X",
            f"Wmin without correlation    : {self.baseline_wmin.wmin_nm:.1f} nm",
            f"Wmin with correlation       : {self.optimized_wmin.wmin_nm:.1f} nm",
            (
                "Penalty at 45 nm            : "
                f"{self.baseline_upsizing.penalty_percent:.1f}% -> "
                f"{self.optimized_upsizing.penalty_percent:.1f}%"
            ),
        ]
        for scenario, result in self.scenario_results.items():
            lines.append(
                f"pRF [{scenario.value:<24}] : {result.row_failure_probability:.3g}"
            )
        return lines


class CoOptimizationFlow:
    """Drives the full Sec. 2 + Sec. 3 analysis for one design.

    Parameters
    ----------
    setup:
        Calibrated physical/circuit setup (count model, corner, yield target,
        correlation parameters).
    widths_nm, counts:
        The design's transistor-width histogram at the reference node.
    min_size_device_count:
        Mmin.  If omitted, it is taken from ``setup`` (33 % of M), which
        mirrors the paper's two-smallest-bins estimate.
    """

    def __init__(
        self,
        setup: Optional[CalibratedSetup] = None,
        widths_nm: Optional[Sequence[float]] = None,
        counts: Optional[Sequence[float]] = None,
        min_size_device_count: Optional[float] = None,
    ) -> None:
        self.setup = setup or CalibratedSetup()
        if widths_nm is None:
            raise ValueError("widths_nm is required (the design's width histogram)")
        self.widths_nm = np.asarray(widths_nm, dtype=float)
        if self.widths_nm.size and np.any(self.widths_nm <= 0):
            raise ValueError("all widths must be strictly positive")
        if counts is None:
            self.counts = np.ones_like(self.widths_nm)
        else:
            self.counts = np.asarray(counts, dtype=float)
            if self.counts.shape != self.widths_nm.shape:
                raise ValueError("counts must match widths_nm in shape")
            if self.counts.size and np.any(self.counts < 0):
                raise ValueError("counts must be non-negative")
        if min_size_device_count is None:
            self.min_size_device_count = self.setup.min_size_device_count
        else:
            self.min_size_device_count = ensure_positive(
                min_size_device_count, "min_size_device_count"
            )

    # ------------------------------------------------------------------
    # Flow steps
    # ------------------------------------------------------------------

    def baseline_wmin(self) -> WminResult:
        """Step 2 — Wmin without any correlation benefit."""
        return self.setup.wmin_solver.solve_simplified(self.min_size_device_count)

    def relaxation_factor(self) -> float:
        """Step 3 — the correlation relaxation factor (≈350X)."""
        return self.setup.relaxation_factor()

    def optimized_wmin(self, relaxation_factor: Optional[float] = None) -> WminResult:
        """Step 4 — Wmin with the relaxed failure-probability budget."""
        factor = (
            relaxation_factor if relaxation_factor is not None
            else self.relaxation_factor()
        )
        return self.setup.wmin_solver.solve_simplified(
            self.min_size_device_count, relaxation_factor=factor
        )

    def scenario_results(
        self, wmin_nm: float
    ) -> Dict[LayoutScenario, RowYieldResult]:
        """Table 1 — pRF per scenario at the device pF implied by ``wmin_nm``."""
        p_f = self.setup.failure_model.failure_probability(wmin_nm)
        model = self.setup.row_yield_model
        results = {}
        for scenario in LayoutScenario:
            results[scenario] = model.evaluate(
                scenario, p_f, self.min_size_device_count
            )
        return results

    def run(
        self, nodes_nm: Optional[Sequence[float]] = None
    ) -> CoOptimizationReport:
        """Run the complete flow and return a :class:`CoOptimizationReport`."""
        nodes = list(nodes_nm) if nodes_nm is not None else list(TECHNOLOGY_NODES_NM)
        baseline = self.baseline_wmin()
        factor = self.relaxation_factor()
        optimized = self.optimized_wmin(factor)

        upsizing = UpsizingAnalysis(self.widths_nm, self.counts)
        baseline_upsizing = upsizing.analyse(baseline.wmin_nm)
        optimized_upsizing = upsizing.analyse(optimized.wmin_nm)

        baseline_scaling = penalty_versus_node(
            self.widths_nm, self.counts, baseline.wmin_nm,
            nodes_nm=nodes, label="Without CNT correlation",
        )
        optimized_scaling = penalty_versus_node(
            self.widths_nm, self.counts, optimized.wmin_nm,
            nodes_nm=nodes, label="With CNT correlation and aligned-active cells",
        )

        return CoOptimizationReport(
            baseline_wmin=baseline,
            optimized_wmin=optimized,
            relaxation_factor=factor,
            # Table 1 convention: every scenario column shares the device
            # operating point of the baseline (Sec. 2) Wmin, so the pRF
            # ratios isolate the growth/layout effect.  Evaluating at the
            # optimized Wmin would compare the uncorrelated column at a pF
            # it never operates at (see reporting.tables.table1_data).
            scenario_results=self.scenario_results(baseline.wmin_nm),
            baseline_upsizing=baseline_upsizing,
            optimized_upsizing=optimized_upsizing,
            baseline_scaling=baseline_scaling,
            optimized_scaling=optimized_scaling,
        )
