"""Calibrated default operating point of the reproduction.

The paper's quantitative anchors at the 45 nm node are:

* the (pm = 33 %, pRs = 30 %) curve of Fig. 2.1 crosses the per-device
  budget (1 - 0.9) / 33e6 ≈ 3e-9 near W ≈ 155 nm, and
* after the ≈350X relaxation it crosses ≈1.1e-6 near W ≈ 103 nm.

With the paper's mean pitch µS = 4 nm these anchors pin down how much CNT
density variation the count model must carry.  A Poisson count model
(exponential pitch, CV = 1) gives

``pF(W) = exp(-(W / 4 nm) · (1 - pf))``, pf = 0.531

which crosses 3e-9 at W ≈ 167 nm and 1.05e-6 at W ≈ 118 nm — within ~10 % of
the paper's widths and with the correct exponential shape and ~1.5X ratio.
This is the default calibration.  The :class:`CalibratedSetup` object bundles
the calibrated count model, processing corner, circuit parameters and
correlation parameters so examples, tests and benchmarks all start from the
same place and record the same assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.constants import (
    DEFAULT_CHIP_TRANSISTOR_COUNT,
    DEFAULT_CNT_LENGTH_UM,
    DEFAULT_MEAN_PITCH_NM,
    DEFAULT_MIN_CNFET_DENSITY_PER_UM,
    DEFAULT_MIN_SIZE_FRACTION,
    DEFAULT_PITCH_CV,
    DEFAULT_YIELD_TARGET,
)
from repro.core.correlation import CorrelationParameters, RowYieldModel
from repro.core.count_model import CountModel, count_model_from_cv
from repro.core.failure import CNFETFailureModel, ProcessingCorner, FIG2_1_CORNERS
from repro.core.wmin import WminSolver
from repro.units import ensure_positive, ensure_probability


@dataclass
class CalibratedSetup:
    """Everything needed to rerun the paper's 45 nm case study.

    Attributes
    ----------
    mean_pitch_nm, pitch_cv:
        Inter-CNT pitch statistics (µS, σS/µS) defining the count model.
    corner:
        Processing corner (pm, pRs) used for the Wmin analysis; defaults to
        the paper's pessimistic pm = 33 %, pRs = 30 %.
    chip_transistor_count:
        Total transistor count M of the case-study chip.
    min_size_fraction:
        Fraction of devices in the minimum-size bins (Mmin / M ≈ 33 %).
    yield_target:
        Desired chip yield.
    correlation:
        LCNT / Pmin-CNFET parameters for the row yield model.
    """

    mean_pitch_nm: float = DEFAULT_MEAN_PITCH_NM
    pitch_cv: float = DEFAULT_PITCH_CV
    corner: ProcessingCorner = field(default_factory=lambda: FIG2_1_CORNERS[0])
    chip_transistor_count: int = DEFAULT_CHIP_TRANSISTOR_COUNT
    min_size_fraction: float = DEFAULT_MIN_SIZE_FRACTION
    yield_target: float = DEFAULT_YIELD_TARGET
    correlation: CorrelationParameters = field(
        default_factory=lambda: CorrelationParameters(
            cnt_length_um=DEFAULT_CNT_LENGTH_UM,
            min_cnfet_density_per_um=DEFAULT_MIN_CNFET_DENSITY_PER_UM,
        )
    )

    def __post_init__(self) -> None:
        ensure_positive(self.mean_pitch_nm, "mean_pitch_nm")
        if self.pitch_cv < 0:
            raise ValueError("pitch_cv must be non-negative")
        ensure_positive(self.chip_transistor_count, "chip_transistor_count")
        ensure_probability(self.min_size_fraction, "min_size_fraction")
        ensure_probability(self.yield_target, "yield_target")
        self._count_model: Optional[CountModel] = None

    # ------------------------------------------------------------------
    # Derived building blocks
    # ------------------------------------------------------------------

    @property
    def min_size_device_count(self) -> float:
        """Mmin — the number of minimum-size devices."""
        return self.chip_transistor_count * self.min_size_fraction

    @property
    def count_model(self) -> CountModel:
        """The calibrated CNT count model (cached)."""
        if self._count_model is None:
            self._count_model = count_model_from_cv(self.mean_pitch_nm, self.pitch_cv)
        return self._count_model

    @property
    def failure_model(self) -> CNFETFailureModel:
        """Device failure model at the configured processing corner."""
        return CNFETFailureModel.from_corner(self.count_model, self.corner)

    def failure_model_for(self, corner: ProcessingCorner) -> CNFETFailureModel:
        """Device failure model for an arbitrary processing corner."""
        return CNFETFailureModel.from_corner(self.count_model, corner)

    @property
    def wmin_solver(self) -> WminSolver:
        """Wmin solver at the configured yield target."""
        return WminSolver(self.failure_model, self.yield_target)

    @property
    def row_yield_model(self) -> RowYieldModel:
        """Row yield model with the configured correlation parameters."""
        return RowYieldModel(parameters=self.correlation)

    # ------------------------------------------------------------------
    # Headline quantities
    # ------------------------------------------------------------------

    def required_pf(self, relaxation_factor: float = 1.0) -> float:
        """Device-level failure budget (1 - Yield)/Mmin, optionally relaxed."""
        return self.wmin_solver.required_pf(
            self.min_size_device_count, relaxation_factor
        )

    def relaxation_factor(self) -> float:
        """Correlation relaxation MRmin-equivalent for this setup (≈350X)."""
        return self.row_yield_model.relaxation_factor(self.required_pf())

    def wmin_uncorrelated_nm(self) -> float:
        """Wmin without any correlation benefit (paper: ≈155 nm)."""
        return self.wmin_solver.solve_simplified(self.min_size_device_count).wmin_nm

    def wmin_correlated_nm(self) -> float:
        """Wmin with directional growth + aligned-active cells (paper: ≈103 nm)."""
        return self.wmin_solver.solve_simplified(
            self.min_size_device_count,
            relaxation_factor=self.relaxation_factor(),
        ).wmin_nm


def default_setup() -> CalibratedSetup:
    """The calibrated 45 nm setup used across examples, tests and benchmarks."""
    return CalibratedSetup()
