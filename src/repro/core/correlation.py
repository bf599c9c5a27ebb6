"""Row-based yield under directional CNT growth — Eq. 3.1 / 3.2 and Table 1.

Under directional growth, CNFETs laid out on the same CNT tracks within one
CNT length share their tubes, so their failures are strongly correlated.
The paper partitions the Mmin small devices into KR rows: devices in
different rows are independent, devices in the same row are correlated.  The
chip yield becomes

``Yield = Π_i (1 - pRF_i) ≈ 1 - KR · pRF``        (Eq. 3.1)

with pRF the average row failure probability.  Three layout scenarios are
compared (Table 1):

* **Uncorrelated growth** — every device is independent, so
  ``pRF = 1 - (1 - pF)^MRmin ≈ MRmin · pF``.
* **Directional growth, non-aligned layout** — devices in a row overlap
  partially in the CNT direction; pRF lies between the two extremes.  The
  paper evaluates this case numerically; here it is a closed form of pF
  (an offset-cluster or shared-fraction model), and
  :mod:`repro.montecarlo.row_sim` simulates it directly.
* **Directional growth, aligned-active layout** — every device in the row
  covers exactly the same tracks, so a row fails exactly when one device
  fails: ``pRF = pF``.

The ratio between the first and last case, ``MRmin = LCNT · Pmin-CNFET``
(Eq. 3.2), is the paper's headline ≈350X relaxation of the device-level
failure-probability requirement.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.constants import (
    DEFAULT_CNT_LENGTH_UM,
    DEFAULT_MIN_CNFET_DENSITY_PER_UM,
)
from repro.units import (
    ensure_positive,
    ensure_probability,
    per_um_to_per_nm,
    um_to_nm,
)


class LayoutScenario(enum.Enum):
    """The three growth/layout combinations compared in Table 1."""

    UNCORRELATED_GROWTH = "uncorrelated"
    DIRECTIONAL_NON_ALIGNED = "directional_non_aligned"
    DIRECTIONAL_ALIGNED = "directional_aligned"


@dataclass(frozen=True)
class CorrelationParameters:
    """Physical and design parameters controlling the correlation benefit.

    Parameters
    ----------
    cnt_length_um:
        CNT length LCNT along the growth direction (paper: 200 µm).
    min_cnfet_density_per_um:
        Average linear density Pmin-CNFET of small-width CNFETs along a
        placement row (paper: 1.8 FETs/µm for the OpenRISC design).
    unaligned_offset_groups:
        Model of the *non-aligned* directional scenario (an unmodified cell
        library on directional growth): the critical devices of a row fall
        into this many distinct (width, y-offset) classes; devices of the
        same class already cover the same CNT tracks and fail together,
        devices of different classes are independent.  The default of 13
        matches the y-offset diversity the paper observes in the unmodified
        Nangate library (its Table 1 attributes a 13X residual gain to the
        aligned-active restriction on top of the 26.5X that directional
        growth alone provides).  Set to ``None`` to fall back to the
        shared-fraction model controlled by ``alignment_fraction``.
    alignment_fraction:
        Alternative model of the non-aligned scenario (used only when
        ``unaligned_offset_groups`` is ``None``): the fraction of each
        device's CNT tracks shared row-wide.  1.0 reproduces the aligned
        case, 0.0 the uncorrelated case.
    aligned_region_groups:
        Number of distinct aligned active-region groups per polarity.  The
        paper's baseline uses one; allowing two eliminates the cell-area
        penalty at the cost of halving the correlation benefit (Sec. 3.3).
    """

    cnt_length_um: float = DEFAULT_CNT_LENGTH_UM
    min_cnfet_density_per_um: float = DEFAULT_MIN_CNFET_DENSITY_PER_UM
    unaligned_offset_groups: Optional[float] = 13.0
    alignment_fraction: float = 0.5
    aligned_region_groups: int = 1

    def __post_init__(self) -> None:
        ensure_positive(self.cnt_length_um, "cnt_length_um")
        ensure_positive(self.min_cnfet_density_per_um, "min_cnfet_density_per_um")
        ensure_probability(self.alignment_fraction, "alignment_fraction")
        if self.unaligned_offset_groups is not None:
            ensure_positive(self.unaligned_offset_groups, "unaligned_offset_groups")
        if self.aligned_region_groups < 1:
            raise ValueError("aligned_region_groups must be at least 1")

    @property
    def cnt_length_nm(self) -> float:
        """LCNT in nanometres."""
        return um_to_nm(self.cnt_length_um)

    @property
    def min_cnfet_density_per_nm(self) -> float:
        """Pmin-CNFET in FETs per nanometre."""
        return per_um_to_per_nm(self.min_cnfet_density_per_um)

    @property
    def devices_per_row(self) -> float:
        """MRmin = LCNT · Pmin-CNFET (Eq. 3.2), per aligned-region group.

        With ``aligned_region_groups > 1`` the small devices are split across
        that many independent track groups, which divides the number of
        devices sharing any one group — and hence the correlation benefit —
        by the same factor.  The value is clamped at 1: a correlation segment
        always contains at least the device whose failure is being analysed,
        so sharing can never make things worse than full independence.
        """
        full = self.cnt_length_nm * self.min_cnfet_density_per_nm
        return max(full / self.aligned_region_groups, 1.0)


@dataclass(frozen=True)
class RowYieldResult:
    """Row-level and chip-level yield figures for one layout scenario."""

    scenario: LayoutScenario
    device_failure_probability: float
    row_failure_probability: float
    devices_per_row: float
    row_count: float
    chip_yield: float

    @property
    def chip_failure_probability(self) -> float:
        """1 - chip yield."""
        return 1.0 - self.chip_yield


@dataclass(frozen=True)
class RowYieldEstimate:
    """Chip yield propagated from a *sampled* row failure probability.

    The rare-event samplers return pRF with a standard error; pushing both
    through Eq. 3.1 (``Yield = (1 - pRF)^KR``) with the delta method gives
    the chip yield and its uncertainty, so sampled tails can be compared
    against closed forms within their reported error.
    """

    scenario: LayoutScenario
    row_failure_probability: float
    row_failure_probability_se: float
    row_count: float
    chip_yield: float
    chip_yield_se: float

    @property
    def loss_relative_error(self) -> float:
        """Chip-yield standard error relative to the yield loss."""
        loss = 1.0 - self.chip_yield
        if loss == 0:
            return float("nan")
        return self.chip_yield_se / loss


class RowYieldModel:
    """Chip yield under the three growth/layout scenarios of Table 1.

    Every scenario is a closed form of the device failure probability pF
    and the row geometry alone.

    Parameters
    ----------
    parameters:
        Correlation parameters (LCNT, Pmin-CNFET, non-aligned model).
    """

    def __init__(self, parameters: Optional[CorrelationParameters] = None) -> None:
        self.parameters = parameters or CorrelationParameters()

    # ------------------------------------------------------------------
    # Row failure probability per scenario
    # ------------------------------------------------------------------

    def row_failure_probability(
        self, scenario: LayoutScenario, device_failure_probability: float
    ) -> float:
        """pRF for a given scenario."""
        p_f = ensure_probability(
            device_failure_probability, "device_failure_probability"
        )
        m_r = self.parameters.devices_per_row

        if scenario is LayoutScenario.UNCORRELATED_GROWTH:
            # Independent devices: row survives only if all survive.  Use
            # expm1/log1p so that tiny pF values do not lose precision to the
            # 1 - (1 - pF)^m cancellation.
            return -math.expm1(m_r * math.log1p(-p_f))

        if scenario is LayoutScenario.DIRECTIONAL_ALIGNED:
            # Perfect sharing: the row fails iff the shared device fails.
            return p_f

        if scenario is LayoutScenario.DIRECTIONAL_NON_ALIGNED:
            return self._non_aligned_row_failure(p_f, m_r)

        raise ValueError(f"unknown scenario {scenario!r}")

    # ------------------------------------------------------------------
    # Non-aligned directional growth
    # ------------------------------------------------------------------

    def _non_aligned_row_failure(
        self, device_failure_probability: float, devices_per_row: float
    ) -> float:
        """Row failure probability for directional growth without aligned cells.

        Two interchangeable closed-form models are provided; both lie between
        the aligned and uncorrelated extremes.

        **Offset-cluster model (default).**  In an unmodified library the
        critical devices still fall into a modest number of distinct
        (width, y-offset) classes — identical cells placed in the same row
        put their small devices on exactly the same tracks even without any
        explicit restriction.  Devices of the same class fail together,
        classes are independent, so with ``G = unaligned_offset_groups``
        effective classes per row,

        ``pRF = 1 - (1 - pF)^min(G, MRmin)``.

        The paper evaluates this case numerically; its Table 1 corresponds to
        G ≈ 13 (the residual gain it attributes to the aligned-active step).

        **Shared-fraction model** (``unaligned_offset_groups=None``).  Each
        device's tubes split into a row-wide shared core (fraction
        ``alignment_fraction`` of its width) and a private remainder;
        conditioning on the shared core gives
        ``pRF = pF^frac · (1 - (1 - pF^(1-frac))^MRmin)``.

        The Monte Carlo validator in :mod:`repro.montecarlo.row_sim`
        evaluates the same scenario by direct simulation.
        """
        p_f = device_failure_probability
        if p_f == 0.0:
            return 0.0
        groups = self.parameters.unaligned_offset_groups
        if groups is not None:
            effective = min(max(float(groups), 1.0), max(devices_per_row, 1.0))
            return -math.expm1(effective * math.log1p(-p_f))

        frac = self.parameters.alignment_fraction
        if frac >= 1.0:
            return p_f
        if frac <= 0.0:
            return -math.expm1(devices_per_row * math.log1p(-p_f))

        shared_fail = p_f ** frac
        private_fail = p_f ** (1.0 - frac)
        n_dev = max(devices_per_row, 1.0)
        if private_fail >= 1.0:
            row_fail_given_core_fail = 1.0
        else:
            row_fail_given_core_fail = -math.expm1(n_dev * math.log1p(-private_fail))
        return shared_fail * row_fail_given_core_fail

    # ------------------------------------------------------------------
    # Chip-level evaluation
    # ------------------------------------------------------------------

    def evaluate(
        self,
        scenario: LayoutScenario,
        device_failure_probability: float,
        min_size_device_count: float,
    ) -> RowYieldResult:
        """Full row/chip yield evaluation for one scenario (one Table 1 column)."""
        ensure_positive(min_size_device_count, "min_size_device_count")
        m_r = self.parameters.devices_per_row
        k_r = min_size_device_count / m_r
        p_rf = self.row_failure_probability(scenario, device_failure_probability)
        if p_rf >= 1.0:
            chip = 0.0
        else:
            chip = math.exp(k_r * math.log1p(-p_rf))
        return RowYieldResult(
            scenario=scenario,
            device_failure_probability=device_failure_probability,
            row_failure_probability=p_rf,
            devices_per_row=m_r,
            row_count=k_r,
            chip_yield=chip,
        )

    def evaluate_estimate(
        self,
        scenario: LayoutScenario,
        row_failure_probability: float,
        row_failure_probability_se: float,
        min_size_device_count: float,
    ) -> RowYieldEstimate:
        """Chip yield (Eq. 3.1) from a *sampled* row failure probability.

        The Monte Carlo counterpart of :meth:`evaluate`: instead of deriving
        pRF from a device pF analytically, take a sampled pRF (for example a
        rare-event tail estimate from
        :mod:`repro.montecarlo.rare_event`) together with its standard
        error and propagate both through ``Yield = (1 - pRF)^KR`` via the
        delta method (``dY/dpRF = -KR (1 - pRF)^(KR-1)``).
        """
        p_rf = ensure_probability(
            row_failure_probability, "row_failure_probability"
        )
        if row_failure_probability_se < 0:
            raise ValueError("row_failure_probability_se must be non-negative")
        ensure_positive(min_size_device_count, "min_size_device_count")
        k_r = min_size_device_count / self.parameters.devices_per_row
        if p_rf >= 1.0:
            chip, slope = 0.0, 0.0
        else:
            chip = math.exp(k_r * math.log1p(-p_rf))
            slope = k_r * math.exp((k_r - 1.0) * math.log1p(-p_rf))
        return RowYieldEstimate(
            scenario=scenario,
            row_failure_probability=p_rf,
            row_failure_probability_se=float(row_failure_probability_se),
            row_count=k_r,
            chip_yield=chip,
            chip_yield_se=slope * float(row_failure_probability_se),
        )

    def relaxation_factor(self, device_failure_probability: float) -> float:
        """Ratio pRF(uncorrelated) / pRF(aligned) — the paper's ≈350X."""
        uncorrelated = self.row_failure_probability(
            LayoutScenario.UNCORRELATED_GROWTH, device_failure_probability
        )
        aligned = self.row_failure_probability(
            LayoutScenario.DIRECTIONAL_ALIGNED, device_failure_probability
        )
        if aligned == 0.0:
            return math.inf
        return uncorrelated / aligned


def scenario_row_failure_probabilities(
    scenario: LayoutScenario,
    device_failure_probabilities: np.ndarray,
    parameters: Optional[CorrelationParameters] = None,
) -> np.ndarray:
    """Vectorised pRF over an array of device pF values.

    The closed forms of :meth:`RowYieldModel.row_failure_probability`
    evaluated elementwise in one pass — the yield-surface sweeps map whole
    pF grids through the Table 1 scenarios with this hook instead of a
    Python loop.  Matches the scalar path to floating-point accuracy.

    The maps encode only *which devices share tracks*, not why a device
    fails, so the metallic-short failure mode of :mod:`repro.device.shorts`
    composes exactly: pass the joint opens+shorts device probability.
    """
    params = parameters or CorrelationParameters()
    p = np.asarray(device_failure_probabilities, dtype=float)
    if p.size and (np.any(p < 0) | np.any(p > 1)):
        raise ValueError("device failure probabilities must lie in [0, 1]")
    m_r = params.devices_per_row

    if scenario is LayoutScenario.DIRECTIONAL_ALIGNED:
        return p.copy()
    if scenario is LayoutScenario.UNCORRELATED_GROWTH:
        # p == 1 passes log1p(-1) = -inf through expm1; the 1.0 limit is
        # exact, so the divide warning is noise.
        with np.errstate(divide="ignore"):
            return -np.expm1(m_r * np.log1p(-p))
    if scenario is LayoutScenario.DIRECTIONAL_NON_ALIGNED:
        groups = params.unaligned_offset_groups
        if groups is not None:
            effective = min(max(float(groups), 1.0), max(m_r, 1.0))
            with np.errstate(divide="ignore"):
                return -np.expm1(effective * np.log1p(-p))
        frac = params.alignment_fraction
        if frac >= 1.0:
            return p.copy()
        if frac <= 0.0:
            with np.errstate(divide="ignore"):
                return -np.expm1(m_r * np.log1p(-p))
        n_dev = max(m_r, 1.0)
        with np.errstate(divide="ignore"):
            shared_fail = np.where(p > 0.0, p ** frac, 0.0)
            private_fail = np.where(p > 0.0, p ** (1.0 - frac), 0.0)
        row_given_core = np.where(
            private_fail >= 1.0, 1.0, -np.expm1(n_dev * np.log1p(-private_fail))
        )
        return shared_fail * row_given_core
    raise ValueError(f"unknown scenario {scenario!r}")


def propagate_row_failure_se(
    scenario: LayoutScenario,
    device_failure_probabilities: np.ndarray,
    device_failure_se: np.ndarray,
    parameters: Optional[CorrelationParameters] = None,
) -> np.ndarray:
    """Delta-method pRF standard errors from sampled device pF errors.

    ``SE(pRF) = |dpRF/dpF| · SE(pF)``, with the derivative taken as a
    central difference of :func:`scenario_row_failure_probabilities` on a
    relative step — exact enough for error *bounds* while staying correct
    for every scenario model (offset-cluster and shared-fraction alike).
    This is how Monte Carlo-built yield surfaces carry the rare-event
    sampler's :class:`~repro.core.circuit_yield.YieldEstimate`-style
    uncertainties through Eq. 3.1.
    """
    params = parameters or CorrelationParameters()
    p = np.asarray(device_failure_probabilities, dtype=float)
    se = np.asarray(device_failure_se, dtype=float)
    if se.shape != p.shape:
        raise ValueError("device_failure_se must match probabilities in shape")
    if se.size and np.any(se < 0):
        raise ValueError("standard errors must be non-negative")
    step = np.maximum(1e-6 * p, 1e-300)
    lo = np.clip(p - step, 0.0, 1.0)
    hi = np.clip(p + step, 0.0, 1.0)
    f_lo = scenario_row_failure_probabilities(scenario, lo, params)
    f_hi = scenario_row_failure_probabilities(scenario, hi, params)
    span = hi - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(span > 0.0, (f_hi - f_lo) / span, 0.0)
    return np.abs(slope) * se


def relaxation_factor(
    cnt_length_um: float = DEFAULT_CNT_LENGTH_UM,
    min_cnfet_density_per_um: float = DEFAULT_MIN_CNFET_DENSITY_PER_UM,
    aligned_region_groups: int = 1,
    device_failure_probability: float = 1e-8,
) -> float:
    """Headline relaxation factor from (LCNT, Pmin-CNFET).

    In the small-pF limit this reduces to MRmin = LCNT · Pmin-CNFET
    (Eq. 3.2); the exact value accounts for the higher-order terms of
    ``1 - (1 - pF)^MRmin``.  With the paper's LCNT = 200 µm and
    Pmin-CNFET = 1.8 FETs/µm it is ≈ 360, matching the ≈350X the paper
    reports (the small difference comes from the non-aligned intermediate
    rounding the paper applies).
    """
    params = CorrelationParameters(
        cnt_length_um=cnt_length_um,
        min_cnfet_density_per_um=min_cnfet_density_per_um,
        aligned_region_groups=aligned_region_groups,
    )
    model = RowYieldModel(parameters=params)
    return model.relaxation_factor(device_failure_probability)
