"""Noise-margin hazards from surviving metallic CNTs (extension analysis).

CNT count failure is not the only CNT-induced failure mode: a metallic CNT
that escapes removal shorts the CNFET's source and drain, which degrades the
static noise margin of the gate it belongs to.  The paper notes this
(referring to [Zhang 09b]) but argues that noise susceptibility does not
necessarily turn into a logic failure because downstream stages restore the
signal — and therefore restricts its yield model to count failures.

This module quantifies the size of that set-aside hazard so users of the
library can check the assumption for their own process parameters:

* the probability that a CNFET of width W retains at least one (or at least
  ``k``) surviving metallic tubes, as a function of pRm,
* the expected number of hazardous gates on a chip, and the pRm needed to
  keep that number below a target — reproducing the style of requirement
  ("pRm > 99.99 %") the paper quotes from prior work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import stats

from repro.core.count_model import CountModel
from repro.device.shorts import short_only_failure_probability, surviving_short_probability
from repro.growth.types import CNTTypeModel
from repro.units import ensure_positive, ensure_probability


@dataclass(frozen=True)
class NoiseMarginSummary:
    """Chip-level summary of surviving-m-CNT hazards."""

    width_nm: float
    prob_device_has_surviving_mcnt: float
    expected_surviving_mcnt_per_device: float
    expected_hazardous_devices_per_chip: float
    chip_device_count: float


class NoiseMarginModel:
    """Probability model for surviving metallic CNTs in a CNFET.

    Parameters
    ----------
    count_model:
        CNT count distribution Prob{N(W)}.
    type_model:
        CNT type and removal statistics; ``removal_prob_metallic`` (pRm) is
        the key knob here.
    """

    def __init__(self, count_model: CountModel, type_model: CNTTypeModel) -> None:
        self.count_model = count_model
        self.type_model = type_model

    # ------------------------------------------------------------------
    # Device-level probabilities
    # ------------------------------------------------------------------

    @property
    def per_cnt_surviving_metallic_probability(self) -> float:
        """Probability that one grown tube ends up as a surviving m-CNT."""
        return self.type_model.surviving_metallic_probability

    def prob_device_has_surviving_mcnt(self, width_nm: float) -> float:
        """P{device of width W has ≥ 1 surviving metallic tube}.

        Each grown tube independently becomes a surviving m-CNT with
        probability ``q = pm (1 - pRm)``, so

        ``P{≥1} = 1 - E[(1 - q)^N(W)] = 1 - G_N(1 - q)``

        with ``G_N`` the count PGF — the short channel of
        :func:`repro.device.shorts.short_only_failure_probability`, which
        keeps full precision at the tiny ``q`` of good removal.
        """
        ensure_positive(width_nm, "width_nm")
        return self._hazard(width_nm, self.type_model.removal_prob_metallic)

    def _hazard(self, width_nm: float, p_rm: float) -> float:
        """P{≥ 1 surviving m-CNT} at width W for removal probability pRm."""
        q = surviving_short_probability(self.type_model.metallic_fraction, p_rm)
        return short_only_failure_probability(self.count_model, width_nm, q)

    def expected_surviving_mcnt(self, width_nm: float) -> float:
        """Expected number of surviving metallic tubes in one device."""
        ensure_positive(width_nm, "width_nm")
        return self.count_model.mean_count(width_nm) * (
            self.per_cnt_surviving_metallic_probability
        )

    def prob_device_has_at_least(self, width_nm: float, k: int) -> float:
        """P{device has ≥ k surviving metallic tubes} (exact via the pmf)."""
        if k <= 0:
            return 1.0
        q = self.per_cnt_surviving_metallic_probability
        if q == 0.0:
            return 0.0
        pmf = self.count_model.pmf(width_nm)
        # P{Binomial(n, q) >= k} per count n.
        return float(np.sum(pmf * stats.binom.sf(k - 1, np.arange(pmf.size), q)))

    # ------------------------------------------------------------------
    # Chip-level summaries
    # ------------------------------------------------------------------

    def summarise_chip(
        self, width_nm: float, chip_device_count: float
    ) -> NoiseMarginSummary:
        """Expected number of devices on a chip carrying surviving m-CNTs."""
        ensure_positive(chip_device_count, "chip_device_count")
        p_hazard = self.prob_device_has_surviving_mcnt(width_nm)
        return NoiseMarginSummary(
            width_nm=float(width_nm),
            prob_device_has_surviving_mcnt=p_hazard,
            expected_surviving_mcnt_per_device=self.expected_surviving_mcnt(width_nm),
            expected_hazardous_devices_per_chip=p_hazard * chip_device_count,
            chip_device_count=float(chip_device_count),
        )

    def required_removal_probability(
        self,
        width_nm: float,
        chip_device_count: float,
        max_hazardous_devices: float = 1.0,
    ) -> float:
        """Smallest pRm keeping the expected hazardous-device count below a target.

        This reproduces the style of the "> 99.99 %" requirement the paper
        quotes: solve for pRm such that
        ``chip_device_count · P{device has a surviving m-CNT} ≤ target``.
        The solution uses a bisection on pRm because the count PGF is not
        generally invertible in closed form.
        """
        ensure_positive(chip_device_count, "chip_device_count")
        ensure_positive(max_hazardous_devices, "max_hazardous_devices")

        def hazards(p_rm: float) -> float:
            return self._hazard(width_nm, p_rm) * chip_device_count

        if hazards(0.0) <= max_hazardous_devices:
            return 0.0
        low, high = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (low + high)
            if hazards(mid) <= max_hazardous_devices:
                high = mid
            else:
                low = mid
        return high

    def hazard_curve(
        self, width_nm: float, removal_probabilities: Iterable[float]
    ) -> np.ndarray:
        """P{device has ≥1 surviving m-CNT} for each pRm in the given sweep."""
        return np.array([
            self._hazard(width_nm, ensure_probability(p_rm, "p_rm"))
            for p_rm in removal_probabilities
        ])
