"""Per-tube and per-device on-current model.

The yield analysis of the paper only needs the *count* of working CNTs, but
the prior work it builds on (statistical averaging of drive current,
σ(Ion)/µ(Ion) ∝ 1/√N) and the variation/delay extensions in
:mod:`repro.analysis` need a simple drive-current model.  We use a compact
first-order model:

* each semiconducting tube contributes an on-current that grows with its
  diameter (smaller band gap → higher current) and with the drive voltage,
* tubes conduct in parallel, so the device current is the sum of per-tube
  currents,
* metallic tubes that escaped removal contribute a gate-independent leakage
  path (used by the noise-margin extension, not by Ion).

The absolute scale is calibrated to a nominal value per tube; every consumer
of this model works with ratios, so the absolute calibration never affects
the reproduced results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.growth.cnt import CNT
from repro.units import ensure_positive

#: Smallest tube diameter (nm) the sampled diameters are clipped to.
MIN_TUBE_DIAMETER_NM = 0.5


@dataclass(frozen=True)
class CNTCurrentModel:
    """First-order per-tube current model.

    Parameters
    ----------
    nominal_on_current_ua:
        On-current (µA) of a semiconducting tube at the reference diameter
        and drive voltage.
    reference_diameter_nm:
        Diameter at which the nominal current is defined.
    diameter_exponent:
        Sensitivity of the per-tube current to diameter;
        ``I ∝ (d / d_ref) ** diameter_exponent``.
    metallic_current_ua:
        Current carried by a surviving metallic tube (gate independent).
    vdd:
        Supply voltage; on-current is assumed proportional to
        ``(vdd - vt) / (vdd_ref - vt)`` through a linear overdrive factor.
    threshold_voltage:
        Device threshold voltage used for the overdrive factor.
    reference_vdd:
        Supply at which the nominal current is defined.
    """

    nominal_on_current_ua: float = 20.0
    reference_diameter_nm: float = 1.5
    diameter_exponent: float = 1.0
    metallic_current_ua: float = 40.0
    vdd: float = 0.9
    threshold_voltage: float = 0.3
    reference_vdd: float = 0.9

    def __post_init__(self) -> None:
        ensure_positive(self.nominal_on_current_ua, "nominal_on_current_ua")
        ensure_positive(self.reference_diameter_nm, "reference_diameter_nm")
        ensure_positive(self.reference_vdd, "reference_vdd")
        if self.vdd <= self.threshold_voltage:
            raise ValueError(
                "vdd must exceed the threshold voltage for the device to turn on: "
                f"vdd={self.vdd}, vt={self.threshold_voltage}"
            )

    # ------------------------------------------------------------------
    # Per-tube currents
    # ------------------------------------------------------------------

    @property
    def _overdrive_factor(self) -> float:
        return (self.vdd - self.threshold_voltage) / (
            self.reference_vdd - self.threshold_voltage
        )

    def semiconducting_on_current_ua(self, diameter_nm: float) -> float:
        """On-current (µA) of a single semiconducting tube of given diameter."""
        ensure_positive(diameter_nm, "diameter_nm")
        diameter_factor = (diameter_nm / self.reference_diameter_nm) ** self.diameter_exponent
        return self.nominal_on_current_ua * diameter_factor * self._overdrive_factor

    def tube_on_currents_ua(
        self, diameters_nm: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Vectorised :meth:`semiconducting_on_current_ua` over an array.

        ``out`` may be ``diameters_nm`` itself (converted in place).  The
        operations are those of the scalar formula in the same order; only
        NumPy's ``power`` may round differently from Python's, so elements
        equal the scalar values bitwise at the default exponent 1.
        """
        currents = np.divide(diameters_nm, self.reference_diameter_nm, out=out)
        currents **= self.diameter_exponent
        currents *= self.nominal_on_current_ua
        currents *= self._overdrive_factor
        return currents

    def metallic_leakage_ua(self) -> float:
        """Gate-independent current (µA) of a surviving metallic tube."""
        return self.metallic_current_ua

    # ------------------------------------------------------------------
    # Device-level aggregation
    # ------------------------------------------------------------------

    def device_on_current_ua(self, cnts: Iterable[CNT]) -> float:
        """Total on-current of a device given its captured tube population.

        Only semiconducting, non-removed tubes contribute; surviving metallic
        tubes also conduct when the device is on, so they are included, which
        matches how measured Ion would look.
        """
        total = 0.0
        for cnt in cnts:
            if cnt.removed:
                continue
            if cnt.cnt_type.is_semiconducting:
                total += self.semiconducting_on_current_ua(cnt.diameter_nm)
            else:
                total += self.metallic_leakage_ua()
        return total

    def device_off_current_ua(self, cnts: Iterable[CNT]) -> float:
        """Off-state current — only surviving metallic tubes conduct."""
        return sum(
            self.metallic_leakage_ua()
            for cnt in cnts
            if (not cnt.removed) and cnt.cnt_type.is_metallic
        )

    def sample_on_current_ua(
        self,
        working_count: int,
        rng: np.random.Generator,
        diameter_mean_nm: float = 1.5,
        diameter_std_nm: float = 0.2,
    ) -> float:
        """Sample a device on-current from a working-tube count.

        Diameters are drawn independently per tube from a normal
        distribution clipped at 0.5 nm (a censored normal: draws below the
        boundary are set to it), which is the mechanism that makes
        σ(Ion)/µ(Ion) fall off as 1/√N.
        """
        if working_count < 0:
            raise ValueError(f"working_count must be non-negative, got {working_count}")
        if working_count == 0:
            return 0.0
        diameters = rng.normal(diameter_mean_nm, diameter_std_nm, size=working_count)
        diameters = np.clip(diameters, MIN_TUBE_DIAMETER_NM, None)
        currents = [self.semiconducting_on_current_ua(float(d)) for d in diameters]
        return float(np.sum(currents))

    def on_currents_from_counts(
        self,
        working_counts: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        diameter_mean_nm: float = 1.5,
        diameter_std_nm: float = 0.2,
    ) -> np.ndarray:
        """Device on-currents (µA) for an externally sampled count vector.

        Vectorised batch companion of :meth:`sample_on_current_ua`: one flat
        clipped-normal diameter draw covers every tube of every device, and
        a ``repeat``/``bincount`` pass sums the per-tube currents back into
        per-device totals — exact, and deterministic given the generator
        state.  Devices with zero working tubes get a current of 0.

        Parameters
        ----------
        working_counts:
            Integer array (any shape) of working-tube counts per device.
        rng:
            Diameter sampling stream.  ``None`` skips sampling entirely and
            gives every tube the nominal ``diameter_mean_nm`` (the
            deterministic mean-diameter current).
        diameter_mean_nm, diameter_std_nm:
            Tube diameter statistics of the normal draw, clipped at 0.5 nm
            (censored, matching :meth:`sample_on_current_ua`).

        Returns
        -------
        numpy.ndarray
            Float array of device currents, same shape as ``working_counts``.
        """
        counts = np.asarray(working_counts)
        if np.any(counts < 0):
            raise ValueError("working_counts must be non-negative")
        flat = counts.reshape(-1).astype(np.int64)
        if rng is None:
            per_device = flat * self.semiconducting_on_current_ua(
                float(ensure_positive(diameter_mean_nm, "diameter_mean_nm"))
            )
            return per_device.astype(float).reshape(counts.shape)
        total = int(flat.sum())
        if total == 0:
            return np.zeros(counts.shape, dtype=float)
        diameters = rng.normal(diameter_mean_nm, diameter_std_nm, size=total)
        diameters = np.clip(diameters, MIN_TUBE_DIAMETER_NM, None)
        per_tube = self.tube_on_currents_ua(diameters, out=diameters)
        device_index = np.repeat(np.arange(flat.size), flat)
        sums = np.bincount(device_index, weights=per_tube, minlength=flat.size)
        return sums.reshape(counts.shape)


def device_on_current(
    working_count: int, per_tube_current_ua: float = 20.0
) -> float:
    """Idealised device on-current: ``working_count`` identical parallel tubes."""
    if working_count < 0:
        raise ValueError(f"working_count must be non-negative, got {working_count}")
    ensure_positive(per_tube_current_ua, "per_tube_current_ua")
    return working_count * per_tube_current_ua
