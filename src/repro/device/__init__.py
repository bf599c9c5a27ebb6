"""CNFET device substrate.

Models of a single carbon-nanotube FET as needed by the yield analysis:

* :mod:`repro.device.active_region` — the rectangular active region that
  defines which CNTs a device captures.
* :mod:`repro.device.cnfet` — the CNFET device object combining an active
  region with a captured CNT population.
* :mod:`repro.device.current` — per-tube and per-device on-current model
  (diameter dependence, series contribution of parallel tubes).
* :mod:`repro.device.variation` — drive-current variation and the
  statistical-averaging (1/sqrt(N)) behaviour the paper builds on.
* :mod:`repro.device.capacitance` — gate-capacitance model used by the
  upsizing-penalty metric (penalty ∝ total transistor width increase).
* :mod:`repro.device.shorts` — the metallic-CNT short failure mode and
  the joint opens+shorts closed form (thinning of the count renewal
  process), the Eq. 2.2 extension for imperfect metallic removal.
"""

from repro.device.active_region import ActiveRegion, Polarity
from repro.device.cnfet import CNFET, CNFETFailure
from repro.device.current import CNTCurrentModel, device_on_current
from repro.device.variation import DriveCurrentVariationModel, VariationSummary
from repro.device.capacitance import GateCapacitanceModel
from repro.device.shorts import (
    ShortsModel,
    joint_failure_probability,
    short_only_failure_probability,
    surviving_short_probability,
)

__all__ = [
    "ActiveRegion",
    "Polarity",
    "CNFET",
    "CNFETFailure",
    "CNTCurrentModel",
    "device_on_current",
    "DriveCurrentVariationModel",
    "VariationSummary",
    "GateCapacitanceModel",
    "ShortsModel",
    "surviving_short_probability",
    "joint_failure_probability",
    "short_only_failure_probability",
]
