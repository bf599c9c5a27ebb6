"""CNT growth substrate.

This package models the stochastic outcome of carbon-nanotube growth as seen
by circuit-level analysis:

* :mod:`repro.growth.cnt` — CNT and CNT-track value objects (position, type,
  diameter, length).
* :mod:`repro.growth.pitch` — inter-CNT pitch distributions (gamma,
  truncated normal, exponential, deterministic) with renewal-theory helpers.
* :mod:`repro.growth.types` — metallic / semiconducting type model and the
  per-CNT failure probability of Eq. 2.1.
* :mod:`repro.growth.removal` — the m-CNT removal (VMR-style) processing
  step, including inadvertent s-CNT removal.
* :mod:`repro.growth.directional` — directional ("aligned") growth that
  produces long parallel CNT tracks shared between devices, the physical
  source of the correlation exploited by the paper.
* :mod:`repro.growth.isotropic` — uncorrelated growth where every device
  samples its own CNT population.
* :mod:`repro.growth.density` — CNT density statistics and density-variation
  summaries.
* :mod:`repro.growth.spatial` — spatially correlated Gaussian-random-field
  variation over the wafer plane (FFT circulant-embedding sampling,
  spawn-keyed reproducibility).
* :mod:`repro.growth.wafer` — wafer-level die-to-die variation of the growth
  statistics (density drift, correlated density/misalignment fields and
  growth-direction misalignment).
"""

from repro.growth.cnt import CNT, CNTType, CNTTrack
from repro.growth.pitch import (
    PitchDistribution,
    DeterministicPitch,
    ExponentialPitch,
    GammaPitch,
    ThinnedPitch,
    TruncatedNormalPitch,
    pitch_distribution_from_cv,
)
from repro.growth.types import CNTTypeModel, per_cnt_failure_probability
from repro.growth.removal import RemovalProcess
from repro.growth.directional import DirectionalGrowthModel, GrownRegion
from repro.growth.isotropic import IsotropicGrowthModel
from repro.growth.density import DensityStatistics, density_from_pitch
from repro.growth.spatial import GaussianRandomField, SpatialFieldSpec, sample_field
from repro.growth.wafer import DieSite, WaferGrowthModel, WaferMap

__all__ = [
    "CNT",
    "CNTType",
    "CNTTrack",
    "PitchDistribution",
    "DeterministicPitch",
    "ExponentialPitch",
    "GammaPitch",
    "ThinnedPitch",
    "TruncatedNormalPitch",
    "pitch_distribution_from_cv",
    "CNTTypeModel",
    "per_cnt_failure_probability",
    "RemovalProcess",
    "DirectionalGrowthModel",
    "GrownRegion",
    "IsotropicGrowthModel",
    "DensityStatistics",
    "density_from_pitch",
    "GaussianRandomField",
    "SpatialFieldSpec",
    "sample_field",
    "DieSite",
    "WaferGrowthModel",
    "WaferMap",
]
