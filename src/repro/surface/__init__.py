"""Precomputed yield-surface artifacts — the serving tier's data plane.

Downstream co-optimization loops ask the same question millions of times:
given a correlation scenario, a device width W, a CNT density and a device
count M, what is the chip yield?  Re-running even the closed forms (let
alone the Monte Carlo engines) per query is orders of magnitude too slow
for that loop, so this package precomputes the answer:

* :mod:`repro.surface.grid` — sweep axes, midpoint refinement and the raw
  bilinear kernel.
* :mod:`repro.surface.builder` — sweeps the Eq. 2.2/3.1 closed forms (or
  the tilted importance sampler where no closed form exists) over
  structured (scenario, W, density) grids, probing and refining until the
  interpolation error bound meets tolerance.
* :mod:`repro.surface.surface` — the versioned, content-hashed, disk-
  persisted :class:`YieldSurface` artifact and its :class:`SurfaceStore`.

The metallic-short knobs of :class:`SweepSpec` (``metallic_fraction``,
``removal_eta``) fix one short probability per surface: each removal
efficiency gets its own surface.

The batched query layer on top lives in :mod:`repro.serving`.
"""

from repro.surface.grid import GridAxis, bilinear_interpolate
from repro.surface.surface import (
    LOG_FLOOR,
    SCENARIO_DEVICE,
    SURFACE_FORMAT_VERSION,
    SurfaceStore,
    YieldSurface,
)
from repro.surface.builder import (
    ALL_SCENARIOS,
    BuildReport,
    ExactEvaluator,
    SurfaceBuilder,
    SweepSpec,
    density_to_mean_pitch_nm,
    pitch_descriptor,
    pitch_from_descriptor,
)

__all__ = [
    "GridAxis",
    "bilinear_interpolate",
    "YieldSurface",
    "SurfaceStore",
    "SCENARIO_DEVICE",
    "SURFACE_FORMAT_VERSION",
    "LOG_FLOOR",
    "ALL_SCENARIOS",
    "BuildReport",
    "ExactEvaluator",
    "SurfaceBuilder",
    "SweepSpec",
    "density_to_mean_pitch_nm",
    "pitch_descriptor",
    "pitch_from_descriptor",
]
