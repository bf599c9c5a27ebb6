"""Monte Carlo validation of the analytical yield models.

The analytical layer (Sec. 2 and Sec. 3 of the paper) rests on closed-form
or semi-numerical expressions.  This package validates them by simulating
fabrication outcomes directly:

* :mod:`repro.montecarlo.engine` — the vectorized batched engine: all
  trials' CNT tracks from one 2D gap draw + ``cumsum``, all device windows
  answered by one batched ``searchsorted``/prefix-sum pass, deterministic
  trial chunking with ``spawn_key``-derived RNG streams, executed by the
  supervised runner of :mod:`repro.resilience.supervise` (in-process or
  on a process pool).
* :mod:`repro.montecarlo.device_sim` — per-device failure probability pF(W)
  estimated by sampling CNT counts and per-tube outcomes; validates Eq. 2.2.
* :mod:`repro.montecarlo.row_sim` — full placement rows under the three
  growth/layout scenarios of Table 1, with CNT tracks shared between aligned
  devices; validates Eq. 3.1 / 3.2 and the ≈350X relaxation.
* :mod:`repro.montecarlo.chip_sim` — full-chip simulation of a placed design
  (tracks shared by devices in the same row), used to compare the original
  and aligned-active libraries end to end.
* :mod:`repro.montecarlo.rare_event` — rare-event layer: exponentially
  tilted importance sampling with stopped likelihood-ratio weights and an
  adaptive multilevel-splitting fallback; reaches the paper's 1e8-device,
  1e-9-failure-probability operating point directly.
* :mod:`repro.montecarlo.wafer_sim` — wafer tier: every die of a
  :class:`~repro.growth.wafer.WaferMap` simulated in stacked
  (die × trial × track) passes with spawn-keyed per-die streams,
  analytic misalignment de-rating, and whole-placement per-die chip runs
  (:func:`~repro.montecarlo.wafer_sim.run_chip_wafer`).
* :mod:`repro.montecarlo.experiments` — packaged experiments comparing
  analytic and Monte Carlo numbers, used by tests and benchmarks.
"""

from repro.montecarlo.device_sim import DeviceMonteCarlo, DeviceMCResult
from repro.montecarlo.engine import (
    TrackBatch,
    count_in_windows,
    count_in_windows_flat,
    sample_track_batch,
    sample_track_counts,
)
from repro.montecarlo.rare_event import (
    SplittingResult,
    WeightedEstimate,
    default_tilt_factor,
    estimate_device_failure_grid,
    estimate_device_failure_tilted,
    max_stable_tilt,
    multilevel_splitting,
    weighted_estimate,
)
from repro.montecarlo.row_sim import RowMonteCarlo, RowMCResult, RowScenarioConfig
from repro.montecarlo.chip_sim import (
    ChipMonteCarlo,
    ChipMCResult,
    ChipTailResult,
    compare_libraries,
)
from repro.montecarlo.wafer_sim import (
    ChipDieYield,
    ChipWaferResult,
    DieYieldEstimate,
    WaferYieldResult,
    chip_per_die_loop,
    per_die_loop,
    run_chip_wafer,
    simulate_die,
    simulate_wafer,
)
from repro.montecarlo.experiments import (
    compare_chip_engines,
    compare_device_failure,
    compare_row_scenarios,
    compare_tail_scenarios,
    ComparisonRecord,
)

__all__ = [
    "DeviceMonteCarlo",
    "DeviceMCResult",
    "TrackBatch",
    "count_in_windows",
    "count_in_windows_flat",
    "sample_track_batch",
    "sample_track_counts",
    "WeightedEstimate",
    "weighted_estimate",
    "default_tilt_factor",
    "max_stable_tilt",
    "estimate_device_failure_tilted",
    "estimate_device_failure_grid",
    "multilevel_splitting",
    "SplittingResult",
    "RowMonteCarlo",
    "RowMCResult",
    "RowScenarioConfig",
    "ChipMonteCarlo",
    "ChipMCResult",
    "ChipTailResult",
    "compare_libraries",
    "DieYieldEstimate",
    "WaferYieldResult",
    "ChipDieYield",
    "ChipWaferResult",
    "simulate_die",
    "simulate_wafer",
    "per_die_loop",
    "run_chip_wafer",
    "chip_per_die_loop",
    "compare_chip_engines",
    "compare_device_failure",
    "compare_row_scenarios",
    "compare_tail_scenarios",
    "ComparisonRecord",
]
