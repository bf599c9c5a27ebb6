#!/usr/bin/env python3
"""Monte Carlo validation of the analytical yield models.

The paper's results rest on two closed-form layers: the device failure
probability (Eq. 2.2) and the row-based correlated yield model
(Eq. 3.1 / 3.2).  This example validates both against direct simulation of
CNT growth, typing, removal and device capture:

* pF(W) from the count-model PGF versus the isotropic growth simulator,
* the three Table 1 scenarios versus the shared-track row simulator,
* the relaxation factor implied by each,
* the chip-level vectorized batch engine versus its per-trial scalar oracle
  (same distribution, orders of magnitude more trials per second).

Run with::

    python examples/montecarlo_validation.py
"""

import time

import numpy as np

from repro.cells.nangate45 import build_nangate45_library
from repro.core.correlation import LayoutScenario
from repro.growth.pitch import ExponentialPitch
from repro.growth.types import CNTTypeModel
from repro.montecarlo.chip_sim import ChipMonteCarlo
from repro.montecarlo.experiments import (
    compare_chip_engines,
    compare_device_failure,
    compare_row_scenarios,
    relaxation_factor_comparison,
)
from repro.netlist.design import Design
from repro.netlist.placement import RowPlacement


def main() -> None:
    print("=== Device failure probability pF(W): analytic vs Monte Carlo ===")
    print("W (nm)      analytic        Monte Carlo     (std. err.)   agree?")
    for width in (24.0, 40.0, 64.0, 96.0):
        record = compare_device_failure(width_nm=width, n_samples=30_000, seed=int(width))
        print(f"{width:6.0f}   {record.analytic:12.4e}   {record.monte_carlo:12.4e}"
              f"   ({record.standard_error:9.1e})   "
              f"{'yes' if record.agrees() else 'NO'}")

    print("\n=== Row failure probability per layout scenario (Eq. 3.1) ===")
    records = compare_row_scenarios(
        device_width_nm=24.0, devices_per_segment=15, n_samples=6_000, seed=5
    )
    for scenario in LayoutScenario:
        record = records[scenario]
        print(f"{scenario.value:28}: analytic {record.analytic:10.3e}   "
              f"MC {record.monte_carlo:10.3e} (+/- {record.standard_error:.1e})")

    print("\n=== Relaxation factor (uncorrelated / aligned) ===")
    ratio = relaxation_factor_comparison(
        device_width_nm=24.0, devices_per_segment=15, n_samples=6_000, seed=7
    )
    print(f"analytic    : {ratio.analytic:6.2f}X")
    print(f"Monte Carlo : {ratio.monte_carlo:6.2f}X (+/- {ratio.standard_error:.2f})")
    print("(the paper's full-scale factor is LCNT x Pmin-CNFET = 360X; this "
          "example uses a deliberately small segment so the Monte Carlo "
          "confidence intervals stay tight)")

    print("\n=== Chip engine: vectorized batch vs per-trial scalar oracle ===")
    library = build_nangate45_library()
    design = Design("validation_block", library)
    for i in range(120):
        design.add(f"u{i}", "INV_X1" if i % 2 == 0 else "NAND2_X1")
    placement = RowPlacement(design, row_width_nm=20_000.0)
    record = compare_chip_engines(
        placement,
        pitch=ExponentialPitch(20.0),
        type_model=CNTTypeModel(1.0 / 3.0, 1.0, 0.3),
        n_trials=30,
        seed=2010,
    )
    print(f"scalar mean failing devices    : {record.analytic:8.2f}")
    print(f"vectorized mean failing devices: {record.monte_carlo:8.2f} "
          f"(+/- {record.standard_error:.2f})")
    print(f"agree within tolerance         : {'yes' if record.agrees() else 'NO'}")

    simulator = ChipMonteCarlo(
        placement,
        pitch=ExponentialPitch(20.0),
        type_model=CNTTypeModel(1.0 / 3.0, 1.0, 0.3),
    )
    start = time.perf_counter()
    simulator.run(500, np.random.default_rng(42))
    elapsed = time.perf_counter() - start
    print(f"vectorized throughput          : {500 / elapsed:8.0f} trials/sec "
          f"({simulator.device_count} devices; pass "
          "execution=Execution(n_workers=4) to run() for multi-core scaling)")


if __name__ == "__main__":
    main()
