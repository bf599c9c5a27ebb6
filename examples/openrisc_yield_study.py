#!/usr/bin/env python3
"""OpenRISC-style yield study on a concrete synthetic netlist.

This example exercises the full substrate stack rather than the statistical
shortcut:

1. build the synthetic Nangate-45-like standard-cell library,
2. generate the OpenRISC-like gate-level netlist and size it with the
   load-driven sizing pass,
3. place it into 200 µm rows and extract the small-CNFET density
   Pmin-CNFET (the design half of Eq. 3.2),
4. sweep the device failure-probability curve (Fig. 2.1) into a yield
   surface and answer every width query — the curve, the design's whole
   width histogram, before and after upsizing — through the batched
   serving layer,
5. feed the measured placement density into the correlation model and
   report the design-specific relaxation factor.

Run with::

    python examples/openrisc_yield_study.py
"""

import numpy as np

from repro.cells.nangate45 import build_nangate45_library
from repro.core.calibration import CalibratedSetup
from repro.core.circuit_yield import chip_yield_from_failure_probabilities
from repro.core.correlation import CorrelationParameters, LayoutScenario, RowYieldModel
from repro.core.upsizing import UpsizingAnalysis, upsize_widths
from repro.growth.pitch import pitch_distribution_from_cv
from repro.netlist.openrisc import build_openrisc_like_design
from repro.netlist.placement import RowPlacement
from repro.reporting.ascii_plot import ascii_line_plot
from repro.serving import YieldService
from repro.surface import GridAxis, SurfaceBuilder, SweepSpec


def main(scale: float = 0.5) -> None:
    setup = CalibratedSetup()
    library = build_nangate45_library()

    print("Building the synthetic OpenRISC-like core ...")
    design = build_openrisc_like_design(library, scale=scale, seed=2010)
    print(f"  instances   : {design.instance_count}")
    print(f"  transistors : {design.transistor_count}")

    histogram = design.width_histogram(bin_width_nm=80.0)
    print("\nTransistor width histogram (Fig. 2.2a analogue):")
    for center, fraction in zip(histogram.bin_centers_nm, histogram.fractions):
        print(f"  {center:5.0f} nm : {100.0 * fraction:5.1f} %")

    print("\nPlacing into 200 um rows ...")
    placement = RowPlacement(design, row_width_nm=200_000.0, utilisation_target=0.85)
    stats = placement.statistics(small_width_threshold_nm=160.0)
    print(f"  rows                 : {stats.row_count}")
    print(f"  mean row utilisation : {stats.mean_utilisation:.2f}")
    print(f"  small CNFET density  : {stats.small_density_per_um:.2f} FETs/um "
          f"(paper: 1.8 FETs/um)")

    # Sweep the device failure surface once; every pF(W) below is a batched
    # query against it instead of a per-point Eq. 2.2 evaluation.
    wmin = setup.wmin_uncorrelated_nm()
    statistical = design.to_statistical(scaled_to=setup.chip_transistor_count)
    w_high = max(float(np.max(statistical.widths_nm)), wmin) + 50.0
    surface = SurfaceBuilder(SweepSpec(
        width_axis=GridAxis.from_range("width_nm", 20.0, w_high, 33),
        density_axis=GridAxis.from_range(
            "cnt_density_per_um", 200.0, 300.0, 5
        ),
        pitch=pitch_distribution_from_cv(setup.mean_pitch_nm, setup.pitch_cv),
        per_cnt_failure=setup.corner.per_cnt_failure_probability,
        correlation=setup.correlation,
    )).build()
    service = YieldService()
    key = service.register(surface)

    def device_pf(widths_nm):
        return service.query(key, np.asarray(widths_nm, dtype=float))

    widths = np.arange(20.0, 181.0, 4.0)
    curve = device_pf(widths).failure_probability
    print("\nDevice failure probability vs width (Fig. 2.1, worst corner, "
          "served from the yield surface):")
    print(ascii_line_plot(widths, curve, log_y=True, height=12,
                          x_label="W (nm)", y_label="pF"))

    # Chip-level yield of the concrete core, scaled to a full chip: the
    # whole width histogram is answered in one batched query.
    before = device_pf(statistical.widths_nm)
    yield_before = chip_yield_from_failure_probabilities(
        before.failure_probability, counts=statistical.counts
    )
    upsized = upsize_widths(statistical.widths_nm, wmin)
    after = device_pf(upsized)
    yield_after = chip_yield_from_failure_probabilities(
        after.failure_probability, counts=statistical.counts
    )
    penalty = UpsizingAnalysis(
        statistical.widths_nm, statistical.counts
    ).capacitance_penalty(wmin)
    print(f"\nChip yield before upsizing          : {yield_before:.3%}")
    print(f"Chip yield after upsizing to {wmin:5.1f} nm: {yield_after:.3%}")
    print(f"Gate-capacitance penalty             : {100.0 * penalty:.1f} %")
    print(f"Surface queries served               : {service.queries_served}")

    # Plug the measured placement density into the correlation model.
    params = CorrelationParameters(
        cnt_length_um=200.0,
        min_cnfet_density_per_um=stats.small_density_per_um,
    )
    row_model = RowYieldModel(parameters=params)
    relaxation = row_model.relaxation_factor(setup.required_pf())
    wmin_relaxed = setup.wmin_solver.solve_simplified(
        setup.min_size_device_count, relaxation_factor=relaxation
    ).wmin_nm
    penalty_relaxed = UpsizingAnalysis(
        statistical.widths_nm, statistical.counts
    ).capacitance_penalty(wmin_relaxed)
    print(f"\nDesign-specific relaxation factor    : {relaxation:.0f}X")
    print(f"Wmin with correlation + aligned cells: {wmin_relaxed:.1f} nm")
    print(f"Residual penalty                     : {100.0 * penalty_relaxed:.1f} %")

    aligned = row_model.evaluate(
        LayoutScenario.DIRECTIONAL_ALIGNED,
        device_pf([wmin_relaxed]).failure_probability[0],
        setup.min_size_device_count,
    )
    print(f"Chip yield with aligned-active cells : {aligned.chip_yield:.3%}")


if __name__ == "__main__":
    main()
