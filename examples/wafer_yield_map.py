#!/usr/bin/env python3
"""Wafer-level what-if study: die-to-die growth variation and yield maps.

Goes one level above the paper's chip-scale analysis: every die on a wafer
gets its own CNT density (drifting towards the edge, with spatially
correlated 2-D structure from :mod:`repro.growth.spatial`) and
growth-direction misalignment (correlated the same way), and the
chip-level yield model is evaluated per die for three sizing strategies:

* no upsizing at all,
* upsizing to the uncorrelated Wmin (Sec. 2 baseline),
* upsizing to the correlation-relaxed Wmin with aligned-active cells,
  de-rated per die by the local misalignment angle.

Two engines drive the per-die numbers:

* the *stacked wafer Monte Carlo runner*
  (:func:`repro.montecarlo.wafer_sim.simulate_wafer`) simulates every
  die's CNT growth directly — one die × trial × track pass answers all
  sizing widths from the same sampled tracks — and prints a radial yield
  summary for a measurable compute-tile workload;
* the precomputed yield-surface serving layer answers the deep-tail
  full-chip strategies (pF ~ 1e-9, beyond direct per-die sampling) as one
  batched :class:`~repro.serving.YieldService` query over every die's
  local density.

The output is the Monte Carlo radial table plus a text yield map and
good-die counts per strategy.

Run with::

    python examples/wafer_yield_map.py
"""

import numpy as np

from repro.analysis.mispositioned import MisalignmentImpactModel
from repro.core.calibration import CalibratedSetup
from repro.core.circuit_yield import yield_from_uniform_failure_probability_array
from repro.growth.pitch import pitch_distribution_from_cv
from repro.growth.spatial import SpatialFieldSpec
from repro.growth.wafer import WaferGrowthModel
from repro.montecarlo.wafer_sim import simulate_wafer
from repro.reporting.tables import (
    WAFER_SUMMARY_COLUMNS,
    render_table,
    wafer_map_lines,
    wafer_summary_rows,
)
from repro.serving import YieldService
from repro.surface import GridAxis, SurfaceBuilder, SweepSpec


def strategy_yields(service, key, width_nm, densities, device_count,
                    relaxations=None):
    """Per-die chip yields for one sizing strategy — one batched query.

    ``relaxations`` optionally divides each die's device pF by its local
    correlation benefit before the Eq. 2.3 product, mirroring the relaxed
    per-device budget of Sec. 3.
    """
    result = service.query(
        key,
        np.full(densities.shape, width_nm),
        cnt_density_per_um=densities,
        device_count=1.0,
    )
    p_f = result.failure_probability
    if relaxations is not None:
        p_f = p_f / np.asarray(relaxations)
    p_f = np.minimum(p_f, 1.0 - 1e-12)
    return yield_from_uniform_failure_probability_array(p_f, device_count)


def render_map(wafer, values, threshold=0.5):
    """Render a crude text map: '#' good die, '.' failing die."""
    return "\n".join(wafer_map_lines(wafer.sites, values, threshold=threshold))


def monte_carlo_tile_study(wafer, setup, n_trials: int = 2_048,
                           misalignment=None) -> None:
    """Direct stacked Monte Carlo over the wafer for a measurable workload.

    Simulates a 10k-minimum-size-device compute tile per die at two sizing
    widths under the pessimistic processing corner — a regime where
    per-die failures are frequent enough for direct sampling — and prints
    the radial yield table.  Both widths are answered from the *same*
    sampled tracks of each trial (they physically share them), which is
    what makes whole-wafer Monte Carlo affordable.  When a
    ``misalignment`` model is given, the Sec. 3 analytic relaxation is
    applied per die inside the die-group pass, de-rated by each die's local
    misalignment angle.
    """
    pitch = pitch_distribution_from_cv(setup.mean_pitch_nm, setup.pitch_cv)
    result = simulate_wafer(
        wafer,
        pitch,
        setup.corner.to_type_model(),
        widths_nm=[80.0, 120.0],
        device_counts=[5_000.0, 5_000.0],
        n_trials=n_trials,
        seed_key=(20100616,),
        misalignment=misalignment,
    )
    print(f"--- stacked Monte Carlo: 10k-device tile per die, "
          f"{result.n_trials} trials/die")
    print(render_table(wafer_summary_rows(result),
                       columns=WAFER_SUMMARY_COLUMNS))
    print(f"    expected good dice: {result.expected_good_dice:.1f}"
          f"/{result.die_count}\n")


def main(die_size_mm: float = 10.0, misalignment_samples: int = 2_000,
         mc_trials: int = 2_048) -> None:
    setup = CalibratedSetup()
    # Spatially correlated density and misalignment structure (PR 5):
    # neighbouring dies see correlated CNT densities and drift the same
    # way, which is what makes the edge zones fail *together* rather
    # than as independent coin flips.
    wafer = WaferGrowthModel(
        wafer_diameter_mm=100.0,
        die_size_mm=die_size_mm,
        center_pitch_nm=setup.mean_pitch_nm,
        edge_pitch_drift=0.12,
        center_misalignment_deg=0.02,
        edge_misalignment_deg=0.3,
        density_field=SpatialFieldSpec(sigma=0.02, correlation_length_mm=25.0),
        misalignment_field=SpatialFieldSpec(sigma=1.0, correlation_length_mm=30.0),
    ).generate(seed_key=(7,))

    wmin_baseline = setup.wmin_uncorrelated_nm()
    wmin_optimised = setup.wmin_correlated_nm()
    nominal_relaxation = setup.relaxation_factor()
    misalignment_model = MisalignmentImpactModel(
        band_width_nm=wmin_optimised,
        cnt_length_um=setup.correlation.cnt_length_um,
        min_cnfet_density_per_um=setup.correlation.min_cnfet_density_per_um,
    )

    # One sweep serves every die and strategy: densities bracket the wafer's
    # edge drift and noise, widths bracket all three sizing strategies.
    densities = np.array([1000.0 / site.mean_pitch_nm for site in wafer.sites])
    surface = SurfaceBuilder(SweepSpec(
        width_axis=GridAxis.from_range(
            "width_nm", 60.0, max(wmin_baseline, wmin_optimised) + 50.0, 17
        ),
        density_axis=GridAxis.from_range(
            "cnt_density_per_um",
            0.9 * float(densities.min()), 1.1 * float(densities.max()), 9,
        ),
        pitch=pitch_distribution_from_cv(setup.mean_pitch_nm, setup.pitch_cv),
        per_cnt_failure=setup.corner.per_cnt_failure_probability,
        correlation=setup.correlation,
    )).build()
    service = YieldService()
    key = service.register(surface)
    m_min = setup.min_size_device_count

    strategies = {}
    strategies["no upsizing (80 nm devices)"] = strategy_yields(
        service, key, 80.0, densities, m_min
    )
    strategies[f"upsized to baseline Wmin ({wmin_baseline:.0f} nm)"] = (
        strategy_yields(service, key, wmin_baseline, densities, m_min)
    )
    local_relaxations = np.array([
        misalignment_model.evaluate(
            abs(site.misalignment_deg), n_samples=misalignment_samples
        ).effective_relaxation
        for site in wafer.sites
    ])
    strategies[
        f"aligned-active at Wmin {wmin_optimised:.0f} nm (local misalignment de-rate)"
    ] = strategy_yields(
        service, key, wmin_optimised, densities, m_min,
        relaxations=local_relaxations,
    )

    print(f"Wafer: {wafer.die_count} dies, {wafer.wafer_diameter_mm:.0f} mm, "
          f"{wafer.die_size_mm:.0f} mm dies "
          f"(density field l = "
          f"{wafer.density_field.spec.correlation_length_mm:.0f} mm)")
    monte_carlo_tile_study(wafer, setup, n_trials=mc_trials,
                           misalignment=misalignment_model)
    print(f"Nominal relaxation factor: {nominal_relaxation:.0f}X")
    print(f"Yield surface: {surface.key} "
          f"({surface.width_nm.size}x{surface.cnt_density_per_um.size} grid, "
          f"{service.queries_served} die-queries served)\n")
    for label, values in strategies.items():
        good = int(np.sum(values >= 0.5))
        print(f"--- {label}")
        print(f"    good dies: {good}/{wafer.die_count} "
              f"(mean yield {np.mean(values):.2%})")
        print(render_map(wafer, values))
        print()


if __name__ == "__main__":
    main()
