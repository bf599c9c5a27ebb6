"""Data generators for the paper's tables and a plain-text table renderer."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cells.aligned_active import enforce_aligned_active
from repro.cells.area import area_penalty_report
from repro.cells.commercial65 import build_commercial65_library
from repro.cells.library import CellLibrary
from repro.cells.nangate45 import build_nangate45_library
from repro.core.calibration import CalibratedSetup
from repro.core.correlation import CorrelationParameters, LayoutScenario, RowYieldModel
from repro.core.optimizer import CoOptimizationFlow
from repro.netlist.design import StatisticalDesign
from repro.netlist.openrisc import openrisc_width_histogram


def table1_data(
    setup: Optional[CalibratedSetup] = None,
    design: Optional[StatisticalDesign] = None,
) -> Dict[str, object]:
    """Table 1 — row failure probability pRF for the three growth/layout styles.

    The device-level operating point is the failure probability of a
    minimum-size CNFET upsized to the *baseline* Wmin (the Sec. 2 sizing),
    which is how the paper arrives at pRF values in the 1e-6 / 1e-8 range;
    the three columns then compare

    * completely uncorrelated CNT growth,
    * directional growth with the unmodified (non-aligned) cell library,
    * directional growth with the aligned-active cell library.
    """
    setup = setup or CalibratedSetup()
    design = design or openrisc_width_histogram(setup.chip_transistor_count)
    flow = CoOptimizationFlow(
        setup=setup,
        widths_nm=design.widths_nm,
        counts=design.counts,
        min_size_device_count=design.min_size_device_count,
    )
    baseline = flow.baseline_wmin()
    scenarios = flow.scenario_results(baseline.wmin_nm)

    uncorrelated = scenarios[LayoutScenario.UNCORRELATED_GROWTH]
    directional = scenarios[LayoutScenario.DIRECTIONAL_NON_ALIGNED]
    aligned = scenarios[LayoutScenario.DIRECTIONAL_ALIGNED]
    return {
        "prf_uncorrelated": uncorrelated.row_failure_probability,
        "prf_directional_non_aligned": directional.row_failure_probability,
        "prf_directional_aligned": aligned.row_failure_probability,
        "gain_from_growth": (
            uncorrelated.row_failure_probability
            / directional.row_failure_probability
        ),
        "gain_from_alignment": (
            directional.row_failure_probability
            / aligned.row_failure_probability
        ),
        "total_gain": (
            uncorrelated.row_failure_probability
            / aligned.row_failure_probability
        ),
        "wmin_nm": baseline.wmin_nm,
        "device_pf": uncorrelated.device_failure_probability,
    }


def table2_data(
    setup: Optional[CalibratedSetup] = None,
    nangate_library: Optional[CellLibrary] = None,
    commercial_library: Optional[CellLibrary] = None,
    commercial_min_cnfet_density_per_um: float = 1.5,
) -> List[Dict[str, object]]:
    """Table 2 — area penalty of the aligned-active restriction per library.

    Three columns, as in the paper:

    1. commercial 65 nm library, one aligned active region per polarity,
    2. commercial 65 nm library, two aligned active regions per polarity
       (no area penalty, but the correlation benefit — and hence Wmin — takes
       a hit),
    3. Nangate-like 45 nm library, one aligned active region.

    The 65 nm design is assumed to place its small CNFETs at a slightly lower
    linear density than the 45 nm OpenRISC core (default 1.5 FETs/µm), which
    is why its Wmin comes out a few nanometres larger, mirroring the paper's
    107 nm versus 103 nm.
    """
    setup = setup or CalibratedSetup()
    nangate_library = nangate_library or build_nangate45_library()
    commercial_library = commercial_library or build_commercial65_library()

    rows: List[Dict[str, object]] = []

    # --- 65 nm commercial library -------------------------------------------------
    base_params = setup.correlation
    for groups in (1, 2):
        params = CorrelationParameters(
            cnt_length_um=base_params.cnt_length_um,
            min_cnfet_density_per_um=commercial_min_cnfet_density_per_um,
            alignment_fraction=base_params.alignment_fraction,
            aligned_region_groups=groups,
        )
        row_model = RowYieldModel(parameters=params)
        relaxation = row_model.relaxation_factor(setup.required_pf())
        wmin = setup.wmin_solver.solve_simplified(
            setup.min_size_device_count, relaxation_factor=relaxation
        ).wmin_nm
        result = enforce_aligned_active(
            commercial_library, wmin, aligned_region_groups=groups
        )
        report = area_penalty_report(result)
        rows.append(report.as_table_row())

    # --- 45 nm Nangate-like library ------------------------------------------------
    wmin_45 = setup.wmin_correlated_nm()
    result_45 = enforce_aligned_active(nangate_library, wmin_45, aligned_region_groups=1)
    report_45 = area_penalty_report(result_45)
    rows.append(report_45.as_table_row())

    return rows


def render_table(
    rows: Sequence[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    float_format: str = "{:.3g}",
) -> str:
    """Render a list of row dictionaries as a fixed-width text table."""
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    header = [str(c) for c in columns]
    body = [[fmt(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
        for i in range(len(columns))
    ]
    lines = [
        "  ".join(header[i].ljust(widths[i]) for i in range(len(columns))),
        "  ".join("-" * widths[i] for i in range(len(columns))),
    ]
    for r in body:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


SURFACE_SUMMARY_COLUMNS: Sequence[str] = (
    "scenario", "key", "grid", "width_nm", "density_per_um",
    "max_interp_err", "max_stat_se", "method", "rounds",
)


def surface_summary_rows(surfaces: Sequence[object]) -> List[Dict[str, object]]:
    """Summary rows for a set of yield surfaces (``repro sweep`` output).

    Accepts :class:`~repro.surface.surface.YieldSurface` objects (typed as
    ``object`` to keep the reporting layer import-light) and flattens
    their :meth:`describe` payloads into :func:`render_table`-ready rows.
    """
    rows: List[Dict[str, object]] = []
    for surface in surfaces:
        info = surface.describe()
        w_lo, w_hi = info["width_nm_range"]
        d_lo, d_hi = info["cnt_density_per_um_range"]
        rows.append({
            "scenario": info["scenario"],
            "key": info["key"],
            "grid": f"{info['n_width']}x{info['n_density']}",
            "width_nm": f"{w_lo:g}..{w_hi:g}",
            "density_per_um": f"{d_lo:g}..{d_hi:g}",
            "max_interp_err": info["max_interp_error_log"],
            "max_stat_se": info["max_stat_se_log"],
            "method": info["method"],
            "rounds": info["refinement_rounds"],
        })
    return rows


WAFER_SUMMARY_COLUMNS: Sequence[str] = (
    "zone", "dies", "mean_pitch_nm", "mean_yield", "min_yield", "max_yield",
    "good_dies", "good_fraction",
)


def _radial_zone_rows(result: object, zone_row) -> List[Dict[str, object]]:
    """Shared radial-zone binning of a wafer result's dice.

    Splits the usable radius into four equal zones (the last bin is
    closed at the wafer edge) plus a whole-wafer row, and calls
    ``zone_row(label, mask)`` for each non-empty zone — the single
    binning implementation behind :func:`wafer_summary_rows` and
    :func:`chip_wafer_summary_rows`.
    """
    import numpy as np

    dice = list(result.dice)
    if not dice:
        return []
    radius = np.array([d.radius_mm for d in dice])
    edges = np.linspace(0.0, 0.5 * result.wafer_diameter_mm, 5)
    rows = []
    for i in range(4):
        mask = (radius >= edges[i]) & (
            radius < edges[i + 1] if i < 3 else radius <= edges[i + 1]
        )
        if mask.any():
            rows.append(zone_row(f"r {edges[i]:.0f}-{edges[i + 1]:.0f} mm", mask))
    rows.append(zone_row("wafer", np.ones(len(dice), dtype=bool)))
    return rows


def wafer_summary_rows(result: object) -> List[Dict[str, object]]:
    """Radial summary rows for a wafer Monte Carlo run (``repro wafer``).

    Accepts a :class:`~repro.montecarlo.wafer_sim.WaferYieldResult` (typed
    as ``object`` to keep the reporting layer import-light) and bins its
    dice into four radial zones plus a whole-wafer row — die-to-die growth
    drift makes yield degrade towards the edge, which this table makes
    visible without a 2D plot.
    """
    import numpy as np

    dice = list(result.dice)
    if not dice:
        return []
    yields = np.array([d.chip_yield for d in dice])
    pitches = np.array([d.mean_pitch_nm for d in dice])
    good = yields >= result.good_die_threshold

    def zone_row(label: str, mask: np.ndarray) -> Dict[str, object]:
        return {
            "zone": label,
            "dies": int(mask.sum()),
            "mean_pitch_nm": float(pitches[mask].mean()),
            "mean_yield": float(yields[mask].mean()),
            "min_yield": float(yields[mask].min()),
            "max_yield": float(yields[mask].max()),
            "good_dies": int(good[mask].sum()),
            "good_fraction": float(good[mask].mean()),
        }

    return _radial_zone_rows(result, zone_row)


CHIP_WAFER_SUMMARY_COLUMNS: Sequence[str] = (
    "zone", "dies", "mean_pitch_nm", "mean_direct_yield", "mean_eq23_yield",
    "mean_failing_devices", "good_dies", "good_fraction",
)


def chip_wafer_summary_rows(result: object) -> List[Dict[str, object]]:
    """Radial summary rows for a whole-placement chip-wafer run.

    Accepts a :class:`~repro.montecarlo.wafer_sim.ChipWaferResult` (typed
    as ``object`` to keep the reporting layer import-light).  Alongside
    the direct per-die chip yield it reports the Eq. 2.3
    independent-device product — the gap between the two columns is the
    correlation benefit the paper quantifies, zone by zone.
    """
    import numpy as np

    dice = list(result.dice)
    if not dice:
        return []
    yields = np.array([d.chip_yield for d in dice])
    eq23 = np.array([d.eq23_chip_yield for d in dice])
    failing = np.array([d.mean_failing_devices for d in dice])
    pitches = np.array([d.mean_pitch_nm for d in dice])
    good = yields >= result.good_die_threshold

    def zone_row(label: str, mask: np.ndarray) -> Dict[str, object]:
        return {
            "zone": label,
            "dies": int(mask.sum()),
            "mean_pitch_nm": float(pitches[mask].mean()),
            "mean_direct_yield": float(yields[mask].mean()),
            "mean_eq23_yield": float(eq23[mask].mean()),
            "mean_failing_devices": float(failing[mask].mean()),
            "good_dies": int(good[mask].sum()),
            "good_fraction": float(good[mask].mean()),
        }

    return _radial_zone_rows(result, zone_row)


def wafer_map_lines(
    sites: Sequence[object],
    values: Sequence[float],
    threshold: float = 0.5,
) -> List[str]:
    """Crude text yield map: ``#`` good die, ``.`` failing die.

    ``sites`` is any sequence of objects with ``column`` / ``row``
    attributes (die sites or die estimates), ``values`` the per-site
    quantity tested against ``threshold``.  Rows are rendered top-down
    (largest grid row first), mirroring how a wafer map is usually drawn.
    """
    columns = sorted({site.column for site in sites})
    rows = sorted({site.row for site in sites})
    by_pos = {(s.column, s.row): v for s, v in zip(sites, values)}
    lines = []
    for row in reversed(rows):
        cells = []
        for column in columns:
            value = by_pos.get((column, row))
            if value is None:
                cells.append(" ")
            else:
                cells.append("#" if value >= threshold else ".")
        lines.append("".join(cells))
    return lines
