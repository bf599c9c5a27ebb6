"""Command-line interface for the reproduction.

Exposes the main analyses as sub-commands so the library can be driven
without writing Python:

``python -m repro.cli wmin``
    The Sec. 2 / Sec. 3 Wmin analysis (baseline, relaxation, optimised).

``python -m repro.cli co-opt``
    Joint process/design co-optimization: a Pareto yield-vs-cost search
    over CNT density, pitch family, correlation length, misalignment and
    per-width-class selective upsizing, answered through the bounded
    serving tier with dominance pruning, optionally validated end-to-end
    by chip/timing Monte Carlo.

``python -m repro.cli table1``
    Row failure probabilities for the three growth/layout styles.

``python -m repro.cli table2``
    Area-penalty statistics for the two synthetic libraries.

``python -m repro.cli scaling``
    Upsizing penalty versus technology node, with and without correlation.

``python -m repro.cli align``
    Apply the aligned-active restriction to a library and optionally write
    the modified physical/Liberty views to files.

``python -m repro.cli netlist``
    Generate the synthetic OpenRISC-like netlist and write it as a
    structural Verilog-style file.

``python -m repro.cli timing``
    Timing-aware parametric yield: joint functional / critical-path Monte
    Carlo over a design-derived timing graph (or one ingested with
    ``--graph``), reporting functional, timing and combined yield at the
    chosen clock period.

``python -m repro.cli rare-event``
    Importance-sampled device failure probability deep in the tail
    (default pF ≈ 1e-9) with the chip-yield consequence at the configured
    transistor count, compared against the Eq. 2.3 / 3.1 closed forms.

``python -m repro.cli wafer``
    Wafer-level Monte Carlo: per-die chip yield under die-to-die CNT
    density drift — radial, or spatially correlated via
    ``--correlation-length-mm`` — each die simulated on the shared track
    kernel, one column-local search per die, with a radial summary table,
    optional per-die misalignment de-rating, and a text yield map.

``python -m repro.cli chip-wafer``
    Whole-placement per-die chip runs: the synthetic OpenRISC-like block
    yield-mapped across every die of a wafer on one shared placement
    geometry, reporting the direct (correlation-aware) and Eq. 2.3
    (independent-device) yields side by side.

``python -m repro.cli sweep``
    Precompute yield surfaces (device pF and the Table 1 scenarios) over a
    (width, CNT density) grid and persist them to a surface store.

``python -m repro.cli query``
    Answer batched yield queries against a persisted surface through the
    serving layer (interpolation with error bounds, exact fallback).

``python -m repro.cli serve``
    Run the network-facing yield service: the asyncio HTTP/ASGI tier
    over a surface store (batched ``POST /v1/query``, surface
    listing/upload, metrics), optionally scaled across ``--workers``
    processes sharing the port via ``SO_REUSEPORT``.

Every sub-command accepts the calibration knobs that matter (yield target,
pitch CV, CNT length, density) so quick what-if studies need no code, plus
``--json`` for machine-readable output.  The long-running campaign
commands (``wafer``, ``chip-wafer``, ``sweep``) accept
``--checkpoint-dir`` to persist completed work units and ``--resume`` to
continue an interrupted campaign bitwise-identically.

Exit codes: 0 on success; 1 on runtime errors (``error: ...`` on
stderr); 2 on usage errors — both argparse's own and semantic ones such
as invalid flag combinations or unreadable checkpoint/store paths
(one-line ``error: ...`` on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.calibration import CalibratedSetup
from repro.core.correlation import CorrelationParameters
from repro.core.optimizer import CoOptimizationFlow
from repro.netlist.openrisc import openrisc_width_histogram
from repro.resilience import Execution


class CLIUsageError(Exception):
    """A semantic usage error: wrong flag combination or unusable path.

    Raised by handlers for mistakes argparse cannot see (``--resume``
    without ``--checkpoint-dir``, a store path that is not a readable
    directory).  ``main`` maps it to the conventional usage exit code 2
    with a one-line ``error: ...`` message, matching argparse's own
    behaviour.
    """


def _add_execution_options(
    parser: argparse.ArgumentParser, workers: bool = True, checkpoint: bool = True
) -> None:
    """``--workers`` and the checkpoint flags of the campaign commands."""
    if workers:
        parser.add_argument("--workers", type=int, default=1,
                            help="worker processes for the Monte Carlo "
                                 "(results identical)")
    if checkpoint:
        parser.add_argument("--checkpoint-dir", type=str, default=None,
                            help="persist completed work units under this "
                                 "directory so an interrupted campaign can "
                                 "be resumed")
        parser.add_argument("--resume", action="store_true",
                            help="resume from an existing checkpoint in "
                                 "--checkpoint-dir (bitwise identical to an "
                                 "uninterrupted run)")


def _execution(args: argparse.Namespace) -> Execution:
    """The campaign's :class:`Execution`; rejects unusable checkpoint flags."""
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    resume = bool(getattr(args, "resume", False))
    if resume and checkpoint_dir is None:
        raise CLIUsageError("--resume requires --checkpoint-dir")
    if checkpoint_dir is not None:
        path = Path(checkpoint_dir)
        if path.exists() and not path.is_dir():
            raise CLIUsageError(
                f"--checkpoint-dir {checkpoint_dir!r} exists but is not a "
                "directory"
            )
        if resume and not path.exists():
            raise CLIUsageError(
                f"cannot resume: checkpoint dir {checkpoint_dir!r} does not "
                "exist"
            )
    return Execution(
        n_workers=getattr(args, "workers", 1),
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )


def _build_setup(args: argparse.Namespace) -> CalibratedSetup:
    """Construct a CalibratedSetup from the shared CLI options."""
    return CalibratedSetup(
        mean_pitch_nm=args.mean_pitch_nm,
        pitch_cv=args.pitch_cv,
        chip_transistor_count=int(args.transistors),
        min_size_fraction=args.min_size_fraction,
        yield_target=args.yield_target,
        correlation=CorrelationParameters(
            cnt_length_um=args.cnt_length_um,
            min_cnfet_density_per_um=args.cnfet_density,
        ),
    )


def _add_shorts_options(parser: argparse.ArgumentParser) -> None:
    """Metallic-short knobs shared by the simulation and sweep commands."""
    parser.add_argument("--metallic-frac", type=float, default=None,
                        help="metallic CNT fraction p_m (default: the "
                             "calibrated corner's value)")
    parser.add_argument("--removal-eta", type=float, default=1.0,
                        help="conditional metallic-removal probability eta; "
                             "values below 1 leave surviving shorts with "
                             "per-tube probability p_m*(1-eta) (default 1)")


def _shorts_type_model(setup: CalibratedSetup, args: argparse.Namespace):
    """The CNT type model with the CLI's shorts knobs applied.

    Defaults reproduce the pre-shorts behaviour exactly: the corner's
    metallic fraction with perfect removal (eta = 1, no surviving shorts).
    """
    metallic_frac = (
        setup.corner.metallic_fraction
        if args.metallic_frac is None else args.metallic_frac
    )
    if not 0.0 <= metallic_frac <= 1.0:
        raise CLIUsageError("--metallic-frac must lie in [0, 1]")
    if not 0.0 <= args.removal_eta <= 1.0:
        raise CLIUsageError("--removal-eta must lie in [0, 1]")
    from repro.growth.types import CNTTypeModel

    return CNTTypeModel(
        metallic_fraction=metallic_frac,
        removal_prob_metallic=args.removal_eta,
        removal_prob_semiconducting=setup.corner.removal_prob_semiconducting,
    )


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--yield-target", type=float, default=0.90,
                        help="desired chip yield (default 0.90)")
    parser.add_argument("--transistors", type=float, default=1.0e8,
                        help="chip transistor count M (default 1e8)")
    parser.add_argument("--min-size-fraction", type=float, default=0.33,
                        help="fraction of minimum-size devices Mmin/M (default 0.33)")
    parser.add_argument("--mean-pitch-nm", type=float, default=4.0,
                        help="mean inter-CNT pitch in nm (default 4)")
    parser.add_argument("--pitch-cv", type=float, default=1.0,
                        help="inter-CNT pitch coefficient of variation (default 1.0)")
    parser.add_argument("--cnt-length-um", type=float, default=200.0,
                        help="CNT length LCNT in um (default 200)")
    parser.add_argument("--cnfet-density", type=float, default=1.8,
                        help="small-CNFET density Pmin-CNFET in FETs/um (default 1.8)")


def _json_default(value: object) -> object:
    """Make NumPy scalars/arrays JSON-serialisable."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (np.bool_,)):
        return bool(value)
    raise TypeError(f"not JSON-serialisable: {type(value).__name__}")


def _emit(args: argparse.Namespace, payload: Dict[str, object],
          lines: Sequence[str]) -> int:
    """Print either the human-readable lines or the JSON payload."""
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, default=_json_default))
    else:
        for line in lines:
            print(line)
    return 0


def _parse_float_list(text: str, name: str) -> List[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"could not parse {name} {text!r}: {exc}") from None
    if not values:
        raise ValueError(f"{name} must contain at least one value")
    return values


def _cmd_wmin(args: argparse.Namespace) -> int:
    setup = _build_setup(args)
    design = openrisc_width_histogram(setup.chip_transistor_count)
    flow = CoOptimizationFlow(
        setup=setup,
        widths_nm=design.widths_nm,
        counts=design.counts,
        min_size_device_count=design.min_size_device_count,
    )
    report = flow.run()
    payload = {
        "wmin_baseline_nm": report.baseline_wmin.wmin_nm,
        "wmin_optimized_nm": report.optimized_wmin.wmin_nm,
        "relaxation_factor": report.relaxation_factor,
        "required_pf_baseline": report.baseline_wmin.required_pf,
        "required_pf_optimized": report.optimized_wmin.required_pf,
        "capacitance_penalty_baseline": report.baseline_upsizing.capacitance_penalty,
        "capacitance_penalty_optimized": report.optimized_upsizing.capacitance_penalty,
    }
    return _emit(args, payload, report.summary_lines())


def _cmd_coopt(args: argparse.Namespace) -> int:
    from repro.core.coopt import ParetoCoOptimizer, process_grid

    if args.extra_levels < 0:
        raise CLIUsageError("--extra-levels must be non-negative")
    if args.max_combos < 1:
        raise CLIUsageError("--max-combos must be at least 1")
    if args.validate_trials < 0:
        raise CLIUsageError("--validate-trials must be non-negative")
    if args.validate_top < 1:
        raise CLIUsageError("--validate-top must be at least 1")
    setup = _build_setup(args)
    try:
        densities = _parse_float_list(args.densities, "--densities")
        pitch_cvs = (
            _parse_float_list(args.pitch_cvs, "--pitch-cvs")
            if args.pitch_cvs is not None else [setup.pitch_cv]
        )
        lengths = (
            _parse_float_list(args.cnt_lengths_um, "--cnt-lengths-um")
            if args.cnt_lengths_um is not None
            else [setup.correlation.cnt_length_um]
        )
        angles = _parse_float_list(args.misalignment_deg, "--misalignment-deg")
        etas = _parse_float_list(args.removal_eta, "--removal-eta")
    except ValueError as exc:
        raise CLIUsageError(str(exc)) from None
    if any(not 0.0 <= eta <= 1.0 for eta in etas):
        raise CLIUsageError("--removal-eta values must lie in [0, 1]")
    corner = setup.corner
    if args.metallic_frac is not None:
        if not 0.0 <= args.metallic_frac <= 1.0:
            raise CLIUsageError("--metallic-frac must lie in [0, 1]")
        from repro.core.failure import ProcessingCorner

        corner = ProcessingCorner(
            name=f"pm={100.0 * args.metallic_frac:g}%, "
                 f"pRs={100.0 * corner.removal_prob_semiconducting:g}%",
            metallic_fraction=args.metallic_frac,
            removal_prob_semiconducting=corner.removal_prob_semiconducting,
        )

    design = openrisc_width_histogram(setup.chip_transistor_count)
    optimizer = ParetoCoOptimizer(
        setup=setup,
        widths_nm=design.widths_nm,
        counts=design.counts,
        process_points=process_grid(
            densities_per_um=densities,
            pitch_cvs=pitch_cvs,
            corners=(corner,),
            cnt_lengths_um=lengths,
            misalignments_deg=angles,
            removal_etas=etas,
        ),
        extra_levels=args.extra_levels,
        max_combos=args.max_combos,
        seed=args.seed,
    )
    result = optimizer.run(
        validate_trials=args.validate_trials,
        validate_top=args.validate_top,
        t_clk_factor=args.tclk_factor,
        execution=_execution(args),
    )
    payload = {
        "yield_target": result.yield_target,
        "meets_target": result.meets_target,
        "beats_uniform": result.beats_uniform,
        "uniform_wmin_nm": result.uniform_wmin_nm,
        "uniform_penalty": result.uniform_penalty,
        "uniform_baseline_wmin_nm": result.uniform_baseline_wmin_nm,
        "uniform_baseline_penalty": result.uniform_baseline_penalty,
        "candidates_evaluated": result.candidates_evaluated,
        "candidates_pruned": result.candidates_pruned,
        "candidates_escalated": result.candidates_escalated,
        "candidates_feasible": result.candidates_feasible,
        "process_point_count": result.process_point_count,
        "evaluations_per_second": result.evaluations_per_second,
        "surface_build_seconds": result.surface_build_seconds,
        "inner_loop_seconds": result.inner_loop_seconds,
        "front": [point.describe() for point in result.front],
        "best": result.best.describe() if result.best else None,
        "validations": [v.describe() for v in result.validations],
    }
    return _emit(args, payload, result.summary_lines())


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.reporting.tables import table1_data

    setup = _build_setup(args)
    data = table1_data(setup=setup)
    lines = [
        f"device pF at Wmin ({data['wmin_nm']:.1f} nm): {data['device_pf']:.3e}",
        f"pRF uncorrelated growth            : {data['prf_uncorrelated']:.3e}",
        f"pRF directional, non-aligned       : {data['prf_directional_non_aligned']:.3e}",
        f"pRF directional, aligned-active    : {data['prf_directional_aligned']:.3e}",
        f"gain from growth / alignment / all : {data['gain_from_growth']:.1f}X / "
        f"{data['gain_from_alignment']:.1f}X / {data['total_gain']:.1f}X",
    ]
    return _emit(args, dict(data), lines)


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.reporting.tables import render_table, table2_data

    setup = _build_setup(args)
    rows = table2_data(setup=setup)
    table = render_table(rows, columns=[
        "library", "aligned_regions", "num_cells", "cells_with_penalty",
        "cells_with_penalty_pct", "min_penalty_pct", "max_penalty_pct", "wmin_nm",
    ])
    return _emit(args, {"rows": rows}, [table])


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.reporting.figures import fig3_3_data

    setup = _build_setup(args)
    data = fig3_3_data(setup=setup)
    lines = [
        f"Wmin without correlation: {data['wmin_without_nm']:.1f} nm",
        f"Wmin with correlation   : {data['wmin_with_nm']:.1f} nm",
        "node (nm)   penalty without (%)   penalty with (%)",
    ]
    for node, a, b in zip(
        data["nodes_nm"],
        data["penalty_without_correlation_percent"],
        data["penalty_with_correlation_percent"],
    ):
        lines.append(f"{node:9.0f}   {a:19.1f}   {b:16.1f}")
    return _emit(args, dict(data), lines)


def _cmd_align(args: argparse.Namespace) -> int:
    from repro.cells.aligned_active import enforce_aligned_active
    from repro.cells.area import area_penalty_report
    from repro.cells.commercial65 import build_commercial65_library
    from repro.cells.export import export_liberty_view, export_physical_view
    from repro.cells.nangate45 import build_nangate45_library

    setup = _build_setup(args)
    if args.library == "nangate45":
        library = build_nangate45_library()
    else:
        library = build_commercial65_library()
    wmin = (
        args.wmin_nm if args.wmin_nm is not None else setup.wmin_correlated_nm()
    )
    result = enforce_aligned_active(
        library, wmin, aligned_region_groups=args.aligned_regions
    )
    report = area_penalty_report(result)
    payload = {
        "library": report.library_name,
        "wmin_nm": report.wmin_nm,
        "aligned_regions": report.aligned_region_groups,
        "cell_count": report.cell_count,
        "penalised_cell_count": report.penalised_cell_count,
        "penalised_fraction": report.penalised_fraction,
        "min_penalty_percent": report.min_penalty_percent,
        "max_penalty_percent": report.max_penalty_percent,
    }
    lines = [
        f"library                : {report.library_name}",
        f"Wmin                   : {report.wmin_nm:.1f} nm",
        f"aligned regions        : {report.aligned_region_groups}",
        f"cells                  : {report.cell_count}",
        f"cells with penalty     : {report.penalised_cell_count} "
        f"({100.0 * report.penalised_fraction:.1f} %)",
        f"penalty range          : {report.min_penalty_percent:.1f} % .. "
        f"{report.max_penalty_percent:.1f} %",
    ]
    if args.physical_out:
        modified = result.to_library()
        with open(args.physical_out, "w", encoding="utf-8") as handle:
            handle.write(export_physical_view(modified))
        payload["physical_out"] = args.physical_out
        lines.append(f"wrote physical view    : {args.physical_out}")
    if args.liberty_out:
        modified = result.to_library()
        with open(args.liberty_out, "w", encoding="utf-8") as handle:
            handle.write(export_liberty_view(modified))
        payload["liberty_out"] = args.liberty_out
        lines.append(f"wrote liberty view     : {args.liberty_out}")
    return _emit(args, payload, lines)


def _cmd_rare_event(args: argparse.Namespace) -> int:
    from repro.core.circuit_yield import (
        chip_yield_from_failure_estimate,
        yield_from_uniform_failure_probability,
    )
    from repro.core.correlation import LayoutScenario
    from repro.growth.pitch import pitch_distribution_from_cv
    from repro.montecarlo.device_sim import DeviceMonteCarlo
    from repro.montecarlo.rare_event import default_tilt_factor

    setup = _build_setup(args)
    failure_model = setup.failure_model
    if args.width_nm is not None:
        width = args.width_nm
    else:
        width = failure_model.width_for_failure_probability(args.target_pf)
    analytic_pf = failure_model.failure_probability(width)

    pitch = pitch_distribution_from_cv(args.mean_pitch_nm, args.pitch_cv)
    type_model = setup.corner.to_type_model()
    # Resolve the tilt here so the reported factor is exactly the one the
    # estimator consumes (an explicit --tilt-factor wins, even 0-adjacent).
    if args.tilt_factor is not None:
        tilt = args.tilt_factor
    else:
        tilt = default_tilt_factor(
            pitch, width, type_model.per_cnt_failure_probability
        )
    mc = DeviceMonteCarlo(pitch=pitch, type_model=type_model)
    rng = np.random.default_rng(args.seed)
    result = mc.estimate_tilted(width, args.samples, rng, tilt_factor=tilt)

    m_min = setup.min_size_device_count
    sampled = chip_yield_from_failure_estimate(
        result.failure_probability, result.standard_error, m_min
    )
    analytic_yield = yield_from_uniform_failure_probability(
        analytic_pf, m_min, exact=False
    )
    aligned = setup.row_yield_model.evaluate_estimate(
        LayoutScenario.DIRECTIONAL_ALIGNED,
        result.failure_probability,
        result.standard_error,
        m_min,
    )

    payload = {
        "width_nm": width,
        "tilt_factor": tilt,
        "n_samples": args.samples,
        "analytic_pf": analytic_pf,
        "sampled_pf": result.failure_probability,
        "sampled_pf_se": result.standard_error,
        "min_size_device_count": m_min,
        "chip_yield_analytic": analytic_yield,
        "chip_yield_sampled": sampled.yield_value,
        "chip_yield_sampled_se": sampled.standard_error,
        "chip_yield_aligned": aligned.chip_yield,
        "chip_yield_aligned_se": aligned.chip_yield_se,
        "row_count": aligned.row_count,
    }
    lines = [
        f"device width            : {width:.2f} nm (tilt factor {tilt:.3f})",
        f"analytic pF (Eq. 2.2)   : {analytic_pf:.4e}",
        f"sampled pF (tilted IS)  : {result.failure_probability:.4e} "
        f"+- {result.standard_error:.2e} "
        f"({100.0 * result.relative_error:.2f} % rel, "
        f"{args.samples} samples)",
    ]
    if args.pitch_cv != 1.0:
        lines.append(
            "  note: pitch CV != 1 — the analytic count model uses the "
            "ordinary-renewal boundary convention, the sampler the "
            "uniform-offset one; the tail magnifies that difference"
        )
    lines.extend([
        f"Mmin                    : {m_min:.3e} minimum-size devices",
        f"chip yield, Eq. 2.3     : {analytic_yield:.4f}",
        f"chip yield, sampled pF  : {sampled.yield_value:.4f} "
        f"+- {sampled.standard_error:.4f}",
        f"chip yield, aligned 3.1 : {aligned.chip_yield:.4f} "
        f"+- {aligned.chip_yield_se:.4f} "
        f"(KR = {aligned.row_count:.3e} rows)",
    ])
    return _emit(args, payload, lines)


def _build_wafer_model(args: argparse.Namespace) -> "object":
    """Wafer growth model from the shared wafer CLI options.

    A ``--correlation-length-mm`` switches the density variation from the
    legacy independent per-die noise to a spatially correlated
    Gaussian-random-field draw; ``--misalignment-correlation-length-mm``
    does the same for the misalignment angle.
    """
    from repro.growth.spatial import SpatialFieldSpec
    from repro.growth.wafer import WaferGrowthModel

    density_field = None
    if args.correlation_length_mm is not None:
        density_field = SpatialFieldSpec(
            sigma=args.field_sigma,
            correlation_length_mm=args.correlation_length_mm,
        )
    misalignment_field = None
    if args.misalignment_correlation_length_mm is not None:
        misalignment_field = SpatialFieldSpec(
            sigma=1.0,
            correlation_length_mm=args.misalignment_correlation_length_mm,
        )
    return WaferGrowthModel(
        wafer_diameter_mm=args.wafer_diameter_mm,
        die_size_mm=args.die_size_mm,
        center_pitch_nm=args.mean_pitch_nm,
        edge_pitch_drift=args.edge_pitch_drift,
        pitch_noise_sigma=args.pitch_noise_sigma,
        center_misalignment_deg=args.center_misalignment_deg,
        edge_misalignment_deg=args.edge_misalignment_deg,
        density_field=density_field,
        misalignment_field=misalignment_field,
    )


def _build_misalignment_model(args: argparse.Namespace, setup) -> "object":
    """The Sec. 3 de-rating model for ``--derate-misalignment`` runs."""
    from repro.analysis.mispositioned import MisalignmentImpactModel

    if not args.derate_misalignment:
        return None
    return MisalignmentImpactModel(
        band_width_nm=setup.wmin_correlated_nm(),
        cnt_length_um=args.cnt_length_um,
        min_cnfet_density_per_um=args.cnfet_density,
    )


def _add_wafer_geometry_options(parser: argparse.ArgumentParser) -> None:
    """Wafer map options shared by the ``wafer`` and ``chip-wafer`` commands."""
    parser.add_argument("--wafer-diameter-mm", type=float, default=100.0,
                        help="usable wafer diameter (default 100)")
    parser.add_argument("--die-size-mm", type=float, default=10.0,
                        help="square die edge length (default 10)")
    parser.add_argument("--edge-pitch-drift", type=float, default=0.15,
                        help="relative pitch increase at the wafer edge")
    parser.add_argument("--pitch-noise-sigma", type=float, default=0.02,
                        help="die-to-die random pitch component (relative; "
                             "replaced by the field when "
                             "--correlation-length-mm is given)")
    parser.add_argument("--correlation-length-mm", type=float, default=None,
                        help="correlation length of a spatially correlated "
                             "CNT-density field (omit for the legacy "
                             "independent per-die noise)")
    parser.add_argument("--field-sigma", type=float, default=0.05,
                        help="marginal sigma of the correlated density field "
                             "(log-density units, default 0.05)")
    parser.add_argument("--misalignment-correlation-length-mm", type=float,
                        default=None,
                        help="correlation length of the misalignment-angle "
                             "field (omit for independent per-die angles)")
    parser.add_argument("--center-misalignment-deg", type=float, default=0.2,
                        help="misalignment spread at the wafer centre")
    parser.add_argument("--edge-misalignment-deg", type=float, default=1.0,
                        help="misalignment spread at the wafer edge")
    parser.add_argument("--derate-misalignment", action="store_true",
                        help="apply the Sec. 3 analytic relaxation per die, "
                             "de-rated by the local misalignment angle")
    parser.add_argument("--good-die-threshold", type=float, default=0.5,
                        help="yield above which a die counts as good")
    parser.add_argument("--seed", type=int, default=20100616, help="RNG seed")
    _add_execution_options(parser)


def _cmd_wafer(args: argparse.Namespace) -> int:
    from repro.growth.pitch import pitch_distribution_from_cv
    from repro.montecarlo.wafer_sim import simulate_wafer
    from repro.reporting.tables import (
        WAFER_SUMMARY_COLUMNS,
        render_table,
        wafer_summary_rows,
    )

    setup = _build_setup(args)
    if args.widths_nm is not None:
        widths = _parse_float_list(args.widths_nm, "--widths-nm")
    else:
        # The per-die yield below multiplies *independent* device survival
        # probabilities (Eq. 2.3), so the matching default sizing is the
        # uncorrelated Wmin; the correlated Wmin only reaches the target
        # together with the Eq. 3.1 row model.
        widths = [setup.wmin_uncorrelated_nm()]
    if args.device_counts is not None:
        counts = _parse_float_list(args.device_counts, "--device-counts")
    else:
        counts = [setup.min_size_device_count / len(widths)] * len(widths)

    model = _build_wafer_model(args)
    wafer = model.generate(
        np.random.default_rng(args.seed), seed_key=(args.seed,)
    )
    pitch = pitch_distribution_from_cv(args.mean_pitch_nm, args.pitch_cv)
    type_model = _shorts_type_model(setup, args)
    misalignment = _build_misalignment_model(args, setup)
    result = simulate_wafer(
        wafer, pitch, type_model, widths, counts,
        n_trials=args.trials,
        seed_key=(args.seed,),
        good_die_threshold=args.good_die_threshold,
        misalignment=misalignment,
        execution=_execution(args),
    )
    payload = {
        "die_count": result.die_count,
        "n_trials": result.n_trials,
        "widths_nm": list(result.widths_nm),
        "device_counts": list(result.device_counts),
        "correlation_length_mm": args.correlation_length_mm,
        "metallic_fraction": type_model.metallic_fraction,
        "removal_eta": type_model.removal_prob_metallic,
        "short_probability": type_model.surviving_metallic_probability,
        "derate_misalignment": bool(args.derate_misalignment),
        "mean_chip_yield": result.mean_chip_yield,
        "good_die_fraction": result.good_die_fraction,
        "expected_good_dice": result.expected_good_dice,
        "dice": [
            {
                "column": d.column, "row": d.row,
                "x_mm": d.x_mm, "y_mm": d.y_mm,
                "mean_pitch_nm": d.mean_pitch_nm,
                "cnt_density_per_um": d.cnt_density_per_um,
                "misalignment_deg": d.misalignment_deg,
                "relaxation_factor": d.relaxation_factor,
                "chip_yield": d.chip_yield,
                "chip_yield_se": d.chip_yield_se,
            }
            for d in result.dice
        ],
    }
    from repro.reporting.tables import wafer_map_lines

    lines = [
        f"dies                 : {result.die_count} "
        f"({args.wafer_diameter_mm:.0f} mm wafer, "
        f"{args.die_size_mm:.0f} mm dies)",
        f"trials per die       : {result.n_trials}",
        f"width classes (nm)   : {', '.join(f'{w:.1f}' for w in result.widths_nm)}",
        f"density field        : "
        + (f"correlated, l = {args.correlation_length_mm:g} mm, "
           f"sigma = {args.field_sigma:g}"
           if args.correlation_length_mm is not None
           else "radial + independent noise"),
        f"misalignment de-rate : {'on' if misalignment is not None else 'off'}",
        f"mean chip yield      : {result.mean_chip_yield:.4f}",
        f"good-die fraction    : {result.good_die_fraction:.3f} "
        f"(threshold {result.good_die_threshold:g})",
        f"expected good dice   : {result.expected_good_dice:.1f}",
        render_table(wafer_summary_rows(result), columns=WAFER_SUMMARY_COLUMNS),
        *wafer_map_lines(result.dice, result.die_yields(),
                         threshold=result.good_die_threshold),
    ]
    return _emit(args, payload, lines)


def _cmd_chip_wafer(args: argparse.Namespace) -> int:
    from repro.cells.nangate45 import build_nangate45_library
    from repro.growth.pitch import pitch_distribution_from_cv
    from repro.montecarlo.chip_sim import ChipMonteCarlo
    from repro.montecarlo.wafer_sim import run_chip_wafer
    from repro.netlist.openrisc import build_openrisc_like_design
    from repro.netlist.placement import RowPlacement
    from repro.reporting.tables import (
        CHIP_WAFER_SUMMARY_COLUMNS,
        render_table,
        chip_wafer_summary_rows,
        wafer_map_lines,
    )

    setup = _build_setup(args)
    wafer = _build_wafer_model(args).generate(
        np.random.default_rng(args.seed), seed_key=(args.seed,)
    )
    library = build_nangate45_library()
    design = build_openrisc_like_design(
        library, scale=args.scale, seed=args.netlist_seed
    )
    placement = RowPlacement(design)
    chip = ChipMonteCarlo(
        placement,
        pitch=pitch_distribution_from_cv(args.mean_pitch_nm, args.pitch_cv),
        type_model=_shorts_type_model(setup, args),
    )
    result = run_chip_wafer(
        wafer, chip, n_trials=args.trials, seed_key=(args.seed,),
        good_die_threshold=args.good_die_threshold,
        misalignment=_build_misalignment_model(args, setup),
        execution=_execution(args),
    )
    payload = {
        "die_count": result.die_count,
        "device_count": result.device_count,
        "n_trials": result.n_trials,
        "widths_nm": list(result.widths_nm),
        "device_counts": list(result.device_counts),
        "mean_chip_yield": result.mean_chip_yield,
        "good_die_fraction": result.good_die_fraction,
        "expected_good_dice": result.expected_good_dice,
        "dice": [
            {
                "column": d.column, "row": d.row,
                "x_mm": d.x_mm, "y_mm": d.y_mm,
                "mean_pitch_nm": d.mean_pitch_nm,
                "misalignment_deg": d.misalignment_deg,
                "chip_yield": d.chip_yield,
                "eq23_chip_yield": d.eq23_chip_yield,
                "eq23_chip_yield_se": d.eq23_chip_yield_se,
                "mean_failing_devices": d.mean_failing_devices,
                "relaxation_factor": d.relaxation_factor,
            }
            for d in result.dice
        ],
    }
    lines = [
        f"dies                 : {result.die_count} "
        f"({args.wafer_diameter_mm:.0f} mm wafer, "
        f"{args.die_size_mm:.0f} mm dies)",
        f"placed design        : {design.instance_count} instances, "
        f"{result.device_count} transistors "
        f"({len(result.widths_nm)} width classes)",
        f"trials per die       : {result.n_trials}",
        f"mean direct yield    : {result.mean_chip_yield:.4f}",
        f"good-die fraction    : {result.good_die_fraction:.3f} "
        f"(threshold {result.good_die_threshold:g})",
        f"expected good dice   : {result.expected_good_dice:.1f}",
        render_table(chip_wafer_summary_rows(result),
                     columns=CHIP_WAFER_SUMMARY_COLUMNS),
        *wafer_map_lines(result.dice, result.die_yields(),
                         threshold=result.good_die_threshold),
    ]
    return _emit(args, payload, lines)


def _cmd_netlist(args: argparse.Namespace) -> int:
    from repro.cells.nangate45 import build_nangate45_library
    from repro.netlist.openrisc import build_openrisc_like_design
    from repro.netlist.verilog import export_structural_netlist

    library = build_nangate45_library()
    design = build_openrisc_like_design(library, scale=args.scale, seed=args.seed)
    text = export_structural_netlist(design)
    payload = {
        "instance_count": design.instance_count,
        "transistor_count": design.transistor_count,
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        payload["output"] = args.output
        lines = [f"wrote {design.instance_count} instances to {args.output}"]
    else:
        lines = [text]
    return _emit(args, payload, lines)


def _cmd_timing(args: argparse.Namespace) -> int:
    from repro.analysis.delay import GateDelayModel
    from repro.cells.nangate45 import build_nangate45_library
    from repro.core.count_model import PoissonCountModel
    from repro.growth.pitch import pitch_distribution_from_cv
    from repro.growth.types import CNTTypeModel
    from repro.montecarlo.chip_sim import ChipMonteCarlo
    from repro.netlist.openrisc import build_openrisc_like_design
    from repro.netlist.placement import RowPlacement
    from repro.timing import TimingMonteCarlo, load_timing_graph

    if args.tclk_ps is not None and args.tclk_factor is not None:
        raise CLIUsageError("--tclk-ps and --tclk-factor are mutually exclusive")
    if args.graph is not None:
        if args.scale is not None or args.netlist_seed is not None:
            raise CLIUsageError(
                "--graph takes a ready-made timing graph; --scale and "
                "--netlist-seed only apply to the derived netlist mode"
            )
        graph_path = Path(args.graph)
        if not graph_path.is_file():
            raise CLIUsageError(f"--graph {args.graph!r} is not a readable file")

    type_model = CNTTypeModel()
    if args.graph is not None:
        graph = load_timing_graph(args.graph)
        delay_model = GateDelayModel(
            count_model=PoissonCountModel(args.mean_pitch_nm),
            type_model=type_model,
        )
        engine = TimingMonteCarlo.from_graph(graph, delay_model)
        mode = "ingested (independent per-node counts)"
    else:
        scale = 0.05 if args.scale is None else args.scale
        netlist_seed = 2010 if args.netlist_seed is None else args.netlist_seed
        library = build_nangate45_library()
        design = build_openrisc_like_design(library, scale=scale, seed=netlist_seed)
        placement = RowPlacement(design)
        chip = ChipMonteCarlo(
            placement,
            pitch=pitch_distribution_from_cv(args.mean_pitch_nm, args.pitch_cv),
            type_model=type_model,
        )
        engine = TimingMonteCarlo.from_chip(chip, seed=args.derive_seed)
        graph = engine.graph
        mode = "derived (correlated shared-track counts)"

    if args.tclk_ps is not None:
        t_clk = float(args.tclk_ps)
    else:
        factor = 1.2 if args.tclk_factor is None else args.tclk_factor
        t_clk = engine.default_t_clk_ps(factor=factor)
    result = engine.run(
        args.trials,
        np.random.default_rng(args.seed),
        t_clk_ps=t_clk,
        oracle=args.oracle,
        execution=_execution(args),
    )
    payload = {
        "mode": mode,
        "n_nodes": graph.n_nodes,
        "n_arcs": graph.n_arcs,
        "depth": graph.depth,
        "n_trials": result.n_trials,
        "t_clk_ps": result.t_clk_ps,
        "nominal_critical_path_ps": result.nominal_critical_path_ps,
        "functional_yield": result.functional_yield,
        "timing_yield": result.timing_yield,
        "combined_yield": result.combined_yield,
    }
    lines = [
        f"timing graph          : {graph.n_nodes} nodes, {graph.n_arcs} arcs, "
        f"depth {graph.depth} ({mode})",
        f"trials                : {result.n_trials}",
        f"nominal critical path : {result.nominal_critical_path_ps:.2f} ps",
        f"clock period          : {result.t_clk_ps:.2f} ps",
        f"functional yield      : {result.functional_yield:.4f}",
        f"timing yield          : {result.timing_yield:.4f}",
        f"combined yield        : {result.combined_yield:.4f}",
    ]
    return _emit(args, payload, lines)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.growth.pitch import pitch_distribution_from_cv
    from repro.reporting.tables import (
        SURFACE_SUMMARY_COLUMNS,
        render_table,
        surface_summary_rows,
    )
    from repro.surface import (
        ALL_SCENARIOS,
        GridAxis,
        SurfaceBuilder,
        SurfaceStore,
        SweepSpec,
    )

    setup = _build_setup(args)
    scenarios = ALL_SCENARIOS if args.scenario == "all" else (args.scenario,)
    pitch = pitch_distribution_from_cv(args.mean_pitch_nm, args.pitch_cv)
    type_model = _shorts_type_model(setup, args)
    store = SurfaceStore(args.out)
    execution = _execution(args)

    surfaces = []
    reports = []
    for scenario in scenarios:
        try:
            spec = SweepSpec(
                scenario=scenario,
                width_axis=GridAxis.from_range(
                    "width_nm", args.w_min, args.w_max, args.w_points
                ),
                density_axis=GridAxis.from_range(
                    "cnt_density_per_um",
                    args.density_min, args.density_max, args.density_points,
                ),
                pitch=pitch,
                per_cnt_failure=type_model.per_cnt_failure_probability,
                correlation=setup.correlation,
                method=args.method,
                tolerance_log=args.tolerance,
                max_refinement_rounds=args.max_refinement_rounds,
                mc_samples=args.mc_samples,
                seed=args.seed,
                metallic_fraction=type_model.metallic_fraction,
                removal_eta=type_model.removal_prob_metallic,
            )
        except ValueError as exc:
            # The tilted sampler has no joint opens+shorts path; surface
            # the spec's rejection as the usage error it is.
            raise CLIUsageError(str(exc)) from None
        report = SurfaceBuilder(spec, execution).build_report()
        store.save(report.surface)
        surfaces.append(report.surface)
        reports.append(report)

    payload = {
        "store": str(store.root),
        "surfaces": [s.describe() for s in surfaces],
        "evaluations": [r.evaluations for r in reports],
    }
    lines = [
        render_table(
            surface_summary_rows(surfaces), columns=SURFACE_SUMMARY_COLUMNS
        ),
        f"persisted {len(surfaces)} surface(s) under {store.root}",
    ]
    return _emit(args, payload, lines)


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.serving import YieldService
    from repro.surface import SurfaceStore

    store_path = Path(args.store)
    if not store_path.exists():
        raise CLIUsageError(f"surface store {args.store!r} does not exist")
    if not store_path.is_dir():
        raise CLIUsageError(f"surface store {args.store!r} is not a directory")
    store = SurfaceStore(args.store)
    keys = store.keys()
    if args.key is None:
        raise ValueError(
            f"--key is required; available surfaces: {keys or '(none)'}"
        )
    service = YieldService(store=store)
    widths = np.asarray(_parse_float_list(args.width_nm, "--width-nm"))
    densities = (
        np.asarray(_parse_float_list(args.density, "--density"))
        if args.density is not None else None
    )
    result = service.query(
        args.key,
        widths,
        cnt_density_per_um=densities,
        device_count=args.transistors * args.min_size_fraction,
        fallback=args.fallback,
        deadline_s=args.deadline_s,
    )
    payload = {
        "scenario": result.scenario,
        "device_count": args.transistors * args.min_size_fraction,
        "width_nm": widths,
        "failure_probability": result.failure_probability,
        "failure_lower": result.failure_lower,
        "failure_upper": result.failure_upper,
        "chip_yield": result.chip_yield,
        "yield_lower": result.yield_lower,
        "yield_upper": result.yield_upper,
        "interpolated": result.interpolated,
        "degraded": result.degraded,
        "degradation": list(result.degradation),
    }
    lines = [
        f"scenario      : {result.scenario}",
        f"device count  : {args.transistors * args.min_size_fraction:.3e}",
        f"degradation   : {', '.join(result.degradation)}",
        "width (nm)   failure prob [lower, upper]            chip yield  served",
    ]
    for idx in range(result.n_queries):
        served = "grid" if result.interpolated[idx] else args.fallback
        lines.append(
            f"{widths[idx]:10.2f}   {result.failure_probability[idx]:.4e} "
            f"[{result.failure_lower[idx]:.4e}, {result.failure_upper[idx]:.4e}]"
            f"   {result.chip_yield[idx]:.6f}  {served}"
        )
    return _emit(args, payload, lines)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.http import StoreAppFactory, run_server

    store = None
    if args.store is not None:
        store_path = Path(args.store)
        if not store_path.exists():
            raise CLIUsageError(f"surface store {args.store!r} does not exist")
        if not store_path.is_dir():
            raise CLIUsageError(
                f"surface store {args.store!r} is not a directory"
            )
        store = args.store
    if args.workers > 1 and args.port == 0:
        raise CLIUsageError("--workers > 1 needs an explicit --port")
    factory = StoreAppFactory(
        store=store,
        cache_capacity=args.cache_capacity,
        deadline_s=args.deadline_s,
        refine_capacity=args.refine_capacity,
        refine_workers=args.refine_workers,
    )
    run_server(
        factory, host=args.host, port=args.port, workers=args.workers
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CNFET yield enhancement via CNT correlation (DAC 2010 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_subparser(name: str, handler, description: str,
                      common: bool = True) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(name, help=description)
        if common:
            _add_common_options(sub)
        sub.add_argument("--json", action="store_true",
                         help="emit a machine-readable JSON payload")
        sub.set_defaults(handler=handler)
        return sub

    for name, handler, description in (
        ("wmin", _cmd_wmin, "baseline/optimised Wmin and penalties"),
        ("table1", _cmd_table1, "row failure probabilities (Table 1)"),
        ("table2", _cmd_table2, "library area penalties (Table 2)"),
        ("scaling", _cmd_scaling, "penalty versus technology node (Fig. 2.2b / 3.3)"),
    ):
        add_subparser(name, handler, description)

    coopt = add_subparser(
        "co-opt", _cmd_coopt,
        "Pareto process/design co-optimization (yield target at minimum "
        "capacitance penalty)",
    )
    coopt.add_argument("--densities", type=str, default="200,250,320",
                       help="comma-separated CNT densities rho in /um to "
                            "search (default 200,250,320)")
    coopt.add_argument("--pitch-cvs", type=str, default=None,
                       help="comma-separated pitch CVs to search "
                            "(default: the --pitch-cv value)")
    coopt.add_argument("--cnt-lengths-um", type=str, default=None,
                       help="comma-separated CNT correlation lengths in um "
                            "(default: the --cnt-length-um value)")
    coopt.add_argument("--misalignment-deg", type=str, default="0",
                       help="comma-separated misalignment specs in degrees "
                            "(default 0)")
    coopt.add_argument("--metallic-frac", type=float, default=None,
                       help="metallic CNT fraction p_m of the searched "
                            "corner (default: the calibrated corner's value)")
    coopt.add_argument("--removal-eta", type=str, default="1",
                       help="comma-separated metallic-removal efficiencies "
                            "eta to search; values below 1 activate the "
                            "short failure mode (default 1)")
    coopt.add_argument("--extra-levels", type=int, default=4,
                       help="extra upsizing levels between the smallest "
                            "class width and the baseline Wmin (default 4)")
    coopt.add_argument("--max-combos", type=int, default=200_000,
                       help="guard on per-process-point design combinations "
                            "(default 200000)")
    coopt.add_argument("--validate-trials", type=int, default=0,
                       help="Monte Carlo trials per validated front member "
                            "(0 disables end-to-end validation)")
    coopt.add_argument("--validate-top", type=int, default=1,
                       help="how many front members to validate (default 1)")
    coopt.add_argument("--tclk-factor", type=float, default=1.2,
                       help="validation clock period as a multiple of the "
                            "nominal critical path (default 1.2)")
    coopt.add_argument("--seed", type=int, default=20100613,
                       help="root seed for the spawn-keyed validation RNG")
    _add_execution_options(coopt, checkpoint=False)

    align = add_subparser(
        "align", _cmd_align, "apply the aligned-active restriction to a library"
    )
    align.add_argument("--library", choices=("nangate45", "commercial65"),
                       default="nangate45")
    align.add_argument("--wmin-nm", type=float, default=None,
                       help="override the Wmin used for criticality")
    align.add_argument("--aligned-regions", type=int, default=1,
                       help="number of aligned active regions per polarity")
    align.add_argument("--physical-out", type=str, default=None,
                       help="write the modified physical (LEF-style) view here")
    align.add_argument("--liberty-out", type=str, default=None,
                       help="write the modified Liberty-style view here")

    rare = add_subparser(
        "rare-event", _cmd_rare_event,
        "importance-sampled tail pF and its chip-yield consequence",
    )
    rare.add_argument("--target-pf", type=float, default=1e-9,
                      help="device failure probability to probe (default 1e-9)")
    rare.add_argument("--width-nm", type=float, default=None,
                      help="device width override (solved from --target-pf "
                           "when omitted)")
    rare.add_argument("--samples", type=int, default=100_000,
                      help="importance-sampling trial count (default 100000)")
    rare.add_argument("--tilt-factor", type=float, default=None,
                      help="mean-pitch stretch factor (auto when omitted)")
    rare.add_argument("--seed", type=int, default=2010, help="RNG seed")

    wafer = add_subparser(
        "wafer", _cmd_wafer,
        "wafer-level per-die yield under CNT density drift "
        "(shared track kernel)",
    )
    _add_wafer_geometry_options(wafer)
    wafer.add_argument("--widths-nm", type=str, default=None,
                       help="comma-separated device width classes "
                            "(default: the uncorrelated Wmin, which matches "
                            "the independent-device Eq. 2.3 product)")
    wafer.add_argument("--device-counts", type=str, default=None,
                       help="devices per width class per die "
                            "(default: Mmin split evenly)")
    wafer.add_argument("--trials", type=int, default=2048,
                       help="Monte Carlo trials per die (default 2048)")
    _add_shorts_options(wafer)

    chip_wafer = add_subparser(
        "chip-wafer", _cmd_chip_wafer,
        "whole-placement per-die chip yield across a wafer (shared geometry)",
    )
    _add_wafer_geometry_options(chip_wafer)
    chip_wafer.add_argument("--scale", type=float, default=0.05,
                            help="OpenRISC-like netlist scale factor "
                                 "(default 0.05)")
    chip_wafer.add_argument("--netlist-seed", type=int, default=2010,
                            help="netlist generator seed")
    chip_wafer.add_argument("--trials", type=int, default=128,
                            help="whole-chip trials per die (default 128)")
    _add_shorts_options(chip_wafer)

    netlist = add_subparser(
        "netlist", _cmd_netlist, "generate the synthetic OpenRISC-like netlist",
        common=False,
    )
    netlist.add_argument("--scale", type=float, default=0.25,
                         help="netlist size scale factor (default 0.25)")
    netlist.add_argument("--seed", type=int, default=2010, help="generator seed")
    netlist.add_argument("--output", type=str, default=None,
                         help="output file (stdout when omitted)")

    timing = add_subparser(
        "timing", _cmd_timing,
        "joint functional / critical-path (parametric) yield Monte Carlo",
        common=False,
    )
    timing.add_argument("--graph", type=str, default=None,
                        help="ingest a plain-text timing graph instead of "
                             "deriving one from the synthetic netlist")
    timing.add_argument("--scale", type=float, default=None,
                        help="OpenRISC-like netlist scale factor for the "
                             "derived mode (default 0.05)")
    timing.add_argument("--netlist-seed", type=int, default=None,
                        help="netlist generator seed for the derived mode "
                             "(default 2010)")
    timing.add_argument("--derive-seed", type=int, default=2010,
                        help="fanin-sampling seed of the derived graph")
    timing.add_argument("--mean-pitch-nm", type=float, default=8.0,
                        help="mean inter-CNT pitch in nm (default 8)")
    timing.add_argument("--pitch-cv", type=float, default=1.0,
                        help="pitch coefficient of variation (default 1.0)")
    timing.add_argument("--trials", type=int, default=256,
                        help="whole-chip Monte Carlo trials (default 256)")
    timing.add_argument("--seed", type=int, default=2010, help="RNG seed")
    _add_execution_options(timing, checkpoint=False)
    timing.add_argument("--tclk-ps", type=float, default=None,
                        help="clock period in ps (exclusive with "
                             "--tclk-factor)")
    timing.add_argument("--tclk-factor", type=float, default=None,
                        help="clock period as a multiple of the nominal "
                             "critical path (default 1.2)")
    timing.add_argument("--oracle", action="store_true",
                        help="use the per-trial scalar STA walk instead of "
                             "the batched sweep (bitwise-identical, slower)")

    sweep = add_subparser(
        "sweep", _cmd_sweep,
        "precompute yield surfaces over a (width, CNT density) grid",
    )
    sweep.add_argument("--scenario", default="all",
                       choices=("all", "device", "uncorrelated",
                                "directional_non_aligned", "directional_aligned"),
                       help="which surface(s) to sweep (default all)")
    sweep.add_argument("--w-min", type=float, default=20.0,
                       help="width axis lower bound in nm (default 20)")
    sweep.add_argument("--w-max", type=float, default=400.0,
                       help="width axis upper bound in nm (default 400)")
    sweep.add_argument("--w-points", type=int, default=33,
                       help="initial width grid points (default 33)")
    sweep.add_argument("--density-min", type=float, default=125.0,
                       help="CNT density axis lower bound per um (default 125)")
    sweep.add_argument("--density-max", type=float, default=500.0,
                       help="CNT density axis upper bound per um (default 500)")
    sweep.add_argument("--density-points", type=int, default=17,
                       help="initial density grid points (default 17)")
    sweep.add_argument("--tolerance", type=float, default=1e-3,
                       help="interpolation-error tolerance in log space")
    sweep.add_argument("--max-refinement-rounds", type=int, default=3,
                       help="maximum grid-refinement rounds (default 3)")
    sweep.add_argument("--method", default="auto",
                       choices=("auto", "closed_form", "tilted"),
                       help="sweep path (default auto)")
    sweep.add_argument("--mc-samples", type=int, default=20_000,
                       help="samples per grid point on the tilted path")
    sweep.add_argument("--seed", type=int, default=20100613, help="sweep RNG seed")
    sweep.add_argument("--out", type=str, default="surfaces",
                       help="surface store directory (default ./surfaces)")
    _add_shorts_options(sweep)
    _add_execution_options(sweep, workers=False)

    query = add_subparser(
        "query", _cmd_query,
        "serve batched yield queries from a persisted surface",
    )
    query.add_argument("--store", type=str, default="surfaces",
                       help="surface store directory (default ./surfaces)")
    query.add_argument("--key", type=str, default=None,
                       help="surface key or unambiguous prefix (see sweep output)")
    query.add_argument("--width-nm", type=str, required=True,
                       help="comma-separated device widths to query")
    query.add_argument("--density", type=str, default=None,
                       help="comma-separated CNT densities per um "
                            "(surface reference density when omitted)")
    query.add_argument("--fallback", default="exact",
                       choices=("exact", "mc", "none"),
                       help="out-of-grid handling (default exact)")
    query.add_argument("--deadline-s", type=float, default=None,
                       help="wall-clock budget per query; past it, "
                            "out-of-grid answers clamp to the nearest grid "
                            "point with [0, 1] bounds and the result is "
                            "flagged degraded")

    serve = add_subparser(
        "serve", _cmd_serve,
        "run the HTTP/ASGI yield service over a surface store",
        common=False,
    )
    serve.add_argument("--store", type=str, default=None,
                       help="surface store directory to serve (omit for an "
                            "upload-only service)")
    serve.add_argument("--host", type=str, default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8000,
                       help="bind port; 0 picks a free port "
                            "(single-worker only)")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes sharing the port via "
                            "SO_REUSEPORT (default 1)")
    serve.add_argument("--cache-capacity", type=int, default=8,
                       help="surfaces held in memory per worker (default 8)")
    serve.add_argument("--deadline-s", type=float, default=None,
                       help="default per-query wall-clock budget")
    serve.add_argument("--refine-capacity", type=int, default=64,
                       help="bound on pending background MC refinement jobs")
    serve.add_argument("--refine-workers", type=int, default=1,
                       help="background refinement threads per worker")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Runtime failures in any handler are reported on stderr and mapped to
    exit code 1, so scripted callers get a consistent contract: 0 success,
    1 runtime error, 2 usage error (from argparse or a
    :class:`CLIUsageError` — invalid flag combination, unusable path).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Every subcommand with --workers shares this one check.
        if getattr(args, "workers", 1) < 1:
            raise CLIUsageError("--workers must be at least 1")
        return args.handler(args)
    except (KeyboardInterrupt, SystemExit):
        raise
    except CLIUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 — the CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
