"""Placement geometry equivalence tier.

:class:`~repro.montecarlo.chip_sim.ChipMonteCarlo` builds its device
windows once per cell master and derives everything else in one array
pass.  This file keeps the straightforward per-transistor algorithm as an
independent reference — one ``active_regions()`` call per placed
instance, a clamp per transistor, an insertion-ordered dict per row — and
asserts that the simulator's geometry, counts, scalar-oracle row windows,
instance-window map and derived timing graph are bitwise equal to it.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.cells.aligned_active import enforce_aligned_active
from repro.cells.nangate45 import build_nangate45_library
from repro.growth.pitch import ExponentialPitch
from repro.montecarlo.chip_sim import ChipMonteCarlo
from repro.netlist.design import Design
from repro.netlist.openrisc import build_openrisc_like_design
from repro.netlist.placement import RowPlacement
from repro.timing.graph import TimingGraphError
from repro.timing.ingest import derive_timing_graph


# ---------------------------------------------------------------------------
# Reference: the per-transistor algorithm
# ---------------------------------------------------------------------------


@dataclass
class _Reference:
    row_windows: List[List[Tuple[float, float]]]
    device_count: int
    small_device_count: int
    window_lo: np.ndarray
    window_hi: np.ndarray
    window_weight: np.ndarray
    window_row: np.ndarray
    row_starts: np.ndarray
    n_rows: int
    instance_windows: list


def _clamped(region, row_height_nm: float) -> Tuple[float, float]:
    y_low = min(max(region.y_nm, 0.0), row_height_nm)
    y_high = min(max(region.y_end_nm, y_low), row_height_nm)
    return y_low, y_high


def _reference(chip: ChipMonteCarlo) -> _Reference:
    rows = chip.placement.run()
    height = chip.row_height_nm
    row_windows = [
        [
            _clamped(cell_region.region, height)
            for placed in row.placed
            for cell_region in placed.cell.active_regions(x_origin_nm=placed.x_nm)
        ]
        for row in rows
    ]
    small = sum(
        1
        for row in rows
        for placed in row.placed
        for w in placed.cell.transistor_widths_nm()
        if w <= chip.small_width_threshold_nm
    )

    lo: List[float] = []
    hi: List[float] = []
    weight: List[int] = []
    window_row: List[int] = []
    row_starts: List[int] = []
    sim_row = 0
    for windows in row_windows:
        if not windows:
            continue
        distinct: Dict[Tuple[float, float], int] = {}
        for key in windows:
            distinct[key] = distinct.get(key, 0) + 1
        row_starts.append(len(lo))
        for (y_low, y_high), count in distinct.items():
            lo.append(y_low)
            hi.append(y_high)
            weight.append(count)
            window_row.append(sim_row)
        sim_row += 1

    instance_windows = []
    next_global = 0
    for row, windows in zip(rows, row_windows):
        if not windows:
            instance_windows.extend((placed, []) for placed in row.placed)
            continue
        index: Dict[Tuple[float, float], int] = {}
        for placed in row.placed:
            indices = []
            for cell_region in placed.cell.active_regions(x_origin_nm=placed.x_nm):
                key = _clamped(cell_region.region, height)
                if key not in index:
                    index[key] = next_global
                    next_global += 1
                indices.append(index[key])
            instance_windows.append((placed, indices))

    return _Reference(
        row_windows=row_windows,
        device_count=sum(len(w) for w in row_windows),
        small_device_count=small,
        window_lo=np.asarray(lo, dtype=float),
        window_hi=np.asarray(hi, dtype=float),
        window_weight=np.asarray(weight, dtype=np.int64),
        window_row=np.asarray(window_row, dtype=np.int64),
        row_starts=np.asarray(row_starts, dtype=np.int64),
        n_rows=sim_row,
        instance_windows=instance_windows,
    )


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def library():
    return build_nangate45_library()


def _openrisc(library, scale):
    design = build_openrisc_like_design(library, scale=scale, seed=2010)
    return RowPlacement(design, row_width_nm=40_000.0)


def _aligned(library):
    design = build_openrisc_like_design(library, scale=0.02, seed=2010)
    aligned_library = enforce_aligned_active(library, wmin_nm=103.0).to_library(
        "nangate45_aligned"
    )
    aligned = Design("openrisc_aligned", aligned_library)
    for instance in design.instances:
        aligned.add_instance(instance)
    return RowPlacement(aligned, row_width_nm=40_000.0)


#: Filler-only rows 1 and 3, and fillers sharing rows with logic.
FILLER_SEQUENCE = (
    "FILLCELL_X1", "INV_X1", "FILLCELL_X2", "NAND2_X1", "FILLCELL_X32",
    "FILLCELL_X4", "DFF_X1", "FILLCELL_X32", "FILLCELL_X32", "INV_X1",
    "NOR2_X2", "FILLCELL_X8",
)


def _fillers(library):
    design = Design("fillers", library)
    for i, cell in enumerate(FILLER_SEQUENCE):
        design.add(f"u{i}", cell)
    return RowPlacement(design, row_width_nm=8_000.0)


CASES = {
    "openrisc-0.02": lambda lib: (_openrisc(lib, 0.02), {}),
    "openrisc-0.05": lambda lib: (_openrisc(lib, 0.05), {}),
    "aligned-active": lambda lib: (_aligned(lib), {}),
    # Cells are 1,400 nm tall and p-strips start at 770 nm: a 600 nm span
    # clamps every p-device to a zero-width window at the span top.
    "clamped-row-height": lambda lib: (
        _openrisc(lib, 0.02), {"row_height_nm": 600.0}
    ),
    "fillers-and-empty-rows": lambda lib: (_fillers(lib), {}),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request, library):
    placement, kwargs = CASES[request.param](library)
    chip = ChipMonteCarlo(placement, pitch=ExponentialPitch(20.0), **kwargs)
    return request.param, chip, _reference(chip)


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------


class TestGeometryEquivalence:
    def test_geometry_arrays_bitwise(self, case):
        _, chip, ref = case
        geometry = chip.chip_geometry()
        assert geometry.n_rows == ref.n_rows
        for field in ("window_lo", "window_hi", "window_weight",
                      "window_row", "row_starts"):
            assert _bitwise_equal(getattr(geometry, field), getattr(ref, field)), field

    def test_device_counts(self, case):
        _, chip, ref = case
        assert chip.device_count == ref.device_count
        assert chip.small_device_count == ref.small_device_count

    def test_scalar_oracle_row_windows(self, case):
        _, chip, ref = case
        expected = [
            np.asarray(windows, dtype=float).reshape(-1, 2)
            for windows in ref.row_windows if windows
        ]
        assert len(chip._row_windows) == len(expected)
        for got, want in zip(chip._row_windows, expected):
            assert _bitwise_equal(got, want)

    def test_instance_windows(self, case):
        _, chip, ref = case
        got = chip.instance_windows()
        assert len(got) == len(ref.instance_windows)
        for (placed, indices), (ref_placed, ref_indices) in zip(
            got, ref.instance_windows
        ):
            assert placed is ref_placed
            assert indices == ref_indices
            assert all(type(i) is int for i in indices)

    def test_derived_timing_graph(self, case, monkeypatch):
        _, chip, ref = case
        derived = derive_timing_graph(chip, seed=7)
        monkeypatch.setattr(chip, "instance_windows", lambda: ref.instance_windows)
        expected = derive_timing_graph(chip, seed=7)
        assert _bitwise_equal(derived.node_window, expected.node_window)
        assert derived.graph.nodes == expected.graph.nodes
        assert derived.graph.arcs == expected.graph.arcs


class TestEdgeCases:
    def test_case_shapes(self, library):
        """The cases really contain what their names promise."""
        placement, _ = CASES["fillers-and-empty-rows"](library)
        rows = placement.run()
        transistor_rows = [any(p.cell.transistors for p in r.placed) for r in rows]
        assert not all(transistor_rows) and any(transistor_rows)
        clamped = ChipMonteCarlo(
            _openrisc(library, 0.02), row_height_nm=600.0
        ).chip_geometry()
        assert np.any(clamped.window_hi == clamped.window_lo)

    def test_fillers_only_placement(self, library):
        design = Design("fillers_only", library)
        for i in range(5):
            design.add(f"f{i}", "FILLCELL_X8")
        chip = ChipMonteCarlo(
            RowPlacement(design, row_width_nm=4_000.0), row_height_nm=1_400.0
        )
        ref = _reference(chip)
        geometry = chip.chip_geometry()
        assert chip.device_count == 0 and chip.small_device_count == 0
        assert geometry.n_rows == ref.n_rows == 0
        for field in ("window_lo", "window_hi", "window_weight",
                      "window_row", "row_starts"):
            assert _bitwise_equal(getattr(geometry, field), getattr(ref, field)), field
        assert chip._row_windows == []
        assert [w for _, w in chip.instance_windows()] == [[]] * 5
        with pytest.raises(TimingGraphError):
            derive_timing_graph(chip)

    def test_cell_edits_between_constructions_are_seen(self):
        """Masters are cached within one construction only.

        Cells are mutable; a simulator built after a cell is edited must
        see the edit even though the cell object is the same.
        """
        library = build_nangate45_library()
        design = Design("edit", library)
        for i in range(40):
            design.add(f"u{i}", "INV_X1" if i % 2 else "NAND2_X1")
        placement = RowPlacement(design, row_width_nm=10_000.0)
        before = ChipMonteCarlo(placement).chip_geometry()
        cell = library.get("INV_X1")
        cell.transistors = tuple(
            t.resized(t.width_nm * 1.5) for t in cell.transistors
        )
        chip = ChipMonteCarlo(placement)
        ref = _reference(chip)
        after = chip.chip_geometry()
        assert not _bitwise_equal(after.window_hi, before.window_hi)
        assert _bitwise_equal(after.window_hi, ref.window_hi)
        assert _bitwise_equal(after.window_weight, ref.window_weight)
