"""Tests for whole-placement per-die chip runs (`wafer_sim.run_chip_wafer`).

The headline contracts:

* the shared-geometry pass is *bitwise* identical, die by die, to a
  fresh :class:`ChipMonteCarlo` per die driven on the same spawn-keyed
  streams (:func:`chip_per_die_loop`);
* results are bitwise invariant to die order and ``n_workers``;
* the Eq. 2.3 independent-device view sits at or below the direct
  (correlation-aware) yield — the paper's benefit, made measurable;
* misalignment de-rating raises the Eq. 2.3 view monotonically and
  never touches the direct indicators.
"""

import math

import numpy as np
import pytest

import repro.montecarlo.engine as engine
from repro.analysis.mispositioned import MisalignmentImpactModel
from repro.cells.nangate45 import build_nangate45_library
from repro.growth.pitch import ExponentialPitch
from repro.growth.types import CNTTypeModel
from repro.growth.wafer import WaferGrowthModel, WaferMap
from repro.montecarlo.chip_sim import ChipMonteCarlo
from repro.montecarlo.wafer_sim import (
    chip_die_stream,
    chip_per_die_loop,
    die_stream,
    run_chip_wafer,
)
from repro.netlist.openrisc import build_openrisc_like_design
from repro.netlist.placement import RowPlacement
from repro.resilience import Execution
from repro.reporting.tables import (
    CHIP_WAFER_SUMMARY_COLUMNS,
    chip_wafer_summary_rows,
    render_table,
    wafer_map_lines,
)


@pytest.fixture(scope="module")
def chip():
    library = build_nangate45_library()
    design = build_openrisc_like_design(library, scale=0.02, seed=2010)
    return ChipMonteCarlo(
        RowPlacement(design),
        pitch=ExponentialPitch(4.0),
        type_model=CNTTypeModel(1.0 / 3.0, 1.0, 0.3),
    )


@pytest.fixture(scope="module")
def wafer():
    return WaferGrowthModel(
        center_pitch_nm=4.0, die_size_mm=25.0
    ).generate(np.random.default_rng(2))


class TestWidthClassHistogram:
    def test_counts_cover_every_device(self, chip):
        widths, counts = chip.width_class_histogram()
        assert len(widths) == len(counts)
        assert sum(counts) == chip.device_count
        assert list(widths) == sorted(widths)

    def test_all_widths_positive(self, chip):
        widths, _ = chip.width_class_histogram()
        assert all(w > 0 for w in widths)


class TestSharedGeometryEquivalence:
    def test_direct_stats_bitwise_equal_to_per_die_loop(self, chip, wafer):
        shared = run_chip_wafer(wafer, chip, n_trials=32, seed_key=(5,))
        loop = chip_per_die_loop(wafer, chip, n_trials=32, seed_key=(5,))
        assert shared.die_count == loop.die_count == wafer.die_count
        for a, b in zip(shared.dice, loop.dice):
            assert (a.column, a.row) == (b.column, b.row)
            assert a.chip_yield == b.chip_yield
            assert a.mean_failing_devices == b.mean_failing_devices
            assert a.std_failing_devices == b.std_failing_devices
            assert a.mean_failing_rows == b.mean_failing_rows
            assert a.device_failure_rate == b.device_failure_rate

    def test_die_order_invariance(self, chip, wafer):
        reference = run_chip_wafer(wafer, chip, n_trials=16, seed_key=(7,))
        shuffled_sites = list(wafer.sites)
        np.random.default_rng(0).shuffle(shuffled_sites)
        shuffled = WaferMap(
            wafer_diameter_mm=wafer.wafer_diameter_mm,
            die_size_mm=wafer.die_size_mm,
            sites=tuple(shuffled_sites),
        )
        result = run_chip_wafer(shuffled, chip, n_trials=16, seed_key=(7,))
        assert result.dice == reference.dice

    def test_n_workers_bitwise_invariant(self, chip, wafer):
        serial = run_chip_wafer(wafer, chip, n_trials=16, seed_key=(9,))
        pooled = run_chip_wafer(
            wafer, chip, n_trials=16, seed_key=(9,),
            execution=Execution(n_workers=3),
        )
        assert serial.dice == pooled.dice

    def test_chip_stream_distinct_from_die_stream(self, wafer):
        site = wafer.sites[0]
        a = die_stream((1,), site).integers(0, 1 << 62, 8)
        b = chip_die_stream((1,), site).integers(0, 1 << 62, 8)
        assert not np.array_equal(a, b)


class TestYieldViews:
    def test_eq23_never_exceeds_direct_by_construction(self, chip, wafer):
        # Clustered failures mean fewer failing chips than the
        # independent-device product predicts; statistically the direct
        # yield dominates (allow SE slack on the comparison).
        result = run_chip_wafer(wafer, chip, n_trials=96, seed_key=(11,))
        for die in result.dice:
            assert die.eq23_chip_yield <= die.chip_yield + 1e-9

    def test_class_probabilities_consistent_with_failing_devices(
        self, chip, wafer
    ):
        # sum_q M_q p_q is exactly the mean failing-device count: both
        # are linear reductions of the same failing mask.
        result = run_chip_wafer(wafer, chip, n_trials=48, seed_key=(13,))
        for die in result.dice:
            recon = sum(
                m * p for m, p in zip(
                    die.device_counts, die.class_failure_probabilities
                )
            )
            assert recon == pytest.approx(die.mean_failing_devices, rel=1e-12)

    def test_device_counts_match_histogram(self, chip, wafer):
        widths, counts = chip.width_class_histogram()
        result = run_chip_wafer(wafer, chip, n_trials=8, seed_key=(15,))
        assert result.widths_nm == widths
        assert result.device_counts == counts
        assert result.device_count == chip.device_count

    def test_chunk_layout_change_preserves_statistics(
        self, chip, wafer, monkeypatch
    ):
        # Different chunking, same streams-per-chunk layout change: the
        # estimates remain valid (means over the same number of trials).
        a = run_chip_wafer(wafer, chip, n_trials=32, seed_key=(17,))
        monkeypatch.setattr(engine, "DEFAULT_BATCH_ELEMENTS", 1)
        b = run_chip_wafer(wafer, chip, n_trials=32, seed_key=(17,))
        for da, db in zip(a.dice, b.dice):
            assert da.n_trials == db.n_trials == 32


class TestMisalignmentDerating:
    def test_derating_raises_eq23_and_keeps_direct(self, chip):
        wafer = WaferGrowthModel(
            center_pitch_nm=4.0,
            die_size_mm=25.0,
            center_misalignment_deg=0.3,
            edge_misalignment_deg=1.5,
        ).generate(np.random.default_rng(4))
        base = run_chip_wafer(wafer, chip, n_trials=32, seed_key=(19,))
        model = MisalignmentImpactModel(
            band_width_nm=103.0, cnt_length_um=200.0,
            min_cnfet_density_per_um=1.8,
        )
        derated = run_chip_wafer(
            wafer, chip, n_trials=32, seed_key=(19,), misalignment=model,
        )
        for a, b in zip(base.dice, derated.dice):
            assert b.relaxation_factor >= 1.0
            assert b.relaxation_factor == model.relaxation_for_angle(
                b.misalignment_deg
            )
            # Direct indicators are realised counts — never de-rated.
            assert a.chip_yield == b.chip_yield
            assert a.mean_failing_devices == b.mean_failing_devices
            # The Eq. 2.3 view relaxes: class probabilities divide by R.
            for p_raw, p_der in zip(
                a.class_failure_probabilities, b.class_failure_probabilities
            ):
                assert p_der == pytest.approx(
                    p_raw / b.relaxation_factor, rel=1e-12
                )
            assert b.eq23_chip_yield >= a.eq23_chip_yield - 1e-12


class TestReporting:
    def test_summary_rows_and_map(self, chip, wafer):
        result = run_chip_wafer(wafer, chip, n_trials=16, seed_key=(21,))
        rows = chip_wafer_summary_rows(result)
        assert rows[-1]["zone"] == "wafer"
        assert rows[-1]["dies"] == result.die_count
        table = render_table(rows, columns=CHIP_WAFER_SUMMARY_COLUMNS)
        assert "mean_eq23_yield" in table
        lines = wafer_map_lines(result.dice, result.die_yields())
        assert len(lines) >= 1
        assert sum(line.count("#") + line.count(".") for line in lines) == (
            result.die_count
        )

    def test_aggregates(self, chip, wafer):
        result = run_chip_wafer(wafer, chip, n_trials=16, seed_key=(23,))
        yields = result.die_yields()
        assert result.mean_chip_yield == pytest.approx(float(np.mean(yields)))
        assert result.expected_good_dice == pytest.approx(float(np.sum(yields)))
        assert 0.0 <= result.good_die_fraction <= 1.0
        for die in result.dice:
            assert die.radius_mm == pytest.approx(
                math.hypot(die.x_mm, die.y_mm)
            )
            assert die.cnt_density_per_um == pytest.approx(
                1.0e3 / die.mean_pitch_nm
            )


class TestValidation:
    def test_rejects_bad_arguments(self, chip, wafer):
        with pytest.raises(ValueError):
            run_chip_wafer(wafer, chip, n_trials=0)
        with pytest.raises(ValueError):
            run_chip_wafer(
                wafer, chip, n_trials=8, execution=Execution(n_workers=0)
            )
        with pytest.raises(ValueError):
            run_chip_wafer(wafer, chip, n_trials=8, good_die_threshold=2.0)
        with pytest.raises(ValueError):
            chip_per_die_loop(wafer, chip, n_trials=0)

    def test_empty_wafer(self, chip):
        empty = WaferMap(wafer_diameter_mm=100.0, die_size_mm=10.0, sites=())
        result = run_chip_wafer(empty, chip, n_trials=8)
        assert result.die_count == 0
        assert result.good_die_fraction == 0.0
        assert np.isnan(result.mean_chip_yield)
