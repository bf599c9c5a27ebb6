"""Tests for the full-chip Monte Carlo simulator."""

import numpy as np
import pytest

from repro.cells.aligned_active import enforce_aligned_active
from repro.cells.nangate45 import build_nangate45_library
from repro.core.count_model import PoissonCountModel
from repro.core.failure import CNFETFailureModel
from repro.growth.pitch import ExponentialPitch
from repro.growth.types import CNTTypeModel
from repro.montecarlo.chip_sim import (
    ChipMonteCarlo,
    _chip_window_counts_joint,
    _chunk_queries,
    _kept_fraction,
    _short_marks,
    compare_libraries,
)
from repro.montecarlo.engine import sample_track_batch
from repro.netlist.design import Design
from repro.netlist.placement import RowPlacement


@pytest.fixture(scope="module")
def library():
    return build_nangate45_library()


def small_block(library, n_cells=120):
    """A small block of minimum-size inverters and NAND gates."""
    design = Design("block", library)
    for i in range(n_cells):
        cell = "INV_X1" if i % 2 == 0 else "NAND2_X1"
        design.add(f"u{i}", cell)
    return design


@pytest.fixture(scope="module")
def placement(library):
    return RowPlacement(small_block(library), row_width_nm=40_000.0)


class TestChipMonteCarlo:
    def test_device_count_matches_design(self, library, placement):
        simulator = ChipMonteCarlo(placement)
        design_transistors = small_block(library).transistor_count
        assert simulator.device_count == design_transistors
        assert 0 < simulator.small_device_count <= simulator.device_count

    def test_ideal_process_never_fails(self, placement, rng):
        simulator = ChipMonteCarlo(
            placement,
            pitch=ExponentialPitch(4.0),
            type_model=CNTTypeModel(metallic_fraction=0.0,
                                    removal_prob_semiconducting=0.0),
        )
        result = simulator.run(10, rng)
        assert result.chip_yield == 1.0
        assert result.mean_failing_devices == 0.0

    def test_all_metallic_always_fails(self, placement, rng):
        simulator = ChipMonteCarlo(
            placement,
            type_model=CNTTypeModel(metallic_fraction=1.0),
        )
        result = simulator.run(3, rng)
        assert result.chip_yield == 0.0
        assert result.mean_failing_devices == simulator.device_count

    def test_failure_rate_matches_analytic_scale(self, placement, rng):
        # Sparse growth (20 nm pitch) makes per-device failures measurable
        # (a long-run device failure rate of ~0.045 on this block).  The
        # mean failing-device count must match Σ counts · pF(W) (Eq. 2.2)
        # in units of its standard error.
        type_model = CNTTypeModel(1.0 / 3.0, 1.0, 0.3)
        simulator = ChipMonteCarlo(
            placement, pitch=ExponentialPitch(20.0), type_model=type_model
        )
        result = simulator.run(400, rng)
        model = CNFETFailureModel.from_type_model(
            PoissonCountModel(20.0), type_model
        )
        widths, counts = simulator.width_class_histogram()
        # A zero-width window captures no tube, so its device always fails.
        expected = sum(
            c * (model.failure_probability(w) if w > 0 else 1.0)
            for w, c in zip(widths, counts)
        )
        se = result.std_failing_devices / np.sqrt(result.n_trials)
        assert se > 0
        assert abs(result.mean_failing_devices - expected) / se < 5.0

    def test_failures_cluster_on_shared_tracks(self, placement, rng):
        # Devices in the same row share tubes, so the failing-device count
        # is over-dispersed relative to independent (Poisson-like) failures.
        simulator = ChipMonteCarlo(
            placement,
            pitch=ExponentialPitch(20.0),
            type_model=CNTTypeModel(1.0 / 3.0, 1.0, 0.3),
        )
        result = simulator.run(40, rng)
        assert result.failure_clustering_index > 1.5

    def test_invalid_trials(self, placement, rng):
        simulator = ChipMonteCarlo(placement)
        with pytest.raises(ValueError):
            simulator.run(0, rng)

    def test_empty_design_rejected(self, library):
        design = Design("empty", library)
        design.add("u0", "FILLCELL_X1")  # no transistors
        placement = RowPlacement(design, row_width_nm=10_000.0)
        with pytest.raises(ValueError):
            ChipMonteCarlo(placement)

    def test_short_row_height_clamps_windows(self, library, placement, rng):
        # An explicit row height below some active regions must clamp every
        # window into [0, row_height]: the batched counter requires in-span
        # queries, and devices with no in-span coverage must count as
        # failing in both engines (they capture no tracks).
        simulator = ChipMonteCarlo(
            placement,
            pitch=ExponentialPitch(4.0),
            type_model=CNTTypeModel(metallic_fraction=0.0,
                                    removal_prob_semiconducting=0.0),
            row_height_nm=50.0,
        )
        geometry = simulator._geometry
        assert np.all(geometry.window_lo >= 0.0)
        assert np.all(geometry.window_hi >= geometry.window_lo)
        assert np.all(geometry.window_hi <= 50.0)
        out_of_span = int(
            geometry.window_weight[geometry.window_lo == geometry.window_hi].sum()
        )
        assert out_of_span > 0  # the short span must actually cut regions off
        result = simulator.run(8, rng)
        assert result.mean_failing_devices >= out_of_span
        assert result.mean_failing_devices <= simulator.device_count

    def test_windowless_design_with_explicit_height(self, library, rng):
        # An explicit row height bypasses the no-transistor rejection; both
        # engines must then agree that nothing can fail.
        design = Design("empty", library)
        design.add("u0", "FILLCELL_X1")
        placement = RowPlacement(design, row_width_nm=10_000.0)
        simulator = ChipMonteCarlo(placement, row_height_nm=1_400.0)
        vectorized = simulator.run(4, rng)
        scalar = simulator.run_scalar(4, rng)
        assert vectorized.mean_failing_devices == 0.0
        assert scalar.mean_failing_devices == 0.0
        assert vectorized.chip_yield == scalar.chip_yield == 1.0


class TestLibraryComparison:
    def test_aligned_library_improves_yield_metrics(self, library):
        design = small_block(library, n_cells=80)
        aligned_library = enforce_aligned_active(library, wmin_nm=103.0).to_library(
            "nangate45_aligned"
        )
        aligned_design = Design("block_aligned", aligned_library)
        for instance in design.instances:
            aligned_design.add_instance(instance)

        results = compare_libraries(
            RowPlacement(design, row_width_nm=40_000.0),
            RowPlacement(aligned_design, row_width_nm=40_000.0),
            type_model=CNTTypeModel(1.0 / 3.0, 1.0, 0.3),
            pitch=ExponentialPitch(20.0),
            n_trials=30,
            seed=3,
        )
        original, aligned = results["original"], results["aligned"]
        # Upsizing the critical devices to Wmin lowers the per-device failure
        # rate, which (together with clustering) raises the chip yield.
        assert aligned.device_failure_rate < original.device_failure_rate
        assert aligned.chip_yield >= original.chip_yield


class TestWindowCountsAgainstScalarCounts:
    """The chunk kernel's window counts, recounted window by window."""

    @pytest.mark.parametrize("removal_eta", [1.0, 0.9])
    def test_counts_equal_per_window_recount(self, placement, removal_eta):
        # Replaying the chunk's stream gives the same kept-tube positions
        # and short marks; each window is then counted on its own trial's
        # column by comparisons, with the validity mask the kernel leaves
        # out.
        type_model = CNTTypeModel(1.0 / 3.0, removal_eta, 0.3)
        geometry = ChipMonteCarlo(
            placement, pitch=ExponentialPitch(20.0), type_model=type_model
        ).chip_geometry()
        n_chunk = 3
        working, shorts, _ = _chip_window_counts_joint(
            geometry, n_chunk, np.random.default_rng(8)
        )
        replay = np.random.default_rng(8)
        keep = _kept_fraction(geometry)
        batch = sample_track_batch(
            geometry.pitch.thinned(keep), geometry.row_height_nm,
            n_chunk * geometry.n_rows, replay,
            offset_mean_nm=geometry.pitch.mean_nm,
        )
        q = geometry.short_probability
        marked = np.zeros(batch.positions.shape, dtype=bool)
        if q > 0.0:
            marked.ravel()[_short_marks(replay, marked.size, q / keep)] = True
        n_windows = geometry.window_lo.size
        want_working = np.zeros((n_chunk, n_windows))
        want_shorts = np.zeros((n_chunk, n_windows))
        for t in range(n_chunk):
            for w in range(n_windows):
                column = t * geometry.n_rows + geometry.window_row[w]
                y = batch.positions[:, column]
                tubes = (
                    (y >= geometry.window_lo[w]) & (y <= geometry.window_hi[w])
                    & batch.valid[:, column]
                )
                want_working[t, w] = np.count_nonzero(tubes & ~marked[:, column])
                want_shorts[t, w] = np.count_nonzero(tubes & marked[:, column])
        np.testing.assert_array_equal(working, want_working)
        if q > 0.0:
            assert shorts.any()
            np.testing.assert_array_equal(shorts, want_shorts)
        else:
            assert shorts is None


class TestChunkQueries:
    """The window queries both chip kernels count a chunk with."""

    @pytest.mark.parametrize("n_chunk", [1, 3, 32])
    def test_query_names_window_of_its_chip_trial(self, placement, n_chunk):
        geometry = ChipMonteCarlo(placement).chip_geometry()
        trial_index, lo, hi = _chunk_queries(geometry, n_chunk)
        n_windows = geometry.window_lo.size
        assert trial_index.shape == lo.shape == hi.shape == (n_chunk, n_windows)
        for t in range(n_chunk):
            for w in range(n_windows):
                assert trial_index[t, w] == t * geometry.n_rows + geometry.window_row[w]
                assert lo[t, w] == geometry.window_lo[w]
                assert hi[t, w] == geometry.window_hi[w]

    def test_bounds_are_views_of_the_geometry(self, placement):
        # No per-chunk copy: the bounds read the geometry's own arrays.
        geometry = ChipMonteCarlo(placement).chip_geometry()
        _, lo, hi = _chunk_queries(geometry, 16)
        assert np.shares_memory(lo, geometry.window_lo)
        assert np.shares_memory(hi, geometry.window_hi)
