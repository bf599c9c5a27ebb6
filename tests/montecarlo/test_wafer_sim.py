"""Tests for the stacked wafer-level Monte Carlo runner."""

import hashlib
import math

import numpy as np
import pytest

import repro.montecarlo.engine as engine
import repro.montecarlo.wafer_sim as wafer_sim
from repro.backend import NumpyBackend, get_backend
from repro.growth.pitch import ExponentialPitch, GammaPitch
from repro.growth.types import CNTTypeModel
from repro.growth.wafer import WaferGrowthModel, WaferMap
from repro.montecarlo.engine import BLOCK, tight_gap_budget
from repro.resilience import Execution, RetryPolicy
from repro.montecarlo.wafer_sim import (
    die_stream,
    per_die_loop,
    simulate_die,
    simulate_wafer,
)
from repro.reporting.tables import (
    WAFER_SUMMARY_COLUMNS,
    render_table,
    wafer_summary_rows,
)


@pytest.fixture(scope="module")
def wafer():
    return WaferGrowthModel(
        center_pitch_nm=4.0, die_size_mm=20.0
    ).generate(np.random.default_rng(1))


@pytest.fixture(scope="module")
def sparse_type_model():
    return CNTTypeModel(1.0 / 3.0, 1.0, 0.3)


WIDTHS = (90.0, 140.0)
COUNTS = (300.0, 200.0)


class TestStackedRunner:
    def test_die_estimates_match_independent_single_die_runs(
        self, wafer, sparse_type_model
    ):
        # The headline contract: a die group consumes each die's
        # spawn-keyed stream exactly as an independent run of that die.
        result = simulate_wafer(
            wafer, ExponentialPitch(4.0), sparse_type_model, WIDTHS, COUNTS,
            n_trials=256, seed_key=(7,),
        )
        for die in result.dice:
            site = next(
                s for s in wafer.sites
                if (s.column, s.row) == (die.column, die.row)
            )
            alone = simulate_die(
                site, ExponentialPitch(4.0), sparse_type_model, WIDTHS,
                COUNTS, n_trials=256, seed_key=(7,),
            )
            assert alone == die

    def test_poisson_analytic_failure_probability(self, wafer, sparse_type_model):
        # Exponential gaps + uniform offset: N(W) is Poisson(W/µ_die), so
        # E[pf^N] = exp(-(W/µ_die)(1-pf)) exactly, per die.
        pf = sparse_type_model.per_cnt_failure_probability
        result = simulate_wafer(
            wafer, ExponentialPitch(4.0), sparse_type_model, [100.0],
            n_trials=6_000, seed_key=(11,),
        )
        for die in result.dice:
            analytic = math.exp(-(100.0 / die.mean_pitch_nm) * (1.0 - pf))
            estimate = die.failure_probabilities[0]
            se = die.failure_standard_errors[0]
            assert se > 0.0
            assert abs(estimate - analytic) <= 5.0 * se

    def test_matches_per_die_loop_statistically(self, wafer, sparse_type_model):
        pitch = GammaPitch(4.0, 0.6)
        stacked = simulate_wafer(
            wafer, pitch, sparse_type_model, WIDTHS, COUNTS,
            n_trials=2_000, seed_key=(13,),
        )
        loop = per_die_loop(
            wafer, pitch, sparse_type_model, WIDTHS, COUNTS,
            n_trials=2_000, seed_key=(13,),
        )
        for a, b in zip(stacked.dice, loop.dice):
            assert (a.column, a.row) == (b.column, b.row)
            for p1, s1, p2, s2 in zip(
                a.failure_probabilities, a.failure_standard_errors,
                b.failure_probabilities, b.failure_standard_errors,
            ):
                assert abs(p1 - p2) <= 5.0 * math.hypot(s1, s2) + 1e-12

    def test_n_workers_bitwise_invariant(self, wafer, sparse_type_model):
        serial = simulate_wafer(
            wafer, ExponentialPitch(4.0), sparse_type_model, WIDTHS, COUNTS,
            n_trials=64, seed_key=(17,),
        )
        pooled = simulate_wafer(
            wafer, ExponentialPitch(4.0), sparse_type_model, WIDTHS, COUNTS,
            n_trials=64, seed_key=(17,), execution=Execution(n_workers=3),
        )
        assert serial.dice == pooled.dice

    def test_float32_backend_agrees_with_float64(self, wafer, sparse_type_model):
        kwargs = dict(n_trials=512, seed_key=(19,))
        r64 = simulate_wafer(
            wafer, ExponentialPitch(4.0), sparse_type_model, WIDTHS, COUNTS,
            backend=get_backend(dtype="float64"), **kwargs,
        )
        r32 = simulate_wafer(
            wafer, ExponentialPitch(4.0), sparse_type_model, WIDTHS, COUNTS,
            backend=get_backend(dtype="float32"), **kwargs,
        )
        for a, b in zip(r64.dice, r32.dice):
            for p1, s1, p2 in zip(
                a.failure_probabilities, a.failure_standard_errors,
                b.failure_probabilities,
            ):
                assert abs(p1 - p2) <= max(5.0 * s1, 1e-5 * max(p1, 1e-30))

    def test_die_metadata_and_aggregates(self, wafer, sparse_type_model):
        result = simulate_wafer(
            wafer, ExponentialPitch(4.0), sparse_type_model, [120.0], [100.0],
            n_trials=128, seed_key=(23,), good_die_threshold=0.2,
        )
        assert result.die_count == wafer.die_count
        yields = result.die_yields()
        assert np.all((yields >= 0.0) & (yields <= 1.0))
        assert result.mean_chip_yield == pytest.approx(float(yields.mean()))
        assert result.expected_good_dice == pytest.approx(float(yields.sum()))
        assert 0.0 <= result.good_die_fraction <= 1.0
        die = result.dice[0]
        assert die.cnt_density_per_um == pytest.approx(1e3 / die.mean_pitch_nm)
        assert die.radius_mm == pytest.approx(math.hypot(die.x_mm, die.y_mm))

    def test_empty_wafer(self, sparse_type_model):
        empty = WaferMap(wafer_diameter_mm=100.0, die_size_mm=10.0, sites=())
        result = simulate_wafer(
            empty, ExponentialPitch(4.0), sparse_type_model, [120.0],
            n_trials=16,
        )
        assert result.die_count == 0
        assert result.good_die_fraction == 0.0
        assert wafer_summary_rows(result) == []

    def test_validation_errors(self, wafer, sparse_type_model):
        pitch = ExponentialPitch(4.0)
        with pytest.raises(ValueError):
            simulate_wafer(wafer, pitch, sparse_type_model, [], n_trials=8)
        with pytest.raises(ValueError):
            simulate_wafer(wafer, pitch, sparse_type_model, [100.0],
                           n_trials=0)
        with pytest.raises(ValueError):
            simulate_wafer(wafer, pitch, sparse_type_model, [100.0],
                           [1.0, 2.0], n_trials=8)
        with pytest.raises(ValueError):
            simulate_wafer(wafer, pitch, sparse_type_model, [100.0],
                           [-1.0], n_trials=8)
        with pytest.raises(ValueError):
            simulate_wafer(wafer, pitch, sparse_type_model, [100.0],
                           n_trials=8, execution=Execution(n_workers=0))
        with pytest.raises(ValueError):
            simulate_wafer(wafer, pitch, sparse_type_model, [100.0],
                           n_trials=8, good_die_threshold=1.5)

    def test_die_stream_keyed_by_coordinates(self, wafer):
        a, b = wafer.sites[0], wafer.sites[1]
        draw_a = die_stream((5,), a).random(4)
        draw_a2 = die_stream((5,), a).random(4)
        draw_b = die_stream((5,), b).random(4)
        np.testing.assert_array_equal(draw_a, draw_a2)
        assert not np.array_equal(draw_a, draw_b)


class TestWaferSummaryTable:
    def test_radial_rows_cover_all_dice(self, wafer, sparse_type_model):
        result = simulate_wafer(
            wafer, ExponentialPitch(4.0), sparse_type_model, [168.0],
            [1000.0], n_trials=256, seed_key=(31,),
        )
        rows = wafer_summary_rows(result)
        assert rows[-1]["zone"] == "wafer"
        assert rows[-1]["dies"] == result.die_count
        assert sum(r["dies"] for r in rows[:-1]) == result.die_count
        text = render_table(rows, columns=WAFER_SUMMARY_COLUMNS)
        assert "wafer" in text and "good_fraction" in text


class TestMisalignmentDerating:
    """The Sec. 3 analytic relaxation applied per die inside the pass."""

    @pytest.fixture(scope="class")
    def misaligned_wafer(self):
        return WaferGrowthModel(
            center_pitch_nm=4.0,
            die_size_mm=20.0,
            center_misalignment_deg=0.3,
            edge_misalignment_deg=1.5,
        ).generate(np.random.default_rng(7))

    @pytest.fixture(scope="class")
    def model(self):
        from repro.analysis.mispositioned import MisalignmentImpactModel

        return MisalignmentImpactModel(
            band_width_nm=103.0, cnt_length_um=200.0,
            min_cnfet_density_per_um=1.8,
        )

    def test_none_is_bitwise_default(self, misaligned_wafer, sparse_type_model):
        a = simulate_wafer(
            misaligned_wafer, ExponentialPitch(4.0), sparse_type_model,
            WIDTHS, COUNTS, n_trials=64, seed_key=(3,),
        )
        b = simulate_wafer(
            misaligned_wafer, ExponentialPitch(4.0), sparse_type_model,
            WIDTHS, COUNTS, n_trials=64, seed_key=(3,), misalignment=None,
        )
        assert a.dice == b.dice
        assert all(d.relaxation_factor == 1.0 for d in a.dice)

    def test_derated_probabilities_divide_by_relaxation(
        self, misaligned_wafer, sparse_type_model, model
    ):
        base = simulate_wafer(
            misaligned_wafer, ExponentialPitch(4.0), sparse_type_model,
            WIDTHS, COUNTS, n_trials=64, seed_key=(5,),
        )
        derated = simulate_wafer(
            misaligned_wafer, ExponentialPitch(4.0), sparse_type_model,
            WIDTHS, COUNTS, n_trials=64, seed_key=(5,), misalignment=model,
        )
        for a, b in zip(base.dice, derated.dice):
            expected = model.relaxation_for_angle(a.misalignment_deg)
            assert b.relaxation_factor == pytest.approx(expected)
            assert b.relaxation_factor >= 1.0
            for p_raw, p_der, se_raw, se_der in zip(
                a.failure_probabilities, b.failure_probabilities,
                a.failure_standard_errors, b.failure_standard_errors,
            ):
                assert p_der == pytest.approx(
                    p_raw / b.relaxation_factor, rel=1e-12
                )
                assert se_der == pytest.approx(
                    se_raw / b.relaxation_factor, rel=1e-12
                )
            assert b.chip_yield >= a.chip_yield - 1e-12

    def test_loop_matches_stacked_derating(
        self, misaligned_wafer, sparse_type_model, model
    ):
        stacked = simulate_wafer(
            misaligned_wafer, ExponentialPitch(4.0), sparse_type_model,
            [100.0], [500.0], n_trials=4_000, seed_key=(9,),
            misalignment=model,
        )
        loop = per_die_loop(
            misaligned_wafer, ExponentialPitch(4.0), sparse_type_model,
            [100.0], [500.0], n_trials=4_000, seed_key=(9,),
            misalignment=model,
        )
        for a, b in zip(stacked.dice, loop.dice):
            assert a.relaxation_factor == pytest.approx(b.relaxation_factor)
            p1, s1 = a.failure_probabilities[0], a.failure_standard_errors[0]
            p2, s2 = b.failure_probabilities[0], b.failure_standard_errors[0]
            assert abs(p1 - p2) <= 5.0 * math.hypot(s1, s2) + 1e-15

    def test_simulate_die_carries_derating(
        self, misaligned_wafer, sparse_type_model, model
    ):
        site = max(misaligned_wafer.sites,
                   key=lambda s: abs(s.misalignment_deg))
        wafer_run = simulate_wafer(
            misaligned_wafer, ExponentialPitch(4.0), sparse_type_model,
            WIDTHS, COUNTS, n_trials=64, seed_key=(11,), misalignment=model,
        )
        alone = simulate_die(
            site, ExponentialPitch(4.0), sparse_type_model, WIDTHS, COUNTS,
            n_trials=64, seed_key=(11,), misalignment=model,
        )
        in_wafer = next(
            d for d in wafer_run.dice
            if (d.column, d.row) == (site.column, site.row)
        )
        assert alone == in_wafer
        assert alone.relaxation_factor > 1.0 or site.misalignment_deg == 0.0


class TestCorrelatedFieldWaferRuns:
    """Acceptance: correlated-field wafer runs keep every invariance."""

    @pytest.fixture(scope="class")
    def field_wafer(self):
        from repro.growth.spatial import SpatialFieldSpec

        return WaferGrowthModel(
            center_pitch_nm=4.0,
            die_size_mm=20.0,
            density_field=SpatialFieldSpec(sigma=0.05,
                                           correlation_length_mm=25.0),
            misalignment_field=SpatialFieldSpec(sigma=1.0,
                                                correlation_length_mm=30.0),
        ).generate(seed_key=(13,))

    def test_bitwise_invariant_to_order_grouping_workers(self, field_wafer,
                                                         sparse_type_model):
        reference = simulate_wafer(
            field_wafer, ExponentialPitch(4.0), sparse_type_model,
            WIDTHS, COUNTS, n_trials=64, seed_key=(29,),
        )
        shuffled_sites = list(field_wafer.sites)
        np.random.default_rng(0).shuffle(shuffled_sites)
        shuffled = WaferMap(
            wafer_diameter_mm=field_wafer.wafer_diameter_mm,
            die_size_mm=field_wafer.die_size_mm,
            sites=tuple(shuffled_sites),
        )
        reordered = simulate_wafer(
            shuffled, ExponentialPitch(4.0), sparse_type_model,
            WIDTHS, COUNTS, n_trials=64, seed_key=(29,),
        )
        pooled = simulate_wafer(
            field_wafer, ExponentialPitch(4.0), sparse_type_model,
            WIDTHS, COUNTS, n_trials=64, seed_key=(29,),
            execution=Execution(n_workers=3),
        )
        assert reordered.dice == reference.dice
        assert pooled.dice == reference.dice

    def test_reduces_to_radial_only_at_sigma_zero(self, sparse_type_model):
        from repro.growth.spatial import SpatialFieldSpec

        radial = WaferGrowthModel(
            center_pitch_nm=4.0, die_size_mm=20.0, pitch_noise_sigma=0.0,
            center_misalignment_deg=0.0, edge_misalignment_deg=0.0,
        ).generate(np.random.default_rng(1))
        degenerate = WaferGrowthModel(
            center_pitch_nm=4.0, die_size_mm=20.0,
            density_field=SpatialFieldSpec(sigma=0.0,
                                           correlation_length_mm=25.0),
            misalignment_field=SpatialFieldSpec(sigma=0.0,
                                                correlation_length_mm=25.0),
        ).generate(seed_key=(1,))
        a = simulate_wafer(
            radial, ExponentialPitch(4.0), sparse_type_model, WIDTHS,
            COUNTS, n_trials=64, seed_key=(31,),
        )
        b = simulate_wafer(
            degenerate, ExponentialPitch(4.0), sparse_type_model, WIDTHS,
            COUNTS, n_trials=64, seed_key=(31,),
        )
        assert a.dice == b.dice


class TestBitwisePins:
    """SHA-256 digests of whole wafer runs.

    A counting-kernel change that moves any count of any trial changes a
    digest.  The backend is pinned to float64, so the pins hold under
    every ``REPRO_DTYPE``.
    """

    DIGESTS = {
        "exponential":
            "183147058c0102f1c340650d658a049a050e3043da9d91add4eb90e6c86f8f98",
        "gamma_cv05":
            "0ed7e1b341c048bd79022a5554d9ae02a4eb951e0ab615946e3809f58294fe71",
        "shorts":
            "0dfbdeb09e95c22285ab6594e0338a98ed79062baf0329368144aba826f702ab",
        "misaligned":
            "634cb954ce7d84a3b3362673a4ff8408cc3cb28f4499fa72aa5921194aedef11",
    }

    @pytest.fixture(scope="class")
    def field_wafer(self):
        from repro.growth.spatial import SpatialFieldSpec

        return WaferGrowthModel(
            center_pitch_nm=4.0,
            die_size_mm=20.0,
            density_field=SpatialFieldSpec(sigma=0.05,
                                           correlation_length_mm=25.0),
            misalignment_field=SpatialFieldSpec(sigma=1.0,
                                                correlation_length_mm=30.0),
        ).generate(seed_key=(13,))

    @pytest.fixture(scope="class")
    def configs(self, sparse_type_model):
        from repro.analysis.mispositioned import MisalignmentImpactModel

        return {
            "exponential": dict(pitch=ExponentialPitch(4.0),
                                type_model=sparse_type_model),
            # Per-die budgets differ here, so dies draw batches of
            # different widths.
            "gamma_cv05": dict(pitch=GammaPitch(4.0, 0.5),
                               type_model=sparse_type_model),
            "shorts": dict(pitch=ExponentialPitch(4.0),
                           type_model=CNTTypeModel(1.0 / 3.0, 0.9, 0.3)),
            "misaligned": dict(
                pitch=ExponentialPitch(4.0), type_model=sparse_type_model,
                misalignment=MisalignmentImpactModel(
                    band_width_nm=103.0, cnt_length_um=200.0,
                    min_cnfet_density_per_um=1.8,
                ),
            ),
        }

    def test_gamma_budgets_differ_between_dies(self, field_wafer):
        pitch = GammaPitch(4.0, 0.5)
        budgets = {
            tight_gap_budget(pitch.with_mean(s.mean_pitch_nm), max(WIDTHS))
            for s in field_wafer.sites
        }
        assert len(budgets) > 1

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_dice_digest(self, field_wafer, configs, name):
        result = simulate_wafer(
            field_wafer, widths_nm=WIDTHS, device_counts=COUNTS,
            n_trials=128, seed_key=(41,),
            backend=get_backend(dtype="float64"), **configs[name],
        )
        digest = hashlib.sha256(repr(result.dice).encode()).hexdigest()
        assert digest == self.DIGESTS[name]


class _RowCountingBackend(NumpyBackend):
    """NumPy float64 backend that counts the trials it draws gaps for.

    Draws are slot-major, ``(n_slots, n_trials)``.
    """

    def __init__(self):
        super().__init__()
        self.trials_drawn = 0

    def sample_gaps(self, pitch, shape, rng, out=None):
        self.trials_drawn += shape[1]
        return super().sample_gaps(pitch, shape, rng, out)


def test_one_block_budget_tops_up_most_trials_and_stays_exact(
    monkeypatch, wafer, sparse_type_model
):
    # With a single-block first draw nearly every trial needs top-up
    # rounds; the appended blocks are counted exactly, so each class
    # still matches the Poisson closed form of exponential gaps.
    monkeypatch.setattr(engine, "tight_gap_budget", lambda pitch, span: BLOCK)
    backend = _RowCountingBackend()
    widths = (30.0, 60.0)
    n_trials = 2_000
    result = simulate_wafer(
        wafer, ExponentialPitch(4.0), sparse_type_model, widths,
        n_trials=n_trials, seed_key=(43,), backend=backend,
    )
    first_draw_trials = result.die_count * n_trials
    assert backend.trials_drawn - first_draw_trials > first_draw_trials
    pf = sparse_type_model.per_cnt_failure_probability
    for q, width in enumerate(widths):
        lam = np.array([width / d.mean_pitch_nm for d in result.dice])
        mean = np.exp(-lam * (1.0 - pf))
        var = np.exp(-lam * (1.0 - pf * pf)) - mean ** 2
        total = sum(d.failure_probabilities[q] for d in result.dice)
        z = (total - mean.sum()) / math.sqrt(var.sum() / n_trials)
        assert abs(z) < 5.0


def test_retried_die_group_leaves_a_held_slab_alone(
    monkeypatch, wafer, sparse_type_model
):
    # Die groups run in a buffer-pool scope.  A first attempt that fails
    # while something still holds its pooled track batch must not have
    # that slab handed to the retry: the held array stays intact and the
    # retried wafer equals a clean run bit for bit.
    run = dict(
        wafer=wafer, pitch=ExponentialPitch(4.0), type_model=sparse_type_model,
        widths_nm=WIDTHS, device_counts=COUNTS, n_trials=256, seed_key=(47,),
    )
    clean = simulate_wafer(**run)
    held = []
    search = wafer_sim.count_leq_rows

    def fail_first_search(positions, bounds, *args, **kwargs):
        if not held:
            held.append((positions, positions.copy()))
            raise RuntimeError("injected failure holding a pooled batch")
        return search(positions, bounds, *args, **kwargs)

    monkeypatch.setattr(wafer_sim, "count_leq_rows", fail_first_search)
    retried = simulate_wafer(
        **run, execution=Execution(policy=RetryPolicy(max_retries=1, backoff_s=0.0))
    )
    positions, snapshot = held[0]
    assert positions.base.dtype == np.uint8  # a view of a pool slab
    np.testing.assert_array_equal(positions, snapshot)
    assert retried == clean
