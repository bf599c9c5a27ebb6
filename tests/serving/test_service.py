"""Tests for the batched YieldService: correctness, bounds, fallbacks."""

import math

import numpy as np
import pytest

from repro.core.circuit_yield import yield_from_uniform_failure_probability
from repro.core.correlation import CorrelationParameters, LayoutScenario, RowYieldModel
from repro.serving import YieldService
from repro.surface import GridAxis, SurfaceBuilder, SurfaceStore, SweepSpec

W_AXIS = GridAxis.from_range("width_nm", 40.0, 300.0, 17)
D_AXIS = GridAxis.from_range("cnt_density_per_um", 150.0, 400.0, 9)


@pytest.fixture(scope="module")
def device_surface():
    return SurfaceBuilder(
        SweepSpec(width_axis=W_AXIS, density_axis=D_AXIS)
    ).build()


@pytest.fixture(scope="module")
def aligned_surface():
    return SurfaceBuilder(
        SweepSpec(
            scenario="directional_aligned", width_axis=W_AXIS, density_axis=D_AXIS
        )
    ).build()


def exact_log_pf(width, density, per_cnt_failure=0.5333333333333333):
    return -(width * density / 1000.0) * (1.0 - per_cnt_failure)


class TestInterpolatedQueries:
    def test_matches_exact_closed_form_within_bounds(self, device_surface):
        service = YieldService()
        key = service.register(device_surface)
        rng = np.random.default_rng(3)
        w = rng.uniform(45.0, 295.0, 4096)
        d = rng.uniform(155.0, 395.0, 4096)
        result = service.query(key, w, d, device_count=3.3e7)
        exact = np.exp(exact_log_pf(w, d))
        assert result.bounds_contain(exact).all()
        np.testing.assert_allclose(result.failure_probability, exact, rtol=1e-9)
        assert result.interpolated.all()
        assert result.n_fallback == 0

    def test_chip_yield_matches_eq23(self, device_surface):
        service = YieldService()
        key = service.register(device_surface)
        result = service.query(key, np.array([178.0]), device_count=1e8)
        p = result.failure_probability[0]
        expected = yield_from_uniform_failure_probability(p, 1e8)
        assert result.chip_yield[0] == pytest.approx(expected, rel=1e-12)
        assert result.yield_lower[0] <= expected <= result.yield_upper[0]

    def test_default_density_is_family_reference(self, device_surface):
        service = YieldService()
        key = service.register(device_surface)
        implicit = service.query(key, np.array([100.0]))
        explicit = service.query(
            key, np.array([100.0]), cnt_density_per_um=np.array([250.0])
        )
        assert implicit.failure_probability[0] == pytest.approx(
            explicit.failure_probability[0]
        )

    def test_scalar_density_broadcasts(self, device_surface):
        service = YieldService()
        key = service.register(device_surface)
        result = service.query(
            key, np.array([80.0, 120.0]), cnt_density_per_um=np.array([250.0])
        )
        assert result.n_queries == 2

    def test_device_count_array(self, device_surface):
        service = YieldService()
        key = service.register(device_surface)
        counts = np.array([1e6, 1e8])
        result = service.query(
            key, np.array([178.0, 178.0]), device_count=counts
        )
        assert result.chip_yield[0] > result.chip_yield[1]

    @pytest.mark.parametrize(
        "device_count", [math.nan, np.array([1e6, math.nan])]
    )
    def test_nan_device_count_rejected(self, device_surface, device_count):
        # A NaN count must not read as a perfect chip yield.
        service = YieldService()
        key = service.register(device_surface)
        with pytest.raises(ValueError, match="device_count"):
            service.query(key, np.array([80.0, 120.0]), device_count=device_count)

    def test_device_counts_pair_with_queries(self, device_surface):
        service = YieldService()
        key = service.register(device_surface)
        widths = np.array([80.0, 120.0, 160.0])
        counts = np.array([1e6, 1e7, 1e8])
        flat = service.query(key, widths, device_count=counts)
        column = service.query(key, widths, device_count=counts[:, None])
        np.testing.assert_array_equal(column.chip_yield, flat.chip_yield)
        np.testing.assert_array_equal(column.yield_lower, flat.yield_lower)
        with pytest.raises(ValueError, match="device_count"):
            service.query(key, widths, device_count=counts[:2])

    def test_surface_constants_match_metadata(self, device_surface, aligned_surface):
        params = CorrelationParameters(**aligned_surface.metadata["correlation"])
        assert aligned_surface.devices_per_row == params.devices_per_row
        assert device_surface.reference_density_per_um == 250.0
        assert device_surface.key == f"device-{device_surface.content_hash[:12]}"

    def test_row_scenario_uses_row_count(self, aligned_surface):
        service = YieldService()
        key = service.register(aligned_surface)
        m_min = 3.3e7
        result = service.query(key, np.array([103.0]), device_count=m_min)
        params = CorrelationParameters(
            **aligned_surface.metadata["correlation"]
        )
        model = RowYieldModel(parameters=params)
        evaluated = model.evaluate(
            LayoutScenario.DIRECTIONAL_ALIGNED,
            result.failure_probability[0],
            m_min,
        )
        assert result.chip_yield[0] == pytest.approx(
            evaluated.chip_yield, rel=1e-9
        )


class TestFallbacks:
    def test_exact_fallback_outside_grid(self, device_surface):
        service = YieldService()
        key = service.register(device_surface)
        result = service.query(
            key,
            np.array([10.0, 100.0]),
            cnt_density_per_um=np.array([250.0, 250.0]),
        )
        assert not result.interpolated[0] and result.interpolated[1]
        assert result.n_fallback == 1
        assert result.failure_probability[0] == pytest.approx(
            math.exp(exact_log_pf(10.0, 250.0)), rel=1e-12
        )
        # Exact fallback on a closed-form surface is error-free.
        assert result.failure_lower[0] == pytest.approx(
            result.failure_upper[0], rel=1e-12
        )

    def test_fallback_none_raises(self, device_surface):
        service = YieldService()
        key = service.register(device_surface)
        with pytest.raises(ValueError, match="outside the surface grid"):
            service.query(key, np.array([10.0]), fallback="none")

    def test_mc_fallback_agrees_with_closed_form(self, device_surface):
        service = YieldService(n_sigma=5.0)
        key = service.register(device_surface)
        result = service.query(
            key, np.array([320.0]), fallback="mc", mc_samples=4_000
        )
        exact = math.exp(exact_log_pf(320.0, 250.0))
        assert result.failure_lower[0] <= exact <= result.failure_upper[0]
        # MC answers carry nonzero statistical bounds.
        assert result.failure_upper[0] > result.failure_lower[0]

    def test_mc_fallback_respects_sample_count(self, device_surface):
        # A repeat query with a larger sample budget must re-estimate, not
        # replay the cached low-sample answer.
        service = YieldService()
        key = service.register(device_surface)
        coarse = service.query(
            key, np.array([320.0]), fallback="mc", mc_samples=500
        )
        fine = service.query(
            key, np.array([320.0]), fallback="mc", mc_samples=20_000
        )
        coarse_width = coarse.failure_upper[0] / coarse.failure_lower[0]
        fine_width = fine.failure_upper[0] / fine.failure_lower[0]
        assert fine_width < coarse_width

    def test_unknown_fallback_mode_rejected(self, device_surface):
        service = YieldService()
        key = service.register(device_surface)
        with pytest.raises(ValueError, match="unknown fallback"):
            service.query(key, np.array([100.0]), fallback="wishful")


class TestSurfaceResolution:
    def test_register_and_query_by_key(self, device_surface):
        service = YieldService()
        key = service.register(device_surface)
        assert service.query(key, np.array([100.0])).n_queries == 1

    def test_unknown_key_without_store_raises(self):
        service = YieldService()
        with pytest.raises(KeyError):
            service.query("device-cafecafecafe", np.array([100.0]))

    def test_store_load_through_and_cache_hit(self, device_surface, tmp_path):
        store = SurfaceStore(tmp_path)
        store.save(device_surface)
        service = YieldService(store=store)
        service.query(device_surface.key, np.array([100.0]))
        service.query(device_surface.key[:10], np.array([110.0]))
        stats = service.cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_store_accepts_path_string(self, device_surface, tmp_path):
        SurfaceStore(tmp_path).save(device_surface)
        service = YieldService(store=str(tmp_path))
        result = service.query("device", np.array([100.0]))
        assert result.n_queries == 1

    def test_persist_requires_store(self, device_surface):
        with pytest.raises(ValueError, match="without a SurfaceStore"):
            YieldService().register(device_surface, persist=True)

    def test_persist_writes_artifact(self, device_surface, tmp_path):
        store = SurfaceStore(tmp_path)
        service = YieldService(store=store)
        service.register(device_surface, persist=True)
        assert store.keys() == [device_surface.key]

    def test_unpersisted_surface_resolvable_on_store_backed_service(
        self, device_surface, aligned_surface, tmp_path
    ):
        # A store-backed service must still answer for surfaces that were
        # registered in memory only (never persisted to the store).
        store = SurfaceStore(tmp_path)
        store.save(device_surface)
        service = YieldService(store=store)
        key = service.register(aligned_surface)
        assert service.query(key, np.array([100.0])).n_queries == 1

    def test_mismatched_query_shapes_rejected(self, device_surface):
        service = YieldService()
        key = service.register(device_surface)
        with pytest.raises(ValueError, match="match in shape"):
            service.query(
                key, np.array([1.0, 2.0]), cnt_density_per_um=np.array([1.0, 2.0, 3.0])
            )

    def test_registered_keys_survive_lru_eviction(self, device_surface,
                                                  aligned_surface):
        # register() promises the key stays queryable; evicting the only
        # in-memory copy of an unpersisted surface must not orphan it.
        service = YieldService(cache_capacity=1)
        first = service.register(device_surface)
        service.register(aligned_surface)   # evicts device_surface from LRU
        assert service.query(first, np.array([100.0])).n_queries == 1

    def test_queries_served_counter(self, device_surface):
        service = YieldService()
        key = service.register(device_surface)
        service.query(key, np.arange(60.0, 70.0))
        assert service.queries_served == 10
