"""Hypothesis property tests for the wafer runner and pitch rescaling.

The properties pinned here are the ones that make the stacked runner
trustworthy at scale:

* the wafer result is exactly the combination of independent per-die runs
  under the same spawn keys (no hidden coupling through the stack);
* die ordering and worker count never change a single bit;
* per-die density rescaling round-trips through
  :meth:`~repro.growth.pitch.PitchDistribution.with_mean` (same family,
  same CV, exact mean).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.growth.pitch import (
    DeterministicPitch,
    ExponentialPitch,
    GammaPitch,
    TruncatedNormalPitch,
    pitch_distribution_from_cv,
)
from repro.growth.types import CNTTypeModel
from repro.growth.wafer import WaferMap
from repro.montecarlo.wafer_sim import per_die_loop, simulate_die, simulate_wafer
from repro.resilience import Execution

TYPE_MODEL = CNTTypeModel(1.0 / 3.0, 1.0, 0.3)

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _wafer_from_pitches(pitches_nm) -> WaferMap:
    """Small synthetic wafer with explicitly chosen per-die pitches."""
    from repro.growth.wafer import DieSite

    sites = tuple(
        DieSite(
            column=i % 3, row=i // 3,
            x_mm=float(5 * (i % 3)), y_mm=float(5 * (i // 3)),
            mean_pitch_nm=float(p), misalignment_deg=0.0,
        )
        for i, p in enumerate(pitches_nm)
    )
    return WaferMap(wafer_diameter_mm=60.0, die_size_mm=10.0, sites=sites)


die_pitches = st.lists(
    st.floats(min_value=3.0, max_value=8.0), min_size=2, max_size=5
)


class TestWaferCombinationProperties:
    @SETTINGS
    @given(pitches=die_pitches, seed=st.integers(0, 2**31 - 1))
    def test_wafer_equals_combination_of_independent_die_runs(
        self, pitches, seed
    ):
        wafer = _wafer_from_pitches(pitches)
        result = simulate_wafer(
            wafer, ExponentialPitch(4.0), TYPE_MODEL, [80.0, 120.0],
            [50.0, 30.0], n_trials=64, seed_key=(seed,),
        )
        independent = [
            simulate_die(
                site, ExponentialPitch(4.0), TYPE_MODEL, [80.0, 120.0],
                [50.0, 30.0], n_trials=64, seed_key=(seed,),
            )
            for site in sorted(wafer.sites, key=lambda s: (s.column, s.row))
        ]
        assert list(result.dice) == independent
        # Aggregates are exactly the weighted combination of the per-die runs.
        yields = np.array([d.chip_yield for d in independent])
        assert result.mean_chip_yield == float(np.mean(yields))
        assert result.expected_good_dice == float(np.sum(yields))
        assert result.good_die_fraction == float(
            np.mean(yields >= result.good_die_threshold)
        )

    @SETTINGS
    @given(
        pitches=die_pitches,
        seed=st.integers(0, 2**31 - 1),
        order_seed=st.integers(0, 2**31 - 1),
    )
    def test_die_ordering_invariance(self, pitches, seed, order_seed):
        wafer = _wafer_from_pitches(pitches)
        shuffled_sites = list(wafer.sites)
        np.random.default_rng(order_seed).shuffle(shuffled_sites)
        shuffled = WaferMap(
            wafer_diameter_mm=wafer.wafer_diameter_mm,
            die_size_mm=wafer.die_size_mm,
            sites=tuple(shuffled_sites),
        )
        kwargs = dict(n_trials=48, seed_key=(seed,))
        a = simulate_wafer(wafer, ExponentialPitch(4.0), TYPE_MODEL,
                           [100.0], **kwargs)
        b = simulate_wafer(shuffled, ExponentialPitch(4.0), TYPE_MODEL,
                           [100.0], **kwargs)
        assert a == b

    @SETTINGS
    @given(
        pitches=die_pitches,
        seed=st.integers(0, 2**31 - 1),
        n_workers=st.integers(2, 4),
    )
    def test_n_workers_invariance(self, pitches, seed, n_workers):
        wafer = _wafer_from_pitches(pitches)
        kwargs = dict(n_trials=32, seed_key=(seed,))
        serial = simulate_wafer(wafer, GammaPitch(4.0, 0.7), TYPE_MODEL,
                                [90.0], **kwargs)
        pooled = simulate_wafer(wafer, GammaPitch(4.0, 0.7), TYPE_MODEL,
                                [90.0], execution=Execution(n_workers=n_workers),
                                **kwargs)
        assert serial == pooled

    @SETTINGS
    @given(pitches=die_pitches, seed=st.integers(0, 2**31 - 1))
    def test_per_die_loop_is_order_invariant_too(self, pitches, seed):
        wafer = _wafer_from_pitches(pitches)
        reversed_map = WaferMap(
            wafer_diameter_mm=wafer.wafer_diameter_mm,
            die_size_mm=wafer.die_size_mm,
            sites=tuple(reversed(wafer.sites)),
        )
        kwargs = dict(n_trials=32, seed_key=(seed,))
        assert per_die_loop(
            wafer, ExponentialPitch(4.0), TYPE_MODEL, [100.0], **kwargs
        ) == per_die_loop(
            reversed_map, ExponentialPitch(4.0), TYPE_MODEL, [100.0], **kwargs
        )


class TestWithMeanRoundTrip:
    """Per-die density rescaling goes through ``PitchDistribution.with_mean``."""

    @SETTINGS
    @given(
        mean=st.floats(min_value=0.5, max_value=50.0),
        cv=st.floats(min_value=0.0, max_value=2.0),
        density_per_um=st.floats(min_value=50.0, max_value=500.0),
    )
    def test_density_round_trip_preserves_family_and_cv(
        self, mean, cv, density_per_um
    ):
        pitch = pitch_distribution_from_cv(mean, cv)
        local = pitch.with_mean(1.0e3 / density_per_um)
        assert type(local) is type(pitch)
        assert local.mean_nm == pytest.approx(1.0e3 / density_per_um, rel=1e-12)
        assert local.density_per_nm * 1.0e3 == pytest.approx(
            density_per_um, rel=1e-12
        )
        if cv > 0:
            assert local.cv == pytest.approx(pitch.cv, rel=1e-9)
        # Rescaling back recovers the original distribution's moments.
        back = local.with_mean(pitch.mean_nm)
        assert back.mean_nm == pytest.approx(pitch.mean_nm, rel=1e-12)
        assert back.std_nm == pytest.approx(pitch.std_nm, rel=1e-9)

    @SETTINGS
    @given(
        mean=st.floats(min_value=2.0, max_value=20.0),
        factor=st.floats(min_value=0.25, max_value=4.0),
    )
    def test_truncated_normal_with_mean_hits_truncated_mean(self, mean, factor):
        pitch = TruncatedNormalPitch(nominal_mean_nm=mean,
                                     nominal_std_nm=0.4 * mean)
        target = pitch.mean_nm * factor
        rescaled = pitch.with_mean(target)
        assert rescaled.mean_nm == pytest.approx(target, rel=1e-9)
        assert rescaled.cv == pytest.approx(pitch.cv, rel=1e-9)

    def test_deterministic_pitch_round_trip(self):
        pitch = DeterministicPitch(5.0)
        assert pitch.with_mean(2.5).pitch_nm == 2.5
        assert pitch.with_mean(2.5).with_mean(5.0) == pitch
