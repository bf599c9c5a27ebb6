"""Monte Carlo simulation of placement rows under the three Table 1 scenarios.

The analytical row yield model (Eq. 3.1) relies on two idealisations: perfect
track sharing for aligned devices within a CNT length, and complete
independence beyond it.  This simulator checks the resulting row failure
probabilities by building rows device by device:

* **Uncorrelated growth** — every device draws its own independent set of
  tubes.
* **Directional growth, aligned layout** — one set of CNT tracks is drawn
  for the whole row segment (one CNT length); every device covers exactly
  the same y-band, hence the same tracks.
* **Directional growth, non-aligned layout** — one set of tracks per
  segment, but each device sits at a random y offset within the cell
  height, so it covers a partially different subset of tracks.

Because realistic row failure probabilities (1e-8) are too small for direct
0/1 Monte Carlo, the simulator follows the same Rao-Blackwellisation idea as
:mod:`repro.montecarlo.device_sim`: tube *positions* are sampled, while the
per-tube type/removal outcome is integrated analytically wherever devices do
not share tubes, and sampled only for the shared tracks.  For validation at
moderate probabilities the plain indicator estimator is available as well.

The default estimators are batched array programs over the sample axis,
built on :mod:`repro.montecarlo.engine`: all track sets of all samples come
from one slot-major 2D gap draw and running sum
(:func:`~repro.montecarlo.engine.sample_track_batch`), and the non-aligned
scenario resolves every (sample, device-offset) window with one pass of
column-local searches and running counts
(:func:`~repro.montecarlo.engine.count_in_windows`).  The original per-sample
scalar samplers are retained (``vectorized=False``) as the oracle for the
statistical-equivalence tests.

Rare-event sampling
-------------------
Realistic row failure probabilities sit far below what indicator sampling
can resolve; :meth:`RowMonteCarlo.estimate` therefore accepts an opt-in
``sampler=`` strategy backed by :mod:`repro.montecarlo.rare_event`:
``"tilted"`` runs the closed-form scenarios (aligned, uncorrelated) under
an exponentially tilted gap distribution with per-sample likelihood-ratio
weights, and ``"splitting"`` runs adaptive multilevel splitting — the
fallback for the non-aligned layout, whose failure event has no closed-form
tilt.  Both reach row failure probabilities of 1e-9 and below directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

import repro.montecarlo.rare_event as rare_event
from repro.core.correlation import LayoutScenario
from repro.growth.pitch import PitchDistribution, pitch_distribution_from_cv
from repro.growth.types import CNTTypeModel
from repro.montecarlo.engine import (
    DEFAULT_BATCH_ELEMENTS,
    count_in_windows,
    estimate_gap_count,
    sample_track_batch,
    sample_track_counts,
)
from repro.units import ensure_positive, um_to_nm


@dataclass(frozen=True)
class RowScenarioConfig:
    """Geometry of one simulated row segment.

    Parameters
    ----------
    device_width_nm:
        Width W of every (minimum-size, post-upsizing) device in the row.
    devices_per_segment:
        Number of small devices sharing one CNT length (MRmin).
    cell_height_window_nm:
        Vertical span within which non-aligned devices may be offset; the
        aligned scenario uses a zero offset.
    """

    device_width_nm: float
    devices_per_segment: int
    cell_height_window_nm: float = 400.0

    def __post_init__(self) -> None:
        ensure_positive(self.device_width_nm, "device_width_nm")
        if self.devices_per_segment < 1:
            raise ValueError("devices_per_segment must be at least 1")
        if self.cell_height_window_nm < 0:
            raise ValueError("cell_height_window_nm must be non-negative")


@dataclass(frozen=True)
class RowMCResult:
    """Monte Carlo estimate of a row failure probability.

    ``sampler`` names the strategy that produced the estimate and
    ``effective_sample_size`` carries the contribution ESS for the
    importance-sampled strategies (``None`` for naive and splitting runs).
    """

    scenario: LayoutScenario
    config: RowScenarioConfig
    n_samples: int
    row_failure_probability: float
    standard_error: float
    sampler: str = "naive"
    effective_sample_size: Optional[float] = None


class RowMonteCarlo:
    """Simulates row segments under the three growth/layout scenarios.

    Parameters
    ----------
    pitch:
        Inter-CNT pitch distribution along the device-width axis.
    type_model:
        CNT type and removal statistics.
    """

    def __init__(
        self,
        pitch: Optional[PitchDistribution] = None,
        type_model: Optional[CNTTypeModel] = None,
    ) -> None:
        self.pitch = pitch or pitch_distribution_from_cv(4.0, 1.0)
        self.type_model = type_model or CNTTypeModel()

    # ------------------------------------------------------------------
    # Track sampling helpers
    # ------------------------------------------------------------------

    def _sample_track_positions(
        self, span_nm: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample CNT track y-positions across a vertical span."""
        positions: List[float] = []
        y = -float(rng.random()) * self.pitch.mean_nm
        while True:
            gap = float(self.pitch.sample(1, rng)[0])
            y += gap
            if y > span_nm:
                break
            if y >= 0.0:
                positions.append(y)
        return np.asarray(positions, dtype=float)

    # ------------------------------------------------------------------
    # Per-scenario estimators (Rao-Blackwellised)
    # ------------------------------------------------------------------

    def _device_conditional_failures(self, counts: np.ndarray) -> np.ndarray:
        """Per-device failure probability conditioned on captured counts.

        The opens-only ``pf ** N`` of the Rao-Blackwellised estimators, or
        the joint thinned ``1 - (1 - q)**N + (pf - q)**N`` of
        :mod:`repro.device.shorts` when the type model leaves surviving
        metallic tubes; the ``q = 0`` branch is the untouched pre-shorts
        expression (bitwise contract).
        """
        pf = self.type_model.per_cnt_failure_probability
        q = self.type_model.surviving_metallic_probability
        n = np.asarray(counts, dtype=float)
        if q > 0.0:
            return 1.0 - np.power(1.0 - q, n) + np.power(pf - q, n)
        return np.power(pf, n)

    def _segment_failure_uncorrelated(
        self, config: RowScenarioConfig, rng: np.random.Generator
    ) -> float:
        """P{segment fails} conditioned on sampled per-device counts."""
        survive = 1.0
        for _ in range(config.devices_per_segment):
            tracks = self._sample_track_positions(config.device_width_nm, rng)
            p_dev_fail = float(self._device_conditional_failures(tracks.size))
            survive *= 1.0 - p_dev_fail
        return 1.0 - survive

    def _segment_failure_aligned(
        self, config: RowScenarioConfig, rng: np.random.Generator
    ) -> float:
        """Aligned devices all share the same tracks: one device's fate decides."""
        tracks = self._sample_track_positions(config.device_width_nm, rng)
        # All devices see the same working/failed tubes, so the segment fails
        # exactly when those shared tubes all fail (open) or any surviving
        # short sits among them.
        return float(self._device_conditional_failures(tracks.size))

    def _segment_failure_non_aligned(
        self, config: RowScenarioConfig, rng: np.random.Generator
    ) -> float:
        """Devices at random y offsets cover overlapping subsets of the tracks.

        Tube outcomes are sampled once per track (they are shared), and each
        device fails iff every track it covers failed or any covered track
        is a surviving short; the segment fails when any device fails.  One
        uniform per track decides both modes, so the joint sampler consumes
        exactly the opens-only RNG stream.
        """
        span = config.cell_height_window_nm + config.device_width_nm
        tracks = self._sample_track_positions(span, rng)
        if tracks.size == 0:
            return 1.0
        u = rng.random(tracks.size)
        working = u >= self.type_model.per_cnt_failure_probability
        q = self.type_model.surviving_metallic_probability
        shorting = u < q if q > 0.0 else None
        offsets = rng.random(config.devices_per_segment) * config.cell_height_window_nm
        for offset in offsets:
            in_window = (tracks >= offset) & (tracks <= offset + config.device_width_nm)
            if not np.any(working[in_window]):
                return 1.0
            if shorting is not None and np.any(shorting[in_window]):
                return 1.0
        return 0.0

    # ------------------------------------------------------------------
    # Batched per-scenario estimators (default path)
    # ------------------------------------------------------------------

    def _segment_failures_uncorrelated_batch(
        self, config: RowScenarioConfig, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """All samples at once: every device draws its own track set."""
        counts = sample_track_counts(
            self.pitch,
            config.device_width_nm,
            n_samples * config.devices_per_segment,
            rng,
        ).reshape(n_samples, config.devices_per_segment)
        p_dev_fail = self._device_conditional_failures(counts)
        return 1.0 - np.prod(1.0 - p_dev_fail, axis=1)

    def _segment_failures_aligned_batch(
        self, config: RowScenarioConfig, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """All samples at once: one shared track set decides each segment."""
        counts = sample_track_counts(
            self.pitch, config.device_width_nm, n_samples, rng
        )
        return self._device_conditional_failures(counts)

    def _segment_failures_non_aligned_batch(
        self, config: RowScenarioConfig, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """All samples at once: shared tubes, per-device random y offsets.

        Tube outcomes are sampled once per track (they are shared); the
        batched window counter then answers every (sample, device) window
        in one pass, and a segment fails when any of its devices captured
        zero working tubes (or, with surviving metallic tubes, captured at
        least one short).  The sample axis is chunked so peak memory
        stays near the engine's element budget for any ``n_samples``.
        """
        pf = self.type_model.per_cnt_failure_probability
        q = self.type_model.surviving_metallic_probability
        span = config.cell_height_window_nm + config.device_width_nm
        per_sample = max(1, estimate_gap_count(self.pitch, span))
        chunk = max(1, DEFAULT_BATCH_ELEMENTS // per_sample)
        failures = np.empty(n_samples)
        done = 0
        while done < n_samples:
            n = min(chunk, n_samples - done)
            batch = sample_track_batch(self.pitch, span, n, rng)
            # Device windows lie inside the span, so the tube states need
            # no validity mask.
            u = rng.random(batch.positions.shape)
            working = u >= pf
            offsets = (
                rng.random((n, config.devices_per_segment))
                * config.cell_height_window_nm
            )
            counts = count_in_windows(
                batch, working, offsets, offsets + config.device_width_nm
            )
            failing = np.any(counts == 0, axis=1)
            if q > 0.0:
                shorting = u < q
                short_counts = count_in_windows(
                    batch, shorting, offsets, offsets + config.device_width_nm
                )
                failing = failing | np.any(short_counts > 0, axis=1)
            failures[done:done + n] = failing
            done += n
        return failures

    # ------------------------------------------------------------------
    # Rare-event samplers (importance sampling / multilevel splitting)
    # ------------------------------------------------------------------

    def _segment_contributions_aligned_tilted(
        self,
        config: RowScenarioConfig,
        n_samples: int,
        rng: np.random.Generator,
        tilt: rare_event.GapTilt,
    ) -> np.ndarray:
        """Weighted per-sample contributions ``pf^N · w`` for aligned rows."""
        return rare_event.sample_tilted_contributions(
            tilt,
            config.device_width_nm,
            self.type_model.per_cnt_failure_probability,
            n_samples,
            rng,
        )

    def _segment_contributions_uncorrelated_tilted(
        self,
        config: RowScenarioConfig,
        n_samples: int,
        rng: np.random.Generator,
        tilt: rare_event.GapTilt,
    ) -> np.ndarray:
        """Weighted contributions for independent-device segments.

        Each device draws its own tilted track set; ``pf^N_d · w_d`` is an
        unbiased estimate of that device's failure probability, the devices
        are independent, so ``1 - Π_d (1 - pf^N_d · w_d)`` is unbiased for
        the segment failure probability.
        """
        d = config.devices_per_segment
        z = self._segment_contributions_aligned_tilted(
            config, n_samples * d, rng, tilt
        ).reshape(n_samples, d)
        # log1p/expm1 keep the deep tail (Σz far below 1e-15) exact; rows
        # with a weight outlier pushing some z past 1 fall back to the
        # direct product, which stays unbiased either way.
        contributions = np.empty(n_samples)
        in_range = np.all(z < 1.0, axis=1)
        contributions[in_range] = -np.expm1(
            np.sum(np.log1p(-z[in_range]), axis=1)
        )
        rest = ~in_range
        if np.any(rest):
            contributions[rest] = 1.0 - np.prod(1.0 - z[rest], axis=1)
        return contributions

    def _splitting_model(
        self, scenario: LayoutScenario, config: RowScenarioConfig
    ) -> rare_event.SplittingModel:
        pf = self.type_model.per_cnt_failure_probability
        if scenario is LayoutScenario.DIRECTIONAL_ALIGNED:
            return rare_event.AlignedRowModel(
                self.pitch, pf, config.device_width_nm
            )
        if scenario is LayoutScenario.UNCORRELATED_GROWTH:
            return rare_event.UncorrelatedRowModel(
                self.pitch, pf, config.device_width_nm,
                config.devices_per_segment,
            )
        return rare_event.NonAlignedRowModel(
            self.pitch, pf, config.device_width_nm,
            config.devices_per_segment, config.cell_height_window_nm,
        )

    def _estimate_tilted(
        self,
        scenario: LayoutScenario,
        config: RowScenarioConfig,
        n_samples: int,
        rng: np.random.Generator,
        tilt_factor: Optional[float],
    ) -> RowMCResult:
        if scenario is LayoutScenario.DIRECTIONAL_NON_ALIGNED:
            raise ValueError(
                "the non-aligned layout has no closed-form tilt (shared "
                "tubes couple with random device offsets); use "
                "sampler='splitting'"
            )
        pf = self.type_model.per_cnt_failure_probability
        tilt = rare_event.resolve_tilt(
            self.pitch, config.device_width_nm, pf, tilt_factor
        )
        if scenario is LayoutScenario.DIRECTIONAL_ALIGNED:
            contributions = self._segment_contributions_aligned_tilted(
                config, n_samples, rng, tilt
            )
        else:
            contributions = self._segment_contributions_uncorrelated_tilted(
                config, n_samples, rng, tilt
            )
        summary = rare_event.weighted_estimate(contributions)
        return RowMCResult(
            scenario=scenario,
            config=config,
            n_samples=int(n_samples),
            row_failure_probability=summary.estimate,
            standard_error=summary.standard_error,
            sampler="tilted",
            effective_sample_size=summary.effective_sample_size,
        )

    def _estimate_splitting(
        self,
        scenario: LayoutScenario,
        config: RowScenarioConfig,
        n_samples: int,
        rng: np.random.Generator,
    ) -> RowMCResult:
        model = self._splitting_model(scenario, config)
        result = rare_event.multilevel_splitting(model, n_samples, rng)
        return RowMCResult(
            scenario=scenario,
            config=config,
            n_samples=int(n_samples),
            row_failure_probability=result.probability,
            standard_error=result.standard_error,
            sampler="splitting",
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def estimate(
        self,
        scenario: LayoutScenario,
        config: RowScenarioConfig,
        n_samples: int,
        rng: np.random.Generator,
        vectorized: bool = True,
        sampler: str = "naive",
        tilt_factor: Optional[float] = None,
    ) -> RowMCResult:
        """Estimate the segment (row) failure probability for one scenario.

        ``vectorized=True`` (default) evaluates all samples as one batched
        array program; ``vectorized=False`` runs the original per-sample
        scalar loop, which draws from the same distribution and serves as
        the equivalence oracle.

        ``sampler`` selects the estimation strategy: ``"naive"`` (default)
        is direct sampling at the nominal gap law, ``"tilted"`` importance
        sampling under an exponentially tilted gap distribution (closed-form
        scenarios only; ``tilt_factor`` overrides the automatic mean factor),
        and ``"splitting"`` adaptive multilevel splitting (``n_samples``
        becomes the particle count).  The rare-event strategies resolve
        failure probabilities far below ``1/n_samples``.
        """
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if sampler not in ("naive", "tilted", "splitting"):
            raise ValueError(
                f"unknown sampler {sampler!r}; "
                "expected 'naive', 'tilted' or 'splitting'"
            )
        if (
            sampler in ("tilted", "splitting")
            and self.type_model.surviving_metallic_probability > 0.0
        ):
            raise ValueError(
                f"sampler={sampler!r} supports only the opens-only regime: "
                "the rare-event machinery is built around the pf ** N "
                "cancellation, which has no joint opens+shorts counterpart "
                "(use the naive sampler or the closed form of "
                "repro.device.shorts)"
            )
        if sampler == "tilted":
            return self._estimate_tilted(
                scenario, config, n_samples, rng, tilt_factor
            )
        if sampler == "splitting":
            return self._estimate_splitting(scenario, config, n_samples, rng)
        scalar_samplers = {
            LayoutScenario.UNCORRELATED_GROWTH: self._segment_failure_uncorrelated,
            LayoutScenario.DIRECTIONAL_ALIGNED: self._segment_failure_aligned,
            LayoutScenario.DIRECTIONAL_NON_ALIGNED: self._segment_failure_non_aligned,
        }
        batch_samplers = {
            LayoutScenario.UNCORRELATED_GROWTH: self._segment_failures_uncorrelated_batch,
            LayoutScenario.DIRECTIONAL_ALIGNED: self._segment_failures_aligned_batch,
            LayoutScenario.DIRECTIONAL_NON_ALIGNED: self._segment_failures_non_aligned_batch,
        }
        if scenario not in scalar_samplers:  # pragma: no cover - defensive
            raise ValueError(f"unknown scenario {scenario!r}")

        if vectorized:
            samples = batch_samplers[scenario](config, n_samples, rng)
        else:
            sampler = scalar_samplers[scenario]
            samples = np.array([sampler(config, rng) for _ in range(n_samples)])
        estimate = float(np.mean(samples))
        stderr = (
            float(np.std(samples, ddof=1) / math.sqrt(n_samples))
            if n_samples > 1 else 0.0
        )
        return RowMCResult(
            scenario=scenario,
            config=config,
            n_samples=int(n_samples),
            row_failure_probability=estimate,
            standard_error=stderr,
        )

    def estimate_all(
        self,
        config: RowScenarioConfig,
        n_samples: int,
        rng: np.random.Generator,
        vectorized: bool = True,
        sampler: str = "naive",
    ) -> List[RowMCResult]:
        """Estimate all three scenarios with the same configuration.

        With a rare-event ``sampler`` the non-aligned scenario automatically
        falls back to multilevel splitting (it has no closed-form tilt).
        """
        results = []
        for scenario in LayoutScenario:
            effective = sampler
            if (sampler == "tilted"
                    and scenario is LayoutScenario.DIRECTIONAL_NON_ALIGNED):
                effective = "splitting"
            results.append(
                self.estimate(
                    scenario, config, n_samples, rng,
                    vectorized=vectorized, sampler=effective,
                )
            )
        return results

    @staticmethod
    def devices_per_segment_from_parameters(
        cnt_length_um: float, min_cnfet_density_per_um: float
    ) -> int:
        """MRmin = LCNT · Pmin-CNFET rounded to the nearest device count."""
        ensure_positive(cnt_length_um, "cnt_length_um")
        ensure_positive(min_cnfet_density_per_um, "min_cnfet_density_per_um")
        return max(int(round(cnt_length_um * min_cnfet_density_per_um)), 1)
