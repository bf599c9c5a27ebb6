"""Packaged analytic-versus-Monte-Carlo comparison experiments.

These helpers bundle the validation experiments used by the test suite, the
examples and the benchmarks: they run the analytical model and the Monte
Carlo simulator on the same configuration and report both numbers side by
side with the sampling error, so agreement can be asserted quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.correlation import (
    CorrelationParameters,
    LayoutScenario,
    RowYieldModel,
)
from repro.core.count_model import CountModel, count_model_from_pitch
from repro.core.failure import CNFETFailureModel
from repro.growth.pitch import PitchDistribution, pitch_distribution_from_cv
from repro.growth.types import CNTTypeModel
from repro.montecarlo.chip_sim import ChipMonteCarlo
from repro.montecarlo.device_sim import DeviceMonteCarlo
from repro.montecarlo.row_sim import RowMonteCarlo, RowScenarioConfig
from repro.netlist.placement import RowPlacement
from repro.resilience.supervise import Execution


@dataclass(frozen=True)
class ComparisonRecord:
    """One analytic-versus-Monte-Carlo comparison."""

    label: str
    analytic: float
    monte_carlo: float
    standard_error: float

    @property
    def absolute_difference(self) -> float:
        """|analytic - monte_carlo|."""
        return abs(self.analytic - self.monte_carlo)

    @property
    def within_sigma(self) -> float:
        """Difference expressed in Monte Carlo standard errors (inf if SE=0)."""
        if self.standard_error == 0:
            return float("inf") if self.absolute_difference > 0 else 0.0
        return self.absolute_difference / self.standard_error

    def agrees(self, n_sigma: float = 4.0, rtol: float = 0.15) -> bool:
        """True when the two numbers agree within ``n_sigma`` or ``rtol``."""
        if self.absolute_difference <= rtol * max(abs(self.analytic), 1e-300):
            return True
        return self.within_sigma <= n_sigma


def compare_device_failure(
    width_nm: float,
    pitch: Optional[PitchDistribution] = None,
    type_model: Optional[CNTTypeModel] = None,
    n_samples: int = 20_000,
    seed: int = 7,
    rng: Optional[np.random.Generator] = None,
) -> ComparisonRecord:
    """Compare analytical pF(W) (Eq. 2.2) with its Monte Carlo estimate.

    An externally supplied ``rng`` takes precedence over ``seed`` so this
    experiment can share spawn keys with the other estimators.
    """
    pitch = pitch or pitch_distribution_from_cv(4.0, 1.0)
    type_model = type_model or CNTTypeModel()
    count_model: CountModel = count_model_from_pitch(pitch)
    failure_model = CNFETFailureModel.from_type_model(count_model, type_model)
    analytic = failure_model.failure_probability(width_nm)

    if rng is None:
        rng = np.random.default_rng(seed)
    mc = DeviceMonteCarlo(count_model=count_model, type_model=type_model)
    result = mc.estimate(width_nm, n_samples, rng)
    return ComparisonRecord(
        label=f"pF(W={width_nm:.0f} nm)",
        analytic=analytic,
        monte_carlo=result.failure_probability,
        standard_error=result.standard_error,
    )


def compare_row_scenarios(
    device_width_nm: float = 40.0,
    devices_per_segment: int = 20,
    pitch: Optional[PitchDistribution] = None,
    type_model: Optional[CNTTypeModel] = None,
    n_samples: int = 4_000,
    seed: int = 11,
    rng: Optional[np.random.Generator] = None,
) -> Dict[LayoutScenario, ComparisonRecord]:
    """Compare the row failure probabilities of Eq. 3.1 with simulation.

    The default configuration uses a deliberately narrow device and a small
    segment so the probabilities are large enough for tight Monte Carlo
    confidence intervals; the analytical/Monte-Carlo agreement is scale-free
    in these parameters.
    """
    pitch = pitch or pitch_distribution_from_cv(4.0, 1.0)
    type_model = type_model or CNTTypeModel()
    count_model = count_model_from_pitch(pitch)
    failure_model = CNFETFailureModel.from_type_model(count_model, type_model)
    p_f = failure_model.failure_probability(device_width_nm)

    # Analytic side: a RowYieldModel whose MRmin equals devices_per_segment.
    params = CorrelationParameters(
        cnt_length_um=float(devices_per_segment),
        min_cnfet_density_per_um=1.0,
        alignment_fraction=0.5,
    )
    analytic_model = RowYieldModel(parameters=params)

    mc = RowMonteCarlo(pitch=pitch, type_model=type_model)
    config = RowScenarioConfig(
        device_width_nm=device_width_nm,
        devices_per_segment=devices_per_segment,
    )
    if rng is None:
        rng = np.random.default_rng(seed)

    records: Dict[LayoutScenario, ComparisonRecord] = {}
    for scenario in LayoutScenario:
        analytic = analytic_model.row_failure_probability(scenario, p_f)
        result = mc.estimate(scenario, config, n_samples, rng)
        records[scenario] = ComparisonRecord(
            label=f"pRF[{scenario.value}]",
            analytic=analytic,
            monte_carlo=result.row_failure_probability,
            standard_error=result.standard_error,
        )
    return records


def compare_chip_engines(
    placement: RowPlacement,
    pitch: Optional[PitchDistribution] = None,
    type_model: Optional[CNTTypeModel] = None,
    n_trials: int = 30,
    seed: int = 2010,
    execution: Execution = Execution(),
    rng: Optional[np.random.Generator] = None,
) -> ComparisonRecord:
    """Compare the scalar and vectorized chip engines on one placed design.

    Both engines draw from the same distribution but consume the RNG
    differently, so agreement is statistical: the record carries the
    combined standard error of the two mean-failing-device estimates.
    The ``analytic`` slot holds the scalar (oracle) mean so the generic
    :meth:`ComparisonRecord.agrees` tolerance machinery applies.  With an
    externally supplied ``rng`` each engine consumes its own spawned child
    stream instead of an ad-hoc reseed.
    """
    simulator = ChipMonteCarlo(placement, pitch=pitch, type_model=type_model)
    if rng is not None:
        scalar_rng, vector_rng = rng.spawn(2)
    else:
        scalar_rng = np.random.default_rng(seed)
        vector_rng = np.random.default_rng(seed)
    scalar = simulator.run_scalar(n_trials, scalar_rng)
    vectorized = simulator.run(n_trials, vector_rng, execution=execution)
    combined_se = float(np.sqrt(
        (scalar.std_failing_devices ** 2 + vectorized.std_failing_devices ** 2)
        / n_trials
    ))
    return ComparisonRecord(
        label="chip mean failing devices (scalar vs vectorized)",
        analytic=scalar.mean_failing_devices,
        monte_carlo=vectorized.mean_failing_devices,
        standard_error=combined_se,
    )


def compare_tail_scenarios(
    device_width_nm: float = 160.0,
    devices_per_segment: int = 360,
    mean_pitch_nm: float = 4.0,
    type_model: Optional[CNTTypeModel] = None,
    n_samples: int = 20_000,
    splitting_particles: int = 3_000,
    seed: int = 17,
    rng: Optional[np.random.Generator] = None,
) -> Dict[LayoutScenario, ComparisonRecord]:
    """Compare Eq. 3.1 closed forms with *rare-event* sampled tails.

    The deep-tail counterpart of :func:`compare_row_scenarios`: the default
    width puts the device failure probability near 1e-8 — far beyond
    indicator sampling — and the three Table 1 scenarios are estimated with
    the rare-event layer (exponential tilting for the closed-form aligned /
    uncorrelated scenarios, multilevel splitting for the non-aligned one).
    The pitch is exponential so that the engine's uniform-offset renewal
    convention matches the analytic Poisson count model *exactly*; with any
    other family the two sides differ by a boundary-condition term that the
    tail magnifies.

    The default ``devices_per_segment=360`` is the paper's MRmin
    (LCNT · Pmin-CNFET = 200 µm · 1.8 /µm), so the ratio of the
    uncorrelated and aligned records reproduces the headline ≈350X
    relaxation.  The non-aligned record's analytic slot carries the
    offset-cluster model, which is itself approximate — callers should
    assert bracketing between the two extremes rather than agreement.
    """
    from repro.growth.pitch import ExponentialPitch

    pitch = ExponentialPitch(mean_pitch_nm)
    type_model = type_model or CNTTypeModel()
    count_model = count_model_from_pitch(pitch)
    failure_model = CNFETFailureModel.from_type_model(count_model, type_model)
    p_f = failure_model.failure_probability(device_width_nm)

    params = CorrelationParameters(
        cnt_length_um=float(devices_per_segment),
        min_cnfet_density_per_um=1.0,
    )
    analytic_model = RowYieldModel(parameters=params)

    mc = RowMonteCarlo(pitch=pitch, type_model=type_model)
    config = RowScenarioConfig(
        device_width_nm=device_width_nm,
        devices_per_segment=devices_per_segment,
    )
    if rng is None:
        rng = np.random.default_rng(seed)

    records: Dict[LayoutScenario, ComparisonRecord] = {}
    for scenario in LayoutScenario:
        analytic = analytic_model.row_failure_probability(scenario, p_f)
        if scenario is LayoutScenario.DIRECTIONAL_NON_ALIGNED:
            result = mc.estimate(
                scenario, config, splitting_particles, rng, sampler="splitting"
            )
        else:
            result = mc.estimate(
                scenario, config, n_samples, rng, sampler="tilted"
            )
        records[scenario] = ComparisonRecord(
            label=f"tail pRF[{scenario.value}]",
            analytic=analytic,
            monte_carlo=result.row_failure_probability,
            standard_error=result.standard_error,
        )
    return records


def relaxation_factor_comparison(
    device_width_nm: float = 40.0,
    devices_per_segment: int = 20,
    n_samples: int = 4_000,
    seed: int = 13,
) -> ComparisonRecord:
    """Compare the analytic and simulated relaxation factors (Table 1 ratio)."""
    records = compare_row_scenarios(
        device_width_nm=device_width_nm,
        devices_per_segment=devices_per_segment,
        n_samples=n_samples,
        seed=seed,
    )
    uncorrelated = records[LayoutScenario.UNCORRELATED_GROWTH]
    aligned = records[LayoutScenario.DIRECTIONAL_ALIGNED]
    analytic_ratio = (
        uncorrelated.analytic / aligned.analytic if aligned.analytic > 0 else np.inf
    )
    mc_ratio = (
        uncorrelated.monte_carlo / aligned.monte_carlo
        if aligned.monte_carlo > 0 else np.inf
    )
    # First-order error propagation on the ratio.
    if aligned.monte_carlo > 0 and uncorrelated.monte_carlo > 0:
        rel_err = np.sqrt(
            (uncorrelated.standard_error / uncorrelated.monte_carlo) ** 2
            + (aligned.standard_error / aligned.monte_carlo) ** 2
        )
        ratio_err = mc_ratio * rel_err
    else:
        ratio_err = float("inf")
    return ComparisonRecord(
        label="relaxation factor",
        analytic=float(analytic_ratio),
        monte_carlo=float(mc_ratio),
        standard_error=float(ratio_err),
    )
