"""Monte Carlo estimation of the device failure probability pF(W).

Validates the analytical Eq. 2.2 pipeline (count model + per-tube failure
probability) against direct simulation of growth, typing and removal for a
single device.  Because practically relevant pF values are tiny (1e-6 and
below), the simulator also supports an importance-style "conditional"
estimator: it computes the failure probability exactly for each sampled CNT
count (``pf ** count``), averaging those conditional probabilities instead
of averaging 0/1 failure indicators.  This keeps the estimator unbiased
while reducing its variance by orders of magnitude, making validation of
small probabilities feasible.

Counts can come from three sources: the analytical count model (keeps the
comparison apples-to-apples with Eq. 2.2), the isotropic growth simulator,
or — via ``pitch`` — the batched renewal engine of
:mod:`repro.montecarlo.engine`, which simulates the gap-by-gap track
placement itself (one 2D gap draw + ``cumsum`` for all samples at once,
memory-bounded by internal chunking).  The engine source is what the
device-level statistical-equivalence tests exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

import repro.montecarlo.rare_event as rare_event
from repro.core.count_model import CountModel
from repro.device.shorts import conditional_failure_probabilities
from repro.growth.isotropic import IsotropicGrowthModel
from repro.growth.pitch import PitchDistribution
from repro.growth.types import CNTTypeModel
from repro.montecarlo.engine import sample_track_counts
from repro.resilience.supervise import Execution
from repro.units import ensure_positive


@dataclass(frozen=True)
class DeviceMCResult:
    """Monte Carlo estimate of a device failure probability."""

    width_nm: float
    n_samples: int
    failure_probability: float
    standard_error: float
    mean_cnt_count: float
    mean_working_count: float

    @property
    def relative_error(self) -> float:
        """Standard error relative to the estimate (NaN when estimate is 0)."""
        if self.failure_probability == 0:
            return float("nan")
        return self.standard_error / self.failure_probability


class DeviceMonteCarlo:
    """Estimates pF(W) by simulating individual devices.

    Parameters
    ----------
    count_model:
        Analytical count model used for count sampling (keeps the comparison
        apples-to-apples with the analytical pF); alternatively a full
        :class:`~repro.growth.isotropic.IsotropicGrowthModel` can be passed
        via ``growth_model`` to sample counts from the growth process itself.
    type_model:
        CNT type / removal statistics.
    growth_model:
        Optional growth simulator; when provided, counts come from it instead
        of the count model.
    pitch:
        Optional pitch distribution; when provided, counts come from the
        batched renewal engine (direct simulation of the inter-CNT gaps).
        Precedence when several sources are given: ``growth_model``, then
        ``pitch``, then ``count_model``.
    """

    def __init__(
        self,
        count_model: Optional[CountModel] = None,
        type_model: Optional[CNTTypeModel] = None,
        growth_model: Optional[IsotropicGrowthModel] = None,
        pitch: Optional[PitchDistribution] = None,
    ) -> None:
        if count_model is None and growth_model is None and pitch is None:
            raise ValueError(
                "one of count_model, growth_model or pitch must be provided"
            )
        self.count_model = count_model
        self.type_model = type_model or CNTTypeModel()
        self.growth_model = growth_model
        self.pitch = pitch

    # ------------------------------------------------------------------
    # Count sampling
    # ------------------------------------------------------------------

    def _sample_counts(
        self, width_nm: float, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        if self.growth_model is not None:
            return self.growth_model.sample_counts(width_nm, n_samples, rng)
        if self.pitch is not None:
            return sample_track_counts(self.pitch, width_nm, n_samples, rng)
        assert self.count_model is not None
        return self.count_model.sample(width_nm, n_samples, rng)

    # ------------------------------------------------------------------
    # Estimators
    # ------------------------------------------------------------------

    def estimate_naive(
        self, width_nm: float, n_samples: int, rng: np.random.Generator
    ) -> DeviceMCResult:
        """Plain 0/1 estimator: thin counts per tube and check for zero survivors.

        Only practical when pF is not too small (wide confidence intervals
        otherwise); primarily used to cross-check the conditional estimator.
        With surviving metallic tubes
        (``type_model.surviving_metallic_probability > 0``) the per-count
        thinning becomes two-stage — shorts first, then conducting tubes
        among the non-shorts — and a device also fails with any short.
        """
        ensure_positive(width_nm, "width_nm")
        counts = self._sample_counts(width_nm, n_samples, rng)
        p_success = self.type_model.per_cnt_success_probability
        q = self.type_model.surviving_metallic_probability
        if q > 0.0:
            shorts = rng.binomial(counts, q)
            working = rng.binomial(counts - shorts, p_success / (1.0 - q))
            failures = ((shorts > 0) | (working == 0)).astype(float)
        else:
            working = rng.binomial(counts, p_success)
            failures = (working == 0).astype(float)
        estimate = float(np.mean(failures))
        stderr = float(np.std(failures, ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
        return DeviceMCResult(
            width_nm=float(width_nm),
            n_samples=int(n_samples),
            failure_probability=estimate,
            standard_error=stderr,
            mean_cnt_count=float(np.mean(counts)),
            mean_working_count=float(np.mean(working)),
        )

    def estimate_conditional(
        self, width_nm: float, n_samples: int, rng: np.random.Generator
    ) -> DeviceMCResult:
        """Rao-Blackwellised estimator: average ``pf ** count`` over sampled counts.

        Conditioning on the count and integrating the per-tube outcomes
        analytically removes the inner binomial noise, so small failure
        probabilities can be estimated with modest sample counts.  In the
        joint opens+shorts regime the conditional value is the thinned
        ``1 - (1 - q)**N + (pf - q)**N`` of :mod:`repro.device.shorts`;
        at ``q = 0`` the opens-only ``pf ** N`` path is untouched.
        """
        ensure_positive(width_nm, "width_nm")
        counts = self._sample_counts(width_nm, n_samples, rng)
        conditional = conditional_failure_probabilities(
            counts,
            self.type_model.per_cnt_failure_probability,
            self.type_model.surviving_metallic_probability,
        )
        estimate = float(np.mean(conditional))
        stderr = (
            float(np.std(conditional, ddof=1) / np.sqrt(n_samples))
            if n_samples > 1 else 0.0
        )
        p_success = self.type_model.per_cnt_success_probability
        return DeviceMCResult(
            width_nm=float(width_nm),
            n_samples=int(n_samples),
            failure_probability=estimate,
            standard_error=stderr,
            mean_cnt_count=float(np.mean(counts)),
            mean_working_count=float(np.mean(counts)) * p_success,
        )

    def estimate_tilted(
        self,
        width_nm: float,
        n_samples: int,
        rng: np.random.Generator,
        tilt_factor: Optional[float] = None,
        execution: Execution = Execution(),
    ) -> DeviceMCResult:
        """Importance-sampled tail estimator of pF(W).

        Requires a ``pitch`` count source (the tilt acts on the inter-CNT
        gap distribution itself).  Combines the conditional ``pf ** N``
        value with per-trial likelihood-ratio weights from the exponentially
        tilted renewal engine; reaches pF values of 1e-9 and below with
        modest sample counts.  The mean-count fields report the nominal-law
        renewal approximation ``W / µS`` (the sampled counts follow the
        tilted law and would need reweighting to be comparable).
        """
        if self.pitch is None:
            raise ValueError(
                "estimate_tilted requires a pitch count source; "
                "growth- and count-model sources have no gap law to tilt"
            )
        if self.type_model.surviving_metallic_probability > 0.0:
            raise ValueError(
                "estimate_tilted supports only the opens-only regime: the "
                "pf ** N cancellation that stabilises the tilted weights "
                "has no joint opens+shorts counterpart"
            )
        ensure_positive(width_nm, "width_nm")
        pf = self.type_model.per_cnt_failure_probability
        summary = rare_event.estimate_device_failure_tilted(
            self.pitch, pf, width_nm, n_samples, rng,
            tilt_factor=tilt_factor, execution=execution,
        )
        mean_count = width_nm / self.pitch.mean_nm
        return DeviceMCResult(
            width_nm=float(width_nm),
            n_samples=int(n_samples),
            failure_probability=summary.estimate,
            standard_error=summary.standard_error,
            mean_cnt_count=mean_count,
            mean_working_count=mean_count * self.type_model.per_cnt_success_probability,
        )

    def estimate(
        self,
        width_nm: float,
        n_samples: int,
        rng: np.random.Generator,
        conditional: bool = True,
        sampler: str = "naive",
        tilt_factor: Optional[float] = None,
    ) -> DeviceMCResult:
        """Estimate pF(W); uses the conditional estimator by default.

        ``sampler="tilted"`` switches to the importance-sampled tail
        estimator (pitch count source required).
        """
        if sampler not in ("naive", "tilted"):
            raise ValueError(
                f"unknown sampler {sampler!r}; expected 'naive' or 'tilted'"
            )
        if sampler == "tilted":
            return self.estimate_tilted(
                width_nm, n_samples, rng, tilt_factor=tilt_factor
            )
        if conditional:
            return self.estimate_conditional(width_nm, n_samples, rng)
        return self.estimate_naive(width_nm, n_samples, rng)
