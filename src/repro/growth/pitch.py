"""Inter-CNT pitch distributions and renewal-theory helpers.

The number of CNTs captured by a CNFET of width ``W`` is a renewal count:
starting from one edge of the active region, successive CNTs are separated
by independent, identically distributed positive gaps ("pitches").  The
count distribution therefore follows directly from the distribution of the
pitch, via

``P{N(W) >= n} = P{S_n <= W}``,   ``S_n = s_1 + ... + s_n``

(plus a boundary convention for the first tube, handled by the count models
in :mod:`repro.core.count_model`).

This module provides the pitch distributions themselves.  Each distribution
exposes:

* ``mean_nm`` / ``std_nm`` — first two moments,
* ``sample(size, rng)`` — Monte Carlo samples,
* ``sum_cdf_array(n, w_nm)`` / ``sum_sf_array(n, w_nm)`` — the CDF and
  survival function of the n-fold sum, broadcast over counts and widths
  (exact when the family is closed under summation, otherwise a central
  limit approximation is used); ``sum_cdf(n, w_nm)`` is one value of it,
* ``thinned(p_keep)`` — the gap law of the tubes kept independently with
  probability ``p_keep`` (:class:`ThinnedPitch`), which lets a sampler
  draw only the tubes its answer reads.

The paper keeps the ratio σS/µS from [Zhang 09a] and sets µS to the
optimised 4 nm of [Deng 07]; the exact σS/µS value is a calibration knob
(see :mod:`repro.core.calibration`).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import special, stats

from repro.units import ensure_positive


@dataclass(frozen=True)
class GapTilt:
    """An exponential tilt of an inter-CNT gap distribution.

    Importance sampling for rare under-count events replaces the nominal gap
    density ``f`` with the tilted density ``g(s) ∝ f(s) · exp(θ s)``; for
    ``θ > 0`` gaps stretch, tubes become sparse, and open-region/under-count
    failures become common.  The log likelihood ratio of a renewal trajectory
    stopped after ``n`` gaps summing to ``S`` is *affine* in ``(n, S)`` for
    every family closed under exponential tilting:

    ``log(dP_f / dP_g) = n · log_const_per_gap + S · log_slope_per_nm``

    which is what lets the batched engine carry per-trial weights through its
    one ``cumsum`` + ``searchsorted`` pass.  Instances are produced by
    :meth:`PitchDistribution.exponential_tilt`.
    """

    nominal: "PitchDistribution"
    tilted: "PitchDistribution"
    log_const_per_gap: float
    log_slope_per_nm: float

    @property
    def mean_factor(self) -> float:
        """Ratio of tilted to nominal mean pitch (> 1 stretches gaps)."""
        return self.tilted.mean_nm / self.nominal.mean_nm

    def log_likelihood_ratio(
        self, n_gaps: np.ndarray, gap_sum_nm: np.ndarray
    ) -> np.ndarray:
        """``log(dP_f/dP_g)`` for trajectories of ``n_gaps`` gaps summing to
        ``gap_sum_nm``; vectorised over both arguments."""
        return (
            np.asarray(n_gaps, dtype=float) * self.log_const_per_gap
            + np.asarray(gap_sum_nm, dtype=float) * self.log_slope_per_nm
        )


class PitchDistribution(abc.ABC):
    """Abstract base class for positive inter-CNT pitch distributions."""

    @property
    @abc.abstractmethod
    def mean_nm(self) -> float:
        """Mean pitch µS in nm."""

    @property
    @abc.abstractmethod
    def std_nm(self) -> float:
        """Pitch standard deviation σS in nm."""

    @property
    def cv(self) -> float:
        """Coefficient of variation σS / µS."""
        return self.std_nm / self.mean_nm

    @property
    def density_per_nm(self) -> float:
        """Long-run CNT linear density (1 / µS) in tubes per nm."""
        return 1.0 / self.mean_nm

    @abc.abstractmethod
    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` independent pitch samples (nm)."""

    def sample_batch(
        self, shape: Tuple[int, ...], rng: np.random.Generator
    ) -> np.ndarray:
        """Draw a batch of pitch samples with the given array ``shape``.

        The batched Monte Carlo engine draws all gaps of all trials as one
        2D array; this default delegates to :meth:`sample` and reshapes, so
        a flat draw and a batched draw of the same total size consume the
        RNG stream identically.
        """
        size = int(np.prod(shape))
        return self.sample(size, rng).reshape(shape)

    def sample_sums(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw, for every entry of ``counts`` (each >= 1), a sum of that many gaps.

        The generic form draws ``counts.sum()`` gaps and adds them up
        group by group; families closed under summation override it with
        one draw per sum.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if not counts.size:
            return np.zeros(counts.shape)
        gaps = self.sample(int(counts.sum()), rng)
        starts = np.cumsum(counts.ravel()) - counts.ravel()
        return np.add.reduceat(gaps, starts).reshape(counts.shape)

    def thinned(self, p_keep: float) -> "PitchDistribution":
        """Gap law of the tubes kept independently with probability ``p_keep``.

        Between two kept tubes lie ``G ~ Geometric(p_keep)`` gaps of this
        law, so a kept gap is their sum: mean ``µ / p`` and variance
        ``σ² / p + µ² (1 − p) / p²``.  ``p_keep = 1`` returns this
        distribution itself; families with a closed form (exponential)
        stay in their family, every other one becomes a
        :class:`ThinnedPitch`.
        """
        if _keeps_all(p_keep):
            return self
        return ThinnedPitch(base=self, p_keep=float(p_keep))

    def sum_cdf(self, n: int, w_nm: float) -> float:
        """Return ``P{s_1 + ... + s_n <= w_nm}``.

        ``n = 0`` returns 1.0 for any non-negative ``w_nm`` (an empty sum is
        zero).
        """
        return float(self.sum_cdf_array(n, w_nm))

    @abc.abstractmethod
    def sum_cdf_array(self, n_values: np.ndarray, w_nm) -> np.ndarray:
        """:meth:`sum_cdf` over integer ``n`` and widths ``w_nm``, broadcast.

        An ``(n, 1)`` count column against a width row gives the whole
        (count, width) grid the exact array evaluator needs.
        """

    def sum_sf_array(self, n_values: np.ndarray, w_nm) -> np.ndarray:
        """Vectorised ``P{s_1 + ... + s_n > w_nm}``, one minus :meth:`sum_cdf_array`.

        Families with a closed-form survival function override this so
        that values near zero (a sum CDF that rounds to one) keep their
        full relative precision; the base implementation is the plain
        complement.
        """
        return 1.0 - self.sum_cdf_array(n_values, w_nm)

    def exponential_tilt(self, mean_factor: float) -> GapTilt:
        """Exponentially tilted copy of this distribution, as a :class:`GapTilt`.

        ``mean_factor > 1`` stretches gaps (rare under-count events become
        common); families not closed under exponential tilting raise
        ``NotImplementedError`` — the multilevel-splitting fallback in
        :mod:`repro.montecarlo.rare_event` covers those.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no closed-form exponential tilt; "
            "use the multilevel-splitting sampler instead"
        )

    def with_mean(self, mean_nm: float) -> "PitchDistribution":
        """Same family and shape (CV), rescaled to a new mean pitch.

        Pitch is a scale family in every implemented distribution, so
        rescaling the mean preserves the coefficient of variation exactly.
        The yield-surface sweeps use this to walk a CNT-density axis
        (density = 1 / µS) without re-deriving the family each time.
        """
        ensure_positive(mean_nm, "mean_nm")
        raise NotImplementedError(
            f"{type(self).__name__} does not implement with_mean"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(mean_nm={self.mean_nm:.4g}, "
            f"std_nm={self.std_nm:.4g})"
        )


@dataclass(frozen=True, repr=False)
class DeterministicPitch(PitchDistribution):
    """Perfectly regular CNT array: every gap equals ``pitch_nm``.

    This is the ideal-growth limit; with it the CNT count is simply
    ``floor(W / pitch) + 1`` and there is no density variation at all.
    """

    pitch_nm: float

    def __post_init__(self) -> None:
        ensure_positive(self.pitch_nm, "pitch_nm")

    @property
    def mean_nm(self) -> float:
        """Mean pitch µS in nm (the fixed pitch itself)."""
        return self.pitch_nm

    @property
    def std_nm(self) -> float:
        """Pitch standard deviation σS in nm (zero: no variation)."""
        return 0.0

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` identical gaps of ``pitch_nm`` nm."""
        return np.full(size, self.pitch_nm, dtype=float)

    def sum_cdf_array(self, n_values: np.ndarray, w_nm) -> np.ndarray:
        """Degenerate n-fold sum CDF: a unit step at ``n * pitch_nm``."""
        n = np.asarray(n_values)
        if np.any(n < 0):
            raise ValueError("n must be non-negative")
        w = np.asarray(w_nm, dtype=float)
        return np.where(n == 0, w >= 0, n * self.pitch_nm <= w).astype(float)

    def with_mean(self, mean_nm: float) -> "DeterministicPitch":
        """Deterministic pitch rescaled to a new value (CV stays 0)."""
        return DeterministicPitch(pitch_nm=mean_nm)


def _gamma_sum(
    n_values: np.ndarray, w_nm, shape: float, scale_nm: float, upper: bool
) -> np.ndarray:
    """``P{S_n <= w_nm}``, or ``P{S_n > w_nm}`` when ``upper``, for sums of
    n Gamma(shape, scale) gaps; ``n`` and ``w_nm`` broadcast.

    The regularised incomplete gammas are these functions without the
    per-call overhead of the ``scipy.stats`` wrapper; both are exact at a
    zero argument, so non-positive widths need no branch of their own.
    """
    n = np.asarray(n_values)
    if np.any(n < 0):
        raise ValueError("n must be non-negative")
    w = np.asarray(w_nm, dtype=float)
    gammainc = special.gammaincc if upper else special.gammainc
    value = gammainc(np.maximum(n, 1) * shape, np.maximum(w, 0.0) / scale_nm)
    # The empty sum S_0 = 0 sits at or below every non-negative width.
    return np.where(n == 0, (w < 0) if upper else (w >= 0), value).astype(float)


@dataclass(frozen=True, repr=False)
class ExponentialPitch(PitchDistribution):
    """Exponentially distributed pitch (CV = 1), i.e. Poisson CNT placement.

    This is the "completely random" growth limit and the default calibration
    of the reproduction: measured inter-CNT spacings in [Zhang 09a] show a
    spread comparable to their mean.
    """

    mean_pitch_nm: float

    def __post_init__(self) -> None:
        ensure_positive(self.mean_pitch_nm, "mean_pitch_nm")

    @property
    def mean_nm(self) -> float:
        """Mean pitch µS in nm."""
        return self.mean_pitch_nm

    @property
    def std_nm(self) -> float:
        """Pitch standard deviation σS in nm (equals the mean: CV = 1)."""
        return self.mean_pitch_nm

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` independent exponential gaps (nm)."""
        return rng.exponential(scale=self.mean_pitch_nm, size=size)

    def sum_cdf_array(self, n_values: np.ndarray, w_nm) -> np.ndarray:
        """Exact n-fold sum CDF: Erlang(n, rate 1/mean), one call over ``(n, w)``."""
        return _gamma_sum(n_values, w_nm, 1.0, self.mean_pitch_nm, upper=False)

    def sum_sf_array(self, n_values: np.ndarray, w_nm) -> np.ndarray:
        """Vectorised Erlang survival function, exact near zero."""
        return _gamma_sum(n_values, w_nm, 1.0, self.mean_pitch_nm, upper=True)

    def exponential_tilt(self, mean_factor: float) -> GapTilt:
        # Tilting Exp(mean) by exp(θs) stays exponential with mean
        # mean / (1 - θ·mean); parameterised by the mean factor β the
        # per-gap log ratio is  log β − s (β − 1) / (β · mean).
        """In-family tilt: the tilted gap law stays exponential."""
        return _gamma_family_tilt(self, shape=1.0, mean_factor=mean_factor)

    def with_mean(self, mean_nm: float) -> "ExponentialPitch":
        """Exponential pitch rescaled to a new mean (CV stays 1)."""
        return ExponentialPitch(mean_pitch_nm=mean_nm)

    def thinned(self, p_keep: float) -> "ExponentialPitch":
        """Thinning a Poisson process leaves it Poisson: mean ``µ / p_keep``."""
        if _keeps_all(p_keep):
            return self
        return ExponentialPitch(mean_pitch_nm=self.mean_pitch_nm / p_keep)


@dataclass(frozen=True, repr=False)
class GammaPitch(PitchDistribution):
    """Gamma-distributed pitch with arbitrary coefficient of variation.

    The gamma family is closed under summation, so the n-fold sum CDF is
    exact.  ``cv < 1`` models partially ordered growth (more regular than
    Poisson), ``cv > 1`` models clumpy growth.
    """

    mean_pitch_nm: float
    cv_value: float

    def __post_init__(self) -> None:
        ensure_positive(self.mean_pitch_nm, "mean_pitch_nm")
        ensure_positive(self.cv_value, "cv_value")

    @property
    def shape(self) -> float:
        """Gamma shape parameter k = 1 / cv^2."""
        return 1.0 / (self.cv_value ** 2)

    @property
    def scale_nm(self) -> float:
        """Gamma scale parameter θ = mean / k."""
        return self.mean_pitch_nm / self.shape

    @property
    def mean_nm(self) -> float:
        """Mean pitch µS in nm."""
        return self.mean_pitch_nm

    @property
    def std_nm(self) -> float:
        """Pitch standard deviation σS in nm (mean times CV)."""
        return self.mean_pitch_nm * self.cv_value

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` independent gamma gaps (nm)."""
        return rng.gamma(shape=self.shape, scale=self.scale_nm, size=size)

    def sample_sums(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """A sum of ``m`` Gamma(k, θ) gaps is one Gamma(m·k, θ) draw."""
        sums = rng.standard_gamma(self.shape * np.asarray(counts, dtype=np.int64))
        sums *= self.scale_nm
        return sums

    def sum_cdf_array(self, n_values: np.ndarray, w_nm) -> np.ndarray:
        """Exact n-fold sum CDF: Gamma(n·k, θ) closure under summation."""
        return _gamma_sum(n_values, w_nm, self.shape, self.scale_nm, upper=False)

    def sum_sf_array(self, n_values: np.ndarray, w_nm) -> np.ndarray:
        """Vectorised Gamma(n·k, θ) survival function, exact near zero."""
        return _gamma_sum(n_values, w_nm, self.shape, self.scale_nm, upper=True)

    def exponential_tilt(self, mean_factor: float) -> GapTilt:
        # Tilting Gamma(k, c) by exp(θs) stays Gamma(k, c / (1 - θc)): the
        # shape (and hence the CV) is preserved, only the scale stretches.
        """In-family tilt: shape (hence CV) preserved, scale stretched."""
        return _gamma_family_tilt(self, shape=self.shape, mean_factor=mean_factor)

    def with_mean(self, mean_nm: float) -> "GammaPitch":
        """Gamma pitch rescaled to a new mean (shape and CV preserved)."""
        return GammaPitch(mean_pitch_nm=mean_nm, cv_value=self.cv_value)


@dataclass(frozen=True, repr=False)
class TruncatedNormalPitch(PitchDistribution):
    """Normally distributed pitch truncated to positive values.

    [Zhang 09a] models the inter-CNT spacing as (approximately) Gaussian.
    The truncation at zero keeps samples physical; the nominal mean and
    standard deviation refer to the *untruncated* parent distribution, and
    the truncated moments are exposed separately.
    """

    nominal_mean_nm: float
    nominal_std_nm: float

    def __post_init__(self) -> None:
        ensure_positive(self.nominal_mean_nm, "nominal_mean_nm")
        ensure_positive(self.nominal_std_nm, "nominal_std_nm")

    @property
    def _alpha(self) -> float:
        """Lower truncation point in standard-normal units."""
        return -self.nominal_mean_nm / self.nominal_std_nm

    @property
    def _dist(self):
        return stats.truncnorm(
            a=self._alpha, b=np.inf,
            loc=self.nominal_mean_nm, scale=self.nominal_std_nm,
        )

    @property
    def mean_nm(self) -> float:
        """Mean pitch µS of the *truncated* distribution, in nm."""
        return float(self._dist.mean())

    @property
    def std_nm(self) -> float:
        """Standard deviation σS of the *truncated* distribution, in nm."""
        return float(self._dist.std())

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` independent truncated-normal gaps (nm)."""
        return self._dist.rvs(size=size, random_state=rng)

    def sum_cdf_array(self, n_values: np.ndarray, w_nm) -> np.ndarray:
        """n-fold sum CDF: exact for n <= 1, CLT approximation beyond."""
        return self._sum_array(n_values, w_nm, upper=False)

    def sum_sf_array(self, n_values: np.ndarray, w_nm) -> np.ndarray:
        """Vectorised survival function (exact at n = 1, CLT beyond)."""
        return self._sum_array(n_values, w_nm, upper=True)

    def _sum_array(self, n_values: np.ndarray, w_nm, upper: bool) -> np.ndarray:
        """``P{S_n <= w}`` (or ``> w`` when ``upper``); ``n``, ``w`` broadcast.

        The family is not closed under convolution: a central-limit
        approximation on the truncated moments, exact for a single gap.
        """
        n = np.asarray(n_values)
        if np.any(n < 0):
            raise ValueError("n must be non-negative")
        w = np.asarray(w_nm, dtype=float)
        safe_n = np.maximum(n, 1)
        tail = stats.norm.sf if upper else stats.norm.cdf
        value = tail(w, loc=safe_n * self.mean_nm, scale=np.sqrt(safe_n) * self.std_nm)
        value = np.where(n == 1, (self._dist.sf if upper else self._dist.cdf)(w), value)
        # No positive gap sum lies at or below a non-positive width.
        value = np.where(w <= 0, float(upper), value)
        return np.where(n == 0, (w < 0) if upper else (w >= 0), value).astype(float)

    def exponential_tilt(self, mean_factor: float) -> GapTilt:
        # Tilting N(m, σ²)·1{s>0} by exp(θs) shifts the location to
        # m + θσ² (same σ, same truncation point).  Parameterise by the
        # *nominal-location* factor β: m' = β·m, θ = m(β−1)/σ²; for the
        # lightly-truncated pitches used here the truncated mean scales by
        # ≈ β as well.  The per-gap log ratio picks up the ratio of the
        # truncation normalisations Φ(m'/σ)/Φ(m/σ).
        """In-family tilt: location shifted, same σ and truncation point."""
        if mean_factor <= 0:
            raise ValueError(f"mean_factor must be positive, got {mean_factor}")
        m, sigma = self.nominal_mean_nm, self.nominal_std_nm
        m_tilted = m * mean_factor
        tilted = TruncatedNormalPitch(
            nominal_mean_nm=m_tilted, nominal_std_nm=sigma
        )
        z_nominal = float(stats.norm.cdf(m / sigma))
        z_tilted = float(stats.norm.cdf(m_tilted / sigma))
        return GapTilt(
            nominal=self,
            tilted=tilted,
            log_const_per_gap=(
                (m_tilted ** 2 - m ** 2) / (2.0 * sigma ** 2)
                + math.log(z_tilted / z_nominal)
            ),
            log_slope_per_nm=(m - m_tilted) / sigma ** 2,
        )

    def with_mean(self, mean_nm: float) -> "TruncatedNormalPitch":
        # Scaling both nominal parameters by the same factor scales every
        # truncated moment linearly (the truncation point stays at zero),
        # so the truncated mean hits the target exactly and the CV is kept.
        """Truncated-normal pitch rescaled so the truncated mean hits the target."""
        ensure_positive(mean_nm, "mean_nm")
        factor = mean_nm / self.mean_nm
        return TruncatedNormalPitch(
            nominal_mean_nm=self.nominal_mean_nm * factor,
            nominal_std_nm=self.nominal_std_nm * factor,
        )


def _keeps_all(p_keep: float) -> bool:
    """Whether a thinning by ``p_keep`` keeps every tube; rejects ``p_keep``
    outside ``(0, 1]`` (keeping no tube leaves no gap law to draw)."""
    if not 0.0 < p_keep <= 1.0:
        raise ValueError(f"p_keep must lie in (0, 1], got {p_keep}")
    return p_keep == 1.0


#: Tail mass of the number of base gaps that :meth:`ThinnedPitch.sum_cdf_array`
#: leaves out of its mixture.
THINNED_TAIL = 1e-17


@dataclass(frozen=True, repr=False)
class ThinnedPitch(PitchDistribution):
    """Gap law of the tubes of ``base`` kept independently with ``p_keep``.

    A kept gap is the sum of ``G ~ Geometric(p_keep)`` consecutive base
    gaps (:meth:`PitchDistribution.sample_sums`; one Gamma(k·G, θ) draw
    for a gamma base).  Built by :meth:`PitchDistribution.thinned`, which
    returns closed families (exponential) in their own family instead.
    """

    base: PitchDistribution
    p_keep: float

    def __post_init__(self) -> None:
        _keeps_all(self.p_keep)  # rejects p_keep outside (0, 1]

    @property
    def mean_nm(self) -> float:
        """Mean kept gap ``µ / p`` in nm."""
        return self.base.mean_nm / self.p_keep

    @property
    def std_nm(self) -> float:
        """Kept-gap standard deviation: ``sqrt(σ² / p + µ² (1 − p) / p²)``."""
        p, mean = self.p_keep, self.base.mean_nm
        return math.sqrt(self.base.std_nm ** 2 / p + mean ** 2 * (1.0 - p) / p ** 2)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` kept gaps: geometric group sizes, then their sums.

        ``G = 1 + floor(E / λ)``, with ``E`` standard exponential and
        ``λ = −log(1 − p)``, is Geometric(p).  Drawn this way a group size
        costs one exponential variate: for kept fractions near 1/2, where
        ``Generator.geometric`` searches, that is about twice as fast.
        """
        groups = rng.standard_exponential(size)
        groups /= -math.log1p(-self.p_keep)
        np.floor(groups, out=groups)
        groups += 1.0
        return self.base.sample_sums(groups.astype(np.int64), rng)

    def sum_cdf_array(self, n_values: np.ndarray, w_nm) -> np.ndarray:
        """n-fold sum CDF as a mixture over the number of base gaps.

        ``n`` kept gaps span ``n + J`` base gaps with ``J`` negative
        binomial; the mixture of the base's sum CDFs is cut where the
        largest ``n``'s ``J`` has tail mass :data:`THINNED_TAIL` left.
        """
        n = np.asarray(n_values)
        if np.any(n < 0):
            raise ValueError("n must be non-negative")
        w = np.asarray(w_nm, dtype=float)
        safe_n = np.maximum(n, 1)
        j_max = int(stats.nbinom.isf(THINNED_TAIL, int(safe_n.max()), self.p_keep))
        extra = np.arange(j_max + 1).reshape((-1,) + (1,) * max(n.ndim, w.ndim))
        mixture = np.sum(
            stats.nbinom.pmf(extra, safe_n, self.p_keep)
            * self.base.sum_cdf_array(safe_n + extra, w),
            axis=0,
        )
        return np.where(n == 0, w >= 0, mixture).astype(float)


def _gamma_family_tilt(
    nominal: PitchDistribution, shape: float, mean_factor: float
) -> GapTilt:
    """Exponential tilt shared by the gamma family (exponential = shape 1).

    With nominal scale ``c = mean / shape`` and tilted scale ``c·β``, the
    per-gap log density ratio is ``shape · log β + s · (1/(cβ) − 1/c)``.
    """
    if mean_factor <= 0:
        raise ValueError(f"mean_factor must be positive, got {mean_factor}")
    mean = nominal.mean_nm
    if isinstance(nominal, ExponentialPitch):
        tilted: PitchDistribution = ExponentialPitch(
            mean_pitch_nm=mean * mean_factor
        )
    else:
        tilted = GammaPitch(mean_pitch_nm=mean * mean_factor, cv_value=nominal.cv)
    scale = mean / shape
    return GapTilt(
        nominal=nominal,
        tilted=tilted,
        log_const_per_gap=shape * math.log(mean_factor),
        log_slope_per_nm=(1.0 / (scale * mean_factor) - 1.0 / scale),
    )


def pitch_distribution_from_cv(mean_pitch_nm: float, cv: float) -> PitchDistribution:
    """Build the most natural pitch distribution for a given (mean, CV) pair.

    * ``cv == 0`` → :class:`DeterministicPitch`
    * ``cv == 1`` → :class:`ExponentialPitch`
    * otherwise → :class:`GammaPitch`

    This is the factory used by the calibration layer, so the rest of the
    library never hard-codes a distributional family.
    """
    ensure_positive(mean_pitch_nm, "mean_pitch_nm")
    if cv < 0:
        raise ValueError(f"cv must be non-negative, got {cv}")
    if cv == 0.0:
        return DeterministicPitch(pitch_nm=mean_pitch_nm)
    if abs(cv - 1.0) < 1e-12:
        return ExponentialPitch(mean_pitch_nm=mean_pitch_nm)
    return GammaPitch(mean_pitch_nm=mean_pitch_nm, cv_value=cv)
