"""CNT count distributions Prob{N(W)}.

The probability that a CNFET of width ``W`` captures exactly ``n`` CNTs is
the central ingredient of the device failure probability (Eq. 2.2).  Counts
arise from a renewal process along the width axis: successive tubes are
separated by i.i.d. positive pitches, so

``P{N(W) >= n} = P{s_1 + ... + s_n <= W}``

with the boundary convention of an ordinary renewal process started at the
active-region edge: the first tube sits one full pitch from the edge.  For
exponential pitch this is also the stationary law; for any other pitch it
differs from the mid-span windows the batched Monte Carlo kernel counts
(see :class:`RenewalCountModel`).  We implement three interchangeable
models behind a common :class:`CountModel` interface:

:class:`PoissonCountModel`
    Exact for exponentially distributed pitch (CV = 1), and the default
    calibration of the reproduction.

:class:`RenewalCountModel`
    General renewal counting on any :class:`~repro.growth.pitch.PitchDistribution`
    whose n-fold sum CDF is available (exact for gamma/exponential/
    deterministic, CLT-based otherwise).

:class:`EmpiricalCountModel`
    Histogram over Monte Carlo count samples, used to validate the
    analytical models against the growth simulators.
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Dict, Optional, Tuple

import numpy as np
from scipy import stats

from repro.growth.pitch import PitchDistribution, ExponentialPitch, pitch_distribution_from_cv
from repro.units import ensure_positive

#: Widths per (count, width) grid block of the array forms; bounds their
#: memory at a few MB for the tallest grids the surfaces reach.
WIDTH_BLOCK = 256


class CountModel(abc.ABC):
    """Interface for CNT count distributions as a function of device width."""

    @abc.abstractmethod
    def pmf(self, width_nm: float, max_count: Optional[int] = None) -> np.ndarray:
        """Probability mass function of N(W).

        Returns an array ``p`` with ``p[n] = P{N(W) = n}``; the array is long
        enough that the omitted tail mass is negligible (< 1e-12) unless
        ``max_count`` truncates it explicitly.
        """

    @abc.abstractmethod
    def mean_count(self, width_nm: float) -> float:
        """Expected number of CNTs captured at the given width."""

    @abc.abstractmethod
    def sample(
        self, width_nm: float, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``n_samples`` counts at the given width."""

    # ------------------------------------------------------------------
    # Shared derived quantities
    # ------------------------------------------------------------------

    def std_count(self, width_nm: float) -> float:
        """Standard deviation of the count, computed from the pmf."""
        p = self.pmf(width_nm)
        n = np.arange(p.size)
        mean = float(np.sum(n * p))
        var = float(np.sum((n - mean) ** 2 * p))
        return math.sqrt(max(var, 0.0))

    def prob_zero(self, width_nm: float) -> float:
        """P{N(W) = 0} — the open-channel probability before thinning."""
        return float(self.pmf(width_nm)[0])

    def pgf(self, width_nm: float, z: float) -> float:
        """Probability generating function E[z^N(W)].

        Evaluating the PGF at ``z = pf`` yields the device failure
        probability of Eq. 2.2 directly:
        ``pF(W) = Σ_n pf^n · P{N(W) = n} = E[pf^N]``.
        """
        if not 0.0 <= z <= 1.0:
            raise ValueError(f"z must lie in [0, 1] for a probability argument, got {z}")
        p = self.pmf(width_nm)
        n = np.arange(p.size)
        if z == 0.0:
            return float(p[0])
        # Work in log space per term to avoid underflow for large n.
        return float(np.sum(p * np.exp(n * math.log(z))))

    # ------------------------------------------------------------------
    # Array forms over a whole width array (the exact array evaluator)
    # ------------------------------------------------------------------

    def pmf_grid(self, widths_nm: np.ndarray) -> np.ndarray:
        """Count pmfs of a 1-D width array as columns: ``out[n, k] = P{N(W_k) = n}``.

        Columns shorter than the longest are zero-padded.  This default
        stacks :meth:`pmf` per width; the analytical models override it
        with one evaluation over the (count, width) grid.
        """
        columns = [self.pmf(float(w)) for w in np.asarray(widths_nm, dtype=float)]
        out = np.zeros((max((c.size for c in columns), default=1), len(columns)))
        for k, column in enumerate(columns):
            out[: column.size, k] = column
        return out

    def log_mean_array(
        self, widths_nm: np.ndarray, *weights: Callable[[np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """``log E[w(N(W))]`` per weight over a 1-D width array (``-inf`` on underflow).

        Each weight maps the count array ``n = 0, 1, ...`` to per-count
        values; the result has one row per weight.  Widths are taken in
        ascending blocks of :data:`WIDTH_BLOCK`, which bounds the (count,
        width) grid's memory and keeps each block's grid only as tall as
        its widest column.  Every weight of a block reads the same grid.
        """
        widths = np.asarray(widths_nm, dtype=float)
        order = np.argsort(widths, kind="stable")
        mean = np.empty((len(weights), widths.size))
        for start in range(0, widths.size, WIDTH_BLOCK):
            block = order[start : start + WIDTH_BLOCK]
            pmf = self.pmf_grid(widths[block])
            n = np.arange(pmf.shape[0])
            for row, weight in zip(mean, weights):
                row[block] = (weight(n)[:, None] * pmf).sum(axis=0)
        with np.errstate(divide="ignore"):
            return np.log(mean)

    def log_pgf_array(self, widths_nm: np.ndarray, z: float) -> np.ndarray:
        """``log E[z^N(W)]`` over a 1-D width array."""
        return self.log_mean_array(widths_nm, lambda n: np.power(z, n))[0]

    def log_pgf_and_any_short_arrays(
        self, widths_nm: np.ndarray, z: float, b: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``log E[z^N(W)]`` and ``log(1 - E[(1 - b)^N(W)])`` from one pmf grid.

        The second is the log probability that at least one tube is a
        short, summed as the positive terms ``P{N = n} · (1 - (1 - b)^n)``,
        each formed through ``expm1``/``log1p``, so a tiny ``b`` keeps its
        full relative precision instead of cancelling against one.
        """
        log_pgf, log_short = self.log_mean_array(
            widths_nm,
            lambda n: np.power(z, n),
            lambda n: -np.expm1(n * math.log1p(-b)),
        )
        return log_pgf, log_short


class PoissonCountModel(CountModel):
    """Poisson CNT counts — exact for exponentially distributed pitch.

    Parameters
    ----------
    mean_pitch_nm:
        Mean inter-CNT pitch µS; the count at width W has mean W / µS.
    """

    def __init__(self, mean_pitch_nm: float) -> None:
        self.mean_pitch_nm = ensure_positive(mean_pitch_nm, "mean_pitch_nm")

    def rate(self, width_nm: float) -> float:
        """Poisson mean λ(W) = W / µS."""
        ensure_positive(width_nm, "width_nm")
        return width_nm / self.mean_pitch_nm

    def mean_count(self, width_nm: float) -> float:
        """Expected CNT count E[N(W)] = λ(W)."""
        return self.rate(width_nm)

    def pmf(self, width_nm: float, max_count: Optional[int] = None) -> np.ndarray:
        """Poisson pmf of the CNT count at width ``width_nm``."""
        lam = self.rate(width_nm)
        if max_count is None:
            max_count = int(lam + 12.0 * math.sqrt(lam) + 30)
        n = np.arange(max_count + 1)
        return stats.poisson.pmf(n, lam)

    def sample(
        self, width_nm: float, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``n_samples`` Poisson counts at width ``width_nm``."""
        return rng.poisson(self.rate(width_nm), size=n_samples)

    def pgf(self, width_nm: float, z: float) -> float:
        """Probability generating function E[z^N] = exp(-λ(1 - z))."""
        if not 0.0 <= z <= 1.0:
            raise ValueError(f"z must lie in [0, 1], got {z}")
        lam = self.rate(width_nm)
        return math.exp(-lam * (1.0 - z))

    def pmf_grid(self, widths_nm: np.ndarray) -> np.ndarray:
        """Poisson pmf columns, as long as :meth:`pmf` makes the widest one."""
        lam = np.asarray(widths_nm, dtype=float) / self.mean_pitch_nm
        top = int(np.max(lam + 12.0 * np.sqrt(lam) + 30, initial=0.0))
        return stats.poisson.pmf(np.arange(top + 1)[:, None], lam)

    def log_pgf_array(self, widths_nm: np.ndarray, z: float) -> np.ndarray:
        """Closed-form ``log E[z^N] = -λ(W)·(1 - z)`` over a width array."""
        lam = np.asarray(widths_nm, dtype=float) / self.mean_pitch_nm
        return -lam * (1.0 - z)

    def log_pgf_and_any_short_arrays(
        self, widths_nm: np.ndarray, z: float, b: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Closed forms ``-λ(W)·(1 - z)`` and ``log(1 - e^{-λ(W)·b})``."""
        lam = np.asarray(widths_nm, dtype=float) / self.mean_pitch_nm
        with np.errstate(divide="ignore"):
            return self.log_pgf_array(widths_nm, z), np.log(-np.expm1(-lam * b))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PoissonCountModel(mean_pitch_nm={self.mean_pitch_nm})"


class RenewalCountModel(CountModel):
    """Renewal counting on an arbitrary pitch distribution.

    The count pmf is obtained from the n-fold sum CDF of the pitch:

    ``P{N >= n} = F_n(W)``, so ``P{N = n} = F_n(W) - F_{n+1}(W)``.

    The first tube is placed a full pitch from the window edge: an
    ordinary renewal process started at the edge, whose mean count is
    about ``W / µS + (cv² - 1) / 2``.  The batched Monte Carlo kernel
    counts windows that sit mid-span in a track process, which is
    stationary, with mean count ``W / µS``.  The two conventions agree
    for exponential pitch (cv = 1) and differ for any other: the gap is
    a boundary effect of each window, so it does not shrink with ``W``.
    For gamma pitch of CV 0.3-0.5 the kernel's device pF reads 0.76-0.81
    of this model's.  Moving every layer onto one convention is
    ROADMAP.md item 11.

    Parameters
    ----------
    pitch:
        The inter-CNT pitch distribution.
    tail_tolerance:
        The pmf is extended until the remaining tail mass falls below this
        value.
    """

    def __init__(self, pitch: PitchDistribution, tail_tolerance: float = 1e-12) -> None:
        self.pitch = pitch
        if not 0 < tail_tolerance < 1:
            raise ValueError("tail_tolerance must lie in (0, 1)")
        self.tail_tolerance = float(tail_tolerance)
        # Scalar-path callers re-ask one width (noise-margin bisection,
        # per-chunk timing samplers); the array forms bypass this cache.
        self._pmf_cache: Dict[float, np.ndarray] = {}

    def mean_count(self, width_nm: float) -> float:
        """Renewal-theory first-order mean count E[N(W)] ≈ W / µS."""
        ensure_positive(width_nm, "width_nm")
        return width_nm / self.pitch.mean_nm

    def pmf(self, width_nm: float, max_count: Optional[int] = None) -> np.ndarray:
        """Count pmf from the n-fold sum CDF of the pitch (cached per width)."""
        ensure_positive(width_nm, "width_nm")
        key = round(float(width_nm), 9)
        cached = self._pmf_cache.get(key)
        if cached is not None and (max_count is None or cached.size >= max_count + 1):
            return cached if max_count is None else cached[: max_count + 1]

        guess_max = int(self._count_guess(width_nm))
        if max_count is not None:
            guess_max = max(max_count, 1)

        # Vectorised fast path: one batched CDF evaluation covers the range
        # the loop typically walks before its tail-stop; the rare overflow
        # beyond it falls back to scalar calls.  Loop semantics (tail stop,
        # safety stop) are unchanged.
        upper = guess_max + 2 if max_count is None else max_count + 2
        survival_block = self.pitch.sum_cdf_array(np.arange(1, upper), width_nm)
        # Below the count median P{N >= n} rounds towards one and the
        # difference of two such values loses the pmf's low-count tail to
        # cancellation (relative noise ~1e-8 where pF ~ 1e-26).  There the
        # pmf is taken from the complementary P{N < n} = P{S_n > W}
        # instead, which the pitch family evaluates without that loss.
        n_upper_half = int(np.count_nonzero(survival_block > 0.5))
        below_block = self.pitch.sum_sf_array(np.arange(0, n_upper_half + 1), width_nm)

        survival_prev = 1.0  # P{N >= 0} = 1
        probs = []
        n = 0
        while True:
            survival_next = (  # P{N >= n+1}
                float(survival_block[n]) if n < survival_block.size
                else self.pitch.sum_cdf(n + 1, width_nm)
            )
            if n < n_upper_half:
                probs.append(max(float(below_block[n + 1] - below_block[n]), 0.0))
            else:
                probs.append(max(survival_prev - survival_next, 0.0))
            survival_prev = survival_next
            n += 1
            if max_count is not None and n > max_count:
                break
            if max_count is None and survival_next < self.tail_tolerance and n >= guess_max:
                break
            if n > guess_max * 4 + 1000:
                # Safety stop; remaining mass is attributed to the last bin.
                probs[-1] += survival_next
                break
        pmf = np.asarray(probs, dtype=float)
        # Normalise away the tiny truncated tail so downstream sums are exact.
        total = pmf.sum()
        if total > 0:
            pmf = pmf / total
        if max_count is None:
            self._pmf_cache[key] = pmf
        return pmf

    def _count_guess(self, width_nm):
        """Count beyond which the pmf tail is searched for its cut-off."""
        mean = np.asarray(width_nm, dtype=float) / self.pitch.mean_nm
        sigma = np.sqrt(np.maximum(mean, 1.0)) * max(self.pitch.cv, 0.1)
        return mean + 12.0 * sigma + 30

    def pmf_grid(self, widths_nm: np.ndarray) -> np.ndarray:
        """Renewal pmf columns from one sum-CDF/SF evaluation over the (n, W) grid.

        The two-sided construction of :meth:`pmf`, evaluated for every
        width at once: below a column's mean count the pmf is differenced
        from ``P{N < n} = P{S_n > W}``, above it from ``P{N >= n}``, each
        evaluated only where it is used (splitting at the mean rather than
        the median keeps both tails exact).  Rows run until every column's
        remaining tail mass is below ``tail_tolerance``; each column is cut
        where :meth:`pmf` stops and normalised, so a width's pmf does not
        depend on which other widths share its grid.
        """
        widths = np.asarray(widths_nm, dtype=float)
        split = (widths / self.pitch.mean_nm).astype(int)
        guess = self._count_guess(widths).astype(int)
        first = top = int(np.max(guess, initial=0))
        while True:
            n = np.arange(top + 2)[:, None]
            at_least = self._on_grid(self.pitch.sum_cdf_array, n > split, n, widths)
            stop = (n >= guess) & (at_least < self.tail_tolerance)
            if stop.any(axis=0).all() or top > 4 * first + 1000:
                break
            top *= 2
        fewer = self._on_grid(self.pitch.sum_sf_array, n <= split + 1, n, widths)
        pmf = np.maximum(
            np.where(n[:-1] <= split, fewer[1:] - fewer[:-1], at_least[:-1] - at_least[1:]),
            0.0,
        )
        cut = np.where(stop.any(axis=0), stop.argmax(axis=0), top + 1)
        pmf[n[:-1] >= cut] = 0.0
        return pmf / pmf.sum(axis=0)

    @staticmethod
    def _on_grid(function, where: np.ndarray, n: np.ndarray, widths: np.ndarray):
        """``function(n, W)`` on the ``where`` cells of the (n, W) grid, else 0."""
        out = np.zeros(where.shape)
        out[where] = function(
            np.broadcast_to(n, where.shape)[where],
            np.broadcast_to(widths, where.shape)[where],
        )
        return out

    def sample(
        self, width_nm: float, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``n_samples`` counts from the tabulated renewal pmf."""
        pmf = self.pmf(width_nm)
        return rng.choice(pmf.size, size=n_samples, p=pmf)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RenewalCountModel(pitch={self.pitch!r})"


class EmpiricalCountModel(CountModel):
    """Count model backed by Monte Carlo samples at fixed widths.

    Useful to validate analytical models against the growth simulators: build
    it from simulator counts, then compare pmfs / failure probabilities.
    Queries at widths that were not sampled raise ``KeyError``.
    """

    def __init__(self) -> None:
        self._samples: Dict[float, np.ndarray] = {}

    def add_samples(self, width_nm: float, counts: np.ndarray) -> None:
        """Register Monte Carlo count samples for a width."""
        ensure_positive(width_nm, "width_nm")
        counts = np.asarray(counts, dtype=int)
        if counts.size == 0:
            raise ValueError("counts must contain at least one sample")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        key = round(float(width_nm), 9)
        existing = self._samples.get(key)
        if existing is not None:
            counts = np.concatenate([existing, counts])
        self._samples[key] = counts

    def _get(self, width_nm: float) -> np.ndarray:
        key = round(float(width_nm), 9)
        if key not in self._samples:
            raise KeyError(
                f"no samples registered for width {width_nm} nm; "
                f"available widths: {sorted(self._samples)}"
            )
        return self._samples[key]

    @property
    def widths_nm(self) -> list:
        """Widths for which samples have been registered."""
        return sorted(self._samples)

    def pmf(self, width_nm: float, max_count: Optional[int] = None) -> np.ndarray:
        """Histogram pmf of the registered samples at ``width_nm``."""
        counts = self._get(width_nm)
        upper = int(counts.max()) if max_count is None else int(max_count)
        pmf = np.bincount(np.clip(counts, 0, upper), minlength=upper + 1).astype(float)
        return pmf / pmf.sum()

    def mean_count(self, width_nm: float) -> float:
        """Sample mean of the registered counts at ``width_nm``."""
        return float(np.mean(self._get(width_nm)))

    def sample(
        self, width_nm: float, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Bootstrap-resample ``n_samples`` counts for ``width_nm``."""
        counts = self._get(width_nm)
        return rng.choice(counts, size=n_samples, replace=True)


def count_model_from_pitch(pitch: PitchDistribution) -> CountModel:
    """Return the most appropriate count model for a pitch distribution.

    Exponential pitch maps to the exact :class:`PoissonCountModel`; all other
    families use :class:`RenewalCountModel`.
    """
    if isinstance(pitch, ExponentialPitch):
        return PoissonCountModel(mean_pitch_nm=pitch.mean_nm)
    return RenewalCountModel(pitch=pitch)


def count_model_from_cv(mean_pitch_nm: float, cv: float) -> CountModel:
    """Convenience: build a count model straight from (µS, σS/µS)."""
    return count_model_from_pitch(pitch_distribution_from_cv(mean_pitch_nm, cv))
