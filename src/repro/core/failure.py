"""Device-level CNT count failure probability pF(W) — Eq. 2.2 and Fig. 2.1.

A CNFET fails (CNT count failure) when every tube it captured fails to
provide a working channel.  With independent per-tube failures of
probability ``pf`` (Eq. 2.1) and the count distribution Prob{N(W)},

``pF(W) = Σ_n pf^n · P{N(W) = n} = E[pf^N(W)]``,

i.e. the probability generating function of the count evaluated at ``pf``.
This module wraps that computation, provides the three processing corners of
Fig. 2.1 and exposes the inverse problem (what width achieves a required
pF), which the Wmin solver builds on.

:func:`log_failure_probabilities` is the one exact array evaluator: log pF
over a width array for opens-only, joint opens+shorts
(:mod:`repro.device.shorts`) and ``min_working_tubes > 1`` alike, from one
(count, width) grid per block or the Poisson closed form.  Every pitch
family is a scale family, so pF depends on (W, µS) only through the mean
count x = W / µS; callers that sweep densities (the surface builder, the
serving fallback) evaluate one unit-mean count model at x.  The scalar
:meth:`CNFETFailureModel.failure_probability` stays as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy import stats

from repro.core.count_model import CountModel
from repro.growth.types import CNTTypeModel, per_cnt_failure_probability
from repro.units import ensure_positive, ensure_probability


@dataclass(frozen=True)
class ProcessingCorner:
    """A (pm, pRs) processing condition, as plotted in Fig. 2.1.

    ``pRm`` is assumed ≈ 1 as in the paper's main analysis; it does not enter
    the count-failure probability either way.
    """

    name: str
    metallic_fraction: float
    removal_prob_semiconducting: float

    def __post_init__(self) -> None:
        ensure_probability(self.metallic_fraction, "metallic_fraction")
        ensure_probability(
            self.removal_prob_semiconducting, "removal_prob_semiconducting"
        )

    @property
    def per_cnt_failure_probability(self) -> float:
        """pf = pm + (1 - pm)·pRs for this corner."""
        return per_cnt_failure_probability(
            self.metallic_fraction, self.removal_prob_semiconducting
        )

    def to_type_model(self, removal_prob_metallic: float = 1.0) -> CNTTypeModel:
        """Materialise the corner as a full :class:`CNTTypeModel`.

        ``removal_prob_metallic`` (``eta``, the conditional removal
        probability of a metallic tube) defaults to the paper's pRm = 1
        assumption; values below 1 activate the metallic-short failure
        mode of :mod:`repro.device.shorts` downstream.
        """
        return CNTTypeModel(
            metallic_fraction=self.metallic_fraction,
            removal_prob_metallic=ensure_probability(
                removal_prob_metallic, "removal_prob_metallic"
            ),
            removal_prob_semiconducting=self.removal_prob_semiconducting,
        )


def check_failure_arguments(
    per_cnt_failure: float, short_probability: float, min_working_tubes: int
) -> None:
    """Validate ``(pf, b, N_min)``: probabilities, ``b <= pf``, ``N_min >= 1``."""
    ensure_probability(per_cnt_failure, "per_cnt_failure")
    ensure_probability(short_probability, "short_probability")
    if short_probability > per_cnt_failure:
        raise ValueError(
            "short_probability must not exceed per_cnt_failure "
            f"(a surviving short is a failed tube); got "
            f"{short_probability} > {per_cnt_failure}"
        )
    if int(min_working_tubes) < 1 or min_working_tubes != int(min_working_tubes):
        raise ValueError(
            f"min_working_tubes must be a positive integer, got {min_working_tubes!r}"
        )


def log_failure_probabilities(
    count_model: CountModel,
    widths_nm,
    per_cnt_failure: float,
    short_probability: float = 0.0,
    min_working_tubes: int = 1,
) -> np.ndarray:
    """Natural-log device failure probability over a 1-D width array.

    * Opens-only (``short_probability = 0``, one working tube needed):
      ``log PGF(pf)``, the Eq. 2.2 value.
    * Joint opens+shorts: ``logaddexp(log(1 - PGF(1 - b)), log PGF(pf - b))``
      — at least one surviving short, or no short and no conducting tube —
      with the short term summed through ``expm1``/``log1p`` so a tiny
      ``b`` does not cancel.  At ``b = 0`` this is the opens-only path.
    * ``min_working_tubes > 1``: ``log E[f(N)]`` with the positive per-count
      failure terms ``f(n) = (1 - (1 - b)^n) + (1 - b)^n · P{Binom(n,
      (1 - pf)/(1 - b)) < min_working_tubes}``.

    The count model supplies each term over the whole array (the Poisson
    model in closed form); values that underflow come back as ``-inf``.
    """
    check_failure_arguments(per_cnt_failure, short_probability, min_working_tubes)
    widths = np.asarray(widths_nm, dtype=float)
    pf, b = float(per_cnt_failure), float(short_probability)
    n_min = int(min_working_tubes)
    if pf >= 1.0:
        return np.zeros(widths.shape)
    if n_min == 1:
        if b == 0.0:
            return count_model.log_pgf_array(widths, pf)
        log_open, log_short = count_model.log_pgf_and_any_short_arrays(
            widths, pf - b, b
        )
        return np.minimum(np.logaddexp(log_short, log_open), 0.0)

    def failing(n: np.ndarray) -> np.ndarray:
        log_no_short = n * math.log1p(-b)
        too_few = stats.binom.cdf(n_min - 1, n, (1.0 - pf) / (1.0 - b))
        return -np.expm1(log_no_short) + np.exp(log_no_short) * too_few

    return np.minimum(count_model.log_mean_array(widths, failing)[0], 0.0)


#: The three processing corners of Fig. 2.1, worst first.
FIG2_1_CORNERS: Sequence[ProcessingCorner] = (
    ProcessingCorner("pm=33%, pRs=30%", 1.0 / 3.0, 0.30),
    ProcessingCorner("pm=33%, pRs=0%", 1.0 / 3.0, 0.0),
    ProcessingCorner("pm=0%, pRs=0%", 0.0, 0.0),
)


class CNFETFailureModel:
    """CNT count failure probability of a single CNFET as a function of width.

    Parameters
    ----------
    count_model:
        CNT count distribution Prob{N(W)}.
    per_cnt_failure:
        Per-tube failure probability pf (Eq. 2.1).  Either pass it directly
        or use :meth:`from_corner` / :meth:`from_type_model`.
    short_probability:
        Per-tube probability ``b = p_m · (1 - eta)`` of a *surviving*
        metallic short (:mod:`repro.device.shorts`).  The default 0
        keeps the opens-only Eq. 2.2 model bit for bit; any positive
        value switches :meth:`failure_probability` to the joint
        opens+shorts closed form.
    min_working_tubes:
        ``N_min`` — conducting semiconducting tubes required for the
        device to function (the paper's model is ``N_min = 1``).
    """

    def __init__(
        self,
        count_model: CountModel,
        per_cnt_failure: float,
        short_probability: float = 0.0,
        min_working_tubes: int = 1,
    ) -> None:
        check_failure_arguments(per_cnt_failure, short_probability, min_working_tubes)
        self.count_model = count_model
        self.per_cnt_failure = float(per_cnt_failure)
        self.short_probability = float(short_probability)
        self.min_working_tubes = int(min_working_tubes)

    @property
    def _joint(self) -> bool:
        """True when the joint opens+shorts model is active."""
        return self.short_probability > 0.0 or self.min_working_tubes > 1

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_corner(
        cls,
        count_model: CountModel,
        corner: ProcessingCorner,
        removal_eta: float = 1.0,
    ) -> "CNFETFailureModel":
        """Build a failure model for one of the Fig. 2.1 processing corners.

        ``removal_eta`` is the conditional metallic-removal probability
        ``eta``; values below 1 leave surviving shorts with per-tube
        probability ``p_m · (1 - eta)`` and activate the joint model.
        """
        return cls.from_type_model(
            count_model, corner.to_type_model(removal_prob_metallic=removal_eta)
        )

    @classmethod
    def from_type_model(
        cls, count_model: CountModel, type_model: CNTTypeModel
    ) -> "CNFETFailureModel":
        """Build a failure model from a full CNT type/removal model.

        The type model's ``surviving_metallic_probability`` becomes the
        short term — zero (hence the opens-only model, bit for bit) for
        every pRm = 1 model, which is all of them before the shorts
        extension.
        """
        return cls(
            count_model,
            type_model.per_cnt_failure_probability,
            short_probability=type_model.surviving_metallic_probability,
        )

    # ------------------------------------------------------------------
    # Forward problem: pF(W)
    # ------------------------------------------------------------------

    def failure_probability(self, width_nm: float) -> float:
        """pF(W) — Eq. 2.2, or the joint opens+shorts extension.

        With ``short_probability = 0`` and ``min_working_tubes = 1`` this
        is the count PGF at pf exactly as before; otherwise it is the
        thinned joint closed form of :mod:`repro.device.shorts`.
        """
        ensure_positive(width_nm, "width_nm")
        if self._joint:
            from repro.device.shorts import joint_failure_probability

            return joint_failure_probability(
                self.count_model,
                width_nm,
                self.per_cnt_failure,
                self.short_probability,
                min_working_tubes=self.min_working_tubes,
            )
        if self.per_cnt_failure == 1.0:
            return 1.0
        if self.per_cnt_failure == 0.0:
            # Only an empty active region fails.
            return self.count_model.prob_zero(width_nm)
        return float(self.count_model.pgf(width_nm, self.per_cnt_failure))

    def failure_probabilities(self, widths_nm: Iterable[float]) -> np.ndarray:
        """pF(W) over a width array: exp of :meth:`log_failure_probabilities`."""
        return np.exp(self.log_failure_probabilities(widths_nm))

    def log_failure_probabilities(self, widths_nm: Iterable[float]) -> np.ndarray:
        """Natural-log pF(W) over a width array — the sweep-grid fast path.

        The yield-surface builder tabulates log pF, where the interesting
        values (1e-9 and below) underflow a plain probability array's
        relative precision.  One call of the module's array evaluator
        :func:`log_failure_probabilities` covers the whole array.
        """
        widths = np.asarray(list(widths_nm), dtype=float)
        if widths.size and np.any(widths <= 0):
            raise ValueError("widths_nm must be positive")
        return log_failure_probabilities(
            self.count_model,
            widths,
            self.per_cnt_failure,
            self.short_probability,
            self.min_working_tubes,
        )

    def log10_failure_probability(self, width_nm: float) -> float:
        """log10 pF(W), from the log-space array evaluator (no underflow at
        very large widths for the Poisson closed form)."""
        ensure_positive(width_nm, "width_nm")
        return float(self.log_failure_probabilities([width_nm])[0]) / math.log(10.0)

    def survival_probability(self, width_nm: float) -> float:
        """1 - pF(W) — probability the device has at least one working tube."""
        return 1.0 - self.failure_probability(width_nm)

    # ------------------------------------------------------------------
    # Inverse problem: width for a required pF
    # ------------------------------------------------------------------

    def width_for_failure_probability(
        self,
        target_pf: float,
        w_low_nm: float = 1.0,
        w_high_nm: Optional[float] = None,
        tolerance_nm: float = 0.01,
    ) -> float:
        """Smallest width whose failure probability is at most ``target_pf``.

        pF(W) decreases monotonically with W (more tubes on average), so a
        bisection on W suffices.  ``w_high_nm`` is grown geometrically until
        it brackets the target if not supplied.

        Raises
        ------
        ValueError
            When the short failure mode is active: with surviving shorts
            pF(W) is no longer monotone in W (wider devices capture more
            shorting tubes), so no unique inverse exists.
        """
        if self.short_probability > 0.0:
            raise ValueError(
                "width_for_failure_probability is undefined with an active "
                "short failure mode: pF(W) is not monotone decreasing in W"
            )
        target_pf = ensure_probability(target_pf, "target_pf")
        if target_pf == 0.0:
            raise ValueError("target_pf = 0 cannot be met at any finite width")
        ensure_positive(w_low_nm, "w_low_nm")

        if self.failure_probability(w_low_nm) <= target_pf:
            return w_low_nm

        if w_high_nm is None:
            w_high_nm = max(2.0 * w_low_nm, 32.0)
            for _ in range(64):
                if self.failure_probability(w_high_nm) <= target_pf:
                    break
                w_high_nm *= 2.0
            else:
                raise RuntimeError(
                    "could not bracket the target failure probability "
                    f"{target_pf} with widths up to {w_high_nm} nm"
                )
        elif self.failure_probability(w_high_nm) > target_pf:
            raise ValueError(
                f"pF({w_high_nm} nm) is still above the target {target_pf}"
            )

        low, high = w_low_nm, w_high_nm
        while high - low > tolerance_nm:
            mid = 0.5 * (low + high)
            if self.failure_probability(mid) <= target_pf:
                high = mid
            else:
                low = mid
        return high

    # ------------------------------------------------------------------
    # Reporting helper
    # ------------------------------------------------------------------

    def curve(
        self, widths_nm: Iterable[float]
    ) -> "FailureCurve":
        """Evaluate the pF(W) curve over a set of widths (for Fig. 2.1)."""
        widths = np.asarray(list(widths_nm), dtype=float)
        return FailureCurve(
            widths_nm=widths,
            failure_probabilities=self.failure_probabilities(widths),
            per_cnt_failure=self.per_cnt_failure,
        )


@dataclass(frozen=True)
class FailureCurve:
    """A sampled pF(W) curve, as plotted in Fig. 2.1."""

    widths_nm: np.ndarray
    failure_probabilities: np.ndarray
    per_cnt_failure: float

    def interpolate_width(self, target_pf: float) -> float:
        """Width at which the curve crosses ``target_pf`` (log-linear interp)."""
        target_pf = ensure_probability(target_pf, "target_pf")
        if target_pf <= 0:
            raise ValueError("target_pf must be positive")
        log_p = np.log10(np.clip(self.failure_probabilities, 1e-300, None))
        log_target = math.log10(target_pf)
        # pF decreases with W: find the first index below the target.
        below = np.where(log_p <= log_target)[0]
        if below.size == 0:
            raise ValueError("curve never reaches the target failure probability")
        idx = below[0]
        if idx == 0:
            return float(self.widths_nm[0])
        w0, w1 = self.widths_nm[idx - 1], self.widths_nm[idx]
        p0, p1 = log_p[idx - 1], log_p[idx]
        if p1 == p0:
            return float(w1)
        frac = (log_target - p0) / (p1 - p0)
        return float(w0 + frac * (w1 - w0))
