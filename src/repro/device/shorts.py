"""Metallic-CNT short failures and the joint opens+shorts closed form.

The paper's Eq. 2.2 counts only *open* failures: a CNFET fails when fewer
than ``N_min`` conducting semiconducting tubes survive under its gate.
Real processes also fail *closed* — imperfect metallic-CNT removal leaves
conducting metallic tubes that short the channel.  This module models
that second per-tube failure mode and derives the joint failure
probability in closed form.

Model
-----
Each grown CNT is independently metallic with probability ``p_m`` and, if
metallic, survives the removal step with probability ``1 - eta`` (``eta``
is the conditional removal probability ``pRm`` of
:class:`~repro.growth.types.CNTTypeModel`; the paper assumes ``eta ≈ 1``,
which recovers the opens-only model exactly).  A tube under the gate is
therefore in one of three states:

* a surviving *short* with probability ``b = p_m · (1 - eta)``,
* a *conducting semiconducting* tube with probability ``a = 1 - pf``
  (``pf`` the Eq. 2.1 per-CNT failure probability), or
* a removed / non-conducting *dud* with probability ``pf - b``
  (``b <= pf`` always, since a surviving metallic tube is a failed tube).

A device fails when it captures fewer than ``N_min`` conducting tubes
(open) **or** at least one surviving short.  Opens and shorts are
*anticorrelated* through the shared count ``N(W)``: trials with few tubes
fail open, trials with many tubes fail short.

Thinning derivation
-------------------
Conditioned on ``N(W) = n`` the three per-tube states are a categorical
thinning of the renewal count (``PitchDistribution.sum_cdf_array``
supplies the count pmf through
:class:`~repro.core.count_model.RenewalCountModel`, and each class count
is then binomial in ``n``).  For the default ``N_min = 1``::

    P{survive | N=n} = (1 - b)^n - (pf - b)^n
    P_fail(W)        = 1 - E[(1 - b)^N] + E[(pf - b)^N]
                     = 1 - PGF(1 - b) + PGF(pf - b)

two extra PGF evaluations on the same count model Eq. 2.2 already uses.
The short term ``1 - PGF(1 - b)`` is summed as the positive terms
``P{N = n} · (1 - (1 - b)^n)``, each formed through ``expm1``/``log1p``:
as a difference from one it would lose all relative precision for the
near-perfect removal (``b`` ~ 1e-12) the shorts mode is meant to study.
At ``b = 0`` this reduces *exactly* (bitwise, not just in the limit) to
the opens-only ``PGF(pf)`` path.  For ``N_min > 1`` the no-short term is
weighted by the binomial survival of the conducting-class count::

    P{survive | N=n} = (1 - b)^n · P{Binom(n, a / (1 - b)) >= N_min}

and the failure is again summed from positive per-count terms.

The functions here are the scalar oracles.  Arrays of widths go through
the one exact array evaluator,
:func:`repro.core.failure.log_failure_probabilities`, which forms the same
terms in log space (``logaddexp`` of the short and open terms; for the
Poisson calibration ``log(-expm1(-λ b))`` and ``-λ (a + b)``) over a
whole width array, accurate down to the ``1e-300`` floor of the yield
surfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from repro.constants import DEFAULT_METALLIC_FRACTION, DEFAULT_REMOVAL_PROB_METALLIC
from repro.core.count_model import CountModel
from repro.core.failure import check_failure_arguments
from repro.growth.types import CNTTypeModel
from repro.units import ensure_probability

__all__ = [
    "ShortsModel",
    "surviving_short_probability",
    "joint_failure_probability",
    "short_only_failure_probability",
]


def surviving_short_probability(metallic_fraction: float, removal_eta: float) -> float:
    """Per-tube probability ``b = p_m · (1 - eta)`` of a surviving short.

    ``removal_eta`` is the conditional removal probability of a metallic
    tube (``pRm``); ``eta = 1`` is perfect removal and gives ``b = 0``,
    the opens-only regime every pre-shorts code path assumes.
    """
    metallic_fraction = ensure_probability(metallic_fraction, "metallic_fraction")
    removal_eta = ensure_probability(removal_eta, "removal_eta")
    return metallic_fraction * (1.0 - removal_eta)


@dataclass(frozen=True)
class ShortsModel:
    """The ``(p_m, eta)`` processing knob of the short failure mode.

    Attributes
    ----------
    metallic_fraction:
        Probability ``p_m`` that a grown CNT is metallic.
    removal_eta:
        Conditional removal probability ``eta`` of a metallic tube; a
        metallic tube survives removal with probability ``1 - eta``.
    """

    metallic_fraction: float = DEFAULT_METALLIC_FRACTION
    removal_eta: float = DEFAULT_REMOVAL_PROB_METALLIC

    def __post_init__(self) -> None:
        ensure_probability(self.metallic_fraction, "metallic_fraction")
        ensure_probability(self.removal_eta, "removal_eta")

    @property
    def short_probability(self) -> float:
        """Per-tube surviving-short probability ``b = p_m · (1 - eta)``."""
        return surviving_short_probability(self.metallic_fraction, self.removal_eta)

    @classmethod
    def from_type_model(cls, type_model: CNTTypeModel) -> "ShortsModel":
        """Read ``(p_m, eta)`` off a :class:`~repro.growth.types.CNTTypeModel`."""
        return cls(
            metallic_fraction=type_model.metallic_fraction,
            removal_eta=type_model.removal_prob_metallic,
        )

    def to_type_model(self, removal_prob_semiconducting: float) -> CNTTypeModel:
        """Build the full per-tube type model at a given ``pRs``."""
        return CNTTypeModel(
            metallic_fraction=self.metallic_fraction,
            removal_prob_metallic=self.removal_eta,
            removal_prob_semiconducting=removal_prob_semiconducting,
        )


def joint_failure_probability(
    count_model: CountModel,
    width_nm: float,
    per_cnt_failure: float,
    short_probability: float,
    min_working_tubes: int = 1,
) -> float:
    """Joint opens+shorts device failure probability at one width.

    ``P{< min_working_tubes conducting tubes or >= 1 surviving short}``
    via the thinning derivation in the module notes.  At
    ``short_probability = 0`` this is the opens-only Eq. 2.2 value
    computed through the identical code path the pre-shorts model used
    (bitwise reduction, pinned by the property suite).
    """
    check_failure_arguments(per_cnt_failure, short_probability, min_working_tubes)
    pf = float(per_cnt_failure)
    b = float(short_probability)
    n_min = int(min_working_tubes)
    if pf >= 1.0:
        # No conducting tubes can exist: every device fails open (or, if
        # b > 0, possibly short first — either way it fails).
        return 1.0
    if b == 0.0 and n_min == 1:
        # Opens-only fast path, bit-identical to CNFETFailureModel.
        if pf == 0.0:
            return count_model.prob_zero(width_nm)
        return count_model.pgf(width_nm, pf)
    if n_min == 1:
        return min(
            1.0,
            short_only_failure_probability(count_model, width_nm, b)
            + count_model.pgf(width_nm, pf - b),
        )
    # General N_min: a short, or no short and too few conducting tubes
    # among the non-short ones (binomial in the count), as positive terms.
    pmf = count_model.pmf(width_nm)
    n = np.arange(pmf.size)
    log_no_short = n * math.log1p(-b)
    too_few = stats.binom.cdf(n_min - 1, n, (1.0 - pf) / (1.0 - b))
    failing = -np.expm1(log_no_short) + np.exp(log_no_short) * too_few
    return min(1.0, float(np.sum(pmf * failing)))


def short_only_failure_probability(
    count_model: CountModel, width_nm: float, short_probability: float
) -> float:
    """Probability ``1 - PGF(1 - b)`` of at least one surviving short.

    The marginal short-failure channel — useful for composing row-level
    short terms and for pinning the anticorrelation sign in tests (the
    joint failure probability is *below* the independent combination of
    this term with the opens-only Eq. 2.2 value).  Summed as the positive
    terms ``P{N = n} · (1 - (1 - b)^n)`` through ``expm1``/``log1p``, so it
    keeps full relative precision at tiny ``b``.
    """
    ensure_probability(short_probability, "short_probability")
    b = float(short_probability)
    if b == 0.0:
        return 0.0
    pmf = count_model.pmf(width_nm)
    shorted = -np.expm1(np.arange(pmf.size) * math.log1p(-b))
    return min(1.0, float(np.sum(pmf * shorted)))
