"""CNT electronic-type model and the per-CNT failure probability (Eq. 2.1).

During growth each nanotube is metallic with probability ``pm`` and
semiconducting with probability ``ps = 1 - pm``.  A subsequent m-CNT removal
step (see :mod:`repro.growth.removal`) removes a metallic tube with
conditional probability ``pRm`` and — as collateral damage — removes a
semiconducting tube with conditional probability ``pRs``.

For the *CNT count failure* mechanism studied by the paper, a tube is useful
only if it is semiconducting and not removed, so the probability that a
single tube fails to contribute to the channel is

``pf = pm + ps * pRs``                                          (Eq. 2.1)

which notably does not depend on ``pRm``: a metallic tube never contributes
to the channel whether or not it is removed.  (Non-removed metallic tubes do
matter for the noise-margin extension in :mod:`repro.analysis.noise_margin`.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    DEFAULT_METALLIC_FRACTION,
    DEFAULT_REMOVAL_PROB_METALLIC,
    DEFAULT_REMOVAL_PROB_SEMICONDUCTING,
)
from repro.growth.cnt import CNTType
from repro.units import ensure_probability


def per_cnt_failure_probability(pm: float, p_rs: float) -> float:
    """Probability that a single grown CNT does not contribute to the channel.

    Implements Eq. 2.1 of the paper: ``pf = pm + (1 - pm) * pRs``.

    Parameters
    ----------
    pm:
        Probability of a grown CNT being metallic.
    p_rs:
        Conditional probability that a semiconducting CNT is inadvertently
        removed by the m-CNT removal step.
    """
    pm = ensure_probability(pm, "pm")
    p_rs = ensure_probability(p_rs, "p_rs")
    return pm + (1.0 - pm) * p_rs


@dataclass(frozen=True)
class CNTTypeModel:
    """Joint model of CNT type and removal outcome for a single tube.

    Parameters
    ----------
    metallic_fraction:
        pm — probability of a grown tube being metallic.
    removal_prob_metallic:
        pRm — conditional probability of removing a metallic tube.
    removal_prob_semiconducting:
        pRs — conditional probability of (inadvertently) removing a
        semiconducting tube.
    """

    metallic_fraction: float = DEFAULT_METALLIC_FRACTION
    removal_prob_metallic: float = DEFAULT_REMOVAL_PROB_METALLIC
    removal_prob_semiconducting: float = DEFAULT_REMOVAL_PROB_SEMICONDUCTING

    def __post_init__(self) -> None:
        ensure_probability(self.metallic_fraction, "metallic_fraction")
        ensure_probability(self.removal_prob_metallic, "removal_prob_metallic")
        ensure_probability(
            self.removal_prob_semiconducting, "removal_prob_semiconducting"
        )

    # ------------------------------------------------------------------
    # Derived probabilities
    # ------------------------------------------------------------------

    @property
    def semiconducting_fraction(self) -> float:
        """ps = 1 - pm."""
        return 1.0 - self.metallic_fraction

    @property
    def per_cnt_failure_probability(self) -> float:
        """pf of Eq. 2.1 — probability a tube yields no working channel."""
        return per_cnt_failure_probability(
            self.metallic_fraction, self.removal_prob_semiconducting
        )

    @property
    def per_cnt_success_probability(self) -> float:
        """1 - pf — probability a tube yields a working channel."""
        return 1.0 - self.per_cnt_failure_probability

    @property
    def surviving_metallic_probability(self) -> float:
        """Probability a tube ends up as a *surviving* metallic tube.

        Surviving metallic tubes short source to drain and degrade noise
        margins ([Zhang 09b]); this quantity feeds the noise-margin
        extension.
        """
        return self.metallic_fraction * (1.0 - self.removal_prob_metallic)

    @property
    def removed_probability(self) -> float:
        """Unconditional probability that a tube is removed."""
        return (
            self.metallic_fraction * self.removal_prob_metallic
            + self.semiconducting_fraction * self.removal_prob_semiconducting
        )

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def sample_types(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Sample ``size`` tube types; returns an array of :class:`CNTType`."""
        metallic = rng.random(size) < self.metallic_fraction
        return np.where(metallic, CNTType.METALLIC, CNTType.SEMICONDUCTING)

    def sample_removed(
        self, types: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample removal outcomes conditioned on the tube types.

        Parameters
        ----------
        types:
            Array of :class:`CNTType` values.
        rng:
            Random generator.

        Returns
        -------
        numpy.ndarray of bool
            True where the tube is removed.
        """
        types = np.asarray(types, dtype=object)
        is_metallic = np.array([t is CNTType.METALLIC for t in types])
        u = rng.random(types.shape[0])
        removed = np.where(
            is_metallic,
            u < self.removal_prob_metallic,
            u < self.removal_prob_semiconducting,
        )
        return removed

    def sample_working(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Sample whether each of ``size`` tubes provides a working channel.

        Equivalent to sampling types and removal and combining them, but in
        one Bernoulli draw with success probability ``1 - pf``.
        """
        return rng.random(size) >= self.per_cnt_failure_probability

    def with_perfect_removal(self) -> "CNTTypeModel":
        """Return a copy with pRm = 1 (the paper's main-analysis assumption)."""
        return CNTTypeModel(
            metallic_fraction=self.metallic_fraction,
            removal_prob_metallic=1.0,
            removal_prob_semiconducting=self.removal_prob_semiconducting,
        )

    def with_no_processing(self) -> "CNTTypeModel":
        """Return a copy describing growth with no removal step at all."""
        return CNTTypeModel(
            metallic_fraction=self.metallic_fraction,
            removal_prob_metallic=0.0,
            removal_prob_semiconducting=0.0,
        )


#: Processing corners used repeatedly in Fig. 2.1 of the paper.
IDEAL_CORNER = CNTTypeModel(
    metallic_fraction=0.0,
    removal_prob_metallic=1.0,
    removal_prob_semiconducting=0.0,
)
"""pm = 0 %, pRs = 0 % — the lowest curve of Fig. 2.1."""

PERFECT_REMOVAL_CORNER = CNTTypeModel(
    metallic_fraction=1.0 / 3.0,
    removal_prob_metallic=1.0,
    removal_prob_semiconducting=0.0,
)
"""pm = 33 %, pRs = 0 % — the middle curve of Fig. 2.1."""

PESSIMISTIC_CORNER = CNTTypeModel(
    metallic_fraction=1.0 / 3.0,
    removal_prob_metallic=1.0,
    removal_prob_semiconducting=0.30,
)
"""pm = 33 %, pRs = 30 % — the top (worst) curve of Fig. 2.1, used for the
Wmin case study."""
