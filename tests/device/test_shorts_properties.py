"""Property-based tests (hypothesis) on the metallic-short failure mode.

The joint opens+shorts closed form of :mod:`repro.device.shorts` is a
thinning of the renewal count distribution: per tube, *good* with
probability ``1 - pf``, *surviving short* with ``b = p_m · (1 - eta)``,
*dud* with ``pf - b``.  These tests pin the structural facts the rest of
the PR leans on: monotonicity in the ``(p_m, eta)`` processing knobs,
the bitwise reduction to the opens-only Eq. 2.2 path at ``b = 0``, the
Poisson independence identity the thinning derivation predicts, and the
sign of the opens/shorts coupling through the shared tube count.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.count_model import PoissonCountModel, RenewalCountModel
from repro.core.failure import CNFETFailureModel, log_failure_probabilities
from repro.device.shorts import (
    ShortsModel,
    joint_failure_probability,
    surviving_short_probability,
)
from repro.growth.pitch import GammaPitch
from repro.growth.types import CNTTypeModel, per_cnt_failure_probability

DEFAULT_SETTINGS = settings(max_examples=50, deadline=None)

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
fractions = st.floats(min_value=0.0, max_value=0.9, allow_nan=False)
etas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
widths = st.floats(min_value=1.0, max_value=500.0, allow_nan=False)
pitches = st.floats(min_value=0.5, max_value=50.0, allow_nan=False)


def _joint(width, pm, eta, p_rs, count_model=None, n_min=1):
    """Joint pF at one width from the raw (p_m, eta, pRs) knobs."""
    model = count_model if count_model is not None else PoissonCountModel(4.0)
    return joint_failure_probability(
        model,
        width,
        per_cnt_failure_probability(pm, p_rs),
        surviving_short_probability(pm, eta),
        min_working_tubes=n_min,
    )


class TestJointClosedFormProperties:
    @DEFAULT_SETTINGS
    @given(pm=fractions, eta=etas, p_rs=probabilities, width=widths)
    def test_is_probability(self, pm, eta, p_rs, width):
        value = _joint(width, pm, eta, p_rs)
        assert 0.0 <= value <= 1.0

    @DEFAULT_SETTINGS
    @given(pm=fractions, eta=etas, p_rs=probabilities, width=widths)
    def test_monotone_nondecreasing_in_metallic_fraction(
        self, pm, eta, p_rs, width
    ):
        # More metallic tubes hurt both channels: pf and b both grow.
        lower = _joint(width, pm, eta, p_rs)
        higher = _joint(width, min(pm + 0.05, 1.0), eta, p_rs)
        assert higher >= lower - 1e-12

    @DEFAULT_SETTINGS
    @given(pm=fractions, eta=etas, p_rs=probabilities, width=widths)
    def test_monotone_nonincreasing_in_removal_eta(self, pm, eta, p_rs, width):
        # Better metallic removal can only help: b shrinks, pf unchanged.
        at_eta = _joint(width, pm, eta, p_rs)
        improved = _joint(width, pm, min(eta + 0.05, 1.0), p_rs)
        assert improved <= at_eta + 1e-12

    @DEFAULT_SETTINGS
    @given(eta=etas, p_rs=probabilities, width=widths, pitch=pitches)
    def test_pm_zero_reduces_bitwise_to_opens_only(
        self, eta, p_rs, width, pitch
    ):
        # p_m = 0 gives b = 0 whatever eta is; the joint form must route
        # through the identical opens-only Eq. 2.2 code path, bit for bit.
        counts = PoissonCountModel(pitch)
        assert surviving_short_probability(0.0, eta) == 0.0
        joint = _joint(width, 0.0, eta, p_rs, count_model=counts)
        opens_only = CNFETFailureModel(
            counts, per_cnt_failure_probability(0.0, p_rs)
        ).failure_probability(width)
        assert joint == opens_only

    @DEFAULT_SETTINGS
    @given(pm=fractions, eta=etas, p_rs=probabilities, width=widths)
    def test_bracketed_by_marginals_and_union_bound(
        self, pm, eta, p_rs, width
    ):
        # P{open or short} is at least each marginal and at most their sum.
        counts = PoissonCountModel(4.0)
        pf = per_cnt_failure_probability(pm, p_rs)
        b = surviving_short_probability(pm, eta)
        joint = _joint(width, pm, eta, p_rs)
        p_open = counts.pgf(width, pf) if pf > 0.0 else counts.prob_zero(width)
        p_short = 1.0 - counts.pgf(width, 1.0 - b)
        assert joint >= p_open - 1e-12
        assert joint >= p_short - 1e-12
        assert joint <= p_open + p_short + 1e-12

    @DEFAULT_SETTINGS
    @given(
        pm=st.floats(min_value=0.05, max_value=0.9),
        eta=st.floats(min_value=0.0, max_value=0.95),
        p_rs=st.floats(min_value=0.0, max_value=0.9),
        width=widths,
        pitch=pitches,
    )
    def test_poisson_thinning_independence_identity(
        self, pm, eta, p_rs, width, pitch
    ):
        # Poisson thinning splits the tube stream into independent good /
        # short / dud substreams, so the joint failure must factor as
        # 1 - (1 - p_open)(1 - p_short) exactly — the sharpest check the
        # thinning derivation admits.
        counts = PoissonCountModel(pitch)
        pf = per_cnt_failure_probability(pm, p_rs)
        b = surviving_short_probability(pm, eta)
        joint = _joint(width, pm, eta, p_rs, count_model=counts)
        p_open = counts.pgf(width, pf)
        p_short = 1.0 - counts.pgf(width, 1.0 - b)
        assert joint == pytest.approx(
            1.0 - (1.0 - p_open) * (1.0 - p_short), abs=1e-12
        )

    @DEFAULT_SETTINGS
    @given(
        pm=fractions,
        eta=etas,
        p_rs=probabilities,
        width=widths,
        n_min=st.integers(min_value=1, max_value=4),
    )
    def test_monotone_in_min_working_tubes(self, pm, eta, p_rs, width, n_min):
        # Requiring more conducting tubes can only add failures.
        loose = _joint(width, pm, eta, p_rs, n_min=n_min)
        strict = _joint(width, pm, eta, p_rs, n_min=n_min + 1)
        assert strict >= loose - 1e-9

    def test_short_probability_above_pf_rejected(self):
        with pytest.raises(ValueError, match="short_probability"):
            joint_failure_probability(PoissonCountModel(4.0), 40.0, 0.1, 0.2)


class TestLogJointConsistency:
    @DEFAULT_SETTINGS
    @given(
        pm=st.floats(min_value=0.05, max_value=0.9),
        eta=st.floats(min_value=0.0, max_value=0.95),
        p_rs=st.floats(min_value=0.0, max_value=0.9),
        width=widths,
    )
    def test_log_form_matches_linear_form(self, pm, eta, p_rs, width):
        counts = PoissonCountModel(4.0)
        pf = per_cnt_failure_probability(pm, p_rs)
        b = surviving_short_probability(pm, eta)
        if b <= 0.0:
            return
        logs = log_failure_probabilities(counts, [width], pf, b)
        linear = joint_failure_probability(counts, width, pf, b)
        if linear > 0.0:
            assert logs[0] == pytest.approx(math.log(linear), abs=1e-9)
        assert logs[0] <= 0.0

    def test_opens_only_regime_is_closed_form(self):
        # b = 0 runs the opens-only Eq. 2.2 path: -λ(1 - pf), bit for bit.
        widths = np.array([40.0, 120.0])
        logs = log_failure_probabilities(PoissonCountModel(4.0), widths, 0.4, 0.0)
        assert np.array_equal(logs, -(widths / 4.0) * (1.0 - 0.4))


class TestSharedCountCoupling:
    @pytest.mark.parametrize("cv", [0.3, 0.7, 1.5])
    def test_opens_and_shorts_anticorrelated_through_count(self, cv):
        # The two channels read the *same* tube count: more tubes mean
        # fewer opens (pf**N falls) and more shorts (1 - (1-b)**N rises),
        # so the Rao-Blackwellised per-trial values must be negatively
        # correlated whenever the count is non-degenerate — the
        # anticorrelation the shared-track engine inherits.
        model = ShortsModel(metallic_fraction=1.0 / 3.0, removal_eta=0.9)
        pf = per_cnt_failure_probability(1.0 / 3.0, 0.3)
        b = model.short_probability
        counts = RenewalCountModel(GammaPitch(4.0, cv)).sample(
            120.0, 4_000, np.random.default_rng(2010)
        ).astype(float)
        assert np.std(counts) > 0.0
        p_open = np.power(pf, counts)
        p_short = 1.0 - np.power(1.0 - b, counts)
        cov = float(np.cov(p_open, p_short)[0, 1])
        assert cov < 0.0


class TestShortsModelKnob:
    @DEFAULT_SETTINGS
    @given(pm=probabilities, eta=etas, p_rs=probabilities)
    def test_type_model_roundtrip(self, pm, eta, p_rs):
        model = ShortsModel(metallic_fraction=pm, removal_eta=eta)
        type_model = model.to_type_model(removal_prob_semiconducting=p_rs)
        assert ShortsModel.from_type_model(type_model) == model
        assert type_model.surviving_metallic_probability == pytest.approx(
            model.short_probability, abs=1e-15
        )

    @DEFAULT_SETTINGS
    @given(pm=probabilities, eta=etas)
    def test_short_probability_never_exceeds_any_pf(self, pm, eta):
        # b <= p_m <= pf for every pRs, so the closed form's b <= pf
        # precondition holds for all knob settings reachable from a
        # CNTTypeModel — the joint engine never needs to clamp.
        b = surviving_short_probability(pm, eta)
        assert b <= pm + 1e-15
        assert b <= per_cnt_failure_probability(pm, 0.0) + 1e-15
