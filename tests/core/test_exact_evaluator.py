"""The one exact array evaluator of pF against its scalar oracles.

:func:`repro.core.failure.log_failure_probabilities` answers every exact
device question — opens-only Eq. 2.2, joint opens+shorts and
``min_working_tubes > 1`` — over a whole width array, and the surface
builder calls it once on a unit-mean count model at the mean count
x = W / µS.  These tests pin:

* agreement with the scalar oracle ``CNFETFailureModel.failure_probability``
  at the per-density model, over the serving operating region and its
  tails, for every pitch family, short probability and ``N_min``;
* the scale invariance the x axis relies on (a Hypothesis property of the
  scalar oracle alone);
* the precision of the short term at tiny ``b``, against the
  positive-terms form of ``1 - PGF(1 - b)``;
* the bitwise contracts: Poisson values equal the per-density closed form,
  and ``b = 0`` is the opens-only path.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.correlation import CorrelationParameters
from repro.core.count_model import PoissonCountModel, count_model_from_pitch
from repro.core.failure import CNFETFailureModel, log_failure_probabilities
from repro.device.shorts import joint_failure_probability, short_only_failure_probability
from repro.growth.pitch import ExponentialPitch, GammaPitch, TruncatedNormalPitch
from repro.growth.types import CNTTypeModel
from repro.surface import ExactEvaluator, density_to_mean_pitch_nm
from repro.surface.surface import SCENARIO_DEVICE

PF = 0.5333333333333333
REL = 1e-12
#: Float floor of a log probability near zero (pF near one).
ABS = 1e-15

FAMILIES = {
    "exponential": ExponentialPitch(4.0),
    "gamma_cv0.5": GammaPitch(4.0, 0.5),
    "gamma_cv0.3": GammaPitch(4.0, 0.3),
    "truncated_normal": TruncatedNormalPitch(4.0, 2.0),
}

#: W 60-300 nm x rho 150-400 /um, corners included: the serving region,
#: whose far corner reaches pF ~ 1e-26 and below.
WIDTHS = np.array([60.0, 97.5, 143.25, 231.5, 300.0])
DENSITIES = np.array([150.0, 212.5, 301.75, 400.0])


def oracle_log_pf(pitch, width, density, b=0.0, n_min=1):
    """log pF from the scalar oracle on the per-density count model."""
    model = CNFETFailureModel(
        count_model_from_pitch(pitch.with_mean(density_to_mean_pitch_nm(density))),
        PF,
        short_probability=b,
        min_working_tubes=n_min,
    )
    return math.log(model.failure_probability(width))


def array_log_pf(pitch, widths, densities, b=0.0, n_min=1):
    """log pF from one array call on the unit-mean model at x = W / µS."""
    x = widths / np.array([density_to_mean_pitch_nm(d) for d in densities])
    return log_failure_probabilities(
        count_model_from_pitch(pitch.with_mean(1.0)), x, PF, b, n_min
    )


class TestArrayMatchesScalarOracle:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("b", [0.0, 1e-12, 1e-6, 0.0333])
    @pytest.mark.parametrize("n_min", [1, 3])
    def test_operating_region(self, family, b, n_min):
        pitch = FAMILIES[family]
        w, d = (a.ravel() for a in np.meshgrid(WIDTHS, DENSITIES, indexing="ij"))
        got = array_log_pf(pitch, w, d, b, n_min)
        want = [oracle_log_pf(pitch, wi, di, b, n_min) for wi, di in zip(w, d)]
        np.testing.assert_allclose(got, want, rtol=REL, atol=ABS)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_tail_reaches_1e_26(self, family):
        # The far corner of the region lies in the pmf's low-count tail,
        # where the complementary sum-survival branch carries the value.
        got = array_log_pf(FAMILIES[family], np.array([300.0]), np.array([400.0]))
        assert got[0] < math.log(1e-24)
        assert got[0] == pytest.approx(
            oracle_log_pf(FAMILIES[family], 300.0, 400.0), rel=REL
        )

    def test_width_value_independent_of_its_batch(self):
        counts = count_model_from_pitch(GammaPitch(1.0, 0.5))
        x = np.linspace(8.0, 120.0, 57)
        alone = [log_failure_probabilities(counts, [xi], PF)[0] for xi in x]
        np.testing.assert_allclose(
            log_failure_probabilities(counts, x, PF), alone, rtol=1e-15
        )

    def test_pmf_grid_columns_match_scalar_pmf(self):
        counts = count_model_from_pitch(GammaPitch(4.0, 0.5))
        widths = np.array([20.0, 143.25, 300.0])
        grid = counts.pmf_grid(widths)
        for k, width in enumerate(widths):
            column = counts.pmf(width)
            np.testing.assert_allclose(grid[: column.size, k], column, rtol=1e-13, atol=0)
            assert not grid[column.size :, k].any()


class TestBitwiseContracts:
    def test_poisson_evaluator_equals_per_density_closed_form(self):
        evaluator = ExactEvaluator(
            SCENARIO_DEVICE, ExponentialPitch(4.0), PF, CorrelationParameters()
        )
        rng = np.random.default_rng(20100613)
        w = rng.uniform(60.0, 300.0, 500)
        d = rng.uniform(150.0, 400.0, 500)
        values, _ = evaluator.points(w, d)
        per_density = [
            -(wi / PoissonCountModel(density_to_mean_pitch_nm(di)).mean_pitch_nm)
            * (1.0 - PF)
            for wi, di in zip(w, d)
        ]
        assert np.array_equal(values, per_density)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_zero_short_probability_is_opens_only(self, family):
        counts = count_model_from_pitch(FAMILIES[family])
        widths = np.array([60.0, 178.0, 300.0])
        # pm = 1/3, pRs = 0.3 with perfect metallic removal: no shorts.
        type_model = CNTTypeModel(1.0 / 3.0, 1.0, 0.3)
        pf = type_model.per_cnt_failure_probability
        opens_only = CNFETFailureModel(counts, pf).log_failure_probabilities(widths)
        joint_off = CNFETFailureModel.from_type_model(counts, type_model)
        assert np.array_equal(joint_off.log_failure_probabilities(widths), opens_only)
        assert np.array_equal(
            log_failure_probabilities(counts, widths, pf, 0.0), opens_only
        )


class TestSmallShortProbability:
    """``1 - PGF(1 - b)`` must not cancel at tiny ``b`` (near-perfect removal)."""

    @pytest.mark.parametrize("pitch", [ExponentialPitch(4.0), GammaPitch(4.0, 0.5)])
    @pytest.mark.parametrize("b", [1e-12, 1e-9, 1e-6])
    def test_joint_matches_positive_terms_reference(self, pitch, b):
        counts = count_model_from_pitch(pitch)
        width = 200.0
        pmf = counts.pmf(width)
        n = np.arange(pmf.size)
        short = float(np.sum(pmf * -np.expm1(n * np.log1p(-b))))
        reference = short + counts.pgf(width, PF - b)

        assert joint_failure_probability(counts, width, PF, b) == pytest.approx(
            reference, rel=REL, abs=0.0
        )
        assert short_only_failure_probability(counts, width, b) == pytest.approx(
            short, rel=REL, abs=0.0
        )
        (log_array,) = log_failure_probabilities(counts, [width], PF, b)
        assert math.exp(log_array) == pytest.approx(reference, rel=REL, abs=0.0)


FAMILY_BUILDERS = {
    "exponential": lambda cv: ExponentialPitch(4.0),
    "gamma": lambda cv: GammaPitch(4.0, cv),
    "truncated_normal": lambda cv: TruncatedNormalPitch(4.0, 4.0 * cv),
}


class TestScaleInvariance:
    """pF at (c·W, c·µS) equals pF at (W, µS): the fact behind x = W / µS."""

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.floats(min_value=0.5, max_value=2.0),
        width=st.floats(min_value=20.0, max_value=300.0),
        family=st.sampled_from(sorted(FAMILY_BUILDERS)),
        cv=st.floats(min_value=0.25, max_value=0.7),
        b=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.0333]),
        n_min=st.integers(min_value=1, max_value=3),
    )
    def test_scalar_oracle_depends_on_w_over_mu_only(
        self, c, width, family, cv, b, n_min
    ):
        pitch = FAMILY_BUILDERS[family](cv)

        def log_pf(w, p):
            model = CNFETFailureModel(
                count_model_from_pitch(p), PF, short_probability=b,
                min_working_tubes=n_min,
            )
            return math.log(model.failure_probability(w))

        scaled = log_pf(c * width, pitch.with_mean(c * pitch.mean_nm))
        assert scaled == pytest.approx(log_pf(width, pitch), rel=REL, abs=ABS)
