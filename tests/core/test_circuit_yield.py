"""Tests for the circuit-level yield model — Eq. 2.3 / 2.5."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.circuit_yield import (
    chip_yield,
    chip_yield_from_failure_probabilities,
    expected_failing_devices,
    required_device_failure_probability,
    yield_from_uniform_failure_probability,
    yield_from_uniform_failure_probability_array,
    yield_loss,
)
from repro.core.count_model import PoissonCountModel
from repro.core.failure import CNFETFailureModel


class TestChipYield:
    def test_empty_design_yields_one(self):
        assert chip_yield_from_failure_probabilities([]) == 1.0

    def test_exact_product(self):
        assert chip_yield_from_failure_probabilities([0.1, 0.2]) == pytest.approx(
            0.9 * 0.8
        )

    def test_counts_weighting(self):
        direct = chip_yield_from_failure_probabilities([0.01] * 10)
        weighted = chip_yield_from_failure_probabilities([0.01], counts=[10])
        assert direct == pytest.approx(weighted)

    def test_first_order_approximation(self):
        approx = chip_yield_from_failure_probabilities(
            [1e-9], counts=[3.3e7], exact=False
        )
        exact = chip_yield_from_failure_probabilities([1e-9], counts=[3.3e7])
        assert approx == pytest.approx(exact, rel=1e-3)

    def test_certain_failure(self):
        assert chip_yield_from_failure_probabilities([1.0], counts=[1]) == 0.0

    def test_paper_operating_point(self):
        # Mmin = 33e6 devices at pF = 3.03e-9 should give ~90 % yield.
        result = chip_yield_from_failure_probabilities(
            [3.0303e-9], counts=[33e6]
        )
        assert result == pytest.approx(0.905, abs=0.01)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            chip_yield_from_failure_probabilities([1.2])

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ValueError):
            chip_yield_from_failure_probabilities([0.1, 0.2], counts=[1])

    def test_chip_yield_from_widths(self):
        counts_model = PoissonCountModel(4.0)
        failure = CNFETFailureModel(counts_model, per_cnt_failure=0.533)
        y = chip_yield([160.0, 320.0], failure, counts=[1e6, 1e6])
        assert 0.0 < y <= 1.0
        # Wider devices only help.
        y_wider = chip_yield([320.0, 640.0], failure, counts=[1e6, 1e6])
        assert y_wider >= y


class TestBudgets:
    def test_yield_loss(self):
        assert yield_loss(0.9) == pytest.approx(0.1)

    def test_required_pf_first_order(self):
        budget = required_device_failure_probability(0.9, 33e6)
        assert budget == pytest.approx(0.1 / 33e6)

    def test_required_pf_exact_close_to_first_order(self):
        first = required_device_failure_probability(0.9, 33e6)
        exact = required_device_failure_probability(0.9, 33e6, exact=True)
        assert exact == pytest.approx(first, rel=0.06)

    def test_required_pf_perfect_yield(self):
        assert required_device_failure_probability(1.0, 1e6) == 0.0

    def test_required_pf_invalid_count(self):
        with pytest.raises(ValueError):
            required_device_failure_probability(0.9, 0.0)

    def test_budget_round_trip(self):
        # Using the exact budget should reproduce the yield target exactly.
        budget = required_device_failure_probability(0.9, 1e6, exact=True)
        assert yield_from_uniform_failure_probability(budget, 1e6) == pytest.approx(0.9)

    def test_expected_failures(self):
        assert expected_failing_devices([1e-9, 2e-9], counts=[1e6, 1e6]) == pytest.approx(
            3e-3
        )

    def test_uniform_yield_certain_failure(self):
        assert yield_from_uniform_failure_probability(1.0, 10) == 0.0

    def test_uniform_yield_infinite_devices(self):
        # No device can fail at pF = 0, however many there are.
        assert yield_from_uniform_failure_probability(0.0, math.inf) == 1.0
        assert yield_from_uniform_failure_probability(0.3, math.inf) == 0.0

    def test_uniform_yield_zero_devices(self):
        # An empty product: no device can fail, even a certain failure.
        assert yield_from_uniform_failure_probability(1.0, 0) == 1.0
        assert yield_from_uniform_failure_probability(0.3, 0.0) == 1.0


# p ∈ {0, 1}, m = 0 and m = ∞ are drawn often: they are the empty-product
# and certain-failure corners of Eq. 2.3.
probabilities = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)
device_counts = st.one_of(
    st.sampled_from([0.0, math.inf]), st.floats(min_value=0.0, max_value=1e12)
)


def scalar_oracle(p, m):
    """Elementwise scalar form over broadcast arrays."""
    p, m = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(m, dtype=float))
    return np.vectorize(yield_from_uniform_failure_probability, otypes=[float])(p, m)


def assert_matches_oracle(result, p, m):
    """Equal to the scalar form: exactly at the corners, else to rounding.

    The two forms round differently only through NumPy's vectorised
    ``exp``/``log1p`` against the C library's; an error of a few ulps in
    ``m · log1p(-p)`` (|.| ≤ 745 before the yield underflows) moves the
    yield by at most ~1e-12 relative.
    """
    expected = scalar_oracle(p, m)
    assert result.shape == expected.shape
    np.testing.assert_allclose(result, expected, rtol=1e-12, atol=1e-300)
    p_b, m_b = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(m, dtype=float))
    corners = (p_b == 0.0) | (p_b == 1.0) | (m_b == 0.0) | np.isinf(m_b)
    np.testing.assert_array_equal(result[corners], expected[corners])


class TestUniformYieldArray:
    """The array form against the scalar form it vectorises."""

    @settings(max_examples=150, deadline=None)
    @given(p=probabilities, m=device_counts)
    def test_zero_d_inputs(self, p, m):
        result = yield_from_uniform_failure_probability_array(np.float64(p), m)
        assert isinstance(result, np.ndarray) and result.shape == ()
        assert_matches_oracle(result, p, m)
        zero_d = yield_from_uniform_failure_probability_array(
            np.asarray(p), np.asarray(m)
        )
        assert zero_d.tobytes() == result.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        stack=arrays(np.float64, st.tuples(st.just(3), st.integers(1, 40)),
                     elements=probabilities),
        m=device_counts,
    )
    def test_stack_with_scalar_count(self, stack, m):
        result = yield_from_uniform_failure_probability_array(stack, m)
        assert_matches_oracle(result, stack, m)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40))
    def test_stack_with_per_entry_counts(self, data, n):
        stack = data.draw(arrays(np.float64, (3, n), elements=probabilities))
        counts = data.draw(arrays(np.float64, (n,), elements=device_counts))
        result = yield_from_uniform_failure_probability_array(stack, counts)
        assert_matches_oracle(result, stack, counts)
        # Each row of the stack is bitwise the row mapped on its own.
        for row in range(3):
            alone = yield_from_uniform_failure_probability_array(stack[row], counts)
            assert result[row].tobytes() == alone.tobytes()

    def test_corners(self):
        p = np.array([0.0, 0.0, 1.0, 1.0, 0.5, 0.0, 0.5])
        m = np.array([0.0, 1e9, 0.0, 1e9, 0.0, np.inf, np.inf])
        expected = [1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0]
        for exact in (True, False):
            result = yield_from_uniform_failure_probability_array(p, m, exact)
            np.testing.assert_array_equal(result, expected)
            np.testing.assert_array_equal(
                result,
                [yield_from_uniform_failure_probability(pi, mi, exact)
                 for pi, mi in zip(p, m)],
            )

    @pytest.mark.parametrize("where", [(0, 0), (1, 2), (2, 4)])
    def test_nan_probability_rejected(self, where):
        stack = np.full((3, 5), 0.25)
        stack[where] = np.nan
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            yield_from_uniform_failure_probability_array(stack, 1e6)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            yield_from_uniform_failure_probability(np.nan, 1e6)

    def test_nan_count_rejected(self):
        counts = np.array([1e6, np.nan, 1e6])
        for m in (np.nan, counts):
            with pytest.raises(ValueError, match="device_count"):
                yield_from_uniform_failure_probability_array(np.full((3, 3), 0.25), m)
        with pytest.raises(ValueError, match="device_count"):
            yield_from_uniform_failure_probability(0.25, math.nan)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            yield_from_uniform_failure_probability_array(np.array([0.5, 1.5]), 1.0)
        with pytest.raises(ValueError):
            yield_from_uniform_failure_probability_array(np.array([-0.1]), 1.0)
        with pytest.raises(ValueError):
            yield_from_uniform_failure_probability_array(np.array([0.5]), -1.0)
