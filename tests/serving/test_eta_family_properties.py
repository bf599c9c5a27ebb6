"""Property-based tests (hypothesis) for the removal-eta surface family.

The serving contract of :class:`repro.surface.EtaSurfaceFamily` mirrors
the 2D layer's: every served value carries an error bound that never
excludes the exact joint opens+shorts closed form — on eta nodes, at
interior (interpolated) etas, off the swept eta range and off the 2D
grid alike.  A second contract is physical: served failure can only grow
as removal efficiency degrades (eta falls), on-node and fused alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.surface import EtaSurfaceFamily, GridAxis, SweepSpec

W_LOW, W_HIGH = 60.0, 200.0
D_LOW, D_HIGH = 200.0, 320.0
ETAS = (0.85, 0.92, 1.0)
METALLIC_FRACTION = 1.0 / 3.0

widths = st.floats(min_value=W_LOW, max_value=W_HIGH, allow_nan=False)
densities = st.floats(min_value=D_LOW, max_value=D_HIGH, allow_nan=False)
etas_in_range = st.floats(min_value=ETAS[0], max_value=ETAS[-1], allow_nan=False)


def family_spec(**overrides):
    base = dict(
        scenario="device",
        width_axis=GridAxis.from_range("width_nm", W_LOW, W_HIGH, 9),
        density_axis=GridAxis.from_range("cnt_density_per_um", D_LOW, D_HIGH, 5),
        metallic_fraction=METALLIC_FRACTION,
        tolerance_log=5e-3,
        max_refinement_rounds=3,
    )
    base.update(overrides)
    return SweepSpec(**base)


@pytest.fixture(scope="module")
def family():
    return EtaSurfaceFamily.build(family_spec(), ETAS)


def exact_log(family, w, d, eta):
    values, _ = EtaSurfaceFamily._evaluator_for(family.spec, eta).points(
        np.array([w]), np.array([d])
    )
    return float(values[0])


class TestEtaBoundContract:
    @settings(max_examples=150, deadline=None)
    @given(w=widths, d=densities, eta=etas_in_range)
    def test_bounds_never_exclude_exact_joint_value(self, family, w, d, eta):
        result = family.query(np.array([w]), np.array([d]), eta)
        exact = exact_log(family, w, d, eta)
        served = float(result.log_failure[0])
        bound = float(result.error_log[0])
        assert served - bound <= exact <= served + bound

    @settings(max_examples=50, deadline=None)
    @given(w=widths, d=densities)
    def test_on_node_queries_skip_the_eta_term(self, family, w, d):
        # A node eta serves that node's surface alone, so its bound is
        # the 2D bound only — strictly tighter than any fused neighbour's.
        node = family.query(np.array([w]), np.array([d]), ETAS[1])
        fused = family.query(
            np.array([w]), np.array([d]), 0.5 * (ETAS[1] + ETAS[2])
        )
        assert float(node.error_log[0]) <= float(fused.error_log[0])
        exact = exact_log(family, w, d, ETAS[1])
        assert abs(float(node.log_failure[0]) - exact) <= float(node.error_log[0])

    @settings(max_examples=50, deadline=None)
    @given(w=widths, d=densities, eta=st.floats(min_value=0.0, max_value=0.8))
    def test_off_range_eta_served_exactly(self, family, w, d, eta):
        result = family.query(np.array([w]), np.array([d]), eta)
        assert bool(result.exact[0])
        exact = exact_log(family, w, d, eta)
        assert float(result.log_failure[0]) == pytest.approx(exact, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(d=densities, eta=etas_in_range)
    def test_off_grid_points_served_exactly(self, family, d, eta):
        w = W_HIGH * 2.0  # outside the swept width axis
        result = family.query(np.array([w]), np.array([d]), eta)
        assert bool(result.exact[0])
        exact = exact_log(family, w, d, eta)
        assert float(result.log_failure[0]) == pytest.approx(exact, abs=1e-12)

    def test_off_grid_fallback_not_shared_between_close_etas(self, family):
        # eta = 1 - 1e-16 still has a (tiny) short term that dominates the
        # opens-only value; a cached eta = 1 evaluator must not answer it.
        w, d = W_HIGH * 2.0, 200.0
        family.query(np.array([w]), np.array([d]), 1.0)
        eta = float(np.nextafter(1.0, 0.0))
        result = family.query(np.array([w]), np.array([d]), eta)
        assert float(result.log_failure[0]) == pytest.approx(
            exact_log(family, w, d, eta), abs=1e-12
        )

    @settings(max_examples=100, deadline=None)
    @given(w=widths, d=densities, e1=etas_in_range, e2=etas_in_range)
    def test_served_failure_nonincreasing_in_eta(self, family, w, d, e1, e2):
        # Better metallic removal can only lower the served failure; the
        # eta interpolation is linear between nodes whose values are
        # themselves monotone, so the fused values inherit the order.
        lo, hi = sorted((e1, e2))
        worse = family.query(np.array([w]), np.array([d]), lo)
        better = family.query(np.array([w]), np.array([d]), hi)
        assert float(better.log_failure[0]) <= float(worse.log_failure[0]) + 1e-9


class TestFamilyGuards:
    def test_tilted_method_rejected(self):
        with pytest.raises(ValueError, match="closed-form"):
            EtaSurfaceFamily.build(
                family_spec(scenario="device", method="tilted",
                            metallic_fraction=0.0),
                ETAS,
            )

    def test_empty_etas_rejected(self):
        with pytest.raises(ValueError, match="removal_etas"):
            EtaSurfaceFamily.build(family_spec(), ())

    def test_mismatched_query_shapes_rejected(self, family):
        with pytest.raises(ValueError, match="shape"):
            family.query(np.array([80.0, 90.0]), np.array([250.0]), 0.9)

    def test_describe_reports_the_axis(self, family):
        info = family.describe()
        assert info["removal_etas"] == list(ETAS)
        assert info["n_surfaces"] == len(ETAS)
        assert len(info["eta_interp_error_log"]) == len(ETAS) - 1
