"""Tests for sweep axes and the raw bilinear kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.surface.grid import GridAxis, bilinear_interpolate


class TestGridAxis:
    def test_from_range_log_spacing(self):
        axis = GridAxis.from_range("w", 10.0, 1000.0, 5)
        assert axis.values[0] == 10.0 and axis.values[-1] == 1000.0
        ratios = axis.values[1:] / axis.values[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_from_range_linear_spacing(self):
        axis = GridAxis.from_range("w", 1.0, 5.0, 5, spacing="linear")
        assert np.allclose(axis.values, [1, 2, 3, 4, 5])

    def test_from_range_rejects_bad_input(self):
        with pytest.raises(ValueError):
            GridAxis.from_range("w", 5.0, 1.0, 4)
        with pytest.raises(ValueError):
            GridAxis.from_range("w", 1.0, 5.0, 1)
        with pytest.raises(ValueError):
            GridAxis.from_range("w", 1.0, 5.0, 4, spacing="cubic")
        with pytest.raises(ValueError):
            GridAxis.from_range("w", -1.0, 5.0, 4)

    def test_rejects_unsorted_values(self):
        with pytest.raises(ValueError):
            GridAxis("w", np.array([1.0, 3.0, 2.0]))
        with pytest.raises(ValueError):
            GridAxis("w", np.array([1.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            GridAxis("w", np.array([5.0]))

    def test_midpoints_and_interleave(self):
        axis = GridAxis("w", np.array([1.0, 3.0, 7.0]))
        assert np.allclose(axis.midpoints(), [2.0, 5.0])
        assert np.allclose(axis.with_midpoints(), [1, 2, 3, 5, 7])

    def test_refined_inserts_flagged_midpoints_only(self):
        axis = GridAxis("w", np.array([1.0, 3.0, 7.0]))
        refined = axis.refined(np.array([True, False]))
        assert np.allclose(refined.values, [1, 2, 3, 7])
        same = axis.refined(np.array([False, False]))
        assert same is axis

    def test_refined_rejects_bad_mask_shape(self):
        axis = GridAxis("w", np.array([1.0, 3.0, 7.0]))
        with pytest.raises(ValueError):
            axis.refined(np.array([True]))



class TestBilinearInterpolate:
    def test_exact_for_bilinear_functions(self):
        # f(x, y) = 2 + 3x - y + 0.5xy lies in span{1, x, y, xy}.
        x = np.array([1.0, 2.0, 4.0, 8.0])
        y = np.array([10.0, 20.0, 40.0])
        f = lambda xx, yy: 2.0 + 3.0 * xx - yy + 0.5 * xx * yy
        values = f(x[:, None], y[None, :])
        rng = np.random.default_rng(1)
        xq = rng.uniform(1.0, 8.0, 257)
        yq = rng.uniform(10.0, 40.0, 257)
        interp, i, j = bilinear_interpolate(x, y, values, xq, yq)
        assert np.allclose(interp, f(xq, yq), rtol=1e-12, atol=1e-12)
        assert np.all((i >= 0) & (i <= x.size - 2))
        assert np.all((j >= 0) & (j <= y.size - 2))

    def test_reproduces_nodes(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([1.0, 4.0])
        values = np.arange(6, dtype=float).reshape(3, 2)
        xg, yg = np.meshgrid(x, y, indexing="ij")
        interp, _, _ = bilinear_interpolate(x, y, values, xg.ravel(), yg.ravel())
        assert np.allclose(interp, values.ravel())

    def test_out_of_grid_clamps_to_boundary_cell(self):
        x = np.array([0.0, 1.0])
        y = np.array([0.0, 1.0])
        values = np.array([[0.0, 0.0], [1.0, 1.0]])  # f = x
        interp, i, j = bilinear_interpolate(
            x, y, values, np.array([2.0]), np.array([0.5])
        )
        # Linear extrapolation from the boundary cell: f(2) = 2.
        assert interp[0] == pytest.approx(2.0)
        assert i[0] == 0 and j[0] == 0

    @settings(max_examples=200, deadline=None)
    @given(
        axis=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2, max_size=12, unique=True,
        ).map(sorted),
        data=st.data(),
    )
    def test_interior_search_matches_clipped_search(self, axis, data):
        """The interior-node search gives the clipped full-axis cell.

        Queries below, inside and above the grid, exactly on nodes, at
        infinities and at NaN all land in the same cell as
        ``clip(searchsorted(axis, q, "right") - 1, 0, n - 2)``.
        """
        grid = np.array(axis)
        on_node = st.sampled_from(axis)
        anywhere = st.floats(allow_nan=True, allow_infinity=True)
        queries = np.array(data.draw(
            st.lists(st.one_of(on_node, anywhere), min_size=1, max_size=20)
        ))
        expected = np.clip(
            np.searchsorted(grid, queries, side="right") - 1, 0, grid.size - 2
        )
        other = np.array([0.0, 1.0])
        values = np.zeros((grid.size, other.size))
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            _, i, j = bilinear_interpolate(
                grid, other, values, queries, np.full(queries.shape, 0.5)
            )
            _, i_t, j_t = bilinear_interpolate(
                other, grid, values.T, np.full(queries.shape, 0.5), queries
            )
        np.testing.assert_array_equal(i, expected)
        np.testing.assert_array_equal(j_t, expected)
        assert not j.any() and not i_t.any()
