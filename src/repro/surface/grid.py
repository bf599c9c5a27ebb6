"""Structured sweep grids for the yield-surface subsystem.

A :class:`YieldSurface` tabulates a log failure probability over a
rectilinear (width, CNT density) mesh.  This module owns the axis
machinery — construction, midpoint refinement, and the raw bilinear
interpolation kernel that both the builder (for interpolation-error
probing) and the serving layer (for query answering) share.

Bilinear interpolation is applied in *linear* (W, density) coordinates on
purpose: for the exponential-pitch calibration the Poisson closed form
gives ``log pF = -(W · ρ / 1000) · (1 - pf)``, which lies exactly in the
span of the bilinear basis ``{1, W, ρ, W·ρ}`` — the default surface family
interpolates with zero error by construction, and other families stay
close because the tail is dominated by the same product term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.units import ensure_positive


@dataclass(frozen=True)
class GridAxis:
    """One strictly increasing sweep axis (widths in nm, densities per µm)."""

    name: str
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ValueError(f"axis {self.name!r} needs at least two points")
        if np.any(np.diff(values) <= 0):
            raise ValueError(f"axis {self.name!r} must be strictly increasing")
        if values[0] <= 0:
            raise ValueError(f"axis {self.name!r} must be positive")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_range(
        cls, name: str, low: float, high: float, n_points: int, spacing: str = "log"
    ) -> "GridAxis":
        """Log- (default) or linearly spaced axis over ``[low, high]``."""
        ensure_positive(low, "low")
        if high <= low:
            raise ValueError(f"high must exceed low, got [{low}, {high}]")
        if n_points < 2:
            raise ValueError("n_points must be at least 2")
        if spacing == "log":
            values = np.geomspace(low, high, n_points)
        elif spacing == "linear":
            values = np.linspace(low, high, n_points)
        else:
            raise ValueError(f"unknown spacing {spacing!r}")
        # Pin the endpoints exactly so coverage checks are not float-fuzzy.
        values[0], values[-1] = low, high
        return cls(name=name, values=values)

    @property
    def n_points(self) -> int:
        """Number of grid points on the axis."""
        return int(self.values.size)

    @property
    def n_cells(self) -> int:
        """Number of intervals between consecutive grid points."""
        return self.n_points - 1

    def midpoints(self) -> np.ndarray:
        """Arithmetic midpoints of every interval (bilinear error peaks there)."""
        return 0.5 * (self.values[:-1] + self.values[1:])

    def with_midpoints(self) -> np.ndarray:
        """Values interleaved with their midpoints (the error-probe mesh)."""
        fine = np.empty(2 * self.n_points - 1, dtype=float)
        fine[0::2] = self.values
        fine[1::2] = self.midpoints()
        return fine

    def refined(self, cell_mask: np.ndarray) -> "GridAxis":
        """New axis with the midpoints of the flagged cells inserted."""
        mask = np.asarray(cell_mask, dtype=bool)
        if mask.shape != (self.n_cells,):
            raise ValueError(
                f"cell_mask must have shape ({self.n_cells},), got {mask.shape}"
            )
        if not mask.any():
            return self
        merged = np.sort(np.concatenate([self.values, self.midpoints()[mask]]))
        return GridAxis(name=self.name, values=merged)

def bilinear_interpolate(
    x_grid: np.ndarray,
    y_grid: np.ndarray,
    values: np.ndarray,
    x_query: np.ndarray,
    y_query: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bilinear interpolation of ``values[i, j]`` at scattered query points.

    Returns ``(interpolated, i_cell, j_cell)`` where the cell indices point
    into the ``(len(x_grid) - 1, len(y_grid) - 1)`` cell arrays (for
    per-cell error lookup).  Queries outside the grid are *clamped* to the
    boundary cell — callers decide separately (via
    :meth:`~repro.surface.surface.YieldSurface.covers`) whether a clamped
    answer is acceptable or must fall back to an exact evaluation.  One
    ``searchsorted`` per axis plus fused arithmetic: the
    serving layer leans on this running at millions of queries per second.

    The cell of a query is the number of *interior* nodes at or below it,
    which is already clamped: below the grid it is 0 and at or above the
    last node it is the last cell.
    """
    xq = np.asarray(x_query, dtype=float)
    yq = np.asarray(y_query, dtype=float)
    i = x_grid[1:-1].searchsorted(xq, side="right")
    j = y_grid[1:-1].searchsorted(yq, side="right")
    i1 = i + 1
    j1 = j + 1
    x0 = x_grid[i]
    y0 = y_grid[j]
    tx = (xq - x0) / (x_grid[i1] - x0)
    ty = (yq - y0) / (y_grid[j1] - y0)
    v00 = values[i, j]
    v10 = values[i1, j]
    v01 = values[i, j1]
    v11 = values[i1, j1]
    top = v00 + tx * (v10 - v00)
    bottom = v01 + tx * (v11 - v01)
    return top + ty * (bottom - top), i, j
