"""Liberty-style NLDM characterization on top of the gate delay model.

Real signoff flows read cell delays from Liberty non-linear delay model
(NLDM) lookup tables: a small grid of delay values indexed by input slew
(``index_1``) and output load (``index_2``), bilinearly interpolated and
clamped at the grid edges.  This module reproduces that idiom over
:class:`~repro.analysis.delay.GateDelayModel`: every distinct
``(cell, drive width)`` gets one table whose entries are

``t(slew, load) = slew_sensitivity · slew + load / I_nom(W)``

with ``I_nom(W)`` the mean-working-tube nominal drive current.  At the
delay model's own load (``fanout ×`` the device's gate capacitance) and
zero slew the table reproduces ``GateDelayModel.nominal_delay`` exactly,
which pins the characterization to the σ/µ ∝ 1/√N averaging model the
rest of the reproduction uses.  Units compose to picoseconds natively:
aF / µA = ps.

Per-trial Monte Carlo scaling happens *outside* the table: a trial's gate
delay is the table's nominal value times ``I_nom / I_trial``, where
``I_trial`` sums the sampled per-tube currents of the tubes that gate
actually captured (see :mod:`repro.timing.parametric`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.delay import GateDelayModel
from repro.timing.graph import TimingGraph
from repro.units import ensure_positive

#: Default input-slew axis (ps) — 7 points, the classic NLDM grid shape.
DEFAULT_SLEW_INDEX_PS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Default output-load axis (aF) — 7 points spanning sub-unit to heavy fanout.
DEFAULT_LOAD_INDEX_AF = (40.0, 80.0, 160.0, 320.0, 640.0, 1280.0, 2560.0)

#: Input slew (ps) assumed when a single nominal delay is read per node.
DEFAULT_INPUT_SLEW_PS = 8.0

#: Fraction of the delay added per ps of input slew in the characterization.
DEFAULT_SLEW_SENSITIVITY = 0.05


@dataclass(frozen=True)
class NLDMTable:
    """One Liberty-style delay table: slew × load grid of delays (ps).

    Parameters
    ----------
    slew_index_ps:
        Ascending ``index_1`` axis (input slew, ps).
    load_index_af:
        Ascending ``index_2`` axis (output load, aF).
    values_ps:
        Delay grid of shape ``(len(slew_index_ps), len(load_index_af))``.
    """

    slew_index_ps: Tuple[float, ...]
    load_index_af: Tuple[float, ...]
    values_ps: np.ndarray

    def __post_init__(self) -> None:
        slew = np.asarray(self.slew_index_ps, dtype=float)
        load = np.asarray(self.load_index_af, dtype=float)
        values = np.asarray(self.values_ps, dtype=float)
        if slew.ndim != 1 or slew.size < 2 or np.any(np.diff(slew) <= 0):
            raise ValueError("slew_index_ps must be ascending with >= 2 points")
        if load.ndim != 1 or load.size < 2 or np.any(np.diff(load) <= 0):
            raise ValueError("load_index_af must be ascending with >= 2 points")
        if values.shape != (slew.size, load.size):
            raise ValueError(
                f"values_ps must have shape {(slew.size, load.size)}; "
                f"got {values.shape}"
            )
        object.__setattr__(self, "values_ps", values)

    def lookup(self, slew_ps, load_af) -> np.ndarray:
        """Bilinear table lookup, clamped to the grid edges.

        Accepts scalars or arrays (broadcast together); returns the
        interpolated delay(s) in ps, exactly the Liberty evaluation rule:
        queries outside the grid clamp to the boundary cell rather than
        extrapolating.
        """
        slew_axis = np.asarray(self.slew_index_ps, dtype=float)
        load_axis = np.asarray(self.load_index_af, dtype=float)
        slew = np.clip(np.asarray(slew_ps, dtype=float), slew_axis[0], slew_axis[-1])
        load = np.clip(np.asarray(load_af, dtype=float), load_axis[0], load_axis[-1])
        si = np.clip(np.searchsorted(slew_axis, slew) - 1, 0, slew_axis.size - 2)
        li = np.clip(np.searchsorted(load_axis, load) - 1, 0, load_axis.size - 2)
        s0, s1 = slew_axis[si], slew_axis[si + 1]
        l0, l1 = load_axis[li], load_axis[li + 1]
        fs = (slew - s0) / (s1 - s0)
        fl = (load - l0) / (l1 - l0)
        v = self.values_ps
        return (
            v[si, li] * (1 - fs) * (1 - fl)
            + v[si + 1, li] * fs * (1 - fl)
            + v[si, li + 1] * (1 - fs) * fl
            + v[si + 1, li + 1] * fs * fl
        )

    def scaled(self, factor: float) -> "NLDMTable":
        """A copy with every delay entry multiplied by ``factor``.

        The ``genLib`` derating idiom: one base table per function, scaled
        per drive strength or per corner.
        """
        ensure_positive(factor, "factor")
        return NLDMTable(
            slew_index_ps=self.slew_index_ps,
            load_index_af=self.load_index_af,
            values_ps=self.values_ps * float(factor),
        )


def characterize_cell(
    delay_model: GateDelayModel,
    drive_width_nm: float,
    slew_index_ps: Tuple[float, ...] = DEFAULT_SLEW_INDEX_PS,
    load_index_af: Tuple[float, ...] = DEFAULT_LOAD_INDEX_AF,
    slew_sensitivity: float = DEFAULT_SLEW_SENSITIVITY,
) -> NLDMTable:
    """Build the NLDM table of one drive width from the gate delay model.

    Every entry is ``slew_sensitivity · slew + load / I_nom(W)`` where
    ``I_nom(W)`` is the mean-working-count nominal drive current of the
    delay model, so the table evaluated at zero slew and the model's own
    load (``fanout × C_gate(W)``) equals
    :meth:`~repro.analysis.delay.GateDelayModel.nominal_delay`.
    """
    ensure_positive(drive_width_nm, "drive_width_nm")
    if slew_sensitivity < 0:
        raise ValueError("slew_sensitivity must be non-negative")
    mean_working = (
        delay_model.count_model.mean_count(drive_width_nm)
        * delay_model.type_model.per_cnt_success_probability
    )
    nominal_current = mean_working * delay_model.current_model.semiconducting_on_current_ua(
        delay_model.diameter_mean_nm
    )
    slew = np.asarray(slew_index_ps, dtype=float)
    load = np.asarray(load_index_af, dtype=float)
    if nominal_current <= 0:
        values = np.full((slew.size, load.size), np.inf)
    else:
        values = slew_sensitivity * slew[:, None] + load[None, :] / nominal_current
    return NLDMTable(
        slew_index_ps=tuple(float(s) for s in slew),
        load_index_af=tuple(float(c) for c in load),
        values_ps=values,
    )


def characterize_graph(
    graph: TimingGraph,
    delay_model: GateDelayModel,
    slew_index_ps: Tuple[float, ...] = DEFAULT_SLEW_INDEX_PS,
    load_index_af: Tuple[float, ...] = DEFAULT_LOAD_INDEX_AF,
    slew_sensitivity: float = DEFAULT_SLEW_SENSITIVITY,
) -> Dict[Tuple[str, float], NLDMTable]:
    """One NLDM table per distinct ``(cell_name, drive_width)`` of a graph."""
    tables: Dict[Tuple[str, float], NLDMTable] = {}
    for node in graph.nodes:
        key = (node.cell_name, float(node.drive_width_nm))
        if key not in tables:
            tables[key] = characterize_cell(
                delay_model,
                node.drive_width_nm,
                slew_index_ps=slew_index_ps,
                load_index_af=load_index_af,
                slew_sensitivity=slew_sensitivity,
            )
    return tables


def nominal_node_delays(
    graph: TimingGraph,
    delay_model: GateDelayModel,
    input_slew_ps: float = DEFAULT_INPUT_SLEW_PS,
    tables: Optional[Dict[Tuple[str, float], NLDMTable]] = None,
) -> np.ndarray:
    """Per-node nominal delay (ps) read out of the NLDM tables.

    Each node's delay is its table evaluated at the shared input slew and
    the node's own output load; declared sinks contribute 0 (they only
    capture).  Each distinct table is read once, on the loads of all its
    nodes (elementwise, so equal to one lookup per node).  This vector is
    the trial-independent baseline the Monte Carlo scales by each trial's
    drive-current ratio.
    """
    ensure_positive(input_slew_ps, "input_slew_ps")
    if tables is None:
        tables = characterize_graph(graph, delay_model)
    nodes_of: Dict[Tuple[str, float], List[int]] = {}
    for i, node in enumerate(graph.nodes):
        if not node.is_sink:
            key = (node.cell_name, float(node.drive_width_nm))
            nodes_of.setdefault(key, []).append(i)
    loads = graph.loads_af()
    delays = np.zeros(graph.n_nodes, dtype=float)
    for key, index in nodes_of.items():
        delays[index] = tables[key].lookup(input_slew_ps, loads[index])
    return delays
