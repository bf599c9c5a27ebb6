"""Timing-graph ingestion: a simple text format plus a design-derived source.

Two ways to obtain a :class:`~repro.timing.graph.TimingGraph`:

``parse_timing_graph`` / ``load_timing_graph``
    Read the reproduction's plain-text timing-graph format — the shape a
    BLIF/netlist flow would emit after technology mapping.  One line per
    element, ``#`` comments::

        node u1 NAND2_X1 width=160 load=640 [source] [sink]
        arc u1 u2

    Widths are nm, loads aF.  Errors carry the offending line number.

``derive_timing_graph``
    Build a graph directly from a placed design inside a
    :class:`~repro.montecarlo.chip_sim.ChipMonteCarlo`, so no external
    files are ever required.  Registers become two nodes (a clock-to-Q
    source and a D-capture sink), combinational cells one node each; fanin
    arcs are drawn deterministically (seeded, locality-weighted toward
    placement neighbours) from already-emitted drivers only, which makes
    the result a DAG *by construction*.  Every node is mapped to its drive
    device's distinct track window in the chip geometry
    (:meth:`~repro.montecarlo.chip_sim.ChipMonteCarlo.instance_windows`),
    which is what lets the parametric tier read per-gate tube counts out of
    the same sampled tracks that decide functional yield.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cells.cell import CellFamily
from repro.device.capacitance import GateCapacitanceModel
from repro.montecarlo.chip_sim import ChipMonteCarlo
from repro.timing.graph import TimingGraph, TimingGraphError, TimingNode

#: Input count per logical function (fanin arcs drawn per derived node);
#: functions not listed default to 2.
FUNCTION_INPUTS: Dict[str, int] = {
    "INV": 1,
    "BUF": 1,
    "NAND2": 2,
    "NOR2": 2,
    "AND2": 2,
    "OR2": 2,
    "XOR2": 2,
    "XNOR2": 2,
    "HA": 2,
    "MUX2": 3,
    "FA": 3,
    "AOI21": 3,
    "OAI21": 3,
    "AOI22": 4,
    "OAI22": 4,
    "AOI222": 6,
    "OAI222": 6,
}


def cell_function(cell_name: str) -> str:
    """Logical function of a library cell name (``"NAND2_X2"`` → ``"NAND2"``)."""
    head, sep, _ = cell_name.rpartition("_X")
    return head if sep else cell_name


# ----------------------------------------------------------------------
# Text format
# ----------------------------------------------------------------------


def parse_timing_graph(text: str) -> TimingGraph:
    """Parse the plain-text timing-graph format into a :class:`TimingGraph`.

    Raises
    ------
    TimingGraphError
        On any malformed line (with its 1-based line number) and on any
        structural problem the graph constructor detects (unknown arc
        endpoints, cycles, flag violations).
    """
    nodes: List[TimingNode] = []
    arcs: List[Tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "node":
            if len(tokens) < 3:
                raise TimingGraphError(
                    f"line {lineno}: node needs a name and a cell: {raw!r}"
                )
            name, cell = tokens[1], tokens[2]
            width: Optional[float] = None
            load = 0.0
            is_source = False
            is_sink = False
            for token in tokens[3:]:
                if token == "source":
                    is_source = True
                elif token == "sink":
                    is_sink = True
                elif token.startswith("width="):
                    width = _parse_value(token, "width", lineno)
                elif token.startswith("load="):
                    load = _parse_value(token, "load", lineno)
                else:
                    raise TimingGraphError(
                        f"line {lineno}: unknown node attribute {token!r}"
                    )
            if width is None:
                raise TimingGraphError(
                    f"line {lineno}: node {name!r} is missing width=<nm>"
                )
            try:
                nodes.append(
                    TimingNode(
                        name=name,
                        cell_name=cell,
                        drive_width_nm=width,
                        load_af=load,
                        is_source=is_source,
                        is_sink=is_sink,
                    )
                )
            except (TimingGraphError, ValueError) as exc:
                raise TimingGraphError(f"line {lineno}: {exc}") from None
        elif kind == "arc":
            if len(tokens) != 3:
                raise TimingGraphError(
                    f"line {lineno}: arc needs exactly a driver and a "
                    f"receiver: {raw!r}"
                )
            arcs.append((tokens[1], tokens[2]))
        else:
            raise TimingGraphError(
                f"line {lineno}: expected 'node' or 'arc', got {kind!r}"
            )
    if not nodes:
        raise TimingGraphError("timing graph text defines no nodes")
    return TimingGraph(nodes, arcs)


def _parse_value(token: str, name: str, lineno: int) -> float:
    """Parse one ``key=value`` float attribute (with line-numbered errors)."""
    _, _, text = token.partition("=")
    try:
        return float(text)
    except ValueError:
        raise TimingGraphError(
            f"line {lineno}: could not parse {name} value {text!r}"
        ) from None


def format_timing_graph(graph: TimingGraph) -> str:
    """Serialise a graph back to the text format (parse round-trips)."""
    lines = [f"# timing graph: {graph.n_nodes} nodes, {graph.n_arcs} arcs"]
    for node in graph.nodes:
        parts = [
            "node",
            node.name,
            node.cell_name,
            f"width={node.drive_width_nm:g}",
            f"load={node.load_af:g}",
        ]
        if node.is_source:
            parts.append("source")
        if node.is_sink:
            parts.append("sink")
        lines.append(" ".join(parts))
    for src, dst in graph.arcs:
        lines.append(f"arc {src} {dst}")
    return "\n".join(lines) + "\n"


def load_timing_graph(path: str) -> TimingGraph:
    """Read and parse a timing-graph file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_timing_graph(handle.read())


# ----------------------------------------------------------------------
# Derivation from a placed design
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DerivedTiming:
    """A timing graph derived from a placed design, window-mapped.

    ``node_window[i]`` is the distinct-window index (into the chip
    geometry's count matrices) of node ``i``'s drive device — the window
    whose per-trial working-tube count scales that node's delay.
    """

    graph: TimingGraph
    node_window: np.ndarray


@dataclass(frozen=True)
class _NodeSpec:
    """Mutable-free staging record for one derived node (pre-load pass)."""

    name: str
    cell_name: str
    drive_width_nm: float
    window: int
    is_source: bool
    is_sink: bool


def derive_timing_graph(
    chip: ChipMonteCarlo,
    seed: int = 2010,
    capacitance_model: Optional[GateCapacitanceModel] = None,
    default_fanout: int = 4,
    locality: float = 64.0,
) -> DerivedTiming:
    """Derive a window-mapped timing graph from a placed design.

    Parameters
    ----------
    chip:
        The chip simulator whose placement (and track-window geometry) the
        graph is built over.
    seed:
        Fanin-sampling seed; the same seed always yields the same graph.
    capacitance_model:
        Gate-capacitance model for receiver input loads (default model
        when omitted).
    default_fanout:
        Load multiplier (in copies of the node's own input capacitance)
        for nodes that end up without receivers.
    locality:
        Mean placement distance (in emitted-driver count) of fanin picks;
        smaller values wire the graph more locally along the rows, which
        is what correlates path delays through shared tracks.

    Returns
    -------
    DerivedTiming
        The DAG plus the per-node drive-window mapping.
    """
    if default_fanout < 1:
        raise ValueError("default_fanout must be at least 1")
    if locality <= 0:
        raise ValueError("locality must be positive")
    cap_model = capacitance_model or GateCapacitanceModel()
    rng = np.random.default_rng(seed)

    specs: List[_NodeSpec] = []
    arcs_idx: List[Tuple[int, int]] = []
    drivers: List[int] = []
    # Drive device (narrowest transistor, first on ties) per cell master,
    # told apart by identity as the chip geometry does.
    drives: Dict[int, Tuple[int, float]] = {}

    def _pick_fanins(k: int) -> List[int]:
        """Locality-weighted distinct picks from the emitted drivers."""
        pool_size = len(drivers)
        k_eff = min(k, pool_size)
        chosen: set = set()
        attempts = 0
        while len(chosen) < k_eff and attempts < 8 * k_eff:
            attempts += 1
            offset = int(rng.geometric(1.0 / locality))
            position = pool_size - offset
            if position >= 0:
                chosen.add(position)
        while len(chosen) < k_eff:
            chosen.add(int(rng.integers(0, pool_size)))
        return [drivers[p] for p in sorted(chosen)]

    for placed, windows in chip.instance_windows():
        cell = placed.cell
        if not windows:
            continue  # physical cells carry no timing arc
        drive = drives.get(id(cell))
        if drive is None:
            widths = cell.transistor_widths_nm()
            drive_pos = int(np.argmin(widths))
            drive = drives[id(cell)] = (drive_pos, float(widths[drive_pos]))
        drive_pos, drive_width = drive
        drive_window = int(windows[drive_pos])
        name = placed.instance.name
        if cell.family is CellFamily.SEQUENTIAL:
            q_index = len(specs)
            specs.append(_NodeSpec(
                name=f"{name}.Q", cell_name=cell.name,
                drive_width_nm=drive_width, window=drive_window,
                is_source=True, is_sink=False,
            ))
            d_index = len(specs)
            specs.append(_NodeSpec(
                name=f"{name}.D", cell_name=cell.name,
                drive_width_nm=drive_width, window=drive_window,
                is_source=False, is_sink=True,
            ))
            for src in _pick_fanins(1):
                arcs_idx.append((src, d_index))
            drivers.append(q_index)
        else:
            k = FUNCTION_INPUTS.get(cell_function(cell.name), 2)
            node_index = len(specs)
            fanins = _pick_fanins(k)
            specs.append(_NodeSpec(
                name=name, cell_name=cell.name,
                drive_width_nm=drive_width, window=drive_window,
                # A combinational node with nothing upstream yet acts as a
                # primary-input driver.
                is_source=not fanins, is_sink=False,
            ))
            for src in fanins:
                arcs_idx.append((src, node_index))
            drivers.append(node_index)

    if not specs:
        raise TimingGraphError(
            "placed design contains no timing-relevant cells"
        )

    # Output load: summed input capacitance of each node's receivers; a
    # node without receivers drives `default_fanout` copies of itself.
    loads = np.zeros(len(specs), dtype=float)
    fanout_seen = np.zeros(len(specs), dtype=bool)
    for src, dst in arcs_idx:
        loads[src] += cap_model.device_capacitance_af(specs[dst].drive_width_nm)
        fanout_seen[src] = True
    for i, spec in enumerate(specs):
        if not fanout_seen[i] and not spec.is_sink:
            loads[i] = default_fanout * cap_model.device_capacitance_af(
                spec.drive_width_nm
            )

    nodes = [
        TimingNode(
            name=spec.name,
            cell_name=spec.cell_name,
            drive_width_nm=spec.drive_width_nm,
            load_af=float(loads[i]),
            is_source=spec.is_source,
            is_sink=spec.is_sink,
        )
        for i, spec in enumerate(specs)
    ]
    arcs = [(specs[src].name, specs[dst].name) for src, dst in arcs_idx]
    graph = TimingGraph(nodes, arcs)
    return DerivedTiming(
        graph=graph,
        node_window=np.array([spec.window for spec in specs], dtype=np.int64),
    )
