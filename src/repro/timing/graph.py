"""Timing graphs: cells as nodes, fanout arcs as edges, levelized for STA.

A :class:`TimingGraph` is the minimal structure static timing analysis
needs: every node is one delay-bearing stage (a combinational gate, a
register clock-to-Q launch point, or a register D capture point), every arc
is a driver→receiver dependency, and the graph is a DAG by validated
construction.  Registers are modelled as *two* nodes — a pure source
carrying the clock-to-Q delay and a pure sink capturing data — which is
what makes every register-to-register path start and end at the clock and
guarantees acyclicity for any feedback at the netlist level.

The graph pre-computes the levelized sweep order and, per level, the
flattened edge arrays (``edge_src`` sorted by receiver, with group starts)
that let :mod:`repro.timing.sta` propagate arrival times for *all* Monte
Carlo trials of a chunk in one ``np.maximum.reduceat`` pass per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.units import ensure_positive


class TimingGraphError(ValueError):
    """Structural problem in a timing graph (cycle, bad arc, bad flags)."""


@dataclass(frozen=True)
class TimingNode:
    """One delay-bearing stage of a timing graph.

    Parameters
    ----------
    name:
        Unique node name (instance name, or ``inst.Q`` / ``inst.D`` for the
        two faces of a register).
    cell_name:
        Library cell the node materialises (informational; the width and
        load below are what the delay model consumes).
    drive_width_nm:
        Width of the node's drive device — the CNFET whose captured-tube
        count sets the per-trial drive current.
    load_af:
        Output load (aF) the node drives: the summed input capacitance of
        its receivers.
    is_source:
        The node launches paths (no fanins allowed): a register Q pin or a
        primary input driver.
    is_sink:
        The node terminates paths (no fanouts allowed): a register D pin or
        a primary output.
    """

    name: str
    cell_name: str
    drive_width_nm: float
    load_af: float = 0.0
    is_source: bool = False
    is_sink: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise TimingGraphError("node name must be non-empty")
        ensure_positive(self.drive_width_nm, "drive_width_nm")
        if self.load_af < 0:
            raise TimingGraphError(
                f"node {self.name!r}: load_af must be non-negative"
            )


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` with writing disabled, for index vectors the graph shares."""
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class _LevelEdges:
    """Flattened fanin edges of one level, grouped by receiver.

    ``dst[i]`` is the i-th receiver node of the level; its fanin sources
    occupy ``src[starts[i]:starts[i+1]]`` (the last group runs to the end).
    ``np.maximum.reduceat`` over ``arrival[:, src]`` at ``starts`` computes
    every receiver's fanin maximum in one pass.
    """

    dst: np.ndarray
    src: np.ndarray
    starts: np.ndarray


class TimingGraph:
    """A validated, levelized DAG of :class:`TimingNode` stages.

    Parameters
    ----------
    nodes:
        The nodes, in any order; names must be unique.
    arcs:
        Driver→receiver dependencies as ``(src_name, dst_name)`` pairs.
        Self-loops, arcs into declared sources, arcs out of declared sinks
        and any cycle raise :class:`TimingGraphError`.
    """

    def __init__(
        self,
        nodes: Sequence[TimingNode],
        arcs: Sequence[Tuple[str, str]],
    ) -> None:
        self.nodes: Tuple[TimingNode, ...] = tuple(nodes)
        if not self.nodes:
            raise TimingGraphError("timing graph needs at least one node")
        self._index: Dict[str, int] = {}
        for i, node in enumerate(self.nodes):
            if node.name in self._index:
                raise TimingGraphError(f"duplicate node name {node.name!r}")
            self._index[node.name] = i

        fanins: List[List[int]] = [[] for _ in self.nodes]
        fanout_count = np.zeros(len(self.nodes), dtype=np.int64)
        self.arcs: Tuple[Tuple[str, str], ...] = tuple(arcs)
        for src_name, dst_name in self.arcs:
            if src_name not in self._index:
                raise TimingGraphError(f"arc from unknown node {src_name!r}")
            if dst_name not in self._index:
                raise TimingGraphError(f"arc into unknown node {dst_name!r}")
            if src_name == dst_name:
                raise TimingGraphError(f"self-loop on node {src_name!r}")
            src, dst = self._index[src_name], self._index[dst_name]
            if self.nodes[dst].is_source:
                raise TimingGraphError(
                    f"arc into source node {dst_name!r} (sources launch paths)"
                )
            if self.nodes[src].is_sink:
                raise TimingGraphError(
                    f"arc out of sink node {src_name!r} (sinks terminate paths)"
                )
            fanins[dst].append(src)
            fanout_count[src] += 1
        # Canonical fanin order: ascending source index.  The max reduction
        # is order-exact for floats, but a fixed order keeps the batched
        # plan, the scalar oracle and any future serialisation identical.
        self._fanins: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(f)) for f in fanins
        )
        self._fanout_count = fanout_count
        self._levels = self._levelize()
        self._plan: Optional[Tuple[_LevelEdges, ...]] = None
        self._sources = _read_only(np.array(
            [
                i
                for i, node in enumerate(self.nodes)
                if node.is_source or not self._fanins[i]
            ],
            dtype=np.int64,
        ))
        self._sinks = _read_only(np.array(
            [
                i
                for i, node in enumerate(self.nodes)
                if node.is_sink or fanout_count[i] == 0
            ],
            dtype=np.int64,
        ))

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def _levelize(self) -> Tuple[np.ndarray, ...]:
        """Kahn-style levelization; raises on cycles.

        Level 0 holds every node without fanins; level ``k`` holds nodes
        whose deepest fanin sits at level ``k - 1`` (longest-path levels, so
        one arrival pass per level suffices).
        """
        n = len(self.nodes)
        indegree = np.array([len(f) for f in self._fanins], dtype=np.int64)
        level = np.zeros(n, dtype=np.int64)
        frontier = [i for i in range(n) if indegree[i] == 0]
        fanouts: List[List[int]] = [[] for _ in range(n)]
        for dst, srcs in enumerate(self._fanins):
            for src in srcs:
                fanouts[src].append(dst)
        seen = 0
        while frontier:
            nxt: List[int] = []
            for node in frontier:
                seen += 1
                for dst in fanouts[node]:
                    level[dst] = max(level[dst], level[node] + 1)
                    indegree[dst] -= 1
                    if indegree[dst] == 0:
                        nxt.append(dst)
            frontier = nxt
        if seen != n:
            stuck = [self.nodes[i].name for i in range(n) if indegree[i] > 0]
            raise TimingGraphError(
                f"timing graph has a cycle through {stuck[:5]!r}"
            )
        depth = int(level.max()) + 1
        return tuple(
            np.flatnonzero(level == k).astype(np.int64) for k in range(depth)
        )

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    @property
    def n_arcs(self) -> int:
        """Number of arcs."""
        return len(self.arcs)

    @property
    def depth(self) -> int:
        """Number of levels (longest path length in nodes)."""
        return len(self._levels)

    @property
    def levels(self) -> Tuple[np.ndarray, ...]:
        """Node indices per level; level 0 are the fanin-free nodes."""
        return self._levels

    def index_of(self, name: str) -> int:
        """The node's position in :attr:`nodes` (raises ``KeyError``)."""
        return self._index[name]

    def fanin_indices(self, node_index: int) -> Tuple[int, ...]:
        """Fanin node indices of one node, in canonical (ascending) order."""
        return self._fanins[node_index]

    @property
    def source_indices(self) -> np.ndarray:
        """Indices of path-launching nodes: declared sources plus any
        fanin-free node (read-only, computed once)."""
        return self._sources

    @property
    def sink_indices(self) -> np.ndarray:
        """Indices of path-terminating nodes: declared sinks plus any
        fanout-free node (read-only, computed once)."""
        return self._sinks

    # ------------------------------------------------------------------
    # Node attribute views
    # ------------------------------------------------------------------

    def drive_widths_nm(self) -> np.ndarray:
        """Per-node drive-device width (nm), in node order."""
        return np.array([n.drive_width_nm for n in self.nodes], dtype=float)

    def loads_af(self) -> np.ndarray:
        """Per-node output load (aF), in node order."""
        return np.array([n.load_af for n in self.nodes], dtype=float)

    # ------------------------------------------------------------------
    # Batched-sweep plan
    # ------------------------------------------------------------------

    def edge_plan(self) -> Tuple[_LevelEdges, ...]:
        """Flattened per-level edge arrays for the batched arrival sweep.

        One :class:`_LevelEdges` per level ≥ 1: receivers of the level in
        ascending node order, each receiver's fanin sources contiguous in
        canonical order.  Computed once and cached on the graph.
        """
        if self._plan is not None:
            return self._plan
        plan: List[_LevelEdges] = []
        for level_nodes in self._levels[1:]:
            dst: List[int] = []
            src: List[int] = []
            starts: List[int] = []
            for node in level_nodes.tolist():
                fanins = self._fanins[node]
                if not fanins:
                    # A declared source can sit above level 0 only via its
                    # level assignment; fanin-free nodes are always level 0,
                    # so this cannot happen — guard anyway.
                    continue
                dst.append(node)
                starts.append(len(src))
                src.extend(fanins)
            plan.append(
                _LevelEdges(
                    dst=np.asarray(dst, dtype=np.int64),
                    src=np.asarray(src, dtype=np.int64),
                    starts=np.asarray(starts, dtype=np.int64),
                )
            )
        self._plan = tuple(plan)
        return self._plan
