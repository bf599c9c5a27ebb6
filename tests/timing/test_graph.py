"""Structural tests of TimingGraph: validation, levelization, plans."""

import numpy as np
import pytest

from repro.timing import TimingGraph, TimingGraphError, TimingNode


def _node(name, **kwargs):
    defaults = dict(cell_name="NAND2_X1", drive_width_nm=160.0, load_af=320.0)
    defaults.update(kwargs)
    return TimingNode(name=name, **defaults)


def _diamond():
    # a -> b, a -> c, b -> d, c -> d
    nodes = [_node("a"), _node("b"), _node("c"), _node("d")]
    arcs = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    return TimingGraph(nodes, arcs)


def test_levelization_of_diamond():
    graph = _diamond()
    assert graph.depth == 3
    assert graph.levels[0].tolist() == [graph.index_of("a")]
    assert sorted(graph.levels[1].tolist()) == sorted(
        [graph.index_of("b"), graph.index_of("c")]
    )
    assert graph.levels[2].tolist() == [graph.index_of("d")]


def test_longest_path_levels_not_shortest():
    # a -> c and a -> b -> c: c must sit at level 2, not 1.
    graph = TimingGraph(
        [_node("a"), _node("b"), _node("c")],
        [("a", "c"), ("a", "b"), ("b", "c")],
    )
    assert graph.depth == 3
    assert graph.levels[2].tolist() == [graph.index_of("c")]


def test_sources_and_sinks_include_flags_and_topology():
    nodes = [
        _node("q", is_source=True),
        _node("u1"),
        _node("d", is_sink=True),
        _node("floating"),
    ]
    graph = TimingGraph(nodes, [("q", "u1"), ("u1", "d")])
    sources = {graph.nodes[i].name for i in graph.source_indices}
    sinks = {graph.nodes[i].name for i in graph.sink_indices}
    assert sources == {"q", "floating"}
    assert sinks == {"d", "floating"}


def test_endpoint_indices_are_computed_once_and_read_only():
    nodes = [
        _node("q", is_source=True),
        _node("u1"),
        _node("d", is_sink=True),
        _node("floating"),
    ]
    graph = TimingGraph(nodes, [("q", "u1"), ("u1", "d")])
    assert graph.source_indices is graph.source_indices
    assert graph.sink_indices is graph.sink_indices
    assert graph.source_indices.tolist() == [0, 3]
    assert graph.sink_indices.tolist() == [2, 3]
    for indices in (graph.source_indices, graph.sink_indices):
        assert indices.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            indices[0] = 1


def test_cycle_detection():
    nodes = [_node("a"), _node("b"), _node("c")]
    with pytest.raises(TimingGraphError, match="cycle"):
        TimingGraph(nodes, [("a", "b"), ("b", "c"), ("c", "a")])


def test_duplicate_names_rejected():
    with pytest.raises(TimingGraphError, match="duplicate"):
        TimingGraph([_node("a"), _node("a")], [])


def test_bad_arcs_rejected():
    nodes = [_node("a"), _node("b")]
    with pytest.raises(TimingGraphError, match="unknown"):
        TimingGraph(nodes, [("a", "zz")])
    with pytest.raises(TimingGraphError, match="self-loop"):
        TimingGraph(nodes, [("a", "a")])


def test_flag_violations_rejected():
    with pytest.raises(TimingGraphError, match="source"):
        TimingGraph(
            [_node("a"), _node("s", is_source=True)], [("a", "s")]
        )
    with pytest.raises(TimingGraphError, match="sink"):
        TimingGraph(
            [_node("k", is_sink=True), _node("b")], [("k", "b")]
        )


def test_node_validation():
    with pytest.raises((TimingGraphError, ValueError)):
        _node("bad", drive_width_nm=-1.0)
    with pytest.raises(TimingGraphError):
        _node("bad", load_af=-5.0)
    with pytest.raises(TimingGraphError):
        TimingGraph([], [])


def test_edge_plan_matches_fanins():
    graph = _diamond()
    plan = graph.edge_plan()
    assert len(plan) == graph.depth - 1
    for level_index, level in enumerate(plan, start=1):
        assert level.dst.tolist() == sorted(level.dst.tolist())
        for pos, node in enumerate(level.dst.tolist()):
            start = level.starts[pos]
            end = (
                level.starts[pos + 1]
                if pos + 1 < level.starts.size
                else level.src.size
            )
            assert tuple(level.src[start:end].tolist()) == graph.fanin_indices(node)
    # The plan is cached: same object on second call.
    assert graph.edge_plan() is plan


def test_attribute_views():
    graph = _diamond()
    assert np.all(graph.drive_widths_nm() == 160.0)
    assert np.all(graph.loads_af() == 320.0)
    assert graph.n_arcs == 4
