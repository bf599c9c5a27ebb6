"""Ingestion: text-format parsing/round-trip and design-derived graphs."""

import hashlib

import numpy as np
import pytest

from repro.timing import (
    TimingGraphError,
    derive_timing_graph,
    format_timing_graph,
    load_timing_graph,
    parse_timing_graph,
)
from repro.timing.ingest import FUNCTION_INPUTS, cell_function

SAMPLE = """\
# a tiny launch -> logic -> capture path
node ff0.Q DFF_X1 width=160 load=640 source
node u1 NAND2_X1 width=160 load=320
node ff1.D DFF_X1 width=160 load=0 sink
arc ff0.Q u1
arc u1 ff1.D
"""


def test_parse_sample():
    graph = parse_timing_graph(SAMPLE)
    assert graph.n_nodes == 3
    assert graph.n_arcs == 2
    assert graph.nodes[graph.index_of("ff0.Q")].is_source
    assert graph.nodes[graph.index_of("ff1.D")].is_sink
    assert graph.nodes[graph.index_of("u1")].load_af == 320.0


def test_format_round_trips():
    graph = parse_timing_graph(SAMPLE)
    text = format_timing_graph(graph)
    again = parse_timing_graph(text)
    assert [n.name for n in again.nodes] == [n.name for n in graph.nodes]
    assert again.arcs == graph.arcs
    assert [n.load_af for n in again.nodes] == [n.load_af for n in graph.nodes]


def test_load_timing_graph(tmp_path):
    path = tmp_path / "sample.tg"
    path.write_text(SAMPLE, encoding="utf-8")
    graph = load_timing_graph(str(path))
    assert graph.n_nodes == 3


@pytest.mark.parametrize(
    "bad, match",
    [
        ("node u1", "line 1"),
        ("node u1 NAND2_X1 load=3", "missing width"),
        ("node u1 NAND2_X1 width=xyz", "line 1"),
        ("node u1 NAND2_X1 width=160 colour=red", "unknown node attribute"),
        ("arc a", "line 1"),
        ("wire a b", "expected 'node' or 'arc'"),
        ("", "no nodes"),
    ],
)
def test_parse_errors_carry_line_numbers(bad, match):
    with pytest.raises(TimingGraphError, match=match):
        parse_timing_graph(bad)


def test_parse_error_line_number_counts_comments():
    text = "# comment\n\nnode u1 NAND2_X1 width=-1\n"
    with pytest.raises(TimingGraphError, match="line 3"):
        parse_timing_graph(text)


def test_cell_function():
    assert cell_function("NAND2_X2") == "NAND2"
    assert cell_function("AOI222_X1") == "AOI222"
    assert cell_function("CLKBUF") == "CLKBUF"
    assert FUNCTION_INPUTS["INV"] == 1
    assert FUNCTION_INPUTS["AOI222"] == 6


def test_derived_graph_is_deterministic(timing_chip):
    first = derive_timing_graph(timing_chip, seed=7)
    second = derive_timing_graph(timing_chip, seed=7)
    assert [n.name for n in first.graph.nodes] == [
        n.name for n in second.graph.nodes
    ]
    assert first.graph.arcs == second.graph.arcs
    assert np.array_equal(first.node_window, second.node_window)


def test_derived_graph_varies_with_seed(timing_chip):
    other = derive_timing_graph(timing_chip, seed=8)
    base = derive_timing_graph(timing_chip, seed=7)
    assert other.graph.arcs != base.graph.arcs


def test_derived_graph_shape(derived_timing, timing_chip):
    graph = derived_timing.graph
    # Non-trivial logic depth and at least one register pair.
    assert graph.depth >= 3
    names = {n.name for n in graph.nodes}
    assert any(name.endswith(".Q") for name in names)
    assert any(name.endswith(".D") for name in names)
    # Every node's window indexes into the chip geometry.
    geometry = timing_chip.chip_geometry()
    assert derived_timing.node_window.shape == (graph.n_nodes,)
    assert derived_timing.node_window.min() >= 0
    assert derived_timing.node_window.max() < geometry.window_lo.size


def test_derived_register_halves_share_a_window(derived_timing):
    graph = derived_timing.graph
    by_name = {n.name: i for i, n in enumerate(graph.nodes)}
    q_names = [n.name for n in graph.nodes if n.name.endswith(".Q")]
    assert q_names
    for q_name in q_names[:5]:
        d_name = q_name[:-2] + ".D"
        assert (
            derived_timing.node_window[by_name[q_name]]
            == derived_timing.node_window[by_name[d_name]]
        )


def test_derived_loads_positive_except_sinks(derived_timing):
    for node in derived_timing.graph.nodes:
        if node.is_sink:
            continue
        assert node.load_af > 0.0


def test_derive_validates_parameters(timing_chip):
    with pytest.raises(ValueError, match="default_fanout"):
        derive_timing_graph(timing_chip, default_fanout=0)
    with pytest.raises(ValueError, match="locality"):
        derive_timing_graph(timing_chip, locality=0.0)


#: SHA-256 of the derived graph of the ``timing_chip`` fixture (seed 7):
#: every node's name, cell, width, load and flags, the arcs and
#: ``node_window``.  Pinned from the per-instance drive-device loop; the
#: per-master lookup must reproduce it exactly.
DERIVED_GRAPH_SHA256 = (
    "4e72979cb8a83ff4f45bc0800928d56883fdda25d4c34e91233cdc0c7a213cfc"
)


def test_derived_graph_is_pinned(derived_timing):
    digest = hashlib.sha256()
    for node in derived_timing.graph.nodes:
        digest.update(repr((
            node.name, node.cell_name, node.drive_width_nm, node.load_af,
            node.is_source, node.is_sink,
        )).encode())
    digest.update(repr(derived_timing.graph.arcs).encode())
    digest.update(derived_timing.node_window.astype(np.int64).tobytes())
    assert (derived_timing.graph.n_nodes, derived_timing.graph.n_arcs) == (874, 850)
    assert digest.hexdigest() == DERIVED_GRAPH_SHA256
