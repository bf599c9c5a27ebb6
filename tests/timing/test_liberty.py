"""NLDM characterization: lookup semantics and delay-model consistency."""

import numpy as np
import pytest

from repro.analysis.delay import GateDelayModel
from repro.core.count_model import PoissonCountModel
from repro.growth.types import CNTTypeModel
from repro.timing import NLDMTable, characterize_cell, characterize_graph
from repro.timing.graph import TimingGraph, TimingNode
from repro.timing.liberty import (
    DEFAULT_LOAD_INDEX_AF,
    DEFAULT_SLEW_INDEX_PS,
    nominal_node_delays,
)


@pytest.fixture()
def delay_model():
    return GateDelayModel(
        count_model=PoissonCountModel(4.0),
        type_model=CNTTypeModel(1.0 / 3.0, 1.0, 0.0),
        fanout=4,
    )


@pytest.fixture()
def table():
    values = np.add.outer(np.arange(3, dtype=float), np.arange(3, dtype=float))
    return NLDMTable(
        slew_index_ps=(1.0, 2.0, 4.0),
        load_index_af=(10.0, 20.0, 40.0),
        values_ps=values,
    )


def test_lookup_hits_grid_points(table):
    assert table.lookup(1.0, 10.0) == 0.0
    assert table.lookup(4.0, 40.0) == 4.0
    assert table.lookup(2.0, 20.0) == 2.0


def test_lookup_interpolates_bilinearly(table):
    # Midway between slew 1-2 and load 10-20: mean of the four corners.
    assert table.lookup(1.5, 15.0) == pytest.approx(1.0)


def test_lookup_clamps_outside_grid(table):
    assert table.lookup(0.01, 5.0) == table.lookup(1.0, 10.0)
    assert table.lookup(100.0, 9999.0) == table.lookup(4.0, 40.0)


def test_lookup_vectorised(table):
    out = table.lookup(np.array([1.0, 4.0]), np.array([10.0, 40.0]))
    assert out.tolist() == [0.0, 4.0]


def test_table_validation():
    with pytest.raises(ValueError, match="ascending"):
        NLDMTable((2.0, 1.0), (1.0, 2.0), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="shape"):
        NLDMTable((1.0, 2.0), (1.0, 2.0), np.zeros((3, 2)))


def test_scaled(table):
    doubled = table.scaled(2.0)
    assert doubled.lookup(4.0, 40.0) == 8.0
    with pytest.raises(ValueError):
        table.scaled(-1.0)


def test_characterize_matches_nominal_delay_at_model_load(delay_model):
    width = 160.0
    cell_table = characterize_cell(delay_model, width, slew_sensitivity=0.0)
    model_load = (
        delay_model.fanout
        * delay_model.capacitance_model.device_capacitance_af(width)
    )
    looked_up = float(cell_table.lookup(DEFAULT_SLEW_INDEX_PS[0], model_load))
    assert looked_up == pytest.approx(delay_model.nominal_delay(width), rel=1e-12)


def test_characterized_delay_monotone_in_load_and_slew(delay_model):
    cell_table = characterize_cell(delay_model, 160.0)
    loads = np.asarray(DEFAULT_LOAD_INDEX_AF)
    slews = np.asarray(DEFAULT_SLEW_INDEX_PS)
    by_load = cell_table.lookup(8.0, loads)
    by_slew = cell_table.lookup(slews, 320.0)
    assert np.all(np.diff(by_load) > 0)
    assert np.all(np.diff(by_slew) > 0)


def test_wider_drive_is_faster_at_same_load(delay_model):
    narrow = characterize_cell(delay_model, 80.0)
    wide = characterize_cell(delay_model, 320.0)
    assert wide.lookup(8.0, 320.0) < narrow.lookup(8.0, 320.0)


def test_characterize_graph_dedups_by_cell_and_width(delay_model):
    nodes = [
        TimingNode("a", "NAND2_X1", 160.0, 320.0),
        TimingNode("b", "NAND2_X1", 160.0, 640.0),  # same table, other load
        TimingNode("c", "NAND2_X2", 320.0, 320.0),
    ]
    graph = TimingGraph(nodes, [("a", "b"), ("b", "c")])
    tables = characterize_graph(graph, delay_model)
    assert set(tables) == {("NAND2_X1", 160.0), ("NAND2_X2", 320.0)}


def test_nominal_node_delays_zero_for_sinks(delay_model):
    nodes = [
        TimingNode("src", "DFF_X1", 160.0, 320.0, is_source=True),
        TimingNode("d", "DFF_X1", 160.0, 0.0, is_sink=True),
    ]
    graph = TimingGraph(nodes, [("src", "d")])
    delays = nominal_node_delays(graph, delay_model)
    assert delays[graph.index_of("src")] > 0
    assert delays[graph.index_of("d")] == 0.0


def test_per_table_lookup_equals_per_node_loop(derived_timing, delay_model):
    # One lookup per distinct table on all its nodes' loads must read the
    # same bits as one scalar lookup per node.
    from repro.timing.parametric import TimingMonteCarlo

    graph = derived_timing.graph
    tables = characterize_graph(graph, delay_model)
    per_node = np.zeros(graph.n_nodes)
    for i, node in enumerate(graph.nodes):
        if not node.is_sink:
            table = tables[(node.cell_name, float(node.drive_width_nm))]
            per_node[i] = float(table.lookup(8.0, node.load_af))
    assert len(tables) < graph.n_nodes
    np.testing.assert_array_equal(
        nominal_node_delays(graph, delay_model, 8.0, tables=tables), per_node
    )

    nominal_ps, scale = TimingMonteCarlo._nominal_scale(graph, delay_model, 8.0)
    per_tube = delay_model.current_model.semiconducting_on_current_ua(
        delay_model.diameter_mean_nm
    )
    mean_working = np.array([
        delay_model.count_model.mean_count(float(node.drive_width_nm))
        for node in graph.nodes
    ]) * delay_model.type_model.per_cnt_success_probability
    np.testing.assert_array_equal(nominal_ps, per_node)
    np.testing.assert_array_equal(scale, per_node * (mean_working * per_tube))
