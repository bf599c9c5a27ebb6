"""Parametric yield engine: oracle equivalence, determinism, shared tracks."""

import numpy as np
import pytest

from repro.analysis.delay import GateDelayModel
from repro.core.count_model import PoissonCountModel
from repro.growth.types import CNTTypeModel
from repro.montecarlo.chip_sim import ChipMonteCarlo
from repro.resilience import Execution
from repro.timing import TimingMonteCarlo, parse_timing_graph

N_TRIALS = 64
SEED = 123


@pytest.fixture(scope="module")
def tmc(derived_timing, timing_chip):
    return TimingMonteCarlo.from_chip(timing_chip, timing=derived_timing)


@pytest.fixture(scope="module")
def baseline(tmc):
    return tmc.run(
        N_TRIALS, np.random.default_rng(SEED)
    )


def test_yields_are_non_degenerate(baseline):
    # The fixture corner is chosen so every yield is strictly inside (0, 1);
    # a swapped or collapsed yield would show up here immediately.
    assert 0.0 < baseline.functional_yield < 1.0
    assert 0.0 < baseline.timing_yield < 1.0
    assert 0.0 < baseline.combined_yield < 1.0


def test_batched_sta_bitwise_equals_scalar_oracle(tmc, baseline):
    oracle = tmc.run(
        N_TRIALS, np.random.default_rng(SEED), oracle=True
    )
    assert np.array_equal(baseline.critical_path_ps, oracle.critical_path_ps)
    assert np.array_equal(baseline.functional_fail, oracle.functional_fail)


def test_bitwise_invariant_to_n_workers(tmc, baseline):
    parallel = tmc.run(
        N_TRIALS, np.random.default_rng(SEED),
        execution=Execution(n_workers=2),
    )
    assert np.array_equal(baseline.critical_path_ps, parallel.critical_path_ps)
    assert np.array_equal(baseline.functional_fail, parallel.functional_fail)
    assert np.array_equal(baseline.failing_devices, parallel.failing_devices)


@pytest.mark.parametrize("variant", ["opens-only", "shorts", "n_min2"])
def test_functional_yield_matches_chip_monte_carlo(timing_chip, variant):
    # The same root generator and chunk layout must reproduce the functional
    # chip run bitwise: the timing worker consumes the count kernel first and
    # judges it with the chip's predicate, shorts and N_min included.
    kwargs = {"pitch": timing_chip.pitch, "type_model": timing_chip.type_model}
    if variant == "shorts":
        kwargs["type_model"] = CNTTypeModel(0.30, 0.99, 0.05)
    elif variant == "n_min2":
        kwargs["min_working_tubes"] = 2
    chip = ChipMonteCarlo(timing_chip.placement, **kwargs)
    timed = TimingMonteCarlo.from_chip(chip, seed=7).run(
        N_TRIALS, np.random.default_rng(SEED)
    )
    functional = chip.run(
        N_TRIALS, np.random.default_rng(SEED)
    )
    assert timed.functional_yield == functional.chip_yield


@pytest.mark.parametrize("variant", ["opens-only", "shorts", "n_min2"])
def test_failing_devices_match_chip_monte_carlo(timing_chip, variant, monkeypatch):
    # Per trial, not just the yield: the timing run's failing devices are
    # bitwise those ChipMonteCarlo.run reduces for the same root generator
    # and chunk layout.
    kwargs = {"pitch": timing_chip.pitch, "type_model": timing_chip.type_model}
    if variant == "shorts":
        kwargs["type_model"] = CNTTypeModel(0.30, 0.99, 0.05)
    elif variant == "n_min2":
        kwargs["min_working_tubes"] = 2
    chip = ChipMonteCarlo(timing_chip.placement, **kwargs)
    captured = []
    reduce_result = ChipMonteCarlo._result

    def capture(self, failing_devices, failing_rows):
        captured.append(failing_devices)
        return reduce_result(self, failing_devices, failing_rows)

    monkeypatch.setattr(ChipMonteCarlo, "_result", capture)
    functional = chip.run(N_TRIALS, np.random.default_rng(SEED))
    timed = TimingMonteCarlo.from_chip(chip, seed=7).run(
        N_TRIALS, np.random.default_rng(SEED)
    )
    np.testing.assert_array_equal(timed.failing_devices, captured[0])
    assert timed.failing_devices.any()
    assert timed.failing_devices.mean() == functional.mean_failing_devices
    np.testing.assert_array_equal(
        timed.functional_fail, timed.failing_devices > 0
    )


def test_timing_yield_monotone_in_t_clk(tmc, baseline):
    grid = np.linspace(
        0.5 * baseline.nominal_critical_path_ps,
        3.0 * baseline.nominal_critical_path_ps,
        num=7,
    )
    yields = [baseline.timing_yield_at(t) for t in grid]
    assert yields == sorted(yields)


def test_combined_yield_bounded_by_both(baseline):
    assert baseline.combined_yield <= baseline.functional_yield
    assert baseline.combined_yield <= baseline.timing_yield
    assert baseline.combined_yield_at(np.inf) == baseline.functional_yield


def test_slacks_definition(baseline):
    slacks = baseline.slacks_ps()
    assert np.array_equal(
        slacks, baseline.t_clk_ps - baseline.critical_path_ps
    )


def test_default_t_clk_is_factor_of_nominal(tmc):
    nominal = tmc.nominal_critical_path_ps()
    assert nominal > 0
    assert tmc.default_t_clk_ps() == pytest.approx(1.2 * nominal)
    assert tmc.default_t_clk_ps(factor=2.0) == pytest.approx(2.0 * nominal)
    with pytest.raises(ValueError):
        tmc.default_t_clk_ps(factor=0.0)


def test_run_validation(tmc):
    with pytest.raises(ValueError, match="n_trials"):
        tmc.run(0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="t_clk_ps"):
        tmc.run(4, np.random.default_rng(0), t_clk_ps=-1.0)


def test_from_chip_rejects_foreign_timing(timing_chip):
    with pytest.raises(TypeError, match="DerivedTiming"):
        TimingMonteCarlo.from_chip(timing_chip, timing="not-a-derived-timing")


GRAPH_TEXT = """\
node ff0.Q DFF_X1 width=160 load=640 source
node u1 NAND2_X1 width=160 load=640
node u2 INV_X1 width=160 load=640
node u3 NOR2_X1 width=160 load=320
node ff1.D DFF_X1 width=160 load=0 sink
arc ff0.Q u1
arc ff0.Q u2
arc u1 u3
arc u2 u3
arc u3 ff1.D
"""


@pytest.fixture(scope="module")
def graph_tmc():
    graph = parse_timing_graph(GRAPH_TEXT)
    delay_model = GateDelayModel(
        count_model=PoissonCountModel(8.0),
        type_model=CNTTypeModel(0.30, 1.0, 0.05),
    )
    return TimingMonteCarlo.from_graph(graph, delay_model)


def test_from_graph_runs_and_matches_oracle(graph_tmc):
    res = graph_tmc.run(
        N_TRIALS, np.random.default_rng(SEED)
    )
    oracle = graph_tmc.run(
        N_TRIALS, np.random.default_rng(SEED), oracle=True
    )
    assert np.array_equal(res.critical_path_ps, oracle.critical_path_ps)
    assert res.n_trials == N_TRIALS
    assert np.isfinite(res.nominal_critical_path_ps)


def test_from_graph_invariant_to_n_workers(graph_tmc):
    serial = graph_tmc.run(
        N_TRIALS, np.random.default_rng(SEED)
    )
    parallel = graph_tmc.run(
        N_TRIALS, np.random.default_rng(SEED),
        execution=Execution(n_workers=2),
    )
    assert np.array_equal(serial.critical_path_ps, parallel.critical_path_ps)
    assert np.array_equal(serial.functional_fail, parallel.functional_fail)
