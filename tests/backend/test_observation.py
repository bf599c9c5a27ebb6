"""The per-layer observation contract: kernels route their steps through the backend.

The repository benchmark times the engine from outside by handing a
``NumpyBackend`` subclass to the public ``backend=`` argument and
wrapping the backend's steps: ``uniform``, ``sample_gaps``, ``cumsum``,
``take_pairs`` and ``prefix_sum`` (window counting is a column-local
search of plain gathers, so no backend step is left for the benchmark's
``searchsorted`` wrapper to time, and top-ups write spare rows, so none
for its ``clip`` wrapper).  A kernel that calls NumPy
directly for one of them would leave that step's timing at zero while
the step still runs.  These tests hand the chip
and wafer runners a subclass that counts those calls, check that each
step a run performs is counted, and check that the counting backend
changes no result.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import repro.montecarlo.engine as engine
from repro.backend import NumpyBackend
from repro.growth.pitch import ExponentialPitch
from repro.growth.types import CNTTypeModel
from repro.growth.wafer import WaferGrowthModel
from repro.montecarlo.chip_sim import ChipMonteCarlo
from repro.montecarlo.wafer_sim import simulate_wafer
from repro.netlist.openrisc import build_openrisc_like_design
from repro.netlist.placement import RowPlacement

#: The backend steps the benchmark's timing backend overrides.
OBSERVED_STEPS = ("uniform", "sample_gaps", "cumsum", "take_pairs", "prefix_sum")

TYPE_MODEL = CNTTypeModel(1.0 / 3.0, 1.0, 0.3)


class CountingBackend(NumpyBackend):
    """The NumPy backend, counting calls of the observed steps."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: Counter = Counter()


def _counted(step):
    def method(self, *args, **kwargs):
        self.calls[step] += 1
        if step == "prefix_sum" and args[0].dtype == np.bool_:
            self.calls["prefix_sum of bool"] += 1
        return getattr(NumpyBackend, step)(self, *args, **kwargs)

    method.__name__ = step
    return method


for _step in OBSERVED_STEPS:
    setattr(CountingBackend, _step, _counted(_step))


@pytest.fixture(scope="module")
def placement(nangate45):
    design = build_openrisc_like_design(nangate45, scale=0.01, seed=2010)
    return RowPlacement(design, row_width_nm=40_000.0)


def _chip_runs(placement):
    """One small chip run on a counting backend and one on the default."""
    backend = CountingBackend()
    runs = [
        ChipMonteCarlo(
            placement, pitch=ExponentialPitch(4.0), type_model=TYPE_MODEL,
            backend=chosen,
        ).run(12, np.random.default_rng(3))
        for chosen in (backend, None)
    ]
    return backend, runs


def test_chip_run_observes_every_window_pass_step(placement, monkeypatch):
    # An 8-sigma first draw leaves no trial short, so every counted call
    # comes from the main draw and the window pass, not from top-ups.
    monkeypatch.setattr(engine, "tight_gap_budget", engine.estimate_gap_count)
    backend, (counted, plain) = _chip_runs(placement)
    assert backend.calls["take_pairs"] == 0
    # The working-tube mask is bool: its running count is still a backend
    # step.
    for step in ("uniform", "sample_gaps", "cumsum", "prefix_sum",
                 "prefix_sum of bool"):
        assert backend.calls[step] > 0, step
    assert counted == plain


def test_top_ups_draw_and_sum_through_the_backend(placement, monkeypatch):
    # A one-block first draw leaves every trial short of the row span,
    # so each chunk tops up: every round draws and sums one block.
    monkeypatch.setattr(engine, "tight_gap_budget", lambda pitch, span: engine.BLOCK)
    backend, (counted, plain) = _chip_runs(placement)
    rounds = backend.calls["sample_gaps"] - backend.calls["uniform"] // 2
    assert rounds > 0
    assert backend.calls["cumsum"] == backend.calls["sample_gaps"]
    assert backend.calls["take_pairs"] == 0
    assert counted == plain


def _wafer_runs():
    """One small wafer run on a counting backend and one on the default."""
    wafer = WaferGrowthModel(
        center_pitch_nm=4.0, die_size_mm=25.0
    ).generate(np.random.default_rng(1))
    backend = CountingBackend()
    runs = [
        simulate_wafer(
            wafer, ExponentialPitch(4.0), TYPE_MODEL, (90.0, 140.0),
            (300.0, 200.0), n_trials=64, seed_key=(11,), backend=chosen,
        )
        for chosen in (backend, None)
    ]
    return backend, runs


def test_wafer_run_observes_draws_and_cumsum():
    backend, (counted, plain) = _wafer_runs()
    for step in ("uniform", "sample_gaps", "cumsum"):
        assert backend.calls[step] > 0, step
    assert counted == plain


def test_wafer_top_ups_draw_and_sum_through_the_backend(monkeypatch):
    # A one-block first draw leaves every die's trials short of the
    # widest class, so each die tops up on the shared track kernel.
    monkeypatch.setattr(engine, "tight_gap_budget", lambda pitch, span: engine.BLOCK)
    backend, (counted, plain) = _wafer_runs()
    assert backend.calls["sample_gaps"] > backend.calls["uniform"]
    assert backend.calls["cumsum"] == backend.calls["sample_gaps"]
    assert counted == plain
