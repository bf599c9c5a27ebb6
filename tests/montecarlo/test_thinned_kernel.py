"""Calibration of the thinned chip kernel: it draws only the tubes it reads.

:func:`repro.montecarlo.chip_sim._chip_window_counts_joint` grows the
kept tubes of the pitch thinned to ``1 − pf + q`` instead of every tube
with a uniform each.  Its draws are not those of the full-law kernel, so
these tests check the law, not the bits:

* across many seeds, the z-scores of the chip's mean failing devices
  against the closed form ``Σ counts · pF`` at exponential pitch have
  mean near 0, standard deviation near 1 and few tails, for opens-only
  and joint opens+shorts runs;
* for non-exponential pitch (gamma CV 0.5, truncated normal) the
  per-window working counts match, as distributions, those of the
  full-law draw that keeps every tube and drops the duds;
* ``pf = 1`` keeps no tube: nothing is drawn and every window fails.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from repro.backend import default_backend
from repro.core.count_model import PoissonCountModel
from repro.core.failure import CNFETFailureModel
from repro.growth.pitch import ExponentialPitch, GammaPitch, TruncatedNormalPitch
from repro.growth.types import CNTTypeModel
from repro.montecarlo.chip_sim import (
    ChipMonteCarlo,
    _chip_window_counts_joint,
    _chunk_queries,
)
from repro.montecarlo.engine import count_in_windows_flat, sample_track_batch
from repro.netlist.openrisc import build_openrisc_like_design
from repro.netlist.placement import RowPlacement

OPENS = CNTTypeModel(1.0 / 3.0, 1.0, 0.3)
JOINT = CNTTypeModel(1.0 / 3.0, 0.95, 0.3)

#: Seeds and trials per seed of the z-score calibration.
N_SEEDS = 40
N_TRIALS = 128


@pytest.fixture(scope="module")
def placement(nangate45):
    design = build_openrisc_like_design(nangate45, scale=0.01, seed=2010)
    return RowPlacement(design, row_width_nm=40_000.0)


def _expected_failing_devices(simulator, mean_pitch_nm, type_model):
    """Σ counts · pF(W) over the width classes (Eq. 2.2, opens and shorts)."""
    model = CNFETFailureModel.from_type_model(
        PoissonCountModel(mean_pitch_nm), type_model
    )
    widths, counts = simulator.width_class_histogram()
    # A zero-width window captures no tube, so its device always fails.
    return sum(
        c * (model.failure_probability(w) if w > 0 else 1.0)
        for w, c in zip(widths, counts)
    )


@pytest.mark.parametrize("type_model", [OPENS, JOINT], ids=["opens", "joint"])
def test_failing_devices_z_scores_are_standard_normal(placement, type_model):
    simulator = ChipMonteCarlo(
        placement, pitch=ExponentialPitch(20.0), type_model=type_model
    )
    expected = _expected_failing_devices(simulator, 20.0, type_model)
    z = []
    for seed in range(N_SEEDS):
        result = simulator.run(N_TRIALS, np.random.default_rng([seed, 0x7A1]))
        se = result.std_failing_devices / math.sqrt(N_TRIALS)
        z.append((result.mean_failing_devices - expected) / se)
    z = np.asarray(z)
    # Mean of 40 standard normals: sd 0.16; its bound is 4 sd.
    assert abs(z.mean()) < 0.63, z
    assert 0.7 < z.std(ddof=1) < 1.35, z
    assert np.mean(np.abs(z) > 3.0) <= 2.0 / N_SEEDS, z


def _full_law_working_counts(geometry, n_chunk, rng):
    """Working counts of the full-law draw: every tube, one uniform each."""
    backend = default_backend()
    batch = sample_track_batch(
        geometry.pitch, geometry.row_height_nm, n_chunk * geometry.n_rows, rng,
    )
    working = backend.uniform(rng, batch.positions.shape) >= geometry.per_cnt_failure
    trial_index, lo, hi = _chunk_queries(geometry, n_chunk)
    return count_in_windows_flat(batch.positions, working, lo, hi, trial_index)


@pytest.mark.parametrize(
    "pitch",
    [GammaPitch(4.0, 0.5), TruncatedNormalPitch(4.0, 2.0)],
    ids=["gamma-cv0.5", "truncated-normal"],
)
def test_window_counts_match_the_full_law_draw(placement, pitch):
    geometry = ChipMonteCarlo(
        placement, pitch=pitch, type_model=OPENS
    ).chip_geometry()
    n_chunk = 150
    thinned, _, _ = _chip_window_counts_joint(
        geometry, n_chunk, np.random.default_rng(31)
    )
    full = _full_law_working_counts(geometry, n_chunk, np.random.default_rng(32))
    # Windows with equal bounds in different rows share one law: pool
    # them, and test the three most populous bound pairs, each a
    # chi-square homogeneity test of the two count histograms.
    keys = np.round(np.column_stack((geometry.window_lo, geometry.window_hi)), 6)
    _, group, sizes = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    group = group.ravel()
    for g in np.argsort(sizes)[::-1][:3]:
        a = thinned[:, group == g].ravel()
        b = full[:, group == g].ravel()
        assert abs(a.mean() - b.mean()) < 5.0 * math.sqrt(
            (a.var() + b.var()) / a.size
        ), (g, a.mean(), b.mean())
        edges = np.unique(np.quantile(np.concatenate([a, b]), np.linspace(0, 1, 9)))
        table = np.array([
            np.histogram(x, bins=np.append(edges[:-1], np.inf))[0] for x in (a, b)
        ])
        table = table[:, table.sum(axis=0) > 0]
        assert stats.chi2_contingency(table)[1] > 1e-4, (g, table)


def test_keeping_no_tube_draws_nothing_and_fails_every_window(placement):
    # pf = 1 (every semiconducting tube removed, every metallic tube
    # removed) with no shorts: no tube works.
    type_model = CNTTypeModel(1.0 / 3.0, 1.0, 1.0)
    assert type_model.per_cnt_failure_probability == 1.0
    simulator = ChipMonteCarlo(
        placement, pitch=ExponentialPitch(20.0), type_model=type_model
    )
    geometry = simulator.chip_geometry()
    rng = np.random.default_rng(9)
    before = rng.bit_generator.state
    working, shorts, summed = _chip_window_counts_joint(
        geometry, 4, rng, slot_values=lambda *args: pytest.fail("drew values")
    )
    assert rng.bit_generator.state == before
    assert working.shape == summed.shape == (4, geometry.window_lo.size)
    assert not working.any() and not summed.any() and shorts is None

    result = simulator.run(16, np.random.default_rng(9))
    assert result.chip_yield == 0.0
    assert result.mean_failing_devices == simulator.device_count
    assert result.std_failing_devices == 0.0
