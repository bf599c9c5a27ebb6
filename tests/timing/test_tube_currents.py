"""Per-slot tube diameters: statistical tier against a scalar per-tube oracle.

The timing tier draws one diameter per track slot, so devices that capture
the same tube see the same diameter.  The oracle below walks one row at a
time in Python — place the tubes, decide each tube's state and diameter,
sum each window's working-tube currents — sharing no code with the batched
kernel.  The engine is checked against it (and against the closed-form
censored-normal moments) on a hand-built one-row geometry whose windows
overlap in a known way:

* the current of a window given its working count,
* the covariance of two overlapping windows, which the tubes they share
  carry,
* identical currents for nodes that sit on one window.

Drawing diameters independently per node would zero the shared-tube term
of the covariance and split the currents of nodes on one window.
"""

import dataclasses

import numpy as np
import pytest

from repro.growth.pitch import ExponentialPitch
from repro.montecarlo.chip_sim import _ChipGeometry, _chip_window_counts_joint
from repro.timing import TimingMonteCarlo
from repro.timing.parametric import (
    _delays_from_currents,
    _sample_node_currents,
    _simulate_timing_chunk,
)

SPAN_NM = 120.0
PITCH = ExponentialPitch(6.0)
PER_CNT_FAILURE = 0.3
DIAMETER_MEAN_NM, DIAMETER_STD_NM = 1.5, 0.6
#: Windows A, B, their overlap A∩B, and C (disjoint from A).
WINDOWS = np.array([[20.0, 60.0], [40.0, 100.0], [40.0, 60.0], [70.0, 110.0]])
A, B, AB, C = range(4)
#: Node -> window map of the hand-built payload: two nodes share window A.
NODE_WINDOW = np.array([A, B, AB, C, A])
ENGINE_TRIALS = 40_000
ORACLE_TRIALS = 4_000
Z_LIMIT = 4.5


def one_row_geometry(windows=WINDOWS, per_cnt_failure=PER_CNT_FAILURE):
    n = len(windows)
    return _ChipGeometry(
        pitch=PITCH,
        per_cnt_failure=per_cnt_failure,
        row_height_nm=SPAN_NM,
        n_rows=1,
        window_lo=windows[:, 0].copy(),
        window_hi=windows[:, 1].copy(),
        window_weight=np.ones(n, dtype=np.int64),
        window_row=np.zeros(n, dtype=np.int64),
        row_starts=np.zeros(1, dtype=np.int64),
    )


def oracle_trials(model, n_trials, rng):
    """Per-tube scalar oracle: ``(counts, currents)``, each ``(n_trials, n_windows)``."""
    counts = np.zeros((n_trials, len(WINDOWS)))
    currents = np.zeros((n_trials, len(WINDOWS)))
    for trial in range(n_trials):
        y = -rng.random() * PITCH.mean_nm
        while True:
            y += float(PITCH.sample(1, rng)[0])
            if y > SPAN_NM:
                break
            if y < 0.0:
                continue
            working = rng.random() >= PER_CNT_FAILURE
            diameter = max(rng.normal(DIAMETER_MEAN_NM, DIAMETER_STD_NM), 0.5)
            if not working:
                continue
            current = model.semiconducting_on_current_ua(diameter)
            for w, (lo, hi) in enumerate(WINDOWS):
                if lo <= y <= hi:
                    counts[trial, w] += 1
                    currents[trial, w] += current
    return counts, currents


@pytest.fixture(scope="module")
def payload(derived_timing, timing_chip):
    # The production payload with the hand-built geometry and node map.
    base = TimingMonteCarlo.from_chip(
        timing_chip, timing=derived_timing,
        diameter_mean_nm=DIAMETER_MEAN_NM, diameter_std_nm=DIAMETER_STD_NM,
    )._payload
    return dataclasses.replace(
        base, geometry=one_row_geometry(), node_window=NODE_WINDOW
    )


@pytest.fixture(scope="module")
def engine(payload):
    """Window counts and per-node currents of one batched chunk.

    The counts come from a second pass with the same seed and no slot
    values: the diameter draw follows the tracks, so the counts are the
    ones the currents were summed over.
    """
    _, node_currents = _sample_node_currents(
        payload, ENGINE_TRIALS, np.random.default_rng(31)
    )
    counts, _, _ = _chip_window_counts_joint(
        payload.geometry, ENGINE_TRIALS, np.random.default_rng(31)
    )
    return counts, node_currents[:, [A, B, AB, C]], node_currents


@pytest.fixture(scope="module")
def oracle(payload):
    return oracle_trials(
        payload.current_model, ORACLE_TRIALS, np.random.default_rng(32)
    )


@pytest.fixture(scope="module")
def per_tube(payload, censored_normal_moments):
    """Closed-form mean and variance of one working tube's current."""
    mean_d, var_d = censored_normal_moments(DIAMETER_MEAN_NM, DIAMETER_STD_NM, 0.5)
    per_nm = payload.current_model.semiconducting_on_current_ua(1.0)
    return per_nm * mean_d, per_nm ** 2 * var_d


def two_sample_z(a, b):
    se = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    return (a.mean() - b.mean()) / se


def test_counts_unchanged_by_the_diameter_draw(payload):
    with_values = _chip_window_counts_joint(
        payload.geometry, 64, np.random.default_rng(5),
        slot_values=payload.slot_currents,
    )
    without = _chip_window_counts_joint(
        payload.geometry, 64, np.random.default_rng(5)
    )
    np.testing.assert_array_equal(with_values[0], without[0])
    assert with_values[2] is not None and without[2] is None


@pytest.mark.parametrize("k", [1, 3, 5, 8])
def test_window_current_given_its_count(engine, oracle, per_tube, k):
    mean_i, var_i = per_tube
    for counts, currents, label in ((*engine[:2], "engine"), (*oracle, "oracle")):
        given = currents[counts[:, A] == k, A]
        assert given.size > 100, label
        z = (given.mean() - k * mean_i) / np.sqrt(k * var_i / given.size)
        assert abs(z) < Z_LIMIT, (label, z)
        # Variance of a sum of k iid censored-normal currents.
        var_se = k * var_i * np.sqrt(2.0 / (given.size - 1))
        assert abs(given.var(ddof=1) - k * var_i) < Z_LIMIT * var_se, label
    engine_given = engine[1][engine[0][:, A] == k, A]
    oracle_given = oracle[1][oracle[0][:, A] == k, A]
    assert abs(two_sample_z(engine_given, oracle_given)) < Z_LIMIT


def test_overlapping_windows_covary_through_shared_tubes(engine, oracle, per_tube):
    mean_i, var_i = per_tube
    for counts, currents, label in ((*engine[:2], "engine"), (*oracle, "oracle")):
        # Residuals given the counts: only the shared tubes' diameters tie
        # them, E[R_A R_B] = Var(i) E[N_{A∩B}]; disjoint windows do not.
        residual = currents - mean_i * counts
        shared = residual[:, A] * residual[:, B]
        expected = var_i * counts[:, AB].mean()
        z = (shared.mean() - expected) / (shared.std(ddof=1) / np.sqrt(shared.size))
        assert abs(z) < Z_LIMIT, (label, z)
        disjoint = residual[:, A] * residual[:, C]
        z0 = disjoint.mean() / (disjoint.std(ddof=1) / np.sqrt(disjoint.size))
        assert abs(z0) < Z_LIMIT, (label, z0)
    # The raw covariance of the two window currents matches the oracle's.
    products = [
        (cur[:, A] - cur[:, A].mean()) * (cur[:, B] - cur[:, B].mean())
        for cur in (engine[1], oracle[1])
    ]
    assert abs(two_sample_z(*products)) < Z_LIMIT


def test_nodes_on_one_window_get_identical_currents(engine):
    node_currents = engine[2]
    np.testing.assert_array_equal(node_currents[:, 0], node_currents[:, 4])
    assert not np.array_equal(node_currents[:, 0], node_currents[:, 1])


def test_derived_graph_nodes_sharing_a_window_match(derived_timing, timing_chip):
    tmc = TimingMonteCarlo.from_chip(timing_chip, timing=derived_timing)
    _, currents = _sample_node_currents(tmc._payload, 16, np.random.default_rng(4))
    node_window = derived_timing.node_window
    windows, first, inverse = np.unique(
        node_window, return_index=True, return_inverse=True
    )
    assert windows.size < node_window.size  # some nodes do share a window
    np.testing.assert_array_equal(currents, currents[:, first][:, inverse])


def test_window_without_working_tubes_is_dead(payload):
    # A 0.5 nm window at 6 nm pitch usually captures no tube at all, and
    # at 80 % loss a captured tube is usually a dud.
    windows = np.array([[50.0, 50.5], [10.0, 110.0]])
    dead_payload = dataclasses.replace(
        payload,
        geometry=one_row_geometry(windows, per_cnt_failure=0.8),
        node_window=np.array([0, 1]),
    )
    n = 2_000
    _, currents = _sample_node_currents(dead_payload, n, np.random.default_rng(8))
    counts, _, _ = _chip_window_counts_joint(
        dead_payload.geometry, n, np.random.default_rng(8)
    )
    dead = counts == 0
    assert dead[:, 0].any() and (~dead[:, 1]).any()
    assert np.all(currents[dead] == 0.0)
    assert np.all(currents[~dead] > 0.0)
    delays = _delays_from_currents(np.array([3.0, 3.0]), currents)
    assert np.all(np.isinf(delays[dead]))
    assert np.all(np.isfinite(delays[~dead]))


#: Trials of the dead-gate check.  4-5 % of trials hold a dead gate (110
#: of 2,560 over 40 seeds of 64 trials), so all 384 trials miss one with
#: probability below 0.96 ** 384 < 2e-7.
DEAD_GATE_TRIALS = 384


def test_dead_gate_makes_the_critical_path_infinite(derived_timing, timing_chip):
    payload = TimingMonteCarlo.from_chip(timing_chip, timing=derived_timing)._payload
    _, currents = _sample_node_currents(
        payload, DEAD_GATE_TRIALS, np.random.default_rng(11)
    )
    _, crit = _simulate_timing_chunk(
        payload, DEAD_GATE_TRIALS, np.random.default_rng(11)
    )
    dead = ((currents == 0.0) & (payload.scale_ps_ua > 0.0)).any(axis=1)
    assert dead.any() and (~dead).any()
    assert np.all(np.isinf(crit[dead]))
    assert np.all(np.isfinite(crit[~dead]))
