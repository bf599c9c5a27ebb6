"""Chaos tests for the supervised executor: injected worker deaths,
timeouts, retry budgets, and checkpoint integration."""

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import repro.resilience.supervise as supervise
from repro.resilience import (
    CheckpointStore,
    FaultPlan,
    RetryPolicy,
    SeededChunk,
    SupervisorError,
)
from repro.resilience.supervise import run_supervised, seed_sequences_for


def _sum_worker(payload, n_trials, rng):
    """A deterministic stand-in for a Monte Carlo chunk worker."""
    return float(payload) + float(rng.standard_normal(n_trials).sum())


def _make_tasks(n_units=4, seed=123):
    rng = np.random.default_rng(seed)
    seqs, bit_generator = seed_sequences_for(rng, n_units)
    return [
        SeededChunk(
            worker=_sum_worker,
            payload=10.0 * unit,
            n_trials=64,
            seed=seq,
            bit_generator=bit_generator,
        )
        for unit, seq in enumerate(seqs)
    ]


class TestInProcessSupervision:
    def test_no_faults_matches_direct_execution(self):
        expected = [task() for task in _make_tasks()]
        got = run_supervised(_make_tasks())
        assert got == expected

    def test_killed_unit_retries_bitwise_identical(self):
        expected = [task() for task in _make_tasks()]
        got = run_supervised(
            _make_tasks(),
            policy=RetryPolicy(max_retries=2, backoff_s=0.0),
            faults=FaultPlan(kill_units=(1,), kill_attempts=1),
        )
        assert got == expected

    def test_retry_budget_exhaustion_raises_structured_error(self):
        with pytest.raises(SupervisorError) as err:
            run_supervised(
                _make_tasks(),
                policy=RetryPolicy(max_retries=1, backoff_s=0.0),
                faults=FaultPlan(kill_units=(2,), kill_attempts=5),
            )
        assert err.value.unit == 2
        assert err.value.attempts == 2
        assert "retry budget exhausted" in str(err.value)

    def test_exit_mode_downgraded_to_raise_in_process(self):
        # kill_mode="exit" would take the test runner down with it; the
        # in-process path must downgrade it to a raised WorkerCrash.
        expected = [task() for task in _make_tasks()]
        got = run_supervised(
            _make_tasks(),
            policy=RetryPolicy(max_retries=1, backoff_s=0.0),
            faults=FaultPlan(kill_units=(0,), kill_attempts=1, kill_mode="exit"),
        )
        assert got == expected

    def test_nan_injection_poisons_result(self):
        def array_worker(payload, n_trials, rng):
            return rng.standard_normal(n_trials)

        rng = np.random.default_rng(5)
        seqs, bg = seed_sequences_for(rng, 2)
        tasks = [
            SeededChunk(array_worker, None, 16, seq, bg) for seq in seqs
        ]
        results = run_supervised(tasks, faults=FaultPlan(nan_units=(1,)))
        assert not np.isnan(results[0]).any()
        assert np.isnan(results[1]).any()


class TestPoolSupervision:
    def test_worker_death_rebuilds_pool_and_matches(self):
        expected = [task() for task in _make_tasks()]
        got = run_supervised(
            _make_tasks(),
            n_workers=2,
            policy=RetryPolicy(max_retries=2, backoff_s=0.0),
            faults=FaultPlan(kill_units=(1,), kill_attempts=1, kill_mode="exit"),
        )
        assert got == expected

    def test_timeout_exhausts_retries(self):
        with pytest.raises(SupervisorError) as err:
            run_supervised(
                _make_tasks(n_units=2),
                n_workers=2,
                policy=RetryPolicy(
                    max_retries=0, timeout_s=0.15, backoff_s=0.0
                ),
                faults=FaultPlan(delay_units=(1,), delay_s=5.0),
            )
        assert err.value.unit == 1

    def test_pool_no_faults_matches_in_process(self):
        expected = run_supervised(_make_tasks())
        got = run_supervised(_make_tasks(), n_workers=2)
        assert got == expected

    def test_pool_breaking_during_submit_retries_the_rest(self, monkeypatch):
        # The first pool breaks on its second submit, as when a worker
        # dies before every unit is handed out; the unsubmitted units
        # must be retried on a fresh pool, not raise out of the run.
        pools = []

        class BreaksOnSecondSubmit:
            def __init__(self, max_workers):
                self.submitted = 0
                pools.append(self)

            def submit(self, fn, *args):
                self.submitted += 1
                if len(pools) == 1 and self.submitted == 2:
                    raise BrokenProcessPool("worker died")
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(
            supervise, "ProcessPoolExecutor", BreaksOnSecondSubmit
        )
        expected = [task() for task in _make_tasks()]
        got = run_supervised(
            _make_tasks(),
            n_workers=2,
            policy=RetryPolicy(max_retries=1, backoff_s=0.0),
        )
        assert got == expected
        assert len(pools) == 2
        assert pools[1].submitted == 3


class TestCheckpointIntegration:
    def test_resume_skips_completed_units(self, tmp_path):
        store = CheckpointStore(tmp_path)
        fingerprint = "fp-supervise"
        first = store.campaign("sup", fingerprint, 4)
        expected = run_supervised(_make_tasks(), checkpoint=first)

        def poisoned_worker(payload, n_trials, rng):
            raise AssertionError("resume must not recompute saved units")

        rng = np.random.default_rng(123)
        seqs, bg = seed_sequences_for(rng, 4)
        poisoned = [
            SeededChunk(poisoned_worker, 10.0 * u, 64, seq, bg)
            for u, seq in enumerate(seqs)
        ]
        resumed = store.campaign("sup", fingerprint, 4)
        got = run_supervised(poisoned, checkpoint=resumed)
        assert got == expected

    def test_aborted_campaign_resumes_bitwise(self, tmp_path):
        store = CheckpointStore(tmp_path)
        fingerprint = "fp-abort"
        expected = [task() for task in _make_tasks()]
        with pytest.raises(SupervisorError):
            run_supervised(
                _make_tasks(),
                policy=RetryPolicy(max_retries=0, backoff_s=0.0),
                faults=FaultPlan(kill_units=(2,), kill_attempts=1),
                checkpoint=store.campaign("camp", fingerprint, 4),
            )
        saved = store.campaign("camp", fingerprint, 4).completed_units()
        assert saved and 2 not in saved
        got = run_supervised(
            _make_tasks(), checkpoint=store.campaign("camp", fingerprint, 4)
        )
        assert got == expected


class TestSeedDerivation:
    def test_spawned_sequences_match_generator_spawn(self):
        # The resilience layer's whole determinism story rests on this
        # numpy contract; pin it so an upstream change is caught here.
        parent_a = np.random.default_rng(77)
        parent_b = np.random.default_rng(77)
        children = parent_a.spawn(3)
        seqs, bit_generator = seed_sequences_for(parent_b, 3)
        for child, seq in zip(children, seqs):
            rebuilt = np.random.Generator(
                getattr(np.random, bit_generator)(seq)
            )
            assert (
                child.standard_normal(8).tolist()
                == rebuilt.standard_normal(8).tolist()
            )

    def test_rebuilding_twice_from_one_sequence_is_identical(self):
        rng = np.random.default_rng(7)
        (seq,), bit_generator = seed_sequences_for(rng, 1)
        chunk = SeededChunk(
            worker=lambda payload, n, r: r.standard_normal(n).tolist(),
            payload=None,
            n_trials=16,
            seed=seq,
            bit_generator=bit_generator,
        )
        assert chunk() == chunk()
