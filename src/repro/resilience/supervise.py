"""Supervised execution: bounded retries, timeouts, pool resurrection.

:func:`run_supervised` is the one executor of every chunked Monte Carlo
campaign — :func:`~repro.montecarlo.engine.run_chunked` (chip, tilted
chip, rare-event and timing trial chunks),
:func:`~repro.montecarlo.wafer_sim.simulate_wafer` (die groups) and
:func:`~repro.montecarlo.wafer_sim.run_chip_wafer` (whole dies).  It
executes a list of zero-argument picklable tasks — one per campaign
unit — either in-process (``n_workers=1``) or on a
:class:`~concurrent.futures.ProcessPoolExecutor`, and layers three
guarantees over the bare pool:

* **bounded retry-with-backoff** — a unit that raises (or whose worker
  dies, breaking the pool) is re-executed up to
  :attr:`RetryPolicy.max_retries` times (twice under the default
  policy, in-process runs included); the pool is rebuilt after a break
  and only failed units are resubmitted.  A unit that exhausts its
  budget raises :class:`SupervisorError` chained from its last error;
* **per-chunk timeouts** — a unit that exceeds
  :attr:`RetryPolicy.timeout_s` counts as failed, the stuck pool is
  abandoned, and the unit is retried on a fresh pool (in-process
  execution cannot preempt, so timeouts apply only to pool runs);
* **checkpoint integration** — previously completed units load from a
  verified :class:`~repro.resilience.checkpoint.CampaignCheckpoint` and
  fresh completions persist as they finish.

Campaigns reach it only through :meth:`Execution.run`: one value holding
every setting that decides *how* units run and none that decides *what*
they compute, with the checkpoint identity derived from the task list.

Determinism under retry comes from task construction, not from the
supervisor: a :class:`SeededChunk` rebuilds its generator from a spawned
:class:`numpy.random.SeedSequence` on every call, so attempt *k* of a
unit draws exactly the random numbers attempt 0 would have drawn.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    TimeoutError as FutureTimeoutError,
)
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend import backend_signature, buffer_pool, release_buffers
from repro.resilience.checkpoint import (
    CampaignCheckpoint,
    CheckpointStore,
    fingerprint_parts,
)
from repro.resilience.faults import FaultPlan, FaultyTask

__all__ = [
    "Execution",
    "RetryPolicy",
    "SupervisorError",
    "SeededChunk",
    "seed_sequences_for",
    "run_supervised",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on supervised re-execution.

    Attributes
    ----------
    max_retries:
        Retries allowed per unit *after* its first attempt; a unit
        failing ``max_retries + 1`` times aborts the campaign with
        :class:`SupervisorError`.
    timeout_s:
        Per-chunk wall-clock budget on pool runs (``None`` disables).
    backoff_s / backoff_factor:
        Exponential backoff between a unit's attempts:
        ``backoff_s * backoff_factor**attempt`` seconds.
    """

    max_retries: int = 2
    timeout_s: Optional[float] = None
    backoff_s: float = 0.05
    backoff_factor: float = 2.0

    def backoff_for(self, attempt: int) -> float:
        """Seconds to sleep before re-running attempt ``attempt + 1``."""
        return self.backoff_s * self.backoff_factor ** max(attempt - 1, 0)


@dataclass(frozen=True)
class Execution:
    """How a Monte Carlo campaign runs — never what it computes.

    Every campaign API takes one ``execution`` value; no field changes a
    result bit.

    Attributes
    ----------
    n_workers:
        ``1`` runs the units in-process; more spreads them over a process
        pool (tasks must pickle).
    checkpoint_dir:
        When set, completed units persist under ``<checkpoint_dir>/<campaign>``
        (content-hashed, written atomically) and a rerun of the same
        campaign resumes from the verified units bitwise identically;
        corrupt units are quarantined and recomputed.
    resume:
        Whether an existing checkpoint is loaded (default) or discarded.
    policy:
        Per-unit retry and timeout budget (:class:`RetryPolicy`).
    faults:
        A :class:`~repro.resilience.faults.FaultPlan`; chaos tests only.
    """

    n_workers: int = 1
    checkpoint_dir: Optional[Union[str, Path]] = None
    resume: bool = True
    policy: RetryPolicy = RetryPolicy()
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be at least 1")

    def checkpoint(
        self, campaign: str, total_units: int, *identity: object
    ) -> Optional[CampaignCheckpoint]:
        """The checkpoint of ``campaign``, or ``None`` without a directory.

        Fingerprinted by the campaign name, the default backend's
        signature and ``identity``; resuming a different fingerprint raises
        :class:`~repro.resilience.checkpoint.CheckpointError`.
        """
        if self.checkpoint_dir is None:
            return None
        fingerprint = fingerprint_parts(
            campaign, backend_signature(None), *identity
        )
        return CheckpointStore(self.checkpoint_dir).campaign(
            campaign, fingerprint, total_units, resume=self.resume
        )

    def run(
        self,
        campaign: str,
        tasks: Sequence[Callable[[], Any]],
        encode: Optional[Callable[[Any], Tuple[Dict[str, np.ndarray], object]]] = None,
        decode: Optional[Callable[[Dict[str, np.ndarray], object], Any]] = None,
    ) -> List[Any]:
        """Run one campaign's ``tasks`` under :func:`run_supervised`.

        The campaign's identity is the task list itself — payloads, unit
        layout, each :class:`SeededChunk`'s seed sequence, each die's
        site — fingerprinted only when :attr:`checkpoint_dir` is set.
        ``encode`` / ``decode`` are the checkpoint codec of one unit's
        result.  The calling thread's buffer-pool slabs are released
        when the run returns.
        """
        try:
            return run_supervised(
                tasks, self, self.checkpoint(campaign, len(tasks), tasks),
                encode, decode,
            )
        finally:
            release_buffers()


class SupervisorError(RuntimeError):
    """A unit exhausted its retry budget; carries structured context.

    Attributes
    ----------
    unit:
        Index of the failing unit.
    attempts:
        Number of executions that failed.
    cause:
        ``repr`` of the final failure.
    """

    def __init__(self, unit: int, attempts: int, cause: str) -> None:
        super().__init__(
            f"unit {unit} failed {attempts} attempt(s), retry budget "
            f"exhausted; last error: {cause}"
        )
        self.unit = unit
        self.attempts = attempts
        self.cause = cause


@dataclass(frozen=True)
class SeededChunk:
    """A picklable unit of chunked Monte Carlo work with a derivable stream.

    Calling the chunk builds a *fresh* generator from its spawned
    :class:`~numpy.random.SeedSequence` and invokes
    ``worker(payload, n_trials, rng)`` — the engine's chunk-worker
    contract.  Because the generator is rebuilt per call, retries and
    resumed runs are bitwise identical to a first-attempt execution.  The
    worker runs inside a :func:`~repro.backend.buffer_pool` scope, so
    chunk after chunk reuses the executing thread's array buffers.
    """

    worker: Callable[..., Any]
    payload: Any
    n_trials: int
    seed: np.random.SeedSequence
    bit_generator: str

    def __call__(self) -> Any:
        bitgen_cls = getattr(np.random, self.bit_generator)
        rng = np.random.Generator(bitgen_cls(self.seed))
        with buffer_pool():
            return self.worker(self.payload, self.n_trials, rng)


def seed_sequences_for(
    rng: np.random.Generator, n: int
) -> Tuple[List[np.random.SeedSequence], str]:
    """Spawn ``n`` child seed sequences plus the bit-generator class name.

    Children come from ``rng.bit_generator.seed_seq.spawn(n)`` — the same
    derivation :meth:`numpy.random.Generator.spawn` performs — so
    generators rebuilt from them are bitwise identical to the streams
    ``rng.spawn(n)`` hands out, and the parent's spawn counter advances
    exactly as it would.
    """
    seed_seq = rng.bit_generator.seed_seq
    return list(seed_seq.spawn(n)), type(rng.bit_generator).__name__


def _default_encode(result: Any) -> Tuple[Dict[str, np.ndarray], object]:
    """Encode a worker result (tuple of arrays, array, or JSON value)."""
    if isinstance(result, tuple) and all(
        isinstance(item, np.ndarray) for item in result
    ):
        return (
            {f"a{i}": item for i, item in enumerate(result)},
            {"type": "tuple", "n": len(result)},
        )
    if isinstance(result, np.ndarray):
        return {"a0": result}, {"type": "array"}
    return {}, {"type": "json", "value": result}


def _default_decode(arrays: Dict[str, np.ndarray], meta: object) -> Any:
    """Inverse of :func:`_default_encode`."""
    kind = meta["type"] if isinstance(meta, dict) else None
    if kind == "tuple":
        return tuple(arrays[f"a{i}"] for i in range(meta["n"]))
    if kind == "array":
        return arrays["a0"]
    if kind == "json":
        return meta["value"]
    raise ValueError(f"unrecognised checkpoint unit meta: {meta!r}")


def _wrap(
    task: Callable[[], Any],
    faults: Optional[FaultPlan],
    unit: int,
    attempt: int,
    allow_exit: bool,
) -> Callable[[], Any]:
    if faults is None:
        return task
    return FaultyTask(
        task=task, plan=faults, unit=unit, attempt=attempt,
        allow_exit=allow_exit,
    )


def _call_task(task: Callable[[], Any]) -> Any:
    """Top-level trampoline so wrapped tasks pickle by reference."""
    return task()


def run_supervised(
    tasks: Sequence[Callable[[], Any]],
    execution: Execution = Execution(),
    checkpoint: Optional[CampaignCheckpoint] = None,
    encode: Optional[Callable[[Any], Tuple[Dict[str, np.ndarray], object]]] = None,
    decode: Optional[Callable[[Dict[str, np.ndarray], object], Any]] = None,
) -> List[Any]:
    """Execute ``tasks`` with retries, timeouts and checkpointing.

    Parameters
    ----------
    tasks:
        One picklable zero-argument callable per unit; results are
        returned in unit order.
    execution:
        Its ``n_workers`` (a process pool, rebuilt whenever a worker
        death breaks it, for more than one), ``policy`` and ``faults``;
        :meth:`Execution.run` opens the checkpoint from its other fields.
    checkpoint:
        When given, verified units load instead of running, and fresh
        completions persist as they finish.
    encode / decode:
        Unit-result codec for checkpoint persistence; the default
        handles tuples of arrays, bare arrays and JSON-serialisable
        values.

    Raises
    ------
    SupervisorError
        When any unit exhausts its retry budget.
    """
    n_workers, policy, faults = (
        execution.n_workers, execution.policy, execution.faults
    )
    encode = encode or _default_encode
    decode = decode or _default_decode
    n_units = len(tasks)
    results: List[Any] = [None] * n_units
    done = [False] * n_units

    if checkpoint is not None:
        for unit, (arrays, meta) in checkpoint.verified_units().items():
            if unit < n_units:
                results[unit] = decode(arrays, meta)
                done[unit] = True

    def record(unit: int, result: Any) -> None:
        results[unit] = result
        done[unit] = True
        if checkpoint is not None:
            arrays, meta = encode(result)
            checkpoint.save_unit(unit, arrays=arrays, meta=meta)

    attempts: Dict[int, int] = {unit: 0 for unit in range(n_units)}
    pending = [unit for unit in range(n_units) if not done[unit]]

    if n_workers == 1 or len(pending) <= 1:
        for unit in pending:
            while True:
                wrapped = _wrap(
                    tasks[unit], faults, unit, attempts[unit], allow_exit=False
                )
                try:
                    record(unit, wrapped())
                    break
                except Exception as exc:  # noqa: BLE001 - supervision boundary
                    attempts[unit] += 1
                    if attempts[unit] > policy.max_retries:
                        raise SupervisorError(
                            unit, attempts[unit], repr(exc)
                        ) from exc
                    time.sleep(policy.backoff_for(attempts[unit]))
        return results

    while pending:
        stuck = False
        pool = ProcessPoolExecutor(max_workers=min(n_workers, len(pending)))
        failed: List[Tuple[int, BaseException]] = []
        try:
            futures = {}
            for unit in pending:
                try:
                    futures[unit] = pool.submit(
                        _call_task,
                        _wrap(tasks[unit], faults, unit, attempts[unit],
                              allow_exit=True),
                    )
                except BrokenExecutor as exc:
                    # A worker died before every unit was submitted: the
                    # rest fail like the broken pool's futures would.
                    failed.extend(
                        (rest, exc) for rest in pending[len(futures):]
                    )
                    break
            for unit, future in futures.items():
                try:
                    record(unit, future.result(timeout=policy.timeout_s))
                except FutureTimeoutError as exc:
                    failed.append((unit, exc))
                    stuck = True
                except Exception as exc:  # noqa: BLE001 - incl. BrokenExecutor
                    failed.append((unit, exc))
        finally:
            # A timed-out unit may leave a worker busy: abandon the pool
            # without joining it (the worker exits once its task ends)
            # and retry on a fresh pool.
            pool.shutdown(wait=not stuck, cancel_futures=True)
        for unit, exc in failed:
            attempts[unit] += 1
            if attempts[unit] > policy.max_retries:
                raise SupervisorError(unit, attempts[unit], repr(exc)) from exc
        pending = [unit for unit in range(n_units) if not done[unit]]
        if pending:
            time.sleep(
                max(policy.backoff_for(attempts[unit]) for unit in pending)
            )
    return results

