"""Resilient execution layer: checkpoints, supervision, faults, guards.

The spawn-keyed determinism contract of the Monte Carlo tier (see
``docs/guides/determinism.md``) makes robustness *testable*: because every
chunk, die and grid cell derives its random stream from a stateless seed
key, a retried or resumed unit of work reproduces its original result
bit-for-bit.  This package builds the machinery that exploits that
property:

``atomic``
    Write-temp-then-rename primitives and content hashing, so an
    interrupted writer never leaves a truncated artifact behind.
``checkpoint``
    Content-hashed campaign checkpoints: completed units persist as they
    finish and a resumed campaign re-runs only what is missing or
    corrupt (corrupt units are quarantined, never trusted).  A
    campaign's identity is fingerprinted from the task list its workers
    receive (:meth:`~repro.resilience.supervise.Execution.run`).
``supervise``
    The one executor of every Monte Carlo campaign: picklable tasks run
    in-process or on a process pool, with per-chunk timeouts
    and bounded retry-with-backoff on worker failure or death.  Every
    campaign API takes one :class:`~repro.resilience.supervise.Execution`
    value saying how its units run.
``faults``
    A deterministic, seed-keyed fault-injection harness (kill-worker,
    delay, corrupt-artifact, inject-NaN) driving the chaos test suite.
``guards``
    Numerical guardrails — NaN/inf/negative-probability sentinels that
    raise structured diagnostics instead of letting poisoned values
    propagate silently.
``degrade``
    A monotonic-clock circuit breaker and deadline helper backing the
    serving layer's graceful-degradation ladder.
"""

from repro.resilience.atomic import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    sha256_bytes,
    sha256_file,
)
from repro.resilience.checkpoint import (
    CampaignCheckpoint,
    CheckpointError,
    CheckpointStore,
    CorruptArtifactError,
    fingerprint_parts,
)
from repro.resilience.degrade import CircuitBreaker, Deadline
from repro.resilience.faults import (
    FaultPlan,
    InjectedFault,
    WorkerCrash,
    corrupt_file,
)
from repro.resilience.guards import (
    NumericalGuardError,
    check_finite,
    check_probabilities,
)
from repro.resilience.supervise import (
    Execution,
    RetryPolicy,
    SeededChunk,
    SupervisorError,
    run_supervised,
)

__all__ = [
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "sha256_bytes",
    "sha256_file",
    "CampaignCheckpoint",
    "CheckpointError",
    "CheckpointStore",
    "CorruptArtifactError",
    "fingerprint_parts",
    "CircuitBreaker",
    "Deadline",
    "FaultPlan",
    "InjectedFault",
    "WorkerCrash",
    "corrupt_file",
    "NumericalGuardError",
    "check_finite",
    "check_probabilities",
    "Execution",
    "RetryPolicy",
    "SeededChunk",
    "SupervisorError",
    "run_supervised",
]
