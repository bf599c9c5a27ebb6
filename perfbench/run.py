"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chip-mc --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s`` — median of the workload's repeated fresh set-ups in this
  run (``gc.collect()`` before each; imports are paid once, untimed);
* ``op_p50_s`` — median operation latency;
* ``op_tail_s`` — the highest percentile with at least ten samples
  beyond it (the percentile and sample count are printed with it);
* ``ops_per_s`` — completed operations over the timed wall time;
* ``peak_rss_mb`` — peak RSS (``VmHWM``) of the process doing the work.

``--trace 1`` runs a fixed number of operations, each untraced and then
traced with the same seed, and reports the per-layer metrics (per-
operation medians).  The fixed count makes the exact counters repeat
exactly between runs with the same seed.  A per-layer metric a workload
never reaches reads 0.

Every operation's answer is checked; a failed check, an exception, or
(traced run) a traced answer that differs bitwise from the untraced one
counts as a failed operation.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("chip-mc", "wafer-map", "serve-batch32", "coopt-front")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metric -> (unit, source).  Sources: ("incl" | "self" |
#: "calls", span name), ("counter", name) or ("derived", name).
PER_LAYER = {
    "backend.sample_gaps_s": ("s", ("incl", "backend.sample_gaps")),
    "backend.uniform_s": ("s", ("incl", "backend.uniform")),
    "backend.cumsum_s": ("s", ("incl", "backend.cumsum")),
    "backend.clip_s": ("s", ("incl", "backend.clip")),
    "backend.searchsorted_s": ("s", ("incl", "backend.searchsorted")),
    "backend.prefix_sum_s": ("s", ("incl", "backend.prefix_sum")),
    "backend.take_pairs_s": ("s", ("incl", "backend.take_pairs")),
    "backend.gap_slots": ("count", ("counter", "backend.gap_slots")),
    "backend.sample_gaps_calls": ("count", ("counter", "backend.sample_gaps_calls")),
    "engine.gap_slot_yield": ("ratio", ("derived", "gap_slot_yield")),
    "engine.sample_track_batch_s": ("s", ("incl", "engine.sample_track_batch")),
    "engine.count_in_windows_flat_s": ("s", ("incl", "engine.count_in_windows_flat")),
    "chip_sim.run_s": ("s", ("incl", "chip_sim.run")),
    "chip_sim.run_self_s": ("s", ("self", "chip_sim.run")),
    "chip_sim.geometry_s": ("s", ("incl", "chip_sim.geometry")),
    "netlist.design_s": ("s", ("incl", "netlist.design")),
    "wafer_sim.self_s": ("s", ("self", "wafer_sim.simulate_wafer")),
    "growth.wafer_generate_s": ("s", ("incl", "growth.wafer_generate")),
    "service.app_s": ("s", ("incl", "service.app")),
    "service.app_self_s": ("s", ("self", "service.app")),
    "service.schema_parse_s": ("s", ("incl", "service.schema_parse")),
    "service.response_build_s": ("s", ("incl", "service.response_build")),
    "serving.query_s": ("s", ("incl", "serving.query")),
    "serving.interpolate_s": ("s", ("incl", "serving.interpolate")),
    "core.yield_transform_s": ("s", ("incl", "core.yield_transform")),
    "core.yield_transform_calls": ("count", ("calls", "core.yield_transform")),
    "service.http_s": ("s", ("derived", "http_s")),
    "surface.build_s": ("s", ("incl", "surface.build")),
    "service.boot_s": ("s", ("incl", "service.boot")),
    "coopt.surface_build_s": ("s", ("counter", "coopt.surface_build_s")),
    "coopt.inner_loop_s": ("s", ("counter", "coopt.inner_loop_s")),
    "coopt.candidates": ("count", ("counter", "coopt.candidates")),
    "coopt.pruned": ("count", ("counter", "coopt.pruned")),
    "coopt.escalated": ("count", ("counter", "coopt.escalated")),
    "coopt.validate_s": ("s", ("incl", "coopt.validate")),
    "timing.from_chip_s": ("s", ("incl", "timing.from_chip")),
    "timing.run_s": ("s", ("incl", "timing.run")),
    "timing.sta_s": ("s", ("incl", "timing.sta")),
    "core.baseline_flow_s": ("s", ("incl", "core.baseline_flow")),
    "trace.op_p50_s": ("s", ("derived", "op_p50_s")),
    "trace.overhead_s": ("s", ("derived", "overhead_s")),
}

#: Set-ups measured in a traced run (per-layer set-up phases).
TRACED_SETUPS = 3


def tail(latencies: List[float]):
    """(value, percentile) of the highest percentile with ≥10 samples beyond."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _git_sha(root: Path) -> str:
    """HEAD commit read from ``.git`` without running git (``unknown`` outside a clone)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> Dict[str, object]:
    """Where and how this run was made (ROADMAP provenance schema)."""
    import numpy
    from repro.backend import default_backend

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    backend = default_backend()
    return {
        "git_sha": _git_sha(ROOT),
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "backend": backend.name,
        "dtype": backend.dtype.name,
        "accum_dtype": backend.accum_dtype.name,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _attempt(index: int, fn, failures: List[int]):
    """Run one operation; an exception is a failed operation, not an abort."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - counted, reported, run goes on
        failures.append(index)
        print(f"operation {index} raised {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return None


def _checked(workload, results, failures: List[int]) -> None:
    for index, result in results:
        if result is None:
            continue
        try:
            ok = workload.check(index, result)
        except Exception as exc:  # noqa: BLE001 - a broken answer is a failure
            print(f"check {index} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            ok = False
        if not ok:
            failures.append(index)


def measure(workload, seconds: float):
    """The untraced run: end-to-end metrics and the per-operation checks.

    Host speed drifts over seconds, so the repeated set-ups are spread
    evenly over the timed loop instead of running back to back, each
    followed by one untimed warm-up operation; a ``per_op_setup``
    workload sets up afresh before every operation.  Set-ups, their
    ``gc.collect()`` and warm-ups are excluded from the timed wall time.
    """
    setup_samples: List[float] = []
    excluded = 0.0

    def fresh_setup(index: int) -> None:
        nonlocal excluded
        paused = time.perf_counter()
        gc.collect()
        start = time.perf_counter()
        workload.setup(index)
        setup_samples.append(time.perf_counter() - start)
        excluded += time.perf_counter() - paused

    failures: List[int] = []
    results = []
    index = 0

    def warm_up() -> None:
        """One untimed, checked operation: lazy loading finishes here."""
        nonlocal excluded, index
        paused = time.perf_counter()
        op = index
        results.append((op, _attempt(op, lambda: workload.operation(op),
                                     failures)))
        index += 1
        excluded += time.perf_counter() - paused

    if workload.per_op_setup:
        workload.setup(index)
    else:
        fresh_setup(index)
    warm_up()
    due = [] if workload.per_op_setup else [
        seconds * k / workload.setup_repeats
        for k in range(1, workload.setup_repeats)
    ]
    latencies: List[float] = []
    excluded = 0.0  # only pauses inside the timed loop count
    start_loop = time.perf_counter()
    while time.perf_counter() - start_loop < seconds or not latencies:
        if due and time.perf_counter() - start_loop >= due[0]:
            due.pop(0)
            fresh_setup(index)
            warm_up()
        elif workload.per_op_setup:
            fresh_setup(index)
        start = time.perf_counter()
        result = _attempt(index, lambda: workload.operation(index), failures)
        if result is not None:
            latencies.append(time.perf_counter() - start)
        results.append((index, result))
        index += 1
    wall = time.perf_counter() - start_loop - excluded
    for _ in due:  # set-ups a slow host left undone inside the loop
        fresh_setup(index)
    _checked(workload, results, failures)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "ops_per_s": len(latencies) / wall,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    notes = [
        f"set-ups timed      : {len(setup_samples)}",
        f"operations timed   : {len(latencies)} in {wall:.3f} s",
        f"op_tail_s          : p{tail_pct:.1f} of {len(latencies)} samples",
    ]
    return metrics, END_TO_END_UNITS, len(results), len(failures), notes


def _span_metric(records, setup_records, name: str, slot: int) -> float:
    """Median per-operation span value; set-up records when ops never call it."""
    for source in (records, setup_records):
        if any(name in spans for spans, _ in source):
            return statistics.median(
                spans.get(name, (0.0, 0.0, 0))[slot] for spans, _ in source
            )
    return 0.0


def trace(workload):
    """The traced run: per-layer metrics, each op also run untraced."""
    from tracing import Tracer, patched
    from workloads import trace_targets

    tracer = Tracer()
    if not workload.per_op_setup:
        workload.setup(0)
        for k in range(TRACED_SETUPS):
            gc.collect()
            with patched(tracer, trace_targets(tracer)):
                workload.setup(k, tracer=tracer)
            tracer.end_operation()
    setup_records, tracer.records = tracer.records, []

    failures: List[int] = []
    rows = []
    # One untraced warm-up operation: lazy loading finishes before timing.
    if workload.per_op_setup:
        workload.setup(0)
    results = [(0, _attempt(0, lambda: workload.operation(0), failures))]
    tracer.discard_operation()
    for index in range(1, 1 + workload.trace_ops):
        row = _attempt(index, lambda: workload.trace_operation(index, tracer),
                       failures)
        if row is None:
            tracer.discard_operation()
            continue
        tracer.end_operation()
        rows.append(row)
        results.append((index, row["result"]))
        if not row["equal"]:
            print(f"operation {index}: traced answer differs from untraced",
                  file=sys.stderr)
            failures.append(index)
    _checked(workload, results, failures)

    records = tracer.records
    derived: Dict[str, float] = {"gap_slot_yield": 0.0, "http_s": 0.0,
                                 "op_p50_s": 0.0, "overhead_s": 0.0}
    if rows:
        traced_p50 = statistics.median(r["traced_s"] for r in rows)
        derived["op_p50_s"] = traced_p50
        derived["overhead_s"] = traced_p50 - statistics.median(
            r["untraced_s"] for r in rows)
        if "http_s" in rows[0]:
            derived["http_s"] = statistics.median(
                r["http_s"] for r in rows
            ) - _span_metric(records, [], "service.app", 0)
        ratios = [
            counters.get("engine.span_slots", 0) / counters["backend.gap_slots"]
            for _, counters in records if counters.get("backend.gap_slots")
        ]
        if ratios:
            derived["gap_slot_yield"] = statistics.median(ratios)

    metrics: Dict[str, float] = {}
    for name, (_, (kind, key)) in PER_LAYER.items():
        if kind in ("incl", "self", "calls"):
            slot = ("incl", "self", "calls").index(kind)
            metrics[name] = _span_metric(records, setup_records, key, slot)
        elif kind == "counter":
            values = [counters.get(key, 0) for _, counters in records]
            metrics[name] = statistics.median(values) if values else 0.0
        else:
            metrics[name] = derived[key]
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    notes = [
        f"traced operations  : {len(rows)} (each also run untraced)",
        f"traced set-ups     : {len(setup_records)}",
    ]
    return metrics, units, len(results), len(failures), notes


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 size: str = "full"):
    """Run one workload at ``size`` (``"tiny"`` for the self-test).

    Returns ``(result dict, note lines)``.  Scratch files live under
    ``.perfbench_work`` in the checkout and are removed at the end.
    """
    from workloads import make_workload

    workdir_root = ROOT / ".perfbench_work"
    workdir_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=workdir_root))
    workload = make_workload(name, seed, size, workdir)
    try:
        if traced:
            metrics, units, attempted, failed, notes = trace(workload)
        else:
            metrics, units, attempted, failed, notes = measure(workload, seconds)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir_root.rmdir()
        except OSError:
            pass  # another run still owns a directory there
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": float(value), "unit": units[key]}
            for key, value in metrics.items()
        },
    }
    return result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print(f"perfbench provenance {json.dumps(provenance(args))}")
    result, notes = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    for line in notes:
        print(f"  {line}")
    for key, metric in result["metrics"].items():
        print(f"  {key:<32} {metric['value']:.6g} {metric['unit']}")
    print(f"  failed {result['failed']} of {result['attempted']} operations")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
