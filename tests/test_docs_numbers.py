"""Performance numbers quoted in README and ``docs/`` match the records.

Each check names a line of a document by a stable anchor and the values
that line must quote, formatted from the committed ``BENCH_*.json``
record with the number of significant figures the document uses.  When
a record is re-measured, or a document is edited by hand, a mismatch
fails here instead of drifting silently.
"""

import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _record(name: str) -> dict:
    return json.loads((REPO / name).read_text())


def sig(value: float, digits: int) -> str:
    """``value`` to ``digits`` significant figures, in the docs' style.

    ``1243.5 -> "1,240"``, ``10.02 -> "10"``, ``0.716 -> "0.72"``,
    ``293925 -> "2.9e5"`` (values of 1e5 and above use e-notation).
    """
    rounded = float(f"{value:.{digits}g}")
    if rounded >= 1e5:
        mantissa, exponent = f"{value:.{digits - 1}e}".split("e")
        return f"{mantissa}e{int(exponent)}"
    if rounded >= 1 and rounded == int(rounded):
        return f"{int(rounded):,}"
    return f"{rounded:g}"


def _checks():
    chip = _record("BENCH_chip_sim.json")
    wafer = _record("BENCH_wafer.json")
    coopt = _record("BENCH_coopt.json")

    speedup = f"{sig(chip['speedup'], 3)}X"
    devices = f"{chip['design']['device_count']:,}"
    scalar_tps = sig(chip["scalar"]["trials_per_sec"], 2)
    vector_tps = sig(chip["vectorized"]["trials_per_sec"], 3)

    def ms(seconds: float, digits: int) -> str:
        return sig(seconds * 1e3, digits)

    radial = wafer["width_class"]
    field = wafer["correlated_field"]
    chip_wafer = wafer["chip_wafer"]
    cw_devices = f"{chip_wafer['device_count']:,}"
    cw_loop = sig(chip_wafer["per_die_chip_loop"]["seconds"], 2)
    cw_shared = sig(chip_wafer["shared_geometry"]["seconds"], 2)
    cw_speedup = f"{sig(chip_wafer['speedup'], 2)}X"

    shorts = _record("BENCH_shorts.json")

    front = coopt["front_quality"]
    evals = sig(coopt["throughput"]["evaluations_per_sec"], 2)

    serving = _record("BENCH_serving.json")
    served = sig(serving["throughput"]["queries_per_sec"], 1)
    exact = serving["exact_points"]
    poisson_pps = sig(exact["poisson"]["points_per_sec"], 1)
    gamma_pps = sig(exact["gamma_cv0.5"]["points_per_sec"], 1)

    return [
        ("README.md", "vectorized batched Monte Carlo engine (",
         [f"(~{speedup} single-core)"]),
        ("README.md", "| chip Monte Carlo (",
         [f"({devices}-device block)", f"scalar loop, ~{scalar_tps} trials/s",
          f"batched engine, ~{vector_tps} trials/s", f"| ~{speedup} |"]),
        ("README.md", "| wafer, 52 dies × 5 width classes |",
         [f"~{ms(radial['per_die_loop']['seconds'], 3)} ms",
          f"~{ms(radial['stacked']['seconds'], 2)} ms",
          f"~{sig(radial['speedup'], 2)}X"]),
        ("README.md", "| wafer × full placement (",
         [f"({cw_devices} devices)", f"~{cw_loop} s", f"~{cw_shared} s",
          f"~{cw_speedup}"]),
        ("docs/benchmarks.md", "Nangate45 OpenRISC-like block, scale",
         [f"{devices} devices"]),
        ("docs/benchmarks.md", "| scalar per-trial loop (oracle) |",
         [f"| ~{scalar_tps} |",
          f"~{sig(chip['scalar']['device_windows_per_sec'], 2)} |"]),
        ("docs/benchmarks.md", "| vectorized batched engine |",
         [f"| ~{vector_tps} |",
          f"~{sig(chip['vectorized']['device_windows_per_sec'], 2)} |"]),
        ("docs/benchmarks.md", "single-core: one 2D gap draw",
         [f"≈{speedup} single-core"]),
        ("docs/benchmarks.md", "| best penalty vs uniform upsizing |",
         [f"~{sig(100 * front['best']['capacitance_penalty'], 1)} %",
          f"~{sig(100 * front['uniform_penalty'], 2)} %"]),
        ("docs/benchmarks.md", "| inner-loop candidate evaluations |",
         [f"~{evals} evals/sec"]),
        ("docs/benchmarks.md", "trials/die for the width-class cases",
         [f"{chip_wafer['die_count']} dies × {cw_devices}-device placement"]),
        ("docs/benchmarks.md", "| width classes, radial wafer |",
         [f"~{ms(radial['per_die_loop']['seconds'], 3)} ms",
          f"~{ms(radial['stacked']['seconds'], 2)} ms",
          f"~{sig(radial['speedup'], 2)}X"]),
        ("docs/benchmarks.md", "| width classes, correlated field",
         [f"~{ms(field['per_die_loop']['seconds'], 3)} ms",
          f"~{ms(field['stacked']['seconds'], 2)} ms",
          f"~{sig(field['speedup'], 2)}X"]),
        ("docs/benchmarks.md", "| whole placement (chip wafer) |",
         [f"~{cw_loop} s", f"~{cw_shared} s", f"~{cw_speedup}"]),
        ("docs/benchmarks.md", "trials, single core: joint mode costs",
         [f"{shorts['configuration']['device_count']:,} devices",
          f"{shorts['configuration']['n_trials']} trials",
          f"~{sig(shorts['throughput']['slowdown'], 3)}X"]),
        ("docs/benchmarks.md", "from the thinned closed form",
         [f"z = {sig(shorts['accuracy']['z_score'], 2)}"]),
        ("README.md", "error-bounded yield-surface serving tier (",
         [f"(~{served} queries/s)"]),
        ("README.md", "| yield queries |",
         [f"exact gamma-family point evals, ~{gamma_pps}/s", f"| ~{served}/s |"]),
        ("docs/benchmarks.md", "| exact evaluator per point, Poisson family",
         [f"~{poisson_pps} points/sec"]),
        ("docs/benchmarks.md", "| exact evaluator per point, gamma family",
         [f"~{gamma_pps} points/sec"]),
        ("docs/benchmarks.md", "| interpolated surface queries, any family |",
         [f"**~{served} queries/sec**"]),
        ("docs/benchmarks.md", "queries/sec, plus a Table 1 operating-point bound",
         [f"Floor: ≥{sig(serving['throughput_floor'], 1)} queries/sec"]),
        ("docs/architecture.md", "then serves batched queries (",
         [f"(~{served}/s single"]),
        ("docs/guides/estimators.md", "| Many (width, density) queries |",
         [f"serve ~{served} queries/s"]),
        ("docs/paper-map.md", "| Error-bounded yield surfaces + batched serving (",
         [f"(~{served} q/s)"]),
        ("docs/architecture.md", "spawn-keyed RNG streams (",
         [f"(~{speedup} single-core over the scalar loop)"]),
        ("docs/paper-map.md", "| Batched Monte Carlo engine (",
         [f"(~{speedup} single-core)"]),
    ]


CHECKS = _checks()


@pytest.mark.parametrize(
    "path,anchor,expected",
    CHECKS,
    ids=[
        f"{path}:{anchor.strip('| (').replace('×', 'x')}"
        for path, anchor, _ in CHECKS
    ],
)
def test_quoted_numbers_match_records(path, anchor, expected):
    lines = [
        line for line in (REPO / path).read_text().splitlines()
        if anchor in line
    ]
    assert len(lines) == 1, f"{path}: anchor {anchor!r} found {len(lines)} times"
    for value in expected:
        assert value in lines[0], (
            f"{path}: expected {value!r} (from the record) in line {lines[0]!r}"
        )

