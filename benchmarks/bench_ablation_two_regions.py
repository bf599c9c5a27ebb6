"""Ablation — one versus two aligned active regions per polarity.

Sec. 3.3 of the paper notes that the area penalty can be removed entirely by
providing two aligned active regions instead of one, at the cost of a 2X
reduction in the pRF benefit (and a < 5 % increase in Wmin).  This ablation
quantifies that trade-off end to end on both synthetic libraries.
"""

from repro.cells.aligned_active import enforce_aligned_active
from repro.cells.area import area_penalty_report
from repro.core.correlation import CorrelationParameters, RowYieldModel


def _trade_off(setup, library, groups_list):
    rows = []
    for groups in groups_list:
        params = CorrelationParameters(
            cnt_length_um=setup.correlation.cnt_length_um,
            min_cnfet_density_per_um=setup.correlation.min_cnfet_density_per_um,
            aligned_region_groups=groups,
        )
        row_model = RowYieldModel(parameters=params)
        relaxation = row_model.relaxation_factor(setup.required_pf())
        wmin = setup.wmin_solver.solve_simplified(
            setup.min_size_device_count, relaxation_factor=relaxation
        ).wmin_nm
        report = area_penalty_report(
            enforce_aligned_active(library, wmin, aligned_region_groups=groups)
        )
        rows.append({
            "groups": groups,
            "relaxation": relaxation,
            "wmin_nm": wmin,
            "cells_with_penalty": report.penalised_cell_count,
            "max_penalty_pct": report.max_penalty_percent,
        })
    return rows


def test_ablation_aligned_region_count(benchmark, setup, nangate45, commercial65):
    results = benchmark(
        lambda: {
            "nangate45": _trade_off(setup, nangate45, [1, 2]),
            "commercial65": _trade_off(setup, commercial65, [1, 2]),
        }
    )

    print("\n=== Ablation: one vs two aligned active regions ===")
    for library_name, rows in results.items():
        print(f"-- {library_name} --")
        print("regions   relaxation   Wmin (nm)   cells w/ penalty   max penalty (%)")
        for row in rows:
            print(f"{row['groups']:7d}   {row['relaxation']:10.1f}   {row['wmin_nm']:9.1f}"
                  f"   {row['cells_with_penalty']:16d}   {row['max_penalty_pct']:15.1f}")

    for rows in results.values():
        one, two = rows
        # Two regions halve the correlation benefit ...
        assert one["relaxation"] / two["relaxation"] == __import__("pytest").approx(
            2.0, rel=0.01
        )
        # ... cost only a few percent of Wmin ...
        assert two["wmin_nm"] / one["wmin_nm"] < 1.08
        # ... and remove the area penalty entirely.
        assert two["cells_with_penalty"] == 0
        assert one["cells_with_penalty"] >= two["cells_with_penalty"]
