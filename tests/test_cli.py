"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro import cli
from repro.cells.nangate45 import build_nangate45_library
from repro.cli import build_parser, main
from repro.growth.pitch import pitch_distribution_from_cv
from repro.montecarlo.chip_sim import ChipMonteCarlo
from repro.montecarlo.wafer_sim import chip_per_die_loop, per_die_loop
from repro.netlist.openrisc import build_openrisc_like_design
from repro.netlist.placement import RowPlacement


def _reference_inputs(argv):
    """The parsed options, calibrated setup, wafer, pitch and type model a
    ``wafer``/``chip-wafer`` invocation simulates, rebuilt for a direct
    call of the library's per-die reference loops."""
    args = build_parser().parse_args(argv)
    setup = cli._build_setup(args)
    wafer = cli._build_wafer_model(args).generate(
        np.random.default_rng(args.seed), seed_key=(args.seed,)
    )
    pitch = pitch_distribution_from_cv(args.mean_pitch_nm, args.pitch_cv)
    return args, wafer, pitch, cli._shorts_type_model(setup, args)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_wmin_defaults(self):
        args = build_parser().parse_args(["wmin"])
        assert args.yield_target == 0.90
        assert args.pitch_cv == 1.0

    def test_align_options(self):
        args = build_parser().parse_args(
            ["align", "--library", "commercial65", "--aligned-regions", "2"]
        )
        assert args.library == "commercial65"
        assert args.aligned_regions == 2


class TestCommands:
    def test_wmin_command(self, capsys):
        exit_code = main(["wmin"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Relaxation factor" in captured
        assert "Wmin with correlation" in captured

    def test_table1_command(self, capsys):
        exit_code = main(["table1"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "pRF uncorrelated growth" in captured
        assert "X" in captured

    def test_table2_command(self, capsys):
        exit_code = main(["table2"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "nangate45_cnfet" in captured
        assert "commercial65" in captured

    def test_scaling_command(self, capsys):
        exit_code = main(["scaling"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "45" in captured and "16" in captured

    def test_align_command_writes_views(self, tmp_path, capsys):
        physical = tmp_path / "aligned.leftxt"
        liberty = tmp_path / "aligned.libtxt"
        exit_code = main([
            "align", "--library", "nangate45",
            "--wmin-nm", "103",
            "--physical-out", str(physical),
            "--liberty-out", str(liberty),
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "cells with penalty" in captured
        assert physical.exists() and physical.stat().st_size > 0
        assert liberty.exists() and liberty.stat().st_size > 0

    def test_netlist_command_to_file(self, tmp_path, capsys):
        output = tmp_path / "core.v"
        exit_code = main(["netlist", "--scale", "0.05", "--output", str(output)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "instances" in captured
        content = output.read_text()
        assert content.startswith("// structural netlist")
        assert "endmodule" in content

    def test_sweep_and_query_round_trip(self, tmp_path, capsys):
        store = tmp_path / "surfaces"
        exit_code = main([
            "sweep", "--scenario", "device",
            "--w-min", "60", "--w-max", "300", "--w-points", "9",
            "--density-min", "180", "--density-max", "350",
            "--density-points", "5",
            "--out", str(store),
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "device" in captured and "persisted 1 surface(s)" in captured
        assert list(store.glob("device-*.npz"))

        exit_code = main([
            "query", "--store", str(store), "--key", "device",
            "--width-nm", "103,155,178",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "chip yield" in captured
        assert captured.count("grid") >= 3

    def test_query_fallback_modes(self, tmp_path, capsys):
        store = tmp_path / "surfaces"
        main([
            "sweep", "--scenario", "device",
            "--w-min", "60", "--w-max", "300", "--w-points", "9",
            "--density-min", "180", "--density-max", "350",
            "--density-points", "5",
            "--out", str(store),
        ])
        capsys.readouterr()
        # Out-of-grid width served through the exact fallback.
        exit_code = main([
            "query", "--store", str(store), "--key", "device",
            "--width-nm", "20", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["interpolated"] == [False]
        # fallback=none makes the same query a hard error (exit code 1).
        exit_code = main([
            "query", "--store", str(store), "--key", "device",
            "--width-nm", "20", "--fallback", "none",
        ])
        assert exit_code == 1

    def test_query_missing_key_exits_one(self, tmp_path, capsys):
        exit_code = main([
            "query", "--store", str(tmp_path), "--key", "nope",
            "--width-nm", "100",
        ])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error:" in captured.err

    def test_query_bad_width_list_exits_one(self, tmp_path, capsys):
        exit_code = main([
            "query", "--store", str(tmp_path), "--key", "device",
            "--width-nm", "abc",
        ])
        assert exit_code == 1
        assert "error:" in capsys.readouterr().err

    def test_custom_yield_target_changes_wmin(self, capsys):
        main(["wmin", "--yield-target", "0.99"])
        strict = capsys.readouterr().out
        main(["wmin", "--yield-target", "0.50"])
        relaxed = capsys.readouterr().out

        def extract(output):
            for line in output.splitlines():
                if line.startswith("Wmin without correlation"):
                    return float(line.split(":")[1].replace("nm", "").strip())
            raise AssertionError("Wmin line not found")

        assert extract(strict) > extract(relaxed)


class TestJsonOutput:
    """Every sub-command must emit parseable JSON under --json."""

    @pytest.mark.parametrize("argv", [
        ["wmin", "--json"],
        ["table1", "--json"],
        ["table2", "--json"],
        ["scaling", "--json"],
        ["align", "--wmin-nm", "103", "--json"],
    ])
    def test_analysis_commands(self, argv, capsys):
        exit_code = main(argv)
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert isinstance(payload, dict) and payload

    def test_wmin_json_fields(self, capsys):
        main(["wmin", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["wmin_baseline_nm"] > payload["wmin_optimized_nm"]
        assert payload["relaxation_factor"] > 100.0

    def test_netlist_json(self, tmp_path, capsys):
        output = tmp_path / "core.v"
        exit_code = main([
            "netlist", "--scale", "0.05", "--output", str(output), "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["instance_count"] > 0
        assert payload["output"] == str(output)

    def test_rare_event_json(self, capsys):
        exit_code = main([
            "rare-event", "--samples", "2000", "--target-pf", "1e-6", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["sampled_pf"] > 0
        assert payload["chip_yield_sampled_se"] >= 0

    def test_sweep_json(self, tmp_path, capsys):
        exit_code = main([
            "sweep", "--scenario", "directional_aligned",
            "--w-min", "60", "--w-max", "300", "--w-points", "5",
            "--density-min", "180", "--density-max", "350",
            "--density-points", "3",
            "--out", str(tmp_path / "surfaces"), "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["surfaces"][0]["scenario"] == "directional_aligned"
        assert payload["evaluations"][0] > 0

    def test_wafer_command(self, capsys):
        exit_code = main([
            "wafer", "--trials", "128", "--die-size-mm", "25",
            "--widths-nm", "100,140", "--device-counts", "200,100",
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "mean chip yield" in out
        assert "good-die fraction" in out
        assert "wafer" in out  # the radial summary table's aggregate row

    def test_wafer_json_matches_per_die_loop_statistically(self, capsys):
        common = [
            "--trials", "256", "--die-size-mm", "25",
            "--widths-nm", "110", "--device-counts", "150", "--json",
        ]
        assert main(["wafer"] + common) == 0
        stacked = json.loads(capsys.readouterr().out)
        args, wafer, pitch, type_model = _reference_inputs(["wafer"] + common)
        loop = per_die_loop(
            wafer, pitch, type_model, [110.0], [150.0],
            n_trials=args.trials, seed_key=(args.seed,),
            good_die_threshold=args.good_die_threshold,
        )
        assert stacked["die_count"] == loop.die_count > 0
        assert stacked["mean_chip_yield"] == pytest.approx(
            loop.mean_chip_yield, abs=0.1
        )
        assert 0.0 <= stacked["good_die_fraction"] <= 1.0

    def test_wafer_bad_width_list_exits_one(self, capsys):
        exit_code = main([
            "wafer", "--widths-nm", "not-a-number", "--trials", "8",
        ])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error:" in captured.err


class TestWaferFieldOptions:
    """Correlated-field, de-rating and chip-wafer additions (PR 5)."""

    def test_wafer_correlated_field_and_derate(self, capsys):
        exit_code = main([
            "wafer", "--trials", "64", "--die-size-mm", "25",
            "--widths-nm", "100", "--device-counts", "100",
            "--correlation-length-mm", "25", "--field-sigma", "0.05",
            "--misalignment-correlation-length-mm", "30",
            "--derate-misalignment", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["correlation_length_mm"] == 25.0
        assert payload["derate_misalignment"] is True
        assert all(d["relaxation_factor"] >= 1.0 for d in payload["dice"])

    def test_wafer_field_run_is_deterministic(self, capsys):
        args = [
            "wafer", "--trials", "32", "--die-size-mm", "25",
            "--widths-nm", "100", "--correlation-length-mm", "20", "--json",
        ]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["dice"] == second["dice"]

    def test_wafer_prints_yield_map(self, capsys):
        exit_code = main([
            "wafer", "--trials", "32", "--die-size-mm", "25",
            "--widths-nm", "100",
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        # The text map draws one character per die.
        assert "#" in out or "." in out

    def test_chip_wafer_command(self, capsys):
        exit_code = main([
            "chip-wafer", "--trials", "16", "--die-size-mm", "25",
            "--scale", "0.01", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["die_count"] > 0
        assert payload["device_count"] > 0
        assert len(payload["widths_nm"]) >= 1
        for die in payload["dice"]:
            assert 0.0 <= die["chip_yield"] <= 1.0
            assert 0.0 <= die["eq23_chip_yield"] <= 1.0

    def test_chip_wafer_matches_per_die_loop(self, capsys):
        common = [
            "--trials", "16", "--die-size-mm", "25", "--scale", "0.01",
            "--json",
        ]
        assert main(["chip-wafer"] + common) == 0
        shared = json.loads(capsys.readouterr().out)
        args, wafer, pitch, type_model = _reference_inputs(
            ["chip-wafer"] + common
        )
        design = build_openrisc_like_design(
            build_nangate45_library(), scale=args.scale, seed=args.netlist_seed
        )
        chip = ChipMonteCarlo(
            RowPlacement(design), pitch=pitch, type_model=type_model
        )
        loop = chip_per_die_loop(
            wafer, chip, n_trials=args.trials, seed_key=(args.seed,),
            good_die_threshold=args.good_die_threshold,
        )
        assert shared["die_count"] == loop.die_count
        for a, b in zip(shared["dice"], loop.dice):
            assert a["chip_yield"] == b.chip_yield
            assert a["mean_failing_devices"] == b.mean_failing_devices


class TestUsageErrors:
    """Semantic usage errors must exit 2 with a one-line message."""

    def test_resume_without_checkpoint_dir(self, capsys):
        exit_code = main(["wafer", "--resume", "--trials", "8"])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert err.startswith("error: ")
        assert "--resume requires --checkpoint-dir" in err
        assert err.count("\n") == 1  # exactly one line

    def test_checkpoint_dir_is_a_file(self, capsys, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        exit_code = main([
            "wafer", "--trials", "8", "--checkpoint-dir", str(blocker),
        ])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert "not a directory" in err

    def test_resume_from_nonexistent_checkpoint_dir(self, capsys, tmp_path):
        exit_code = main([
            "sweep", "--scenario", "device",
            "--checkpoint-dir", str(tmp_path / "missing"), "--resume",
        ])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert "does not exist" in err

    def test_query_nonexistent_store_exits_two(self, capsys, tmp_path):
        exit_code = main([
            "query", "--store", str(tmp_path / "missing"),
            "--key", "device", "--width-nm", "250",
        ])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert "does not exist" in err

    def test_query_store_is_a_file_exits_two(self, capsys, tmp_path):
        blocker = tmp_path / "store-file"
        blocker.write_text("occupied")
        exit_code = main([
            "query", "--store", str(blocker),
            "--key", "device", "--width-nm", "250",
        ])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert "not a directory" in err

    def test_chip_wafer_usage_errors_share_the_contract(self, capsys):
        exit_code = main(["chip-wafer", "--resume", "--trials", "8"])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert "--resume requires --checkpoint-dir" in err

    @pytest.mark.parametrize(
        "command", ["co-opt", "wafer", "chip-wafer", "timing", "serve"]
    )
    def test_workers_must_be_positive(self, capsys, command):
        # One check in main covers every subcommand with --workers, so all
        # of them share the usage-error contract (exit 2, one line).
        exit_code = main([command, "--workers", "0"])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert err == "error: --workers must be at least 1\n"


class TestCheckpointedCommands:
    def test_wafer_checkpoint_resume_identical(self, capsys, tmp_path):
        common = [
            "wafer", "--trials", "16", "--die-size-mm", "25", "--json",
        ]
        assert main(common) == 0
        plain = json.loads(capsys.readouterr().out)
        ck = ["--checkpoint-dir", str(tmp_path / "ck")]
        assert main(common + ck) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(common + ck + ["--resume"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert first == plain
        assert resumed == plain
        assert (tmp_path / "ck" / "wafer" / "manifest.json").exists()

    def test_sweep_checkpoint_resume_replays(self, capsys, tmp_path):
        common = [
            "sweep", "--scenario", "device",
            "--w-min", "150", "--w-max", "300", "--w-points", "5",
            "--density-min", "200", "--density-max", "300",
            "--density-points", "5", "--max-refinement-rounds", "1",
            "--json", "--checkpoint-dir", str(tmp_path / "ck"),
        ]
        assert main(common + ["--out", str(tmp_path / "s1")]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(
            common + ["--out", str(tmp_path / "s2"), "--resume"]
        ) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert first["surfaces"] == resumed["surfaces"]
        assert first["evaluations"][0] > 0
        assert resumed["evaluations"] == [0]

    def test_query_reports_degradation_field(self, capsys, tmp_path):
        sweep = [
            "sweep", "--scenario", "device",
            "--w-min", "150", "--w-max", "300", "--w-points", "5",
            "--density-min", "200", "--density-max", "300",
            "--density-points", "5", "--max-refinement-rounds", "1",
            "--out", str(tmp_path / "store"), "--json",
        ]
        assert main(sweep) == 0
        capsys.readouterr()
        assert main([
            "query", "--store", str(tmp_path / "store"),
            "--key", "device", "--width-nm", "200,250", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degraded"] is False
        assert payload["degradation"] == ["none"]


class TestServeCommand:
    """Validation of the `serve` subcommand (no server is booted here;
    the full boot path is exercised by benchmarks/bench_service_http.py)."""

    def test_missing_store_is_usage_error(self, capsys):
        exit_code = main(["serve", "--store", "/no/such/dir"])
        assert exit_code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_store_must_be_a_directory(self, tmp_path, capsys):
        artifact = tmp_path / "file.npz"
        artifact.write_bytes(b"x")
        exit_code = main(["serve", "--store", str(artifact)])
        assert exit_code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_multi_worker_needs_explicit_port(self, capsys):
        exit_code = main(["serve", "--workers", "2", "--port", "0"])
        assert exit_code == 2
        assert "explicit --port" in capsys.readouterr().err


class TestTimingCommand:
    GRAPH_TEXT = (
        "node ff0.Q DFF_X1 width=160 load=640 source\n"
        "node u1 NAND2_X1 width=160 load=640\n"
        "node ff1.D DFF_X1 width=160 load=0 sink\n"
        "arc ff0.Q u1\n"
        "arc u1 ff1.D\n"
    )

    def test_derived_mode(self, capsys):
        exit_code = main([
            "timing", "--scale", "0.02", "--trials", "32",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "functional yield" in captured
        assert "timing yield" in captured
        assert "combined yield" in captured
        assert "derived" in captured

    def test_json_payload(self, capsys):
        exit_code = main([
            "timing", "--scale", "0.02", "--trials", "32", "--json",
        ])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_trials"] == 32
        assert 0.0 <= payload["combined_yield"] <= payload["functional_yield"]
        assert payload["t_clk_ps"] > 0
        assert payload["nominal_critical_path_ps"] > 0

    def test_ingested_mode(self, tmp_path, capsys):
        graph_file = tmp_path / "tiny.tg"
        graph_file.write_text(self.GRAPH_TEXT, encoding="utf-8")
        exit_code = main([
            "timing", "--graph", str(graph_file), "--trials", "32", "--json",
        ])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_nodes"] == 3
        assert "ingested" in payload["mode"]

    def test_oracle_matches_batched(self, tmp_path, capsys):
        graph_file = tmp_path / "tiny.tg"
        graph_file.write_text(self.GRAPH_TEXT, encoding="utf-8")
        base_args = [
            "timing", "--graph", str(graph_file), "--trials", "64", "--json",
        ]
        assert main(base_args) == 0
        batched = json.loads(capsys.readouterr().out)
        assert main(base_args + ["--oracle"]) == 0
        oracle = json.loads(capsys.readouterr().out)
        assert batched == oracle

    def test_tclk_flags_are_exclusive(self, capsys):
        exit_code = main([
            "timing", "--tclk-ps", "100", "--tclk-factor", "2",
        ])
        assert exit_code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_graph_excludes_netlist_flags(self, tmp_path, capsys):
        graph_file = tmp_path / "tiny.tg"
        graph_file.write_text(self.GRAPH_TEXT, encoding="utf-8")
        exit_code = main([
            "timing", "--graph", str(graph_file), "--scale", "0.1",
        ])
        assert exit_code == 2
        assert "derived netlist mode" in capsys.readouterr().err

    def test_unreadable_graph_exits_two(self, capsys):
        exit_code = main(["timing", "--graph", "/no/such/graph.tg"])
        assert exit_code == 2
        assert "not a readable file" in capsys.readouterr().err

    def test_malformed_graph_exits_one(self, tmp_path, capsys):
        graph_file = tmp_path / "bad.tg"
        graph_file.write_text("node u1\n", encoding="utf-8")
        exit_code = main(["timing", "--graph", str(graph_file)])
        assert exit_code == 1
        assert "error:" in capsys.readouterr().err
