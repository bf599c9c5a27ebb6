"""One ``Execution`` value runs every campaign; identity comes from the tasks.

A campaign's checkpoint fingerprint is derived from its task list — the
payload, the unit layout and each chunk's spawned seed sequence — so it
must:

* be equal in a fresh interpreter (no memory addresses, e.g. of the
  chunk worker function, may enter it);
* change with everything that changes a result: seed, trial count,
  chunk layout and any payload field;
* not change with anything that only changes how the units run:
  ``n_workers``, the retry policy and the fault plan.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.montecarlo.engine as engine
import repro.resilience.supervise as supervise
from repro.growth.types import CNTTypeModel
from repro.montecarlo.chip_sim import ChipMonteCarlo, _simulate_chip_chunk
from repro.resilience import Execution, FaultPlan, RetryPolicy, fingerprint_parts

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Builds the test's chip campaign; shared with the fresh interpreter.
CHIP_SETUP = """
from repro.cells.nangate45 import build_nangate45_library
from repro.montecarlo.chip_sim import ChipMonteCarlo
from repro.netlist.design import Design
from repro.netlist.placement import RowPlacement

design = Design("block", build_nangate45_library())
for i in range(40):
    design.add(f"u{i}", "INV_X1" if i % 2 == 0 else "NAND2_X1")
chip = ChipMonteCarlo(RowPlacement(design, row_width_nm=10_000.0))
"""


@pytest.fixture(scope="module")
def chip():
    namespace = {}
    exec(CHIP_SETUP, namespace)  # noqa: S102 - the fixed setup above
    return namespace["chip"]


def _run_in_fresh_interpreter(code):
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    return done.stdout.strip()


def _manifest_fingerprint(directory):
    manifest = Path(directory) / "chip-naive" / "manifest.json"
    return json.loads(manifest.read_text())["fingerprint"]


def _fingerprint(chip, directory, n_trials=24, seed=42, **execution):
    """Run the chip campaign with a checkpoint; return its fingerprint."""
    chip.run(
        n_trials, np.random.default_rng(seed),
        execution=Execution(checkpoint_dir=directory, **execution),
    )
    return _manifest_fingerprint(directory)


class TestStableAcrossInterpreters:
    def test_worker_function_fingerprint(self):
        fresh = _run_in_fresh_interpreter(
            "from repro.montecarlo.chip_sim import _simulate_chip_chunk\n"
            "from repro.resilience import fingerprint_parts\n"
            "print(fingerprint_parts(_simulate_chip_chunk))"
        )
        assert fresh == fingerprint_parts(_simulate_chip_chunk)

    def test_chip_campaign_fingerprint(self, chip, tmp_path):
        fresh = _run_in_fresh_interpreter(
            CHIP_SETUP
            + "import numpy as np\n"
            + "from repro.resilience import Execution\n"
            + f"chip.run(24, np.random.default_rng(42), execution=Execution("
            + f"checkpoint_dir={str(tmp_path / 'fresh')!r}))\n"
        )
        assert fresh == ""
        assert _manifest_fingerprint(tmp_path / "fresh") == _fingerprint(
            chip, tmp_path / "here"
        )


class TestDerivedIdentity:
    def test_result_inputs_change_the_fingerprint(
        self, chip, tmp_path, monkeypatch
    ):
        base = _fingerprint(chip, tmp_path / "base")
        assert _fingerprint(chip, tmp_path / "again") == base
        changed = {
            "seed": _fingerprint(chip, tmp_path / "seed", seed=43),
            "n_trials": _fingerprint(chip, tmp_path / "trials", n_trials=25),
            "payload": _fingerprint(
                ChipMonteCarlo(
                    chip.placement,
                    type_model=CNTTypeModel(1.0 / 3.0, 1.0, 0.2),
                ),
                tmp_path / "payload",
            ),
        }
        # 24 trials take 12 chunks of 2 by default; a one-element budget
        # splits them into 24 chunks of 1.
        monkeypatch.setattr(engine, "DEFAULT_BATCH_ELEMENTS", 1)
        changed["layout"] = _fingerprint(chip, tmp_path / "layout")
        assert all(value != base for value in changed.values()), changed
        assert len(set(changed.values())) == len(changed)

    def test_execution_settings_do_not_change_the_fingerprint(
        self, chip, tmp_path
    ):
        base = _fingerprint(chip, tmp_path / "base")
        assert _fingerprint(chip, tmp_path / "pool", n_workers=2) == base
        assert _fingerprint(
            chip, tmp_path / "policy",
            policy=RetryPolicy(max_retries=5, backoff_s=0.0),
        ) == base
        assert _fingerprint(
            chip, tmp_path / "faults", faults=FaultPlan(seed=9, delay_s=0.0)
        ) == base

    def test_no_fingerprint_without_a_checkpoint(self, chip, monkeypatch):
        def forbidden(*parts):
            raise AssertionError("fingerprinted a campaign with no checkpoint")

        monkeypatch.setattr(supervise, "fingerprint_parts", forbidden)
        plain = chip.run(24, np.random.default_rng(42))
        assert plain.n_trials == 24


class TestExecutionValue:
    def test_holds_exactly_the_five_execution_settings(self):
        assert [f.name for f in dataclasses.fields(Execution)] == [
            "n_workers", "checkpoint_dir", "resume", "policy", "faults",
        ]

    def test_rejects_fewer_than_one_worker(self):
        with pytest.raises(ValueError, match="n_workers"):
            Execution(n_workers=0)

    def test_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Execution().n_workers = 2
