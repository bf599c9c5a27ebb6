"""Bitwise resume-equals-uninterrupted tests for every campaign type.

Each test runs a campaign to completion without checkpointing, then
re-runs it with a deterministic mid-campaign kill (targeted fault with a
zero retry budget), and finally resumes from the checkpoint — asserting
the resumed result is bitwise identical to the uninterrupted one.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.mispositioned import MisalignmentImpactModel
from repro.backend import NumpyBackend, default_backend
from repro.cells.nangate45 import build_nangate45_library
from repro.growth.pitch import pitch_distribution_from_cv
from repro.growth.types import CNTTypeModel
from repro.growth.wafer import WaferGrowthModel
from repro.montecarlo.chip_sim import ChipMonteCarlo, _TiltedChipPayload
from repro.montecarlo.wafer_sim import (
    _ChipWaferPayload,
    _WaferPayload,
    run_chip_wafer,
    simulate_wafer,
)
from repro.netlist.design import Design
from repro.netlist.placement import RowPlacement
from repro.resilience import (
    CheckpointError,
    Execution,
    FaultPlan,
    NumericalGuardError,
    RetryPolicy,
    SupervisorError,
    corrupt_file,
    fingerprint_parts,
)
from repro.surface.builder import SurfaceBuilder, SweepSpec
from repro.surface.grid import GridAxis


@pytest.fixture(scope="module")
def chip():
    library = build_nangate45_library()
    design = Design("block", library)
    for i in range(60):
        design.add(f"u{i}", "INV_X1" if i % 2 == 0 else "NAND2_X1")
    placement = RowPlacement(design, row_width_nm=10_000.0)
    return ChipMonteCarlo(placement)


@pytest.fixture(scope="module")
def wafer():
    model = WaferGrowthModel(wafer_diameter_mm=100.0, die_size_mm=25.0)
    return model.generate(np.random.default_rng(5), seed_key=(5,))


@pytest.fixture(scope="module")
def pitch():
    return pitch_distribution_from_cv(4.0, 1.0)


@pytest.fixture(scope="module")
def type_model():
    return CNTTypeModel(
        metallic_fraction=1.0 / 3.0,
        removal_prob_metallic=1.0,
        removal_prob_semiconducting=0.30,
    )


def _chip_fields(result):
    return dataclasses.asdict(result)


class TestChipResume:
    N_TRIALS = 96  # sixteen units per campaign

    def _run(self, chip, **kwargs):
        rng = np.random.default_rng(42)
        return chip.run(self.N_TRIALS, rng, execution=Execution(**kwargs))

    def test_checkpointed_run_matches_plain(self, chip, tmp_path):
        plain = self._run(chip)
        checkpointed = self._run(chip, checkpoint_dir=str(tmp_path))
        assert _chip_fields(checkpointed) == _chip_fields(plain)

    def test_kill_then_resume_is_bitwise_identical(self, chip, tmp_path):
        plain = self._run(chip)
        with pytest.raises(SupervisorError):
            self._run(
                chip,
                checkpoint_dir=str(tmp_path),
                policy=RetryPolicy(max_retries=0, backoff_s=0.0),
                faults=FaultPlan(kill_units=(3,), kill_attempts=1),
            )
        resumed = self._run(chip, checkpoint_dir=str(tmp_path), resume=True)
        assert _chip_fields(resumed) == _chip_fields(plain)

    def test_corrupt_unit_recomputed_bitwise(self, chip, tmp_path):
        plain = self._run(chip)
        self._run(chip, checkpoint_dir=str(tmp_path))
        units = sorted((tmp_path / "chip-naive" / "units").glob("*.npz"))
        assert units
        corrupt_file(units[2], seed=11)
        resumed = self._run(chip, checkpoint_dir=str(tmp_path))
        assert _chip_fields(resumed) == _chip_fields(plain)
        assert list((tmp_path / "chip-naive" / "quarantine").glob("*.npz"))

    def test_different_campaign_fingerprint_rejected(self, chip, tmp_path):
        self._run(chip, checkpoint_dir=str(tmp_path))
        rng = np.random.default_rng(43)  # different seed, same directory
        with pytest.raises(CheckpointError, match="fingerprint"):
            chip.run(
                self.N_TRIALS,
                rng,
                execution=Execution(checkpoint_dir=str(tmp_path)),
            )

    def test_nan_injection_trips_numerical_guard(self, chip, tmp_path):
        with pytest.raises(NumericalGuardError) as err:
            self._run(
                chip,
                checkpoint_dir=str(tmp_path),
                faults=FaultPlan(nan_units=(1,)),
            )
        assert err.value.kind == "nan"


class TestWaferResume:
    def _run(self, wafer, pitch, type_model, **kwargs):
        return simulate_wafer(
            wafer,
            pitch,
            type_model,
            widths_nm=[200.0],
            device_counts=[1.0e6],
            n_trials=64,
            seed_key=(5,),
            execution=Execution(**kwargs),
        )

    def test_kill_then_resume_is_bitwise_identical(
        self, wafer, pitch, type_model, tmp_path
    ):
        plain = self._run(wafer, pitch, type_model)
        with pytest.raises(SupervisorError):
            self._run(
                wafer,
                pitch,
                type_model,
                checkpoint_dir=str(tmp_path),
                policy=RetryPolicy(max_retries=0, backoff_s=0.0),
                faults=FaultPlan(kill_units=(1,), kill_attempts=1),
            )
        resumed = self._run(
            wafer, pitch, type_model, checkpoint_dir=str(tmp_path)
        )
        assert resumed.dice == plain.dice

    def test_checkpointed_matches_plain(
        self, wafer, pitch, type_model, tmp_path
    ):
        plain = self._run(wafer, pitch, type_model)
        checkpointed = self._run(
            wafer, pitch, type_model, checkpoint_dir=str(tmp_path)
        )
        assert checkpointed.dice == plain.dice


class TestChipWaferResume:
    def _run(self, wafer, chip, **kwargs):
        return run_chip_wafer(
            wafer, chip, n_trials=16, seed_key=(5,),
            execution=Execution(**kwargs),
        )

    def test_kill_then_resume_is_bitwise_identical(
        self, wafer, chip, tmp_path
    ):
        plain = self._run(wafer, chip)
        with pytest.raises(SupervisorError):
            self._run(
                wafer,
                chip,
                checkpoint_dir=str(tmp_path),
                policy=RetryPolicy(max_retries=0, backoff_s=0.0),
                faults=FaultPlan(kill_units=(2,), kill_attempts=1),
            )
        resumed = self._run(wafer, chip, checkpoint_dir=str(tmp_path))
        assert resumed.dice == plain.dice


class TestSweepResume:
    SPEC = dict(
        scenario="uncorrelated",
        max_refinement_rounds=1,
    )

    def _spec(self):
        return SweepSpec(
            width_axis=GridAxis.from_range("width_nm", 200.0, 400.0, 4),
            density_axis=GridAxis.from_range(
                "cnt_density_per_um", 0.15, 0.35, 4
            ),
            **self.SPEC,
        )

    def test_resume_replays_without_evaluations(self, tmp_path):
        plain = SurfaceBuilder(self._spec()).build_report()
        first = SurfaceBuilder(
            self._spec(), Execution(checkpoint_dir=str(tmp_path))
        ).build_report()
        resumed = SurfaceBuilder(
            self._spec(), Execution(checkpoint_dir=str(tmp_path))
        ).build_report()
        assert first.surface.content_hash == plain.surface.content_hash
        assert resumed.surface.content_hash == plain.surface.content_hash
        assert resumed.evaluations == 0

    def test_corrupt_snapshot_quarantined_and_rebuilt(self, tmp_path):
        plain = SurfaceBuilder(self._spec()).build_report()
        SurfaceBuilder(
            self._spec(), Execution(checkpoint_dir=str(tmp_path))
        ).build_report()
        campaign_dir = tmp_path / "sweep-uncorrelated"
        units = sorted((campaign_dir / "units").glob("*.npz"))
        assert units
        corrupt_file(units[-1], seed=3)
        rebuilt = SurfaceBuilder(
            self._spec(), Execution(checkpoint_dir=str(tmp_path))
        ).build_report()
        assert rebuilt.surface.content_hash == plain.surface.content_hash
        assert list((campaign_dir / "quarantine").glob("*.npz"))

    def test_resume_false_recomputes(self, tmp_path):
        first = SurfaceBuilder(
            self._spec(), Execution(checkpoint_dir=str(tmp_path))
        ).build_report()
        fresh = SurfaceBuilder(
            self._spec(),
            Execution(checkpoint_dir=str(tmp_path), resume=False),
        ).build_report()
        assert fresh.evaluations == first.evaluations > 0


class TestBackendFingerprint:
    """Campaign fingerprints carry the resolved backend's signature.

    A run that leaves ``backend=None``, or names the shared backend,
    resumes the units it wrote, bit for bit; a run on a backend of
    another name must not resume them.
    """

    def _chip(self, chip, tmp_path, **kwargs):
        return chip.run(
            32, np.random.default_rng(42),
            execution=Execution(checkpoint_dir=str(tmp_path), **kwargs),
        )

    def _wafer(self, wafer, pitch, type_model, tmp_path, backend=None, **kwargs):
        return simulate_wafer(
            wafer, pitch, type_model, widths_nm=[200.0],
            device_counts=[1.0e6], n_trials=32, seed_key=(5,),
            backend=backend,
            execution=Execution(checkpoint_dir=str(tmp_path), **kwargs),
        )

    def _chip_wafer(self, wafer, chip, tmp_path, **kwargs):
        return run_chip_wafer(
            wafer, chip, n_trials=8, seed_key=(5,),
            execution=Execution(checkpoint_dir=str(tmp_path), **kwargs),
        )

    # Each campaign is written on the named shared backend, so the resume
    # attempt differs from it in the backend alone.

    def test_chip_renamed_backend_cannot_resume_numpy(self, chip, tmp_path):
        named = ChipMonteCarlo(chip.placement, backend=default_backend())
        self._chip(named, tmp_path)
        renamed = ChipMonteCarlo(chip.placement, backend=_RenamedBackend())
        with pytest.raises(CheckpointError, match="fingerprint"):
            self._chip(renamed, tmp_path)

    def test_wafer_renamed_backend_cannot_resume_numpy(
        self, wafer, pitch, type_model, tmp_path
    ):
        self._wafer(wafer, pitch, type_model, tmp_path, backend=default_backend())
        with pytest.raises(CheckpointError, match="fingerprint"):
            self._wafer(
                wafer, pitch, type_model, tmp_path, backend=_RenamedBackend()
            )

    def test_chip_wafer_renamed_backend_cannot_resume_numpy(
        self, wafer, chip, tmp_path
    ):
        named = ChipMonteCarlo(chip.placement, backend=default_backend())
        self._chip_wafer(wafer, named, tmp_path)
        renamed = ChipMonteCarlo(chip.placement, backend=_RenamedBackend())
        with pytest.raises(CheckpointError, match="fingerprint"):
            self._chip_wafer(wafer, renamed, tmp_path)

    @pytest.mark.parametrize("explicit", [False, True], ids=["default", "named"])
    def test_same_backend_resume_is_bitwise_identical(
        self, chip, wafer, pitch, type_model, tmp_path, explicit
    ):
        backend = default_backend() if explicit else None
        chip = ChipMonteCarlo(chip.placement, backend=backend)
        kill = dict(
            policy=RetryPolicy(max_retries=0, backoff_s=0.0),
            faults=FaultPlan(kill_units=(1,), kill_attempts=1),
        )
        chip_plain = chip.run(32, np.random.default_rng(42))
        with pytest.raises(SupervisorError):
            self._chip(chip, tmp_path / "chip", **kill)
        resumed = self._chip(chip, tmp_path / "chip")
        assert _chip_fields(resumed) == _chip_fields(chip_plain)

        wafer_plain = self._wafer(
            wafer, pitch, type_model, tmp_path / "plain", backend=backend
        )
        with pytest.raises(SupervisorError):
            self._wafer(
                wafer, pitch, type_model, tmp_path / "wafer", backend=backend,
                **kill,
            )
        resumed = self._wafer(
            wafer, pitch, type_model, tmp_path / "wafer", backend=backend
        )
        assert resumed.dice == wafer_plain.dice


class TestFingerprintDrift:
    """Resume exactly when the payload is equal.

    The chip-wafer and tilted chip campaigns once hand-listed their
    fingerprint fields and missed one, so a changed run silently resumed
    the old units; the wafer campaign fingerprinted its de-rating model
    by ``repr``, which embeds the object's address, so an equal model in
    a new process could not resume.
    """

    def test_chip_wafer_row_height_change_refuses_resume(self, chip, tmp_path):
        # The two campaigns differ in their payload's row height.  Their
        # dice need not differ (windows inside both spans read the same
        # prefix of the slot-major draw, which no tube uniform follows),
        # so the refusal must follow from the fingerprint alone.
        wafer = WaferGrowthModel(
            wafer_diameter_mm=100.0, die_size_mm=25.0, center_pitch_nm=40.0
        ).generate(np.random.default_rng(5), seed_key=(5,))
        taller = ChipMonteCarlo(
            chip.placement, row_height_nm=1.5 * chip.row_height_nm
        )

        def run(simulator, **kwargs):
            return run_chip_wafer(
                wafer, simulator, n_trials=8, seed_key=(5,),
                execution=Execution(**kwargs),
            )

        assert (
            taller.chip_geometry().row_height_nm
            > chip.chip_geometry().row_height_nm
        )
        run(chip, checkpoint_dir=str(tmp_path))
        with pytest.raises(CheckpointError, match="fingerprint"):
            run(taller, checkpoint_dir=str(tmp_path))

    def test_equal_misalignment_model_resumes(
        self, wafer, pitch, type_model, tmp_path
    ):
        # A resumed process builds its own (equal) de-rating model; the
        # fingerprint must not depend on the object's identity.
        def run(**kwargs):
            return simulate_wafer(
                wafer, pitch, type_model, widths_nm=[200.0],
                device_counts=[1.0e6], n_trials=32, seed_key=(5,),
                misalignment=MisalignmentImpactModel(),
                execution=Execution(**kwargs),
            )

        plain = run()
        with pytest.raises(SupervisorError):
            run(
                checkpoint_dir=str(tmp_path),
                policy=RetryPolicy(max_retries=0, backoff_s=0.0),
                faults=FaultPlan(kill_units=(1,), kill_attempts=1),
            )
        assert run(checkpoint_dir=str(tmp_path)).dice == plain.dice

    def test_tilted_chip_tilt_factor_change_refuses_resume(
        self, chip, tmp_path
    ):
        def run(tilt_factor):
            return chip.run(
                32, np.random.default_rng(42),
                sampler="tilted", tilt_factor=tilt_factor,
                execution=Execution(checkpoint_dir=str(tmp_path)),
            )

        run(1.5)
        with pytest.raises(CheckpointError, match="fingerprint"):
            run(2.5)


class _RenamedBackend(NumpyBackend):
    """A valid backend that differs from the default by name only."""

    name = "renamed"


#: Replacement values for fields a generic change cannot produce: ``None``
#: defaults and strings restricted to a fixed vocabulary.
_ALTERNATES = {
    "backend": _RenamedBackend(),
    "misalignment": MisalignmentImpactModel(),
    "scenario": "uncorrelated",
    "method": "closed_form",
}


def _changed(name, value):
    """A valid value of field ``name`` that differs from ``value``."""
    if name in _ALTERNATES:
        return _ALTERNATES[name]
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2.0 if value else 0.5
    if isinstance(value, np.ndarray):
        return value + 1
    if isinstance(value, tuple):
        return tuple(_changed(None, item) for item in value)
    if isinstance(value, str):
        return value + "-changed"
    if dataclasses.is_dataclass(value):
        first = dataclasses.fields(value)[0]
        return dataclasses.replace(
            value, **{first.name: _changed(first.name, getattr(value, first.name))}
        )
    raise TypeError(f"no change rule for {name}={value!r}")


def _chip_geometry(chip):
    return chip.chip_geometry()


def _tilted_payload(chip):
    return _TiltedChipPayload(
        geometry=chip.chip_geometry(), tilt=chip.pitch.exponential_tilt(1.5)
    )


def _wafer_payload(chip):
    return _WaferPayload(
        pitch=chip.pitch,
        per_cnt_failure=0.5,
        widths_nm=(100.0, 200.0),
        device_counts=(10.0, 20.0),
        n_trials=64,
        seed_key=(5,),
    )


def _chip_wafer_payload(chip):
    geometry = chip.chip_geometry()
    return _ChipWaferPayload(
        geometry=geometry,
        pitch=chip.pitch,
        class_matrix=np.eye(len(geometry.window_lo), 2),
        class_counts=np.array([3.0, 4.0]),
        widths_nm=(100.0, 200.0),
        n_trials=16,
        seed_key=(5,),
        misalignment=None,
    )


def _sweep_spec(chip):
    return SweepSpec()


class TestDerivedFingerprints:
    """Every payload field enters the campaign fingerprint."""

    @pytest.mark.parametrize(
        "build",
        [_chip_geometry, _tilted_payload, _wafer_payload,
         _chip_wafer_payload, _sweep_spec],
        ids=["chip-geometry", "tilted-chip", "wafer", "chip-wafer", "sweep"],
    )
    def test_every_field_changes_the_fingerprint(self, chip, build):
        payload = build(chip)
        base = fingerprint_parts(payload)
        assert fingerprint_parts(build(chip)) == base
        missed = [
            field.name
            for field in dataclasses.fields(payload)
            if fingerprint_parts(dataclasses.replace(
                payload,
                **{field.name: _changed(
                    field.name, getattr(payload, field.name)
                )},
            )) == base
        ]
        assert missed == []
