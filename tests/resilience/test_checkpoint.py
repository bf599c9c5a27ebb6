"""Tests for the content-hashed campaign checkpoint store."""

import json

import numpy as np
import pytest

from repro.analysis.mispositioned import MisalignmentImpactModel
from repro.backend import backend_signature
from repro.growth.pitch import DeterministicPitch, ExponentialPitch, GammaPitch
from repro.resilience import (
    CheckpointError,
    CheckpointStore,
    Execution,
    corrupt_file,
    fingerprint_parts,
)


@pytest.fixture
def store(tmp_path):
    return CheckpointStore(tmp_path / "ck")


def _campaign(store, fingerprint="fp", total=4, resume=True):
    return store.campaign("test", fingerprint, total, resume=resume)


class TestFingerprint:
    def test_stable_across_calls(self):
        parts = ("name", 3, 1.5, np.arange(4.0), {"k": (1, 2)})
        assert fingerprint_parts(*parts) == fingerprint_parts(*parts)

    def test_sensitive_to_array_contents(self):
        assert fingerprint_parts(np.arange(4.0)) != fingerprint_parts(
            np.arange(4.0) + 1e-12
        )

    def test_sensitive_to_scalar_parts(self):
        assert fingerprint_parts("a", 1) != fingerprint_parts("a", 2)

    def test_dataclass_encodes_type_and_every_field(self):
        assert fingerprint_parts(GammaPitch(4.0, 1.0)) == fingerprint_parts(
            GammaPitch(4.0, 1.0)
        )
        assert fingerprint_parts(GammaPitch(4.0, 1.0)) != fingerprint_parts(
            GammaPitch(4.0, 1.5)
        )
        # Same field values under a different type are a different campaign.
        assert fingerprint_parts(ExponentialPitch(4.0)) != fingerprint_parts(
            DeterministicPitch(4.0)
        )

    def test_plain_object_encodes_by_attributes(self):
        # The default repr embeds an address; two equal models built
        # separately (as in two processes) must still fingerprint alike.
        assert fingerprint_parts(MisalignmentImpactModel()) == (
            fingerprint_parts(MisalignmentImpactModel())
        )
        assert fingerprint_parts(MisalignmentImpactModel()) != (
            fingerprint_parts(MisalignmentImpactModel(band_width_nm=90.0))
        )


class TestExecutionCheckpoint:
    def test_no_directory_means_no_checkpoint(self):
        assert Execution().checkpoint("test", 4, "part") is None

    def test_fingerprint_covers_name_and_parts(self, tmp_path):
        opened = Execution(checkpoint_dir=tmp_path).checkpoint(
            "test", 4, "part", 1
        )
        assert opened.directory == tmp_path / "test"
        assert opened.fingerprint == fingerprint_parts(
            "test", backend_signature(None), "part", 1
        )
        with pytest.raises(CheckpointError, match="fingerprint"):
            Execution(checkpoint_dir=tmp_path).checkpoint("test", 4, "part", 2)


class TestCampaignCheckpoint:
    def test_unit_round_trip(self, store):
        campaign = _campaign(store)
        arrays = {"x": np.arange(5.0), "y": np.ones((2, 3))}
        meta = {"unit": 0, "note": "first"}
        campaign.save_unit(0, arrays=arrays, meta=meta)

        reopened = _campaign(store)
        loaded = reopened.verified_units()
        assert set(loaded) == {0}
        got_arrays, got_meta = loaded[0]
        np.testing.assert_array_equal(got_arrays["x"], arrays["x"])
        np.testing.assert_array_equal(got_arrays["y"], arrays["y"])
        assert got_meta == meta

    def test_load_unsaved_unit_returns_none(self, store):
        campaign = _campaign(store)
        assert campaign.load_unit(3) is None

    def test_corrupt_unit_is_quarantined_and_recomputable(self, store):
        campaign = _campaign(store)
        campaign.save_unit(0, arrays={"x": np.arange(8.0)})
        campaign.save_unit(1, arrays={"x": np.arange(8.0) * 2})
        unit_path = campaign.units_dir / "unit-00000.npz"
        corrupt_file(unit_path, seed=9)

        reopened = _campaign(store)
        loaded = reopened.verified_units()
        assert set(loaded) == {1}  # unit 0 dropped, not served corrupt
        assert reopened.quarantined, "corrupt unit should be quarantined"
        assert not unit_path.exists()

    def test_fingerprint_mismatch_raises(self, store):
        _campaign(store, fingerprint="fp-a").save_unit(
            0, arrays={"x": np.zeros(2)}
        )
        with pytest.raises(CheckpointError, match="fingerprint"):
            _campaign(store, fingerprint="fp-b")

    def test_resume_false_discards_prior_units(self, store):
        campaign = _campaign(store)
        campaign.save_unit(0, arrays={"x": np.zeros(2)})
        fresh = _campaign(store, resume=False)
        assert fresh.verified_units() == {}

    def test_resume_false_allows_new_fingerprint(self, store):
        _campaign(store, fingerprint="fp-a").save_unit(
            0, arrays={"x": np.zeros(2)}
        )
        fresh = _campaign(store, fingerprint="fp-b", resume=False)
        assert fresh.verified_units() == {}

    def test_corrupt_manifest_starts_empty(self, store):
        campaign = _campaign(store)
        campaign.save_unit(0, arrays={"x": np.zeros(2)})
        campaign.manifest_path.write_text("{ not json")
        reopened = _campaign(store)
        assert reopened.verified_units() == {}

    def test_unit_hash_recorded_in_manifest(self, store):
        campaign = _campaign(store)
        campaign.save_unit(2, arrays={"x": np.arange(3.0)})
        manifest = json.loads(campaign.manifest_path.read_text())
        (entry,) = manifest["units"].values()
        assert len(entry["sha256"]) == 64

    def test_meta_only_unit(self, store):
        campaign = _campaign(store)
        campaign.save_unit(0, meta={"rows": [[1.0, 2.0]]})
        _, meta = _campaign(store).verified_units()[0]
        assert meta == {"rows": [[1.0, 2.0]]}
