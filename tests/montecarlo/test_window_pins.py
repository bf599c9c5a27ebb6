"""SHA-256 pins of the chip window pass.

The chip, tilted and timing tiers count every device window of a chunk
with :func:`repro.montecarlo.engine.count_in_windows_flat`, and the
rare-event layer stops its weights at
:func:`~repro.montecarlo.engine.window_stop_indices`.  These digests fix
the exact float64 outputs of that pass — working and short counts, the
per-window sum of slot values, and the stop indices — so a rewrite of
the counting kernel has to reproduce them bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.growth.pitch import ExponentialPitch
from repro.growth.types import CNTTypeModel
from repro.montecarlo.chip_sim import (
    ChipMonteCarlo,
    _chip_window_counts_joint,
    _simulate_chip_chunk_tilted,
    _TiltedChipPayload,
)
from repro.montecarlo.engine import (
    count_in_windows_flat,
    sample_track_batch,
    window_stop_indices,
)
from repro.netlist.openrisc import build_openrisc_like_design
from repro.netlist.placement import RowPlacement

OPENS = CNTTypeModel(1.0 / 3.0, 1.0, 0.3)
SHORTS = CNTTypeModel(1.0 / 3.0, 0.9, 0.3)
N_CHUNK = 6


def _digest(*arrays) -> str:
    """SHA-256 over each array's dtype, shape and bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def placement(nangate45):
    design = build_openrisc_like_design(nangate45, scale=0.01, seed=2010)
    return RowPlacement(design, row_width_nm=40_000.0)


def _geometry(placement, type_model):
    return ChipMonteCarlo(
        placement, pitch=ExponentialPitch(4.0), type_model=type_model,
    ).chip_geometry()


def _slot_values(rng, tubes, backend):
    """A float per working tube standing in for the timing tier's currents."""
    values = np.zeros(tubes.shape)
    values[tubes] = rng.standard_normal(np.count_nonzero(tubes)) + 10.0
    return values


def _tilted_pass(geometry):
    """A tilted chunk's track batch and its flat window queries."""
    tilt = ExponentialPitch(4.0).exponential_tilt(3.0)
    batch = sample_track_batch(
        tilt.tilted, geometry.row_height_nm, N_CHUNK * geometry.n_rows,
        np.random.default_rng(23), offset_mean_nm=tilt.nominal.mean_nm,
    )
    n_windows = geometry.window_lo.size
    trial_index = (
        np.repeat(np.arange(N_CHUNK) * geometry.n_rows, n_windows)
        + np.tile(geometry.window_row, N_CHUNK)
    )
    lo = np.tile(geometry.window_lo, N_CHUNK)
    hi = np.tile(geometry.window_hi, N_CHUNK)
    return batch, lo, hi, trial_index


class TestChipWindowPins:
    DIGESTS = {
        "opens": "4bc128a33c1705e6a99f7247604b3fabdce6a670bd7ef02e5b0d894b3603a237",
        "shorts": "1c7b6f27d092753124ecfeea441f3bf4413308aebd6b0d0ab5a7faa49283f9d5",
        "summed": "0be2925149d9673415d08958512f329a031989837fdb9ca8074cc8c772938911",
        "tilted": "add620a7e569f8e038c14d312143641dcf5dcc85781258f246f16ef986a8cbef",
        "tilted_chunk": "1228b5b46d575790046ce70f5c2f6ebf4cef48d436fbdba2f0addd998cea254d",
        "stop_indices": "dc6ba1de237aee62d5a0702dc5d0925ceab5e6a17de81dc13a307a8ae2eb67e9",
    }

    def test_opens_working_counts(self, placement):
        working, shorts, summed = _chip_window_counts_joint(
            _geometry(placement, OPENS), N_CHUNK, np.random.default_rng(11)
        )
        assert shorts is None and summed is None
        assert _digest(working) == self.DIGESTS["opens"]

    def test_shorts_counts(self, placement):
        working, shorts, _ = _chip_window_counts_joint(
            _geometry(placement, SHORTS), N_CHUNK, np.random.default_rng(13)
        )
        assert shorts.any()
        assert _digest(working, shorts) == self.DIGESTS["shorts"]

    def test_summed_slot_values(self, placement):
        working, shorts, summed = _chip_window_counts_joint(
            _geometry(placement, SHORTS), N_CHUNK, np.random.default_rng(17),
            slot_values=_slot_values,
        )
        assert summed.dtype == np.float64
        assert _digest(working, shorts, summed) == self.DIGESTS["summed"]

    def test_tilted_counts_and_stop_index(self, placement):
        geometry = _geometry(placement, OPENS)
        batch, lo, hi, trial_index = _tilted_pass(geometry)
        counts, stop_index = count_in_windows_flat(
            batch.positions, np.asarray(batch.valid, dtype=np.float64),
            lo, hi, trial_index, return_stop_index=True,
        )
        assert _digest(counts, stop_index) == self.DIGESTS["tilted"]

    def test_tilted_chunk(self, placement):
        geometry = _geometry(placement, OPENS)
        tilt = ExponentialPitch(4.0).exponential_tilt(3.0)
        row_sums, device_sums = _simulate_chip_chunk_tilted(
            _TiltedChipPayload(geometry=geometry, tilt=tilt), N_CHUNK,
            np.random.default_rng(29),
        )
        assert _digest(row_sums, device_sums) == self.DIGESTS["tilted_chunk"]

    def test_window_stop_indices(self, placement):
        geometry = _geometry(placement, OPENS)
        batch, _, hi, trial_index = _tilted_pass(geometry)
        stop = window_stop_indices(batch.positions, hi, trial_index)
        assert _digest(stop) == self.DIGESTS["stop_indices"]
