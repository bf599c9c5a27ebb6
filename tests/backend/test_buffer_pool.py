"""The chunk buffer pool: reuse without aliasing, per thread, released per campaign.

Inside a :func:`repro.backend.buffer_pool` scope the backend's large
outputs land in reused slabs.  These tests pin the contract the engine
relies on: pooled chunks are bitwise equal to unpooled ones, an array
kept past its chunk is never overwritten, threads never share slabs,
steady-state chunks allocate nothing new, and ``run_chunked`` leaves the
pool empty.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro.backend.core as core
from repro.backend import buffer_pool, default_backend, release_buffers
from repro.growth.pitch import ExponentialPitch
from repro.growth.types import CNTTypeModel
from repro.montecarlo.chip_sim import ChipMonteCarlo, _simulate_chip_chunk
from repro.montecarlo.engine import chunk_sizes, run_chunked, sample_track_batch
from repro.netlist.openrisc import build_openrisc_like_design
from repro.netlist.placement import RowPlacement
from repro.resilience.supervise import seed_sequences_for

N_TRIALS = 24
CHUNK = 5


@pytest.fixture(scope="module")
def chip(nangate45):
    design = build_openrisc_like_design(nangate45, scale=0.02, seed=2010)
    return ChipMonteCarlo(
        RowPlacement(design, row_width_nm=40_000.0),
        pitch=ExponentialPitch(4.0),
        type_model=CNTTypeModel(1.0 / 3.0, 1.0, 0.3),
    )


@pytest.fixture(autouse=True)
def empty_pool():
    release_buffers()
    yield
    release_buffers()


def _chunk_streams(seed: int, n_chunks: int):
    seeds, bit_generator = seed_sequences_for(np.random.default_rng(seed), n_chunks)
    bitgen_cls = getattr(np.random, bit_generator)
    return [np.random.Generator(bitgen_cls(s)) for s in seeds]


def _positions_chunk(pitch, n_chunk, rng):
    # Returns the pooled positions array itself, so each result keeps a
    # slab alive while later chunks run.
    return sample_track_batch(pitch, 1400.0, 40 * n_chunk, rng).positions


#: Per chunk: (trials, [(id, size) of every slab]).  Identities, not the
#: slabs, so the log itself keeps no slab alive.
_SLAB_LOG = []


def _log_slabs(n_chunk):
    _SLAB_LOG.append((n_chunk, [(id(s), s.size) for s in core._POOL.slabs]))


def _logging_chip_chunk(geometry, n_chunk, rng):
    result = _simulate_chip_chunk(geometry, n_chunk, rng)
    _log_slabs(n_chunk)
    return result


def _fixed_shape_chunk(width, n_chunk, rng):
    # Every backend op the pool serves, on shapes fixed by ``n_chunk``.
    backend = default_backend()
    u = backend.uniform(rng, (n_chunk, width))
    both = backend.concatenate([backend.prefix_sum(u), u], axis=0)
    total = float(backend.prefix_sum(np.ravel(both))[-1])
    gaps = backend.sample_gaps(ExponentialPitch(4.0), (n_chunk, width), rng,
                               out=backend.empty((n_chunk, width)))
    _log_slabs(n_chunk)
    return np.array([total, float(gaps.sum())])


def test_pool_serves_chunk_sized_outputs_only_inside_a_scope():
    backend = default_backend()
    a = np.random.default_rng(0).random((64, 256))
    outside = backend.prefix_sum(a)
    assert core._POOL.slabs == []
    with buffer_pool():
        inside = backend.prefix_sum(a)
        small = backend.prefix_sum(a[:2, :8])
    assert inside.base is core._POOL.slabs[0]
    assert small.base is None
    assert np.array_equal(inside, outside)


def test_scoped_chunks_equal_unscoped_chunks_bitwise(chip):
    geometry = chip.chip_geometry()
    sizes = chunk_sizes(N_TRIALS, CHUNK)
    direct = [
        _simulate_chip_chunk(geometry, n, rng)
        for n, rng in zip(sizes, _chunk_streams(3, len(sizes)))
    ]
    assert core._POOL.slabs == []  # the direct calls ran outside any scope
    pooled = run_chunked(
        _simulate_chip_chunk, geometry, N_TRIALS, np.random.default_rng(3),
        trial_chunk=CHUNK,
    )
    assert len(pooled) == len(direct)
    for got, want in zip(pooled, direct):
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_array_kept_from_a_chunk_survives_later_chunks():
    pitch = ExponentialPitch(4.0)
    sizes = chunk_sizes(N_TRIALS, CHUNK)
    expected = [
        _positions_chunk(pitch, n, rng)
        for n, rng in zip(sizes, _chunk_streams(11, len(sizes)))
    ]
    kept = run_chunked(
        _positions_chunk, pitch, N_TRIALS, np.random.default_rng(11),
        trial_chunk=CHUNK,
    )
    for got, want in zip(kept, expected):
        assert np.array_equal(got, want)
    # The same within one thread's scopes, without the executor.
    backend = default_backend()
    with buffer_pool():
        first = backend.prefix_sum(np.random.default_rng(1).random((64, 256)))
    snapshot = first.copy()
    for seed in range(2, 5):
        with buffer_pool():
            later = backend.prefix_sum(np.random.default_rng(seed).random((64, 256)))
        assert not np.shares_memory(first, later)
    assert np.array_equal(first, snapshot)


def test_steady_state_chunks_allocate_no_new_slab():
    _SLAB_LOG.clear()
    pooled = run_chunked(
        _fixed_shape_chunk, 2048, N_TRIALS, np.random.default_rng(5),
        trial_chunk=CHUNK,
    )
    full = [slabs for n, slabs in _SLAB_LOG if n == CHUNK]
    assert len(full) == N_TRIALS // CHUNK
    assert full[0]
    assert all(slabs == full[0] for slabs in full[1:])
    sizes = chunk_sizes(N_TRIALS, CHUNK)
    direct = [
        _fixed_shape_chunk(2048, n, rng)
        for n, rng in zip(sizes, _chunk_streams(5, len(sizes)))
    ]
    assert np.array_equal(np.stack(pooled), np.stack(direct))


def test_chip_kernel_keeps_only_its_live_set(chip):
    # Top-up rounds vary the batch width between chunks, so a wider chunk
    # may need new slabs, but between chunks the pool holds no more than
    # the kernel's peak of simultaneously live outputs.
    geometry = chip.chip_geometry()
    for rng in _chunk_streams(5, 12):
        with buffer_pool():
            _simulate_chip_chunk(geometry, CHUNK, rng)
        assert 1 <= len(core._POOL.slabs) <= 3


def test_pool_is_empty_once_run_chunked_returns(chip):
    _SLAB_LOG.clear()
    run_chunked(
        _logging_chip_chunk, chip.chip_geometry(), N_TRIALS,
        np.random.default_rng(5), trial_chunk=CHUNK,
    )
    assert all(slabs for _, slabs in _SLAB_LOG)
    assert core._POOL.slabs == []


def test_slabs_are_per_thread():
    backend = default_backend()
    a = np.random.default_rng(0).random((64, 256))
    with buffer_pool():
        mine = backend.prefix_sum(a)
    seen = {}

    def other():
        seen["before"] = list(core._POOL.slabs)
        with buffer_pool():
            seen["theirs"] = backend.prefix_sum(a)
        release_buffers()

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert seen["before"] == []
    assert not np.shares_memory(mine, seen["theirs"])
    assert mine.base is core._POOL.slabs[0]


def test_concurrent_threads_match_serial_runs(chip):
    # More threads than cores on the shared default backend, switching
    # often: a slab shared across threads would corrupt some run.
    seeds = (21, 22, 23, 24)
    serial = [chip.run(N_TRIALS, np.random.default_rng(s)) for s in seeds]
    results = {}
    barrier = threading.Barrier(len(seeds))

    def worker(seed):
        barrier.wait(timeout=30)
        results[seed] = [
            chip.run(N_TRIALS, np.random.default_rng(seed))
            for _ in range(3)
        ]

    threads = [threading.Thread(target=worker, args=(s,)) for s in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for seed, want in zip(seeds, serial):
        assert results[seed] == [want] * 3
