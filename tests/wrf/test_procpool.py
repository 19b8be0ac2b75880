"""Shared-memory lifecycle of the multiprocess rank pool.

Failure containment is the contract under test: a worker crash or a
driven-after-close pool must raise :class:`~repro.errors.ProcPoolError`
*after* tearing everything down — workers dead, every shared segment
unlinked — and a driver that dies between create and unlink must still
be covered by the atexit reaper. ``REPRO_DISABLE_PROCPOOL`` must drop
the model back onto the thread path.
"""

from __future__ import annotations

from multiprocessing.shared_memory import SharedMemory

import pytest

from repro.errors import ProcPoolError
from repro.grid.decomposition import decompose_domain
from repro.wrf import procpool
from repro.wrf.model import WrfModel
from repro.wrf.namelist import conus12km_namelist


def _namelist(num_ranks: int = 2):
    return conus12km_namelist(
        scale=0.05, num_ranks=num_ranks, use_process_ranks=True
    )


def _pool(num_ranks: int = 2, timeout: float = 30.0):
    nl = _namelist(num_ranks)
    decomp = decompose_domain(nl.domain, nl.num_ranks)
    return procpool.ProcRankPool(nl, decomp, timeout=timeout)


def _segments_gone(names):
    for name in names:
        with pytest.raises(FileNotFoundError):
            SharedMemory(name=name)


class TestPoolLifecycle:
    def test_close_unlinks_segments(self):
        pool = _pool()
        names = list(pool.blocks.names)
        assert names
        assert set(names) <= set(procpool.leaked_segments())
        pool.step()
        pool.close()
        assert not (set(names) & set(procpool.leaked_segments()))
        _segments_gone(names)

    def test_double_close_and_double_unlink_are_noops(self):
        pool = _pool()
        pool.close()
        pool.close()
        pool.blocks.unlink()
        pool.blocks.unlink()

    def test_step_after_close_raises(self):
        pool = _pool()
        pool.close()
        with pytest.raises(ProcPoolError, match="closed"):
            pool.step()

    def test_worker_crash_mid_step_raises_and_tears_down(self):
        pool = _pool(timeout=15.0)
        names = list(pool.blocks.names)
        pool.crash(0)
        with pytest.raises(ProcPoolError):
            pool.step()
        # The failure tore the whole pool down: every worker dead,
        # every segment unlinked, nothing left for the reaper.
        for proc in pool._procs:
            assert not proc.is_alive()
        assert not (set(names) & set(procpool.leaked_segments()))
        _segments_gone(names)
        pool.close()  # still a no-op afterwards


class TestLeakProtection:
    def test_leaked_segments_are_tracked_and_reaped(self):
        nl = _namelist()
        decomp = decompose_domain(nl.domain, nl.num_ranks)
        blocks = procpool.SharedSuperblocks(decomp, nscalars=4)
        names = list(blocks.names)
        try:
            assert set(names) <= set(procpool.leaked_segments())
            # Simulate a driver that died before unlink: the atexit
            # reaper (invoked directly here) must destroy the segments.
            procpool._reap_leaked()
            assert not (set(names) & set(procpool.leaked_segments()))
            _segments_gone(names)
        finally:
            blocks.unlink()  # after the reap this must stay a no-op

    def test_segment_cache_footprint_registered(self):
        pool = _pool()
        try:
            from repro.core.cache import cache_stats

            info = cache_stats()[procpool.SEGMENT_CACHE]
            assert info.currsize == 2
            assert info.nbytes > 0
        finally:
            pool.close()
        from repro.core.cache import cache_stats

        assert cache_stats()[procpool.SEGMENT_CACHE].currsize == 0


class TestKillSwitch:
    def test_disable_env_falls_back_to_threads(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_PROCPOOL", "1")
        assert procpool.procpool_disabled() is not None
        model = WrfModel(_namelist())
        try:
            assert model._pool is None
            assert model._executor is not None
            model.step()
        finally:
            model.close()

    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISABLE_PROCPOOL", raising=False)
        assert procpool.procpool_disabled() is None


class TestStartAfterOpenMP:
    """Workers forked after the stencil's OpenMP parallel region ran in
    this process would hang in their own first parallel region; the
    pool spawns them instead once that region has run."""

    def test_process_ranks_step_after_an_in_process_step(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCPOOL_TIMEOUT", "15")
        monkeypatch.delenv("REPRO_PROCPOOL_START", raising=False)
        serial = WrfModel(conus12km_namelist(scale=0.05, num_ranks=1))
        try:
            serial.step()
        finally:
            serial.close()
        model = WrfModel(_namelist())
        try:
            assert model._pool is not None
            model.step()
        finally:
            model.close()

    def test_start_method_follows_the_parallel_region(self, monkeypatch):
        from repro.wrf import cstencil

        monkeypatch.delenv("REPRO_PROCPOOL_START", raising=False)
        monkeypatch.setattr(cstencil, "parallel_region_started", False)
        assert procpool._start_method() == "fork"
        monkeypatch.setattr(cstencil, "parallel_region_started", True)
        assert procpool._start_method() == "spawn"
        monkeypatch.setenv("REPRO_PROCPOOL_START", "fork")
        assert procpool._start_method() == "fork"
