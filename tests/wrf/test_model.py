"""End-to-end model runs: clocks, history, output assembly."""

import numpy as np
import pytest

from repro.core.clock import TimeBucket
from repro.optim.stages import Stage
from repro.wrf.model import WrfModel
from repro.wrf.namelist import conus12km_namelist


@pytest.fixture(scope="module")
def baseline_result():
    model = WrfModel(conus12km_namelist(scale=0.05, num_ranks=2))
    result = model.run(num_steps=3)
    return model, result


class TestRun:
    def test_elapsed_accumulates(self, baseline_result):
        _, result = baseline_result
        assert result.elapsed > 0
        assert result.steps_run == 3
        assert len(result.step_timings) == 3
        assert result.per_step_elapsed == pytest.approx(result.elapsed / 3)

    def test_projection_to_full_run_length(self, baseline_result):
        _, result = baseline_result
        full = result.projected_total()
        assert full == pytest.approx(result.per_step_elapsed * 120)

    def test_regions_populated(self, baseline_result):
        _, result = baseline_result
        for region in ("solve_em", "fast_sbm", "rk_scalar_tend", "rk_update_scalar"):
            assert result.region_seconds(region) > 0, region

    def test_every_rank_charged(self, baseline_result):
        _, result = baseline_result
        for clock in result.rank_clocks:
            assert clock.total > 0
            assert clock.bucket(TimeBucket.MPI) > 0

    def test_physics_evolves_state(self, baseline_result):
        model, _ = baseline_result
        out = model.gather_output()
        assert out["QCLOUD_TOTAL"].sum() > 0
        assert np.abs(out["W"]).max() > 0

    def test_gathered_output_shapes(self, baseline_result):
        model, _ = baseline_result
        out = model.gather_output()
        dom = model.namelist.domain
        assert out["T"].shape == (dom.nx, dom.nz, dom.ny)
        assert out["RAINNC"].shape == (dom.nx, dom.ny)
        assert (out["T"] > 0).all()  # every cell filled by some patch


class TestHistory:
    def test_history_written_at_interval(self):
        nl = conus12km_namelist(
            scale=0.05, num_ranks=2, history_interval=10.0
        )
        model = WrfModel(nl)
        model.run(num_steps=3)  # 15 simulated seconds -> one history due
        assert model.clocks[0].bucket(TimeBucket.IO) > 0

    def test_no_history_by_default(self, baseline_result):
        _, result = baseline_result
        assert result.rank_clocks[0].bucket(TimeBucket.IO) == 0.0


class TestGpuModel:
    def test_offloaded_run_uses_devices(self):
        from repro.core.env import PAPER_ENV

        nl = conus12km_namelist(
            scale=0.05,
            num_ranks=2,
            stage=Stage.OFFLOAD_COLLAPSE3,
            num_gpus=2,
            env=PAPER_ENV,
        )
        model = WrfModel(nl)
        try:
            result = model.run(num_steps=2)
            assert any(len(records) > 0 for records in result.kernel_records)
            assert result.scheduler.breakdown["gpu"] > 0
        finally:
            model.close()

    def test_shared_gpu_two_ranks_one_device(self):
        from repro.core.env import PAPER_ENV

        nl = conus12km_namelist(
            scale=0.05,
            num_ranks=2,
            stage=Stage.OFFLOAD_COLLAPSE3,
            num_gpus=1,
            env=PAPER_ENV,
        )
        model = WrfModel(nl)
        try:
            model.run(num_steps=1)
            assert len(model.gpu_pool.devices[0].contexts) == 2
        finally:
            model.close()


class TestDeterminism:
    def test_same_namelist_same_results(self):
        nl = conus12km_namelist(scale=0.05, num_ranks=2, seed=11)
        m1 = WrfModel(nl)
        m2 = WrfModel(nl)
        m1.run(num_steps=2)
        m2.run(num_steps=2)
        o1, o2 = m1.gather_output(), m2.gather_output()
        for name in o1:
            np.testing.assert_array_equal(o1[name], o2[name])


class TestSuperblockFields:
    """Persistent superblock residency: same physics, no per-step pack."""

    def test_fields_are_views_into_block(self, baseline_result):
        model, _ = baseline_result
        for f in model.fields:
            assert f.block is not None
            assert f.t.base is not None  # a view, not its own storage
            assert np.shares_memory(f.t, f.block)

    def test_superblock_matches_per_field_storage(self):
        """On/off agree to float-summation-order level: the resident
        block contracts condensate over all species in one matvec and
        skips the pack/unpack copies, so results are equivalent but not
        bitwise (~1e-15 relative per step)."""
        nl_on = conus12km_namelist(
            scale=0.05, num_ranks=2, seed=23, use_superblock_fields=True
        )
        nl_off = conus12km_namelist(
            scale=0.05, num_ranks=2, seed=23, use_superblock_fields=False
        )
        m_on, m_off = WrfModel(nl_on), WrfModel(nl_off)
        try:
            assert all(f.block is not None for f in m_on.fields)
            assert all(f.block is None for f in m_off.fields)
            m_on.run(num_steps=2)
            m_off.run(num_steps=2)
            o_on, o_off = m_on.gather_output(), m_off.gather_output()
            for name in o_off:
                scale = float(np.abs(o_off[name]).max()) or 1.0
                np.testing.assert_allclose(
                    o_on[name], o_off[name],
                    rtol=1e-9, atol=1e-9 * scale, err_msg=name,
                )
        finally:
            m_on.close()
            m_off.close()

    def test_native_physics_off_matches_default(self):
        """The compiled physics kernels must not change the model's
        answer: sedimentation is bit-identical and the condensation and
        collision passes differ from numpy only in summation order, so
        gathered moments agree to reduction-order level."""
        nl_on = conus12km_namelist(scale=0.05, num_ranks=2, seed=29)
        nl_off = conus12km_namelist(
            scale=0.05, num_ranks=2, seed=29, use_native_physics=False
        )
        m_on, m_off = WrfModel(nl_on), WrfModel(nl_off)
        try:
            m_on.run(num_steps=2)
            m_off.run(num_steps=2)
            o_on, o_off = m_on.gather_output(), m_off.gather_output()
            for name in o_off:
                scale = float(np.abs(o_off[name]).max()) or 1.0
                np.testing.assert_allclose(
                    o_on[name], o_off[name],
                    rtol=1e-11, atol=1e-11 * scale, err_msg=name,
                )
        finally:
            m_on.close()
            m_off.close()


class TestRankBatching:
    """Batched rank execution: same numerics and charges as serial."""

    def test_batched_matches_serial_exactly(self):
        nl_serial = conus12km_namelist(
            scale=0.05, num_ranks=4, seed=17, rank_batching=False
        )
        nl_batched = conus12km_namelist(
            scale=0.05, num_ranks=4, seed=17, rank_batching=True
        )
        m_serial = WrfModel(nl_serial)
        m_batched = WrfModel(nl_batched)
        try:
            assert m_serial._executor is None
            assert m_batched._executor is not None
            m_serial.run(num_steps=2)
            m_batched.run(num_steps=2)
            o_s, o_b = m_serial.gather_output(), m_batched.gather_output()
            for name in o_s:
                np.testing.assert_array_equal(o_b[name], o_s[name])
            # Per-rank simulated charges are execution-order independent.
            for cs, cb in zip(m_serial.clocks, m_batched.clocks):
                assert cb.total == pytest.approx(cs.total, rel=1e-12)
                for region in ("fast_sbm", "rk_scalar_tend"):
                    assert cb.region_total(region) == pytest.approx(
                        cs.region_total(region), rel=1e-12
                    )
        finally:
            m_serial.close()
            m_batched.close()

    def test_single_rank_stays_serial(self):
        model = WrfModel(conus12km_namelist(scale=0.05, num_ranks=1))
        try:
            assert model._executor is None
            model.step()
        finally:
            model.close()

    def test_gpu_stage_stays_serial(self):
        nl = conus12km_namelist(
            scale=0.05,
            num_ranks=2,
            stage=Stage.OFFLOAD_COLLAPSE2,
            num_gpus=1,
            rank_batching=True,
        )
        model = WrfModel(nl)
        try:
            assert model._executor is None
            model.step()
        finally:
            model.close()

    def test_close_shuts_down_executor(self):
        model = WrfModel(conus12km_namelist(scale=0.05, num_ranks=2))
        assert model._executor is not None
        model.close()
        assert model._executor is None
