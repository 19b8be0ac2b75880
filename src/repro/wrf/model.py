"""The WRF model driver: ranks, time loop, transport, physics, history.

One :class:`WrfModel` owns the whole simulated job: the decomposition,
one set of fields + FSBM driver per rank, the per-rank clocks, devices
for offloaded stages, and the BSP step scheduler. Within a step, the
per-rank CPU stages (physics, transport) are independent between halo
exchanges and by default execute batched on a thread pool
(``namelist.rank_batching``); GPU stages run ranks sequentially because
they contend for the shared simulated GPU pool. Either way the
*simulated* times overlap per the scheduler's rules and the per-rank
charges are identical.

Numerics note (documented substitution): transport integrates donor-
cell upwind with a single Euler stage, while the *cost* charged to
``rk_scalar_tend`` / ``rk_update_scalar`` is WRF's full three-stage RK3
over every advected scalar (233 of them with 7 species x 33 bins) plus
the acoustic-substep halo traffic — the loops the paper's Table I
profiles.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.clock import SimClock, TimeBucket
from repro.core.costmodel import CpuCostModel
from repro.core.engine import OffloadEngine
from repro.obs import tracer
from repro.fsbm.fast_sbm import FastSBM, SbmStepStats
from repro.grid.decomposition import Decomposition, decompose_domain
from repro.grid.halo import HaloExchangePlan, build_halo_plan
from repro.hardware.specs import EPYC_MILAN, PERLMUTTER_CPU_NODE
from repro.mpi.costmodel import CommCostModel
from repro.mpi.gpu_sharing import GpuPool
from repro.mpi.scheduler import RankStepCharge, StepScheduler
from repro.wrf.cases import conus12km_case
from repro.wrf.dynamics import (
    DynWorkStats,
    FLOPS_PER_CELL_TEND,
    FLOPS_PER_CELL_UPDATE,
    RK3_FRACTIONS,
    WindSplit,
    buoyancy_w_update,
    rk3_advect,
    rk_scalar_tend,
)
from repro.wrf.namelist import Namelist
from repro.wrf.state import WrfFields
from repro.wrf.transport import (
    TransportWorkspace,
    fused_euler_advect,
    fused_rk3_advect,
    get_workspace,
    pack_superblock,
    unpack_superblock,
)

#: Acoustic substeps per RK3 stage in WRF's split-explicit solver —
#: only their halo traffic is charged (we have no pressure solver).
ACOUSTIC_SUBSTEPS = 6

#: Fields exchanged per acoustic substep (u, v, w, t, p').
ACOUSTIC_FIELDS = 5

#: History write bandwidth to scratch [B/s] (serial netCDF through the
#: I/O rank, well below raw filesystem speed).
IO_BANDWIDTH = 0.5e9


# --- per-rank stage functions -------------------------------------------------
#
# Each stage below touches exactly one rank's state, so the same code
# runs in three execution modes: serial, batched on the thread pool,
# and inside a persistent worker process (repro.wrf.procpool). Keeping
# them module-level (not methods) is what lets the process workers
# reuse them verbatim — the bit-exactness of the multiprocess path
# against the thread path rests on all modes running these exact
# functions in the same per-rank order.


def cost_models(namelist: Namelist) -> tuple[CommCostModel, CpuCostModel]:
    """The (comm, cpu) cost models one namelist implies.

    Deterministic in the namelist alone, so driver and worker
    processes construct bit-identical models independently.
    """
    if namelist.stage.uses_gpu:
        ranks_per_node = min(namelist.num_ranks, 4 * 4)  # 4 GPUs, <=4 ranks each
        cpu = EPYC_MILAN
    else:
        ranks_per_node = min(namelist.num_ranks, PERLMUTTER_CPU_NODE.cpu.cores)
        cpu = PERLMUTTER_CPU_NODE.cpu
    comm_cost = CommCostModel(ranks_per_node=ranks_per_node)
    active_cores = min(namelist.num_ranks, ranks_per_node)
    cpu_cost = CpuCostModel(
        cpu=cpu,
        active_cores_on_socket=active_cores,
        threads=namelist.numtiles,
    )
    return comm_cost, cpu_cost


def build_rank_fields(
    namelist: Namelist, rank: int, patch, member: int = 0
) -> WrfFields:
    """Construct one rank's initial fields (deterministic per seed).

    ``member`` selects which ensemble member's perturbed scenario to
    build (``namelist.member_deltas``); the default — member 0 of a
    delta-free namelist — is the unperturbed base case, bit-identical
    to what this function always built.
    """
    from repro.wrf.cases import member_case_config
    from repro.wrf.namelist import deltas_for_member

    cfg, seed_offset = member_case_config(deltas_for_member(namelist, member))
    return conus12km_case(
        namelist.domain,
        patch,
        namelist.domain.dz,
        seed=namelist.seed + seed_offset,
        cfg=cfg,
    )


def build_rank_sbm(
    namelist: Namelist,
    clock: SimClock,
    cpu_cost: CpuCostModel,
    engine: OffloadEngine | None = None,
) -> FastSBM:
    """Construct one rank's FSBM driver with the namelist's switches."""
    return FastSBM(
        stage=namelist.stage,
        dt=namelist.dt,
        clock=clock,
        cpu_cost=cpu_cost,
        engine=engine,
        precision=namelist.device_precision,
        offload_condensation=namelist.offload_condensation,
        use_native_physics=namelist.use_native_physics,
    )


def physics_rank(namelist: Namelist, fields: WrfFields, sbm: FastSBM) -> SbmStepStats:
    """Run the microphysics on one rank's *owned* cells (the tile).

    Halo cells are excluded — WRF's physics run on tiles inside the
    patch; halos are refreshed by the exchange afterwards.
    """
    from repro.grid.indexing import owned_slice

    f = fields
    sl = owned_slice(f.patch)
    with tracer.span("physics", cat="physics") as sp:
        stats = sbm.step(
            state=f.micro.view(sl),
            temperature=f.t[sl],
            pressure_mb=f.pressure_mb[sl],
            qv=f.qv[sl],
            rho_air=f.rho[sl],
            dz_cm=namelist.domain.dz * 100.0,
        )
        if sp is not None:
            sp.set(
                mp_points=stats.mp_points,
                coal_points=stats.coal_points,
                coal_limiter_binds=stats.coal.limiter_binds,
                cond_limiter_binds=stats.cond.limiter_binds,
            )
    return stats


def pack_rank(
    fields: WrfFields,
    workspace: TransportWorkspace,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Pack one rank's advected fields into its superblock buffer.

    Runs batched after physics; the halo exchange and the fused
    transport then operate on the packed block, which is unpacked back
    into the per-field arrays at the end of transport. With resident
    fields (``bind_block``) packing is handing out the block; ``out``
    targets an explicit buffer (the worker processes pass their
    shared-memory block so non-resident runs still exchange halos
    through shared memory).
    """
    if fields.block is not None:
        # Fields are resident in the persistent superblock; physics
        # already wrote into it, so packing is handing out the block.
        return fields.block
    with tracer.span("pack") as sp:
        block = pack_superblock(
            fields.advected_fields(), fields.layout, workspace, out=out
        )
        if sp is not None:
            sp.set(bytes=block.nbytes)
    return block


def charge_halo_mpi(
    plan: HaloExchangePlan,
    comm_cost: CommCostModel,
    clock: SimClock,
    rank: int,
    nscalars: int,
    itemsize: int,
    num_ranks: int,
) -> None:
    """Charge one rank's MPI time for a full halo refresh.

    Walks the plan in global segment order charging every segment the
    rank participates in (either end pays the p2p time), then the
    acoustic-substep traffic WRF's split-explicit solver would add plus
    per-step sync noise. The per-clock advance sequence is identical
    whether the driver charges all ranks in one pass (thread path) or
    each worker process charges only itself, so the accumulated floats
    are bit-equal across execution modes.
    """
    for seg in plan.segments:
        if seg.src != rank and seg.dst != rank:
            continue
        nbytes = seg.num_points * nscalars * itemsize
        t = comm_cost.p2p_time(seg.src, seg.dst, nbytes)
        clock.advance(TimeBucket.MPI, t)
    # Acoustic-substep halo traffic and per-step sync noise
    # (charged, not simulated).
    noise = comm_cost.step_sync_noise(num_ranks)
    per_exchange = sum(
        comm_cost.p2p_time(s.src, s.dst, s.num_points * 4)
        for s in plan.segments_from(rank)
    )
    n_exchanges = len(RK3_FRACTIONS) * ACOUSTIC_SUBSTEPS * ACOUSTIC_FIELDS
    clock.advance(TimeBucket.MPI, per_exchange * n_exchanges + noise)


def transport_charges(
    namelist: Namelist,
    cpu_cost: CpuCostModel,
    fields: WrfFields,
    clock: SimClock,
) -> DynWorkStats:
    """Charge the CPU-path RK3 scalar-loop cost for one rank's patch."""
    ni, nk, nj = fields.shape
    cells = ni * nk * nj
    nscalars = fields.scalar_count()
    work = DynWorkStats(
        cell_scalar_stages=float(cells * nscalars * len(RK3_FRACTIONS))
    )
    with clock.region("rk_scalar_tend"):
        clock.advance(
            TimeBucket.CPU_COMPUTE,
            cpu_cost.time(
                work.tend_flops,
                work.tend_bytes,
                iterations=int(work.cell_scalar_stages),
            ),
        )
    with clock.region("rk_update_scalar"):
        clock.advance(
            TimeBucket.CPU_COMPUTE,
            cpu_cost.time(work.update_flops, work.update_bytes),
        )
    return work


def transport_numerics(
    namelist: Namelist,
    fields: WrfFields,
    workspace: TransportWorkspace,
    block: np.ndarray,
) -> None:
    """Traced wrapper over :func:`_transport_numerics`.

    The span mirrors the ``rk_scalar_tend``/``rk_update_scalar`` clock
    regions' work under one measured name; ``flops`` counts the single
    Euler donor-cell stage actually executed (tendency + update per
    cell-scalar) and ``bytes`` the superblock's minimum traffic (one
    read + one write), the same accounting the benchmark harness
    records for ``transport_fused``.
    """
    with tracer.span("transport", cat="transport") as sp:
        _transport_numerics(namelist, fields, workspace, block)
        if sp is not None:
            ni, nk, nj = fields.shape
            cell_scalars = float(ni * nk * nj * block.shape[-1])
            stages = len(RK3_FRACTIONS) if namelist.use_rk3_numerics else 1
            sp.set(
                flops=cell_scalars
                * stages
                * (FLOPS_PER_CELL_TEND + FLOPS_PER_CELL_UPDATE),
                bytes=2.0 * stages * cell_scalars * block.itemsize,
                fused=namelist.use_fused_transport,
            )


def _transport_numerics(
    namelist: Namelist,
    fields: WrfFields,
    workspace: TransportWorkspace,
    block: np.ndarray,
) -> None:
    """Advect one rank's scalars and apply the buoyancy update.

    Numerics: donor-cell update of every field, with the wind
    decomposition hoisted out of the scalar loop. The namelist selects
    single-Euler-stage (default, fast) or full RK3, and fused
    superblock advection (default) or the per-field reference loop; all
    four combinations agree to ~1e-14. The exchanged halos live in the
    packed superblock, so both paths start from it: the fused kernels
    advect the block directly and unpack the result, while the
    reference path unpacks first and then walks the per-field dict
    exactly as the seed did.
    """
    f = fields
    ws = workspace
    dt = namelist.dt
    dx = namelist.domain.dx
    dz = namelist.domain.dz
    if namelist.use_fused_transport:
        # The freshly exchanged w halo lives in the block; advect
        # with that wind, exactly as the reference path sees it.
        w_col = block[..., f.layout.slices()["w"].start]
        split = WindSplit.build(f.u, f.v, w_col, dx, dz)
        clip_slices = f.layout.clip_slices(no_clip=("t", "w"))
        if namelist.use_rk3_numerics:
            result = fused_rk3_advect(block, split, dt, ws, clip_slices)
        else:
            result = fused_euler_advect(block, split, dt, ws, clip_slices)
        if f.block is block:
            # Resident fields: one block-to-block copy replaces the
            # per-field unpack (no-op when the numpy fallback
            # already advected the block in place).
            if result is not block:
                block[...] = result
        else:
            unpack_superblock(result, f.advected_fields(), f.layout)
    else:
        if f.block is not block:
            unpack_superblock(block, f.advected_fields(), f.layout)
        split = WindSplit.build(f.u, f.v, f.w, dx, dz)
        for name, arr in f.advected_fields().items():
            clip = name != "t" and name != "w"
            if namelist.use_rk3_numerics:
                rk3_advect(arr, split, dt, clip_negative=clip, workspace=ws)
            else:
                tend = rk_scalar_tend(arr, split)
                arr += dt * tend
                if clip:
                    np.maximum(arr, 0.0, out=arr)

    condensate = f.micro.total_condensate_mass()
    buoyancy_w_update(f.w, f.t, f.t_base_col, condensate, f.rho, dt)


def rank_output_frame(fields: WrfFields) -> dict[str, np.ndarray]:
    """One rank's owned contribution to the domain-wide output frame.

    Contiguous copies, so worker processes can ship frames over the
    command pipe without dragging whole memory-extent arrays along.
    """
    f = fields
    patch = f.patch
    precip_owned = f.micro.precip[
        patch.i.to_slice(patch.im.start), patch.j.to_slice(patch.jm.start)
    ]
    return {
        "T": np.ascontiguousarray(f.owned(f.t)),
        "QVAPOR": np.ascontiguousarray(f.owned(f.qv)),
        "W": np.ascontiguousarray(f.owned(f.w)),
        "QCLOUD_TOTAL": np.ascontiguousarray(
            f.owned(f.micro.total_condensate_mass())
        ),
        "RAINNC": np.ascontiguousarray(precip_owned),
    }


@dataclass
class StepTiming:
    """Timing of one committed model step."""

    step: int
    elapsed: float
    charges: list[RankStepCharge]
    sbm_stats: list[SbmStepStats]


@dataclass
class RunResult:
    """Everything a completed run exposes to experiments and profilers."""

    namelist: Namelist
    decomposition: Decomposition
    steps_run: int
    elapsed: float
    step_timings: list[StepTiming]
    rank_clocks: list[SimClock]
    scheduler: StepScheduler
    kernel_records: list[list]
    history: list[dict[str, np.ndarray]]

    @property
    def per_step_elapsed(self) -> float:
        """Mean simulated seconds per model step."""
        return self.elapsed / max(1, self.steps_run)

    def projected_total(self, run_seconds: float | None = None) -> float:
        """Elapsed time scaled to the full run length (paper: 600 s)."""
        seconds = run_seconds or self.namelist.run_seconds
        steps = max(1, round(seconds / self.namelist.dt))
        return self.per_step_elapsed * steps

    def region_seconds(self, region: str) -> float:
        """Simulated seconds charged to a clock region, summed over ranks."""
        return sum(c.region_total(region) for c in self.rank_clocks)

    def rank_region_seconds(self, region: str, rank: int) -> float:
        """One rank's seconds in a region (the Nsight-Systems view)."""
        return self.rank_clocks[rank].region_total(region)

    def coal_loop_seconds(self) -> float:
        """Per-step seconds of the isolated collision loop (max over ranks)."""
        per_rank = [c.region_total("coal_bott_new") for c in self.rank_clocks]
        return max(per_rank) / max(1, self.steps_run)


class WrfModel:
    """A configured, runnable WRF job."""

    def __init__(self, namelist: Namelist):
        if namelist.members > 1:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                "members > 1 runs through repro.wrf.ensemble.EnsembleModel"
            )
        self.namelist = namelist
        if namelist.trace:
            # Before the worker fork below, so driver-side spans from
            # construction (JIT builds, cache warms) are captured too.
            tracer.enable()
        self.decomposition = decompose_domain(namelist.domain, namelist.num_ranks)
        self.halo_plan: HaloExchangePlan = build_halo_plan(self.decomposition)
        self.clocks = [SimClock() for _ in range(namelist.num_ranks)]
        self.comm_cost, self.cpu_cost = cost_models(namelist)

        # Multiprocess rank execution: forked before any heavyweight
        # driver-side state exists, so workers stay lean. Falls back to
        # the thread pool for GPU/offload stages (ranks contend for the
        # shared simulated GPU pool) and under REPRO_DISABLE_PROCPOOL.
        self._pool = None
        if (
            namelist.use_process_ranks
            and not namelist.stage.uses_gpu
            and not namelist.offload_advection
        ):
            from repro.wrf import procpool

            if procpool.procpool_disabled() is None:
                self._pool = procpool.ProcRankPool(
                    namelist, self.decomposition
                )

        self.gpu_pool: GpuPool | None = None
        self.engines: list[OffloadEngine | None] = [None] * namelist.num_ranks
        if namelist.stage.uses_gpu:
            self.gpu_pool = GpuPool(num_gpus=namelist.num_gpus)
            devices = self.gpu_pool.bind(namelist.num_ranks)
            dev_dtype = np.dtype(
                np.float32 if namelist.device_precision == "fp32" else np.float64
            )
            self.engines = [
                OffloadEngine(
                    device=dev,
                    env=namelist.env,
                    clock=clk,
                    device_dtype=dev_dtype,
                )
                for dev, clk in zip(devices, self.clocks)
            ]

        self.scheduler = StepScheduler(
            nranks=namelist.num_ranks, gpu_pool=self.gpu_pool
        )

        self.fields: list[WrfFields] = [
            build_rank_fields(namelist, patch.rank, patch)
            for patch in self.decomposition.patches
        ]
        if namelist.use_superblock_fields:
            # Persistent residency: the advected fields become views
            # into one per-rank superblock, so the per-step pack below
            # degenerates to handing out that block. Under process
            # ranks the block is the rank's shared-memory segment, so
            # the driver's views stay live mirrors of worker state.
            for rank, f in enumerate(self.fields):
                f.bind_block(
                    buffer=self._pool.block_view(rank)
                    if self._pool is not None
                    else None
                )
        # Transport workspaces: preallocated once per rank (the host
        # analog of `target enter data map(alloc:)`), keyed by (shape,
        # nscalars, dtype, rank) so batched ranks never share buffers
        # while same-shaped models reuse them across instantiations.
        # Each rank's packed superblock lives in its workspace; the
        # per-step pack stage fills it and records it here.
        self.workspaces: list[TransportWorkspace] = [
            get_workspace(f.shape, f.scalar_count(), f.t.dtype, owner=rank)
            for rank, f in enumerate(self.fields)
        ]
        self._blocks: list[np.ndarray | None] = [None] * namelist.num_ranks
        self.sbm: list[FastSBM] = [
            build_rank_sbm(
                namelist, self.clocks[r], self.cpu_cost, self.engines[r]
            )
            for r in range(namelist.num_ranks)
        ]
        # Batched rank execution: per-rank CPU stages share nothing
        # mutable (fields, FSBM driver, and clock are all per-rank, and
        # the precompute caches are thread-safe), so they can run
        # concurrently between the halo-exchange barriers. GPU stages
        # must stay serial — ranks contend for the shared GpuPool.
        self._executor: ThreadPoolExecutor | None = None
        if (
            self._pool is None
            and namelist.rank_batching
            and namelist.num_ranks > 1
            and not namelist.stage.uses_gpu
            and not namelist.offload_advection
        ):
            self._executor = ThreadPoolExecutor(
                max_workers=min(namelist.num_ranks, os.cpu_count() or 1),
                thread_name_prefix="rank",
            )

        self.steps_done = 0
        self._sim_time = 0.0
        self._last_history = 0.0

    # --- pieces of one step ------------------------------------------------------

    def _pack(self, rank: int) -> None:
        """Pack one rank's advected fields into its superblock buffer."""
        with tracer.rank_scope(rank):
            self._blocks[rank] = pack_rank(
                self.fields[rank], self.workspaces[rank]
            )

    def _exchange_halos(self) -> None:
        """Refresh halos of every advected field; charge MPI per rank.

        Performs the real copies through the halo plan and charges each
        rank the p2p time of the segments it sends plus the acoustic-
        substep traffic WRF's split-explicit solver would add.

        Every advected scalar sits in the rank's packed superblock, so
        each segment is one strided ``(di, dk, dj, nscalar)`` copy
        instead of a walk over per-field dicts rebuilt on every call;
        the byte count (points x scalars x itemsize) is identical to
        the old per-field sum, so the MPI charges are unchanged bit
        for bit.
        """
        patches = self.decomposition.patches
        blocks = self._blocks
        nscalars = blocks[0].shape[-1]
        itemsize = blocks[0].itemsize
        # Segments are grouped by destination rank: halo writes are
        # disjoint (owned regions partition the domain, so each halo
        # point has exactly one source) and reads touch only owned
        # regions, making per-rank grouping bit-identical to plan
        # order — while attributing each rank's halo fill to its own
        # trace timeline, exactly like the worker processes' pull loops.
        for rank in range(self.namelist.num_ranks):
            incoming = self.halo_plan.segments_to(rank)
            with tracer.rank_scope(rank):
                with tracer.span("halo_exchange", cat="mpi") as sp:
                    for seg in incoming:
                        src_sl = seg.src_slices(patches[seg.src])
                        dst_sl = seg.dst_slices(patches[rank])
                        blocks[rank][dst_sl] = blocks[seg.src][src_sl]
                    if sp is not None:
                        sp.set(
                            bytes=sum(
                                s.num_points * nscalars * itemsize
                                for s in incoming
                            ),
                            segments=len(incoming),
                        )
        for rank in range(self.namelist.num_ranks):
            charge_halo_mpi(
                self.halo_plan,
                self.comm_cost,
                self.clocks[rank],
                rank,
                nscalars,
                itemsize,
                self.namelist.num_ranks,
            )

    def _transport(self, rank: int) -> None:
        """Advect all scalars on one rank's patch; charge RK3 cost."""
        f = self.fields[rank]
        with tracer.rank_scope(rank):
            if (
                self.namelist.offload_advection
                and self.engines[rank] is not None
            ):
                ni, nk, nj = f.shape
                nscalars = f.scalar_count()
                work = DynWorkStats(
                    cell_scalar_stages=float(
                        ni * nk * nj * nscalars * len(RK3_FRACTIONS)
                    )
                )
                self._transport_offloaded(rank, work, nscalars)
            else:
                transport_charges(
                    self.namelist, self.cpu_cost, f, self.clocks[rank]
                )
            transport_numerics(
                self.namelist, f, self.workspaces[rank], self._blocks[rank]
            )

    def _transport_offloaded(
        self, rank: int, work: DynWorkStats, nscalars: int
    ) -> None:
        """Offload the RK3 scalar loops (the Sec. VIII 'next target').

        Advection is regular and coalesced: one thread per cell sweeping
        all scalars — high occupancy, bandwidth-bound, no automatic
        arrays. The bin fields already live on the device (mapped once
        by ``target enter data``), so only winds move per step.
        """
        from repro.core.directives import (
            Map,
            MapType,
            TargetTeamsDistributeParallelDo,
        )
        from repro.core.kernel import Kernel, KernelResources
        from repro.hardware.memory import AccessPattern, TrafficComponent

        engine = self.engines[rank]
        assert engine is not None
        f = self.fields[rank]
        ni, nk, nj = f.shape
        clock = self.clocks[rank]
        resources = KernelResources(
            registers_per_thread=48,
            automatic_array_bytes=0,
            working_set_per_thread=64.0,
            flops=work.tend_flops + work.update_flops,
            traffic=(
                TrafficComponent(
                    name="scalars",
                    pattern=AccessPattern.GLOBAL_COALESCED,
                    read_bytes=work.tend_bytes,
                    write_bytes=work.update_bytes,
                ),
            ),
            active_iterations=ni * nk * nj,
            compute_efficiency=0.25,  # regular stencil, decent ILP
        )
        kernel = Kernel(
            name="rk_scalar_tend_loop",
            loop_extents=(nj, nk, ni),
            resources=resources,
            body=None,  # numerics run below on the host path as usual
        )
        directive = TargetTeamsDistributeParallelDo(
            collapse=3, maps=(Map(MapType.TO, ("u", "v", "w")),)
        )
        with clock.region("rk_scalar_tend"):
            engine.launch(
                kernel,
                directive,
                to_arrays={"u": f.u, "v": f.v, "w": f.w},
            )

    def _physics(self, rank: int) -> SbmStepStats:
        """Run the microphysics on one rank's *owned* cells (the tile).

        Delegates to the shared :func:`physics_rank` stage — the same
        function the worker processes run — inside this rank's tracer
        scope, so all three execution modes record identical spans.
        """
        with tracer.rank_scope(rank):
            return physics_rank(
                self.namelist, self.fields[rank], self.sbm[rank]
            )

    def _charge_io(self, charges: list[list[float]]) -> None:
        """Apply per-rank ordered I/O charges on the authoritative clocks.

        ``charges[rank]`` is the ordered list of seconds to advance that
        rank's ``IO`` bucket by. Under process ranks the workers own the
        clocks, so the charges ship over the command pipe, each worker
        applies its list in order, and the driver mirrors re-adopt the
        totals — the per-clock advance sequence (and therefore the float
        accumulation) is identical to applying them locally.
        """
        if self._pool is not None:
            states = self._pool.charge_io(charges)
            for clock, state in zip(self.clocks, states):
                clock.restore(*state)
            return
        for clock, rank_charges in zip(self.clocks, charges):
            for seconds in rank_charges:
                clock.advance(TimeBucket.IO, seconds)

    def _maybe_history(self, force: bool = False) -> dict[str, np.ndarray] | None:
        """Write history if due; charges I/O time and returns the frame."""
        interval = self.namelist.history_interval
        due = force or (
            interval > 0.0 and self._sim_time - self._last_history >= interval
        )
        if not due:
            return None
        self._last_history = self._sim_time
        with tracer.span("history_io", cat="io") as sp:
            frame = self.gather_output()
            if self.namelist.history_path is not None:
                from repro.wrf.io import write_wrfout

                write_wrfout(
                    f"{self.namelist.history_path}/wrfout_d01_{self.steps_done:06d}",
                    frame,
                    attrs={
                        "title": "repro CONUS-12km",
                        "sim_seconds": self._sim_time,
                        "stage": self.namelist.stage.value,
                        "dx": self.namelist.domain.dx,
                    },
                )
            nbytes = sum(a.nbytes for a in frame.values())
            if sp is not None:
                sp.set(
                    bytes=nbytes,
                    on_disk=self.namelist.history_path is not None,
                )
        # Patches funnel to rank 0, which writes.
        local = int(nbytes / self.namelist.num_ranks)
        charges = [
            [self.comm_cost.p2p_time(rank, 0, local)]
            for rank in range(self.namelist.num_ranks)
        ]
        charges[0].append(nbytes / IO_BANDWIDTH)
        self._charge_io(charges)
        return frame

    def gather_output(self) -> dict[str, np.ndarray]:
        """Assemble domain-wide output fields from the patches."""
        dom = self.namelist.domain
        out = {
            "T": np.zeros((dom.nx, dom.nz, dom.ny)),
            "QVAPOR": np.zeros((dom.nx, dom.nz, dom.ny)),
            "W": np.zeros((dom.nx, dom.nz, dom.ny)),
            "QCLOUD_TOTAL": np.zeros((dom.nx, dom.nz, dom.ny)),
            "RAINNC": np.zeros((dom.nx, dom.ny)),
        }
        if self._pool is not None:
            # Workers own the authoritative state (precip accumulates in
            # their address space); they ship owned-region frames back.
            frames = self._pool.gather()
        else:
            frames = [rank_output_frame(f) for f in self.fields]
        for patch, frame in zip(self.decomposition.patches, frames):
            sl = (
                patch.i.to_slice(1),
                patch.k.to_slice(1),
                patch.j.to_slice(1),
            )
            for name in ("T", "QVAPOR", "W", "QCLOUD_TOTAL"):
                out[name][sl] = frame[name]
            out["RAINNC"][patch.i.to_slice(1), patch.j.to_slice(1)] = frame[
                "RAINNC"
            ]
        return out

    # --- the loop -------------------------------------------------------------

    def _run_ranks(self, stage_fn) -> list:
        """Apply a per-rank stage to every rank, batched when enabled.

        Results come back in rank order either way, and each worker
        touches only its own rank's state, so serial and batched
        execution are interchangeable.
        """
        ranks = range(self.namelist.num_ranks)
        if self._executor is None:
            return [stage_fn(rank) for rank in ranks]
        return list(self._executor.map(stage_fn, ranks))

    def step(self) -> StepTiming:
        """Advance the whole job by one model step."""
        before = [c.snapshot() for c in self.clocks]
        with tracer.span("solve_em", attrs=None) as sp:
            if sp is not None:
                sp.set(step=self.steps_done + 1)
            if self._pool is not None:
                sbm_stats = self._step_procs()
            else:
                with_regions = [c.region("solve_em") for c in self.clocks]
                for ctx in with_regions:
                    ctx.__enter__()
                try:
                    sbm_stats = self._run_ranks(self._physics)
                    self._run_ranks(self._pack)
                    self._exchange_halos()
                    self._run_ranks(self._transport)
                finally:
                    for ctx in reversed(with_regions):
                        ctx.__exit__(None, None, None)
        self._sim_time += self.namelist.dt
        self.steps_done += 1
        self._maybe_history()

        after = [c.snapshot() for c in self.clocks]
        charges = [
            RankStepCharge.from_clock_delta(b, a) for b, a in zip(before, after)
        ]
        elapsed = self.scheduler.commit_step(charges)
        return StepTiming(
            step=self.steps_done, elapsed=elapsed, charges=charges, sbm_stats=sbm_stats
        )

    def _step_procs(self) -> list[SbmStepStats]:
        """One step across the worker processes (the multiprocess path).

        Each worker runs the identical per-rank stage sequence
        (physics, pack, pull-model halo exchange through the shared
        superblocks, transport) under its authoritative clock, then
        ships back its step stats and clock totals; the driver-side
        mirror clocks adopt the totals verbatim, so every downstream
        consumer (scheduler charges, profilers, history I/O) sees
        bit-identical simulated time.
        """
        assert self._pool is not None
        results = self._pool.step()
        stats: list[SbmStepStats] = []
        for clock, (rank_stats, buckets, regions) in zip(self.clocks, results):
            clock.restore(buckets, regions)
            stats.append(rank_stats)
        return stats

    def run(
        self, num_steps: int | None = None, final_history: bool = False
    ) -> RunResult:
        """Run ``num_steps`` (default: the namelist's full count)."""
        steps = num_steps if num_steps is not None else self.namelist.num_steps
        timings: list[StepTiming] = []
        history: list[dict[str, np.ndarray]] = []
        for _ in range(steps):
            timings.append(self.step())
        if final_history:
            frame = self._maybe_history(force=True)
            if frame is not None:
                history.append(frame)
        return RunResult(
            namelist=self.namelist,
            decomposition=self.decomposition,
            steps_run=steps,
            elapsed=self.scheduler.elapsed,
            step_timings=timings,
            rank_clocks=self.clocks,
            scheduler=self.scheduler,
            kernel_records=[
                e.records if e is not None else [] for e in self.engines
            ],
            history=history,
        )

    def close(self) -> None:
        """Release device contexts, the rank executor, and the worker pool."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        for e in self.engines:
            if e is not None:
                e.close()
