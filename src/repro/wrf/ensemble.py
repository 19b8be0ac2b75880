"""Member-batched ensemble execution over stacked superblocks.

One :class:`EnsembleModel` steps N perturbed scenarios (ensemble
members) of the same domain together. Each rank's transport superblock
grows a leading member axis — ``(N, ni, nk, nj, nscalar)``,
C-contiguous, so ``block[m]`` has exactly the layout a solo run's
resident block has — and the fused engines sweep all members in one
kernel invocation per stage:

* transport runs the member-batched stencil
  (:func:`repro.wrf.transport.fused_euler_advect_members` /
  ``fused_rk3_advect_members`` over one stacked
  :class:`~repro.wrf.dynamics.WindSplit`),
* microphysics runs :func:`repro.fsbm.fast_sbm.step_members` in place
  on the stacked block (one row list over all members, one nucleation
  call, member-segmented condensation and collisions, one fused
  sedimentation sweep),
* the halo exchange is the same per-segment strided copy with the
  member axis riding along.

Step-invariant precompute — courant ladders, coal operators, pair
splits, lookup tables — is shared across members automatically through
the existing :class:`~repro.core.cache.CountingCache` registries: every
member hits the same keys, so N members warm each cache once.

Per-member correctness is non-negotiable and exact: member ``m`` of a
batched run is **bit-identical** — fields, per-rank
:class:`~repro.core.clock.SimClock` charges, history frames — to a solo
:class:`~repro.wrf.model.WrfModel` run of
:func:`repro.wrf.namelist.member_namelist`\\ ``(nl, m)``. The batching
discipline that guarantees this (shared elementwise ops and row-local
kernels, per-member BLAS calls — see :mod:`repro.fsbm.fast_sbm`) is enforced by
the exact-equality suite in ``tests/wrf/test_ensemble.py``.

``REPRO_DISABLE_ENSEMBLE=1`` is the kill switch: the model degenerates
to N independent solo models stepped sequentially (identical results,
no batching). Under ``namelist.use_process_ranks`` the stacked blocks
live in the shared-memory segments of :mod:`repro.wrf.procpool` and
each worker steps all members of its rank, with member-sliced gathers
over the existing command pipes.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from repro.core.clock import SimClock, TimeBucket
from repro.errors import ConfigurationError
from repro.fsbm.fast_sbm import FastSBM, SbmStepStats, step_members
from repro.fsbm.species import Species
from repro.fsbm.state import MicroState
from repro.grid.decomposition import Decomposition, decompose_domain
from repro.grid.halo import HaloExchangePlan, build_halo_plan
from repro.grid.indexing import owned_slice
from repro.mpi.scheduler import RankStepCharge, StepScheduler
from repro.obs import metrics, tracer
from repro.wrf.dynamics import (
    FLOPS_PER_CELL_TEND,
    FLOPS_PER_CELL_UPDATE,
    RK3_FRACTIONS,
    WindSplit,
    buoyancy_w_update,
)
from repro.wrf.model import (
    IO_BANDWIDTH,
    RunResult,
    StepTiming,
    WrfModel,
    build_rank_fields,
    build_rank_sbm,
    charge_halo_mpi,
    cost_models,
    rank_output_frame,
    transport_charges,
    _transport_numerics,
)
from repro.wrf.namelist import Namelist, member_namelist
from repro.wrf.state import WrfFields, superblock_scalar_count
from repro.wrf.transport import (
    TransportWorkspace,
    fused_euler_advect_members,
    fused_rk3_advect_members,
    get_workspace,
)


def ensemble_disabled() -> str | None:
    """Why member batching is disabled in this environment, or ``None``.

    ``REPRO_DISABLE_ENSEMBLE`` is the kill switch: any non-empty value
    makes :class:`EnsembleModel` fall back to stepping N independent
    solo models sequentially (bit-identical results, no batching).
    """
    if os.environ.get("REPRO_DISABLE_ENSEMBLE", ""):
        return "REPRO_DISABLE_ENSEMBLE is set"
    return None


# --- per-rank ensemble state --------------------------------------------------


@dataclass
class RankEnsemble:
    """One rank's stacked member state and its cached owned views.

    The stacked ``block`` is the only storage for the advected scalars;
    each member's :class:`~repro.wrf.state.WrfFields` is bound into its
    ``block[m]`` slab, so the per-member views a solo run would see are
    exactly the slab's columns. Non-advected per-member arrays (winds,
    CCN, precip) live in member-stacked side arrays with the member
    fields rebound as views, which is what lets transport build one
    stacked :class:`~repro.wrf.dynamics.WindSplit` and microphysics
    address all members' cells with one row list.
    """

    rank: int
    patch: object
    block: np.ndarray
    fields: list[WrfFields]
    clocks: list[SimClock]
    sbms: list[FastSBM]
    workspace: TransportWorkspace
    u: np.ndarray
    v: np.ndarray
    ccn: np.ndarray
    precip: np.ndarray
    #: Owned-region views for the member-batched physics call.
    states: list[MicroState] = field(default_factory=list)
    dists_o: dict = field(default_factory=dict)
    t_o: np.ndarray = None  # type: ignore[assignment]
    qv_o: np.ndarray = None  # type: ignore[assignment]
    ccn_o: np.ndarray = None  # type: ignore[assignment]
    precip_o: np.ndarray = None  # type: ignore[assignment]
    p_o: np.ndarray = None  # type: ignore[assignment]
    rho_o: np.ndarray = None  # type: ignore[assignment]
    pressure_levels: list = field(default_factory=list)
    w_start: int = 0
    clip_slices: tuple = ()


def build_rank_ensemble(
    namelist: Namelist,
    rank: int,
    patch,
    block: np.ndarray,
    clocks: list[SimClock],
    cpu_cost,
) -> RankEnsemble:
    """Construct one rank's member-stacked state inside ``block``.

    ``block`` is the rank's ``(N, ni, nk, nj, nscalar)`` stacked
    superblock (driver-allocated, or a view over the rank's shared-
    memory segment under process ranks). Member ``m``'s fields are
    built from its perturbed case and bound into ``block[m]`` — the
    same values, layout, and strides a solo resident run of that member
    would hold.
    """
    nm = namelist.members
    shape = patch.shape
    fields: list[WrfFields] = []
    u = np.empty((nm, *shape))
    v = np.empty((nm, *shape))
    ccn = np.empty((nm, *shape))
    precip = np.empty((nm, shape[0], shape[2]))
    for m in range(nm):
        f = build_rank_fields(namelist, rank, patch, member=m)
        f.bind_block(buffer=block[m])
        # Rebind the non-advected per-member arrays as views into the
        # member-stacked side arrays (values unchanged — plain copies).
        u[m] = f.u
        f.u = u[m]
        v[m] = f.v
        f.v = v[m]
        ccn[m] = f.micro.ccn
        f.micro.ccn = ccn[m]
        precip[m] = f.micro.precip
        f.micro.precip = precip[m]
        fields.append(f)
    sbms = [build_rank_sbm(namelist, clocks[m], cpu_cost) for m in range(nm)]
    workspace = get_workspace(
        (nm, *shape),
        fields[0].scalar_count(),
        fields[0].t.dtype,
        owner=("ensemble", rank),
    )
    sl = owned_slice(patch)
    slices = fields[0].layout.slices()
    ens = RankEnsemble(
        rank=rank,
        patch=patch,
        block=block,
        fields=fields,
        clocks=clocks,
        sbms=sbms,
        workspace=workspace,
        u=u,
        v=v,
        ccn=ccn,
        precip=precip,
    )
    ens.states = [f.micro.view(sl) for f in fields]
    ens.dists_o = {
        sp: block[(slice(None), *sl, slices[f"bin_{sp.value}"])]
        for sp in Species
    }
    ens.t_o = block[(slice(None), *sl, slices["t"].start)]
    ens.qv_o = block[(slice(None), *sl, slices["qv"].start)]
    ens.ccn_o = ccn[(slice(None), *sl)]
    ens.precip_o = precip[:, sl[0], sl[2]]
    p_one = fields[0].pressure_mb[sl]
    ens.p_o = np.broadcast_to(p_one[None], (nm, *p_one.shape))
    rho_one = fields[0].rho[sl]
    ens.rho_o = np.broadcast_to(rho_one[None], (nm, *rho_one.shape))
    # Static base state: the per-member column a solo run recomputes
    # every step, precomputed once (identical floats).
    ens.pressure_levels = [f.pressure_mb[sl].mean(axis=(0, 2)) for f in fields]
    ens.w_start = slices["w"].start
    ens.clip_slices = fields[0].layout.clip_slices(no_clip=("t", "w"))
    return ens


# --- per-rank ensemble stages -------------------------------------------------
#
# Module-level like the solo stages in repro.wrf.model, and for the
# same reason: the driver's serial/thread paths and the procpool
# workers run these exact functions in the same per-rank order, which
# is what keeps all execution modes bit-identical.


def physics_rank_members(
    namelist: Namelist, ens: RankEnsemble
) -> list[SbmStepStats]:
    """Member-batched microphysics on one rank's owned cells."""
    with tracer.span("physics", cat="physics") as sp:
        stats = step_members(
            ens.sbms,
            ens.states,
            ens.dists_o,
            ens.ccn_o,
            ens.precip_o,
            ens.t_o,
            ens.p_o,
            ens.qv_o,
            ens.rho_o,
            namelist.domain.dz * 100.0,
            pressure_levels=ens.pressure_levels,
        )
        if sp is not None:
            sp.set(
                members=len(stats),
                mp_points=sum(s.mp_points for s in stats),
                coal_points=sum(s.coal_points for s in stats),
                coal_limiter_binds=sum(s.coal.limiter_binds for s in stats),
                cond_limiter_binds=sum(s.cond.limiter_binds for s in stats),
            )
    return stats


def transport_rank_members(
    namelist: Namelist, cpu_cost, ens: RankEnsemble
) -> None:
    """Charge per-member RK3 cost, then run the batched numerics."""
    for f, clock in zip(ens.fields, ens.clocks):
        transport_charges(namelist, cpu_cost, f, clock)
    transport_numerics_members(namelist, ens)


def transport_numerics_members(namelist: Namelist, ens: RankEnsemble) -> None:
    """Traced member-batched transport numerics for one rank."""
    with tracer.span("transport", cat="transport") as sp:
        _transport_numerics_members(namelist, ens)
        if sp is not None:
            nm, ni, nk, nj, ns = ens.block.shape
            cell_scalars = float(nm * ni * nk * nj * ns)
            stages = len(RK3_FRACTIONS) if namelist.use_rk3_numerics else 1
            sp.set(
                flops=cell_scalars
                * stages
                * (FLOPS_PER_CELL_TEND + FLOPS_PER_CELL_UPDATE),
                bytes=2.0 * stages * cell_scalars * ens.block.itemsize,
                fused=namelist.use_fused_transport,
                members=nm,
            )


def _transport_numerics_members(namelist: Namelist, ens: RankEnsemble) -> None:
    """Advect all members' scalars; apply per-member buoyancy updates.

    The fused path advects the whole stacked block in one member-
    batched stencil call over one stacked wind decomposition (both
    elementwise in the member axis, so member ``m``'s result is
    bitwise the solo fused result). The reference path falls back to
    the solo per-member numerics verbatim. The trailing buoyancy update
    stays per member either way — it contracts each member's packed
    bins (a BLAS call, which must not see other members' rows).
    """
    block = ens.block
    dt = namelist.dt
    if namelist.use_fused_transport:
        dx = namelist.domain.dx
        dz = namelist.domain.dz
        w_col = block[..., ens.w_start]
        split = WindSplit.build(ens.u, ens.v, w_col, dx, dz)
        if namelist.use_rk3_numerics:
            result = fused_rk3_advect_members(
                block, split, dt, ens.workspace, ens.clip_slices
            )
        else:
            result = fused_euler_advect_members(
                block, split, dt, ens.workspace, ens.clip_slices
            )
        if result is not block:
            block[...] = result
        for f in ens.fields:
            condensate = f.micro.total_condensate_mass()
            buoyancy_w_update(f.w, f.t, f.t_base_col, condensate, f.rho, dt)
    else:
        for m, f in enumerate(ens.fields):
            member_ws = get_workspace(
                f.shape,
                f.scalar_count(),
                f.t.dtype,
                owner=("ensemble-member", ens.rank, m),
            )
            _transport_numerics(namelist, f, member_ws, f.block)


# --- procpool worker context --------------------------------------------------


class EnsembleRankContext:
    """Everything one worker process owns for its rank's members.

    The ensemble analog of :class:`repro.wrf.procpool._RankContext`,
    constructed by the same worker entry when ``namelist.members > 1``:
    the rank's shared segment holds the stacked ``(N, ni, nk, nj,
    nscalar)`` block, all members step together through the batched
    stages above, and the gather command is member-sliced — the driver
    asks for one member's frame at a time over the existing pipe.
    """

    def __init__(
        self,
        rank: int,
        namelist: Namelist,
        decomposition: Decomposition,
        seg_names: list[str],
        nscalars: int,
        barrier,
        timeout: float,
    ):
        from multiprocessing.shared_memory import SharedMemory

        self.rank = rank
        self.namelist = namelist
        self.barrier = barrier
        self.timeout = timeout
        self.num_ranks = namelist.num_ranks
        self.nscalars = nscalars
        tracer.configure_worker(rank, trace=namelist.trace)
        nm = namelist.members
        self.clocks = [SimClock() for _ in range(nm)]
        self.comm_cost, self.cpu_cost = cost_models(namelist)
        self.plan: HaloExchangePlan = build_halo_plan(decomposition)
        self._shms = [SharedMemory(name=n) for n in seg_names]
        self.blocks = [
            np.ndarray(
                (nm, *patch.shape, nscalars), dtype=np.float64, buffer=shm.buf
            )
            for patch, shm in zip(decomposition.patches, self._shms)
        ]
        self.ens = build_rank_ensemble(
            namelist,
            rank,
            decomposition.patches[rank],
            self.blocks[rank],
            self.clocks,
            self.cpu_cost,
        )

    def step(self):
        """One member-batched step for this rank; peers step concurrently.

        Identical per-member stage sequence (and so identical per-clock
        charge order) to the solo worker: physics, halo MPI charges,
        transport, with the two barriers bracketing the shared-memory
        pull exchange exactly as in the solo path.
        """
        nm = self.namelist.members
        with ExitStack() as stack:
            for clock in self.clocks:
                stack.enter_context(clock.region("solve_em"))
            stats = physics_rank_members(self.namelist, self.ens)
            self.barrier.wait(self.timeout)
            with tracer.span("halo_exchange", cat="mpi") as sp:
                points = 0
                for m in range(nm):
                    points += self.plan.apply_pull(
                        self.rank, [b[m] for b in self.blocks]
                    )
                if sp is not None:
                    sp.set(
                        bytes=points * self.nscalars * 8,
                        pull=True,
                        members=nm,
                    )
            for clock in self.clocks:
                charge_halo_mpi(
                    self.plan,
                    self.comm_cost,
                    clock,
                    self.rank,
                    nscalars=self.nscalars,
                    itemsize=8,
                    num_ranks=self.num_ranks,
                )
            self.barrier.wait(self.timeout)
            transport_rank_members(self.namelist, self.cpu_cost, self.ens)
        metrics.emit_cache_counters(self.rank)
        return [(stats[m], *self.clocks[m].state()) for m in range(nm)]

    def charge_io(self, charges: list[float], member: int = 0):
        """Apply one member's ordered I/O charges; return its totals."""
        for seconds in charges:
            self.clocks[member].advance(TimeBucket.IO, seconds)
        return self.clocks[member].state()

    def gather(self, member: int = 0) -> dict[str, np.ndarray]:
        """Member-sliced gather: one member's owned output frame."""
        return rank_output_frame(self.ens.fields[member])

    def close(self) -> None:
        for shm in self._shms:
            try:
                shm.close()
            except BufferError:
                pass


# --- the driver ---------------------------------------------------------------


class EnsembleModel:
    """N perturbed scenarios of one configured WRF job, batched.

    The ensemble counterpart of :class:`~repro.wrf.model.WrfModel`:
    ``namelist.members`` scenarios step together through member-batched
    kernels, and every per-member observable — fields, per-rank clock
    charges, history frames, step timings — is bit-identical to a solo
    run of that member's :func:`~repro.wrf.namelist.member_namelist`.

    CPU-only (GPU stages contend for the shared simulated pool and are
    out of scope for member batching) and requires resident superblock
    fields. :meth:`step` and :meth:`run` return per-member lists.
    """

    def __init__(self, namelist: Namelist):
        if (
            namelist.stage.uses_gpu
            or namelist.offload_condensation
            or namelist.offload_advection
        ):
            raise ConfigurationError(
                "ensemble member batching supports CPU stages only"
            )
        if not namelist.use_superblock_fields:
            raise ConfigurationError(
                "ensemble member batching requires use_superblock_fields"
            )
        self.namelist = namelist
        nm = namelist.members
        self._solo: list[WrfModel] | None = None
        if ensemble_disabled() is not None:
            # Kill switch: N independent solo models, stepped
            # sequentially — same results, no batching.
            self._solo = [
                WrfModel(member_namelist(namelist, m)) for m in range(nm)
            ]
            self.decomposition = self._solo[0].decomposition
            self.clocks = [mdl.clocks for mdl in self._solo]
            self.schedulers = [mdl.scheduler for mdl in self._solo]
            self.steps_done = 0
            return
        if namelist.trace:
            tracer.enable()
        self.decomposition: Decomposition = decompose_domain(
            namelist.domain, namelist.num_ranks
        )
        self.halo_plan: HaloExchangePlan = build_halo_plan(self.decomposition)
        #: ``clocks[m][rank]`` — one authoritative clock per (member, rank).
        self.clocks = [
            [SimClock() for _ in range(namelist.num_ranks)] for _ in range(nm)
        ]
        self.comm_cost, self.cpu_cost = cost_models(namelist)
        self.schedulers = [
            StepScheduler(nranks=namelist.num_ranks, gpu_pool=None)
            for _ in range(nm)
        ]

        # Multiprocess rank execution: the pool's shared segments are
        # sized for the stacked blocks, and each worker steps all of
        # its rank's members (fork happens before the driver builds
        # its mirror state, exactly as in the solo model).
        self._pool = None
        if namelist.use_process_ranks:
            from repro.wrf import procpool

            if procpool.procpool_disabled() is None:
                self._pool = procpool.ProcRankPool(
                    namelist, self.decomposition
                )

        nscalars = superblock_scalar_count()
        self.ranks: list[RankEnsemble] = []
        for rank, patch in enumerate(self.decomposition.patches):
            if self._pool is not None:
                block = self._pool.block_view(rank)
            else:
                block = np.empty((nm, *patch.shape, nscalars))
            self.ranks.append(
                build_rank_ensemble(
                    namelist,
                    rank,
                    patch,
                    block,
                    [self.clocks[m][rank] for m in range(nm)],
                    self.cpu_cost,
                )
            )

        self._executor: ThreadPoolExecutor | None = None
        if (
            self._pool is None
            and namelist.rank_batching
            and namelist.num_ranks > 1
        ):
            self._executor = ThreadPoolExecutor(
                max_workers=min(namelist.num_ranks, os.cpu_count() or 1),
                thread_name_prefix="rank",
            )

        self.steps_done = 0
        self._sim_time = 0.0
        self._last_history = 0.0

    # --- pieces of one step ---------------------------------------------------

    def _physics(self, rank: int) -> list[SbmStepStats]:
        with tracer.rank_scope(rank):
            return physics_rank_members(self.namelist, self.ranks[rank])

    def _transport(self, rank: int) -> None:
        with tracer.rank_scope(rank):
            transport_rank_members(
                self.namelist, self.cpu_cost, self.ranks[rank]
            )

    def _exchange_halos(self) -> None:
        """Refresh every member's halos; charge MPI per (member, rank).

        The same per-segment strided copies as the solo model with the
        member axis prepended — one copy moves a segment for all
        members — and the same per-rank charge walk applied to each
        member's clock, so each clock's advance sequence matches its
        solo run exactly.
        """
        patches = self.decomposition.patches
        blocks = [ens.block for ens in self.ranks]
        nm = self.namelist.members
        nscalars = blocks[0].shape[-1]
        itemsize = blocks[0].itemsize
        for rank in range(self.namelist.num_ranks):
            incoming = self.halo_plan.segments_to(rank)
            with tracer.rank_scope(rank):
                with tracer.span("halo_exchange", cat="mpi") as sp:
                    for seg in incoming:
                        src_sl = seg.src_slices(patches[seg.src])
                        dst_sl = seg.dst_slices(patches[rank])
                        blocks[rank][(slice(None), *dst_sl)] = blocks[
                            seg.src
                        ][(slice(None), *src_sl)]
                    if sp is not None:
                        sp.set(
                            bytes=nm
                            * sum(
                                s.num_points * nscalars * itemsize
                                for s in incoming
                            ),
                            segments=len(incoming),
                            members=nm,
                        )
        for rank in range(self.namelist.num_ranks):
            for m in range(nm):
                charge_halo_mpi(
                    self.halo_plan,
                    self.comm_cost,
                    self.clocks[m][rank],
                    rank,
                    nscalars,
                    itemsize,
                    self.namelist.num_ranks,
                )

    def _charge_io(self, member: int, charges: list[list[float]]) -> None:
        """Apply one member's per-rank ordered I/O charges."""
        if self._pool is not None:
            states = self._pool.charge_io(charges, member=member)
            for clock, state in zip(self.clocks[member], states):
                clock.restore(*state)
            return
        for clock, rank_charges in zip(self.clocks[member], charges):
            for seconds in rank_charges:
                clock.advance(TimeBucket.IO, seconds)

    def _maybe_history(
        self, force: bool = False
    ) -> list[dict[str, np.ndarray]] | None:
        """Write history for every member if due; charges per-member I/O."""
        interval = self.namelist.history_interval
        due = force or (
            interval > 0.0 and self._sim_time - self._last_history >= interval
        )
        if not due:
            return None
        self._last_history = self._sim_time
        frames: list[dict[str, np.ndarray]] = []
        for m in range(self.namelist.members):
            with tracer.span("history_io", cat="io") as sp:
                frame = self.gather_output(m)
                if self.namelist.history_path is not None:
                    from repro.wrf.io import write_wrfout

                    write_wrfout(
                        f"{self.namelist.history_path}/"
                        f"wrfout_d01_{self.steps_done:06d}_mem{m:02d}",
                        frame,
                        attrs={
                            "title": "repro CONUS-12km",
                            "sim_seconds": self._sim_time,
                            "stage": self.namelist.stage.value,
                            "dx": self.namelist.domain.dx,
                            "member": m,
                        },
                    )
                nbytes = sum(a.nbytes for a in frame.values())
                if sp is not None:
                    sp.set(
                        bytes=nbytes,
                        on_disk=self.namelist.history_path is not None,
                        member=m,
                    )
            local = int(nbytes / self.namelist.num_ranks)
            charges = [
                [self.comm_cost.p2p_time(rank, 0, local)]
                for rank in range(self.namelist.num_ranks)
            ]
            charges[0].append(nbytes / IO_BANDWIDTH)
            self._charge_io(m, charges)
            frames.append(frame)
        return frames

    def gather_output(self, member: int = 0) -> dict[str, np.ndarray]:
        """Assemble one member's domain-wide output fields."""
        dom = self.namelist.domain
        out = {
            "T": np.zeros((dom.nx, dom.nz, dom.ny)),
            "QVAPOR": np.zeros((dom.nx, dom.nz, dom.ny)),
            "W": np.zeros((dom.nx, dom.nz, dom.ny)),
            "QCLOUD_TOTAL": np.zeros((dom.nx, dom.nz, dom.ny)),
            "RAINNC": np.zeros((dom.nx, dom.ny)),
        }
        if self._solo is not None:
            return self._solo[member].gather_output()
        if self._pool is not None:
            frames = self._pool.gather(member=member)
        else:
            frames = [
                rank_output_frame(ens.fields[member]) for ens in self.ranks
            ]
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
        ranks = range(self.namelist.num_ranks)
        if self._executor is None:
            return [stage_fn(rank) for rank in ranks]
        return list(self._executor.map(stage_fn, ranks))

    def step(self) -> list[StepTiming]:
        """Advance all members by one model step; per-member timings."""
        if self._solo is not None:
            timings = [mdl.step() for mdl in self._solo]
            self.steps_done += 1
            return timings
        nm = self.namelist.members
        num_ranks = self.namelist.num_ranks
        before = [[c.snapshot() for c in row] for row in self.clocks]
        with tracer.span("solve_em", attrs=None) as sp:
            if sp is not None:
                sp.set(step=self.steps_done + 1, members=nm)
            if self._pool is not None:
                sbm_stats = self._step_procs()
            else:
                with ExitStack() as stack:
                    for row in self.clocks:
                        for clock in row:
                            stack.enter_context(clock.region("solve_em"))
                    stats_by_rank = self._run_ranks(self._physics)
                    self._exchange_halos()
                    self._run_ranks(self._transport)
                sbm_stats = [
                    [stats_by_rank[r][m] for r in range(num_ranks)]
                    for m in range(nm)
                ]
        self._sim_time += self.namelist.dt
        self.steps_done += 1
        self._maybe_history()

        timings: list[StepTiming] = []
        for m in range(nm):
            after = [c.snapshot() for c in self.clocks[m]]
            charges = [
                RankStepCharge.from_clock_delta(b, a)
                for b, a in zip(before[m], after)
            ]
            elapsed = self.schedulers[m].commit_step(charges)
            timings.append(
                StepTiming(
                    step=self.steps_done,
                    elapsed=elapsed,
                    charges=charges,
                    sbm_stats=sbm_stats[m],
                )
            )
        return timings

    def _step_procs(self) -> list[list[SbmStepStats]]:
        """One step across the worker processes; mirror all clocks."""
        assert self._pool is not None
        nm = self.namelist.members
        results = self._pool.step()
        sbm_stats: list[list[SbmStepStats]] = [[] for _ in range(nm)]
        for rank, member_payloads in enumerate(results):
            for m, (stats, buckets, regions) in enumerate(member_payloads):
                self.clocks[m][rank].restore(buckets, regions)
                sbm_stats[m].append(stats)
        return sbm_stats

    def run(
        self, num_steps: int | None = None, final_history: bool = False
    ) -> list[RunResult]:
        """Run all members; returns one :class:`RunResult` per member."""
        if self._solo is not None:
            return [
                mdl.run(num_steps, final_history) for mdl in self._solo
            ]
        steps = num_steps if num_steps is not None else self.namelist.num_steps
        nm = self.namelist.members
        timings: list[list[StepTiming]] = [[] for _ in range(nm)]
        histories: list[list[dict[str, np.ndarray]]] = [[] for _ in range(nm)]
        for _ in range(steps):
            for m, timing in enumerate(self.step()):
                timings[m].append(timing)
        if final_history:
            frames = self._maybe_history(force=True)
            if frames is not None:
                for m, frame in enumerate(frames):
                    histories[m].append(frame)
        return [
            RunResult(
                namelist=member_namelist(self.namelist, m),
                decomposition=self.decomposition,
                steps_run=steps,
                elapsed=self.schedulers[m].elapsed,
                step_timings=timings[m],
                rank_clocks=self.clocks[m],
                scheduler=self.schedulers[m],
                kernel_records=[
                    [] for _ in range(self.namelist.num_ranks)
                ],
                history=histories[m],
            )
            for m in range(nm)
        ]

    def close(self) -> None:
        """Release the rank executor, worker pool, or solo models."""
        if self._solo is not None:
            for mdl in self._solo:
                mdl.close()
            return
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._pool is not None:
            self._pool.close()
            self._pool = None
