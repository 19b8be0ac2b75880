"""The ``fast_sbm`` driver: Listing 1's grid loops, stage by stage.

One :class:`FastSBM` instance advances a patch's microphysics by one
model step: nucleation -> condensation (``onecond1``/``onecond2``) ->
freezing/melting -> collision–coalescence -> sedimentation, with the
collision part dispatched per optimization stage:

* CPU stages charge the scalar-loop work to the rank clock through the
  Milan cost model;
* offload stages fission the collision loop out (the paper's predicate
  array ``call_coal_bott_new``), move the called points' bin data
  through ``map`` clauses, and launch the kernel on the simulated A100
  — in float32, so device results genuinely differ from host float64.

The driver works in place: the kernels read and write the admitted
points' rows of the rank's storage (the resident superblock's bin
columns, or per-species arrays) through row views, see
:mod:`repro.fsbm.rows` and :func:`step_members`.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from repro.constants import T_COAL_CUTOFF, T_FREEZE_CUTOFF, T_0
from repro.core.clock import SimClock, TimeBucket
from repro.core.costmodel import CpuCostModel
from repro.core.directives import (
    Map,
    MapType,
    TargetTeamsDistributeParallelDo,
)
from repro.core.engine import KernelRecord, OffloadEngine
from repro.core.kernel import Kernel, KernelResources, estimate_registers
from repro.errors import ConfigurationError
from repro.fsbm import ckernels
from repro.fsbm import rows as rowmod
from repro.fsbm.coal_bott import (
    CoalSelection,
    CoalWorkStats,
    coal_bott_step,
    coal_bott_step_members,
    predict_coal_work,
)
from repro.fsbm.collision_kernels import KernelTables, get_tables
# ``onecond1``/``onecond2`` are not called here (the driver routes
# through the member-batched routines) but stay importable from this
# module, where instrumentation wraps the physics entry points by name.
from repro.fsbm.condensation import (  # noqa: F401
    CondWorkStats,
    onecond1,
    onecond1_members,
    onecond2,
    onecond2_members,
)
from repro.fsbm.freezing import FreezeWorkStats, freezing_melting_step
from repro.fsbm.nucleation import NuclWorkStats, jernucl01_ks
from repro.fsbm.sedimentation import (
    SedWorkStats,
    sedimentation_step,
    sedimentation_step_members,
)
from repro.fsbm.species import INTERACTIONS, Species
from repro.fsbm.state import MicroState, N_EPS
from repro.fsbm.thermo import saturation_mixing_ratio
from repro.fsbm.temp_arrays import (
    FRAME_SWEEPS,
    TempArrays,
    automatic_frame_bytes,
    per_point_temp_bytes,
)
from repro.hardware.memory import AccessPattern, TrafficComponent
from repro.optim.stages import STAGE_SPECS, Stage, StageSpec


@dataclass
class SbmStepStats:
    """Per-step accounting returned by :meth:`FastSBM.step`."""

    mp_points: int = 0
    coal_points: int = 0
    coal: CoalWorkStats = field(default_factory=CoalWorkStats)
    cond: CondWorkStats = field(default_factory=CondWorkStats)
    nucl: NuclWorkStats = field(default_factory=NuclWorkStats)
    sed: SedWorkStats = field(default_factory=SedWorkStats)
    freeze: FreezeWorkStats = field(default_factory=FreezeWorkStats)
    coal_record: KernelRecord | None = None
    #: Simulated seconds spent in the collision part this step.
    coal_seconds: float = 0.0
    #: Simulated seconds spent in fast_sbm in total this step.
    fast_sbm_seconds: float = 0.0


class FastSBM:
    """Stage-dispatching FSBM microphysics for one rank's patch."""

    def __init__(
        self,
        stage: Stage,
        dt: float,
        clock: SimClock,
        cpu_cost: CpuCostModel,
        engine: OffloadEngine | None = None,
        tables: KernelTables | None = None,
        precision: str = "fp32",
        offload_condensation: bool = False,
        autocompare: bool = False,
        use_native_physics: bool = True,
    ):
        self.stage = stage
        self.spec: StageSpec = STAGE_SPECS[stage]
        self.dt = dt
        self.clock = clock
        self.cpu_cost = cpu_cost
        self.engine = engine
        self.tables = tables or get_tables()
        self.precision = precision
        #: Sec. VIII's in-progress extension: offload the loops calling
        #: the condensation routines "using a similar approach".
        self.offload_condensation = offload_condensation
        #: ``-gpu=autocompare``: shadow every offloaded collision region
        #: on the host in fp64 and record the per-step agreement.
        self.autocompare = autocompare
        self.autocompare_reports: list = []
        #: Route the physics through the compiled kernels of
        #: :mod:`repro.fsbm.ckernels` (numpy fallback is automatic).
        self.use_native_physics = use_native_physics
        self.temp_arrays: TempArrays | None = None
        if stage.uses_gpu and engine is None:
            raise ConfigurationError(f"stage {stage} requires an offload engine")
        if offload_condensation and not stage.uses_gpu:
            raise ConfigurationError(
                "condensation offload requires a GPU stage"
            )

    # --- cost charging -------------------------------------------------------

    def _charge_cpu(self, flops: float, nbytes: float, iterations: int = 0) -> None:
        self.clock.advance(
            TimeBucket.CPU_COMPUTE, self.cpu_cost.time(flops, nbytes, iterations)
        )

    # --- the step -------------------------------------------------------------

    def step(
        self,
        state: MicroState,
        temperature: np.ndarray,
        pressure_mb: np.ndarray,
        qv: np.ndarray,
        rho_air: np.ndarray,
        dz_cm: float,
    ) -> SbmStepStats:
        """Advance the patch microphysics by ``dt`` (all arrays in place).

        The one-member case of :func:`step_members`.
        """
        return step_members(
            [self],
            [state],
            {sp: d[None] for sp, d in state.dists.items()},
            state.ccn[None],
            state.precip[None],
            temperature[None],
            pressure_mb[None],
            qv[None],
            rho_air[None],
            dz_cm,
        )[0]

    # --- offloaded regions -----------------------------------------------------
    #
    # The offloaded loops run on the device's copy of their points: the
    # ``map(tofrom:)`` transfer is the take of the rows into compact
    # arrays before the launch and the put back after it.

    def _condensation_offloaded(
        self,
        state: MicroState,
        views: dict[Species, np.ndarray],
        rows: np.ndarray,
        g_t: np.ndarray,
        g_p: np.ndarray,
        g_qv: np.ndarray,
        g_rho: np.ndarray,
        g_ccn: np.ndarray,
        warm: np.ndarray,
    ) -> CondWorkStats:
        """Offload the condensation loops (the Sec. VIII extension).

        Same recipe as the collision loop: predict the work, describe
        the kernel (onecond's working arrays are modest — a handful of
        per-bin temporaries — so the frame fits even default stacks),
        launch, run the real numerics in the body.
        """
        assert self.engine is not None
        from repro.fsbm.condensation import FLOPS_PER_BIN

        g_dists = rowmod.take(views, rows)
        npts = int(g_t.shape[0])
        ni, nk, nj = state.shape
        nkr = state.nkr
        species_active = 1 + sum(
            1
            for sp in Species
            if sp is not Species.LIQUID and (g_dists[sp].sum(axis=1) > N_EPS).any()
        )
        predicted_updates = float(npts * nkr * species_active)
        flops = predicted_updates * FLOPS_PER_BIN
        result: list[CondWorkStats] = []

        resources = KernelResources(
            registers_per_thread=estimate_registers(24, 8),
            automatic_array_bytes=8 * nkr * 4,  # growth/remap temporaries
            working_set_per_thread=float(8 * nkr * 4),
            flops=flops,
            traffic=(
                TrafficComponent(
                    name="bin-distributions",
                    pattern=AccessPattern.GLOBAL_COALESCED,
                    read_bytes=predicted_updates * 4.0,
                    write_bytes=predicted_updates * 4.0,
                ),
                TrafficComponent(
                    name="thermo-fields",
                    pattern=AccessPattern.GLOBAL_COALESCED,
                    read_bytes=npts * 4.0 * 5,
                    write_bytes=npts * 4.0 * 2,
                ),
            ),
            active_iterations=npts,
            compute_efficiency=0.10,
            precision=self.precision,
        )
        kernel = Kernel(
            name="onecond_loop",
            loop_extents=(nj, nk, ni),
            resources=resources,
            body=lambda: result.extend(
                _condensation_members(
                    [self], g_dists, None, g_t, g_p, g_qv, g_rho, g_ccn,
                    warm, [(0, npts)], None,
                )
            ),
        )
        directive = TargetTeamsDistributeParallelDo(
            collapse=self.spec.collapse or 3,
            maps=(
                Map(
                    MapType.TOFROM,
                    tuple(f"fsbm_{sp.value}" for sp in Species)
                    + ("t_old", "qv", "ccn"),
                ),
            ),
        )
        to_arrays = {
            f"fsbm_{sp.value}": g_dists[sp] for sp in Species
        }
        to_arrays["t_old"] = g_t
        to_arrays["qv"] = g_qv
        to_arrays["ccn"] = g_ccn
        self.engine.launch(
            kernel,
            directive,
            to_arrays=to_arrays,
            from_names=tuple(to_arrays),
        )
        rowmod.put(views, rows, g_dists)
        return result[0] if result else CondWorkStats()

    def _collisions_offloaded(
        self,
        state: MicroState,
        views: dict[Species, np.ndarray],
        rows: np.ndarray,
        c_t: np.ndarray,
        c_p: np.ndarray,
        occupied: dict[Species, np.ndarray],
        selection: CoalSelection,
    ) -> tuple[CoalWorkStats, KernelRecord]:
        """Stage 2/3: launch the fissioned collision loop on the device."""
        assert self.engine is not None
        spec = self.spec
        ni, nk, nj = state.shape
        nkr = state.nkr

        if spec.stage is Stage.OFFLOAD_COLLAPSE3 and self.temp_arrays is None:
            self.temp_arrays = TempArrays(state.shape)
            self.temp_arrays.allocate(self.engine)

        c_dists = rowmod.take(views, rows)
        work = predict_coal_work(
            c_dists, c_t, self.tables, INTERACTIONS, occupied, on_demand=True,
            selection=selection,
        )
        npts = int(c_t.shape[0])
        resources = self._coal_resources(work, npts, nkr)
        device_dtype = np.float32 if self.precision == "fp32" else np.float64
        binds: list[int] = []

        def body() -> None:
            shadow = None
            if self.autocompare:
                shadow = {sp: d.copy() for sp, d in c_dists.items()}
                coal_bott_step(
                    shadow,
                    c_t,
                    c_p,
                    self.dt,
                    self.tables,
                    INTERACTIONS,
                    occupied=occupied,
                    on_demand=True,
                    dtype=np.float64,
                    selection=selection,
                    native=self.use_native_physics,
                )
            binds.append(
                coal_bott_step(
                    c_dists,
                    c_t,
                    c_p,
                    self.dt,
                    self.tables,
                    INTERACTIONS,
                    occupied=occupied,
                    on_demand=True,
                    dtype=device_dtype,
                    selection=selection,
                    native=self.use_native_physics,
                ).limiter_binds
            )
            if shadow is not None:
                from repro.core.autocompare import autocompare_region

                self.autocompare_reports.append(
                    autocompare_region(
                        "coal_bott_new_loop",
                        host_outputs={sp.value: d for sp, d in shadow.items()},
                        device_outputs={
                            sp.value: d for sp, d in c_dists.items()
                        },
                    )
                )

        kernel = Kernel(
            name="coal_bott_new_loop",
            loop_extents=(nj, nk, ni),
            resources=resources,
            body=body,
        )
        field_names = tuple(f"fsbm_{sp.value}" for sp in Species)
        directive = TargetTeamsDistributeParallelDo(
            collapse=spec.collapse,
            maps=(
                Map(MapType.TOFROM, field_names),
                Map(MapType.TO, ("t_old", "p_mb", "call_coal_bott_new")),
            ),
            private=("i", "k", "j"),
        )
        to_arrays = {
            name: c_dists[sp] for name, sp in zip(field_names, Species)
        }
        to_arrays["t_old"] = c_t
        to_arrays["p_mb"] = c_p
        to_arrays["call_coal_bott_new"] = np.ones(npts)
        record = self.engine.launch(
            kernel, directive, to_arrays=to_arrays, from_names=field_names
        )
        rowmod.put(views, rows, c_dists)
        work.limiter_binds = sum(binds)
        return work, record

    def _coal_resources(
        self, work: CoalWorkStats, npts: int, nkr: int
    ) -> KernelResources:
        """Resource descriptor for the collision kernel at this stage."""
        return coal_kernel_resources(
            self.spec, work, npts, nkr, precision=self.precision
        )


def coal_kernel_resources(
    spec: StageSpec,
    work: CoalWorkStats,
    npts: int,
    nkr: int,
    precision: str = "fp32",
) -> KernelResources:
    """Resource/traffic descriptor for one collision-loop launch.

    Shared by the live driver and the cost-projection harness so both
    price the kernel identically. ``npts`` is the number of grid points
    the predicate actually admits.
    """
    frame = automatic_frame_bytes() if spec.automatic_arrays else 0
    registers = estimate_registers(
        spec.n_scalars, spec.n_array_vars, pointer_based=spec.pointer_based
    )
    frame_traffic = float(npts) * per_point_temp_bytes() * FRAME_SWEEPS
    if spec.automatic_arrays:
        frame_pattern = AccessPattern.THREAD_SEQUENTIAL
    else:
        # Stage 3's *_temp arrays are global and grid-point strided.
        frame_pattern = AccessPattern.GLOBAL_STRIDED
    traffic = (
        TrafficComponent(
            name="work-arrays",
            pattern=frame_pattern,
            read_bytes=frame_traffic * 0.6,
            write_bytes=frame_traffic * 0.4,
        ),
        TrafficComponent(
            name="kernel-tables",
            pattern=AccessPattern.BROADCAST,
            read_bytes=work.kernel_entries * 8.0,
            write_bytes=0.0,
        ),
        TrafficComponent(
            name="bin-distributions",
            pattern=AccessPattern.GLOBAL_COALESCED,
            read_bytes=float(npts) * nkr * len(Species) * 4.0,
            write_bytes=float(npts) * nkr * len(Species) * 4.0,
        ),
    )
    return KernelResources(
        registers_per_thread=registers,
        automatic_array_bytes=frame,
        working_set_per_thread=float(per_point_temp_bytes()),
        flops=work.flops,
        traffic=traffic,
        active_iterations=npts,
        compute_efficiency=0.10,
        precision=precision,
    )


# --- the driver -----------------------------------------------------------------
#
# One fused microphysics sweep over N members (N = 1 for a solo patch)
# resident in their storage. Nothing is gathered: the step builds one
# row list of the admitted cells, member-major, and every kernel works
# on those rows of the row views (:mod:`repro.fsbm.rows`) in place.
# Only the five per-point thermodynamic scalars (t, p, qv, rho, ccn)
# are taken into compact arrays and t, qv, ccn put back at the end.
#
# The batching discipline, derived from what is and is not bitwise
# row-stable in numpy and BLAS:
#
# * elementwise ufuncs, takes/puts in C order, per-row ``sum(axis=1)``
#   reductions and the compiled row kernels run once over the member
#   concatenation (each member's rows come out bit-for-bit);
# * anything BLAS (`@`) and any branch whose predicate spans rows runs
#   per member (see ``coal_bott_step_members`` /
#   ``_condensation_core_members``; freezing's work gates are per call,
#   so it is called per member).
#
# Per-member ``SimClock`` charges replicate a solo step's region keys
# and amounts exactly: a ``region`` context that charges nothing leaves
# no trace, so only charge placement matters.


def _occupied_rows(dists: dict[Species, np.ndarray]) -> dict[Species, np.ndarray]:
    """Occupied-bin counts per species (row-local; any member mix)."""
    out: dict[Species, np.ndarray] = {}
    for sp, d in dists.items():
        present = d > N_EPS
        rev = present[:, ::-1]
        first = np.argmax(rev, axis=1)
        out[sp] = np.where(present.any(axis=1), d.shape[1] - first, 0)
    return out


@dataclass
class RowCensus:
    """What the driver needs to know about its rows, per species."""

    #: Bin sums, numpy's ``sum(axis=1)`` bit for bit.
    sums: dict[Species, np.ndarray]
    #: Highest bin above ``N_EPS`` plus one (0 when none).
    occupied: dict[Species, np.ndarray]
    #: Whether any bin of the species is nonzero.
    nonzero: dict[Species, np.ndarray]


def _census(lib, views: dict[Species, np.ndarray], rows: np.ndarray) -> RowCensus:
    """The row census: one compiled pass, or numpy on a take."""
    if lib is not None:
        sums, occ, nz = ckernels.census_rows(
            lib, [views[sp] for sp in Species], rows, N_EPS
        )
        return RowCensus(
            sums=dict(zip(Species, sums)),
            occupied=dict(zip(Species, occ)),
            nonzero={
                sp: (nz & (1 << s)).astype(bool) for s, sp in enumerate(Species)
            },
        )
    compact = rowmod.take(views, rows)
    return RowCensus(
        sums={sp: d.sum(axis=1) for sp, d in compact.items()},
        occupied=_occupied_rows(compact),
        nonzero={sp: d.any(axis=1) for sp, d in compact.items()},
    )


def _mp_gate(
    states: list[MicroState],
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    qv: np.ndarray,
) -> np.ndarray:
    """Cells the microphysics touches: warm enough, and either carrying
    condensate or saturated enough to form some. (The Fortran scans
    every cell — charged by the caller — but only these do real work
    inside the conditionals.) The condensate is one BLAS matvec per
    member over the packed bins (:meth:`MicroState.total_condensate_mass`):
    on the storm forecast patch it measured 1.3–1.8 ms against 2.9–3.3
    ms for a compiled per-cell contraction (2-vCPU Xeon)."""
    qs = saturation_mixing_ratio(temperature, pressure_mb)
    condensate = np.empty(temperature.shape)
    for m, state in enumerate(states):
        condensate[m] = state.total_condensate_mass()
    return (temperature > T_FREEZE_CUTOFF) & (
        (condensate > N_EPS) | (qv > 0.98 * qs)
    )


def _condensation_members(
    sbms: list[FastSBM],
    dists: dict[Species, np.ndarray],
    rows: np.ndarray | None,
    g_t: np.ndarray,
    g_p: np.ndarray,
    g_qv: np.ndarray,
    g_rho: np.ndarray,
    g_ccn: np.ndarray,
    warm: np.ndarray,
    segments: list[tuple[int, int]],
    sp_present: list[dict[Species, bool]] | None,
    row_sums: dict[Species, np.ndarray] | None = None,
) -> list[CondWorkStats]:
    """Warm/mixed-phase routing over the member concatenation.

    The warm and cold subsets are selected over all members at once
    (member-major order is preserved by ``flatnonzero``); their
    thermodynamic scalars are taken, handed with the subset's rows to
    the member-batched onecond cores, and put back. ``rows`` is None
    when ``dists`` are compact per-point arrays. ``sp_present=None``
    treats every species as possibly present; ``row_sums`` (per point,
    e.g. the row census) spares the cores their own row sums.
    """
    nm = len(segments)
    totals = [CondWorkStats() for _ in range(nm)]
    starts = [s for s, _ in segments]
    stops = [e for _, e in segments]
    for mask, routine in ((warm, onecond1_members), (~warm, onecond2_members)):
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            continue
        los = np.searchsorted(idx, starts)
        his = np.searchsorted(idx, stops)
        sub_segments = [(int(lo), int(hi)) for lo, hi in zip(los, his)]
        t_s, qv_s, ccn_s = g_t[idx], g_qv[idx], g_ccn[idx]
        part = routine(
            dists, t_s, g_p[idx], qv_s, g_rho[idx], ccn_s, sbms[0].dt,
            sub_segments,
            species_present=sp_present,
            native=sbms[0].use_native_physics,
            rows=idx if rows is None else rows[idx],
            row_sums=None if row_sums is None else {
                sp: sums[idx] for sp, sums in row_sums.items()
            },
        )
        g_t[idx], g_qv[idx], g_ccn[idx] = t_s, qv_s, ccn_s
        for m in range(nm):
            totals[m].merge(part[m])
    return totals


def step_members(
    sbms: list[FastSBM],
    states: list[MicroState],
    dists_stacked: dict[Species, np.ndarray],
    ccn_stacked: np.ndarray,
    precip_stacked: np.ndarray,
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    qv: np.ndarray,
    rho_air: np.ndarray,
    dz_cm: float,
    pressure_levels: list[np.ndarray] | None = None,
) -> list[SbmStepStats]:
    """Advance N members' microphysics in one fused sweep, in place.

    ``sbms[m]``/``states[m]`` are member ``m``'s driver (own clock) and
    micro state; the stacked arrays are ``(nm, ...)`` member-major
    views whose slice ``[m]`` aliases that member's patch arrays (a
    solo patch is ``nm = 1``, :meth:`FastSBM.step`).
    ``pressure_levels`` optionally supplies each member's base-state
    pressure column exactly as a solo step derives it (callers whose
    stacked ``pressure_mb`` is a materialized copy should pass it so
    the column mean is taken over the member's own layout).

    Member ``m``'s fields, work stats, and per-rank clock charges are
    bit-identical to a solo step of that member. GPU stages (the
    offloaded collision and condensation regions) run for one member.
    """
    nm = len(sbms)
    lead = sbms[0]
    if nm > 1 and any(s.stage.uses_gpu or s.offload_condensation for s in sbms):
        raise ConfigurationError(
            "ensemble member batching supports CPU stages only"
        )
    ni, nk, nj = states[0].shape
    npatch = ni * nk * nj
    dt = lead.dt
    native = lead.use_native_physics
    lib = ckernels.load_kernels() if native else None
    stats_list = [SbmStepStats() for _ in range(nm)]
    step_start = [sbm.clock.total for sbm in sbms]
    views, coef = rowmod.row_views(dists_stacked)
    if lib is not None and not ckernels.addressable(views.values()):
        # Rows the compiled kernels cannot address (more than MAX_NKR
        # bins, non-float64 storage): the numpy kernels run instead.
        lib, native = None, False

    with ExitStack() as stack:
        for sbm in sbms:
            stack.enter_context(sbm.clock.region("fast_sbm"))
        for sbm in sbms:
            # The i,k,j scan of Listing 1 (conditional tests at every cell).
            sbm._charge_cpu(2.0 * npatch, 8.0 * npatch, iterations=npatch)

        mp_mask = _mp_gate(states, temperature, pressure_mb, qv)
        midx = np.nonzero(mp_mask)
        counts = np.bincount(midx[0], minlength=nm)
        offs = np.zeros(nm + 1, dtype=np.int64)
        np.cumsum(counts, out=offs[1:])
        segments = [(int(offs[m]), int(offs[m + 1])) for m in range(nm)]
        for m in range(nm):
            stats_list[m].mp_points = int(counts[m])

        if offs[-1]:
            rows = rowmod.cell_rows(coef, midx)
            g_t = temperature[midx]
            g_p = pressure_mb[midx]
            g_qv = qv[midx]
            g_rho = rho_air[midx]
            g_ccn = ccn_stacked[midx]

            # --- nucleation (one row-local pass over all members) ------
            jernucl01_ks(
                views, g_t, g_p, g_qv, g_rho, g_ccn, dt, rows=rows, native=native
            )
            for m, (s, e) in enumerate(segments):
                if e == s:
                    continue
                stats_list[m].nucl = NuclWorkStats(points=e - s)
                with sbms[m].clock.region("jernucl01_ks"):
                    sbms[m]._charge_cpu(
                        stats_list[m].nucl.flops,
                        stats_list[m].nucl.bytes_moved,
                    )

            # --- condensation ------------------------------------------
            census = _census(lib, views, rows)
            sp_present = [
                {sp: bool(census.nonzero[sp][s:e].any()) for sp in Species}
                for (s, e) in segments
            ]
            ice_present = np.zeros(rows.shape[0], dtype=bool)
            for sp in Species:
                if sp is Species.LIQUID:
                    continue
                hot = census.sums[sp] > N_EPS
                for m, (s, e) in enumerate(segments):
                    if e > s and sp_present[m][sp]:
                        ice_present[s:e] |= hot[s:e]
            warm = (g_t > T_0 - 5.0) & ~ice_present
            if lead.offload_condensation:
                with lead.clock.region("onecond"):
                    stats_list[0].cond = lead._condensation_offloaded(
                        states[0], views, rows, g_t, g_p, g_qv, g_rho, g_ccn,
                        warm,
                    )
            else:
                cond_list = _condensation_members(
                    sbms, views, rows, g_t, g_p, g_qv, g_rho, g_ccn, warm,
                    segments, sp_present, census.sums,
                )
                for m, (s, e) in enumerate(segments):
                    if e == s:
                        continue
                    stats_list[m].cond = cond_list[m]
                    with sbms[m].clock.region("onecond"):
                        sbms[m]._charge_cpu(
                            cond_list[m].flops, cond_list[m].bytes_moved
                        )

            # --- freezing / melting (work gates per call: per member) --
            for m, (s, e) in enumerate(segments):
                if e == s:
                    continue
                with sbms[m].clock.region("freezing"):
                    stats_list[m].freeze = freezing_melting_step(
                        views, g_t[s:e], g_rho[s:e], dt, rows=rows[s:e],
                        native=native,
                    )
                    sbms[m]._charge_cpu(
                        stats_list[m].freeze.flops,
                        stats_list[m].freeze.bytes_moved,
                    )

            # --- collision–coalescence ---------------------------------
            census = _census(lib, views, rows)
            condensate = np.zeros(rows.shape[0])
            for sp in Species:
                condensate += census.sums[sp]
            # The paper's predicate array call_coal_bott_new(i,k,j).
            cidx = np.flatnonzero((g_t > T_COAL_CUTOFF) & (condensate > N_EPS))
            clos = np.searchsorted(cidx, [s for s, _ in segments])
            chis = np.searchsorted(cidx, [e for _, e in segments])
            if cidx.size:
                c_t = g_t[cidx]
                c_p = g_p[cidx]
                c_rows = rows[cidx]
                occupied = {sp: o[cidx] for sp, o in census.occupied.items()}
                # One selection for the whole step: the work prediction
                # and the update (and its fp64 shadow) all test the same
                # pre-step state.
                selection = CoalSelection(
                    c_t, {sp: s_arr[cidx] for sp, s_arr in census.sums.items()}, {}
                )
                if not lead.stage.uses_gpu:
                    works = coal_bott_step_members(
                        views, c_t, c_p, dt, lead.tables, INTERACTIONS,
                        [(int(lo), int(hi)) for lo, hi in zip(clos, chis)],
                        occupied=occupied,
                        on_demand=lead.stage.on_demand_kernels,
                        selection=selection,
                        native=native,
                        rows=c_rows,
                    )
            for m, (s, e) in enumerate(segments):
                if e == s:
                    continue
                clock = sbms[m].clock
                with clock.region("coal_bott_new"):
                    before = clock.total
                    if chis[m] > clos[m]:
                        stats_list[m].coal_points = int(chis[m] - clos[m])
                        if lead.stage.uses_gpu:
                            stats_list[m].coal, stats_list[m].coal_record = (
                                lead._collisions_offloaded(
                                    states[0], views, c_rows, c_t, c_p,
                                    occupied, selection,
                                )
                            )
                        else:
                            w = stats_list[m].coal = works[m]
                            sbms[m]._charge_cpu(
                                w.flops, w.bytes_moved,
                                iterations=int(w.pair_entries),
                            )
                    stats_list[m].coal_seconds = clock.total - before

            temperature[midx] = g_t
            qv[midx] = g_qv
            ccn_stacked[midx] = g_ccn

        # --- sedimentation (full field, compiled member loop) ----------
        if pressure_levels is None:
            pressure_levels = [
                pressure_mb[m].mean(axis=(0, 2)) for m in range(nm)
            ]
        shared_col = all(
            np.array_equal(pressure_levels[0], pl)
            for pl in pressure_levels[1:]
        )
        if shared_col and native:
            with ExitStack() as sed_stack:
                for sbm in sbms:
                    sed_stack.enter_context(sbm.clock.region("sedimentation"))
                sed_list = sedimentation_step_members(
                    states, dists_stacked, precip_stacked,
                    pressure_levels[0], dz_cm, dt, native=True,
                )
                for m, sbm in enumerate(sbms):
                    stats_list[m].sed = sed_list[m]
                    sbm._charge_cpu(
                        sed_list[m].flops, sed_list[m].bytes_moved
                    )
        else:
            # Divergent base-state columns: per-member solo sweeps (the
            # courant table is column-specific).
            for m, sbm in enumerate(sbms):
                with sbm.clock.region("sedimentation"):
                    stats_list[m].sed = sedimentation_step(
                        states[m], pressure_levels[m], dz_cm, dt,
                        native=sbm.use_native_physics,
                    )
                    sbm._charge_cpu(
                        stats_list[m].sed.flops, stats_list[m].sed.bytes_moved
                    )

    for m, sbm in enumerate(sbms):
        stats_list[m].fast_sbm_seconds = sbm.clock.total - step_start[m]
    return stats_list
