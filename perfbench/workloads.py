"""The benchmark's three workloads, driven through the program's public API.

Each workload builds its namelists from the workload seed and hands the
program nothing else. Program functions are always reached through
their module attributes at call time (``model_mod.WrfModel``,
``io_mod.write_wrfout``), so the traced run's wrappers see every call.

storm_forecast
    One storm-dense forecast on one in-process rank, history frames on
    disk every two steps: the paper's hot path (fsbm collisions,
    condensation, sedimentation, fused transport). Case building, caches
    and JIT loads all happen at set-up, so the timed phase is stepping
    and history I/O only.
ensemble_ranks
    Four perturbed members batched in one EnsembleModel over two
    process ranks: member batching, the lockstep pipes of the process
    pool and the halo exchange between ranks' shared superblocks.
scenario_stream
    A closed loop with one client sending short, distinct scenario
    requests in seeded cycles: each forecast builds its case (two domain
    sizes, sparse to dense storms, one in eight requests offloaded), runs
    a few steps and writes its final frame; each compare reads two
    earlier outputs back and diffs them. Case building, caches and I/O
    dominate here. The timed phase ends on a cycle boundary, so every
    run measures the same mix.

NOTES.md says why the forecast workloads use storm-dense cases.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from importlib import import_module
from time import perf_counter

import numpy as np

from checks import Check, agreement, reference_frame
from layers import LayerTracer, Target

#: Steps per history frame; a forecast workload's request is one frame.
HISTORY_STEPS = 2
#: A forecast workload checks its first history frame at or after this
#: step, whatever step the timed phase reached: the check's cost and the
#: drift it has to tolerate do not depend on the program's speed.
CHECK_STEP = 10
#: Bubbles per 10^4 horizontal cells for a storm-dense case: saturates
#: the small domains, so work per step does not depend on the seed.
DENSE_BUBBLES = 400.0
STORM_SCALE = 0.04
ENSEMBLE_SCALE = 0.03
ENSEMBLE_MEMBERS = 4
ENSEMBLE_RANKS = 2
STREAM_SCALES = {"small": 0.03, "large": 0.05}
#: Steps per forecast request by domain size: the large domain's steps
#: cost about twice the small one's, so requests of both sizes take
#: similar time and the latency distribution has one forecast mode.
STREAM_STEPS = {"small": 4, "large": 2}
#: Storm density range of CPU forecasts: sparse (one bubble) to
#: saturated. The log range is cut into one stratum per CPU forecast of
#: a size in a cycle, and each forecast takes its stratum's midpoint, so
#: every cycle has the same densities; bubble placement is drawn per
#: request. A request's time varies widely with its density, and fixed
#: densities keep that out of the seed-to-seed spread.
STREAM_BUBBLES = (12.0, 500.0)
#: Storm density of the stream's warm-up models, fixed so that set-up
#: does the same work whatever the seed (the log-range midpoint).
STREAM_WARMUP_BUBBLES = 77.5
#: Forecasts per size in one cycle.
STREAM_PER_SIZE = 3
#: One forecast per cycle runs offloaded, storm-dense (the paper's case),
#: on this domain size. What an offloaded forecast leaves in the process
#: grows with its storm and domain: offloading large domains too made
#: the stream's peak RSS 181-238 MB from seed to seed, small only
#: 162-170 MB (NOTES.md).
STREAM_OFFLOAD_SIZE = "small"
STREAM_COMPARES = 2


@dataclass
class Request:
    """What one request did, as the client saw it."""

    #: Request kind, e.g. ``forecast-small`` or ``compare``.
    kind: str = ""
    wall_s: float = 0.0
    step_s: list[float] = field(default_factory=list)
    #: Per step: whether it wrote a history frame.
    step_io: list[bool] = field(default_factory=list)
    #: Forecast seconds advanced, summed over members.
    sim_s: float = 0.0
    mp_points: int = 0
    coal_points: int = 0
    #: Owned cells x members x steps, the base of ``coal_share``.
    cell_steps: int = 0
    #: Superblock bytes the transport sweeps read and wrote (computed).
    transport_bytes: float = 0.0
    traced: bool = False
    failed: str = ""


def _step_counts(req: Request, timings, dt: float, cells: int) -> None:
    """Fold one model step's per-member, per-rank stats into ``req``."""
    for timing in timings:
        req.sim_s += dt
        req.cell_steps += cells
        for stats in timing.sbm_stats:
            req.mp_points += stats.mp_points
            req.coal_points += stats.coal_points


def _transport_bytes(decomposition, members: int) -> float:
    """Superblock read + write of one Euler transport sweep, all ranks."""
    from repro.wrf.state import superblock_scalar_count

    ns = superblock_scalar_count()
    cells = sum(int(np.prod(p.shape)) for p in decomposition.patches)
    return 2.0 * cells * ns * 8.0 * members


def _dense(bubbles: float = DENSE_BUBBLES) -> tuple:
    return (("bubbles_per_1e4_cells", float(bubbles)),)


class Workload:
    """Shared shape of a workload: set-up, requests, checks."""

    name = ""
    #: The traced run's unit of per-layer normalisation.
    root_kind = "step"
    #: Abort the timed phase on the first failed request.
    abort_on_failure = True
    #: Requests per block: the timed phase ends, and a traced run
    #: switches between traced and untraced requests, only between blocks.
    block = 1
    #: Members per model step.
    members = 1
    #: Halo traffic of one step (bytes, segments), zero without halos.
    halo_per_step = (0.0, 0)

    def __init__(self, seed: int, run_dir):
        self.run_dir = run_dir
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.model = None
        self.sim_step_s = 0.0
        #: Steps that wrote a history frame.
        self.history_steps: list[int] = []

    def setup(self) -> None:
        raise NotImplementedError

    def request(self, tracer: LayerTracer | None) -> Request:
        """One history interval: ``HISTORY_STEPS`` steps, one frame written.

        With a tracer, each step is a root span of the traced run.
        """
        req = Request(kind="interval")
        t0 = perf_counter()
        for _ in range(HISTORY_STEPS):
            if tracer is not None:
                with tracer.root("step") as span:
                    timings = self.model.step()
                req.step_s.append(span.duration)
            else:
                s0 = perf_counter()
                timings = self.model.step()
                req.step_s.append(perf_counter() - s0)
            req.step_io.append(self._wrote_history())
            if not isinstance(timings, list):
                timings = [timings]
            _step_counts(req, timings, self.namelist.dt, self.cells)
            req.transport_bytes += self._sweep_bytes
        req.wall_s = perf_counter() - t0
        return req

    def history_file(self, step: int, member: int = 0):
        """Path of the history frame ``step`` wrote (of ``member``)."""
        raise NotImplementedError

    def _wrote_history(self) -> bool:
        step = self.model.steps_done
        wrote = self.history_file(step).exists()
        if wrote:
            self.history_steps.append(step)
        return wrote

    def checked_frame(self, member: int = 0) -> tuple[int, dict]:
        """The first history frame at or after ``CHECK_STEP``, from disk.

        Steps on, untimed, when the timed phase ended before it.
        """
        from repro.wrf import io as io_mod

        while not any(s >= CHECK_STEP for s in self.history_steps):
            self.model.step()
            self._wrote_history()
        step = min(s for s in self.history_steps if s >= CHECK_STEP)
        frame, _ = io_mod.read_wrfout(self.history_file(step, member))
        return step, frame

    def finish(self) -> list[Check]:
        """Collect outputs, release the model, compare with references."""
        raise NotImplementedError

    def teardown(self) -> None:
        if self.model is not None:
            self.model.close()
            self.model = None

    def superblock_bytes(self) -> int:
        from repro.wrf.state import superblock_scalar_count

        return self.cells * superblock_scalar_count() * 8 * self.members


class StormForecast(Workload):
    name = "storm_forecast"

    def __init__(self, seed: int, run_dir):
        super().__init__(seed, run_dir)
        from repro.constants import CONUS12KM_DT
        from repro.optim.stages import Stage
        from repro.wrf.namelist import conus12km_namelist

        self.namelist = conus12km_namelist(
            scale=STORM_SCALE,
            num_ranks=1,
            stage=Stage.LOOKUP,
            seed=int(self.rng.integers(1, 2**31 - 1)),
            member_deltas=(_dense(),),
            history_interval=HISTORY_STEPS * CONUS12KM_DT,
            history_path=str(run_dir / "history"),
        )
        dom = self.namelist.domain
        self.cells = dom.nx * dom.nz * dom.ny

    def setup(self) -> None:
        from repro.wrf import model as model_mod

        self.model = model_mod.WrfModel(self.namelist)
        self._sweep_bytes = _transport_bytes(self.model.decomposition, 1)
        self.sim_step_s = self.model.run(1).per_step_elapsed

    def history_file(self, step: int, member: int = 0):
        return self.run_dir / "history" / f"wrfout_d01_{step:06d}.npz"

    def finish(self) -> list[Check]:
        step, frame = self.checked_frame()
        self.teardown()
        ref = reference_frame(self.namelist, step)
        return [agreement(f"storm_forecast history frame, step {step}", frame, ref)]


class EnsembleRanks(Workload):
    name = "ensemble_ranks"
    members = ENSEMBLE_MEMBERS

    def __init__(self, seed: int, run_dir):
        super().__init__(seed, run_dir)
        from repro.constants import CONUS12KM_DT
        from repro.optim.stages import Stage
        from repro.wrf.namelist import conus12km_namelist

        rng = self.rng
        perturb = (
            ("bubble_dtheta", float(rng.uniform(2.5, 3.5))),
            ("ccn_background", float(rng.uniform(60.0, 160.0))),
            ("moisture_boost", float(rng.uniform(1.25, 1.45))),
            ("seed_offset", int(rng.integers(1, 10_000))),
        )
        self.namelist = conus12km_namelist(
            scale=ENSEMBLE_SCALE,
            num_ranks=ENSEMBLE_RANKS,
            stage=Stage.LOOKUP,
            seed=int(rng.integers(1, 2**31 - 1)),
            members=ENSEMBLE_MEMBERS,
            member_deltas=tuple((*_dense(), p) for p in perturb),
            use_process_ranks=True,
            history_interval=HISTORY_STEPS * CONUS12KM_DT,
            history_path=str(run_dir / "history"),
        )
        self.check_member = int(rng.integers(0, ENSEMBLE_MEMBERS))
        dom = self.namelist.domain
        self.cells = dom.nx * dom.nz * dom.ny

    def setup(self) -> None:
        from repro.wrf import ensemble as ensemble_mod
        from repro.wrf.state import superblock_scalar_count

        self.model = ensemble_mod.EnsembleModel(self.namelist)
        plan = self.model.halo_plan
        ns = superblock_scalar_count()
        self.halo_per_step = (
            float(plan.bytes_moved(itemsize=8, nfields=ns) * self.members),
            len(plan.segments),
        )
        self._sweep_bytes = _transport_bytes(self.model.decomposition, self.members)
        self.sim_step_s = self.model.run(1)[0].per_step_elapsed

    def history_file(self, step: int, member: int = 0):
        return self.run_dir / "history" / f"wrfout_d01_{step:06d}_mem{member:02d}.npz"

    def finish(self) -> list[Check]:
        from repro.wrf.namelist import member_namelist

        m = self.check_member
        step, frame = self.checked_frame(m)
        # The reference steps in this process, so it runs only after the
        # pool is closed: no worker may be forked after an in-process step
        # (NOTES.md, "Forking after OpenMP").
        self.teardown()
        ref = reference_frame(member_namelist(self.namelist, m), step)
        return [agreement(f"ensemble_ranks member {m} history frame, step {step}", frame, ref)]


def _digest(frame: dict) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(frame):
        h.update(name.encode())
        h.update(np.ascontiguousarray(frame[name]).tobytes())
    return h.hexdigest()


class ScenarioStream(Workload):
    name = "scenario_stream"
    root_kind = "request"
    abort_on_failure = False
    #: Whole cycles: every run measures the same request mix.
    block = len(STREAM_SCALES) * STREAM_PER_SIZE + STREAM_COMPARES

    def __init__(self, seed: int, run_dir):
        super().__init__(seed, run_dir)
        self._queue: list = []
        self._index = 0
        #: size -> [(path, digest)] of written outputs, oldest first.
        self.outputs: dict[str, list[tuple[str, str]]] = {s: [] for s in STREAM_SCALES}
        #: First timed forecast per (size, offload): (namelist, steps, frame).
        self.checked: dict[tuple, tuple] = {}
        from repro.wrf.namelist import conus12km_namelist

        #: One warm-up model per domain size, built and stepped in set-up.
        self.warmup = [self._namelist(size, STREAM_WARMUP_BUBBLES) for size in STREAM_SCALES]
        self.namelist = self.warmup[0]
        large = conus12km_namelist(scale=STREAM_SCALES["large"]).domain
        #: The largest request's cells, for the superblock size.
        self.cells = large.nx * large.nz * large.ny

    def _namelist(self, size: str, bubbles: float | None):
        """A forecast request's namelist; ``bubbles=None`` means offloaded."""
        from repro.optim.stages import Stage
        from repro.wrf.namelist import conus12km_namelist

        offload = bubbles is None
        if offload:
            bubbles, stage = DENSE_BUBBLES, Stage.OFFLOAD_COLLAPSE3
        else:
            stage = Stage.LOOKUP
        return conus12km_namelist(
            scale=STREAM_SCALES[size],
            num_ranks=1,
            stage=stage,
            num_gpus=1 if offload else 0,
            seed=int(self.rng.integers(1, 2**31 - 1)),
            member_deltas=(_dense(bubbles),),
        )

    def _cycle(self) -> list:
        """One seeded cycle of requests.

        Compares go after the third forecast of the cycle: by then two
        outputs of one domain size exist, so a compare never waits.
        """
        rng = self.rng
        forecasts = []
        lo, hi = np.log(STREAM_BUBBLES)
        for size in STREAM_SCALES:
            offload = size == STREAM_OFFLOAD_SIZE
            cpu = STREAM_PER_SIZE - offload
            for j in range(cpu):
                bubbles = float(np.exp(lo + (j + 0.5) * (hi - lo) / cpu))
                forecasts.append((size, False, self._namelist(size, bubbles)))
            if offload:
                forecasts.append((size, True, self._namelist(size, None)))
        cycle = [("forecast", forecasts[i]) for i in rng.permutation(len(forecasts))]
        slots = sorted(rng.integers(3, len(cycle) + 1, size=STREAM_COMPARES))
        for offset, slot in enumerate(slots):
            cycle.insert(int(slot) + offset, ("compare", None))
        return cycle

    def setup(self) -> None:
        """Server warm-up: one model per domain size built and stepped once.

        ``sim_step_s`` is the small domain's.
        """
        from repro.wrf import model as model_mod

        for nl in reversed(self.warmup):
            warm = model_mod.WrfModel(nl)
            try:
                self.sim_step_s = warm.run(1).per_step_elapsed
            finally:
                warm.close()

    def request(self, tracer) -> Request:
        if not self._queue:
            self._queue = self._cycle()
        kind, spec = self._queue.pop(0)
        self._index += 1
        if kind == "forecast":
            size, offload, _ = spec
            kind = f"{'offload' if offload else 'forecast'}-{size}"
        req = Request(kind=kind)
        t0 = perf_counter()
        if tracer is not None:
            with tracer.root("request"):
                self._serve(kind, spec, req)
        else:
            self._serve(kind, spec, req)
        req.wall_s = perf_counter() - t0
        return req

    def _serve(self, kind, spec, req: Request) -> None:
        from repro.wrf import io as io_mod
        from repro.wrf import model as model_mod

        # ``repro.wrf.diffwrf`` the attribute is the function; the module
        # is what the traced run wraps.
        diffwrf_mod = import_module("repro.wrf.diffwrf")
        if kind == "compare":
            sizes = [s for s, outs in self.outputs.items() if len(outs) >= 2]
            size = sizes[int(self.rng.integers(0, len(sizes)))]
            (path_a, digest_a), (path_b, digest_b) = self.outputs[size][-2:]
            a, _ = io_mod.read_wrfout(path_a)
            b, _ = io_mod.read_wrfout(path_b)
            if _digest(a) != digest_a or _digest(b) != digest_b:
                req.failed = "compare: a frame read back differs from the one written"
                return
            diffwrf_mod.diffwrf(a, b)
            return
        size, offload, nl = spec
        steps = STREAM_STEPS[size]
        model = model_mod.WrfModel(nl)
        try:
            dom = nl.domain
            cells = dom.nx * dom.nz * dom.ny
            for _ in range(steps):
                s0 = perf_counter()
                timing = model.step()
                req.step_s.append(perf_counter() - s0)
                req.step_io.append(False)
                _step_counts(req, [timing], nl.dt, cells)
            req.transport_bytes += steps * _transport_bytes(model.decomposition, 1)
            frame = model.gather_output()
        finally:
            model.close()
        path = io_mod.write_wrfout(
            self.run_dir / f"request_{self._index:05d}",
            frame,
            attrs={"request": self._index, "size": size, "offload": offload},
        )
        self.outputs[size].append((str(path), _digest(frame)))
        self.checked.setdefault((size, offload), (nl, steps, frame))

    def finish(self) -> list[Check]:
        checks = []
        for (size, offload), (nl, steps, frame) in self.checked.items():
            label = f"scenario_stream first {size}{' offload' if offload else ''} forecast"
            checks.append(agreement(label, frame, reference_frame(nl, steps)))
        return checks


WORKLOADS = {w.name: w for w in (StormForecast, EnsembleRanks, ScenarioStream)}


# --- the traced run's layer table -----------------------------------------------


def _sum(attr: str):
    """Counts from a work-stats result or a per-member list of them."""

    def counts(args, kwargs, result) -> dict[str, float]:
        items = result if isinstance(result, list) else [result]
        return {attr: float(sum(getattr(r, attr) for r in items))}

    return counts


def _coal_counts(args, kwargs, result) -> dict[str, float]:
    items = result if isinstance(result, list) else [result]
    return {
        "flops": float(sum(r.flops for r in items)),
        "pair_entries": float(sum(r.pair_entries for r in items)),
    }


def _file_bytes(path) -> float:
    import os
    from pathlib import Path

    p = Path(path)
    if not p.exists():
        p = p.with_suffix(p.suffix + ".npz")
    return float(os.path.getsize(p))


def layer_targets() -> list[Target]:
    """Every layer function the traced run wraps, by layer name."""
    from repro.core import cjit, engine
    from repro.fsbm import fast_sbm
    from repro.wrf import ensemble, io, model, procpool

    diffwrf = import_module("repro.wrf.diffwrf")

    launch = lambda a, k, r: {"transfer_bytes": float(r.h2d_bytes + r.d2h_bytes)}
    return [
        Target(fast_sbm, "coal_bott_step", "coal_bott", _coal_counts),
        Target(fast_sbm, "coal_bott_step_members", "coal_bott", _coal_counts),
        Target(fast_sbm, "onecond1", "condensation", _sum("points")),
        Target(fast_sbm, "onecond2", "condensation", _sum("points")),
        Target(fast_sbm, "onecond1_members", "condensation", _sum("points")),
        Target(fast_sbm, "onecond2_members", "condensation", _sum("points")),
        Target(fast_sbm, "jernucl01_ks", "nucleation"),
        Target(fast_sbm, "freezing_melting_step", "freezing"),
        Target(fast_sbm, "sedimentation_step", "sedimentation", _sum("cell_bins")),
        Target(fast_sbm, "sedimentation_step_members", "sedimentation", _sum("cell_bins")),
        Target(model, "physics_rank", "physics"),
        Target(ensemble, "physics_rank_members", "physics"),
        Target(model, "transport_numerics", "transport"),
        Target(ensemble, "transport_numerics_members", "transport"),
        Target(procpool.ProcRankPool, "step", "procpool.step"),
        Target(procpool.ProcRankPool, "gather", "procpool.gather"),
        Target(ensemble.EnsembleModel, "step", "ensemble.step"),
        Target(model.WrfModel, "gather_output", "io.gather"),
        Target(ensemble.EnsembleModel, "gather_output", "io.gather"),
        Target(io, "write_wrfout", "io.write", lambda a, k, r: {"bytes": _file_bytes(r)}),
        Target(io, "read_wrfout", "io.read", lambda a, k, r: {"bytes": _file_bytes(a[0])}),
        Target(diffwrf, "diffwrf", "diffwrf"),
        Target(model, "conus12km_case", "cases"),
        Target(cjit.CJitModule, "load", "cjit.load"),
        Target(engine.OffloadEngine, "launch", "engine.launch", launch),
    ]
