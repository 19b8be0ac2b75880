"""Run one benchmark workload and print its metrics as a JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload storm_forecast --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
Before anything is timed, a child process loads the program's compiled
kernels, which compiles them into the build cache when it is cold; the
timed process then only loads them. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``. Earlier lines
carry provenance and the output-check verdicts. See NOTES.md for what
every metric means.

The process started with this command only supervises: it runs the
workload in a child and, when that child has ended, waits for every
process the run left behind (such as the resource tracker that
``multiprocessing`` starts for shared memory, which outlives its
owner), killing those still alive after a grace period. So no process
of a run outlives the command.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups timed per run, each in a fresh process; ``setup_s`` is their median.
SETUPS = 5
#: A request taking longer than this counts as failed (timed out) and
#: ends the timed phase.
OP_TIMEOUT_S = 60.0
#: Busy seconds on every CPU before set-up is timed (see wake_cpus).
WAKE_S = 2.0
#: Limits for one set-up child and for the output checks.
SETUP_TIMEOUT_S = 30.0
CHECK_TIMEOUT_S = 90.0
#: Seconds a process left behind by a run may take to end on its own.
REAP_GRACE_S = 5.0

BUILD_SNIPPET = """
import json
from repro.core import cjit
from repro.fsbm import ckernels
from repro.wrf import cstencil
cold = sorted(n for n, m in cjit.modules().items() if not m.so_path.exists())
loaded = {"stencil": cstencil.load_stencil() is not None,
          "fsbm_kernels": ckernels.load_kernels() is not None}
print(json.dumps({"cold": cold, "loaded": loaded}))
"""


class OpTimeout(Exception):
    """A request ran past OP_TIMEOUT_S."""


@contextmanager
def op_deadline(seconds: float):
    def expire(signum, frame):
        raise OpTimeout(f"operation exceeded {seconds:.0f}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# --- statistics -------------------------------------------------------------------


def tail(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples above it.

    Nearest-rank: percentile ``p`` is the ``ceil(p * n / 100)``-th
    smallest sample. Needs at least 11 samples; with fewer the maximum
    is returned as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 100, xs[-1]


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# --- process facts ----------------------------------------------------------------


def peak_rss_mb(children: list[int]) -> float:
    """Peak resident memory of this process plus its live workers [MB].

    Per-process peaks (VmHWM) summed; shared-memory pages count once per
    process that touched them.
    """
    import resource

    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in children:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def build_kernels() -> dict:
    """Load (compiling when needed) the compiled kernels in a child process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", BUILD_SNIPPET],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=840,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"kernel build failed:\n{proc.stderr}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    info["build_cache"] = "cold" if info["cold"] else "warm"
    info["build_s"] = perf_counter() - t0
    return info


def provenance(workload, seed: int, build: dict) -> dict:
    import platform
    import socket

    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        dep = cfg["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except Exception:  # noqa: BLE001 - provenance is best effort
        pass
    compiler = "unknown"
    try:
        out = subprocess.run(
            ["cc", "--version"], capture_output=True, text=True, timeout=30
        )
        compiler = out.stdout.splitlines()[0] if out.stdout else compiler
    except (OSError, subprocess.SubprocessError):
        pass

    def cache_size(level: int) -> int:
        try:
            size = int(os.sysconf(f"SC_LEVEL{level}_CACHE_SIZE"))
        except (ValueError, OSError):
            size = 0
        if size > 0:
            return size
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            try:
                if (index / "level").read_text().strip() != str(level):
                    continue
                if (index / "type").read_text().strip() == "Instruction":
                    continue
                text = (index / "size").read_text().strip()
            except OSError:
                continue
            scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
            return int(text.rstrip("KM")) * scale
        return 0

    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "hostname": socket.gethostname(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "compiler": compiler,
        "build_cache": build["build_cache"],
        "kernels_loaded": build["loaded"],
        "superblock_bytes": workload.superblock_bytes(),
        "l2_bytes": cache_size(2),
        "l3_bytes": cache_size(3),
    }


def wake_cpus(seconds: float = WAKE_S) -> None:
    """Keep every CPU busy for ``seconds`` before anything is timed.

    On the VM this benchmark was built on, a vCPU that sat idle runs its
    first seconds of work up to 3x slower (fresh-process set-ups after
    30 s idle: 0.41-0.45 s, after this: 0.12-0.15 s). The program's
    OpenMP and BLAS threads use every CPU, so all of them are woken.
    """
    spin = f"import time\nend = time.perf_counter() + {seconds}\nwhile time.perf_counter() < end: pass"
    procs = [
        subprocess.Popen([sys.executable, "-c", spin]) for _ in range(os.cpu_count() or 1)
    ]
    for proc in procs:
        proc.wait()


def import_program() -> None:
    """Import every program module a workload touches.

    Done before any set-up is timed, in the children too, so set-up
    time never includes Python imports.
    """
    import repro.core.cjit  # noqa: F401
    import repro.fsbm.ckernels  # noqa: F401
    import repro.wrf.cstencil  # noqa: F401
    import repro.wrf.diffwrf  # noqa: F401
    import repro.wrf.ensemble  # noqa: F401
    import repro.wrf.io  # noqa: F401
    import repro.wrf.model  # noqa: F401
    import repro.wrf.procpool  # noqa: F401


def setup_in_child(name: str, seed: int) -> dict:
    """One set-up of ``name`` timed in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_only(name: str, seed: int, run_dir: Path) -> dict:
    """The ``--setup-only`` child: time one set-up, release it, report."""
    from workloads import WORKLOADS

    import_program()
    workload = WORKLOADS[name](seed, run_dir)
    t0 = perf_counter()
    workload.setup()
    elapsed = perf_counter() - t0
    workload.teardown()
    return {"setup_s": elapsed, "sim_step_s": workload.sim_step_s}


# --- supervision -----------------------------------------------------------------


def _become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(36, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _children() -> list[int]:
    """Live processes whose parent is this one."""
    me, found = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; the fields after it do not.
        fields = stat[stat.rfind(")") + 2 :].split()
        if int(fields[1]) == me and fields[0] != "Z":
            found.append(int(entry.name))
    return found


def supervise(cmd: list[str], grace: float = REAP_GRACE_S) -> int:
    """Run ``cmd`` to its end, then end every process it left behind.

    As a subreaper this process inherits the run's orphans, so it can
    wait for each: they get ``grace`` seconds to end on their own, then
    are killed. Returns ``cmd``'s exit code (1 if a signal ended it).
    """
    _become_subreaper()
    child = subprocess.Popen(cmd)

    def stop(signum, frame):
        child.kill()

    previous = signal.signal(signal.SIGTERM, stop)
    try:
        code = child.wait()
    finally:
        signal.signal(signal.SIGTERM, previous)
    deadline = perf_counter() + grace
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            break
        if perf_counter() > deadline:
            for pid in _children():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)
    return code if code >= 0 else 1


# --- the run ----------------------------------------------------------------------


class Ledger:
    """Operations attempted and failed; a failure carries its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def run(name: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    import_program()
    from repro.core import cache as cache_mod
    from repro.core import cjit

    from layers import LayerTracer
    from workloads import WORKLOADS, layer_targets

    build = build_kernels()
    workload = WORKLOADS[name](seed, run_dir)
    print(json.dumps({"provenance": provenance(workload, seed, build)}), flush=True)

    tracer = LayerTracer(layer_targets()) if trace else None
    cold_before = {n for n, m in cjit.modules().items() if not m.so_path.exists()}
    cache_before = cache_mod.cache_stats()
    ledger = Ledger()

    # -- set-up: every sample is the first set-up of a fresh process, so
    # each pays the same cold in-process state (allocator, caches, kernel
    # loads). This process then sets up once more for the timed phase.
    wake_cpus()
    setup_s, sim_step = [], []
    for _ in range(SETUPS):
        child = setup_in_child(name, seed)
        setup_s.append(child["setup_s"])
        sim_step.append(child["sim_step_s"])
    if tracer is not None:
        tracer.install()
        with tracer.root("setup"):
            workload.setup()
    else:
        workload.setup()
    sim_step.append(workload.sim_step_s)
    ledger.record(
        len(set(sim_step)) == 1,
        f"simulated seconds per step differ between set-ups: {sim_step!r}",
    )

    # -- the timed phase. A traced run alternates blocks of traced and
    # untraced requests, so both halves see the same stretch of the
    # forecast and the same request mix.
    requests = []
    issued = 0
    t_start = perf_counter()
    deadline = t_start + seconds
    while perf_counter() < deadline or issued % workload.block:
        traced = tracer is not None and (issued // workload.block) % 2 == 0
        if tracer is not None:
            tracer.install() if traced else tracer.restore()
        issued += 1
        try:
            with op_deadline(OP_TIMEOUT_S):
                req = workload.request(tracer if traced else None)
        except Exception as exc:  # noqa: BLE001 - counted, then reported
            req = None
            failure = f"{type(exc).__name__}: {exc}"
            if isinstance(exc, OpTimeout):
                ledger.record(False, f"{workload.name} request: {failure}")
                break
        else:
            failure = req.failed
            req.traced = traced
            requests.append(req)
        ops = len(req.step_s) if req and workload.root_kind == "step" else 1
        for _ in range(ops):
            ledger.record(not failure, f"{workload.name} request: {failure}")
        if failure and workload.abort_on_failure:
            break
    elapsed = perf_counter() - t_start
    if tracer is not None:
        tracer.restore()

    import multiprocessing

    rss = peak_rss_mb([p.pid for p in multiprocessing.active_children()])
    cache_after = cache_mod.cache_stats()
    compiles = len(
        {n for n, m in cjit.modules().items() if m.so_path.exists()} & cold_before
    )

    # -- output checks (the model is released inside finish()).
    try:
        with op_deadline(CHECK_TIMEOUT_S):
            checks = workload.finish()
    except Exception as exc:  # noqa: BLE001 - a check that cannot run failed
        from checks import Check

        checks = [Check(f"{workload.name} output check", False, f"{type(exc).__name__}: {exc}")]
    finally:
        workload.teardown()
    for check in checks:
        ledger.record(check.ok, f"{check.name}: {check.detail}")

    if not requests:
        raise RuntimeError(f"no request completed: {ledger.failures}")
    if tracer is None:
        metrics, info = end_to_end(requests, setup_s, elapsed, rss)
    else:
        metrics, info = per_layer(
            workload, tracer, requests, cache_before, cache_after, compiles, sim_step[0]
        )
        # A wrapped call outside every operation is time the per-layer
        # figures miss (NOTES.md, "Per-layer metrics").
        stray = sorted({s.layer for s in tracer.unattributed(t_start)})
        info["unattributed_layers"] = stray
        ledger.record(not stray, f"layer calls outside any operation: {stray}")
    print(
        json.dumps(
            {
                "checks": [vars(c) for c in checks],
                "sim_s_per_step": sim_step[0],
                "setups_s": setup_s,
                "requests": len(requests),
                "failures": ledger.failures,
            }
        ),
        flush=True,
    )
    print(json.dumps(info), flush=True)
    return {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": metrics,
    }


def end_to_end(requests, setup_s, elapsed, rss) -> tuple[dict, dict]:
    # Steps that write a history frame take longer by the write; they are
    # left to the request and rate metrics so the step metrics measure
    # one mode, not the gap between two.
    steps = [s for r in requests for s, io in zip(r.step_s, r.step_io) if not io]
    io_steps = [s for r in requests for s, io in zip(r.step_s, r.step_io) if io]
    walls = [r.wall_s for r in requests]
    kinds: dict[str, list[float]] = {}
    for r in requests:
        kinds.setdefault(r.kind, []).append(r.wall_s)
    step_p, step_tail = tail(steps)
    req_p, req_tail = tail(walls)
    metrics = {
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "sim_rate": _metric(sum(r.sim_s for r in requests) / elapsed, "s/s"),
        "step_ms_p50": _metric(1e3 * statistics.median(steps), "ms"),
        "step_ms_tail": _metric(1e3 * step_tail, "ms"),
        "requests_per_s": _metric(len(requests) / elapsed, "1/s"),
        "request_ms_p50": _metric(1e3 * statistics.median(walls), "ms"),
        "request_ms_tail": _metric(1e3 * req_tail, "ms"),
        "peak_rss_mb": _metric(rss, "MB"),
    }
    info = {
        "step_ms_tail_percentile": step_p,
        "request_ms_tail_percentile": req_p,
        "steps": len(steps),
        "history_steps": len(io_steps),
        "history_step_ms_p50": 1e3 * statistics.median(io_steps) if io_steps else None,
        "timed_s": elapsed,
        # Each request kind's count and share of the time spent in requests.
        "request_kinds": {
            kind: {"count": len(w), "wall_share": sum(w) / sum(walls)}
            for kind, w in sorted(kinds.items())
        },
    }
    return metrics, info


def per_layer(workload, tracer, requests, cache_before, cache_after, compiles, sim_step):
    roots = tracer.roots_of(workload.root_kind)
    traced_ids = [i for i in roots if not tracer.roots[i].error]
    untraced = [r for r in requests if not r.traced]
    traced = [r for r in requests if r.traced]
    n = max(1, len(traced_ids))
    tot = tracer.layer_totals(traced_ids)

    def total(layer: str, key: str) -> float:
        return tot[layer][key] if layer in tot else 0.0

    def ms(layer: str) -> float:
        return 1e3 * total(layer, "self_s") / n

    def per_op(layer: str, key: str) -> float:
        return total(layer, key) / n

    def rate(amount: float, layer: str) -> float:
        busy = total(layer, "self_s")
        return amount / busy / 1e9 if busy > 0 else 0.0

    def op_values(reqs):
        if workload.root_kind == "step":
            return [s for r in reqs for s in r.step_s]
        return [r.wall_s for r in reqs]

    cell_steps = sum(r.cell_steps for r in traced)
    coal_points = sum(r.coal_points for r in traced)
    transport_bytes = sum(r.transport_bytes for r in traced)
    parts = tracer.breakdown(traced_ids)
    traced_ms = 1e3 * statistics.median(op_values(traced)) if traced else 0.0
    untraced_ms = 1e3 * statistics.median(op_values(untraced)) if untraced else 0.0
    ens_calls = total("ensemble.step", "calls")
    member_step_ms = (
        1e3 * total("ensemble.step", "incl_s") / ens_calls / workload.members
        if ens_calls
        else 0.0
    )
    cases = tracer.calls("cases")
    halo_bytes, halo_segments = workload.halo_per_step

    m = {
        "coal_bott.ms": (ms("coal_bott"), "ms/op"),
        "coal_bott.flops": (per_op("coal_bott", "flops"), "flop/op"),
        "coal_bott.pair_entries": (per_op("coal_bott", "pair_entries"), "count/op"),
        "coal_bott.gflops": (rate(total("coal_bott", "flops"), "coal_bott"), "Gflop/s"),
        "condensation.ms": (ms("condensation"), "ms/op"),
        "condensation.points": (per_op("condensation", "points"), "count/op"),
        "nucleation.ms": (ms("nucleation"), "ms/op"),
        "freezing.ms": (ms("freezing"), "ms/op"),
        "sedimentation.ms": (ms("sedimentation"), "ms/op"),
        "sedimentation.cell_bins": (per_op("sedimentation", "cell_bins"), "count/op"),
        "physics.ms": (ms("physics"), "ms/op"),
        "physics.mp_points": (sum(r.mp_points for r in traced) / n, "count/op"),
        "physics.coal_points": (coal_points / n, "count/op"),
        "physics.coal_share": (coal_points / cell_steps if cell_steps else 0.0, "fraction"),
        "transport.ms": (ms("transport"), "ms/op"),
        "transport.bytes": (transport_bytes / n, "B/op"),
        "transport.gbps": (rate(transport_bytes, "transport"), "GB/s"),
        "halo.bytes_per_step": (halo_bytes, "B"),
        "halo.segments_per_step": (halo_segments, "count"),
        "procpool.step_wait_ms": (ms("procpool.step"), "ms/op"),
        "procpool.gather_ms": (ms("procpool.gather"), "ms/op"),
        "procpool.timeouts": (
            sum("unresponsive" in s.error for s in tracer.calls("procpool.step")),
            "count",
        ),
        "ensemble.member_step_ms": (member_step_ms, "ms"),
        "io.gather_ms": (ms("io.gather"), "ms/op"),
        "io.write_ms": (ms("io.write"), "ms/op"),
        "io.write_bytes": (per_op("io.write", "bytes"), "B/op"),
        "io.read_ms": (ms("io.read"), "ms/op"),
        "io.read_bytes": (per_op("io.read", "bytes"), "B/op"),
        "diffwrf.ms": (ms("diffwrf"), "ms/op"),
        "cases.build_ms": (
            1e3 * statistics.mean(s.duration for s in cases) if cases else 0.0,
            "ms/call",
        ),
        "cjit.load_ms": (1e3 * sum(s.duration for s in tracer.calls("cjit.load")), "ms"),
        "cjit.compiles": (compiles, "count"),
    }
    for cache_name in (
        "fsbm.coal_operators",
        "fsbm.kernel_tables",
        "fsbm.sed_courant",
        "wrf.transport_workspace",
    ):
        after = cache_after.get(cache_name)
        before = cache_before.get(cache_name)
        hits = (after.hits if after else 0) - (before.hits if before else 0)
        misses = (after.misses if after else 0) - (before.misses if before else 0)
        lookups = hits + misses
        m[f"cache.{cache_name}.hit_rate"] = (hits / lookups if lookups else 0.0, "fraction")
        m[f"cache.{cache_name}.misses"] = (misses, "count")
    m["cache.pinned_bytes"] = (sum(c.nbytes for c in cache_after.values()), "B")
    m["engine.launch_ms"] = (ms("engine.launch"), "ms/op")
    m["engine.launches"] = (per_op("engine.launch", "calls"), "count/op")
    m["engine.transfer_bytes"] = (per_op("engine.launch", "transfer_bytes"), "B/op")
    m["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms/op")
    m["trace.residual_ms"] = (1e3 * parts["residual_s"] / n, "ms/op")
    m["sim.step_s"] = (sim_step, "s")
    metrics = {k: _metric(v, u) for k, (v, u) in m.items()}
    info = {
        "traced_ops": len(traced_ids),
        "traced_op_ms_p50": traced_ms,
        "untraced_op_ms_p50": untraced_ms,
        **parts,
        "layers_per_op": {
            layer: {
                "self_ms": 1e3 * agg["self_s"] / n,
                "incl_ms": 1e3 * agg["incl_s"] / n,
                "calls": agg["calls"] / n,
            }
            for layer, agg in sorted(tot.items())
        },
    }
    return metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--supervised", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    if not (args.supervised or args.setup_only):
        argv = sys.argv[1:] if argv is None else argv
        return supervise([sys.executable, str(Path(__file__).resolve()), *argv, "--supervised"])
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".perfbench_runs" / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            result = setup_only(args.workload, args.seed, run_dir)
        else:
            result = run(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
