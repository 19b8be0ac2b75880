"""Print every end-to-end metric of every workload, one row per workload.

Usage (from the repository root)::

    python3 perfbench/report.py [--seed 1] [--seconds 10] [--trace]

Each workload runs in a fresh process through ``perfbench/run.py``
(see NOTES.md for why a fresh process matters). A row shows each
end-to-end metric with its unit, the tail percentiles, the error rate
(failed / attempted operations) and the output-check verdict. With
``--trace`` a second, traced run per workload prints the per-layer
metrics, and the tracing overhead beside the untraced numbers.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[dict]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return lines[-1], lines[:-1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"seed {args.seed}, {seconds:g} s per workload")
    header = ["workload", *(f"{n} [{units[n]}]" for n in names), "error_rate", "check"]
    print(" | ".join(header))
    failed = False
    for wl in spec["workloads"]:
        result, info = run_once(wl["name"], args.seed, seconds, trace=False)
        checks = next(i for i in info if "checks" in i)
        tails = next(i for i in info if "step_ms_tail_percentile" in i)
        verdict = "pass" if all(c["ok"] for c in checks["checks"]) else "FAIL"
        failed |= verdict != "pass" or not result["correct"]
        cells = [wl["name"]]
        for n in names:
            value = result["metrics"][n]["value"]
            pct = {"step_ms_tail": tails["step_ms_tail_percentile"],
                   "request_ms_tail": tails["request_ms_tail_percentile"]}.get(n)
            cells.append(f"{value:.4g}" + (f" (p{pct})" if pct else ""))
        cells.append(f"{result['failed']}/{result['attempted']}")
        cells.append(verdict)
        print(" | ".join(cells))
        for c in checks["checks"]:
            print(f"    {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    if args.trace:
        for wl in spec["workloads"]:
            result, info = run_once(wl["name"], args.seed, seconds, trace=True)
            summary = info[-1]
            print(f"\n{wl['name']} per layer (traced run; overhead "
                  f"{summary['traced_op_ms_p50'] - summary['untraced_op_ms_p50']:+.2f} ms/op "
                  f"on {summary['untraced_op_ms_p50']:.2f} ms/op untraced)")
            for name, m in result["metrics"].items():
                print(f"    {name:40s} {m['value']:14.6g} {m['unit']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
