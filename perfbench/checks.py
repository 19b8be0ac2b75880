"""Output checks against the program's numpy reference path.

The reference run is the same namelist with every fast path switched off
through the namelist itself: per-field numpy transport instead of the
fused compiled sweep, numpy microphysics instead of the compiled
kernels, and per-field storage instead of the resident superblock. It
writes no history. Agreement is judged with ``repro.wrf.diffwrf`` by the
paper's verification rule (Sec. VII-B): at least three matching digits
on the state variables and at least one on the microphysics outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Minimum diffwrf digits per output field (Sec. VII-B).
MIN_DIGITS = {"T": 3.0, "QVAPOR": 3.0, "W": 3.0, "QCLOUD_TOTAL": 1.0, "RAINNC": 1.0}


@dataclass(frozen=True)
class Check:
    """One output check: what was compared, whether it passed, and why."""

    name: str
    ok: bool
    detail: str


def reference_namelist(namelist):
    """The numpy reference configuration of ``namelist`` (CPU, no I/O)."""
    from repro.optim.stages import Stage

    stage = Stage.LOOKUP if namelist.stage.uses_gpu else namelist.stage
    return replace(
        namelist,
        stage=stage,
        num_gpus=0,
        use_fused_transport=False,
        use_native_physics=False,
        use_superblock_fields=False,
        use_process_ranks=False,
        history_interval=0.0,
        history_path=None,
    )


def reference_frame(namelist, steps: int) -> dict:
    """Final frame of a ``steps``-step reference run of ``namelist``."""
    from repro.wrf.model import WrfModel

    model = WrfModel(reference_namelist(namelist))
    try:
        model.run(steps)
        return model.gather_output()
    finally:
        model.close()


def agreement(name: str, frame: dict, reference: dict) -> Check:
    """Digit agreement of ``frame`` with ``reference`` on every output."""
    from repro.wrf.diffwrf import diffwrf

    diffs = {d.name: d for d in diffwrf(frame, reference)}
    missing = sorted(set(MIN_DIGITS) - set(diffs))
    short = [
        f"{field} {diffs[field].digits:.2f}<{need:g}"
        for field, need in MIN_DIGITS.items()
        if field in diffs and diffs[field].digits < need
    ]
    digits = " ".join(
        f"{field}={diffs[field].digits:.1f}" for field in MIN_DIGITS if field in diffs
    )
    ok = not missing and not short
    detail = digits if ok else f"missing={missing} short={short} ({digits})"
    return Check(name, ok, detail)
