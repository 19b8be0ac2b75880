"""Runtime-compiled C stencil for the fused transport superblock.

The fused numpy path (:func:`repro.wrf.transport.fused_upwind_tend`)
still materializes every stencil intermediate — about forty full-block
memory passes per step — so on one core it stays bandwidth-bound the
same way the paper's unfused Fortran loops were. This module is the
host-side version of the paper's final step: collapse the whole
donor-cell update into *one* loop nest with no temporaries, so each
advected value is read once and written once.

Since PR 6 the kernel is no longer a hand-written C string: it is
defined as a `repro.codee.loopir` kernel (:func:`build_advect_ir`),
annotated by the dependence-driven transformation engine
(`repro.codee.transform` derives the ``parallel for collapse(2)`` +
inner ``simd`` that used to be typed by hand), statically verified
(`repro.codee.irverify` — an illegal annotation refuses to compile),
and emitted by `repro.codee.cgen`. The arithmetic is expressed in the
IR with the reference's exact operation grouping and emitted fully
parenthesized, which — together with the shared ``-ffp-contract=off``
flag — keeps the compiled kernel bitwise identical to the per-field
numpy path up to the sign of floating-point zeros, exactly as the
hand-written source was.

Build, caching, and fallback behavior are unchanged: the generated
source goes through :mod:`repro.core.cjit` (source-hash-cached ``.so``
under ``_cbuild/``, loaded through :mod:`ctypes`). If no compiler is
available — or ``REPRO_DISABLE_CSTENCIL=1`` (this module) /
``REPRO_DISABLE_CJIT=1`` (every compiled kernel) is set —
:func:`load_stencil` returns ``None`` and callers fall back to the
sliced numpy kernels. Nothing outside this module needs to know which
path ran.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from repro.codee import cgen, loopir, transform
from repro.codee.loopir import (
    ArrayParam,
    Const,
    If,
    Kernel,
    Let,
    Load,
    Loop,
    ScalarParam,
    Store,
    Sym,
)
from repro.core import cjit
from repro.obs import tracer

#: Environment switch forcing the numpy fallback (used by the
#: equivalence tests to exercise both paths, and as an escape hatch).
DISABLE_ENV = "REPRO_DISABLE_CSTENCIL"


def build_advect_ir() -> Kernel:
    """The donor-cell stage ``out = base + f * tend(s)`` as loop IR.

    One stage over the whole ``(ni, nk, nj, ns)`` superblock with
    zero-gradient edges: each neighbor index is clamped, so the
    clamped term is ``s - s = 0``, reproducing the reference's edge
    handling exactly. Euler passes ``base == s`` and ``f == dt``; an
    RK3 stage passes ``base == phi0`` and ``f == dt * frac``.
    ``clip[n]`` marks scalars clamped at zero after the update (only
    on the stage that ``do_clip`` enables).

    The tendency accumulates axis i, then k, then j with the same
    expression grouping as the numpy reference (three negated upwind
    pairs summed left to right), so results match it bit for bit
    modulo signed zeros. The loop nest is defined *bare* — every
    OpenMP annotation on the compiled kernel is derived by
    `repro.codee.transform` from its dependence analysis.
    """
    ni, nk, nj, ns = Sym("ni"), Sym("nk"), Sym("nj"), Sym("ns")
    i, k, j, n = Sym("i"), Sym("k"), Sym("j"), Sym("n")
    sv = Sym("sv")

    s4 = (nk * nj * ns, nj * ns, ns, Const(1))
    c3 = (nk * nj, nj, Const(1))

    def s_at(ii, kk, jj):
        return Load("s", (ii, kk, jj, n))

    # One negated upwind pair per axis: -(pos*(sv - s[lo]) + neg*(s[hi] - sv)),
    # accumulated i, then k, then j — the reference's grouping.
    tend = None
    for pos, neg, lo, hi in (
        ("up", "un", s_at(Sym("im"), k, j), s_at(Sym("ip"), k, j)),
        ("wp", "wn", s_at(i, Sym("km"), j), s_at(i, Sym("kp"), j)),
        ("vp", "vn", s_at(i, k, Sym("jm")), s_at(i, k, Sym("jp"))),
    ):
        pair = -(Sym(pos) * (sv - lo) + Sym(neg) * (hi - sv))
        tend = pair if tend is None else tend + pair

    clamp = loopir.Select
    body_j = [
        Let("up", Load("pos_i", (i, k, j))),
        Let("un", Load("neg_i", (i, k, j))),
        Let("wp", Load("pos_k", (i, k, j))),
        Let("wn", Load("neg_k", (i, k, j))),
        Let("vp", Load("pos_j", (i, k, j))),
        Let("vn", Load("neg_j", (i, k, j))),
        Let("im", clamp(i.gt(0), i - 1, i), ctype="long"),
        Let("ip", clamp(i.lt(ni - 1), i + 1, i), ctype="long"),
        Let("km", clamp(k.gt(0), k - 1, k), ctype="long"),
        Let("kp", clamp(k.lt(nk - 1), k + 1, k), ctype="long"),
        Let("jm", clamp(j.gt(0), j - 1, j), ctype="long"),
        Let("jp", clamp(j.lt(nj - 1), j + 1, j), ctype="long"),
        Loop(
            "n",
            Const(0),
            ns,
            [
                Let("sv", s_at(i, k, j)),
                Let("t", tend),
                Store(
                    "out",
                    (i, k, j, n),
                    Sym("f") * Sym("t") + Load("base", (i, k, j, n)),
                ),
            ],
        ),
        If(
            Sym("do_clip"),
            [
                Loop(
                    "n",
                    Const(0),
                    ns,
                    [
                        If(
                            Load("clip", (n,)).logical_and(
                                Load("out", (i, k, j, n)).lt(Const(0.0))
                            ),
                            [Store("out", (i, k, j, n), Const(0.0))],
                        )
                    ],
                )
            ],
        ),
    ]

    nest = Loop(
        "i",
        Const(0),
        ni,
        [Loop("k", Const(0), nk, [Loop("j", Const(0), nj, body_j)])],
    )

    return Kernel(
        name="advect_stage",
        params=(
            ArrayParam("s", strides=s4),
            ArrayParam("base", strides=s4),
            ArrayParam("out", strides=s4, intent="out"),
            ArrayParam("pos_i", strides=c3),
            ArrayParam("neg_i", strides=c3),
            ArrayParam("pos_k", strides=c3),
            ArrayParam("neg_k", strides=c3),
            ArrayParam("pos_j", strides=c3),
            ArrayParam("neg_j", strides=c3),
            ScalarParam("f", "double"),
            ScalarParam("ni", "long"),
            ScalarParam("nk", "long"),
            ScalarParam("nj", "long"),
            ScalarParam("ns", "long"),
            ArrayParam("clip", strides=(Const(1),), ctype="unsigned char"),
            ScalarParam("do_clip", "int"),
        ),
        body=[nest],
        doc=(
            "One donor-cell stage out = base + f * tend(s) over the "
            "(ni, nk, nj, ns) superblock with zero-gradient (clamped) "
            "edges; tendency accumulated axis i, then k, then j in the "
            "reference's grouping."
        ),
    )


def build_advect_members_ir() -> Kernel:
    """The donor-cell stage over an ensemble-stacked superblock.

    Identical per-point arithmetic to :func:`build_advect_ir` wrapped
    in an explicit outer member loop: the block is ``(nm, ni, nk, nj,
    ns)`` member-major and the winds ``(nm, ni, nk, nj)``, so iteration
    ``m`` reads and writes exactly member ``m``'s arrays with member-
    local edge clamps (the i/k/j Select clamps never cross a member
    boundary because ``m`` is a separate index, not folded into ``i``).
    Every output element is written exactly once by a deterministic
    scalar expression, so each member's slice is bit-identical to a
    solo :func:`build_advect_ir` sweep of that member — regardless of
    how the derived OpenMP annotations schedule the loops.
    """
    nm, ni, nk, nj, ns = (
        Sym("nm"), Sym("ni"), Sym("nk"), Sym("nj"), Sym("ns")
    )
    m, i, k, j, n = Sym("m"), Sym("i"), Sym("k"), Sym("j"), Sym("n")
    sv = Sym("sv")

    s5 = (ni * nk * nj * ns, nk * nj * ns, nj * ns, ns, Const(1))
    c4 = (ni * nk * nj, nk * nj, nj, Const(1))

    def s_at(ii, kk, jj):
        return Load("s", (m, ii, kk, jj, n))

    tend = None
    for pos, neg, lo, hi in (
        ("up", "un", s_at(Sym("im"), k, j), s_at(Sym("ip"), k, j)),
        ("wp", "wn", s_at(i, Sym("km"), j), s_at(i, Sym("kp"), j)),
        ("vp", "vn", s_at(i, k, Sym("jm")), s_at(i, k, Sym("jp"))),
    ):
        pair = -(Sym(pos) * (sv - lo) + Sym(neg) * (hi - sv))
        tend = pair if tend is None else tend + pair

    clamp = loopir.Select
    body_j = [
        Let("up", Load("pos_i", (m, i, k, j))),
        Let("un", Load("neg_i", (m, i, k, j))),
        Let("wp", Load("pos_k", (m, i, k, j))),
        Let("wn", Load("neg_k", (m, i, k, j))),
        Let("vp", Load("pos_j", (m, i, k, j))),
        Let("vn", Load("neg_j", (m, i, k, j))),
        Let("im", clamp(i.gt(0), i - 1, i), ctype="long"),
        Let("ip", clamp(i.lt(ni - 1), i + 1, i), ctype="long"),
        Let("km", clamp(k.gt(0), k - 1, k), ctype="long"),
        Let("kp", clamp(k.lt(nk - 1), k + 1, k), ctype="long"),
        Let("jm", clamp(j.gt(0), j - 1, j), ctype="long"),
        Let("jp", clamp(j.lt(nj - 1), j + 1, j), ctype="long"),
        Loop(
            "n",
            Const(0),
            ns,
            [
                Let("sv", s_at(i, k, j)),
                Let("t", tend),
                Store(
                    "out",
                    (m, i, k, j, n),
                    Sym("f") * Sym("t") + Load("base", (m, i, k, j, n)),
                ),
            ],
        ),
        If(
            Sym("do_clip"),
            [
                Loop(
                    "n",
                    Const(0),
                    ns,
                    [
                        If(
                            Load("clip", (n,)).logical_and(
                                Load("out", (m, i, k, j, n)).lt(Const(0.0))
                            ),
                            [Store("out", (m, i, k, j, n), Const(0.0))],
                        )
                    ],
                )
            ],
        ),
    ]

    nest = Loop(
        "m",
        Const(0),
        nm,
        [
            Loop(
                "i",
                Const(0),
                ni,
                [Loop("k", Const(0), nk, [Loop("j", Const(0), nj, body_j)])],
            )
        ],
    )

    return Kernel(
        name="advect_stage_members",
        params=(
            ArrayParam("s", strides=s5),
            ArrayParam("base", strides=s5),
            ArrayParam("out", strides=s5, intent="out"),
            ArrayParam("pos_i", strides=c4),
            ArrayParam("neg_i", strides=c4),
            ArrayParam("pos_k", strides=c4),
            ArrayParam("neg_k", strides=c4),
            ArrayParam("pos_j", strides=c4),
            ArrayParam("neg_j", strides=c4),
            ScalarParam("f", "double"),
            ScalarParam("nm", "long"),
            ScalarParam("ni", "long"),
            ScalarParam("nk", "long"),
            ScalarParam("nj", "long"),
            ScalarParam("ns", "long"),
            ArrayParam("clip", strides=(Const(1),), ctype="unsigned char"),
            ScalarParam("do_clip", "int"),
        ),
        body=[nest],
        doc=(
            "One donor-cell stage out = base + f * tend(s) over an "
            "ensemble-stacked (nm, ni, nk, nj, ns) superblock; the "
            "member loop only rebases the pointers, so each member's "
            "slice matches a solo advect_stage sweep bit for bit."
        ),
    )


loopir.register_kernel(
    loopir.KernelSpec(
        name="advect_stage",
        build=build_advect_ir,
        transform=transform.plan_offload,
    )
)

loopir.register_kernel(
    loopir.KernelSpec(
        name="advect_stage_members",
        build=build_advect_members_ir,
        transform=transform.plan_offload,
    )
)

#: Compile flags (the shared defaults; see :mod:`repro.core.cjit` for
#: why ``-ffp-contract=off`` is load-bearing).
CFLAGS = cjit.DEFAULT_CFLAGS

#: Why the stencil is unavailable ("" while it is); for diagnostics.
load_error: str = ""


def _declare(lib: ctypes.CDLL) -> None:
    dp = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
    bp = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")
    lib.advect_stage.restype = None
    lib.advect_stage.argtypes = [
        dp, dp, dp,  # s, base, out
        dp, dp, dp, dp, dp, dp,  # pos/neg per axis
        ctypes.c_double,
        ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_long,
        bp, ctypes.c_int,
    ]
    lib.advect_stage_members.restype = None
    lib.advect_stage_members.argtypes = [
        dp, dp, dp,  # s, base, out (member-stacked)
        dp, dp, dp, dp, dp, dp,  # pos/neg per axis (member-stacked)
        ctypes.c_double,
        ctypes.c_long,  # nm
        ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_long,
        bp, ctypes.c_int,
    ]


# Derive the OpenMP annotations, verify them, and emit the C source.
# An illegal transformation raises IRVerificationError here, at import,
# before any C exists — loud by design.
_module = cgen.build_module(
    "stencil",
    [
        transform.plan_offload(build_advect_ir()).kernel,
        transform.plan_offload(build_advect_members_ir()).kernel,
    ],
    cflags=CFLAGS,
    disable_env=DISABLE_ENV,
    build_dir=Path(__file__).resolve().parent / "_cbuild",
    setup=_declare,
    banner=(
        "Generated by repro.codee.cgen from the advect_stage loop IR; "
        "annotations derived by repro.codee.transform. Do not edit."
    ),
)

#: The generated translation unit (kept for introspection/diagnostics).
C_SOURCE = _module.source

#: Set once this process has entered the stencil's OpenMP parallel
#: region. libgomp's thread pool does not survive ``fork``: a child
#: forked afterwards hangs in its own first parallel region, so
#: :class:`repro.wrf.procpool.ProcRankPool` spawns its workers instead.
parallel_region_started = False


_path_traced = False


def load_stencil() -> ctypes.CDLL | None:
    """The compiled stencil library, or ``None`` when unavailable.

    Compilation happens once per process (and the shared object is
    cached on disk across processes); every failure mode — no
    compiler, sandboxed filesystem, missing OpenMP runtime — degrades
    to ``None`` so callers take the numpy path. The underlying
    :class:`~repro.core.cjit.CJitModule` records the one-time
    ``cjit.compile``/``cjit.load`` spans; a single instant event here
    marks which path (compiled vs numpy) the transport resolved to.
    """
    global load_error, _path_traced
    lib = _module.load()
    load_error = _module.load_error
    if not _path_traced and tracer.enabled():
        _path_traced = True
        tracer.instant(
            "advect_stencil.path",
            cat="jit",
            attrs={"compiled": lib is not None, "error": load_error},
        )
    return lib


def advect_stage(
    lib: ctypes.CDLL,
    s: np.ndarray,
    base: np.ndarray,
    out: np.ndarray,
    pos: tuple[np.ndarray, np.ndarray, np.ndarray],
    neg: tuple[np.ndarray, np.ndarray, np.ndarray],
    f: float,
    clip_mask: np.ndarray,
    do_clip: bool,
) -> None:
    """One fused stage ``out = base + f * tend(s)`` on the superblock."""
    global parallel_region_started
    parallel_region_started = True
    ni, nk, nj, ns = s.shape
    lib.advect_stage(
        s, base, out,
        pos[0], neg[0], pos[1], neg[1], pos[2], neg[2],
        float(f), ni, nk, nj, ns,
        clip_mask, 1 if do_clip else 0,
    )


def advect_stage_members(
    lib: ctypes.CDLL,
    s: np.ndarray,
    base: np.ndarray,
    out: np.ndarray,
    pos: tuple[np.ndarray, np.ndarray, np.ndarray],
    neg: tuple[np.ndarray, np.ndarray, np.ndarray],
    f: float,
    clip_mask: np.ndarray,
    do_clip: bool,
) -> None:
    """One fused stage over the ``(nm, ni, nk, nj, ns)`` member stack.

    ``pos``/``neg`` are the member-stacked ``(nm, ni, nk, nj)`` wind
    decompositions. One C call advances every member; each member's
    slice of ``out`` equals a solo :func:`advect_stage` call bit for
    bit.
    """
    global parallel_region_started
    parallel_region_started = True
    nm, ni, nk, nj, ns = s.shape
    lib.advect_stage_members(
        s, base, out,
        pos[0], neg[0], pos[1], neg[1], pos[2], neg[2],
        float(f), nm, ni, nk, nj, ns,
        clip_mask, 1 if do_clip else 0,
    )
