"""Runtime-compiled C kernels for the FSBM physics hot spots.

After the fused transport engine (PR 3), profiling shows the numpy
physics path dominating the model step: the per-species sedimentation
sweep materializes a full-field ``flux`` temporary per species, the
condensation growth/remap/limiter builds a dozen full-size temporaries
per species, and the collision apply surrounds its BLAS contractions
with ~60 full-size elementwise temporaries per interaction. Those are
the kind of fragmented, temporary-heavy loops the paper's stage-3
transformation fuses; this module is their host-side analog, built on
the shared :mod:`repro.core.cjit` infrastructure (source-hash-cached
``.so``, ``-ffp-contract=off``, transparent numpy fallback).

Every kernel is a `repro.codee.loopir` kernel rather than a
hand-written C string: the transformation engine
(`repro.codee.transform`) analyzes it, the static verifier
(`repro.codee.irverify`) checks the result, and `repro.codee.cgen`
emits the C that :mod:`repro.core.cjit` compiles, all into the one
``fsbm_kernels`` module. Every fsbm kernel is emitted serial: the
sedimentation nest's ``k``-carried flux recurrence makes it provably
*non*-parallelizable, the remap and the point kernels scatter through
computed indices, and where a loop *is* independent (the member loop of
``sed_sweep_members``) the policy keeps it serial (`_plan_serial`):
rank-level threads/processes own the cores, so the module is an
``omp``-free translation unit — no fsbm call ever starts libgomp's
thread pool.

Kernels and their equivalence to the numpy references (asserted by
``tests/fsbm/test_native_kernels.py``):

* ``sed_sweep`` / ``sed_sweep_members`` — the fused all-species
  sedimentation loop nest over ``(species, i, j, k, bin)`` (and an
  outer member loop). Per element it performs exactly the reference's
  ``flux = n*c``; ``n -= flux``; ``n[:, :-1] += flux[:, 1:]`` sequence,
  so the distributions match **bit for bit** up to the sign of
  floating-point zeros. Only the surface precipitation dot product
  accumulates left-to-right instead of through BLAS (<1e-12
  relative). Rows whose flux is entirely zero skip their writes, and
  the kernel reports per-species presence in ``active``.
* ``remap_scatter`` — the Kovetz–Olund two-bin deposit, **bit
  identical** to the double-``bincount`` reference (same flat
  accumulation order). The condensation path now uses ``cond_grow``;
  the remap stays as the IR fixture and harness kernel it also is.
* ``cond_grow`` — one species' condensation step over a list of rows,
  updated in place through the row index: growth ``dm`` in the
  reference's operation order, evaporation below ``0.5 * x[0]``, the
  two-bin split, old/new mass contents, the vapor limiter (with a
  per-row bind flag) and the blend, one pass per row. The mass contents are sequential sums (not
  BLAS dots) and the ladder index is exact (``ilogb`` plus a one-step
  check against the ladder, no libm ``log2``), so results agree with
  numpy to rounding rather than bitwise.
* ``coal_limit_{f64,f32}`` / ``coal_update_{f64,f32}`` — the sparse
  collision engine's elementwise work around its BLAS contractions,
  emitted for ``double`` and ``float`` from one builder (the float
  variant uses float temporaries and ``f`` literals). The limit pass
  forms the pre-limit losses, the bind flag and the limited spectra;
  the update pass the final losses, the five gain families with their
  shifts and top-bin fold, and the clamped write-back into collector,
  collected and product rows. Agreement with the dense engine stays
  within the sparse engine's own 1e-12 (2e-4 in float32).
* ``nucleate_rows`` / ``freeze_melt_rows`` — ``jernucl01_ks`` and
  ``freezing_melting_step`` per row, in the references' operation
  order; libm ``exp`` makes them agree with numpy to rounding. The
  freezing kernel reports per-row gate flags so the per-call work
  count is the reference's.
* ``census_rows`` — per row and species the bin sum (numpy's pairwise
  order: **bit identical** to ``sum(axis=1)``), the occupied-bin bound
  and a nonzero flag; the driver's gates come from it.

The point kernels are row-local, so a member's rows come out the same
whether it runs alone or batched with others. They address the bins
where they live: row ``r`` of a species is ``base + r * ld`` for the
species' base pointer and a common row stride ``ld >= nkr``
(:func:`row_stride`, :mod:`repro.fsbm.rows`).

``REPRO_DISABLE_CPHYS=1`` (this module) or ``REPRO_DISABLE_CJIT=1``
(all compiled kernels) forces the numpy fallback.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

from repro.codee import cgen, loopir, transform
from repro.codee.loopir import (
    ArrayParam,
    Assign,
    Call,
    Const,
    Decl,
    If,
    Kernel,
    Let,
    Load,
    LocalArray,
    Loop,
    ScalarParam,
    Select,
    Store,
    Sym,
    Un,
)
from repro.constants import C_P, EPS, L_F, L_S, L_V, T_0
from repro.core import cjit
from repro.fsbm.freezing import BIGG_A, BIGG_B, T_HOMOGENEOUS
from repro.fsbm.nucleation import (
    FLETCHER_A,
    FLETCHER_B,
    ICE_NUCLEATION_CAP,
    S_FULL_ACTIVATION,
    TWOMEY_K,
)
from repro.fsbm.species import Species
from repro.obs import tracer

#: Environment switch forcing the numpy physics fallback.
DISABLE_ENV = "REPRO_DISABLE_CPHYS"

#: Stack-buffer capacity of the per-row/per-point accumulators below;
#: wrappers fall back to numpy for larger bin counts.
MAX_NKR = 64

def build_sed_sweep_ir() -> Kernel:
    """The fused all-species upwind sedimentation sweep as loop IR.

    ``dists`` is a pointer table: ``dists[sp]`` points at that
    species' ``(ni, nk, nj, nkr)`` view; all species share the element
    strides ``(si, sk, sj)`` and a unit bin stride. ``courant`` is
    ``(nsp, nk, nkr)`` and ``masses`` ``(nsp, nkr)``, both contiguous;
    ``precip`` is a strided ``(ni, nj)`` view with element strides
    ``(psi, psj)``.

    The loops run in memory-layout order (i, k, j, species): when the
    species views are slices of one (i, k, j, scalar) superblock, the
    inner j/species loops walk the block's trailing axis contiguously.
    The k recurrence is preserved because each row's update is local:
    level k's flux is computed from its pre-update row, the row is
    decremented, and the flux is carried to level k - 1 (already
    decremented during the previous k iteration) — or, at k == 0, its
    mass is accumulated into precip. Every element sees
    subtract-then-add, the exact operation order of the numpy
    reference. Rows with all-zero flux skip their stores, so absent
    species are read-only; ``active[sp]`` reports whether any
    pre-update value of the species was nonzero.

    That recurrence is precisely what the dependence analysis sees:
    the ``k - 1`` accumulation, the ``active``/``precip`` updates, and
    the conditional row writes each carry a dependence, so
    `repro.codee.transform` derives ``parallel depth 0`` and the
    emitted nest is serial — matching the hand-written kernel, which
    relied on streaming memory order rather than threads.
    """
    i, k, j, sp, b = Sym("i"), Sym("k"), Sym("j"), Sym("sp"), Sym("b")
    nkr = Sym("nkr")

    def dist_at(kk):
        return (sp, i, kk, j, b)

    bin_loop = lambda body: Loop("b", Const(0), nkr, body)

    flux_fill = bin_loop(
        [
            Let("nv", Load("dists", dist_at(k))),
            Store("flux", (b,), Sym("nv") * Load("courant", (sp, k, b))),
            If(Sym("nv").ne(Const(0.0)), [Assign("rownz", Const(1))]),
        ]
    )
    subtract = bin_loop([Store("dists", dist_at(k), Load("flux", (b,)), "-=")])
    to_precip = [
        Decl("acc", "double", Const(0.0)),
        bin_loop(
            [
                Assign(
                    "acc",
                    Sym("acc") + Load("flux", (b,)) * Load("masses", (sp, b)),
                )
            ]
        ),
        Store("precip", (i, j), Sym("acc"), "+="),
    ]
    to_below = [
        bin_loop([Store("dists", dist_at(k - 1), Load("flux", (b,)), "+=")])
    ]

    per_row = [
        LocalArray("flux", MAX_NKR),
        Decl("rownz", "int", Const(0)),
        flux_fill,
        If(
            Sym("rownz"),
            [
                Store("active", (sp,), Const(1)),
                subtract,
                If(k.eq(Const(0)), to_precip, to_below),
            ],
        ),
    ]

    main = Loop(
        "i",
        Const(0),
        Sym("ni"),
        [
            Loop(
                "k",
                Const(0),
                Sym("nk"),
                [
                    Loop(
                        "j",
                        Const(0),
                        Sym("nj"),
                        [Loop("sp", Const(0), Sym("nsp"), per_row)],
                    )
                ],
            )
        ],
    )

    return Kernel(
        name="sed_sweep",
        params=(
            ArrayParam(
                "dists",
                strides=(Sym("si"), Sym("sk"), Sym("sj"), Const(1)),
                intent="inout",
                ptr_table=True,
            ),
            ArrayParam("courant", strides=(Sym("nk") * nkr, nkr, Const(1))),
            ArrayParam("masses", strides=(nkr, Const(1))),
            ArrayParam("precip", strides=(Sym("psi"), Sym("psj")), intent="inout"),
            ScalarParam("nsp", "long"),
            ScalarParam("ni", "long"),
            ScalarParam("nk", "long"),
            ScalarParam("nj", "long"),
            ScalarParam("nkr", "long"),
            ScalarParam("si", "long"),
            ScalarParam("sk", "long"),
            ScalarParam("sj", "long"),
            ScalarParam("psi", "long"),
            ScalarParam("psj", "long"),
            ArrayParam(
                "active",
                strides=(Const(1),),
                ctype="unsigned char",
                intent="out",
            ),
        ),
        body=[
            Loop("sp", Const(0), Sym("nsp"), [Store("active", (sp,), Const(0))]),
            main,
        ],
        doc=(
            "Fused all-species upwind sedimentation sweep in memory-layout "
            "order (i, k, j, species); level k's flux is subtracted from "
            "its row then carried to k - 1 (or precip at the surface), the "
            "reference's exact operation order."
        ),
    )


def build_sed_sweep_members_ir() -> Kernel:
    """The sedimentation sweep batched over ensemble members.

    Identical arithmetic to :func:`build_sed_sweep_ir` wrapped in one
    outer member loop: ``dists[sp]`` now points at a
    ``(nm, ni, nk, nj, nkr)`` view (member element stride ``sm``),
    ``precip`` is ``(nm, ni, nj)``, and the presence flags become
    per-member — ``active[m, sp]`` — which is what keeps the per-member
    work stats (and therefore the per-member clock charges) identical
    to a solo run of each member. The k-carried flux recurrence is
    member-local, so the member loop adds no new dependences; the nest
    stays serial for the same reasons the solo kernel does.
    """
    m, i, k, j, sp, b = Sym("m"), Sym("i"), Sym("k"), Sym("j"), Sym("sp"), Sym("b")
    nkr = Sym("nkr")

    def dist_at(kk):
        return (sp, m, i, kk, j, b)

    bin_loop = lambda body: Loop("b", Const(0), nkr, body)

    flux_fill = bin_loop(
        [
            Let("nv", Load("dists", dist_at(k))),
            Store("flux", (b,), Sym("nv") * Load("courant", (sp, k, b))),
            If(Sym("nv").ne(Const(0.0)), [Assign("rownz", Const(1))]),
        ]
    )
    subtract = bin_loop([Store("dists", dist_at(k), Load("flux", (b,)), "-=")])
    to_precip = [
        Decl("acc", "double", Const(0.0)),
        bin_loop(
            [
                Assign(
                    "acc",
                    Sym("acc") + Load("flux", (b,)) * Load("masses", (sp, b)),
                )
            ]
        ),
        Store("precip", (m, i, j), Sym("acc"), "+="),
    ]
    to_below = [
        bin_loop([Store("dists", dist_at(k - 1), Load("flux", (b,)), "+=")])
    ]

    per_row = [
        LocalArray("flux", MAX_NKR),
        Decl("rownz", "int", Const(0)),
        flux_fill,
        If(
            Sym("rownz"),
            [
                Store("active", (m, sp), Const(1)),
                subtract,
                If(k.eq(Const(0)), to_precip, to_below),
            ],
        ),
    ]

    main = Loop(
        "m",
        Const(0),
        Sym("nm"),
        [
            Loop(
                "i",
                Const(0),
                Sym("ni"),
                [
                    Loop(
                        "k",
                        Const(0),
                        Sym("nk"),
                        [
                            Loop(
                                "j",
                                Const(0),
                                Sym("nj"),
                                [Loop("sp", Const(0), Sym("nsp"), per_row)],
                            )
                        ],
                    )
                ],
            )
        ],
    )

    return Kernel(
        name="sed_sweep_members",
        params=(
            ArrayParam(
                "dists",
                strides=(Sym("sm"), Sym("si"), Sym("sk"), Sym("sj"), Const(1)),
                intent="inout",
                ptr_table=True,
            ),
            ArrayParam("courant", strides=(Sym("nk") * nkr, nkr, Const(1))),
            ArrayParam("masses", strides=(nkr, Const(1))),
            ArrayParam(
                "precip",
                strides=(Sym("pm"), Sym("psi"), Sym("psj")),
                intent="inout",
            ),
            ScalarParam("nm", "long"),
            ScalarParam("nsp", "long"),
            ScalarParam("ni", "long"),
            ScalarParam("nk", "long"),
            ScalarParam("nj", "long"),
            ScalarParam("nkr", "long"),
            ScalarParam("sm", "long"),
            ScalarParam("si", "long"),
            ScalarParam("sk", "long"),
            ScalarParam("sj", "long"),
            ScalarParam("pm", "long"),
            ScalarParam("psi", "long"),
            ScalarParam("psj", "long"),
            ArrayParam(
                "active",
                strides=(Sym("nsp"), Const(1)),
                ctype="unsigned char",
                intent="out",
            ),
        ),
        body=[
            Loop(
                "m",
                Const(0),
                Sym("nm"),
                [
                    Loop(
                        "sp",
                        Const(0),
                        Sym("nsp"),
                        [Store("active", (m, sp), Const(0))],
                    )
                ],
            ),
            main,
        ],
        doc=(
            "Fused sedimentation sweep over a member-stacked superblock "
            "(m, i, k, j, species); arithmetic identical to sed_sweep per "
            "member, with per-member active flags."
        ),
    )


def build_remap_scatter_ir() -> Kernel:
    """The Kovetz-Olund two-bin deposit as loop IR.

    Deposits ``n_live[p, b]`` split between ladder bins ``k_idx[p, b]``
    (weight ``1 - w_hi``) and ``k_idx[p, b] + 1`` (weight ``w_hi``),
    writing the ``(npts, nkr)`` result to ``acc``. Matches the
    two-bincount numpy reference bit for bit: bincount accumulates
    sequentially in flat order (here: b ascending per point), and the
    final ``acc`` is the elementwise ``lo + hi`` sum, exactly as the
    reference's second ``bincount`` pass.

    The analysis keeps it serial twice over: the scatter through
    ``k_idx`` is an indirect store (iterations cannot be proven
    disjoint bin-wise), and the point nest is depth 1 — below the
    parallel-overhead floor even though the ``p`` loop itself is
    independent.
    """
    p, b = Sym("p"), Sym("b")
    nkr = Sym("nkr")

    body_p = [
        LocalArray("lo", MAX_NKR),
        LocalArray("hi", MAX_NKR),
        Loop(
            "b",
            Const(0),
            nkr,
            [Store("lo", (b,), Const(0.0)), Store("hi", (b,), Const(0.0))],
        ),
        Loop(
            "b",
            Const(0),
            nkr,
            [
                Let("kk", Load("k_idx", (p, b)), ctype="long"),
                Store(
                    "lo",
                    (Sym("kk"),),
                    Load("n_live", (p, b)) * (Const(1.0) - Load("w_hi", (p, b))),
                    "+=",
                ),
                Store(
                    "hi",
                    (Sym("kk") + 1,),
                    Load("n_live", (p, b)) * Load("w_hi", (p, b)),
                    "+=",
                ),
            ],
        ),
        Loop(
            "b",
            Const(0),
            nkr,
            [Store("acc", (p, b), Load("lo", (b,)) + Load("hi", (b,)))],
        ),
    ]

    return Kernel(
        name="remap_scatter",
        params=(
            ArrayParam("n_live", strides=(nkr, Const(1))),
            ArrayParam("w_hi", strides=(nkr, Const(1))),
            ArrayParam("k_idx", strides=(nkr, Const(1)), ctype="long"),
            ArrayParam("acc", strides=(nkr, Const(1)), intent="out"),
            ScalarParam("npts", "long"),
            ScalarParam("nkr", "long"),
        ),
        body=[Loop("p", Const(0), Sym("npts"), body_p)],
        doc=(
            "Kovetz-Olund remap scatter: two-bin deposit of n_live between "
            "ladder bins k_idx and k_idx + 1, accumulated in the reference "
            "bincount's flat order."
        ),
    )


def _max0(x):
    """``np.maximum(x, 0.0)`` for finite ``x``."""
    return Select(x.gt(Const(0.0)), x, Const(0.0))


def _clip(x, lo, hi):
    """``np.clip(x, lo, hi)`` as nested selects (minimum of maximum)."""
    low = Select(x.lt(lo), lo, x)
    return Select(low.gt(hi), hi, low)


def build_cond_grow_ir() -> Kernel:
    """One species' diffusional growth, remap and vapor limiter as loop IR.

    For each selected row ``r = idx[p]`` of the species distribution
    ``n`` (``(rows, nkr)`` with row stride ``ld >= nkr``, updated in
    place) one pass does what
    ``_grow_species`` plus the limiter of
    ``_condensation_core_members`` do with full-size numpy
    temporaries: the growth increment ``dm`` (in the reference's
    operation order, ``c0 = 4 pi rho_p * habit`` folded in the caller),
    evaporation below half the smallest bin mass, the Kovetz-Olund
    two-bin split into per-row ``lo``/``hi`` accumulators (as in
    ``remap_scatter``), old and new mass content, the vapor limiter
    ``scale`` and the blend. Per selected row it returns the limited
    condensate mass change ``dmass[p]`` and the CCN credit
    ``ccn_add[p] = scale * evaporated``, and ``bound[p] = 1`` when the
    vapor limiter binds (``|dq| > room``, the numpy engine's test); the
    vapor, temperature and CCN updates stay with the caller.

    The ladder index is exact: ``ilogb`` of ``m / x_min`` (integer
    exponent extraction) corrected by one step each way against the
    ladder itself, so ``masses[k] <= m < masses[k + 1]`` holds whatever
    the rounding of the quotient — no libm ``log2`` is involved. The
    mass contents are sequential sums rather than BLAS dots.

    Rows are independent, but the nest is depth 1 (below the
    parallel-overhead floor) and the remap scatters through a computed
    index, so the derivation keeps it serial.
    """
    p, b = Sym("p"), Sym("b")
    nkr = Sym("nkr")
    r = Sym("r")
    x = lambda i: Load("masses", (i,))
    top = nkr - 1

    ladder = [
        Let("ml", _clip(Sym("nm"), Sym("x0"), Sym("xtop"))),
        Decl(
            "k", "long", Call("ilogb", (Sym("ml") / Sym("x_min"),))
        ),
        If(Sym("k").lt(Const(0)), [Assign("k", Const(0))]),
        If(Sym("k").gt(nkr - 2), [Assign("k", nkr - 2)]),
        If(
            Sym("k").gt(Const(0)).logical_and(Sym("ml").lt(x(Sym("k")))),
            [Assign("k", Sym("k") - 1)],
        ),
        If(
            Sym("k").lt(nkr - 2).logical_and(Sym("ml").ge(x(Sym("k") + 1))),
            [Assign("k", Sym("k") + 1)],
        ),
        Let("xk", x(Sym("k"))),
        Let("whi0", (Sym("ml") - Sym("xk")) / (x(Sym("k") + 1) - Sym("xk"))),
        Let("whi", _clip(Sym("whi0"), Const(0.0), Const(1.0))),
        Store("lo", (Sym("k"),), Sym("nb") * (Const(1.0) - Sym("whi")), "+="),
        Store("hi", (Sym("k") + 1,), Sym("nb") * Sym("whi"), "+="),
    ]
    grow = Loop(
        "b",
        Const(0),
        nkr,
        [
            Let("nb", Load("n", (r, b))),
            Assign("old", Sym("old") + Sym("nb") * x(b)),
            Let(
                "nm",
                x(b)
                + (
                    ((Sym("c0") * Load("radii", (b,))) * Sym("gp")) * Sym("ss")
                )
                * Sym("dt"),
            ),
            If(
                Sym("nm").lt(Sym("half_x0")),
                [Assign("evap", Sym("evap") + Sym("nb"))],
                [If(Sym("nb").gt(Const(0.0)), ladder)],
            ),
        ],
    )
    content = Loop(
        "b",
        Const(0),
        nkr,
        [
            Let("v", Load("lo", (b,)) + Load("hi", (b,))),
            Store("nn", (b,), Sym("v")),
            Assign("newc", Sym("newc") + Sym("v") * x(b)),
        ],
    )
    adq, room = Sym("adq"), Sym("room")
    limiter = [
        Let("dq", (Sym("newc") - Sym("old")) / Load("rho", (p,))),
        Let("up", Sym("qvp") - Sym("qsp")),
        Let("down", Sym("qsp") - Sym("qvp")),
        Let(
            "room",
            Select(
                Sym("dq").ge(Const(0.0)),
                _max0(Sym("up")),
                _max0(Sym("down")),
            ),
        ),
        Let("adq", Call("fabs", (Sym("dq"),))),
        Let(
            "sc0",
            Select(
                adq.gt(room),
                room / Select(adq.gt(Const(1e-300)), adq, Const(1e-300)),
                Const(1.0),
            ),
        ),
        Let("scale", _clip(Sym("sc0"), Const(0.0), Const(1.0))),
    ]
    blend = Loop(
        "b",
        Const(0),
        nkr,
        [
            Let("n0", Load("n", (r, b))),
            Let("bl", Sym("n0") + Sym("scale") * (Load("nn", (b,)) - Sym("n0"))),
            Assign("dmass", Sym("dmass") + (Sym("bl") - Sym("n0")) * x(b)),
            Store("n", (r, b), Sym("bl")),
        ],
    )
    per_row = [
        Let("r", Load("idx", (p,)), ctype="long"),
        Let("qvp", Load("qv", (p,))),
        Let("qsp", Load("qs", (p,))),
        Let("ss", (Sym("qvp") / Sym("qsp")) - Const(1.0)),
        Let("gp", Load("gc", (p,))),
        Let("x0", x(Const(0))),
        Let("xtop", x(top)),
        Let("half_x0", Const(0.5) * Sym("x0")),
        LocalArray("lo", MAX_NKR),
        LocalArray("hi", MAX_NKR),
        LocalArray("nn", MAX_NKR),
        Loop(
            "b",
            Const(0),
            nkr,
            [Store("lo", (b,), Const(0.0)), Store("hi", (b,), Const(0.0))],
        ),
        Decl("old", "double", Const(0.0)),
        Decl("evap", "double", Const(0.0)),
        grow,
        Decl("newc", "double", Const(0.0)),
        content,
        *limiter,
        Decl("dmass", "double", Const(0.0)),
        blend,
        Store("dmass_out", (p,), Sym("dmass")),
        Store("ccn_add", (p,), Sym("scale") * Sym("evap")),
        Store("bound", (p,), Select(adq.gt(room), Const(1), Const(0))),
    ]
    vec = lambda name, intent="in": ArrayParam(
        name, strides=(Const(1),), intent=intent
    )
    return Kernel(
        name="cond_grow",
        params=(
            ArrayParam("n", strides=(Sym("ld"), Const(1)), intent="inout"),
            ArrayParam("idx", strides=(Const(1),), ctype="long"),
            vec("qv"),
            vec("qs"),
            vec("rho"),
            vec("gc"),
            vec("masses"),
            vec("radii"),
            vec("dmass_out", "out"),
            vec("ccn_add", "out"),
            ArrayParam(
                "bound", strides=(Const(1),), ctype="unsigned char", intent="out"
            ),
            ScalarParam("nsel", "long"),
            ScalarParam("nkr", "long"),
            ScalarParam("ld", "long"),
            ScalarParam("c0"),
            ScalarParam("dt"),
            ScalarParam("x_min"),
        ),
        body=[Loop("p", Const(0), Sym("nsel"), per_row)],
        doc=(
            "Condensation growth, KO remap and vapor limiter for one "
            "species over the rows idx[p] (row stride ld), in place; "
            "returns the limited mass change, CCN credit and limiter flag "
            "per row."
        ),
    )


def _real_ops(real: str):
    """Literal and max/min helpers for ``real`` (double or float) code."""
    lit = lambda v: Const(v, "float" if real == "float" else "")
    vmax = lambda x, y: Select(x.gt(y), x, y)
    vmin = lambda x, y: Select(x.lt(y), x, y)
    return lit, vmax, vmin


def _suffix(real: str) -> str:
    return "f32" if real == "float" else "f64"


def build_coal_limit_ir(real: str = "double") -> Kernel:
    """The collision limiter pass of the sparse engine as loop IR.

    Given the pre-limit operator products — ``pkr = b @ [K500^T|Kdel^T]``
    and ``pkc = a @ [K500|Kdel]`` — it forms, per row and bin, the
    sparse engine's pre-limit losses in the reference operation order
    (``((half * a) * (P500 + w * Pdel)) * dt``), counts in ``bind[0]``
    the rows where some loss exceeds what its bin holds (the limiter
    binds there), and writes the limited spectra
    ``ap = a * min(1, a / max(loss, 1e-30))`` (and ``bp`` likewise).
    Self-collection uses the summed row+column loss and writes ``ap``
    only (``bp`` is ``ap``). The caller uses ``ap``/``bp`` only when
    ``bind[0]`` is nonzero, which is exactly when the numpy engine
    limits.

    ``real`` selects the arithmetic type; the float variant uses
    ``float`` temporaries and ``f``-suffixed literals, so nothing is
    promoted to double.
    """
    p, i, j = Sym("p"), Sym("i"), Sym("j")
    na, nb = Sym("na"), Sym("nb")
    lit, vmax, vmin = _real_ops(real)
    tiny = lit(1e-30)

    def limited(target, idx, value, loss):
        return [
            If(Un("!", loss.le(value)), [Assign("rb", Const(1))]),
            Store(
                target,
                idx,
                value * vmin(lit(1.0), value / vmax(loss, tiny)),
            ),
        ]

    def loss_of(name, col, width, value):
        return (
            (Sym("half") * value)
            * (
                Load(name, (p, col))
                + Sym("w") * Load(name, (p, width + col))
            )
        ) * Sym("dt")

    self_body = Loop(
        "i",
        Const(0),
        na,
        [
            Let("av", Load("a", (p, i)), ctype=real),
            Let("rs", loss_of("pkr", i, na, Sym("av")), ctype=real),
            Let("cs", loss_of("pkc", i, nb, Sym("av")), ctype=real),
            Let("loss", Sym("rs") + Sym("cs"), ctype=real),
            *limited("ap", (p, i), Sym("av"), Sym("loss")),
        ],
    )
    pair_body = [
        Loop(
            "i",
            Const(0),
            na,
            [
                Let("av", Load("a", (p, i)), ctype=real),
                Let("rs", loss_of("pkr", i, na, Sym("av")), ctype=real),
                *limited("ap", (p, i), Sym("av"), Sym("rs")),
            ],
        ),
        Loop(
            "j",
            Const(0),
            nb,
            [
                Let("bv", Load("b", (p, j)), ctype=real),
                Let("cs", loss_of("pkc", j, nb, Sym("bv")), ctype=real),
                *limited("bp", (p, j), Sym("bv"), Sym("cs")),
            ],
        ),
    ]
    return Kernel(
        name=f"coal_limit_{_suffix(real)}",
        params=(
            ArrayParam("a", strides=(na, Const(1)), ctype=real),
            ArrayParam("b", strides=(nb, Const(1)), ctype=real),
            ArrayParam("pkr", strides=(Sym("ldr"), Const(1)), ctype=real),
            ArrayParam("pkc", strides=(Sym("ldc"), Const(1)), ctype=real),
            ArrayParam("ws", strides=(Const(1),), ctype=real),
            ArrayParam("ap", strides=(na, Const(1)), ctype=real, intent="out"),
            ArrayParam("bp", strides=(nb, Const(1)), ctype=real, intent="out"),
            ArrayParam("bind", strides=(Const(1),), ctype="long", intent="out"),
            ScalarParam("npts", "long"),
            ScalarParam("na", "long"),
            ScalarParam("nb", "long"),
            ScalarParam("ldr", "long"),
            ScalarParam("ldc", "long"),
            ScalarParam("half", real),
            ScalarParam("dt", real),
            ScalarParam("selfc", "long"),
        ),
        body=[
            Decl("bnd", "long", Const(0)),
            Loop(
                "p",
                Const(0),
                Sym("npts"),
                [
                    Let("w", Load("ws", (p,)), ctype=real),
                    Decl("rb", "long", Const(0)),
                    If(Sym("selfc"), [self_body], pair_body),
                    Assign("bnd", Sym("bnd") + Sym("rb")),
                ],
            ),
            Store("bind", (Const(0),), Sym("bnd")),
        ],
        doc=(
            f"Collision limiter pass ({real}): pre-limit losses from the "
            "operator products, count of binding rows, limited spectra "
            "ap/bp."
        ),
    )


def build_coal_update_ir(real: str = "double") -> Kernel:
    """The collision update pass of the sparse engine as loop IR.

    Per row ``r = idx[p]``: the final losses from the (post-limit)
    products ``pkr``/``pkc``; the gain spectrum from the row, row + 1,
    column, column + 1 and diagonal families (``pgr = bp @ [L500^T|
    Ldel^T|Lh500^T|Lhdel^T]``, ``pgc = ap @ [U500|Udel|Uh500|Uhdel]``,
    ``d500``/``ddel``) with their one-bin shifts and the top-bin fold,
    scaled by ``hdt = half * dt``; then the clamped write-back into the
    collector (``dists[0]``), collected (``dists[1]``) and product
    (``dists[2]``) rows, which share the row stride ``ld >= nkr`` (any
    layout whose rows are ``ld`` elements apart: a compact ``(rows,
    nkr)`` array or the bin columns of the resident superblock).
    ``pmode`` says where the gain lands: 1 the
    collector, 2 the collected, 0 a third species. Each family is
    accumulated in the numpy engine's order, and the float64 rows are
    combined in double exactly as the numpy engine's mixed-precision
    assignment does (``a_new + gain`` with ``a_new`` stored first).

    The gain accumulator is a per-row stack array, the destinations
    are computed rows, and the three species rows may alias (``dists``
    is a pointer table), so the nest is serial.
    """
    p, i, j, k = Sym("p"), Sym("i"), Sym("j"), Sym("k")
    na, nb, nkr = Sym("na"), Sym("nb"), Sym("nkr")
    r, w = Sym("r"), Sym("w")
    lit, vmax, _ = _real_ops(real)

    def pair(name, col, width, step):
        return Load(name, (p, col + step * width)) + w * Load(
            name, (p, col + (step + 1) * width)
        )

    def loss(value, name, col, width):
        return ((Sym("half") * value) * pair(name, col, width, 0)) * Sym("dt")

    gain = [
        LocalArray("g", MAX_NKR, ctype=real),
        Loop("k", Const(0), nkr, [Store("g", (k,), lit(0.0))]),
        Loop(
            "i",
            Const(0),
            na,
            [Store("g", (i,), Load("ap", (p, i)) * pair("pgr", i, na, 0), "+=")],
        ),
        Loop(
            "j",
            Const(0),
            nb,
            [Store("g", (j,), Load("bp", (p, j)) * pair("pgc", j, nb, 0), "+=")],
        ),
        Loop(
            "i",
            Const(0),
            Sym("ha"),
            [
                Store(
                    "g", (i + 1,), Load("ap", (p, i)) * pair("pgr", i, na, 2), "+="
                )
            ],
        ),
        Loop(
            "j",
            Const(0),
            Sym("hb"),
            [
                Store(
                    "g", (j + 1,), Load("bp", (p, j)) * pair("pgc", j, nb, 2), "+="
                )
            ],
        ),
        Loop(
            "i",
            Const(0),
            Sym("hd"),
            [
                Store(
                    "g",
                    (i + 1,),
                    (Load("ap", (p, i)) * Load("bp", (p, i)))
                    * (Load("d5", (i,)) + w * Load("dd", (i,))),
                    "+=",
                )
            ],
        ),
        If(
            Sym("nd").eq(nkr),
            [
                Store(
                    "g",
                    (nkr - 1,),
                    (Load("ap", (p, nkr - 1)) * Load("bp", (p, nkr - 1)))
                    * (Load("d5", (nkr - 1,)) + w * Load("dd", (nkr - 1,))),
                    "+=",
                )
            ],
        ),
    ]

    def dist(slot, bin_):
        return Load("dists", (Const(slot), r, bin_))

    def clamp0(v):
        return Select(v.gt(Const(0.0)), v, Const(0.0))

    def add_gain(slot, clamp=False):
        total = dist(slot, k) + Sym("gk")
        return Loop(
            "k",
            Const(0),
            nkr,
            [
                Let("gk", Load("g", (k,)) * Sym("hdt"), ctype=real),
                Store(
                    "dists",
                    (Const(slot), r, k),
                    clamp0(total) if clamp else total,
                ),
            ],
        )

    self_update = [
        Loop(
            "i",
            Const(0),
            na,
            [
                Let("apv", Load("ap", (p, i)), ctype=real),
                Let(
                    "v",
                    (Load("a", (p, i)) - loss(Sym("apv"), "pkr", i, na))
                    - loss(Sym("apv"), "pkc", i, nb),
                    ctype=real,
                ),
                Store("dists", (Const(0), r, i), vmax(Sym("v"), lit(0.0))),
            ],
        ),
        If(Sym("pmode").eq(Const(1)), [add_gain(0, clamp=True)], [add_gain(2)]),
    ]
    pair_update = [
        Loop(
            "i",
            Const(0),
            na,
            [
                Let(
                    "v",
                    Load("a", (p, i))
                    - loss(Load("ap", (p, i)), "pkr", i, na),
                    ctype=real,
                ),
                Store("dists", (Const(0), r, i), vmax(Sym("v"), lit(0.0))),
            ],
        ),
        Loop(
            "j",
            Const(0),
            nb,
            [
                Let(
                    "v",
                    Load("b", (p, j))
                    - loss(Load("bp", (p, j)), "pkc", j, nb),
                    ctype=real,
                ),
                Store("dists", (Const(1), r, j), vmax(Sym("v"), lit(0.0))),
            ],
        ),
        If(
            Sym("pmode").eq(Const(1)),
            [add_gain(0)],
            [If(Sym("pmode").eq(Const(2)), [add_gain(1)], [add_gain(2)])],
        ),
    ]
    per_row = [
        Let("r", Load("idx", (p,)), ctype="long"),
        Let("w", Load("ws", (p,)), ctype=real),
        *gain,
        If(Sym("selfc"), self_update, pair_update),
    ]
    mat = lambda name, ld: ArrayParam(name, strides=(ld, Const(1)), ctype=real)
    return Kernel(
        name=f"coal_update_{_suffix(real)}",
        params=(
            ArrayParam("idx", strides=(Const(1),), ctype="long"),
            mat("a", na),
            mat("b", nb),
            mat("ap", na),
            mat("bp", nb),
            mat("pkr", Sym("ldkr")),
            mat("pgr", Sym("ldgr")),
            mat("pkc", Sym("ldkc")),
            mat("pgc", Sym("ldgc")),
            ArrayParam("ws", strides=(Const(1),), ctype=real),
            ArrayParam("d5", strides=(Const(1),), ctype=real),
            ArrayParam("dd", strides=(Const(1),), ctype=real),
            ArrayParam(
                "dists",
                strides=(Sym("ld"), Const(1)),
                intent="inout",
                ptr_table=True,
            ),
            ScalarParam("npts", "long"),
            ScalarParam("nkr", "long"),
            ScalarParam("ld", "long"),
            ScalarParam("na", "long"),
            ScalarParam("nb", "long"),
            ScalarParam("nd", "long"),
            ScalarParam("ha", "long"),
            ScalarParam("hb", "long"),
            ScalarParam("hd", "long"),
            ScalarParam("ldkr", "long"),
            ScalarParam("ldgr", "long"),
            ScalarParam("ldkc", "long"),
            ScalarParam("ldgc", "long"),
            ScalarParam("half", real),
            ScalarParam("dt", real),
            ScalarParam("hdt", real),
            ScalarParam("selfc", "long"),
            ScalarParam("pmode", "long"),
        ),
        body=[Loop("p", Const(0), Sym("npts"), per_row)],
        doc=(
            f"Collision update pass ({real}): final losses, the five gain "
            "families with shifts and top-bin fold, clamped write-back "
            "into the collector/collected/product rows idx[p]."
        ),
    )


def _rows_param(name: str = "dists", intent: str = "inout") -> ArrayParam:
    """A pointer table of species rows ``ld`` elements apart."""
    return ArrayParam(
        name, strides=(Sym("ld"), Const(1)), intent=intent, ptr_table=True
    )


def _vec(name: str, intent: str = "in", ctype: str = "double") -> ArrayParam:
    return ArrayParam(name, strides=(Const(1),), ctype=ctype, intent=intent)


def _qsat(prefix: str, t, p, a: float, b: float) -> tuple[list, Sym]:
    """Statements computing ``thermo.saturation_mixing_ratio`` in its
    operation order (Tetens/Magnus fit ``a``, ``b``); returns the
    statements and the result symbol."""
    tc, es0, es, qs = (Sym(f"{prefix}{n}") for n in ("tc", "es0", "es", "qs"))
    half_p = Const(0.5) * p
    return [
        Let(tc.name, t - Const(T_0)),
        Let(
            es0.name,
            Const(6.112) * Call("exp", ((Const(a) * tc) / (tc + Const(b)),)),
        ),
        Let(es.name, Select(es0.lt(half_p), es0, half_p)),
        Let(qs.name, (Const(EPS) * es) / (p - es)),
    ], qs


def build_nucleate_ir() -> Kernel:
    """``jernucl01_ks`` on rows ``idx[p]`` of the species pointer table.

    ``dists`` holds the liquid, dendrite, column and plate rows (in
    that order) ``ld`` elements apart; ``t``/``pres``/``qv``/``rho``/
    ``ccn`` are per selected row. Each row does what the numpy
    reference does to it, in its operation order: Twomey activation
    capped by the vapor excess into liquid bin 0, the CCN/vapor/latent
    updates, then the Fletcher ice nucleation split over the three
    habits by the temperature weights, each habit's bin 0 and vapor/
    latent update in turn. Where no ice nucleates the split is skipped
    (the reference only adds zeros there, which changes at most the
    sign of a zero). Rows are independent; ``exp`` is libm's, so
    results agree with numpy to rounding.
    """
    p = Sym("p")
    r = Sym("r")
    t0, pp, q0, rh, cc = (Sym(n) for n in ("t0", "pp", "q0", "rh", "cc"))
    wet, qsw = _qsat("w", t0, pp, 17.67, 243.5)
    sw, nact, dq = Sym("sw"), Sym("nact"), Sym("dq")
    q1, t1 = Sym("q1"), Sym("t1")
    ice, qsi = _qsat("i", t1, pp, 21.8745584, 265.5)
    si, scool, nice = Sym("si"), Sym("scool"), Sym("nice")
    u, wden, wcol, wpla, tot0 = (
        Sym(n) for n in ("u", "wden", "wcol", "wpla", "tot0")
    )
    assert TWOMEY_K == 0.5, "the activation power law is emitted as sqrt"
    flt, cap = Sym("flt"), Const(ICE_NUCLEATION_CAP)
    habits = []
    for slot, weight in ((1, wden), (2, wcol), (3, wpla)):
        n_sp, dqi = Sym(f"n{slot}"), Sym(f"dqi{slot}")
        habits += [
            Let(n_sp.name, (nice * weight) / Sym("tot")),
            Store("dists", (Const(slot), r, Const(0)), n_sp, "+="),
            Let(dqi.name, (n_sp * Sym("xi0")) / rh),
            Assign("qm", Sym("qm") - dqi),
            Assign("tm", Sym("tm") + Const(L_S / C_P) * dqi),
        ]
    per_row = [
        Let("r", Load("idx", (p,)), ctype="long"),
        Let("t0", Load("t", (p,))),
        Let("pp", Load("pres", (p,))),
        Let("q0", Load("qv", (p,))),
        Let("rh", Load("rho", (p,))),
        Let("cc", Load("ccn", (p,))),
        # --- droplet activation
        *wet,
        Let("sw", q0 / qsw - Const(1.0)),
        Let(
            "fr",
            Call(
                "sqrt",
                (_clip(sw / Const(S_FULL_ACTIVATION), Const(0.0), Const(1.0)),),
            ),
        ),
        Let("na0", Select(sw.gt(Const(0.0)), cc * Sym("fr"), Const(0.0))),
        Let("mbv", (_max0(q0 * rh) * Const(1.0e-3)) / Sym("x0")),
        Let("nact", Select(Sym("na0").lt(Sym("mbv")), Sym("na0"), Sym("mbv"))),
        Store("dists", (Const(0), r, Const(0)), nact, "+="),
        Let("dq", (nact * Sym("x0")) / rh),
        Let("q1", q0 - dq),
        Let("t1", t0 + Const(L_V / C_P) * dq),
        # --- ice nucleation
        *ice,
        Let("si", q1 / qsi - Const(1.0)),
        Let("scool", _max0(Const(T_0) - t1)),
        Decl("nice", "double", Const(0.0)),
        If(
            t1.lt(Const(T_0 - 5.0)).logical_and(si.gt(Const(0.0))),
            [
                Let(
                    "flt",
                    Const(FLETCHER_A) * Call("exp", (Const(FLETCHER_B) * scool,)),
                ),
                Assign("nice", Select(flt.lt(cap), flt, cap)),
            ],
        ),
        Decl("qm", "double", q1),
        Decl("tm", "double", t1),
        # Without ice nucleation the habit split only adds zeros.
        If(
            nice.ne(Const(0.0)),
            [
                Let("u", (t1 - Const(T_0 - 15.0)) / Const(4.0)),
                Let("wden", Call("exp", (Const(-0.5) * (u * u),))),
                Let(
                    "wcol",
                    _clip(
                        (Const(T_0 - 20.0) - t1) / Const(10.0),
                        Const(0.0),
                        Const(1.0),
                    ),
                ),
                Let("wpla", _max0((Const(1.0) - wden) - wcol)),
                Let("tot0", (wden + wcol) + wpla),
                Let("tot", Select(tot0.gt(Const(1e-12)), tot0, Const(1e-12))),
                *habits,
            ],
        ),
        Store("t", (p,), Sym("tm")),
        Store("qv", (p,), Sym("qm")),
        Store("ccn", (p,), cc - nact),
    ]
    return Kernel(
        name="nucleate_rows",
        params=(
            _rows_param(),
            _vec("idx", ctype="long"),
            _vec("t", "inout"),
            _vec("pres"),
            _vec("qv", "inout"),
            _vec("rho"),
            _vec("ccn", "inout"),
            ScalarParam("n", "long"),
            ScalarParam("ld", "long"),
            ScalarParam("x0"),
            ScalarParam("xi0"),
        ),
        body=[Loop("p", Const(0), Sym("n"), per_row)],
        doc=(
            "jernucl01_ks on rows idx[p]: droplet activation into liquid "
            "bin 0, Fletcher ice nucleation split over the three habits, "
            "with the vapor, CCN and latent-heat updates."
        ),
    )


def build_freeze_melt_ir() -> Kernel:
    """``freezing_melting_step`` on rows ``idx[p]`` of all species.

    ``dists`` is the full species table in :class:`Species` order, rows
    ``ld`` elements apart; ``masses`` the liquid bin masses. Per row, in
    the reference's order: immersion/homogeneous freezing of the liquid
    (bins below ``hail_bin`` to plates, the rest to hail) with its
    latent heat, then — if the row is above freezing — melting of each
    ice species in turn at its relaxation fraction (``mf_fast`` for the
    habits and snow, ``mf_slow`` for graupel and hail, both taken from
    numpy by the caller), each with its latent cooling.

    ``flags[p]`` records what the numpy reference's cross-row gates
    need: bit 0 when the row's freezing fraction is nonzero, bit ``s``
    when species ``s`` melted a nonzero amount. A member's work count
    is then the OR over its rows, exactly as ``frac.any()`` and
    ``melted.any()`` decide it. Rows the gates would skip get only
    zero increments there, so applying every row unconditionally
    differs at most in the sign of a zero.
    """
    p, b, r = Sym("p"), Sym("b"), Sym("r")
    nkr = Sym("nkr")
    x = lambda i: Load("masses", (i,))
    t0, rh = Sym("t0"), Sym("rh")

    def dist(slot, bin_=b):
        return Load("dists", (Const(slot), r, bin_))

    freeze = [
        Assign("fl", Const(1)),
        Decl("dq", "double", Const(0.0)),
        Loop(
            "b",
            Const(0),
            nkr,
            [
                Let("f", dist(0) * Sym("fr")),
                If(
                    b.lt(Sym("hail_bin")),
                    [Store("dists", (Const(2), r, b), Sym("f"), "+=")],
                    [Store("dists", (Const(6), r, b), Sym("f"), "+=")],
                ),
                Store("dists", (Const(0), r, b), Sym("f"), "-="),
                Assign("dq", Sym("dq") + Sym("f") * x(b)),
            ],
        ),
        Assign("tm", Sym("tm") + Const(L_F / C_P) * (Sym("dq") / rh)),
    ]
    melt = [Decl("dqm", "double"), Decl("anym", "long")]
    for slot in range(1, len(Species)):
        mf = Sym("mf_slow") if slot >= 5 else Sym("mf_fast")
        melt += [
            Assign("dqm", Const(0.0)),
            Assign("anym", Const(0)),
            Loop(
                "b",
                Const(0),
                nkr,
                [
                    Let("mv", dist(slot) * mf),
                    If(Sym("mv").ne(Const(0.0)), [Assign("anym", Const(1))]),
                    Store("dists", (Const(slot), r, b), Sym("mv"), "-="),
                    Store("dists", (Const(0), r, b), Sym("mv"), "+="),
                    Assign("dqm", Sym("dqm") + Sym("mv") * x(b)),
                ],
            ),
            Assign("tm", Sym("tm") - Const(L_F / C_P) * (Sym("dqm") / rh)),
            If(Sym("anym"), [Assign("fl", Sym("fl") + Const(1 << slot))]),
        ]
    per_row = [
        Let("r", Load("idx", (p,)), ctype="long"),
        Let("t0", Load("t", (p,))),
        Let("rh", Load("rho", (p,))),
        Decl("tm", "double", t0),
        Decl("fl", "long", Const(0)),
        Let("sc", _max0(Const(T_0) - t0)),
        # The Bigg rate is only evaluated where it applies.
        Let(
            "fr",
            Select(
                Sym("sc").gt(Const(5.0)),
                Select(
                    t0.le(Const(T_HOMOGENEOUS)),
                    Const(1.0),
                    Const(1.0)
                    - Call(
                        "exp",
                        (
                            (
                                Const(-BIGG_A)
                                * Call("exp", (Const(BIGG_B) * Sym("sc"),))
                            )
                            * Sym("dt"),
                        ),
                    ),
                ),
                Const(0.0),
            ),
        ),
        If(Sym("fr").ne(Const(0.0)), freeze),
        If(Sym("tm").gt(Const(T_0)), melt),
        Store("t", (p,), Sym("tm")),
        Store("flags", (p,), Sym("fl")),
    ]
    return Kernel(
        name="freeze_melt_rows",
        params=(
            _rows_param(),
            _vec("idx", ctype="long"),
            _vec("t", "inout"),
            _vec("rho"),
            _vec("masses"),
            _vec("flags", "out", ctype="unsigned char"),
            ScalarParam("n", "long"),
            ScalarParam("nkr", "long"),
            ScalarParam("ld", "long"),
            ScalarParam("hail_bin", "long"),
            ScalarParam("dt"),
            ScalarParam("mf_fast"),
            ScalarParam("mf_slow"),
        ),
        body=[Loop("p", Const(0), Sym("n"), per_row)],
        doc=(
            "freezing_melting_step on rows idx[p]: liquid freezing to "
            "plates/hail, then melting of each ice species above 0 C, with "
            "latent heat; flags record the reference's per-call gates."
        ),
    )


def _pairwise_sum(load, nkr: Sym) -> list:
    """Statements summing ``load(b)`` over ``b < nkr`` into ``res`` in
    numpy's pairwise order for ``nkr <= 128``: eight running partial
    sums over whole blocks of eight, combined as a tree, then the tail
    in sequence (``nkr < 8``: one sequential sum from zero). This is
    exactly the order of numpy's ``sum(axis=1)`` over a contiguous
    ``(rows, nkr)`` array, so the sums are bit-identical to it."""
    q = Sym("q")
    acc = [f"a{j}" for j in range(8)]
    a = [Sym(n) for n in acc]
    tree = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
    blocks = [
        *(Decl(acc[j], "double", load(Const(j))) for j in range(8)),
        Loop(
            "q",
            Const(1),
            Sym("nblk"),
            [Assign(acc[j], a[j] + load(q * 8 + j)) for j in range(8)],
        ),
        Assign("res", tree),
    ]
    return [
        Decl("res", "double", Const(0.0)),
        If(Sym("nblk").gt(Const(0)), blocks),
        Loop(
            "b",
            Sym("nblk") * 8,
            nkr,
            [Assign("res", Sym("res") + load(Sym("b")))],
        ),
    ]


def build_census_rows_ir() -> Kernel:
    """Per-row bookkeeping of the microphysics driver, one pass.

    For each row ``r = idx[p]`` and species ``s`` of the table: the
    bin sum ``sums[s, p]`` (numpy's pairwise order, see
    :func:`_pairwise_sum`), the occupied-bin bound ``occ[s, p]``
    (highest bin above ``eps`` plus one, 0 when none) and, in bit
    ``s`` of ``nz[p]``, whether any bin is nonzero. The driver derives
    from these the ice/warm gates, the collision predicate and
    selection sums and the occupied-bin rectangles, without copying a
    row.
    """
    p, s, b, r = Sym("p"), Sym("s"), Sym("b"), Sym("r")
    nkr = Sym("nkr")
    load = lambda i: Load("dists", (s, r, i))
    per_species = [
        *_pairwise_sum(load, nkr),
        Decl("oc", "long", Const(0)),
        Decl("anyf", "long", Const(0)),
        Loop(
            "b",
            Const(0),
            nkr,
            [
                Let("v", load(b)),
                If(Sym("v").gt(Sym("eps")), [Assign("oc", b + 1)]),
                If(Sym("v").ne(Const(0.0)), [Assign("anyf", Const(1))]),
            ],
        ),
        Store("sums", (s, p), Sym("res")),
        Store("occ", (s, p), Sym("oc")),
        If(Sym("anyf"), [Assign("bits", Sym("bits") + Sym("bit"))]),
        Assign("bit", Sym("bit") + Sym("bit")),
    ]
    per_row = [
        Let("r", Load("idx", (p,)), ctype="long"),
        Decl("bits", "long", Const(0)),
        Decl("bit", "long", Const(1)),
        Loop("s", Const(0), Sym("nsp"), per_species),
        Store("nz", (p,), Sym("bits")),
    ]
    return Kernel(
        name="census_rows",
        params=(
            _rows_param(intent="in"),
            _vec("idx", ctype="long"),
            ArrayParam("sums", strides=(Sym("n"), Const(1)), intent="out"),
            ArrayParam(
                "occ", strides=(Sym("n"), Const(1)), ctype="long", intent="out"
            ),
            _vec("nz", "out", ctype="unsigned char"),
            ScalarParam("n", "long"),
            ScalarParam("nsp", "long"),
            ScalarParam("nkr", "long"),
            ScalarParam("ld", "long"),
            ScalarParam("nblk", "long"),
            ScalarParam("eps"),
        ),
        body=[Loop("p", Const(0), Sym("n"), per_row)],
        doc=(
            "Row census: per-species bin sums (numpy pairwise order), "
            "occupied-bin bounds and nonzero flags of rows idx[p]."
        ),
    )


loopir.register_kernel(
    loopir.KernelSpec(
        name="sed_sweep",
        build=build_sed_sweep_ir,
        transform=transform.plan_offload,
    )
)
def _plan_serial(kernel):
    """Offload derivation with parallel annotations off.

    The member loop of ``sed_sweep_members`` is provably independent,
    but fsbm physics kernels are emitted serial by convention: the
    model's parallelism lives at the rank level (threads in 8.3,
    processes in 8.8), and an ``omp parallel`` region inside every
    rank's physics would oversubscribe the very cores the ranks own.
    The rest of the derivation (normalize, fission, automatic-array
    hoisting) still runs.
    """
    return transform.plan_offload(
        kernel, transform.TransformPolicy(parallel=False)
    )


loopir.register_kernel(
    loopir.KernelSpec(
        name="sed_sweep_members",
        build=build_sed_sweep_members_ir,
        transform=_plan_serial,
    )
)
loopir.register_kernel(
    loopir.KernelSpec(
        name="remap_scatter",
        build=build_remap_scatter_ir,
        transform=transform.plan_offload,
    )
)
#: The row-local point kernels of the in-place driver, all serial.
ROW_KERNELS = {
    "cond_grow": build_cond_grow_ir,
    "nucleate_rows": build_nucleate_ir,
    "freeze_melt_rows": build_freeze_melt_ir,
    "census_rows": build_census_rows_ir,
}
for _name, _builder in ROW_KERNELS.items():
    loopir.register_kernel(
        loopir.KernelSpec(name=_name, build=_builder, transform=_plan_serial)
    )
#: The C real types the collision passes are emitted for.
COAL_REALS = ("double", "float")
for _c_real in COAL_REALS:
    for _pass, _builder in (
        ("limit", build_coal_limit_ir),
        ("update", build_coal_update_ir),
    ):
        loopir.register_kernel(
            loopir.KernelSpec(
                name=f"coal_{_pass}_{_suffix(_c_real)}",
                build=functools.partial(_builder, _c_real),
                transform=_plan_serial,
            )
        )

_c_double_p = ctypes.POINTER(ctypes.c_double)


def _declare(lib: ctypes.CDLL) -> None:
    lib.sed_sweep.restype = None
    lib.sed_sweep.argtypes = [
        ctypes.POINTER(_c_double_p),  # dists
        _c_double_p,  # courant
        _c_double_p,  # masses
        _c_double_p,  # precip
        ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_long,
        ctypes.c_long,  # nsp, ni, nk, nj, nkr
        ctypes.c_long, ctypes.c_long, ctypes.c_long,  # si, sk, sj
        ctypes.c_long, ctypes.c_long,  # psi, psj
        ctypes.POINTER(ctypes.c_ubyte),  # active
    ]
    lib.sed_sweep_members.restype = None
    lib.sed_sweep_members.argtypes = [
        ctypes.POINTER(_c_double_p),  # dists
        _c_double_p,  # courant
        _c_double_p,  # masses
        _c_double_p,  # precip
        ctypes.c_long, ctypes.c_long,  # nm, nsp
        ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_long,
        # ni, nk, nj, nkr
        ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_long,
        # sm, si, sk, sj
        ctypes.c_long, ctypes.c_long, ctypes.c_long,  # pm, psi, psj
        ctypes.POINTER(ctypes.c_ubyte),  # active
    ]
    lib.remap_scatter.restype = None
    lib.remap_scatter.argtypes = [
        _c_double_p, _c_double_p,
        ctypes.POINTER(ctypes.c_long),
        _c_double_p,
        ctypes.c_long, ctypes.c_long,
    ]
    vp, lg, db = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    signatures = {
        # n, idx, qv, qs, rho, gc, masses, radii, dmass, ccn_add, bound;
        # nsel, nkr, ld; c0, dt, x_min
        "cond_grow": [vp] * 11 + [lg] * 3 + [db] * 3,
        # dists, idx, t, pres, qv, rho, ccn; n, ld; x0, xi0
        "nucleate_rows": [vp] * 7 + [lg] * 2 + [db] * 2,
        # dists, idx, t, rho, masses, flags; n, nkr, ld, hail_bin;
        # dt, mf_fast, mf_slow
        "freeze_melt_rows": [vp] * 6 + [lg] * 4 + [db] * 3,
        # dists, idx, sums, occ, nz; n, nsp, nkr, ld, nblk; eps
        "census_rows": [vp] * 5 + [lg] * 5 + [db],
    }
    for name, argtypes in signatures.items():
        fn = getattr(lib, name)
        fn.restype = None
        fn.argtypes = argtypes
    for c_real in COAL_REALS:
        real = ctypes.c_float if c_real == "float" else ctypes.c_double
        limit = getattr(lib, f"coal_limit_{_suffix(c_real)}")
        limit.restype = None
        # a, b, pkr, pkc, ws, ap, bp, bind; npts, na, nb, ldr, ldc;
        # half, dt; selfc
        limit.argtypes = [vp] * 8 + [lg] * 5 + [real, real, lg]
        update = getattr(lib, f"coal_update_{_suffix(c_real)}")
        update.restype = None
        # idx, a, b, ap, bp, pkr, pgr, pkc, pgc, ws, d5, dd, dists;
        # npts, nkr, ld, na, nb, nd, ha, hb, hd, ldkr, ldgr, ldkc, ldgc;
        # half, dt, hdt; selfc, pmode
        update.argtypes = [vp] * 13 + [lg] * 13 + [real] * 3 + [lg, lg]


# Derive annotations, verify, and emit the C source; an illegal
# transformation raises IRVerificationError here, at import, before
# any C exists — loud by design.
_module = cgen.build_module(
    "fsbm_kernels",
    [
        transform.plan_offload(build_sed_sweep_ir()).kernel,
        _plan_serial(build_sed_sweep_members_ir()).kernel,
        transform.plan_offload(build_remap_scatter_ir()).kernel,
        *(_plan_serial(builder()).kernel for builder in ROW_KERNELS.values()),
        *(
            _plan_serial(builder(c_real)).kernel
            for c_real in COAL_REALS
            for builder in (build_coal_limit_ir, build_coal_update_ir)
        ),
    ],
    disable_env=DISABLE_ENV,
    build_dir=Path(__file__).resolve().parent / "_cbuild",
    setup=_declare,
    banner=(
        "Generated by repro.codee.cgen from the fsbm loop IR; "
        "annotations derived by repro.codee.transform. Do not edit."
    ),
)

#: The generated translation unit (kept for introspection/diagnostics).
C_SOURCE = _module.source

#: Why the kernels are unavailable ("" while they are); diagnostics.
load_error: str = ""

_path_traced = False


def load_kernels() -> ctypes.CDLL | None:
    """The compiled physics kernels, or ``None`` (use numpy).

    The underlying :class:`~repro.core.cjit.CJitModule` records the
    one-time ``cjit.compile``/``cjit.load`` spans; this wrapper adds a
    single instant event marking which path (compiled vs numpy
    fallback) the physics resolved to, so traces are self-describing.
    """
    global load_error, _path_traced
    lib = _module.load()
    load_error = _module.load_error
    if not _path_traced and tracer.enabled():
        _path_traced = True
        tracer.instant(
            "fsbm_kernels.path",
            cat="jit",
            attrs={"compiled": lib is not None, "error": load_error},
        )
    return lib


def _dptr(arr: np.ndarray) -> ctypes.POINTER(ctypes.c_double):
    return arr.ctypes.data_as(_c_double_p)


def sed_sweep(
    lib: ctypes.CDLL,
    dists: list[np.ndarray],
    courant: np.ndarray,
    masses: np.ndarray,
    precip: np.ndarray,
) -> np.ndarray | None:
    """Run the fused sedimentation sweep in place; per-species presence.

    ``dists`` holds every species' ``(ni, nk, nj, nkr)`` array (views
    are fine as long as the bin axis is unit-stride and all species
    share strides); ``courant`` is ``(nsp, nk, nkr)`` and ``masses``
    ``(nsp, nkr)``, both C-contiguous float64. Returns the per-species
    ``active`` flags, or ``None`` when the layout is unsupported and
    the caller must take the numpy path.
    """
    nsp = len(dists)
    ref = dists[0]
    ni, nk, nj, nkr = ref.shape
    itemsize = ref.itemsize
    if (
        nkr > MAX_NKR
        or ref.dtype != np.float64
        or precip.dtype != np.float64
        or ref.strides[3] != itemsize
        or any(d.shape != ref.shape or d.strides != ref.strides for d in dists)
    ):
        return None
    ptrs = (_c_double_p * nsp)(*[_dptr(d) for d in dists])
    active = np.zeros(nsp, dtype=np.uint8)
    lib.sed_sweep(
        ptrs,
        _dptr(courant),
        _dptr(masses),
        _dptr(precip),
        nsp, ni, nk, nj, nkr,
        ref.strides[0] // itemsize,
        ref.strides[1] // itemsize,
        ref.strides[2] // itemsize,
        precip.strides[0] // itemsize,
        precip.strides[1] // itemsize,
        active.ctypes.data_as(ctypes.POINTER(ctypes.c_ubyte)),
    )
    return active


def sed_sweep_members(
    lib: ctypes.CDLL,
    dists: list[np.ndarray],
    courant: np.ndarray,
    masses: np.ndarray,
    precip: np.ndarray,
) -> np.ndarray | None:
    """Member-batched sedimentation sweep; per-(member, species) flags.

    ``dists`` holds every species' ``(nm, ni, nk, nj, nkr)`` view into
    the member-stacked superblock (all species must share shapes and
    strides, bin axis unit-stride); ``precip`` is ``(nm, ni, nj)``
    float64. Tables are the same step-invariant ``(nsp, nk, nkr)`` /
    ``(nsp, nkr)`` stacks the solo sweep uses — shared across members.
    Returns the ``(nm, nsp)`` ``active`` flags, or ``None`` when the
    layout is unsupported and the caller must fall back to per-member
    sweeps.
    """
    nsp = len(dists)
    ref = dists[0]
    nm, ni, nk, nj, nkr = ref.shape
    itemsize = ref.itemsize
    if (
        nkr > MAX_NKR
        or ref.dtype != np.float64
        or precip.dtype != np.float64
        or precip.shape != (nm, ni, nj)
        or ref.strides[4] != itemsize
        or any(d.shape != ref.shape or d.strides != ref.strides for d in dists)
    ):
        return None
    ptrs = (_c_double_p * nsp)(*[_dptr(d) for d in dists])
    active = np.zeros((nm, nsp), dtype=np.uint8)
    # Policy-serial emission (_plan_serial) keeps the per-row flux
    # LocalArray on the stack — no hoisted scratch param.
    lib.sed_sweep_members(
        ptrs,
        _dptr(courant),
        _dptr(masses),
        _dptr(precip),
        nm, nsp, ni, nk, nj, nkr,
        ref.strides[0] // itemsize,
        ref.strides[1] // itemsize,
        ref.strides[2] // itemsize,
        ref.strides[3] // itemsize,
        precip.strides[0] // itemsize,
        precip.strides[1] // itemsize,
        precip.strides[2] // itemsize,
        active.ctypes.data_as(ctypes.POINTER(ctypes.c_ubyte)),
    )
    return active


def remap_scatter(
    lib: ctypes.CDLL,
    n_live: np.ndarray,
    w_hi: np.ndarray,
    k_idx: np.ndarray,
    out: np.ndarray,
) -> None:
    """KO-remap deposit of ``(npts, nkr)`` spectra into ``out``."""
    npts, nkr = n_live.shape
    n_live = np.ascontiguousarray(n_live, dtype=np.float64)
    w_hi = np.ascontiguousarray(w_hi, dtype=np.float64)
    k_idx = np.ascontiguousarray(k_idx, dtype=np.int64)
    lib.remap_scatter(
        _dptr(n_live),
        _dptr(w_hi),
        k_idx.ctypes.data_as(ctypes.POINTER(ctypes.c_long)),
        _dptr(out),
        npts, nkr,
    )


def _require(ok: bool, what: str) -> None:
    """Refuse buffers a kernel would misaddress (it trusts its pointers)."""
    if not ok:
        raise ValueError(f"compiled fsbm kernel: bad arguments ({what})")


def _require_rows(idx: np.ndarray, nrows: int) -> None:
    _require(
        idx.size == 0 or (idx.min() >= 0 and idx.max() < nrows),
        "row index out of range",
    )


def row_stride(views) -> int:
    """Common row stride (in elements) of float64 ``(rows, nkr)`` views.

    The in-place kernels address row ``r`` of species ``s`` at
    ``base[s] + r * ld``: every view must be float64 with a unit bin
    stride, all must share ``nkr`` and the row stride, and ``ld`` must
    be at least ``nkr`` (rows may not overlap). A compact array has
    ``ld == nkr``; the bin columns of the resident superblock have
    ``ld = 3 + 7 * nkr``.
    """
    ref = views[0]
    _require(
        all(
            v.ndim == 2
            and v.dtype == np.float64
            and v.strides[1] == v.itemsize
            and v.shape[1] == ref.shape[1]
            and v.strides[0] == ref.strides[0]
            for v in views
        ),
        "row views must be float64 (rows, nkr), unit bin stride, one row stride",
    )
    nkr = ref.shape[1]
    ld, rem = divmod(ref.strides[0], ref.itemsize)
    _require(
        rem == 0 and nkr <= MAX_NKR and ld >= nkr,
        "row stride must be whole elements and at least nkr (<= MAX_NKR)",
    )
    return ld


def addressable(views) -> bool:
    """Whether the row kernels can address these row views in place."""
    try:
        row_stride(list(views))
    except ValueError:
        return False
    return True


def _row_table(views, rows: np.ndarray):
    """``(pointer table, ld, nkr, rows)`` for a row-addressed kernel."""
    ld = row_stride(views)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    _require(rows.ndim == 1, "rows must be one-dimensional")
    _require_rows(rows, min(v.shape[0] for v in views))
    table = (ctypes.c_void_p * len(views))(*[v.ctypes.data for v in views])
    return table, ld, views[0].shape[1], rows


def _per_row(n: int, *vectors) -> list[np.ndarray]:
    out = [np.ascontiguousarray(v, dtype=np.float64) for v in vectors]
    _require(all(v.shape == (n,) for v in out), "one value per selected row")
    return out


def cond_grow(
    lib: ctypes.CDLL,
    n: np.ndarray,
    idx: np.ndarray,
    qv: np.ndarray,
    qs: np.ndarray,
    rho: np.ndarray,
    gc: np.ndarray,
    masses: np.ndarray,
    radii: np.ndarray,
    c0: float,
    dt: float,
    x_min: float,
    bound: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Grow, remap and vapor-limit rows ``idx`` of ``n`` in place.

    ``n`` is one species' float64 ``(rows, nkr)`` row view (any row
    stride ``>= nkr``, see :func:`row_stride`); ``qv``/``qs``/``rho``/
    ``gc`` are float64 per selected row (index ``p`` of ``idx``).
    Returns ``(dmass, ccn_add)`` per selected row; ``bound``, a bool
    array of one entry per selected row, receives where the vapor
    limiter bound.
    """
    table, ld, nkr, idx = _row_table([n], idx)
    nsel = idx.shape[0]
    qv, qs, rho, gc = _per_row(nsel, qv, qs, rho, gc)
    masses, radii = _per_row(nkr, masses, radii)
    dmass = np.empty(nsel)
    ccn_add = np.empty(nsel)
    if bound is None:
        bound = np.empty(nsel, dtype=np.bool_)
    _require(
        bound.dtype == np.bool_ and bound.flags.c_contiguous
        and bound.shape == (nsel,),
        "bound must be a contiguous bool array, one entry per row",
    )
    lib.cond_grow(
        n.ctypes.data, idx.ctypes.data, qv.ctypes.data, qs.ctypes.data,
        rho.ctypes.data, gc.ctypes.data, masses.ctypes.data,
        radii.ctypes.data, dmass.ctypes.data, ccn_add.ctypes.data,
        bound.ctypes.data, nsel, nkr, ld, c0, dt, x_min,
    )
    return dmass, ccn_add


def nucleate_rows(
    lib: ctypes.CDLL,
    views: list[np.ndarray],
    rows: np.ndarray,
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    qv: np.ndarray,
    rho_air: np.ndarray,
    ccn: np.ndarray,
    x0: float,
    xi0: float,
) -> None:
    """``jernucl01_ks`` on ``rows`` of the liquid/dendrite/column/plate
    row views, in place; ``temperature``/``qv``/``ccn`` (updated) and
    ``pressure_mb``/``rho_air`` are contiguous float64 per row."""
    _require(len(views) == 4, "liquid, dendrite, column and plate rows")
    table, ld, _, rows = _row_table(views, rows)
    n = rows.shape[0]
    for v in (temperature, qv, ccn, pressure_mb, rho_air):
        _require(
            v.dtype == np.float64 and v.flags.c_contiguous and v.shape == (n,),
            "per-row fields must be contiguous float64, one value per row",
        )
    lib.nucleate_rows(
        table, rows.ctypes.data, temperature.ctypes.data,
        pressure_mb.ctypes.data, qv.ctypes.data, rho_air.ctypes.data,
        ccn.ctypes.data, n, ld, x0, xi0,
    )


def freeze_melt_rows(
    lib: ctypes.CDLL,
    views: list[np.ndarray],
    rows: np.ndarray,
    temperature: np.ndarray,
    rho_air: np.ndarray,
    masses: np.ndarray,
    hail_bin: int,
    dt: float,
    mf_fast: float,
    mf_slow: float,
) -> np.ndarray:
    """Freezing/melting on ``rows`` of every species' row view (in
    :class:`Species` order), in place; returns the per-row gate flags
    (bit 0 froze, bit ``s`` species ``s`` melted)."""
    _require(len(views) == len(Species), "one row view per species")
    table, ld, nkr, rows = _row_table(views, rows)
    n = rows.shape[0]
    (masses,) = _per_row(nkr, masses)
    for v in (temperature, rho_air):
        _require(
            v.dtype == np.float64 and v.flags.c_contiguous and v.shape == (n,),
            "per-row fields must be contiguous float64, one value per row",
        )
    flags = np.empty(n, dtype=np.uint8)
    lib.freeze_melt_rows(
        table, rows.ctypes.data, temperature.ctypes.data,
        rho_air.ctypes.data, masses.ctypes.data, flags.ctypes.data,
        n, nkr, ld, hail_bin, dt, mf_fast, mf_slow,
    )
    return flags


def census_rows(
    lib: ctypes.CDLL, views: list[np.ndarray], rows: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sums, occ, nz)`` of ``rows`` in each row view.

    ``sums[s]`` equals ``views[s][rows].sum(axis=1)`` bit for bit,
    ``occ[s]`` is the highest bin above ``eps`` plus one (0 when none)
    and bit ``s`` of ``nz`` says whether any bin of species ``s`` is
    nonzero.
    """
    _require(len(views) <= 8, "at most eight species (one flag byte)")
    table, ld, nkr, rows = _row_table(views, rows)
    n, nsp = rows.shape[0], len(views)
    sums = np.empty((nsp, n))
    occ = np.empty((nsp, n), dtype=np.int64)
    nz = np.empty(n, dtype=np.uint8)
    lib.census_rows(
        table, rows.ctypes.data, sums.ctypes.data, occ.ctypes.data,
        nz.ctypes.data, n, nsp, nkr, ld, nkr // 8, eps,
    )
    return sums, occ, nz


def _spectra(dtype, npts: int, *pairs) -> None:
    """Check ``(array, width)`` pairs are C-contiguous ``(npts, width)``."""
    for arr, width in pairs:
        _require(
            arr.dtype == dtype and arr.flags.c_contiguous
            and arr.shape == (npts, width),
            "spectra must be C-contiguous (rows, bins) of one real dtype",
        )


def _pass_suffix(dtype) -> str:
    """Kernel-name suffix of a collision pass's real dtype."""
    _require(dtype in (np.float32, np.float64), "real dtype must be float32/64")
    return "f32" if dtype == np.float32 else "f64"


def _mat(arr: np.ndarray, dtype, npts: int, cols: int) -> tuple[int, int]:
    """(address, leading dimension) of a row-major, unit-stride matrix."""
    _require(
        arr.dtype == dtype and arr.ndim == 2 and arr.shape[0] == npts
        and arr.shape[1] >= cols and arr.strides[1] == arr.itemsize,
        "operator products must be unit-stride (rows, blocks * bins)",
    )
    return arr.ctypes.data, arr.strides[0] // arr.itemsize


def coal_limit(
    lib: ctypes.CDLL,
    a: np.ndarray,
    b: np.ndarray,
    pkr: np.ndarray,
    pkc: np.ndarray,
    ws: np.ndarray,
    half: float,
    dt: float,
    self_collection: bool,
) -> tuple[int, np.ndarray, np.ndarray]:
    """The limiter pass: ``(binding rows, ap, bp)``.

    ``a``/``b`` are C-contiguous ``(npts, na)``/``(npts, nb)`` spectra,
    ``pkr``/``pkc`` the pre-limit ``[K500|Kdel]`` products (row-major,
    unit stride, any leading dimension), all of one real dtype. The
    limited spectra ``ap``/``bp`` are meaningful only when some row
    binds.
    """
    npts, na = a.shape
    nb = b.shape[1]
    _spectra(a.dtype, npts, (a, na), (b, nb), (ws[:, None], 1))
    ap = np.empty_like(a)
    bp = ap if self_collection else np.empty_like(b)
    bind = np.zeros(1, dtype=np.int64)
    pr, ldr = _mat(pkr, a.dtype, npts, 2 * na)
    pc, ldc = _mat(pkc, a.dtype, npts, 2 * nb)
    suffix = _pass_suffix(a.dtype)
    getattr(lib, f"coal_limit_{suffix}")(
        a.ctypes.data, b.ctypes.data, pr, pc, ws.ctypes.data,
        ap.ctypes.data, bp.ctypes.data, bind.ctypes.data,
        npts, na, nb, ldr, ldc, half, dt, 1 if self_collection else 0,
    )
    return int(bind[0]), ap, bp


def coal_update(
    lib: ctypes.CDLL,
    idx: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    ap: np.ndarray,
    bp: np.ndarray,
    pk: tuple[np.ndarray, np.ndarray],
    pg: tuple[np.ndarray, np.ndarray],
    ws: np.ndarray,
    diag: tuple[np.ndarray, np.ndarray],
    dists: tuple[np.ndarray, np.ndarray, np.ndarray],
    half: float,
    dt: float,
    self_collection: bool,
    pmode: int,
) -> None:
    """The update pass: losses, gains and write-back into ``dists`` rows.

    ``pk``/``pg`` are the (row, column) loss and gain products,
    ``diag`` the ``(d500, ddel)`` diagonal operators and ``dists`` the
    float64 ``(collector, collected, product)`` row views (one row
    stride, see :func:`row_stride`) written at rows ``idx``; ``pmode``
    is 1 when the product is the
    collector, 2 when it is the collected species, 0 otherwise.
    """
    npts, na = a.shape
    nb = b.shape[1]
    nd = min(na, nb)
    _spectra(a.dtype, npts, (a, na), (b, nb), (ap, na), (bp, nb), (ws[:, None], 1))
    _spectra(a.dtype, 1, (diag[0][None, :], nd), (diag[1][None, :], nd))
    table, ld, nkr, idx = _row_table(list(dists), idx)
    _require(
        idx.shape == (npts,) and max(na, nb) <= nkr,
        "one row per spectrum row, rectangle within the bins",
    )
    pkr, ldkr = _mat(pk[0], a.dtype, npts, 2 * na)
    pkc, ldkc = _mat(pk[1], a.dtype, npts, 2 * nb)
    pgr, ldgr = _mat(pg[0], a.dtype, npts, 4 * na)
    pgc, ldgc = _mat(pg[1], a.dtype, npts, 4 * nb)
    real = a.dtype.type
    suffix = _pass_suffix(a.dtype)
    getattr(lib, f"coal_update_{suffix}")(
        idx.ctypes.data, a.ctypes.data, b.ctypes.data, ap.ctypes.data,
        bp.ctypes.data, pkr, pgr, pkc, pgc, ws.ctypes.data,
        diag[0].ctypes.data, diag[1].ctypes.data, table,
        npts, nkr, ld, na, nb, nd, min(na, nkr - 1), min(nb, nkr - 1),
        min(nd, nkr - 1), ldkr, ldgr, ldkc, ldgc,
        half, dt, real(real(half) * real(dt)),
        1 if self_collection else 0, pmode,
    )
