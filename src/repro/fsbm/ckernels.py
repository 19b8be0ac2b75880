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
  two-bin split, old/new mass contents, the vapor limiter and the
  blend, one pass per row. The mass contents are sequential sums (not
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

The point kernels are row-local, so a member's rows come out the same
whether it runs alone or batched with others.

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
from repro.core import cjit
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
    ``n`` (``(rows, nkr)``, updated in place) one pass does what
    ``_grow_species`` plus the limiter of
    ``_condensation_core_members`` do with full-size numpy
    temporaries: the growth increment ``dm`` (in the reference's
    operation order, ``c0 = 4 pi rho_p * habit`` folded in the caller),
    evaporation below half the smallest bin mass, the Kovetz-Olund
    two-bin split into per-row ``lo``/``hi`` accumulators (as in
    ``remap_scatter``), old and new mass content, the vapor limiter
    ``scale`` and the blend. Per selected row it returns the limited
    condensate mass change ``dmass[p]`` and the CCN credit
    ``ccn_add[p] = scale * evaporated``; the vapor, temperature and CCN
    updates stay with the caller.

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
    ]
    vec = lambda name, intent="in": ArrayParam(
        name, strides=(Const(1),), intent=intent
    )
    return Kernel(
        name="cond_grow",
        params=(
            ArrayParam("n", strides=(nkr, Const(1)), intent="inout"),
            ArrayParam("idx", strides=(Const(1),), ctype="long"),
            vec("qv"),
            vec("qs"),
            vec("rho"),
            vec("gc"),
            vec("masses"),
            vec("radii"),
            vec("dmass_out", "out"),
            vec("ccn_add", "out"),
            ScalarParam("nsel", "long"),
            ScalarParam("nkr", "long"),
            ScalarParam("c0"),
            ScalarParam("dt"),
            ScalarParam("x_min"),
        ),
        body=[Loop("p", Const(0), Sym("nsel"), per_row)],
        doc=(
            "Condensation growth, KO remap and vapor limiter for one "
            "species over the rows idx[p], in place; returns the limited "
            "mass change and CCN credit per row."
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
    (``((half * a) * (P500 + w * Pdel)) * dt``), raises ``bind[0]`` when
    any loss exceeds what its bin holds, and writes the limited spectra
    ``ap = a * min(1, a / max(loss, 1e-30))`` (and ``bp`` likewise).
    Self-collection uses the summed row+column loss and writes ``ap``
    only (``bp`` is ``ap``). The caller uses ``ap``/``bp`` only when
    ``bind[0]`` is set, which is exactly when the numpy engine limits.

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
            If(Un("!", loss.le(value)), [Assign("bnd", Const(1))]),
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
                    If(Sym("selfc"), [self_body], pair_body),
                ],
            ),
            Store("bind", (Const(0),), Sym("bnd")),
        ],
        doc=(
            f"Collision limiter pass ({real}): pre-limit losses from the "
            "operator products, bind flag, limited spectra ap/bp."
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
    (``dists[2]``) rows. ``pmode`` says where the gain lands: 1 the
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
                strides=(nkr, Const(1)),
                intent="inout",
                ptr_table=True,
            ),
            ScalarParam("npts", "long"),
            ScalarParam("nkr", "long"),
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
loopir.register_kernel(
    loopir.KernelSpec(
        name="cond_grow", build=build_cond_grow_ir, transform=_plan_serial
    )
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
    lib.cond_grow.restype = None
    lib.cond_grow.argtypes = [vp] * 10 + [lg, lg, db, db, db]
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
        # npts, nkr, na, nb, nd, ha, hb, hd, ldkr, ldgr, ldkc, ldgc;
        # half, dt, hdt; selfc, pmode
        update.argtypes = [vp] * 13 + [lg] * 12 + [real] * 3 + [lg, lg]


# Derive annotations, verify, and emit the C source; an illegal
# transformation raises IRVerificationError here, at import, before
# any C exists — loud by design.
_module = cgen.build_module(
    "fsbm_kernels",
    [
        transform.plan_offload(build_sed_sweep_ir()).kernel,
        _plan_serial(build_sed_sweep_members_ir()).kernel,
        transform.plan_offload(build_remap_scatter_ir()).kernel,
        _plan_serial(build_cond_grow_ir()).kernel,
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
) -> tuple[np.ndarray, np.ndarray]:
    """Grow, remap and vapor-limit rows ``idx`` of ``n`` in place.

    ``n`` is one species' C-contiguous float64 ``(rows, nkr)`` array;
    ``qv``/``qs``/``rho``/``gc`` are float64 per selected row (index
    ``p`` of ``idx``). Returns ``(dmass, ccn_add)`` per selected row.
    """
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    qv, qs, rho, gc, masses, radii = (
        np.ascontiguousarray(v, dtype=np.float64)
        for v in (qv, qs, rho, gc, masses, radii)
    )
    nsel = idx.shape[0]
    nkr = n.shape[1]
    _require(
        n.dtype == np.float64 and n.flags.c_contiguous and nkr <= MAX_NKR,
        "n must be C-contiguous float64 with at most MAX_NKR bins",
    )
    _require(
        all(v.shape == (nsel,) for v in (qv, qs, rho, gc))
        and masses.shape == radii.shape == (nkr,),
        "per-row and per-bin vector lengths",
    )
    _require_rows(idx, n.shape[0])
    dmass = np.empty(nsel)
    ccn_add = np.empty(nsel)
    lib.cond_grow(
        n.ctypes.data, idx.ctypes.data, qv.ctypes.data, qs.ctypes.data,
        rho.ctypes.data, gc.ctypes.data, masses.ctypes.data,
        radii.ctypes.data, dmass.ctypes.data, ccn_add.ctypes.data,
        nsel, nkr, c0, dt, x_min,
    )
    return dmass, ccn_add


def _require(ok: bool, what: str) -> None:
    """Refuse buffers a kernel would misaddress (it trusts its pointers)."""
    if not ok:
        raise ValueError(f"compiled fsbm kernel: bad arguments ({what})")


def _require_rows(idx: np.ndarray, nrows: int) -> None:
    _require(
        idx.size == 0 or (idx.min() >= 0 and idx.max() < nrows),
        "row index out of range",
    )


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
) -> tuple[np.ndarray, np.ndarray] | None:
    """The limiter pass: ``(ap, bp)`` when the limiter binds, else None.

    ``a``/``b`` are C-contiguous ``(npts, na)``/``(npts, nb)`` spectra,
    ``pkr``/``pkc`` the pre-limit ``[K500|Kdel]`` products (row-major,
    unit stride, any leading dimension), all of one real dtype.
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
    return (ap, bp) if bind[0] else None


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
    C-contiguous float64 ``(collector, collected, product)`` arrays
    written at rows ``idx``; ``pmode`` is 1 when the product is the
    collector, 2 when it is the collected species, 0 otherwise.
    """
    npts, na = a.shape
    nb = b.shape[1]
    nkr = dists[0].shape[1]
    nd = min(na, nb)
    _spectra(a.dtype, npts, (a, na), (b, nb), (ap, na), (bp, nb), (ws[:, None], 1))
    _spectra(a.dtype, 1, (diag[0][None, :], nd), (diag[1][None, :], nd))
    _require(
        idx.dtype == np.int64 and idx.flags.c_contiguous and idx.shape == (npts,)
        and nkr <= MAX_NKR and max(na, nb) <= nkr
        and all(
            d.dtype == np.float64 and d.flags.c_contiguous and d.shape[1] == nkr
            for d in dists
        ),
        "rows must be int64 and the distributions C-contiguous float64",
    )
    _require_rows(idx, min(d.shape[0] for d in dists))
    pkr, ldkr = _mat(pk[0], a.dtype, npts, 2 * na)
    pkc, ldkc = _mat(pk[1], a.dtype, npts, 2 * nb)
    pgr, ldgr = _mat(pg[0], a.dtype, npts, 4 * na)
    pgc, ldgc = _mat(pg[1], a.dtype, npts, 4 * nb)
    table = (_c_double_p * 3)(*[_dptr(d) for d in dists])
    real = a.dtype.type
    suffix = _pass_suffix(a.dtype)
    getattr(lib, f"coal_update_{suffix}")(
        idx.ctypes.data, a.ctypes.data, b.ctypes.data, ap.ctypes.data,
        bp.ctypes.data, pkr, pgr, pkc, pgc, ws.ctypes.data,
        diag[0].ctypes.data, diag[1].ctypes.data,
        ctypes.cast(table, ctypes.c_void_p),
        npts, nkr, na, nb, nd, min(na, nkr - 1), min(nb, nkr - 1),
        min(nd, nkr - 1), ldkr, ldgr, ldkc, ldgc,
        half, dt, real(real(half) * real(dt)),
        1 if self_collection else 0, pmode,
    )
