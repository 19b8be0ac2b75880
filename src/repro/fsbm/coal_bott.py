"""Collision–coalescence: the ``coal_bott_new`` hot loop.

Solves the stochastic collection equation on the mass-doubling grid
with a Bott/Kovetz–Olund flux remap. For each active interaction the
unordered pair-event rate

    E[i, j] = K(i, j; p) * n_A[i] * n_B[j]        (A != B)
    E[i, j] = 0.5 * K(i, j; p) * n_A[i] * n_A[j]  (A == B)

removes one particle from each source bin per event and deposits the
coalesced mass ``x_i + x_j`` on the product grid, split over two bins
so number and mass are conserved exactly. A per-bin limiter scales the
event tensor so no bin loses more than it holds.

Two contraction engines share these semantics:

* The **dense** engine (``use_sparse=False``) materializes the pair
  tensor ``E[p, i, j]`` per point and contracts it against the dense
  ``(nkr, nkr, nkr)`` Kovetz–Olund split tensor — a direct vectorized
  transcription of the scalar triple loop.
* The **sparse** engine (the default) never materializes ``E``. Because
  the split weights are separable from the limiter
  (``E' = Kp * (f_a a) x (f_b b)``) and every pair's destination bins
  follow the triangular structure of the mass-doubling ladder
  (``k_lo = max(i, j)`` off the diagonal, ``k_lo = i + 1`` on it, and
  ``k_hi = k_lo + 1`` wherever its weight is nonzero), the losses and
  the gain both collapse into a handful of ``(npts, na) @ (na, nb)``
  matmuls against precomputed operators that fold the split weights
  into the kernel tables. The operators are sliced to the occupied
  rectangle, so the work scales with ``na * nb`` like the scalar
  code's occupied-bin bounds. :func:`_pair_split` verifies the
  triangular structure and the step silently falls back to the dense
  engine if a grid ever violates it.

With ``native`` (the default; ``FastSBM`` passes ``use_native_physics``)
the sparse engine keeps BLAS for its contractions and runs everything
elementwise — losses, limiter, gain families, clamps, write-back — in
two compiled row-local passes (:func:`_apply_native`); without it, or
when the kernels are unavailable, the numpy form (:func:`_apply_sparse`)
runs, which is the bit-exact reference.

The pressure dependence of the kernel is handled with the rank-2
identity ``K(p) = K500 + w(p) * (K750 - K500)`` so per-point kernel
tables are never materialized — the same values the Fortran obtains per
point, computed once per (entry, point).

Work accounting is separate from the numerics: :func:`predict_coal_work`
counts the operations a scalar Fortran implementation performs per
stage (full 20-table ``kernals_ks`` precompute for the baseline versus
occupied-bin on-demand entries after the lookup optimization). The GPU
stages call it *before* launching so the cost model can price the
kernel; :func:`coal_bott_step` calls the same function so reported
stats always match what was charged. Both engines report identical
stats: they model the *scalar* code's work, not the vectorized form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import KERNEL_P_HIGH_MB, KERNEL_P_LOW_MB
from repro.core.cache import cached, get_cache
from repro.fsbm import ckernels
from repro.fsbm.bins import BinGrid
from repro.fsbm.collision_kernels import FLOPS_PER_ENTRY, KernelTables, tables_token
from repro.fsbm.species import Interaction, Species

#: FLOPs per pair entry of the collection update itself (event rate,
#: limiter, two losses, two gain scatters).
FLOPS_PER_PAIR = 10.0


@dataclass(frozen=True)
class PairSplit:
    """Kovetz–Olund two-bin split of every pair mass on one grid.

    Pair ``(i, j)`` deposits number fraction ``w_lo[i, j]`` in bin
    ``k_lo[i, j]`` and ``w_hi[i, j]`` in ``k_hi[i, j]``.
    ``triangular`` records whether the destinations follow the
    mass-doubling-ladder structure the sparse engine relies on.
    """

    k_lo: np.ndarray
    k_hi: np.ndarray
    w_lo: np.ndarray
    w_hi: np.ndarray
    triangular: bool


@cached("fsbm.pair_split", maxsize=4)
def _pair_split(nkr: int) -> PairSplit:
    """Split table for the shared ``nkr``-bin grid, structure-checked.

    On the mass-doubling ladder ``x_{k+1} = 2 x_k`` the coalesced mass
    ``x_i + x_j`` always lands between ``x_max(i,j)`` and
    ``x_max(i,j)+1`` (equal bins land exactly on ``x_{i+1}``), which
    gives the triangular destination structure the sparse operators
    exploit. The check is cheap and cached; any grid that breaks it
    simply routes through the dense engine.
    """
    grid = BinGrid(nkr=nkr)
    k_lo, k_hi, w_lo, w_hi = grid.pair_coalescence_table(grid, grid)
    ii = np.broadcast_to(np.arange(nkr)[:, None], (nkr, nkr))
    jj = np.broadcast_to(np.arange(nkr)[None, :], (nkr, nkr))
    low = ii > jj
    up = ii < jj
    nz = w_hi != 0.0
    triangular = bool(
        np.array_equal(k_lo[low], ii[low])
        and np.array_equal(k_lo[up], jj[up])
        and np.array_equal(
            np.diagonal(k_lo), np.minimum(np.arange(nkr) + 1, nkr - 1)
        )
        and not np.any(nz & ~(low | up))
        and np.array_equal(k_hi[nz], k_lo[nz] + 1)
        and not w_hi[nkr - 1, :].any()
        and not w_hi[:, nkr - 1].any()
    )
    return PairSplit(k_lo=k_lo, k_hi=k_hi, w_lo=w_lo, w_hi=w_hi, triangular=triangular)


@cached("fsbm.split_tensor", maxsize=4)
def _split_tensor(nkr: int) -> np.ndarray:
    """``G[k, i, j]``: number-fraction of pair (i, j) landing in bin k.

    Slices of the tensor sum to 1 over ``k`` inside the grid; top-bin
    overflow conserves mass with a reduced number weight. Shared by all
    interactions because every species grid uses the same mass ladder.
    Only the dense engine contracts against this tensor; the sparse
    engine uses the factored operators of :func:`_coal_operators`.
    """
    ps = _pair_split(nkr)
    g = np.zeros((nkr, nkr * nkr))
    flat = np.arange(nkr * nkr)
    np.add.at(g, (ps.k_lo.ravel(), flat), ps.w_lo.ravel())
    np.add.at(g, (ps.k_hi.ravel(), flat), ps.w_hi.ravel())
    return g.reshape(nkr, nkr, nkr)


def _build_coal_operators(
    tables: KernelTables, name: str, nkr: int, na: int, nb: int, dtype: np.dtype
) -> tuple:
    """Fold split weights into one interaction's kernel rectangle.

    Returns ``(ops_500, ops_del)`` — one operator set per pressure
    level (the delta set carries ``K750 - K500`` for the rank-2
    pressure interpolation). Each set is::

        (K^T, K, L^T, Lh^T, U, Uh, d)

    where for pair weights ``w`` and destinations of the triangular
    ladder: ``L = w_lo K`` on the strict lower triangle (gain lands in
    row bin ``i``), ``Lh = w_hi K`` there (lands in ``i + 1``), ``U`` /
    ``Uh`` the upper-triangle analogues (column bin ``j`` / ``j + 1``),
    and ``d`` the diagonal ``w_lo K`` vector (lands in
    ``min(i + 1, nkr - 1)``). Everything is sliced to the occupied
    ``(na, nb)`` rectangle and laid out contiguous for the matmuls.
    """
    ps = _pair_split(nkr)
    ii = np.arange(nkr)[:, None]
    jj = np.arange(nkr)[None, :]
    low = ii > jj
    up = ii < jj
    nd = min(na, nb)
    k500 = tables.tables_500[name]
    kdel = tables.tables_750[name] - k500

    def carve(k: np.ndarray) -> tuple:
        def cut(m: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(m[:na, :nb].astype(dtype))

        def cut_t(m: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(m[:na, :nb].T.astype(dtype))

        return (
            cut_t(k),
            cut(k),
            cut_t(np.where(low, ps.w_lo * k, 0.0)),
            cut_t(np.where(low, ps.w_hi * k, 0.0)),
            cut(np.where(up, ps.w_lo * k, 0.0)),
            cut(np.where(up, ps.w_hi * k, 0.0)),
            np.ascontiguousarray(np.diagonal(ps.w_lo * k)[:nd].astype(dtype)),
        )

    return carve(k500), carve(kdel)


def _coal_operators(
    tables: KernelTables, name: str, nkr: int, na: int, nb: int, dtype: np.dtype
) -> tuple:
    """Cached sparse operators for one (interaction, rectangle, dtype).

    Keyed on the tables' content fingerprint rather than object
    identity, so independently built but identical tables share
    entries and changed physics invalidates them.
    """
    cache = get_cache("fsbm.coal_operators", maxsize=256)
    key = (tables_token(tables), name, nkr, na, nb, dtype.str)
    return cache.get_or_build(
        key, lambda: _build_coal_operators(tables, name, nkr, na, nb, dtype)
    )


@dataclass
class CoalWorkStats:
    """Scalar-code work counts for one collision call (cost-model input)."""

    active_points: int = 0
    #: Kernel-table entries evaluated (differs between stages).
    kernel_entries: float = 0.0
    #: Pair-update entries processed by the collection loops.
    pair_entries: float = 0.0
    #: (interaction, point) pairs actually exercised, for reports.
    interactions_used: float = 0.0
    #: (interaction, point) pairs where the per-bin limiter bound (some
    #: bin would have lost more than it held), a numerical-health
    #: signal counted the same way by every engine.
    limiter_binds: int = 0

    @property
    def flops(self) -> float:
        """Total FLOPs the scalar loops would execute."""
        return (
            self.kernel_entries * FLOPS_PER_ENTRY + self.pair_entries * FLOPS_PER_PAIR
        )

    @property
    def bytes_moved(self) -> float:
        """Logical bytes touched (three 4 B accesses per entry)."""
        return 4.0 * 3.0 * (self.kernel_entries + self.pair_entries)

    def merge(self, other: "CoalWorkStats") -> None:
        self.active_points += other.active_points
        self.kernel_entries += other.kernel_entries
        self.pair_entries += other.pair_entries
        self.interactions_used += other.interactions_used
        self.limiter_binds += other.limiter_binds


#: Number concentration below which a species does not participate in
#: collisions at a point [cm^-3] — the scalar code's significance test.
COAL_N_MIN = 1.0e-8


def _interaction_selection(
    dists: dict[Species, np.ndarray],
    temperature: np.ndarray,
    ix: Interaction,
) -> np.ndarray:
    """Points where an interaction fires: temperature gate + presence."""
    gate = ix.active_at_array(temperature)
    has_a = dists[ix.collector].sum(axis=1) > COAL_N_MIN
    has_b = dists[ix.collected].sum(axis=1) > COAL_N_MIN
    return gate & has_a & has_b


class CoalSelection:
    """Shared per-step interaction selection state.

    The scalar code re-tests, per interaction per point, a temperature
    gate and the presence of both species. Recomputing that from the
    distributions costs two full reductions per interaction; this
    object computes the per-species sums once, caches the temperature
    gates by their ``(t_max, t_min)`` regime (several interactions
    share a regime), and serves every interaction's mask from them.

    Selection is *sequential*: earlier interactions mutate the
    distributions that later interactions test. ``coal_bott_step``
    therefore works on a :meth:`fork` whose sums it refreshes for the
    rows each interaction touched, which reproduces the scalar loop's
    cascade bit-for-bit, while :func:`predict_coal_work` keeps the
    pristine pre-step instance.
    """

    __slots__ = ("temperature", "_sums", "_gates")

    def __init__(
        self,
        temperature: np.ndarray,
        sums: dict[Species, np.ndarray],
        gates: dict[tuple, np.ndarray],
    ):
        self.temperature = temperature
        self._sums = sums
        self._gates = gates

    @classmethod
    def build(
        cls,
        dists: dict[Species, np.ndarray],
        temperature: np.ndarray,
        rows: np.ndarray | None = None,
    ) -> "CoalSelection":
        """Selection state for the current distributions (point ``p``
        in row ``rows[p]``, or row ``p``)."""
        if rows is None:
            sums = {sp: d.sum(axis=1) for sp, d in dists.items()}
        else:
            sums = {sp: d[rows].sum(axis=1) for sp, d in dists.items()}
        return cls(temperature, sums, {})

    def gate(self, ix: Interaction) -> np.ndarray:
        """Temperature gate of ``ix``, cached per thermal regime."""
        key = (ix.t_max, ix.t_min)
        g = self._gates.get(key)
        if g is None:
            g = ix.active_at_array(self.temperature)
            self._gates[key] = g
        return g

    def mask(self, ix: Interaction) -> np.ndarray:
        """Points where ``ix`` fires — equals :func:`_interaction_selection`."""
        return (
            self.gate(ix)
            & (self._sums[ix.collector] > COAL_N_MIN)
            & (self._sums[ix.collected] > COAL_N_MIN)
        )

    def fork(self) -> "CoalSelection":
        """A mutable copy for the step loop.

        Sums are copied (the loop refreshes them as species mutate);
        temperature gates are shared, since temperature is constant
        over a collision step.
        """
        return CoalSelection(
            self.temperature,
            {sp: s.copy() for sp, s in self._sums.items()},
            self._gates,
        )

    def refresh(
        self,
        dists: dict[Species, np.ndarray],
        species: set[Species],
        points: np.ndarray,
        rows: np.ndarray | None = None,
    ) -> None:
        """Recompute sums of ``species`` at ``points`` after a mutation.

        ``rows`` are the points' rows in the ``dists`` row views (the
        points themselves when None). Row sums are independent, so
        refreshing only the touched points is bitwise identical to a
        full recompute.
        """
        if rows is None:
            rows = points
        for sp in species:
            self._sums[sp][points] = dists[sp][rows].sum(axis=1)


def predict_coal_work(
    dists: dict[Species, np.ndarray],
    temperature: np.ndarray,
    tables: KernelTables,
    interactions: tuple[Interaction, ...],
    occupied: dict[Species, np.ndarray] | None,
    on_demand: bool,
    selection: CoalSelection | None = None,
) -> CoalWorkStats:
    """Count the scalar-code work one collision call performs.

    Baseline: ``kernals_ks`` fills all 20 full tables at every active
    point up front. On-demand: one interpolated entry per pair the
    collection loops actually touch (bounded by occupied bins).

    ``selection`` lets a caller that already built the per-step
    :class:`CoalSelection` (the collision stage predicts work and then
    runs the step on the same state) share it instead of recomputing
    every mask. This is the one-member case of
    :func:`predict_coal_work_members`.
    """
    return predict_coal_work_members(
        dists, temperature, tables, interactions, occupied, on_demand,
        [(0, temperature.shape[0])], selection=selection,
    )[0]


def predict_coal_work_members(
    dists: dict[Species, np.ndarray],
    temperature: np.ndarray,
    tables: KernelTables,
    interactions: tuple[Interaction, ...],
    occupied: dict[Species, np.ndarray] | None,
    on_demand: bool,
    segments: list[tuple[int, int]],
    selection: CoalSelection | None = None,
    rows: np.ndarray | None = None,
) -> list[CoalWorkStats]:
    """Per-member work counts for one member-concatenated collision call.

    ``segments[m]`` is member ``m``'s row range in the concatenated
    point arrays. Masks are row-local (temperature gate and per-row
    sums), so slicing the shared mask to a member's segment equals the
    mask a call on that member's rows alone computes; the per-member
    sums and counts below therefore accumulate exactly those numbers,
    in the same interaction order. ``rows`` locates the points in the
    ``dists`` row views as in :func:`coal_bott_step_members`.
    """
    nkr = next(iter(dists.values())).shape[1]
    out = [
        CoalWorkStats(active_points=(e - s)) for (s, e) in segments
    ]
    if temperature.shape[0] == 0:
        return out
    if selection is None:
        selection = CoalSelection.build(dists, temperature, rows)
    if not on_demand:
        for st, (s, e) in zip(out, segments):
            if e > s:
                st.kernel_entries += float(e - s) * tables.baseline_entry_count()
    for ix in interactions:
        sel = selection.mask(ix)
        for st, (s, e) in zip(out, segments):
            if e == s:
                continue
            sub = sel[s:e]
            count = int(sub.sum())
            if count == 0:
                continue
            if occupied is not None:
                occ_a = occupied[ix.collector][s:e][sub]
                occ_b = occupied[ix.collected][s:e][sub]
                touched = float((occ_a * occ_b).sum())
            else:
                touched = float(count) * nkr * nkr
            st.pair_entries += touched
            st.interactions_used += float(count)
            if on_demand:
                st.kernel_entries += touched
    return out


def _apply_dense(
    dists: dict[Species, np.ndarray],
    ix: Interaction,
    idx: np.ndarray,
    a_full: np.ndarray,
    b_full: np.ndarray,
    na: int,
    nb: int,
    ws: np.ndarray,
    dt: float,
    dtype: np.dtype,
    tables: KernelTables,
    nkr: int,
    g_split: np.ndarray,
) -> int:
    """One interaction's update via the dense pair-tensor contraction;
    returns the number of rows where the limiter bound."""
    n_a = dists[ix.collector]
    n_b = dists[ix.collected]
    a = a_full[:, :na].astype(dtype)
    b = b_full[:, :nb].astype(dtype)

    k500 = tables.tables_500[ix.name][:na, :nb].ravel().astype(dtype)
    kdel = (
        (tables.tables_750[ix.name] - tables.tables_500[ix.name])[:na, :nb]
        .ravel()
        .astype(dtype)
    )
    g_sub = g_split[:, :na, :nb].reshape(nkr, na * nb).astype(dtype)

    # Pair-event rates E[p, i*nb+j] at each point's pressure.
    outer = (a[:, :, None] * b[:, None, :]).reshape(len(idx), na * nb)
    events = outer * k500[None, :] + (outer * ws[:, None]) * kdel[None, :]
    if ix.self_collection:
        events *= dtype.type(0.5)

    ev = events.reshape(len(idx), na, nb)
    if ix.self_collection:
        loss = ev.sum(axis=2) * dt
        loss = loss + ev.sum(axis=1) * dt
        binds = _bound_rows(loss <= a)
        f_a = np.minimum(1.0, a / np.maximum(loss, 1e-30)).astype(dtype)
        ev = ev * (f_a[:, :, None] * f_a[:, None, :])
        loss = (ev.sum(axis=2) + ev.sum(axis=1)) * dt
        gain = (ev.reshape(len(idx), na * nb) @ g_sub.T) * dt
        a_new = a_full.copy()
        a_new[:, :na] = np.maximum(a - loss, 0.0)
        if ix.product is ix.collector:
            n_a[idx] = np.maximum(a_new + gain, 0.0)
        else:
            n_a[idx] = a_new
            dists[ix.product][idx] += gain
    else:
        loss_a = ev.sum(axis=2) * dt
        loss_b = ev.sum(axis=1) * dt
        binds = _bound_rows(loss_a <= a, loss_b <= b)
        f_a = np.minimum(1.0, a / np.maximum(loss_a, 1e-30)).astype(dtype)
        f_b = np.minimum(1.0, b / np.maximum(loss_b, 1e-30)).astype(dtype)
        ev = ev * (f_a[:, :, None] * f_b[:, None, :])
        gain = (ev.reshape(len(idx), na * nb) @ g_sub.T) * dt
        a_new = a_full.copy()
        b_new = b_full.copy()
        a_new[:, :na] = np.maximum(a - ev.sum(axis=2) * dt, 0.0)
        b_new[:, :nb] = np.maximum(b - ev.sum(axis=1) * dt, 0.0)
        if ix.product is ix.collector:
            n_a[idx] = a_new + gain
            n_b[idx] = b_new
        elif ix.product is ix.collected:
            n_a[idx] = a_new
            n_b[idx] = b_new + gain
        else:
            n_a[idx] = a_new
            n_b[idx] = b_new
            dists[ix.product][idx] += gain
    return binds


def _bound_rows(*within: np.ndarray) -> int:
    """Rows where some bin's loss is not within what it holds."""
    if all(w.all() for w in within):
        return 0
    held = within[0].all(axis=1)
    for w in within[1:]:
        held &= w.all(axis=1)
    return int(held.size - np.count_nonzero(held))


def _apply_sparse(
    dists: dict[Species, np.ndarray],
    ix: Interaction,
    idx: np.ndarray,
    a_full: np.ndarray,
    b_full: np.ndarray,
    na: int,
    nb: int,
    ws: np.ndarray,
    dt: float,
    dtype: np.dtype,
    tables: KernelTables,
    nkr: int,
) -> int:
    """One interaction's update via the factored sparse operators.

    Losses: with the limiter separable, the post-limit row loss is
    ``0.5^s * a' * (Kp b') * dt`` — a matvec per point, done as one
    matmul per pressure level. Gain: each pair's deposit goes to one of
    four destination families (row bin, row + 1, column bin,
    column + 1, diagonal + 1), each of which is again a matmul against
    an operator with the split weight folded in, followed by cheap
    column shifts. Nothing of size ``na * nb`` is ever materialized
    per point. Returns the number of rows where the limiter bound.
    """
    n_a = dists[ix.collector]
    n_b = dists[ix.collected]
    a = a_full[:, :na].astype(dtype)
    b = b_full[:, :nb].astype(dtype)
    ops_500, ops_del = _coal_operators(tables, ix.name, nkr, na, nb, dtype)
    k5t, k5, l5t, lh5t, u5, uh5, d5 = ops_500
    kdt, kd, ldt, lhdt, ud, uhd, dd = ops_del
    half = dtype.type(0.5) if ix.self_collection else dtype.type(1.0)
    wsc = ws[:, None]

    rs = half * a * (b @ k5t + wsc * (b @ kdt)) * dt
    if ix.self_collection:
        cs = half * a * (b @ k5 + wsc * (b @ kd)) * dt
        loss = rs + cs
        binds = _bound_rows(loss <= a)
        if not binds:
            # Limiter never binds: a' == a exactly (zero bins have zero
            # loss), so the pre-limit losses are already final.
            ap = a
            bp = a
        else:
            f = np.minimum(1.0, a / np.maximum(loss, 1e-30)).astype(dtype)
            ap = a * f
            bp = ap
            rs = half * ap * (bp @ k5t + wsc * (bp @ kdt)) * dt
            cs = half * bp * (ap @ k5 + wsc * (ap @ kd)) * dt
    else:
        cs = half * b * (a @ k5 + wsc * (a @ kd)) * dt
        binds = _bound_rows(rs <= a, cs <= b)
        if not binds:
            ap = a
            bp = b
        else:
            f_a = np.minimum(1.0, a / np.maximum(rs, 1e-30)).astype(dtype)
            f_b = np.minimum(1.0, b / np.maximum(cs, 1e-30)).astype(dtype)
            ap = a * f_a
            bp = b * f_b
            rs = half * ap * (bp @ k5t + wsc * (bp @ kdt)) * dt
            cs = half * bp * (ap @ k5 + wsc * (ap @ kd)) * dt

    nd = min(na, nb)
    g = np.zeros((len(idx), nkr), dtype=dtype)
    g[:, :na] += ap * (bp @ l5t + wsc * (bp @ ldt))
    g[:, :nb] += bp * (ap @ u5 + wsc * (ap @ ud))
    rhi = ap * (bp @ lh5t + wsc * (bp @ lhdt))
    uhi = bp * (ap @ uh5 + wsc * (ap @ uhd))
    dig = (ap[:, :nd] * bp[:, :nd]) * (d5 + wsc * dd)
    ha = min(na, nkr - 1)
    hb = min(nb, nkr - 1)
    hd = min(nd, nkr - 1)
    g[:, 1 : ha + 1] += rhi[:, :ha]
    g[:, 1 : hb + 1] += uhi[:, :hb]
    g[:, 1 : hd + 1] += dig[:, :hd]
    if nd == nkr:
        # Top diagonal pair overflows into the top bin itself.
        g[:, nkr - 1] += dig[:, nkr - 1]
    g *= half * dt
    gain = g

    if ix.self_collection:
        a_new = a_full.copy()
        a_new[:, :na] = np.maximum(a - rs - cs, 0.0)
        if ix.product is ix.collector:
            n_a[idx] = np.maximum(a_new + gain, 0.0)
        else:
            n_a[idx] = a_new
            dists[ix.product][idx] += gain
    else:
        a_new = a_full.copy()
        b_new = b_full.copy()
        a_new[:, :na] = np.maximum(a - rs, 0.0)
        b_new[:, :nb] = np.maximum(b - cs, 0.0)
        if ix.product is ix.collector:
            n_a[idx] = a_new + gain
            n_b[idx] = b_new
        elif ix.product is ix.collected:
            n_a[idx] = a_new
            n_b[idx] = b_new + gain
        else:
            n_a[idx] = a_new
            n_b[idx] = b_new
            dists[ix.product][idx] += gain
    return binds


#: Rows per block of the compiled collision passes. Bounds the
#: operator-product temporaries (about 1.6 MB per side at nkr = 33):
#: unblocked, the storm forecast's peak RSS grew ~10 MB over 240 steps
#: and its step ran ~20% slower. Typical applies — a few hundred to a
#: few thousand rows — still take one to three blocks.
NATIVE_BLOCK_ROWS = 1024


def _apply_native(
    lib,
    dists: dict[Species, np.ndarray],
    ix: Interaction,
    idx: np.ndarray,
    na: int,
    nb: int,
    ws: np.ndarray,
    dt: float,
    dtype: np.dtype,
    tables: KernelTables,
    nkr: int,
) -> int:
    """One interaction's sparse update through the compiled passes.

    The same physics as :func:`_apply_sparse`, on the same cached
    operators: BLAS does the operator contractions and the elementwise
    remainder runs as two row-local C passes —
    :func:`repro.fsbm.ckernels.coal_limit` (pre-limit losses, bind
    test, limited spectra) and :func:`repro.fsbm.ckernels.coal_update`
    (final losses, gain families, clamped write-back through ``idx``).
    When the limiter binds, the loss products are recomputed from
    ``ap``/``bp`` exactly as the numpy engine does.

    Rows go through in blocks of :data:`NATIVE_BLOCK_ROWS` counted from
    the start of ``idx`` — one member's rows — so a member's blocks,
    and with them its results, do not depend on the other members.
    ``idx`` are rows of the ``dists`` row views, read and written in
    place. Returns the number of rows where the limiter bound.
    """
    ops = _coal_operators(tables, ix.name, nkr, na, nb, dtype)
    binds = 0
    for s in range(0, idx.shape[0], NATIVE_BLOCK_ROWS):
        e = s + NATIVE_BLOCK_ROWS
        binds += _apply_native_block(
            lib, dists, ix, idx[s:e], na, nb, ws[s:e], dt, dtype, ops
        )
    return binds


def _products(x: np.ndarray, mats: tuple) -> np.ndarray:
    """``[x @ m for m in mats]`` side by side in one ``(rows, k*n)`` array.

    One GEMM per operator, as in the numpy engine. Stacking the
    operators along N into one GEMM was measured slower: the wider
    product crosses OpenBLAS's multithreading threshold, and two
    process-rank workers each running two BLAS threads on two cores
    took the ``ensemble_ranks`` step from ~200 ms to 325-385 ms.
    """
    width = mats[0].shape[1]
    out = np.empty((x.shape[0], len(mats) * width), dtype=x.dtype)
    for k, m in enumerate(mats):
        np.matmul(x, m, out=out[:, k * width : (k + 1) * width])
    return out


def _apply_native_block(
    lib,
    dists: dict[Species, np.ndarray],
    ix: Interaction,
    idx: np.ndarray,
    na: int,
    nb: int,
    ws: np.ndarray,
    dt: float,
    dtype: np.dtype,
    ops: tuple,
) -> int:
    """:func:`_apply_native` on one block of rows."""
    (k5t, k5, l5t, lh5t, u5, uh5, d5), (kdt, kd, ldt, lhdt, ud, uhd, dd) = ops
    n_a = dists[ix.collector]
    n_b = dists[ix.collected]
    selfc = ix.self_collection
    a = np.asarray(n_a[idx, :na], dtype=dtype)
    b = a if selfc else np.asarray(n_b[idx, :nb], dtype=dtype)
    half = dtype.type(0.5) if selfc else dtype.type(1.0)

    pk = (_products(b, (k5t, kdt)), _products(a, (k5, kd)))
    binds, ap, bp = ckernels.coal_limit(
        lib, a, b, pk[0], pk[1], ws, half, dt, selfc
    )
    if binds:
        pk = (_products(bp, (k5t, kdt)), _products(ap, (k5, kd)))
    else:
        ap, bp = a, b
    pg = (
        _products(bp, (l5t, ldt, lh5t, lhdt)),
        _products(ap, (u5, ud, uh5, uhd)),
    )
    if ix.product is ix.collector:
        pmode = 1
    elif ix.product is ix.collected:
        pmode = 2
    else:
        pmode = 0
    ckernels.coal_update(
        lib, idx, a, b, ap, bp, pk, pg, ws, (d5, dd),
        (n_a, n_b, dists[ix.product]), half, dt, selfc, pmode,
    )
    return binds


def _native_lib(dists: dict[Species, np.ndarray], dtype: np.dtype):
    """The compiled kernels when they can run this call, else ``None``.

    The distributions may be any row views with one common row stride
    (:func:`repro.fsbm.ckernels.row_stride`): compact ``(points, nkr)``
    arrays or the resident superblock's bin columns.
    """
    if dtype not in (np.float32, np.float64) or not ckernels.addressable(
        dists.values()
    ):
        return None
    return ckernels.load_kernels()


def coal_bott_step(
    dists: dict[Species, np.ndarray],
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    dt: float,
    tables: KernelTables,
    interactions: tuple[Interaction, ...],
    occupied: dict[Species, np.ndarray] | None = None,
    on_demand: bool = False,
    dtype: np.dtype | type = np.float64,
    selection: CoalSelection | None = None,
    use_sparse: bool = True,
    native: bool = True,
) -> CoalWorkStats:
    """Advance all distributions by one collision step, in place.

    ``dists`` maps species to ``(npts, nkr)`` arrays of the active
    points (compact; :func:`coal_bott_step_members` also takes row
    views and a row list). ``dtype`` selects the arithmetic precision: the
    offloaded stages pass ``float32`` to reproduce device arithmetic,
    which is what the Sec. VII-B digit comparison measures.

    ``selection`` shares a pre-built :class:`CoalSelection` (the
    collision stage builds it once per step for both the work
    prediction and the update). ``use_sparse`` picks the contraction
    engine; both produce the same physics, with relative differences
    only at the float-associativity level (~1e-14 in float64).
    ``native`` runs the sparse engine's elementwise work through the
    compiled passes of :mod:`repro.fsbm.ckernels` when they load (the
    numpy engine otherwise). This is the one-member case of
    :func:`coal_bott_step_members`.
    """
    return coal_bott_step_members(
        dists, temperature, pressure_mb, dt, tables, interactions,
        [(0, temperature.shape[0])], occupied=occupied, on_demand=on_demand,
        dtype=dtype, selection=selection, use_sparse=use_sparse,
        native=native,
    )[0]


def coal_bott_step_members(
    dists: dict[Species, np.ndarray],
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    dt: float,
    tables: KernelTables,
    interactions: tuple[Interaction, ...],
    segments: list[tuple[int, int]],
    occupied: dict[Species, np.ndarray] | None = None,
    on_demand: bool = False,
    dtype: np.dtype | type = np.float64,
    selection: CoalSelection | None = None,
    use_sparse: bool = True,
    native: bool = True,
    rows: np.ndarray | None = None,
) -> list[CoalWorkStats]:
    """One collision step over member-concatenated points, in place.

    The per-point arrays hold every member's active points concatenated
    member-major; ``segments[m]`` is member ``m``'s range of points.
    ``dists`` maps species to row views (:mod:`repro.fsbm.rows`): point
    ``p``'s bins are row ``rows[p]``, or row ``p`` when ``rows`` is
    None. Returns the per-member work stats, equal to what a call on
    each member's points alone reports.

    What is shared across members is everything row-local: the
    temperature-gate cache, the per-row sums, the interaction masks,
    ``flatnonzero``, the pressure weights, and the post-apply
    ``refresh`` — one Python sweep over the interaction list instead of
    N. The operator applications themselves stay per member: BLAS
    GEMM/GEMV results for a given row depend on the call's total row
    count (kernel/blocking selection), so concatenating members' rows
    into one apply would perturb rows at the ulp level — and the
    occupied-bin rectangle ``(na, nb)`` is member-specific anyway (it
    is the *member's* max, and the rectangle sets the BLAS inner
    dimension). Each member's apply therefore runs on exactly its own
    rows at exactly its own rectangle, which reproduces a separate run
    of that member bit-for-bit; members write disjoint row sets, so
    their order is immaterial. The compiled passes (``native``) are
    row-local, so they keep this per-member identity.
    """
    npts = temperature.shape[0]
    if selection is None and npts:
        selection = CoalSelection.build(dists, temperature, rows)
    stats = predict_coal_work_members(
        dists, temperature, tables, interactions, occupied, on_demand,
        segments, selection=selection, rows=rows,
    )
    if npts == 0:
        return stats

    nkr = next(iter(dists.values())).shape[1]
    dtype = np.dtype(dtype)
    w_full = (
        (np.asarray(pressure_mb) - KERNEL_P_LOW_MB)
        / (KERNEL_P_HIGH_MB - KERNEL_P_LOW_MB)
    ).astype(dtype)
    use_sparse = use_sparse and _pair_split(nkr).triangular
    g_split = None if use_sparse else _split_tensor(nkr)
    lib = _native_lib(dists, dtype) if native and use_sparse else None
    live = selection.fork()
    starts = np.asarray([s for s, _ in segments])
    stops = np.asarray([e for _, e in segments])

    for ix in interactions:
        sel = live.mask(ix)
        if not sel.any():
            continue
        idx = np.flatnonzero(sel)
        bin_rows = idx if rows is None else rows[idx]
        occ_a = occupied[ix.collector] if occupied is not None else None
        occ_b = occupied[ix.collected] if occupied is not None else None
        los = np.searchsorted(idx, starts)
        his = np.searchsorted(idx, stops)

        for m, (lo, hi) in enumerate(zip(los, his)):
            if hi == lo:
                continue
            pts = idx[lo:hi]
            brows = bin_rows[lo:hi]
            # Restrict the pair loops to occupied bins: empty bins
            # contribute exact zeros, so the result is bitwise identical
            # while the work shrinks to what the scalar code's
            # occupied-bin bounds would do.
            if occ_a is not None:
                na = max(1, int(occ_a[pts].max()))
                nb = max(1, int(occ_b[pts].max()))
            else:
                na = nb = nkr
            if lib is not None:
                binds = _apply_native(
                    lib, dists, ix, brows, na, nb, w_full[pts], dt, dtype,
                    tables, nkr,
                )
            elif use_sparse:
                binds = _apply_sparse(
                    dists, ix, brows, dists[ix.collector][brows],
                    dists[ix.collected][brows], na, nb, w_full[pts], dt,
                    dtype, tables, nkr,
                )
            else:
                binds = _apply_dense(
                    dists, ix, brows, dists[ix.collector][brows],
                    dists[ix.collected][brows], na, nb, w_full[pts], dt,
                    dtype, tables, nkr, g_split,
                )
            stats[m].limiter_binds += binds
        live.refresh(
            dists, {ix.collector, ix.collected, ix.product}, idx, bin_rows
        )

    return stats
