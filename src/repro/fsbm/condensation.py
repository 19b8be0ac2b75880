"""Diffusional growth/evaporation: the ``onecond1`` / ``onecond2`` pair.

``onecond1`` treats liquid-only grid points (warm cloud); ``onecond2``
treats mixed-phase points, growing liquid against water saturation and
ice species against ice saturation. Bin masses grow by
``dm = 4 pi rho_p r G S dt`` and the spectrum is remapped onto the mass
ladder with the Kovetz–Olund two-bin split. Vapor and temperature are
updated from the exact remapped mass change, so water mass and moist
enthalpy are conserved to rounding.

With ``native`` the per-bin work of a species (growth, remap, vapor
limiter, blend) is one pass per row of the compiled
:func:`repro.fsbm.ckernels.cond_grow`, in place in the rows the
driver names (:mod:`repro.fsbm.rows`); the numpy reference
(vectorized scatter, BLAS mass contents) runs otherwise, on a take of
those rows, and is what the compiled path is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fsbm import ckernels
from repro.fsbm import rows as rowmod
from repro.fsbm.bins import BinGrid
from repro.fsbm.species import ICE_HABITS, Species, species_bins
from repro.fsbm.state import N_EPS
from repro.fsbm.thermo import (
    condensational_growth_coefficient,
    latent_heating,
    saturation_mixing_ratio,
)

#: Habit shape factor multiplying the growth rate (capacitance of
#: columns/plates/dendrites relative to spheres), plus snow/graupel/hail.
_HABIT_FACTOR = {
    Species.ICE_COL: 0.7,
    Species.ICE_PLA: 0.9,
    Species.ICE_DEN: 1.2,
    Species.SNOW: 0.8,
    Species.GRAUPEL: 0.6,
    Species.HAIL: 0.5,
}

#: Internal sub-cycles the Fortran onecond1/2 take per model step (the
#: growth ODE is integrated on a supersaturation-limited sub-time-step,
#: ~15 sub-cycles in active cloud; calibrated once, see DESIGN.md).
COND_SUBSTEPS = 15

#: FLOPs per (point, bin, substep) of the growth + remap loop, including
#: the psychrometric exponentials evaluated per bin.
FLOPS_PER_BIN = 25.0 * COND_SUBSTEPS


@dataclass
class CondWorkStats:
    """Work counts for one condensation call."""

    points: int = 0
    bin_updates: float = 0.0
    #: (species, point) updates the vapor limiter scaled back
    #: (``|dq| > room``), a numerical-health signal.
    limiter_binds: int = 0

    @property
    def flops(self) -> float:
        return self.bin_updates * FLOPS_PER_BIN

    @property
    def bytes_moved(self) -> float:
        return self.bin_updates * 4.0 * 4.0

    def merge(self, other: "CondWorkStats") -> None:
        self.points += other.points
        self.bin_updates += other.bin_updates
        self.limiter_binds += other.limiter_binds


def _remap_spectrum(
    n: np.ndarray, new_mass: np.ndarray, grid: BinGrid, native: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """KO-remap numbers ``n`` at perturbed masses onto the mass ladder.

    Returns ``(n_new, evaporated_number)`` where particles shrinking
    below half the smallest bin mass evaporate completely (their number
    is returned so callers can credit the CCN reservoir).

    The ladder indices and split weights are always derived in numpy
    (``log2`` rounding must not depend on the libm in play); with
    ``native`` the two full-size ``bincount`` deposits are replaced by
    the compiled per-point scatter of
    :func:`repro.fsbm.ckernels.remap_scatter`, which is bit-identical
    (bincount accumulates in the same flat order).
    """
    npts, nkr = n.shape
    x = grid.masses
    evap_mask = new_mass < 0.5 * x[0]
    evap_number = np.where(evap_mask, n, 0.0).sum(axis=1)

    live = ~evap_mask & (n > 0.0)
    m = np.clip(new_mass, x[0], x[-1])
    k = np.clip(np.floor(np.log2(m / grid.x_min)).astype(int), 0, nkr - 2)
    w_hi = np.clip((m - x[k]) / (x[k + 1] - x[k]), 0.0, 1.0)

    n_live = np.where(live, n, 0.0)
    lib = ckernels.load_kernels() if native else None
    if lib is not None and nkr <= ckernels.MAX_NKR:
        acc = np.empty((npts, nkr))
        ckernels.remap_scatter(lib, n_live, w_hi, k, acc)
        return acc, evap_number
    rows = np.arange(npts)[:, None] * nkr
    flat_lo = (rows + k).ravel()
    flat_hi = (rows + k + 1).ravel()
    acc = np.bincount(
        flat_lo, weights=(n_live * (1.0 - w_hi)).ravel(), minlength=npts * nkr
    )
    acc += np.bincount(
        flat_hi, weights=(n_live * w_hi).ravel(), minlength=npts * nkr
    )
    return acc.reshape(npts, nkr), evap_number


def _segmented_rowdot(
    a: np.ndarray, v: np.ndarray, segments: list[tuple[int, int]]
) -> np.ndarray:
    """Row-wise ``a @ v``, issued one BLAS call per row segment.

    BLAS matvec results for a given row are *not* independent of how
    many other rows share the call (kernel/blocking selection depends on
    the row count), so batching several members' rows into one ``a @ v``
    can perturb single rows at the ulp level. Splitting the call at
    member boundaries reproduces each member's own contraction
    bit-for-bit; one segment covering every row is exactly ``a @ v``.
    """
    out = np.empty(a.shape[0], dtype=np.result_type(a, v))
    for s, e in segments:
        if e > s:
            out[s:e] = a[s:e] @ v
    return out


def _grow_species(
    n: np.ndarray,
    sp: Species,
    supersat: np.ndarray,
    growth_coeff: np.ndarray,
    dt: float,
    grid: BinGrid,
    row_segments: list[tuple[int, int]],
    native: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One species' growth step.

    Returns ``(n_new, dmass_per_point, evaporated_number)`` with
    ``dmass`` the condensate mass change [g/cm^3] (positive while
    condensing). ``row_segments`` splits the mass contractions at
    member boundaries (see :func:`_segmented_rowdot`).
    """
    r = grid.radii
    factor = _HABIT_FACTOR.get(sp, 1.0)
    # dm/dt = 4 pi rho_p r^2 dr/dt = 4 pi rho_p r G S
    dm = (
        4.0
        * np.pi
        * grid.density
        * factor
        * r[None, :]
        * growth_coeff[:, None]
        * supersat[:, None]
        * dt
    )
    old_mass_content = _segmented_rowdot(n, grid.masses, row_segments)
    new_mass = grid.masses[None, :] + dm
    n_new, evap = _remap_spectrum(n, new_mass, grid, native=native)
    dmass = _segmented_rowdot(n_new, grid.masses, row_segments) - old_mass_content
    return n_new, dmass, evap


def _grow_rows_native(
    lib,
    n: np.ndarray,
    sp: Species,
    rows: np.ndarray,
    pos,
    over: str,
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    qv: np.ndarray,
    rho_air: np.ndarray,
    ccn: np.ndarray,
    g_coeff: np.ndarray,
    dt: float,
    grid: BinGrid,
) -> np.ndarray:
    """One species' growth step at points ``pos`` through the kernel.

    The kernel does the per-bin work of :func:`_grow_species` and the
    vapor limiter in one pass per row, updating rows ``rows[pos]`` of
    ``n`` in place; the saturation ratio and the vapor/temperature/CCN
    updates of the points stay here. Returns the per-point limiter
    flags.
    """
    t_s = temperature[pos]
    qv_s = qv[pos]
    rho_s = rho_air[pos]
    qs = saturation_mixing_ratio(t_s, pressure_mb[pos], over)
    # The reference's scalar prefix of dm, in its operation order.
    c0 = 4.0 * np.pi * grid.density * _HABIT_FACTOR.get(sp, 1.0)
    bound = np.empty(t_s.shape[0], dtype=np.bool_)
    dmass, ccn_add = ckernels.cond_grow(
        lib, n, rows[pos], qv_s, qs, rho_s, g_coeff[pos], grid.masses,
        grid.radii, c0, dt, grid.x_min, bound=bound,
    )
    dq = dmass / rho_s
    qv[pos] = qv_s - dq
    process = "condensation" if sp is Species.LIQUID else "deposition"
    temperature[pos] = t_s + latent_heating(dq, process)
    if sp is Species.LIQUID:
        ccn[pos] = ccn[pos] + ccn_add
    return bound


def _condensation_core_members(
    dists: dict[Species, np.ndarray],
    species: tuple[Species, ...],
    over: dict[Species, str],
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    qv: np.ndarray,
    rho_air: np.ndarray,
    ccn: np.ndarray,
    dt: float,
    segments: list[tuple[int, int]],
    species_present: list[dict[Species, bool]] | None = None,
    native: bool = True,
    rows: np.ndarray | None = None,
    row_sums: dict[Species, np.ndarray] | None = None,
) -> list[CondWorkStats]:
    """Growth driver for onecond1/onecond2 (updates in place).

    Member ``m``'s fields and stats are bit-identical to a call on its
    points alone; the solo routines are the one-segment case. The
    per-point arrays hold every member's call points concatenated
    member-major, ``segments[m]`` being member ``m``'s ``(start,
    stop)`` range (empty ranges allowed). ``dists`` maps species to row
    views (:mod:`repro.fsbm.rows`): point ``p``'s bins are row
    ``rows[p]``, or row ``p`` when ``rows`` is None.

    With ``native`` (and the compiled kernels loaded) each species is
    one :func:`repro.fsbm.ckernels.cond_grow` call over the selected
    points, updating their rows in place; it is row-local, so members
    never interact. Otherwise the numpy reference runs on a take of the
    rows: elementwise thermodynamics and the per-point KO-remap scatter
    are row-local, so they run once over the concatenation and produce
    each member's rows bit-for-bit. The ``n @ masses`` contractions are
    the exception — BLAS matvec results depend on the call's row count
    — so those are issued one BLAS call per member segment
    (:func:`_segmented_rowdot`), matching each member's own contraction
    exactly.

    The one member-sensitive part is the per-species skip logic: a
    species is skipped for a member when the member's conservative
    presence flag (``species_present[m]``, False only when the species
    is identically zero there) is off or none of its rows exceed
    ``N_EPS``, and a skipped species must not touch that member's rows
    (they may hold tiny sub-threshold values a grow step would perturb)
    nor its work stats. Each species therefore processes only the row
    ranges of members that pass their own gates, and per-member
    ``bin_updates`` and ``limiter_binds`` accumulate only for those
    members. ``row_sums`` optionally supplies each species' per-point
    bin sums (numpy's ``sum(axis=1)`` of the rows, e.g. from the
    driver's row census) for the gate; a species' rows are unchanged
    until its own turn, so they are the sums the gate would take.
    """
    stats = [CondWorkStats(points=e - s) for (s, e) in segments]
    npts = temperature.shape[0]
    if npts == 0:
        return stats
    lib = ckernels.load_kernels() if native else None
    if lib is None or not ckernels.addressable(dists[sp] for sp in species):
        lib = None
        if rows is not None:
            # numpy reference on a take of the call rows.
            compact = rowmod.take(dists, rows, species)
            stats = _condensation_core_members(
                compact, species, over, temperature, pressure_mb, qv,
                rho_air, ccn, dt, segments, species_present=species_present,
                native=False, row_sums=row_sums,
            )
            rowmod.put(dists, rows, compact)
            return stats
    elif rows is None:
        rows = np.arange(npts)
    grids = species_bins()
    g_coeff = condensational_growth_coefficient(temperature, pressure_mb)

    for sp in species:
        n = dists[sp]
        nkr = n.shape[1]
        # Presence flags first: the row sums are only worth taking once
        # some member may carry the species.
        flagged = [
            m
            for m, (s, e) in enumerate(segments)
            if e > s
            and (species_present is None or species_present[m].get(sp, True))
        ]
        if not flagged:
            continue
        if row_sums is not None:
            sums = row_sums[sp]
        elif rows is None:
            sums = n.sum(axis=1)
        else:
            sums = n[rows].sum(axis=1)
        rowsum_hot = sums > N_EPS
        passing = [
            m for m in flagged if rowsum_hot[segments[m][0] : segments[m][1]].any()
        ]
        if not passing:
            continue
        seg_pass = [segments[m] for m in passing]
        for m in passing:
            s, e = segments[m]
            stats[m].bin_updates += float((e - s) * nkr)
        # Segment boundaries within the passing points (for the
        # per-member BLAS splits and limiter counts below).
        sub_segments, off = [], 0
        for s, e in seg_pass:
            sub_segments.append((off, off + (e - s)))
            off += e - s
        if off == npts:
            idx = None
        else:
            idx = np.concatenate([np.arange(s, e) for s, e in seg_pass])
        if lib is not None:
            bound = _grow_rows_native(
                lib, n, sp, rows, slice(None) if idx is None else idx,
                over[sp], temperature, pressure_mb, qv, rho_air, ccn,
                g_coeff, dt, grids[sp],
            )
            for m, (s, e) in zip(passing, sub_segments):
                stats[m].limiter_binds += int(np.count_nonzero(bound[s:e]))
            continue
        if idx is None:
            nn, t_s, p_s = n, temperature, pressure_mb
            qv_s, rho_s, ccn_s, gc_s = qv, rho_air, ccn, g_coeff
        else:
            nn, t_s, p_s = n[idx], temperature[idx], pressure_mb[idx]
            qv_s, rho_s, ccn_s = qv[idx], rho_air[idx], ccn[idx]
            gc_s = g_coeff[idx]

        qs = saturation_mixing_ratio(t_s, p_s, over[sp])
        s_sat = qv_s / qs - 1.0
        n_new, dmass, evap = _grow_species(
            nn, sp, s_sat, gc_s, dt, grids[sp], sub_segments, native=native
        )
        # Limit condensation so vapor cannot be driven below saturation
        # (nor evaporation above it) in a single explicit step.
        dq = dmass / rho_s  # condensate increment in mixing ratio
        room = np.where(
            dq >= 0.0, np.maximum(qv_s - qs, 0.0), np.maximum(qs - qv_s, 0.0)
        )
        bound = np.abs(dq) > room
        for m, (s, e) in zip(passing, sub_segments):
            stats[m].limiter_binds += int(np.count_nonzero(bound[s:e]))
        scale = np.where(bound, room / np.maximum(np.abs(dq), 1e-300), 1.0)
        scale = np.clip(scale, 0.0, 1.0)
        blended = nn + scale[:, None] * (n_new - nn)
        dmass = _segmented_rowdot(blended - nn, grids[sp].masses, sub_segments)
        dq = dmass / rho_s
        process = "condensation" if sp is Species.LIQUID else "deposition"
        if idx is None:
            dists[sp][...] = blended
            qv -= dq
            temperature += latent_heating(dq, process)
            ccn += scale * evap if sp is Species.LIQUID else 0.0
        else:
            dists[sp][idx] = blended
            qv_s -= dq
            qv[idx] = qv_s
            t_s += latent_heating(dq, process)
            temperature[idx] = t_s
            if sp is Species.LIQUID:
                ccn_s += scale * evap
                ccn[idx] = ccn_s
            # Non-liquid species add an exact scalar 0.0 to ccn in the
            # reference — a bitwise no-op on the non-negative reservoir.
    return stats


def onecond1(
    dists: dict[Species, np.ndarray],
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    qv: np.ndarray,
    rho_air: np.ndarray,
    ccn: np.ndarray,
    dt: float,
    native: bool = True,
    species_present: dict[Species, bool] | None = None,
) -> CondWorkStats:
    """Liquid-only condensation/evaporation (warm grid points)."""
    return onecond1_members(
        dists, temperature, pressure_mb, qv, rho_air, ccn, dt,
        [(0, temperature.shape[0])],
        species_present=None if species_present is None else [species_present],
        native=native,
    )[0]


def onecond2(
    dists: dict[Species, np.ndarray],
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    qv: np.ndarray,
    rho_air: np.ndarray,
    ccn: np.ndarray,
    dt: float,
    native: bool = True,
    species_present: dict[Species, bool] | None = None,
) -> CondWorkStats:
    """Mixed-phase condensation/deposition (liquid + all ice species)."""
    return onecond2_members(
        dists, temperature, pressure_mb, qv, rho_air, ccn, dt,
        [(0, temperature.shape[0])],
        species_present=None if species_present is None else [species_present],
        native=native,
    )[0]


def onecond1_members(
    dists: dict[Species, np.ndarray],
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    qv: np.ndarray,
    rho_air: np.ndarray,
    ccn: np.ndarray,
    dt: float,
    segments: list[tuple[int, int]],
    species_present: list[dict[Species, bool]] | None = None,
    native: bool = True,
    rows: np.ndarray | None = None,
    row_sums: dict[Species, np.ndarray] | None = None,
) -> list[CondWorkStats]:
    """Member-batched :func:`onecond1` (liquid-only, warm points).

    ``rows`` names each point's row in the ``dists`` row views and
    ``row_sums`` optionally supplies the gate's bin sums (see
    :func:`_condensation_core_members`).
    """
    return _condensation_core_members(
        dists,
        (Species.LIQUID,),
        {Species.LIQUID: "water"},
        temperature,
        pressure_mb,
        qv,
        rho_air,
        ccn,
        dt,
        segments,
        species_present=species_present,
        native=native,
        rows=rows,
        row_sums=row_sums,
    )


def onecond2_members(
    dists: dict[Species, np.ndarray],
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    qv: np.ndarray,
    rho_air: np.ndarray,
    ccn: np.ndarray,
    dt: float,
    segments: list[tuple[int, int]],
    species_present: list[dict[Species, bool]] | None = None,
    native: bool = True,
    rows: np.ndarray | None = None,
    row_sums: dict[Species, np.ndarray] | None = None,
) -> list[CondWorkStats]:
    """Member-batched :func:`onecond2` (mixed-phase points); ``rows`` and
    ``row_sums`` as in :func:`onecond1_members`."""
    species = (Species.LIQUID, *ICE_HABITS, Species.SNOW, Species.GRAUPEL, Species.HAIL)
    over = {sp: ("water" if sp is Species.LIQUID else "ice") for sp in species}
    return _condensation_core_members(
        dists, species, over, temperature, pressure_mb, qv, rho_air, ccn, dt,
        segments, species_present=species_present, native=native, rows=rows,
        row_sums=row_sums,
    )
