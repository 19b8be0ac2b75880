"""Freezing and melting phase transitions between the bin species.

* Homogeneous freezing: below -38 C all liquid freezes instantly —
  small bins become plate crystals, large drops become hail.
* Immersion freezing: between -38 C and -5 C, large drops freeze with a
  Bigg-style exponential rate in supercooling.
* Melting: above 0 C, ice habits and snow melt within one step; graupel
  and hail melt with a finite relaxation time (they survive a fall
  through the melting layer, as in the full FSBM).

All transfers move number between equal-mass bins of different species,
so condensate mass is conserved exactly; latent heat of fusion feeds
back on temperature.

With ``native`` and a row list the compiled row kernel
:func:`repro.fsbm.ckernels.freeze_melt_rows` does the same per point,
in place in the rows, and reports the per-row gate flags the work
count needs; the numpy reference below is its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import T_0
from repro.fsbm import rows as rowmod
from repro.fsbm.species import ICE_HABITS, Species, species_bins
from repro.fsbm.thermo import latent_heating

#: Homogeneous-freezing threshold [K].
T_HOMOGENEOUS = T_0 - 38.0

#: Drops at or above this bin index freeze to hail (smaller ones to
#: plates): roughly the 100 um radius boundary of drop freezing.
HAIL_BIN_THRESHOLD = 14

#: Bigg immersion-freezing rate coefficient [s^-1].
BIGG_A = 1.0e-4
BIGG_B = 0.66  # [K^-1]

#: Melting relaxation times [s].
TAU_MELT_FAST = 1.0  # ice habits, snow
TAU_MELT_SLOW = 600.0  # graupel, hail

#: FLOPs per (point, bin) of the phase-change sweep.
FLOPS_PER_BIN = 8.0


@dataclass
class FreezeWorkStats:
    """Work counts for one freezing/melting call."""

    bin_updates: float = 0.0

    @property
    def flops(self) -> float:
        return self.bin_updates * FLOPS_PER_BIN

    @property
    def bytes_moved(self) -> float:
        return self.bin_updates * 4.0 * 3.0

    def merge(self, other: "FreezeWorkStats") -> None:
        self.bin_updates += other.bin_updates


def _melt_fraction(dt: float, tau: float):
    return 1.0 - np.exp(-dt / tau)


def freezing_melting_step(
    dists: dict[Species, np.ndarray],
    temperature: np.ndarray,
    rho_air: np.ndarray,
    dt: float,
    rows: np.ndarray | None = None,
    native: bool = True,
) -> FreezeWorkStats:
    """Apply freezing and melting to one call's points, in place.

    ``dists`` maps species to ``(rows, nkr)`` row views
    (:mod:`repro.fsbm.rows`); point ``p`` lives in row ``rows[p]``, or
    in row ``p`` when ``rows`` is None. The work count is gated per
    call (any point freezing, any point melting a species), so one
    call is one member's points.
    """
    npts = temperature.shape[0]
    stats = FreezeWorkStats()
    if npts == 0:
        return stats
    grids = species_bins()
    masses = grids[Species.LIQUID].masses
    nkr = masses.shape[0]
    if rows is not None:
        from repro.fsbm import ckernels

        lib = ckernels.load_kernels() if native else None
        if lib is not None:
            flags = ckernels.freeze_melt_rows(
                lib, [dists[sp] for sp in Species], rows, temperature,
                rho_air, masses, HAIL_BIN_THRESHOLD, dt,
                _melt_fraction(dt, TAU_MELT_FAST),
                _melt_fraction(dt, TAU_MELT_SLOW),
            )
            gates = int(np.bitwise_or.reduce(flags))
            stats.bin_updates = float(npts * nkr) * bin(gates).count("1")
            return stats
        compact = rowmod.take(dists, rows)
        stats = freezing_melting_step(compact, temperature, rho_air, dt)
        rowmod.put(dists, rows, compact)
        return stats
    liq = dists[Species.LIQUID]

    # --- freezing ----------------------------------------------------------
    supercool = np.maximum(T_0 - temperature, 0.0)
    frac = np.where(
        temperature <= T_HOMOGENEOUS,
        1.0,
        1.0 - np.exp(-BIGG_A * np.exp(BIGG_B * supercool) * dt),
    )
    frac = np.where(supercool > 5.0, frac, 0.0)[:, None]
    if frac.any():
        frozen = liq * frac
        # Small drops -> plate crystals; large drops -> hail embryos.
        small = frozen[:, :HAIL_BIN_THRESHOLD]
        large = frozen[:, HAIL_BIN_THRESHOLD:]
        dists[Species.ICE_PLA][:, :HAIL_BIN_THRESHOLD] += small
        dists[Species.HAIL][:, HAIL_BIN_THRESHOLD:] += large
        liq -= frozen
        dq = (frozen @ masses) / rho_air
        temperature += latent_heating(dq, "freezing")
        stats.bin_updates += float(npts * nkr)

    # --- melting -----------------------------------------------------------
    warm = temperature > T_0
    if warm.any():
        for sp in (*ICE_HABITS, Species.SNOW, Species.GRAUPEL, Species.HAIL):
            tau = (
                TAU_MELT_FAST
                if sp in (*ICE_HABITS, Species.SNOW)
                else TAU_MELT_SLOW
            )
            melt_frac = np.where(warm, _melt_fraction(dt, tau), 0.0)[:, None]
            melted = dists[sp] * melt_frac
            if not melted.any():
                continue
            dists[sp] -= melted
            liq += melted
            dq = (melted @ masses) / rho_air
            temperature -= latent_heating(dq, "freezing")
            stats.bin_updates += float(npts * nkr)

    return stats
