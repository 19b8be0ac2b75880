"""Nucleation: the ``jernucl01_ks`` droplet/ice activation routine.

Drop activation draws on a prognostic CCN reservoir with a Twomey-style
power law in supersaturation; ice nucleation follows a Fletcher-type
exponential in supercooling, gated on ice supersaturation. Newly formed
particles enter the smallest bin of their species, with vapor and
latent-heat feedback applied.

With ``native`` and a row list the compiled row kernel
:func:`repro.fsbm.ckernels.nucleate_rows` does the same per point,
in place in the rows; the numpy reference below is the oracle it is
tested against (agreement to rounding: libm ``exp`` vs numpy's).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import T_0
from repro.fsbm import rows as rowmod
from repro.fsbm.species import Species, species_bins
from repro.fsbm.thermo import latent_heating, supersaturation

#: Twomey exponent for CCN activation.
TWOMEY_K = 0.5

#: Supersaturation [fraction] that activates the whole CCN reservoir.
S_FULL_ACTIVATION = 0.02

#: Fletcher ice-nucleation parameters: N = A * exp(B * supercooling).
FLETCHER_A = 1.0e-8  # [cm^-3]
FLETCHER_B = 0.4  # [K^-1]

#: Cap on ice crystals nucleated per step [cm^-3].
ICE_NUCLEATION_CAP = 0.1

#: FLOPs per grid point of the activation logic (supersaturation,
#: Twomey power law, Fletcher exponential, habit partition).
FLOPS_PER_POINT = 80.0

#: The species nucleation writes (bin 0 only), in the compiled
#: kernel's table order.
NUCLEATED = (Species.LIQUID, Species.ICE_DEN, Species.ICE_COL, Species.ICE_PLA)


@dataclass
class NuclWorkStats:
    """Work counts for one nucleation call."""

    points: int = 0

    @property
    def flops(self) -> float:
        return self.points * FLOPS_PER_POINT

    @property
    def bytes_moved(self) -> float:
        return self.points * 4.0 * 8.0

    def merge(self, other: "NuclWorkStats") -> None:
        self.points += other.points


def jernucl01_ks(
    dists: dict[Species, np.ndarray],
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    qv: np.ndarray,
    rho_air: np.ndarray,
    ccn: np.ndarray,
    dt: float,
    rows: np.ndarray | None = None,
    native: bool = True,
) -> NuclWorkStats:
    """Activate droplets and nucleate ice crystals, in place.

    ``dists`` maps species to ``(rows, nkr)`` row views
    (:mod:`repro.fsbm.rows`); point ``p`` lives in row ``rows[p]``, or
    in row ``p`` when ``rows`` is None. Thermodynamic arrays are per
    point. With ``native`` and a row list the compiled kernel updates
    the rows in place; otherwise the numpy reference runs on a take of
    the rows and puts them back.
    """
    npts = temperature.shape[0]
    stats = NuclWorkStats(points=npts)
    if npts == 0:
        return stats
    grids = species_bins()
    if rows is not None:
        from repro.fsbm import ckernels

        lib = ckernels.load_kernels() if native else None
        if lib is not None:
            ckernels.nucleate_rows(
                lib, [dists[sp] for sp in NUCLEATED], rows, temperature,
                pressure_mb, qv, rho_air, ccn,
                grids[Species.LIQUID].masses[0], grids[Species.ICE_PLA].masses[0],
            )
            return stats
        compact = rowmod.take(dists, rows, NUCLEATED)
        jernucl01_ks(compact, temperature, pressure_mb, qv, rho_air, ccn, dt)
        rowmod.put(dists, rows, compact)
        return stats

    # --- droplet activation ---------------------------------------------------
    s_w = supersaturation(qv, temperature, pressure_mb, over="water")
    frac = np.clip(s_w / S_FULL_ACTIVATION, 0.0, 1.0) ** TWOMEY_K
    n_act = np.where(s_w > 0.0, ccn * frac, 0.0)
    # Don't activate more than the vapor excess can supply as bin-0 mass.
    x0 = grids[Species.LIQUID].masses[0]
    max_by_vapor = np.maximum(qv * rho_air, 0.0) * 1.0e-3 / x0
    n_act = np.minimum(n_act, max_by_vapor)
    dists[Species.LIQUID][:, 0] += n_act
    ccn -= n_act
    dq = n_act * x0 / rho_air
    qv -= dq
    temperature += latent_heating(dq, "condensation")

    # --- ice nucleation ---------------------------------------------------------
    s_i = supersaturation(qv, temperature, pressure_mb, over="ice")
    supercool = np.maximum(T_0 - temperature, 0.0)
    n_ice = np.where(
        (temperature < T_0 - 5.0) & (s_i > 0.0),
        np.minimum(FLETCHER_A * np.exp(FLETCHER_B * supercool), ICE_NUCLEATION_CAP),
        0.0,
    )
    # Split over the three habits by temperature regime (columns cold,
    # plates mid, dendrites near -15 C), mirroring habit diagrams.
    w_den = np.exp(-0.5 * ((temperature - (T_0 - 15.0)) / 4.0) ** 2)
    w_col = np.clip((T_0 - 20.0 - temperature) / 10.0, 0.0, 1.0)
    w_pla = np.maximum(1.0 - w_den - w_col, 0.0)
    total = np.maximum(w_den + w_col + w_pla, 1e-12)
    xi0 = grids[Species.ICE_PLA].masses[0]
    for sp, wgt in (
        (Species.ICE_DEN, w_den),
        (Species.ICE_COL, w_col),
        (Species.ICE_PLA, w_pla),
    ):
        n_sp = n_ice * wgt / total
        dists[sp][:, 0] += n_sp
        dqi = n_sp * xi0 / rho_air
        qv -= dqi
        temperature += latent_heating(dqi, "deposition")

    return stats
