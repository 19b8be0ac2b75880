"""Compiled physics kernels vs their numpy references.

The contract of :mod:`repro.fsbm.ckernels` (see its module docstring):
the fused sedimentation sweep and the KO-remap scatter are **bit
identical** to the numpy paths, and every compiled path degrades to
numpy under ``REPRO_DISABLE_CPHYS``.
"""

import numpy as np
import pytest

from repro.fsbm import ckernels
from repro.fsbm.condensation import _remap_spectrum
from repro.fsbm.sedimentation import _courant_tables, sedimentation_step
from repro.fsbm.species import Species, species_bins
from repro.fsbm.state import MicroState

NKR = 33
SPLIST = list(Species)


def test_kernels_compile_in_ci():
    """The compiled path must actually be exercised by this suite."""
    assert ckernels.load_kernels() is not None, ckernels.load_error


# --- sedimentation -----------------------------------------------------------


def _superblock_state(shape=(4, 6, 5), seed=0, species=None):
    """A MicroState whose dists are strided views into one superblock,
    exactly the layout :meth:`repro.wrf.state.WrfFields.bind_block`
    produces (bin axis unit-stride, shared element strides)."""
    ni, nk, nj = shape
    block = np.zeros((ni, nk, nj, len(SPLIST) * NKR))
    dists = {
        sp: block[..., isp * NKR : (isp + 1) * NKR]
        for isp, sp in enumerate(SPLIST)
    }
    rng = np.random.default_rng(seed)
    for sp in species or (Species.LIQUID, Species.SNOW, Species.GRAUPEL):
        mask = rng.random((ni, nk, nj)) < 0.5
        dists[sp][mask] = rng.uniform(0.0, 5.0, (int(mask.sum()), NKR))
    return MicroState(shape=shape, dists=dists)


P_LEVELS = np.linspace(1000.0, 400.0, 6)


class TestSedimentation:
    def test_native_bitwise_matches_numpy_on_superblock_views(self):
        state = _superblock_state()
        ref = state.copy()  # contiguous copy -> numpy path workload
        stats_nat = sedimentation_step(state, P_LEVELS, 50_000.0, 5.0)
        stats_ref = sedimentation_step(
            ref, P_LEVELS, 50_000.0, 5.0, native=False
        )
        for sp in SPLIST:
            np.testing.assert_array_equal(
                state.dists[sp], ref.dists[sp], err_msg=str(sp)
            )
        # Only the precip dot product accumulates in a different order.
        np.testing.assert_allclose(state.precip, ref.precip, rtol=1e-12)
        assert stats_nat.cell_bins == stats_ref.cell_bins > 0

    def test_multi_step_stays_bitwise(self):
        state = _superblock_state(seed=7)
        ref = state.copy()
        for _ in range(4):
            sedimentation_step(state, P_LEVELS, 50_000.0, 5.0)
            sedimentation_step(ref, P_LEVELS, 50_000.0, 5.0, native=False)
        for sp in SPLIST:
            np.testing.assert_array_equal(state.dists[sp], ref.dists[sp])

    def test_cfl_violation_raises_when_species_present(self):
        state = _superblock_state(species=(Species.HAIL,))
        tables = _courant_tables(P_LEVELS, 50_000.0, 15.0)
        assert tables["cmax"][Species.HAIL] > 1.0  # dt=15 breaks hail
        with pytest.raises(AssertionError, match="CFL violated"):
            sedimentation_step(state, P_LEVELS, 50_000.0, 15.0)

    @pytest.mark.parametrize("native", [True, False])
    def test_cfl_violation_ignored_for_absent_species(self, native):
        # Hail violates CFL at dt=15 but is absent; liquid is present
        # and stable, so the step must run on both paths.
        state = _superblock_state(species=(Species.LIQUID,))
        ref = state.copy()
        sedimentation_step(state, P_LEVELS, 50_000.0, 15.0, native=native)
        assert not np.array_equal(
            state.dists[Species.LIQUID], ref.dists[Species.LIQUID]
        )

    def test_courant_tables_are_cached(self):
        a = _courant_tables(P_LEVELS, 50_000.0, 5.0)
        b = _courant_tables(P_LEVELS.copy(), 50_000.0, 5.0)
        assert a is b  # CountingCache hit, not a rebuild
        assert _courant_tables(P_LEVELS, 50_000.0, 2.5) is not a

    def test_mass_conserved_including_precip(self):
        state = _superblock_state(seed=3)
        grids = species_bins()
        before = sum(
            float((state.dists[sp].reshape(-1, NKR) @ grids[sp].masses).sum())
            for sp in SPLIST
        )
        sedimentation_step(state, P_LEVELS, 50_000.0, 5.0)
        after = sum(
            float((state.dists[sp].reshape(-1, NKR) @ grids[sp].masses).sum())
            for sp in SPLIST
        )
        assert after + state.precip.sum() == pytest.approx(before, rel=1e-10)

    def test_disable_env_forces_numpy_path(self, monkeypatch):
        monkeypatch.setenv(ckernels.DISABLE_ENV, "1")
        assert ckernels.load_kernels() is None
        assert ckernels.DISABLE_ENV in ckernels.load_error
        state = _superblock_state()
        ref = state.copy()
        # native=True now silently takes the numpy reference path.
        sedimentation_step(state, P_LEVELS, 50_000.0, 5.0, native=True)
        sedimentation_step(ref, P_LEVELS, 50_000.0, 5.0, native=False)
        for sp in SPLIST:
            np.testing.assert_array_equal(state.dists[sp], ref.dists[sp])
        np.testing.assert_array_equal(state.precip, ref.precip)


# --- condensation KO-remap ---------------------------------------------------


class TestRemapScatter:
    def _workload(self, npts=32, seed=11):
        grid = species_bins()[Species.LIQUID]
        rng = np.random.default_rng(seed)
        n = rng.uniform(0.0, 3.0, (npts, NKR))
        factor = rng.uniform(0.45, 2.2, (npts, 1))
        return grid, n, grid.masses[None, :] * factor

    def test_native_bitwise_matches_bincount(self):
        grid, n, new_mass = self._workload()
        n_nat, e_nat = _remap_spectrum(n, new_mass, grid)
        n_ref, e_ref = _remap_spectrum(n, new_mass, grid, native=False)
        np.testing.assert_array_equal(n_nat, n_ref)
        np.testing.assert_array_equal(e_nat, e_ref)
        assert e_nat.sum() > 0  # the 0.45x tail does evaporate particles

    def test_evaporation_boundary_is_strict(self):
        """The evaporation cut is ``new_mass < 0.5 * x[0]``: a particle
        exactly at half the smallest bin mass survives; one ULP below
        evaporates."""
        grid = species_bins()[Species.LIQUID]
        n = np.ones((2, NKR))
        new_mass = np.tile(grid.masses, (2, 1))
        boundary = 0.5 * grid.masses[0]
        new_mass[0, 0] = boundary  # exactly at the cut: survives
        new_mass[1, 0] = np.nextafter(boundary, 0.0)  # below: evaporates
        for native in (True, False):
            n_new, evap = _remap_spectrum(n, new_mass, grid, native=native)
            assert evap[0] == 0.0
            assert evap[1] == 1.0
            # The surviving boundary particle deposits in the lowest bin
            # (clipped onto the ladder), the evaporated one nowhere.
            assert n_new[0].sum() == pytest.approx(n[0].sum(), rel=1e-12)
            assert n_new[1].sum() == pytest.approx(
                n[1].sum() - 1.0, rel=1e-12
            )

    def test_disable_env_matches_native_results(self, monkeypatch):
        grid, n, new_mass = self._workload(seed=5)
        n_nat, e_nat = _remap_spectrum(n, new_mass, grid)
        monkeypatch.setenv(ckernels.DISABLE_ENV, "1")
        n_off, e_off = _remap_spectrum(n, new_mass, grid)
        np.testing.assert_array_equal(n_nat, n_off)
        np.testing.assert_array_equal(e_nat, e_off)
