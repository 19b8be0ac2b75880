"""Compiled physics kernels vs their numpy references.

The contract of :mod:`repro.fsbm.ckernels` (see its module docstring):
the fused sedimentation sweep and the KO-remap scatter are **bit
identical** to the numpy paths, and every compiled path degrades to
numpy under ``REPRO_DISABLE_CPHYS``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# --- condensation growth kernel ----------------------------------------------

from repro.constants import C_P, L_S, L_V, T_0  # noqa: E402
from repro.fsbm.coal_bott import coal_bott_step  # noqa: E402
from repro.fsbm.collision_kernels import get_tables  # noqa: E402
from repro.fsbm.condensation import (  # noqa: E402
    _condensation_core_members,
    onecond2,
)
from repro.fsbm.freezing import freezing_melting_step  # noqa: E402
from repro.fsbm.nucleation import jernucl01_ks  # noqa: E402
from repro.fsbm.species import INTERACTIONS  # noqa: E402
from repro.fsbm.thermo import saturation_mixing_ratio  # noqa: E402
from tests.fsbm.test_coal_bott import (  # noqa: E402
    _max_rel_dev,
    _mixed_state,
    _occupied,
    sparse_and_dense,
)


def _cond_state(npts=24, seed=0, rh=(0.6, 1.2), boost=1.0):
    """Mixed-phase points: every species carries particles somewhere."""
    rng = np.random.default_rng(seed)
    dists = {sp: np.zeros((npts, NKR)) for sp in SPLIST}
    for isp, sp in enumerate(SPLIST):
        lo = 2 + isp
        dists[sp][:, lo : lo + 12] = boost * rng.uniform(0.0, 2.0, (npts, 12))
    temp = rng.uniform(T_0 - 25.0, T_0 - 2.0, npts)
    pres = rng.uniform(450.0, 950.0, npts)
    qv = rng.uniform(*rh, npts) * saturation_mixing_ratio(temp, pres)
    rho = np.full(npts, 1.0e-3)
    ccn = rng.uniform(50.0, 150.0, npts)
    return dists, temp, pres, qv, rho, ccn


def _copy_state(state):
    dists, *fields = state
    return [{sp: d.copy() for sp, d in dists.items()}] + [f.copy() for f in fields]


def _grow_one_species(state, sp, native, dt=5.0):
    dists, temp, pres, qv, rho, ccn = _copy_state(state)
    over = {sp: "water" if sp is Species.LIQUID else "ice"}
    stats = _condensation_core_members(
        dists, (sp,), over, temp, pres, qv, rho, ccn, dt,
        [(0, temp.shape[0])], native=native,
    )
    return dists, temp, qv, ccn, stats


def _assert_close_to_numpy(got, ref):
    """Agreement up to the summation order of the mass contents."""
    for a, b in zip(got, ref):
        if isinstance(a, dict):
            for sp in SPLIST:
                scale = float(np.abs(b[sp]).max()) or 1.0
                np.testing.assert_allclose(
                    a[sp], b[sp], rtol=1e-10, atol=1e-12 * scale, err_msg=str(sp)
                )
        elif isinstance(a, np.ndarray):
            np.testing.assert_allclose(a, b, rtol=1e-12)
        else:
            assert a == b


class TestCondensationKernel:
    @pytest.mark.parametrize("sp", SPLIST)
    @pytest.mark.parametrize("rh", [(0.3, 0.9), (1.01, 1.3)])
    def test_compiled_matches_numpy_core_per_species(self, sp, rh):
        state = _cond_state(seed=SPLIST.index(sp), rh=rh)
        got = _grow_one_species(state, sp, native=True)
        ref = _grow_one_species(state, sp, native=False)
        assert not np.array_equal(got[0][sp], state[0][sp])  # it grew
        _assert_close_to_numpy(got, ref)

    def test_binding_vapor_limiter(self):
        # Dense liquid at slight supersaturation over a long step: the
        # unlimited growth would take more vapor than the excess over
        # saturation, so the limiter scales it to exactly that excess.
        state = _cond_state(seed=4, rh=(1.001, 1.002), boost=200.0)
        dists, temp, pres, qv, rho, ccn = state
        qs = saturation_mixing_ratio(temp, pres, "water")
        got = _grow_one_species(state, Species.LIQUID, native=True, dt=60.0)
        ref = _grow_one_species(state, Species.LIQUID, native=False, dt=60.0)
        # Vapor lands on saturation: the limiter bound at every point.
        np.testing.assert_allclose(got[2], qs, rtol=1e-12)
        _assert_close_to_numpy(got, ref)

    def test_evaporation_boundary_at_half_smallest_mass(self):
        """Particles shrinking to exactly ``0.5 * x[0]`` survive; one
        ulp below they evaporate — in the kernel as in the numpy remap."""
        grid = species_bins()[Species.LIQUID]
        x = grid.masses
        n = np.zeros((2, NKR))
        n[:, 0] = 1.0
        # dm = (((c0 * r[0]) * gc) * ss) * dt with c0 = dt = 1 and
        # ss = 0.5 / 1 - 1 = -0.5 exactly: row 0 lands exactly on the
        # cut, row 1 (gc one ulp above 1) just below it.
        radii = np.zeros(NKR)
        radii[0] = x[0]
        gc = np.array([1.0, np.nextafter(1.0, 2.0)])
        qv = np.full(2, 0.5)
        qs = np.ones(2)
        rho = np.full(2, 1.0e6)  # tiny dq: the vapor limiter stays open
        new_mass = np.tile(x, (2, 1))
        new_mass[:, 0] = x[0] + (((1.0 * x[0]) * gc) * -0.5) * 1.0
        assert new_mass[0, 0] == 0.5 * x[0] > new_mass[1, 0]

        lib = ckernels.load_kernels()
        out = n.copy()
        dmass, ccn_add = ckernels.cond_grow(
            lib, out, np.arange(2), qv, qs, rho, gc, x, radii, 1.0, 1.0,
            grid.x_min,
        )
        n_ref, evap_ref = _remap_spectrum(n, new_mass, grid, native=False)
        np.testing.assert_array_equal(out, n_ref)
        np.testing.assert_array_equal(ccn_add, evap_ref)
        assert ccn_add.tolist() == [0.0, 1.0]
        assert dmass.tolist() == [0.0, -x[0]]

    def test_water_and_moist_enthalpy_conserved(self):
        state = _cond_state(npts=32, seed=9)
        dists, temp, pres, qv, rho, ccn = _copy_state(state)
        grids = species_bins()

        def contents(d):
            liq = d[Species.LIQUID] @ grids[Species.LIQUID].masses / rho
            ice = sum(
                d[sp] @ grids[sp].masses / rho
                for sp in SPLIST
                if sp is not Species.LIQUID
            )
            return liq, ice

        liq0, ice0 = contents(dists)
        t0, qv0 = temp.copy(), qv.copy()
        onecond2(dists, temp, pres, qv, rho, ccn, 5.0, native=True)
        liq1, ice1 = contents(dists)
        water0, water1 = qv0 + liq0 + ice0, qv + liq1 + ice1
        np.testing.assert_allclose(water1, water0, rtol=1e-12)
        # Liquid/ice static energy c_p T - L_v q_l - L_s q_i is invariant.
        latent = L_V * np.abs(liq1 - liq0) + L_S * np.abs(ice1 - ice0)
        assert latent.max() > 0.0
        h0 = C_P * t0 - L_V * liq0 - L_S * ice0
        h1 = C_P * temp - L_V * liq1 - L_S * ice1
        assert np.all(np.abs(h1 - h0) <= 1e-9 * latent + 1e-9)


# --- collision passes -----------------------------------------------------------


class TestCompiledSparseEngine:
    """The sparse-vs-dense agreement with the compiled passes on: the
    1e-12 cases of ``TestSparseEngine``, the binding limiter at long
    steps, and float32 at 2e-4."""

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_matches_dense_to_1e12(self, seed):
        dists, t, p = _mixed_state(48, seed)
        sparse, dense = sparse_and_dense(dists, t, p, native=True)
        assert _max_rel_dev(sparse, dense) < 1e-12

    def test_matches_dense_without_occupied(self):
        dists, t, p = _mixed_state(32, seed=7)
        sparse, dense = sparse_and_dense(dists, t, p, occupied=None, native=True)
        assert _max_rel_dev(sparse, dense) < 1e-12

    @given(seed=st.integers(0, 500), dt=st.floats(10.0, 120.0))
    @settings(max_examples=10, deadline=None)
    def test_matches_dense_with_binding_limiter(self, seed, dt):
        dists, t, p = _mixed_state(32, seed, boost=100.0)
        sparse, dense = sparse_and_dense(dists, t, p, dt=dt, native=True)
        assert _max_rel_dev(sparse, dense) < 1e-12

    def test_binding_limiter_at_dt_60(self, monkeypatch):
        binds = []
        limit = ckernels.coal_limit

        def recording_limit(*args):
            out = limit(*args)
            binds.append(out[0] > 0)
            return out

        monkeypatch.setattr(ckernels, "coal_limit", recording_limit)
        dists, t, p = _mixed_state(32, seed=2, boost=100.0)
        sparse, dense = sparse_and_dense(dists, t, p, dt=60.0, native=True)
        assert _max_rel_dev(sparse, dense) < 1e-12
        assert any(binds)

    def test_matches_dense_with_top_bins_occupied(self):
        # Every bin of three species occupied: the rectangles are the
        # full grid, so the shifts reach the top bin and the top
        # diagonal pair of the cross-species interactions (riming,
        # liquid-graupel, ...) folds into it.
        dists, t, p = _mixed_state(24, seed=8)
        rng = np.random.default_rng(8)
        for sp in (Species.LIQUID, Species.SNOW, Species.GRAUPEL):
            dists[sp][:] = rng.uniform(1e-5, 1e-3, (24, NKR))
        sparse, dense = sparse_and_dense(dists, t, p, native=True)
        assert _max_rel_dev(sparse, dense) < 1e-12

    def test_float32_matches_dense_float32(self):
        dists, t, p = _mixed_state(32, seed=11)
        sparse, dense = sparse_and_dense(
            dists, t, p, dtype=np.float32, native=True
        )
        for sp in SPLIST:
            np.testing.assert_allclose(
                sparse[sp], dense[sp], rtol=2e-4, atol=1e-10
            )

    def test_blocks_match_one_pass(self, monkeypatch):
        """Splitting an apply into row blocks changes no row."""
        from repro.fsbm import coal_bott

        dists, t, p = _mixed_state(40, seed=3, boost=100.0)
        whole, _ = _coal(dists, t, p, dt=60.0)
        monkeypatch.setattr(coal_bott, "NATIVE_BLOCK_ROWS", 7)
        blocked, _ = _coal(dists, t, p, dt=60.0)
        for sp in SPLIST:
            np.testing.assert_allclose(blocked[sp], whole[sp], rtol=1e-13)


def _coal(dists, t, p, dt=5.0, **kw):
    out = {sp: d.copy() for sp, d in dists.items()}
    stats = coal_bott_step(
        out, t, p, dt, get_tables(), INTERACTIONS,
        occupied=_occupied(out), on_demand=True, **kw,
    )
    return out, stats


def _forbid(monkeypatch, *names):
    """Make the named compiled entry points fail if anything calls them."""

    def refuse(*args, **kwargs):
        raise AssertionError("compiled kernel called while disabled")

    for name in names:
        monkeypatch.setattr(ckernels, name, refuse)


class TestDisableSwitch:
    def test_collisions_fall_back_to_numpy_exactly(self, monkeypatch):
        dists, t, p = _mixed_state(32, seed=5, boost=100.0)
        ref, st_ref = _coal(dists, t, p, dt=60.0, native=False)
        monkeypatch.setenv(ckernels.DISABLE_ENV, "1")
        _forbid(monkeypatch, "coal_limit", "coal_update")
        off, st_off = _coal(dists, t, p, dt=60.0, native=True)
        assert st_off == st_ref
        for sp in SPLIST:
            np.testing.assert_array_equal(off[sp], ref[sp])

    def test_condensation_falls_back_to_numpy_exactly(self, monkeypatch):
        state = _cond_state(seed=6)
        ref = _grow_one_species(state, Species.SNOW, native=False)
        monkeypatch.setenv(ckernels.DISABLE_ENV, "1")
        _forbid(monkeypatch, "cond_grow")
        off = _grow_one_species(state, Species.SNOW, native=True)
        for sp in SPLIST:
            np.testing.assert_array_equal(off[0][sp], ref[0][sp])
        for a, b in zip(off[1:4], ref[1:4]):
            np.testing.assert_array_equal(a, b)

    def _rows_case(self, seed):
        from tests.fsbm.test_inplace_kernels import _case

        return _case("superblock", seed=seed)

    def test_nucleation_falls_back_to_numpy_exactly(self, monkeypatch):
        stacked, rows, views, f = self._rows_case(2)
        ref_stacked, _, ref_views, ref = self._rows_case(2)
        jernucl01_ks(
            ref_views, ref["t"], ref["p"], ref["qv"], ref["rho"], ref["ccn"],
            5.0, rows=rows, native=False,
        )
        monkeypatch.setenv(ckernels.DISABLE_ENV, "1")
        _forbid(monkeypatch, "nucleate_rows")
        jernucl01_ks(
            views, f["t"], f["p"], f["qv"], f["rho"], f["ccn"], 5.0,
            rows=rows, native=True,
        )
        for sp in SPLIST:
            np.testing.assert_array_equal(stacked[sp], ref_stacked[sp])
        for name in ("t", "qv", "ccn"):
            np.testing.assert_array_equal(f[name], ref[name])

    def test_freezing_falls_back_to_numpy_exactly(self, monkeypatch):
        stacked, rows, views, f = self._rows_case(3)
        ref_stacked, _, ref_views, ref = self._rows_case(3)
        st_ref = freezing_melting_step(
            ref_views, ref["t"], ref["rho"], 5.0, rows=rows, native=False
        )
        monkeypatch.setenv(ckernels.DISABLE_ENV, "1")
        _forbid(monkeypatch, "freeze_melt_rows")
        st_off = freezing_melting_step(
            views, f["t"], f["rho"], 5.0, rows=rows, native=True
        )
        assert st_off == st_ref
        for sp in SPLIST:
            np.testing.assert_array_equal(stacked[sp], ref_stacked[sp])
        np.testing.assert_array_equal(f["t"], ref["t"])

    def test_driver_step_falls_back_to_numpy_exactly(self, monkeypatch):
        """A whole FastSBM step asked for the compiled physics, with the
        switch set and every compiled fsbm entry point forbidden — the
        row census included — equals the numpy reference bit for bit."""
        from tests.fsbm.test_fast_sbm import _sbm, _setup
        from repro.optim.stages import Stage

        def run(native):
            state, t, p, qv, rho = _setup(seed=3)
            sbm = _sbm(Stage.LOOKUP)
            sbm.use_native_physics = native
            stats = [sbm.step(state, t, p, qv, rho, dz_cm=50_000.0) for _ in range(2)]
            return state, t, qv, stats, sbm.clock

        ref = run(False)
        monkeypatch.setenv(ckernels.DISABLE_ENV, "1")
        _forbid(
            monkeypatch, "census_rows", "nucleate_rows", "cond_grow",
            "freeze_melt_rows", "coal_limit", "coal_update", "sed_sweep",
            "sed_sweep_members",
        )
        off = run(True)
        for sp in SPLIST:
            np.testing.assert_array_equal(off[0].dists[sp], ref[0].dists[sp])
        np.testing.assert_array_equal(off[1], ref[1])
        np.testing.assert_array_equal(off[2], ref[2])
        assert off[3] == ref[3]
        assert off[4].buckets == ref[4].buckets
        assert off[4].regions == ref[4].regions


class TestEmission:
    NEW_KERNELS = (
        "cond_grow",
        "coal_limit_f64",
        "coal_update_f64",
        "coal_limit_f32",
        "coal_update_f32",
        "nucleate_rows",
        "freeze_melt_rows",
        "census_rows",
    )

    def test_fsbm_module_has_no_parallel_region(self):
        """A parallel region in an fsbm kernel would start libgomp's pool
        in every physics call and break forking rank workers."""
        for name in self.NEW_KERNELS:
            assert f"void {name}(" in ckernels.C_SOURCE
        assert "omp parallel" not in ckernels.C_SOURCE

    def test_float_variants_do_float_arithmetic(self):
        """float32 passes use float temporaries and float literals; only
        the write-back into the float64 distributions is double."""
        import re

        src = ckernels.C_SOURCE
        double_literal = re.compile(r"(?<![\w.])\d+\.\d*(?:e[-+]?\d+)?(?![\w.])")
        for name in ("coal_limit_f32", "coal_update_f32"):
            body = src[src.index(f"void {name}(") :]
            body = body[: body.index("\n}\n")]
            assert re.search(r"\d\.\d*(?:e-\d+)?f\b", body)
            for line in body.splitlines()[1:]:
                if "dists[" in line:
                    continue
                assert "double" not in line, line
                assert not double_literal.search(line), line
