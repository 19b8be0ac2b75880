"""The in-place physics kernels on every storage layout the driver uses.

The driver hands each kernel ``(row views, rows)``: the bins of the
admitted cells stay where they live (:mod:`repro.fsbm.rows`). These
tests place the same points into each layout —

* the resident superblock (row stride ``3 + 7 * nkr``),
* separate per-species arrays (``use_superblock_fields=False``, row
  stride ``nkr``),
* the owned cells of a halo-extended superblock,
* a member-stacked superblock whose base state (pressure, density) is
  a stride-0 broadcast over the members, as ``ens.p_o``/``ens.rho_o``

— and check each compiled kernel against the numpy kernel on the same
rows: bit for bit where the kernel promises it (row census), to the
rounding tolerances of the compiled physics elsewhere. Cells outside
the row list must come back untouched.
"""

import numpy as np
import pytest

from repro.constants import T_0
from repro.fsbm import ckernels
from repro.fsbm import rows as rowmod
from repro.fsbm.coal_bott import coal_bott_step_members
from repro.fsbm.collision_kernels import get_tables
from repro.fsbm.condensation import onecond2_members
from repro.fsbm.fast_sbm import _census
from repro.fsbm.freezing import freezing_melting_step
from repro.fsbm.nucleation import jernucl01_ks
from repro.fsbm.species import INTERACTIONS, Species
from repro.fsbm.thermo import saturation_mixing_ratio
from tests.fsbm.test_coal_bott import _max_rel_dev

NKR = 33
SPLIST = list(Species)
CELLS = (3, 4, 5)  # ni, nk, nj
NSC = 3 + len(SPLIST) * NKR
LAYOUTS = ("superblock", "per_species", "halo_owned", "members")


def _storage(kind):
    """``(dists_stacked, nm)`` of one layout, every bin random junk."""
    ni, nk, nj = CELLS
    rng = np.random.default_rng(99)
    bins = lambda block: {
        sp: block[..., 3 + k * NKR : 3 + (k + 1) * NKR]
        for k, sp in enumerate(SPLIST)
    }
    if kind == "superblock":
        return bins(rng.uniform(0.0, 1.0, (1, ni, nk, nj, NSC))), 1
    if kind == "per_species":
        return {sp: rng.uniform(0.0, 1.0, (1, ni, nk, nj, NKR)) for sp in SPLIST}, 1
    if kind == "halo_owned":
        block = rng.uniform(0.0, 1.0, (ni + 4, nk, nj + 4, NSC))
        return bins(block[2:-2, :, 2:-2][None]), 1
    return bins(rng.uniform(0.0, 1.0, (2, ni, nk, nj, NSC))), 2


def _case(kind, seed=0, boost=1.0):
    """A layout with mixed-phase points on a random subset of its cells.

    Returns ``(stacked, rows, views, fields)`` where ``fields`` holds
    the per-point thermodynamics taken from cell arrays (pressure and
    density from a stride-0 member broadcast in the member layout).
    """
    stacked, nm = _storage(kind)
    ni, nk, nj = CELLS
    rng = np.random.default_rng(seed)
    mask = rng.uniform(size=(nm, ni, nk, nj)) < 0.45
    midx = np.nonzero(mask)
    npts = midx[0].size
    for k, sp in enumerate(SPLIST):
        d = np.zeros((npts, NKR))
        lo = 2 + k
        d[:, lo : lo + 12] = boost * rng.uniform(0.0, 2.0, (npts, 12))
        d[rng.uniform(size=npts) < 0.3] = 0.0  # absent species at some points
        stacked[sp][midx] = d
    col_p = np.linspace(950.0, 450.0, nk)
    col_rho = np.linspace(1.1e-3, 0.6e-3, nk)
    shape = (nm, ni, nk, nj)
    if kind == "members":
        p_cells = np.broadcast_to(col_p[None, None, :, None], shape)
        rho_cells = np.broadcast_to(col_rho[None, None, :, None], shape)
        assert p_cells.strides[0] == 0
    else:
        p_cells = np.broadcast_to(col_p[None, None, :, None], shape).copy()
        rho_cells = np.broadcast_to(col_rho[None, None, :, None], shape).copy()
    t_cells = rng.uniform(T_0 - 45.0, T_0 + 8.0, shape)
    qv_cells = rng.uniform(0.7, 1.2, shape) * saturation_mixing_ratio(
        t_cells, p_cells
    )
    ccn_cells = rng.uniform(50.0, 150.0, shape)
    fields = {
        "t": t_cells[midx],
        "p": p_cells[midx],
        "qv": qv_cells[midx],
        "rho": rho_cells[midx],
        "ccn": ccn_cells[midx],
    }
    views, coef = rowmod.row_views(stacked)
    return stacked, rowmod.cell_rows(coef, midx), views, fields


def _twin(kind, **kw):
    """Two identical copies of one case (native / numpy)."""
    return _case(kind, **kw), _case(kind, **kw)


def _assert_close(got, ref, rtol=1e-12):
    for sp in SPLIST:
        scale = float(np.abs(ref[sp]).max()) or 1.0
        np.testing.assert_allclose(
            got[sp], ref[sp], rtol=rtol, atol=1e-12 * scale, err_msg=str(sp)
        )


@pytest.mark.parametrize("kind", LAYOUTS)
class TestLayouts:
    def test_row_stride(self, kind):
        stacked, rows, views, _ = _case(kind)
        ld = ckernels.row_stride([views[sp] for sp in SPLIST])
        assert ld == (NKR if kind == "per_species" else NSC)
        # Every row view addresses its cell's own bins.
        midx = np.nonzero(np.ones(stacked[SPLIST[0]].shape[:-1], dtype=bool))
        all_rows = rowmod.cell_rows(rowmod.row_views(stacked)[1], midx)
        for sp in SPLIST:
            np.testing.assert_array_equal(views[sp][all_rows], stacked[sp][midx])

    def test_census_is_bit_identical(self, kind):
        _, rows, views, _ = _case(kind, seed=1)
        got = _census(ckernels.load_kernels(), views, rows)
        ref = _census(None, views, rows)
        for sp in SPLIST:
            np.testing.assert_array_equal(got.sums[sp], ref.sums[sp])
            np.testing.assert_array_equal(got.occupied[sp], ref.occupied[sp])
            np.testing.assert_array_equal(got.nonzero[sp], ref.nonzero[sp])

    def test_nucleation(self, kind):
        (s_nat, rows, v_nat, f_nat), (s_ref, _, v_ref, f_ref) = _twin(kind, seed=2)
        for v, f, native in ((v_nat, f_nat, True), (v_ref, f_ref, False)):
            jernucl01_ks(
                v, f["t"], f["p"], f["qv"], f["rho"], f["ccn"], 5.0,
                rows=rows, native=native,
            )
        assert not np.array_equal(f_nat["qv"], _case(kind, seed=2)[3]["qv"])
        _assert_close(s_nat, s_ref)
        for name in ("t", "qv", "ccn"):
            np.testing.assert_allclose(f_nat[name], f_ref[name], rtol=1e-12)

    def test_freezing_and_melting(self, kind):
        (s_nat, rows, v_nat, f_nat), (s_ref, _, v_ref, f_ref) = _twin(kind, seed=3)
        stats = [
            freezing_melting_step(v, f["t"], f["rho"], 5.0, rows=rows, native=native)
            for v, f, native in ((v_nat, f_nat, True), (v_ref, f_ref, False))
        ]
        assert stats[0] == stats[1]
        assert stats[0].bin_updates > 0
        _assert_close(s_nat, s_ref)
        np.testing.assert_allclose(f_nat["t"], f_ref["t"], rtol=1e-12)

    def test_condensation(self, kind):
        (s_nat, rows, v_nat, f_nat), (s_ref, _, v_ref, f_ref) = _twin(kind, seed=4)
        npts = rows.shape[0]
        stats = [
            onecond2_members(
                v, f["t"], f["p"], f["qv"], f["rho"], f["ccn"], 5.0,
                [(0, npts)], native=native, rows=rows,
            )
            for v, f, native in ((v_nat, f_nat, True), (v_ref, f_ref, False))
        ]
        assert stats[0] == stats[1]
        _assert_close(s_nat, s_ref, rtol=1e-10)
        for name in ("t", "qv", "ccn"):
            np.testing.assert_allclose(f_nat[name], f_ref[name], rtol=1e-12)

    @pytest.mark.parametrize("dt", [5.0, 60.0])
    def test_collisions(self, kind, dt):
        (s_nat, rows, v_nat, f_nat), (s_ref, _, v_ref, f_ref) = _twin(
            kind, seed=5, boost=100.0
        )
        census = _census(None, v_ref, rows)
        stats = [
            coal_bott_step_members(
                v, f["t"], f["p"], dt, get_tables(), INTERACTIONS,
                [(0, rows.shape[0])], occupied=census.occupied,
                on_demand=True, native=native, rows=rows,
            )
            for v, f, native in ((v_nat, f_nat, True), (v_ref, f_ref, False))
        ]
        assert stats[0] == stats[1]
        if dt == 60.0:
            assert stats[0][0].limiter_binds > 0
        assert _max_rel_dev(s_nat, s_ref) < 1e-12

    def test_rows_outside_the_list_are_untouched(self, kind):
        stacked, rows, views, f = _case(kind, seed=6)
        all_cells = np.ones(stacked[SPLIST[0]].shape[:-1], dtype=bool)
        every = rowmod.cell_rows(rowmod.row_views(stacked)[1], np.nonzero(all_cells))
        listed = np.isin(every, rows)
        before = {sp: views[sp][every] for sp in SPLIST}
        jernucl01_ks(views, f["t"], f["p"], f["qv"], f["rho"], f["ccn"], 5.0, rows=rows)
        freezing_melting_step(views, f["t"], f["rho"], 5.0, rows=rows)
        onecond2_members(
            views, f["t"], f["p"], f["qv"], f["rho"], f["ccn"], 5.0,
            [(0, rows.shape[0])], rows=rows,
        )
        coal_bott_step_members(
            views, f["t"], f["p"], 5.0, get_tables(), INTERACTIONS,
            [(0, rows.shape[0])], on_demand=True, rows=rows,
        )
        after = {sp: views[sp][every] for sp in SPLIST}
        assert any(
            not np.array_equal(after[sp][listed], before[sp][listed])
            for sp in SPLIST
        )
        for sp in SPLIST:
            np.testing.assert_array_equal(after[sp][~listed], before[sp][~listed])


class TestGuards:
    """The compiled kernels trust their pointers; the wrappers refuse
    row lists and layouts they would misaddress."""

    def _args(self, kind="superblock"):
        _, rows, views, f = _case(kind, seed=7)
        return rows, views, f

    def _calls(self, views, rows, f):
        lib = ckernels.load_kernels()
        table = [views[sp] for sp in SPLIST]
        return {
            "census_rows": lambda: ckernels.census_rows(lib, table, rows, 1e-12),
            "nucleate_rows": lambda: ckernels.nucleate_rows(
                lib, table[:4], rows, f["t"], f["p"], f["qv"], f["rho"],
                f["ccn"], 1e-12, 1e-12,
            ),
            "freeze_melt_rows": lambda: ckernels.freeze_melt_rows(
                lib, table, rows, f["t"], f["rho"], np.ones(NKR), 14, 5.0,
                0.9, 0.01,
            ),
            "cond_grow": lambda: ckernels.cond_grow(
                lib, table[0], rows, f["qv"], f["qv"], f["rho"], f["rho"],
                np.ones(NKR), np.ones(NKR), 1.0, 5.0, 1e-12,
            ),
        }

    @pytest.mark.parametrize(
        "name", ["census_rows", "nucleate_rows", "freeze_melt_rows", "cond_grow"]
    )
    def test_refuses_out_of_range_rows(self, name):
        rows, views, f = self._args()
        nrows = views[SPLIST[0]].shape[0]
        for bad in (nrows, -1):
            wrong = rows.copy()
            wrong[-1] = bad
            with pytest.raises(ValueError, match="row index out of range"):
                self._calls(views, wrong, f)[name]()

    @pytest.mark.parametrize(
        "name", ["census_rows", "nucleate_rows", "freeze_melt_rows", "cond_grow"]
    )
    def test_refuses_row_stride_below_nkr(self, name):
        rows, views, f = self._args("per_species")
        overlapping = {
            sp: np.lib.stride_tricks.as_strided(
                v, shape=v.shape, strides=((NKR - 1) * 8, 8)
            )
            for sp, v in views.items()
        }
        with pytest.raises(ValueError, match="at least nkr"):
            self._calls(overlapping, rows, f)[name]()

    def test_row_views_refuse_overlapping_cells(self):
        cells = np.zeros((4, NKR))
        with pytest.raises(Exception, match="do not form rows"):
            rowmod.row_views(
                {
                    sp: np.lib.stride_tricks.as_strided(
                        cells, shape=(4, NKR), strides=((NKR - 1) * 8, 8)
                    )
                    for sp in SPLIST
                }
            )


def test_unaddressable_rows_take_the_numpy_kernels():
    """Storage the compiled kernels cannot address (float32 bins) runs
    the numpy kernels: a compiled-physics step equals the reference."""
    from repro.fsbm.state import MicroState
    from repro.optim.stages import Stage
    from tests.fsbm.test_fast_sbm import _sbm, _setup

    def run(native):
        state, t, p, qv, rho = _setup(seed=3)
        narrow = MicroState(
            shape=state.shape,
            dists={sp: d.astype(np.float32) for sp, d in state.dists.items()},
        )
        sbm = _sbm(Stage.LOOKUP)
        sbm.use_native_physics = native
        stats = sbm.step(narrow, t, p, qv, rho, dz_cm=50_000.0)
        return narrow, t, stats

    assert not ckernels.addressable(
        rowmod.row_views(
            {sp: d[None] for sp, d in run(False)[0].dists.items()}
        )[0].values()
    )
    ref, got = run(False), run(True)
    for sp in SPLIST:
        np.testing.assert_array_equal(got[0].dists[sp], ref[0].dists[sp])
    np.testing.assert_array_equal(got[1], ref[1])
    assert got[2] == ref[2]
