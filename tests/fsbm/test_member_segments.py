"""Member-concatenated physics calls vs separate calls per member.

``coal_bott_step_members`` and ``onecond2_members`` advance several
members' points in one call, with ``segments[m]`` giving member ``m``'s
row range. Each member's rows and work stats must equal what a call on
that member's rows alone produces, bit for bit — including an empty
member and a member whose ice species are absent — on the numpy path
and on the compiled one (``native``), whose kernels are row-local.
"""

import numpy as np
import pytest

from repro.fsbm.coal_bott import coal_bott_step, coal_bott_step_members
from repro.fsbm.collision_kernels import get_tables
from repro.fsbm.condensation import onecond2, onecond2_members
from repro.fsbm.fast_sbm import _occupied_rows
from repro.fsbm.species import INTERACTIONS, Species
from repro.fsbm.thermo import saturation_mixing_ratio

NKR = 33
ICE = [sp for sp in Species if sp is not Species.LIQUID]
#: Member sizes: mixed-phase, empty, liquid-only (ice absent).
SIZES = (13, 0, 9)


def _members(seed=7):
    """Concatenated member-major state and its segments."""
    rng = np.random.default_rng(seed)
    npts = sum(SIZES)
    dists = {sp: np.zeros((npts, NKR)) for sp in Species}
    segments, off = [], 0
    for m, n in enumerate(SIZES):
        segments.append((off, off + n))
        rows = slice(off, off + n)
        dists[Species.LIQUID][rows, 3:18] = rng.uniform(0.0, 5.0, (n, 15))
        if m == 0:
            for sp in ICE:
                dists[sp][rows, 2:12] = rng.uniform(0.0, 1.0, (n, 10))
        off += n
    temp = rng.uniform(250.0, 285.0, npts)
    pres = rng.uniform(500.0, 900.0, npts)
    qv = rng.uniform(0.9, 1.1, npts) * saturation_mixing_ratio(temp, pres)
    rho = np.full(npts, 1.0e-3)
    ccn = rng.uniform(50.0, 150.0, npts)
    return dists, temp, pres, qv, rho, ccn, segments


def _rows(dists, s, e):
    return {sp: d[s:e].copy() for sp, d in dists.items()}


def _check_coal(dtype, dt, native):
    dists, temp, pres, _, _, _, segments = _members()
    tables = get_tables()
    solo = []
    for s, e in segments:
        d = _rows(dists, s, e)
        st = coal_bott_step(
            d, temp[s:e], pres[s:e], dt, tables, INTERACTIONS,
            occupied=_occupied_rows(d), on_demand=True, dtype=dtype,
            native=native,
        )
        solo.append((d, st))

    batched = _rows(dists, 0, sum(SIZES))
    stats = coal_bott_step_members(
        batched, temp, pres, dt, tables, INTERACTIONS, segments,
        occupied=_occupied_rows(batched), on_demand=True, dtype=dtype,
        native=native,
    )
    assert any(st.pair_entries for _, st in solo)
    for (s, e), (d, st), got in zip(segments, solo, stats):
        assert got == st
        for sp in Species:
            assert np.array_equal(batched[sp][s:e], d[sp]), sp


def _check_onecond2(with_flags, native):
    dists, temp, pres, qv, rho, ccn, segments = _members()
    present = [
        {sp: bool(dists[sp][s:e].any()) for sp in Species} for s, e in segments
    ]
    assert not any(present[2][sp] for sp in ICE)
    solo = []
    for m, (s, e) in enumerate(segments):
        d = _rows(dists, s, e)
        t, q, c = temp[s:e].copy(), qv[s:e].copy(), ccn[s:e].copy()
        st = onecond2(
            d, t, pres[s:e], q, rho[s:e], c, 5.0,
            species_present=present[m] if with_flags else None,
            native=native,
        )
        solo.append((d, t, q, c, st))

    batched = _rows(dists, 0, sum(SIZES))
    t, q, c = temp.copy(), qv.copy(), ccn.copy()
    stats = onecond2_members(
        batched, t, pres, q, rho, c, 5.0, segments,
        species_present=present if with_flags else None,
        native=native,
    )
    assert solo[2][4].bin_updates == SIZES[2] * NKR  # liquid only
    for (s, e), (d, ts, qs, cs, st), got in zip(segments, solo, stats):
        assert got == st
        for sp in Species:
            assert np.array_equal(batched[sp][s:e], d[sp]), sp
        assert np.array_equal(t[s:e], ts)
        assert np.array_equal(q[s:e], qs)
        assert np.array_equal(c[s:e], cs)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("dt", [5.0, 60.0])
def test_coal_members_equal_separate_calls(dtype, dt):
    _check_coal(dtype, dt, native=True)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("dt", [5.0, 60.0])
def test_coal_members_equal_separate_calls_numpy(dtype, dt):
    _check_coal(dtype, dt, native=False)


@pytest.mark.parametrize("with_flags", [True, False])
def test_onecond2_members_equal_separate_calls(with_flags):
    _check_onecond2(with_flags, native=True)


@pytest.mark.parametrize("with_flags", [True, False])
def test_onecond2_members_equal_separate_calls_numpy(with_flags):
    _check_onecond2(with_flags, native=False)


def test_compiled_row_blocks_start_at_each_member(monkeypatch):
    """Compiled collision blocks count rows from each member's start, so
    blocks smaller than a member still give its solo result exactly."""
    from repro.fsbm import coal_bott

    monkeypatch.setattr(coal_bott, "NATIVE_BLOCK_ROWS", 4)
    _check_coal(np.float64, 60.0, native=True)
