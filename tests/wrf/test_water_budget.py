"""Whole-run water budget of the microphysics.

Vapor, condensate and surface precipitation only trade water among
themselves inside the physics, so over a run of physics-only steps the
total water on a rank's owned cells must not move:

    sum(qv * rho) + sum(total_condensate_mass()) + sum(precip)

(``precip`` accumulates the sedimented mass per lowest-cell volume, so
it adds to the cell mass contents directly). Terms are added with
``math.fsum``, so the check sees the physics' own rounding, not the
summation's. Float64 physics conserves it exactly; the offloaded fp32
collision loop drifts by ~4e-9 over the run.
"""

import math

import numpy as np
import pytest

from repro.grid.indexing import owned_slice
from repro.optim.stages import Stage
from repro.wrf.ensemble import EnsembleModel
from repro.wrf.model import WrfModel
from repro.wrf.namelist import conus12km_namelist

STEPS = 20
DENSE = (("bubbles_per_1e4_cells", 400.0),)


def _water(fields) -> float:
    terms = []
    for f in fields:
        sl = owned_slice(f.patch)
        micro = f.micro.view(sl)
        terms += [
            (f.qv[sl] * f.rho[sl]).ravel(),
            micro.total_condensate_mass().ravel(),
            micro.precip.ravel(),
        ]
    return math.fsum(np.concatenate(terms))


def _drift(model, fields) -> float:
    before = _water(fields)
    for _ in range(STEPS):
        model._physics(0)
    return abs(_water(fields) - before) / before


def _namelist(stage, native, **kw):
    if stage.uses_gpu:
        kw["num_gpus"] = 1
    return conus12km_namelist(
        scale=0.04, num_ranks=1, seed=3, stage=stage,
        use_native_physics=native, **kw,
    )


@pytest.mark.parametrize("native", [False, True], ids=["numpy", "native"])
class TestWaterBudget:
    def test_physics_rank_conserves_water_exactly(self, native):
        model = WrfModel(_namelist(Stage.LOOKUP, native, member_deltas=(DENSE,)))
        assert _drift(model, model.fields) == 0.0

    def test_physics_rank_members_conserves_water_exactly(self, native):
        model = EnsembleModel(
            _namelist(
                Stage.LOOKUP, native, members=2,
                member_deltas=(DENSE, DENSE + (("bubble_dtheta", 3.2),)),
            )
        )
        fields = [f for rank in model.ranks for f in rank.fields]
        assert _drift(model, fields) == 0.0

    def test_offloaded_fp32_drift_is_bounded(self, native):
        model = WrfModel(
            _namelist(Stage.OFFLOAD_COLLAPSE3, native, member_deltas=(DENSE,))
        )
        assert 0.0 < _drift(model, model.fields) < 1e-8
