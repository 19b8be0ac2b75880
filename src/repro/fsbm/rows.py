"""Row addressing of bin distributions where they live.

The FSBM driver never copies a microphysics point's bins out of the
rank's storage. Every species' ``(..., nkr)`` cell array — the bin
columns of the resident superblock, a separate per-species array, a
halo-extended owned view, a member-stacked block — is reinterpreted as
a ``(rows, nkr)`` *row view* whose rows are one cell each, ``ld``
elements apart. The driver builds one row list per step (flat row
numbers of the admitted cells, member-major) and every physics kernel
receives ``(row views, rows)``:

* the compiled kernels read and write those rows directly, given each
  species' base pointer and the common row stride
  (:func:`repro.fsbm.ckernels.row_stride`);
* the numpy reference kernels take the rows they need into compact
  arrays (:func:`take`), run unchanged, and put them back
  (:func:`put`) — the same values the old gathered copies held, so
  the reference stays bit-identical.

A ``rows=None`` call means the row views *are* the compact per-point
arrays (row ``p`` is point ``p``), which is how the standalone kernel
API and the offloaded regions (whose ``map`` copy is a take/put) use
them.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.fsbm.species import Species


def row_views(
    stacked: dict[Species, np.ndarray],
) -> tuple[dict[Species, np.ndarray], np.ndarray]:
    """``(views, coef)`` for cell arrays of one shape and layout.

    ``stacked[sp]`` is a ``(*cells, nkr)`` view with a unit bin
    stride; every species must share shape and strides. The row stride
    is the innermost cell stride, every other cell stride must be a
    non-negative multiple of it, and cell ``idx`` sits at row
    ``idx @ coef``. ``views[sp]`` is the ``(rows, nkr)`` strided view
    starting at that species' first cell; it covers the cells' rows
    (and whatever lies between them, which no row list names).
    """
    ref = next(iter(stacked.values()))
    *cells, nkr = ref.shape
    item = ref.itemsize
    if ref.strides[-1] != item or any(
        d.shape != ref.shape or d.strides != ref.strides
        for d in stacked.values()
    ):
        raise ConfigurationError(
            "bin distributions must share one layout with unit bin stride"
        )
    # Size-1 axes never move off index 0: their stride is irrelevant.
    strides = [s if n > 1 else 0 for s, n in zip(ref.strides[:-1], cells)]
    moving = [s for s in strides if s]
    ld = min(moving) if moving else nkr * item
    if ld < nkr * item or any(s < 0 or s % ld for s in strides):
        raise ConfigurationError(
            f"cell strides {ref.strides[:-1]} do not form rows of {nkr} bins"
        )
    coef = np.asarray([s // ld for s in strides], dtype=np.int64)
    nrows = int(sum((n - 1) * c for n, c in zip(cells, coef))) + 1
    views = {
        sp: np.lib.stride_tricks.as_strided(
            d, shape=(nrows, nkr), strides=(ld, item)
        )
        for sp, d in stacked.items()
    }
    return views, coef


def cell_rows(coef: np.ndarray, cell_index: tuple[np.ndarray, ...]) -> np.ndarray:
    """Row numbers of the cells ``cell_index`` (an ``np.nonzero`` tuple)."""
    rows = np.zeros(cell_index[0].shape, dtype=np.int64)
    for axis, c in zip(cell_index, coef):
        if c:
            rows += axis * c
    return rows


def take(
    views: dict[Species, np.ndarray],
    rows: np.ndarray,
    species=None,
) -> dict[Species, np.ndarray]:
    """Compact ``(len(rows), nkr)`` copies of ``rows`` (numpy kernels)."""
    return {sp: views[sp][rows] for sp in (species or views)}


def put(
    views: dict[Species, np.ndarray],
    rows: np.ndarray,
    compact: dict[Species, np.ndarray],
) -> None:
    """Write :func:`take`'s copies back to their rows."""
    for sp, arr in compact.items():
        views[sp][rows] = arr
