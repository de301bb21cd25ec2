"""Pure-Python reference kernels for the hot candidate scans.

These are the fallback used when the compiled extension is unavailable.
Semantics (including first-index tie-breaking) must match the compiled
versions exactly; `tests/test_kernels.py` enforces this.  Inputs are
numpy arrays, so the scans vectorize; np.argmin picks the first minimal
index, matching the compiled tie-break.  The arrays are used as given,
without copies or casts.
"""

from __future__ import annotations

import numpy as np


def nearest_index(xs: np.ndarray, ys: np.ndarray, ax: float, ay: float) -> int:
    """Index of the candidate with minimal L1 distance to (ax, ay).

    Ties resolve to the first (lowest) index.  Returns -1 on empty input.
    """
    if len(xs) == 0:
        return -1
    d = np.abs(xs - ax)
    d += np.abs(ys - ay)
    return int(d.argmin())


def nearest_index_masked(
    xs: np.ndarray,
    ys: np.ndarray,
    eligible: np.ndarray,
    ax: float,
    ay: float,
) -> int:
    """Like nearest_index but only over candidates with a nonzero mask entry."""
    if len(xs) == 0:
        return -1
    d = np.abs(xs - ax)
    d += np.abs(ys - ay)
    np.putmask(d, eligible == 0, np.inf)
    i = int(d.argmin())
    return i if eligible[i] else -1  # with none eligible, every entry is inf
