"""Kernel selection: the compiled scan when it was built, numpy otherwise."""

from __future__ import annotations

try:
    from ._scan import nearest_index, nearest_index_masked

    IMPLEMENTATION = "c"
except ImportError:  # extension not built
    from ._kernels_py import nearest_index, nearest_index_masked

    IMPLEMENTATION = "python"

__all__ = ["nearest_index", "nearest_index_masked", "IMPLEMENTATION"]
