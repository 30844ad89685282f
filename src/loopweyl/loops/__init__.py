"""Loop group side: series arithmetic, lattice chains, cells, and fibers.

Every name in __all__, and each submodule, loads on first use (PEP 562),
so `from loopweyl.loops import Series` loads the series layer alone.
"""

from .. import _lazy

__all__, __getattr__ = _lazy(__name__, {
    "cells": "CellGroup cell_points closure_points schubert_count",
    "chains": "Lattice standard_member validate_chain",
    "fiber": "enumerate_fiber",
    "kottwitz": "is_unitary kottwitz_gm kottwitz_norm_one kottwitz_unitary",
    "series": "EXACT Series parse_series",
})
