"""Loop group side: series arithmetic, lattice chains, cells, and fibers."""

from .cells import CellGroup, cell_points, closure_points, schubert_count
from .chains import Lattice, standard_member, validate_chain
from .fiber import enumerate_fiber
from .kottwitz import (is_unitary, kottwitz_gm, kottwitz_norm_one,
                       kottwitz_unitary)
from .series import EXACT, Series, parse_series

__all__ = [
    "CellGroup", "cell_points", "closure_points", "schubert_count",
    "Lattice", "standard_member", "validate_chain",
    "enumerate_fiber",
    "is_unitary", "kottwitz_gm", "kottwitz_norm_one", "kottwitz_unitary",
    "EXACT", "Series", "parse_series",
]
