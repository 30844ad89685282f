"""Exact combinatorics of twisted affine Weyl groups and loop groups.

Affine root data in the Kac classification, Iwahori-Weyl groups with Bruhat
order, admissible sets and their parahoric saturations, Littelmann path
counts against closed dimension formulas, and hermitian lattice chains over
F_q((u)) with Schubert cells and local model fibers.  All arithmetic is
exact: integers, fractions, and truncated Laurent series that track their
own precision.

Every name in __all__, and each submodule, loads on first use (PEP 562),
so `from loopweyl import adm` loads nothing of `loopweyl.loops`.
"""

from importlib import import_module

__version__ = "0.1.0"


def _lazy(package, exports):
    """__all__ and the module __getattr__ (PEP 562) of a package, from the
    names each submodule exports: a name, or a submodule by its own name,
    loads on first use, and any other name raises AttributeError."""
    homes = {name: mod for mod, names in exports.items()
             for name in names.split()}

    def __getattr__(name):
        if name in homes:
            return getattr(import_module(f".{homes[name]}", package), name)
        if name in exports:
            return import_module(f".{name}", package)
        raise AttributeError(f"module {package!r} has no attribute {name!r}")
    return list(homes), __getattr__


__all__, __getattr__ = _lazy(__name__, {
    "admissible": "adm adm_count adm_parahoric",
    "dims": "CoherenceReport central_charge check_coherence h_mu h_mu_sum "
            "hook_content iota_embed minuscule_node weyl_dim",
    "errors": "LoopweylError ResourceCapError SeriesPrecisionError "
              "SpecParseError UnknownDatumError UnsupportedDatumError "
              "UnsupportedFieldError",
    "kactables": "known_names parse_name",
    "lspaths": "PathSpace count_h_y is_ls_path shape_weight",
    "rootdata": "bt_nodes datum_from_json datum_to_json echelon_system "
                "load_affine_datum project_coweight special_nodes "
                "split_parent",
    "linalg": "", "weyl": "",  # submodules only
})
__all__.insert(0, "__version__")
