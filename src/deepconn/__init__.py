"""Deep-connectivity parameters of overlay networks.

Computes the edge-removal, path-disjoint, and flow connectivity of an
overlay graph over an underlying graph and routing scheme, constructs
sparse 2-survivable overlays greedily, and generates reduction gadgets as
verifiable test corpora.

``import deepconn`` loads no submodule: each name of ``__all__`` is imported
from its home module the first time it is read (PEP 562).
"""

import sys

_HOMES = {
    "errors": (
        "BudgetExceededError", "DeepConnError", "FormatError", "PreconditionError",
        "ValidationError",
    ),
    "fdc": ("FlowResult", "fdc_pair", "separation_oracle"),
    "gadgets": (
        "GadgetOutput", "SetSystem", "build_hamiltonian_reduction",
        "build_spddc_reduction", "encode_set_system", "random_instance",
    ),
    "model": (
        "Instance", "build_instance", "edge_key", "enumerate_simple_paths",
        "is_simple_concatenation", "parse_instance", "route_image", "serialize_instance",
    ),
    "oracles": (
        "CutCertificate", "PathPacking", "all_pairs", "erdc_pair", "pair_parameter",
        "pddc_pair", "spddc_pair",
    ),
    "simplex": (),
    "sparsifier": (
        "AugmentationState", "check_precondition", "compute_kappa", "delta",
        "greedy_augment", "sparsify", "sparsified_instance", "special_case_construct",
        "star_tree",
    ),
}
# Public name -> home submodule; each submodule is its own home.
_HOME = {name: module for module, names in _HOMES.items() for name in (module, *names)}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """The public ``name`` from its home module, imported on first use.

    Nothing is stored in the package's namespace, so every read sees the
    home module's current binding.  ``__import__`` takes the import
    statement's path, which ``python -X importtime`` logs, where
    ``importlib.import_module`` would not.
    """
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    return module if home == name else getattr(module, name)
