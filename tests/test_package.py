"""The package entry: a lazy public surface that matches the eager one it replaced."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import deepconn

# deepconn.__all__: the 38 API names and the 7 submodules they come from,
# in dir() order.  It is the surface the eager package entry had, with the
# cut and packing checks in place of their certificate classes.
PUBLIC = [
    "AugmentationState", "BudgetExceededError", "DeepConnError", "FlowResult",
    "FormatError", "GadgetOutput", "Instance", "PreconditionError", "SetSystem",
    "ValidationError", "all_pairs", "build_hamiltonian_reduction", "build_instance",
    "build_spddc_reduction", "check_cut", "check_packing", "check_precondition",
    "compute_kappa", "delta", "edge_key", "encode_set_system", "enumerate_simple_paths",
    "erdc_pair", "errors", "fdc", "fdc_pair", "gadgets", "greedy_augment",
    "is_simple_concatenation", "model", "oracles", "pair_parameter", "parse_instance",
    "pddc_pair", "random_instance", "route_image", "separation_oracle",
    "serialize_instance", "simplex", "sparsified_instance", "sparsifier", "sparsify",
    "spddc_pair", "special_case_construct", "star_tree",
]
# The module each API name was bound from.
HOMES = {
    "errors": "BudgetExceededError DeepConnError FormatError PreconditionError ValidationError",
    "fdc": "FlowResult fdc_pair separation_oracle",
    "gadgets": "GadgetOutput SetSystem build_hamiltonian_reduction build_spddc_reduction "
    "encode_set_system random_instance",
    "model": "Instance build_instance edge_key enumerate_simple_paths "
    "is_simple_concatenation parse_instance route_image serialize_instance",
    "oracles": "all_pairs check_cut check_packing erdc_pair pair_parameter pddc_pair "
    "spddc_pair",
    "sparsifier": "AugmentationState check_precondition compute_kappa delta greedy_augment "
    "sparsified_instance sparsify special_case_construct star_tree",
}
SUBMODULES = ["errors", "fdc", "gadgets", "model", "oracles", "simplex", "sparsifier"]


def fresh(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports this checkout."""
    src = str(Path(deepconn.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
        check=True,
    )
    return proc.stdout


def test_all_is_the_eager_surface():
    assert deepconn.__all__ == PUBLIC
    api = [name for names in HOMES.values() for name in names.split()]
    assert sorted(api + SUBMODULES) == PUBLIC and len(api) == 38


def test_each_name_is_its_home_binding_and_is_not_cached():
    for home, names in HOMES.items():
        module = importlib.import_module(f"deepconn.{home}")
        for name in names.split():
            assert getattr(deepconn, name) is getattr(module, name), name
            assert name not in vars(deepconn), name
    for name in SUBMODULES:
        assert getattr(deepconn, name) is importlib.import_module(f"deepconn.{name}")


def test_star_import_binds_every_name():
    code = (
        "import json; ns = {}; exec('from deepconn import *', ns); "
        "print(json.dumps(sorted(k for k in ns if k != '__builtins__')))"
    )
    assert json.loads(fresh(code)) == PUBLIC


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'deepconn' has no attribute 'nope'"):
        deepconn.nope


def test_bare_import_loads_no_submodule():
    code = "import sys, deepconn; print(sorted(m for m in sys.modules if m.startswith('deepconn')))"
    assert fresh(code).split() == ["['deepconn']"]


def test_fixtures_subpackage_still_imports():
    code = "from deepconn import fixtures; print(len(fixtures.fig1().peers))"
    assert fresh(code).split() == ["8"]
