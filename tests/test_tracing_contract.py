"""The library keeps the contract of the benchmark's tracer.

``dcbench/tracing.py`` wraps the public functions of six library modules
and patches every binding of each.  It fails a traced run if a name it
requires is gone, and a binding it cannot restore would leak its wrapper
into later runs.  This test loads the tracer by path, as the benchmark
does, and checks both on the current library.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from deepconn import oracles

TRACING = Path(__file__).resolve().parent.parent / "dcbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("dcbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every module attribute, dict value and class attribute of the loaded
    deepconn modules: all that the tracer may patch."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "deepconn" or name.startswith("deepconn."):
            for attr, obj in vars(module).items():
                out[(name, attr)] = obj
                if isinstance(obj, dict):
                    out.update({(name, attr, k): v for k, v in obj.items()})
                if isinstance(obj, type):
                    out.update({(name, attr, k): v for k, v in vars(obj).items()})
    return out


def test_tracer_finds_every_required_name_and_restores_every_binding():
    tracing = _load_tracing()
    for layer in tracing.LAYERS:
        importlib.import_module(f"deepconn.{layer}")
    before = _bindings()
    with tracing.Tracer():  # raises LookupError if a required name is gone
        during = _bindings()
        patched = {k for k in before if during[k] is not before[k]}
        assert ("deepconn.oracles", "_PAIR_OPS", "erdc") in patched
        for name in ("check_cut", "check_packing", "erdc_pair"):
            assert getattr(oracles, name).__wrapped__ is before[("deepconn.oracles", name)]
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
