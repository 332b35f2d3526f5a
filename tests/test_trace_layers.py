"""The names that bench/trace_layers wraps exist, and its wrappers come off.

``bench/trace_layers`` measures layers by replacing srq1's public names with
wrappers.  A refactor that deletes or renames one of them would crash every
``--trace 1`` run of the benchmark; this test fails first.
"""

import importlib.util
import sys
from pathlib import Path

_TRACE_LAYERS = Path(__file__).resolve().parent.parent / "bench" / "trace_layers.py"


def _import_trace_layers():
    # as scripts/compare_outputs.py does: leave bench/ without bytecode
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("trace_layers", _TRACE_LAYERS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_wrapped_name_is_patched_and_restored():
    trace_layers = _import_trace_layers()
    names = [(mod, attr) for mod, attr, _ in trace_layers._TARGETS + trace_layers._FACTORIES]
    names += trace_layers._QUADS
    originals = [getattr(mod, attr) for mod, attr in names]
    with trace_layers.Tracer().installed():
        assert [getattr(mod, attr) is not orig
                for (mod, attr), orig in zip(names, originals)] == [True] * len(names)
    assert [getattr(mod, attr) is orig
            for (mod, attr), orig in zip(names, originals)] == [True] * len(names)
