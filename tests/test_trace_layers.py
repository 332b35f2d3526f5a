"""The names that bench/trace_layers wraps exist, and its wrappers come off.

``bench/trace_layers`` measures layers by replacing srq1's public names with
wrappers.  A refactor that deletes or renames one of them would crash every
``--trace 1`` run of the benchmark; this test fails first.  An import that
srq1 keeps only for those wrappers must name a wrapped name.
"""

import re
from pathlib import Path

import srq1

import oracles

# an import kept in srq1 only so that bench/trace_layers can wrap its names
_KEPT_FOR_TRACE = re.compile(
    r"^from \.\w+ import ([\w, ]+?)\s+# noqa: F401  \(only for bench/trace_layers\b", re.M)


def _wrapped_names(trace_layers):
    names = [(mod, attr) for mod, attr, _ in trace_layers._TARGETS + trace_layers._FACTORIES]
    return names + trace_layers._QUADS


def test_every_wrapped_name_is_patched_and_restored():
    trace_layers = oracles.bench_module("trace_layers")
    names = _wrapped_names(trace_layers)
    originals = [getattr(mod, attr) for mod, attr in names]
    with trace_layers.Tracer().installed():
        assert [getattr(mod, attr) is not orig
                for (mod, attr), orig in zip(names, originals)] == [True] * len(names)
    assert [getattr(mod, attr) is orig
            for (mod, attr), orig in zip(names, originals)] == [True] * len(names)


def test_every_import_kept_for_the_tracer_is_wrapped():
    # such an import goes once bench/trace_layers stops wrapping its name
    kept = [(f"srq1.{path.stem}", name.strip())
            for path in sorted(Path(srq1.__file__).parent.glob("*.py"))
            for names in _KEPT_FOR_TRACE.findall(path.read_text())
            for name in names.split(",")]
    assert kept == [("srq1.analysis", "quad_adaptive"),
                    ("srq1.boson", "f_b"), ("srq1.boson", "power_prefactor"),
                    ("srq1.boson", "validate_s"),
                    ("srq1.electron", "f_e"), ("srq1.electron", "power_prefactor"),
                    ("srq1.integrals", "quad_adaptive")]
    trace_layers = oracles.bench_module("trace_layers")
    wrapped = {(mod.__name__, attr) for mod, attr in _wrapped_names(trace_layers)}
    assert [name for name in kept if name not in wrapped] == []
