"""The library names that the benchmark tracer binds.

``perfbench/tracer.py`` wraps library functions by name, with ``getattr``
and no default, so a function renamed or removed from the library breaks a
traced benchmark run (``perfbench/run.py --trace 1``) and nothing else.
"""

import importlib
import importlib.util
import os
import sys

from endolab import homs, lab

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def _tracer(monkeypatch):
    """perfbench/tracer.py as a module, loaded without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_is_a_library_function(monkeypatch):
    layers = _tracer(monkeypatch).LAYERS
    missing = [
        f"{layer}.{name}" for layer, names in layers.items() for name in names
        if not callable(getattr(importlib.import_module(f"endolab.{layer}"), name, None))
    ]
    assert "hom_group" in layers["homs"] and missing == []


def test_the_tables_and_methods_the_tracer_wraps_exist():
    assert callable(homs.HomGroup.coords_of)
    assert callable(lab.check_direct_sum_family)
    for table in (lab.PROPERTY_FUNCS, lab.MEMBER_CHECKS):
        assert table and all(isinstance(name, str) and callable(fn) for name, fn in table)
