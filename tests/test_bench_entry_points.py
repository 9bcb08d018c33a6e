"""The names the benchmark's tracer wraps still exist in ``src/``.

``bench/layers.py:install`` resolves every :data:`ENTRY_POINTS` entry by
name when a traced benchmark child starts: a module-level function by
``getattr`` on its module, a method by ``vars(cls)[name]`` on the class
that defines it.  A refactor that deletes or moves one of those names
breaks the benchmark, not the program, so this test resolves them the
same way without installing anything.
"""

import importlib
import inspect

import pytest

from bench.layers import COUNTED_ONLY, ENTRY_POINTS

ENTRIES = [(layer, *entry[:3]) for layer, entries in ENTRY_POINTS.items()
           for entry in entries]


@pytest.mark.parametrize(
    "layer,module,attr,methods", ENTRIES,
    ids=[f"{layer}:{module}.{attr}" for layer, module, attr, _ in ENTRIES])
def test_entry_point_resolves(layer, module, attr, methods):
    target = getattr(importlib.import_module(module), attr)
    if methods is None:
        assert inspect.isfunction(target), f"{module}.{attr}"
        return
    assert inspect.isclass(target), f"{module}.{attr}"
    missing = [name for name in methods if name not in vars(target)]
    assert not missing, f"{module}.{attr} defines none of {missing}"


def test_counted_only_methods_resolve():
    missing = [f"{cls.__name__}.{name}" for cls, name, _ in COUNTED_ONLY
               if name not in vars(cls)]
    assert not missing
