"""A second import of the package is freed once it leaves sys.modules."""

import gc
import importlib
import pkgutil
import sys
import types
import weakref

import leibkit


def _own(name):
    return name == "leibkit" or name.startswith("leibkit.")


def _refs(module):
    """Weak references to a module and to every function and class it
    defines; a live function keeps the module's globals alive."""
    return [weakref.ref(module)] + [
        weakref.ref(v) for v in vars(module).values()
        if isinstance(v, (type, types.FunctionType))
        and v.__module__ == module.__name__]


def test_fresh_import_leaves_no_copy_alive():
    # a process that imports leibkit afresh, as a benchmark set-up does,
    # holds one copy of it: no process-wide cache (typing's, which keeps
    # Optional[X] for every annotation written so) holds a class of a
    # copy it has dropped, or through its functions' globals the copy
    names = ["leibkit." + m.name for m in pkgutil.iter_modules(leibkit.__path__)]
    assert len(names) == 10
    saved = {k: v for k, v in sys.modules.items() if _own(k)}
    try:
        for k in saved:
            del sys.modules[k]
        fresh = [r for m in names for r in _refs(importlib.import_module(m))]
    finally:
        for k in [k for k in sys.modules if _own(k)]:
            del sys.modules[k]
        sys.modules.update(saved)
    assert len(fresh) > 100
    gc.collect()
    alive = [r() for r in fresh if r() is not None]
    assert [getattr(x, "__qualname__", x) for x in alive] == []
