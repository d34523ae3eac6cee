"""Public names: every entry of each module's ``__all__`` exists."""

import importlib
import inspect
import pkgutil

import supineq

MODULES = [importlib.import_module(f"supineq.{m.name}") for m in pkgutil.iter_modules(supineq.__path__)]


def test_all_names_resolve():
    # a stale entry would otherwise fail only on ``from module import *``
    missing = [f"{mod.__name__}.{name}" for mod in MODULES for name in mod.__all__
               if not hasattr(mod, name)]
    assert not missing, missing
    # the package re-exports only names that its modules declare public
    public = set().union(*(mod.__all__ for mod in MODULES))
    reexported = {name for name, val in vars(supineq).items()
                  if not name.startswith("_") and not inspect.ismodule(val)}
    assert reexported <= public, sorted(reexported - public)
