"""Public names: every entry of each module's ``__all__`` exists and is used."""

import ast
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


# Paper-level entry points, reached only through the library API.
ENTRY_POINTS = {
    "reduce_spec": "the paper's reductions of a monotone-cone problem to the full cone",
    "reduce_spec_inner": "the paper's R2.2/R2.4: the cumulative moves into the supremal weight",
}


def _names(node):
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _is_all(stmt):
    return isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == ["__all__"]


def _public(name):
    return not name.startswith("_")


def test_every_public_name_is_used():
    # a public name must be reachable from module-level code (the CLI's
    # ``__main__`` block, module constants) or from an entry point, through
    # the bodies of the definitions it reaches; the package re-exports, the
    # ``__all__`` lists and a definition's own body do not count.  Public
    # names are each module's ``__all__``, its other public module-level
    # definitions, and the public methods of its public classes.  The check
    # goes by name, so a use of the same name elsewhere hides an unused
    # definition: the parameters ``eps``/``M`` of ``make_log_grid`` would hide
    # properties ``Grid.eps``/``Grid.M``, and ``scipy.integrate`` a method
    # ``Weight.integrate``.
    defs, todo, public = {}, set(ENTRY_POINTS), []
    for mod in MODULES:
        public += [f"{mod.__name__}.{name}" for name in mod.__all__]
        for stmt in ast.parse(inspect.getsource(mod)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append(stmt)
                if _public(stmt.name) and stmt.name not in mod.__all__:
                    public.append(f"{mod.__name__}.{stmt.name}")
                if isinstance(stmt, ast.ClassDef) and _public(stmt.name):
                    public += [f"{mod.__name__}.{stmt.name}.{m.name}" for m in stmt.body
                               if isinstance(m, ast.FunctionDef) and _public(m.name)]
            elif not _is_all(stmt):
                todo |= _names(stmt)
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for d in defs.get(name, []):
                todo |= _names(d)
    unused = [q for q in public if q.rsplit(".", 1)[1] not in reached]
    assert not unused, unused
    stale = set(ENTRY_POINTS) - {q.rsplit(".", 1)[1] for q in public}
    assert not stale, sorted(stale)
