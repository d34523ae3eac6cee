"""Public names: every entry of each module's ``__all__`` exists and is used;
and every name a module imports is read in it."""

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
    "dual": "the paper's t -> 1/t substitution behind every mirror pair; the mirror tests "
            "in test_acceptance.py and ROADMAP item 3 use it",
}


def _names(node):
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _is_all(stmt):
    return isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == ["__all__"]


def _public(name):
    return not name.startswith("_")


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _methods(cls):
    """A class's methods but its dunders, which are reached with the class."""
    return [m for m in cls.body if isinstance(m, ast.FunctionDef) and not _dunder(m.name)]


def _class_names(cls):
    """The names a class uses outside its non-dunder methods: its bases,
    decorators, fields and dunder methods."""
    methods = {id(m) for m in _methods(cls)}
    parts = [*cls.bases, *cls.keywords, *cls.decorator_list,
             *(s for s in cls.body if id(s) not in methods)]
    return set().union(*map(_names, parts))


def test_every_public_name_is_used():
    # a public name must be reachable from module-level code (the CLI's
    # ``__main__`` block, module constants) or from an entry point, through
    # the bodies of the definitions it reaches; the package re-exports, the
    # ``__all__`` lists and a definition's own body do not count.  A class
    # brings its bases, fields and dunder methods; each other method is a
    # definition of its own, reached by its name.  Public names are each
    # module's ``__all__``, its other public module-level definitions, and
    # the public methods of its public classes.  The check goes by name, so a
    # use of the same name elsewhere hides an unused definition: the
    # parameters ``eps``/``M`` of ``make_log_grid`` would hide properties
    # ``Grid.eps``/``Grid.M``, and ``scipy.integrate`` a method
    # ``Weight.integrate``.
    uses, todo, public = {}, set(ENTRY_POINTS), []
    for mod in MODULES:
        public += [f"{mod.__name__}.{name}" for name in mod.__all__]
        for stmt in ast.parse(inspect.getsource(mod)).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if not _is_all(stmt):
                    todo |= _names(stmt)
                continue
            if _public(stmt.name) and stmt.name not in mod.__all__:
                public.append(f"{mod.__name__}.{stmt.name}")
            if isinstance(stmt, ast.FunctionDef):
                uses.setdefault(stmt.name, []).append(_names(stmt))
                continue
            uses.setdefault(stmt.name, []).append(_class_names(stmt))
            for m in _methods(stmt):
                uses.setdefault(m.name, []).append(_names(m))
                if _public(stmt.name) and _public(m.name):
                    public.append(f"{mod.__name__}.{stmt.name}.{m.name}")
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for names in uses.get(name, []):
                todo |= names
    unused = [q for q in public if q.rsplit(".", 1)[1] not in reached]
    assert not unused, unused
    stale = set(ENTRY_POINTS) - {q.rsplit(".", 1)[1] for q in public}
    assert not stale, sorted(stale)


def test_every_import_is_read():
    # an imported name its module never reads is a leftover of a move or a
    # deletion; the package ``__init__`` imports to re-export and is not in
    # MODULES.  ``import a.b`` binds ``a``.
    unused = []
    for mod in MODULES:
        tree = ast.parse(inspect.getsource(mod))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{mod.__name__}.{bound}" for alias in node.names
                           if (bound := alias.asname or alias.name.split(".")[0]) not in read]
    assert not unused, unused
