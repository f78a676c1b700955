"""Every functools cache in the package has a bound, so a long run of
many problems cannot grow one without limit.

The first scan below sees only functools caches.  The second fails on a
hand-rolled global store: a module-level name in the package bound to an
empty {}, [], set(), dict() or list().  Three kinds of store on a
RepSpace are plain dicts, each with its own bound and test in
tests/test_rep.py:

* the action-table stores, one per arrow, bounded by
  rep.MAX_TABLE_ENTRIES (test_action_table_store_is_bounded);
* the image-set stores, one per node of a record tree of
  enumerate_subreps, bounded by rep.MAX_IMAGE_SETS
  (test_image_set_store_is_bounded);
* the record trees of enumerate_subreps, one per admissible set,
  bounded by rep.MAX_RECORD_TREES (test_record_trees_are_bounded).
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import quivercount

PACKAGE = Path(quivercount.__file__).resolve().parent
EMPTY_STORES = {"{}", "[]", "set()", "dict()", "list()"}


def cached_functions():
    """Name and wrapper of every functools cache defined at module level
    or in a class of a quivercount module."""
    found = {}
    for info in pkgutil.iter_modules(quivercount.__path__):
        module = importlib.import_module(f"quivercount.{info.name}")
        owners = [module] + [
            cls for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__]
        for owner in owners:
            for obj in vars(owner).values():
                obj = getattr(obj, "__func__", obj)
                if hasattr(obj, "cache_parameters"):
                    found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def test_every_lru_cache_is_bounded():
    found = cached_functions()
    # the scan sees the caches it is meant to check
    for name in ("quivercount.ffield.field_table",
                 "quivercount.quiver.gl_order_poly",
                 "quivercount.counting.gaussian_binomial",
                 "quivercount.rep._catalog"):
        assert name in found
    unbounded = sorted(name for name, fn in found.items()
                       if fn.cache_parameters()["maxsize"] is None)
    assert unbounded == []


def empty_globals(source):
    """The module-level names that ``source`` binds to an empty store."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if ast.unparse(node.value) in EMPTY_STORES:
            names += [ast.unparse(t) for t in targets]
    return names


def test_the_global_store_scan_on_a_snippet():
    source = ("_CACHE = {}\nSEEN: set = set()\nA = B = []\nD = dict()\n"
              "E = list()\nLIMIT = 4\nNAMES = ('a',)\nFULL = {1: 2}\n"
              "def f():\n    local = {}\n"
              "class C:\n    table = {}\n")
    assert empty_globals(source) == ["_CACHE", "SEEN", "A", "B", "D", "E"]


def test_no_module_keeps_a_hand_rolled_global_store():
    found = {path.name: empty_globals(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert "ffield.py" in found  # the scan reads the package's sources
    assert {name: names for name, names in found.items() if names} == {}
