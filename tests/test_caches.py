"""Every functools cache in the package has a bound, so a long run of
many problems cannot grow one without limit.

The scan below sees only functools caches.  Three kinds of store on a
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

import importlib
import inspect
import pkgutil

import quivercount


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
    for name in ("quivercount.quiver.gl_order_poly",
                 "quivercount.counting.gaussian_binomial",
                 "quivercount.rep._catalog"):
        assert name in found
    unbounded = sorted(name for name, fn in found.items()
                       if fn.cache_parameters()["maxsize"] is None)
    assert unbounded == []
