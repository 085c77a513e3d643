"""Lazily loaded package exports (PEP 562).

A package lists names whose modules the common path never needs; they
load on first access, so importing ``repro`` and compiling a query —
the set-up every run pays — does not compile or execute them.
"""

from importlib import import_module


def lazy_exports(module_globals: dict, table: dict):
    """A module ``__getattr__`` serving ``table``: name -> (module, attr).

    ``module`` is relative to the package owning ``module_globals``; the
    loaded value is cached in the package namespace.
    """
    package = module_globals["__name__"]

    def __getattr__(name):
        entry = table.get(name)
        if entry is None:
            raise AttributeError("module {!r} has no attribute {!r}"
                                 .format(package, name))
        value = getattr(import_module(entry[0], package), entry[1])
        module_globals[name] = value
        return value

    return __getattr__
