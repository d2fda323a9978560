"""PEP 562 lazy re-exports for the package ``__init__`` modules."""

import importlib


def lazy_exports(namespace, exports):
    """``(__getattr__, __dir__)`` for a package that re-exports lazily.

    *exports* maps each public name to the module that defines it.  The
    first access imports that module and caches the value in
    *namespace*, the package's ``globals()``, so importing the package
    imports none of them.
    """

    def __getattr__(name):
        module_name = exports.get(name)
        if module_name is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module_name), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
