"""The package surface as a table: exports resolved on first access.

Every ``repro`` package declares ``{".submodule": ("Name", ...)}`` and
binds the two PEP 562 hooks this module builds from it, so importing a
package costs its table and nothing else: ``from repro.harness import
SimPlatform`` imports ``harness/platform.py`` (and what *it* imports),
not the sixteen other drivers.  A resolved object is stored in the
package's globals, so the hook runs once per name and per process.
This module imports no ``typing`` on purpose: that alone is 10 ms, as
much as the interpreter.
"""

from __future__ import annotations

from importlib import import_module


def lazy_exports(namespace: dict[str, object],
                 exports: dict[str, tuple[str, ...]]) -> tuple:
    """``(__getattr__, __dir__)`` for the package whose ``globals()`` is
    ``namespace``: each name in ``exports`` is the attribute of that
    name of the (relative) submodule it is listed under."""
    package = namespace["__name__"]
    origin = {name: submodule
              for submodule, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(origin[name], package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
