"""One lazy export table per package (PEP 562).

A package lists its public names in an ``_EXPORTS`` table, name → the
module that defines it, and hands the table to :func:`lazy_exports`::

    _EXPORTS = {"GARun": "ga", "canonical_events": ".obs.events"}
    __all__ = sorted(_EXPORTS)
    __getattr__ = lazy_exports(__name__, _EXPORTS, eager=("ga",))

Module names are relative to the package, as in a relative import:
``"ga"`` is the package's own submodule, ``".obs.events"`` is
``repro.obs.events``.  ``from package import X`` then loads only the
module that defines ``X``, on first access, and binds ``X`` in the
package so the next access is a plain attribute read.

The rule for *eager* is "what every caller runs": a module that each
importer of the package executes anyway is loaded with the package, and
the rest only when a caller names one of their exports.
"""

import sys
from importlib import import_module
from typing import Callable, Dict, Iterable


def lazy_exports(
    package: str, exports: Dict[str, str], eager: Iterable[str] = ()
) -> Callable[[str], object]:
    """Bind the names *eager* modules define now; return the package's
    ``__getattr__``, which imports the module defining any other name in
    *exports* on first access and raises ``AttributeError`` for the rest."""
    namespace = vars(sys.modules[package])

    def resolve(name: str) -> object:
        value = getattr(import_module(f".{exports[name]}", package), name)
        namespace[name] = value
        return value

    eager = set(eager)
    for name, module in exports.items():
        if module in eager:
            resolve(name)

    def __getattr__(name: str) -> object:
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return resolve(name)

    return __getattr__
