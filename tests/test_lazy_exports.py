"""Every package with a lazy export table keeps its public surface.

Each package lists its public names in ``_EXPORTS`` (name → defining
module, :mod:`repro._lazy`).  The table is the package's ``__all__``,
every name resolves to the object its defining module holds, the
package's submodules stay importable by ``from package import module``,
and a name outside the table raises ``AttributeError`` naming the package.
"""

import importlib
import re

import pytest

LAZY_PACKAGES = [
    "repro.analysis",
    "repro.core",
    "repro.domains",
    "repro.exp",
    "repro.faults",
    "repro.grid",
    "repro.obs",
    "repro.planning",
    "repro.planning.search",
    "repro.scheduling",
    "repro.service",
]


def defining_module(package: str, module: str):
    return importlib.import_module(f".{module}", package)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_export_table(package):
    pkg = importlib.import_module(package)
    exports = pkg._EXPORTS
    assert pkg.__all__ == sorted(exports)

    # Import every defining module first: a submodule import must not
    # rebind an exported name of the package.
    modules = {module: defining_module(package, module) for module in set(exports.values())}
    for name, module in exports.items():
        assert getattr(pkg, name) is getattr(modules[module], name), name

    for module in set(exports.values()) - set(exports):
        if module.startswith("."):
            continue  # defined in another package
        namespace = {}
        exec(f"from {package} import {module}", namespace)
        assert namespace[module] is modules[module]

    message = f"module '{package}' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=re.escape(message)):
        getattr(pkg, "no_such_name")
