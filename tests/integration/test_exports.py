"""Every package's lazy exports resolve to the objects their defining
submodules hold.

The packages export their names lazily (``repro._lazy``), and loading
a submodule binds it on its package under its own name.  With every
submodule imported, each ``__all__`` name must still be the defining
submodule's object: a submodule bound over an export of the same name
(``repro.graph.condensation``), or a misspelt table entry, fails here.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ALL_MODULES = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not info.name.endswith(".__main__")
]
PACKAGES = [name for name in ALL_MODULES
            if hasattr(importlib.import_module(name), "__path__")]


@pytest.fixture(scope="module", autouse=True)
def import_everything():
    for name in ALL_MODULES:
        importlib.import_module(name)


def _modules_under(package):
    prefix = package + "."
    return [module for name, module in list(sys.modules.items())
            if name.startswith(prefix) and module is not None]


def test_walk_finds_every_package():
    assert {"repro", "repro.core", "repro.graph", "repro.machine.models",
            "repro.obs", "repro.trace"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_are_the_defining_objects(package):
    pkg = sys.modules[package]
    assert pkg.__all__, package
    assert len(set(pkg.__all__)) == len(pkg.__all__), "duplicate export"
    for name in pkg.__all__:
        value = getattr(pkg, name)
        if name == "__version__":
            continue
        where = f"{package}.{name}"
        if inspect.ismodule(value):
            # a submodule exported as itself, and no submodule defines
            # a non-module value of that name it should have been
            assert value.__name__ == where
            holders = [m.__name__ for m in _modules_under(package)
                       if not inspect.ismodule(vars(m).get(name, value))]
            assert not holders, f"{where} is a module, but {holders} " \
                                f"define {name!r}"
        else:
            holders = [m for m in _modules_under(package)
                       if vars(m).get(name) is value
                       and not hasattr(m, "__path__")]
            assert holders, f"no submodule of {package} holds {where}"


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_every_export(package):
    pkg = sys.modules[package]
    assert set(pkg.__all__) <= set(dir(pkg))


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_export(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    pkg = sys.modules[package]
    for name in pkg.__all__:
        assert namespace[name] is getattr(pkg, name), name


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_is_an_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(sys.modules[package], "no_such_export")


def test_submodules_read_as_attributes_in_a_fresh_process():
    # after a bare ``import repro`` nothing below it is loaded, yet
    # every submodule still reads as a package attribute
    code = (
        "import repro\n"
        "assert repro.analysis.hunting.HuntConfig is not None\n"
        "assert repro.core.hb1.HappensBefore1 is not None\n"
        "assert repro.graph.condensation.__module__ == "
        "'repro.graph.condensation'\n"
        "assert repro.obs.server.__name__ == 'repro.obs.server'\n"
        "assert not hasattr(repro, 'no_such_module')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1])),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
