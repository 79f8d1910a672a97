"""Lazy package exports (PEP 562).

Every ``repro`` package declares its public names once, in a table
from submodule to names, and imports a submodule only when one of its
names is first read.  A process then loads only the modules it uses:
``import repro`` costs two small modules, not the whole library.
"""

import sys
from typing import Dict, List


def _load(name: str):
    # __import__, not importlib.import_module: it takes the
    # interpreter's own import path, which ``python -X importtime``
    # reports.
    __import__(name)
    return sys.modules[name]


def lazy_exports(namespace: dict, table: Dict[str, str]) -> List[str]:
    """Install lazy exports in a package and return its export names.

    *namespace* is the package's ``globals()``; *table* maps each
    submodule (relative name) to the space-separated names it exports
    through the package.  The key ``"."`` lists submodules exported as
    themselves.  The package gains ``__getattr__`` and ``__dir__``; a
    name read once is bound in the namespace, so later reads are plain
    attribute hits.

    A name that is also a submodule (``repro.graph.condensation``) is
    bound at once: importing the submodule later would otherwise bind
    the module over the lazy name.  Any other submodule reads as an
    attribute too (``repro.core`` after ``import repro``), imported on
    that read.
    """
    package = namespace["__name__"]
    origin = {name: sub for sub, names in table.items()
              for name in names.split()}

    def __getattr__(name: str):
        sub = origin.get(name)
        if sub is None or sub == ".":
            # A submodule, exported as itself or not: it reads as an
            # attribute, as when every package init imported them all.
            # Importing it binds it on the package.
            try:
                return _load(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if sub or exc.name != f"{package}.{name}":
                    raise
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(_load(f"{package}.{sub}"), name)
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *origin})

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    for name in origin:
        if name in table:
            __getattr__(name)
    return list(origin)
