"""The two compiled scipy extensions graphforecast calls, loaded without scipy's packages.

The pipeline needs scipy's bundled HiGHS binding (scipy.optimize._highspy._core)
and one BLAS routine (dtrsm, in scipy.linalg._fblas).  Importing them through
scipy.optimize or scipy.linalg runs package __init__s that import nearly all
of scipy, several times the start-up cost of numpy itself.  ``load`` finds
the extension file in scipy's directory and loads it under its own name,
registered in sys.modules, so a later ``import scipy.optimize`` reuses the
same module instead of initialising the binding a second time.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType


def load(name: str) -> ModuleType:
    """The compiled module ``name`` of scipy's tree, loaded at most once.

    An entry already in sys.modules is returned as is, and a None entry
    raises ImportError, as an import statement would.
    """
    if name in sys.modules:
        module = sys.modules[name]
        if module is None:
            raise ImportError(f"import of {name} halted; None in sys.modules", name=name)
        return module
    top, *packages, leaf = name.split(".")
    root = importlib.util.find_spec(top)  # a top-level spec, so nothing is imported
    if root is None or not root.submodule_search_locations:
        raise ImportError(f"no package {top!r}", name=name)
    finder = importlib.machinery.FileFinder(
        os.path.join(root.submodule_search_locations[0], *packages),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    )
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"no compiled module {leaf!r} in {finder.path}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module
