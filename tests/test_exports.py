"""Every exported name resolves, so star imports keep working.

A name left in an ``__all__`` after its definition is deleted breaks
``from cmwitness import *`` while every direct import still passes.
"""

import importlib
import pkgutil

import cmwitness

MODULES = [cmwitness] + [
    importlib.import_module("cmwitness." + info.name)
    for info in pkgutil.iter_modules(cmwitness.__path__)
]


def test_every_exported_name_resolves():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def test_star_imports():
    for module in MODULES:
        namespace = {}
        exec("from %s import *" % module.__name__, namespace)
        assert set(getattr(module, "__all__", ())) <= set(namespace)
