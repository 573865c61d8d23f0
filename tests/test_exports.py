"""Every name a semiprop module exports resolves.

A function deleted from a module but left in its ``__all__`` breaks
``from semiprop.<module> import *`` only when someone writes that import;
these tests make it fail here first.
"""

import importlib
import pkgutil

import pytest

import semiprop

import fresh

MODULES = ["semiprop"] + [
    "semiprop." + info.name for info in pkgutil.iter_modules(semiprop.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, "{} exports missing names {}".format(name, missing)


def test_star_imports_succeed_in_a_fresh_interpreter():
    for name in MODULES:
        done = fresh.run("from {} import *".format(name))
        assert done.returncode == 0, done.stderr
