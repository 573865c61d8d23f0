"""Every name a semiprop module exports resolves.

A function deleted from a module but left in its ``__all__`` breaks
``from semiprop.<module> import *`` only when someone writes that import;
these tests make it fail here first.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import semiprop

MODULES = ["semiprop"] + [
    "semiprop." + info.name for info in pkgutil.iter_modules(semiprop.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, "{} exports missing names {}".format(name, missing)


def test_star_imports_succeed_in_a_fresh_interpreter():
    path = [str(Path(semiprop.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    for name in MODULES:
        done = subprocess.run(
            [sys.executable, "-c", "from {} import *".format(name)],
            capture_output=True, text=True, env=env,
        )
        assert done.returncode == 0, done.stderr
