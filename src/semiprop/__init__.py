"""semiprop: numerical certification of semiclassical propagator constructions.

The package builds propagators K = exp(R + i S / hbar) from closed-form
or numerically integrated factors and checks every identity they are
claimed to satisfy: Hamilton-Jacobi and transport equations, Schrodinger
residuals against an independent grid evolver, Van Vleck prefactor
identification, minisuperspace constraint dynamics, complex-action
cosmology relations, and lattice functional Hamilton-Jacobi identities.

Importing the package runs ``core`` only.  The five scenario modules are
bound lazily: each one is entered in ``sys.modules`` (and as an attribute
here) at once, but its body runs at the first attribute access or import
that needs it, so a process pays only for the scenarios it uses.  Being in
``sys.modules`` from the start, they are also among the modules a caller
finds there, such as the benchmark's layer tracer, which rewires every
loaded ``semiprop`` module.
"""

__version__ = "0.1.0"

import importlib.util as _util
import sys as _sys

from .core import (
    ComplexField,
    PropagatorFactors,
    SpacetimeGrid,
    SpatialGrid,
    assemble_propagator,
    finite_difference,
)

__all__ = [
    "__version__",
    "ComplexField",
    "PropagatorFactors",
    "SpacetimeGrid",
    "SpatialGrid",
    "assemble_propagator",
    "finite_difference",
]

_SCENARIO_MODULES = ("cosmo", "general_hj", "lattice", "oracle", "quadratic")


def _bind_lazily(name: str) -> None:
    spec = _util.find_spec("{}.{}".format(__name__, name))
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in _SCENARIO_MODULES:
    _bind_lazily(_name)
del _name
