"""semiprop: numerical certification of semiclassical propagator constructions.

The package builds propagators K = exp(R + i S / hbar) from closed-form
or numerically integrated factors and checks every identity they are
claimed to satisfy: Hamilton-Jacobi and transport equations, Schrodinger
residuals against an independent grid evolver, Van Vleck prefactor
identification, minisuperspace constraint dynamics, complex-action
cosmology relations, and lattice functional Hamilton-Jacobi identities.
"""

__version__ = "0.1.0"

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
