"""Runner of the ``oracle`` check: the kernel route against Crank-Nicolson."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np

from ..core import SpacetimeGrid, SpatialGrid, step_count
from ..oracle import cn_evolve, gaussian_state, kernel_propagate, l2_difference
from ..quadratic import QuadraticPotential, free_particle_factors, harmonic_factors
from ..report import Measured
from . import _refusing


def _run_oracle_kernel(params: dict, seed: int, hold) -> tuple:
    family = params["family"]
    dt = params["dt"]
    target = 1.0 if family == "free" else math.pi / 2.0
    n_steps = _refusing(params, ("dt",), step_count, target, dt)
    # the step that lands Crank-Nicolson on the kernel's target time
    step = target / n_steps
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if family == "free":
            grid = SpatialGrid(-12.0, 12.0, params["n_x"])
            psi0 = gaussian_state(grid, sigma0=1.0)
            span = SpacetimeGrid(
                x_min=-12.0, x_max=12.0, n_x=params["n_x"],
                t_min=0.05, t_max=1.5, n_t=8,
            )
            factors = free_particle_factors(span, mass=1.0)
            via_cn = cn_evolve(psi0, 0.0, dt=step, n_steps=n_steps)
        else:
            grid = SpatialGrid(-6.0, 6.0, params["n_x"])
            psi0 = gaussian_state(grid, sigma0=1.0 / math.sqrt(2.0), x_center=1.0)
            span = SpacetimeGrid(
                x_min=-6.0, x_max=6.0, n_x=params["n_x"],
                t_min=0.05, t_max=2.0, n_t=8,
            )
            factors = harmonic_factors(span, mass=1.0, omega=1.0)
            via_cn = cn_evolve(psi0, QuadraticPotential(g2=0.5), dt=step, n_steps=n_steps)
        via_kernel = kernel_propagate(psi0, factors, target, reference_time=1e-2)
    perturbed = replace(via_kernel, psi=via_kernel.psi * np.exp(0.01 * psi0.grid.x**2))
    notes = "; ".join(str(w.message) for w in caught)
    values = {
        "kernel-vs-grid": Measured(l2_difference(via_kernel, via_cn), notes),
        "perturbed-kernel-separation": l2_difference(perturbed, via_cn),
    }
    return values, None, {}
