"""Runners of the ``quadratic`` checks: closed-form identities, Van Vleck,
prefactor ODEs and the Schrodinger stencil order."""

from __future__ import annotations

import numpy as np

from ..core import ComplexField, LazyPropagator, SpacetimeGrid, assemble_propagator
from ..quadratic import (
    PREFACTOR_CASES,
    QuadraticPotential,
    _free_reach,
    _harmonic_reach,
    free_particle_factors,
    free_particle_identity_residuals,
    harmonic_factors,
    harmonic_identity_residuals,
    prefactor_error,
    solve_prefactor_odes,
    van_vleck_check,
)
from ..report import _CsvRows, _refuse, build_convergence_rows, last_order, roundoff
from . import _refusing

PROPAGATOR_HEADER = ["x", "t", "re_K", "im_K", "re_R", "im_R", "re_S", "im_S"]


def _quadratic_factors(grid: SpacetimeGrid, params: dict):
    # van-vleck takes no x0: it differences the two-point action over x0 itself
    x0 = params.get("x0", 0.0)
    if params["family"] == "free":
        return free_particle_factors(grid, mass=params["mass"], x0=x0)
    return harmonic_factors(grid, mass=params["mass"], omega=params["omega"], x0=x0)


def _run_quadratic_hj(params: dict, seed: int, hold) -> tuple:
    grid = SpacetimeGrid(
        x_min=-4.0, x_max=4.0, n_x=257, t_min=0.5, t_max=2.0, n_t=129
    )
    mass, x0 = params["mass"], params["x0"]
    if params["family"] == "free":
        res = free_particle_identity_residuals(grid, mass=mass, x0=x0)
        reach, names = _free_reach(grid, x0), ("mass", "x0")
    else:
        omega = params["omega"]
        res = harmonic_identity_residuals(grid, mass=mass, omega=omega, x0=x0)
        reach, names = _harmonic_reach(grid, omega, x0), ("mass", "omega", "x0")
    # the largest Hamilton-Jacobi term is m reach^2 / 2, where reach bounds
    # |dS/dx| / m on the grid; on this grid it also bounds the consistency terms
    floor = roundoff(mass * reach * reach / 2.0, "the Hamilton-Jacobi terms", names)
    hold("hamilton-jacobi", floor)
    return {"hamilton-jacobi": res["hamilton_jacobi"], "consistency": res["consistency"]}, None, {}


def _run_quadratic_van_vleck(params: dict, seed: int, hold) -> tuple:
    grid = SpacetimeGrid(
        x_min=-3.0, x_max=3.0, n_x=49, t_min=0.4, t_max=1.2, n_t=25
    )
    factors = _quadratic_factors(grid, params)
    report = van_vleck_check(factors, grid, np.linspace(-1.0, 1.0, 9))
    return {"van-vleck-deviation": report.deviation}, None, {}


def _run_quadratic_prefactor(params: dict, seed: int, hold) -> tuple:
    family = params["family"]
    pot, init, window, t0 = PREFACTOR_CASES[family]
    # every refusal of the user's step names it; the window and t0 are fixed
    sol = _refusing(params, ("step",), solve_prefactor_odes, pot, init, window, params["step"], t0)
    values = {"closed-form-deviation": prefactor_error(family, sol)}
    steps = [0.02, 0.01, 0.005, 0.0025]
    errors = [
        prefactor_error(
            family, solve_prefactor_odes(pot, init, window, h, t0=t0)
        )
        for h in steps
    ]
    rows = build_convergence_rows(steps, errors)
    values["observed-order"] = last_order(rows)
    return values, rows, {}


def _propagator_rows(factors, propagator: ComplexField) -> _CsvRows:
    """Rows (x, t, K, R, S) at every node, time-major.

    K is ``propagator``, the field ``assemble_propagator`` built from
    ``factors``; R and S are sampled on its grid.
    """
    grid = propagator.grid
    x, times = grid.x, grid.t
    fields = (propagator, *(ComplexField.from_callable(grid, f) for f in (factors.R, factors.S)))
    k, r, s = (field.values.T.ravel() for field in fields)
    return _CsvRows(
        np.tile(x, times.size), np.repeat(times, x.size),
        k.real, k.imag, r.real, r.imag, s.real, s.imag,
    )


def _run_quadratic_schrodinger(params: dict, seed: int, hold) -> tuple:
    # the oracle's residual; imported here, so that the other quadratic checks
    # leave the oracle module unloaded
    from ..oracle import schrodinger_residual

    levels = [(129, 65), (257, 129), (513, 257)]
    spacings, residuals = [], []
    coarse = None
    names = ("mass", "x0") if params["family"] == "free" else ("mass", "omega", "x0")
    try:
        for n_x, n_t in levels:
            grid = SpacetimeGrid(
                x_min=-4.0, x_max=4.0, n_x=n_x, t_min=0.5, t_max=2.0, n_t=n_t
            )
            factors = _quadratic_factors(grid, params)
            if coarse is None:
                # the coarse K also feeds the propagator table, so it is built whole
                propagator = assemble_propagator(factors, grid)
                coarse = factors, propagator
            else:
                # the residual reads the finer K a band of columns at a time
                propagator = LazyPropagator(factors, grid)
            if params["family"] == "free":
                pot = 0.0
            else:
                m, om = params["mass"], params["omega"]
                pot = QuadraticPotential(g2=0.5 * m * om**2).value
            rel = schrodinger_residual(
                propagator, pot, hbar=factors.hbar, mass=factors.mass
            )
            spacings.append(grid.dx)
            residuals.append(rel)
    except ValueError as exc:
        # each level is set by the family's parameters alone, a K that is not
        # finite included
        _refuse(params, names, str(exc))
    rows = build_convergence_rows(spacings, residuals)
    csv = {"propagator": (PROPAGATOR_HEADER, _propagator_rows(*coarse))}
    return {"stencil-order": last_order(rows)}, rows, csv
