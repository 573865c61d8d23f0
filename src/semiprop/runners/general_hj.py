"""Runners of the ``general-hj`` checks: decoupling, the exponential family
and the hbar scaling of Im S."""

from __future__ import annotations

from ..core import SpacetimeGrid
from ..general_hj import (
    X_EDGE,
    GeneralAnsatz,
    _exponential_parameters,
    cos_log_family,
    decoupling_residual,
    exponential_family_residuals,
    imaginary_scaling_probe,
)
from ..report import _refuse, roundoff
from . import _LOG_MAX


def _run_general_decoupling(params: dict, seed: int, hold) -> tuple:
    ansatz = cos_log_family(**params)
    grid = SpacetimeGrid(
        x_min=-X_EDGE, x_max=X_EDGE, n_x=65, t_min=0.0, t_max=1.0, n_t=33
    )
    res = decoupling_residual(ansatz, grid)
    # c2 = 0, or an hbar c2^2 that underflows, leaves a residual that cannot fail
    if res.largest == 0:
        _refuse(params, ("c2", "hbar"), "every decoupling term, a multiple of hbar c2^2, is 0")
    # over 2,592 cases (c2, c3, mass, hbar from 1e-3 to 1e20) a correct residual
    # read up to 3.57 epsilons times its largest term, so 4 of them must stay below
    hold("decoupling-residual", roundoff(res.largest, "the decoupling terms", ("c2", "c3", "hbar")))
    return {"decoupling-residual": res.max_abs()}, None, {}


def _run_general_exponential(params: dict, seed: int, hold) -> tuple:
    a, b, growth = _exponential_parameters(**params)
    res = exponential_family_residuals(**params)
    # (dS/dx)^2 / (2m) = -A e^(bx) and V = A e^(bx) cancel; each reaches
    # A e^(|b| X_EDGE) on the grid, whatever the mass
    hj = roundoff(2.0 * a * growth, "two Hamilton-Jacobi terms together", ("amplitude", "slope"))
    hold("hamilton-jacobi", hj)
    # 2m dR/dt and i hbar (b/4)^2 cancel; each is hbar b^2 / 16
    terms = params["hbar"] * (b * b) / 8.0
    hold("decoupling-residual", roundoff(terms, "two decoupling terms together", ("hbar", "slope")))
    values = {"hamilton-jacobi": res["hamilton_jacobi"], "decoupling-residual": res["decoupling"]}
    return values, None, {}


def _run_general_hbar_slope(params: dict, seed: int, hold) -> tuple:
    curvature = params["curvature"]
    # R = -curvature x^2 on [-2, 2]; the action takes exp(-2R) and exp(2R)
    if not 8.0 * abs(curvature) < _LOG_MAX:
        _refuse(params, ("curvature",), "exp(8 |curvature|), the largest exp(2|R|), overflows")
    grid = SpacetimeGrid(
        x_min=-2.0, x_max=2.0, n_x=81, t_min=0.0, t_max=1.0, n_t=5
    )
    ansatz = GeneralAnsatz(
        R=lambda x, t: -curvature * x**2 + 0.0 * t, mass=params["mass"]
    )
    report = imaginary_scaling_probe(ansatz, params["hbars"], grid)
    if report.vacuous:
        _refuse(params, ("curvature",), "Im S vanishes identically; its slope in hbar is undefined")
    return {"imaginary-slope": report.slope}, None, {}
