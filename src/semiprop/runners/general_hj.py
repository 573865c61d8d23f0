"""Runners of the ``general-hj`` checks: decoupling, the exponential family
and the hbar scaling of Im S."""

from __future__ import annotations

import math

from ..core import SpacetimeGrid
from ..general_hj import (
    X_EDGE,
    GeneralAnsatz,
    cos_log_family,
    decoupling_residual,
    exponential_family_residuals,
    imaginary_scaling_probe,
)
from ..report import _bound, _target
from . import _LOG_MAX, RunnerOutput, _refuse_predicted, _roundoff


def _run_general_decoupling(params: dict, seed: int) -> RunnerOutput:
    ansatz = cos_log_family(
        c2=params["c2"], c3=params["c3"], c4=params["c4"],
        hbar=params["hbar"], mass=params["mass"],
    )
    grid = SpacetimeGrid(
        x_min=-X_EDGE, x_max=X_EDGE, n_x=65, t_min=0.0, t_max=1.0, n_t=33
    )
    res = decoupling_residual(ansatz, grid)
    records = [_bound("decoupling-residual", res.max_abs(), 1e-8)]
    return records, None, {}


def _run_general_exponential(params: dict, seed: int) -> RunnerOutput:
    res = exponential_family_residuals(
        amplitude=params["amplitude"], slope=params["slope"],
        hbar=params["hbar"], mass=params["mass"],
    )
    hj_tolerance, decoupling_tolerance = 1e-10, 1e-12
    # (dS/dx)^2 / (2m) = -A e^(bx) and V = A e^(bx) cancel; each reaches
    # A e^(|b| X_EDGE) on the grid, whatever the mass
    terms = 2.0 * params["amplitude"] * math.exp(abs(params["slope"]) * X_EDGE)
    _refuse_predicted(
        *_roundoff(terms, "two Hamilton-Jacobi terms together"), hj_tolerance,
        params, ("amplitude", "slope"),
    )
    # 2m dR/dt and i hbar (b/4)^2 cancel; each is hbar b^2 / 16
    terms = params["hbar"] * (params["slope"] * params["slope"]) / 8.0
    _refuse_predicted(
        *_roundoff(terms, "two decoupling terms together"), decoupling_tolerance,
        params, ("hbar", "slope"),
    )
    records = [
        _bound("hamilton-jacobi", res["hamilton_jacobi"], hj_tolerance),
        _bound("decoupling-residual", res["decoupling"], decoupling_tolerance),
    ]
    return records, None, {}


def _run_general_hbar_slope(params: dict, seed: int) -> RunnerOutput:
    curvature = params["curvature"]
    # R = -curvature x^2 on [-2, 2]; the action takes exp(-2R) and exp(2R)
    if not 8.0 * abs(curvature) < _LOG_MAX:
        raise ValueError(
            "parameter 'curvature' = {!r} overflows exp(8 |curvature|), the largest "
            "of exp(-2R) and exp(2R) on [-2, 2]".format(curvature)
        )
    grid = SpacetimeGrid(
        x_min=-2.0, x_max=2.0, n_x=81, t_min=0.0, t_max=1.0, n_t=5
    )
    ansatz = GeneralAnsatz(
        R=lambda x, t: -curvature * x**2 + 0.0 * t, mass=params["mass"]
    )
    report = imaginary_scaling_probe(ansatz, params["hbars"], grid)
    if report.vacuous:
        slope, detail = float("nan"), "Im S vanished identically; slope undefined"
    else:
        slope, detail = report.slope, "pass iff |value - 1| <= tolerance"
    records = [_target("imaginary-slope", slope, 1.0, 0.01, detail)]
    return records, None, {}
