"""Runners of the ``cosmo`` checks: de Sitter growth and the stiff-fluid
expansion exponent."""

from __future__ import annotations

import math

import numpy as np

from ..core import fit_loglog_slope, rk4_step_count
from ..cosmo import (
    ClassicalState,
    CosmoParams,
    evolve_classical,
    matched_a_dot,
    momenta,
)
from ..report import _bound, _CsvRows, _diagnostic, _target
from . import _LOG_MAX, RunnerOutput

TRAJECTORY_HEADER = ["t", "a", "adot", "phi", "phidot", "constraint_residual"]


def _trajectory_rows(traj, stride: int) -> _CsvRows:
    columns = (traj.t, traj.a, traj.a_dot, traj.phi, traj.phi_dot, traj.friedmann)
    return _CsvRows(*(column[::stride] for column in columns))


def _evolve(state: ClassicalState, cosmo: CosmoParams, params: dict, names: tuple):
    """evolve_classical over (0, t_end); a refused run names the parameters in ``names``."""
    try:
        return evolve_classical(state, cosmo, (0.0, params["t_end"]), params["step"])
    except ValueError as exc:
        given = ", ".join("'{}' = {!r}".format(name, params[name]) for name in names)
        raise ValueError("parameters {}: {}".format(given, exc)) from None


def _run_cosmo_de_sitter(params: dict, seed: int) -> RunnerOutput:
    lam, t_end, a0 = params["lam"], params["t_end"], params["a0"]
    hubble = math.sqrt(lam / 3.0)

    def momentum_square_finite() -> bool:
        # the constraint series squares p_a = -3 a adot / (4 pi) = -3 H a^2 / (4 pi),
        # largest at a0 exp(H t_end); float * overflows to inf where ** would raise
        a_end = a0 * math.exp(hubble * t_end)
        p_a = 3.0 * hubble * a_end * a_end / (4.0 * math.pi)
        return math.isfinite(p_a * p_a)

    # the run takes a^2 and a^3 of every sample, from a0 up to a0 exp(H t_end),
    # and float ** raises where the power leaves the float range
    if not (a0 > 0 and a0 * a0 * a0 > 0
            and 3.0 * (math.log(a0) + hubble * t_end) < _LOG_MAX
            and momentum_square_finite()):
        raise ValueError(
            "parameter 'a0' = {!r} with 'lam' = {!r} and 't_end' = {!r}: the cubes of "
            "a0 and of a0 exp(t_end sqrt(lam / 3)) must be finite and nonzero, and so "
            "must the square of p_a = -3 sqrt(lam / 3) a^2 / (4 pi)".format(a0, lam, t_end)
        )
    state = ClassicalState(a=a0, a_dot=hubble * a0, phi=0.0, phi_dot=0.0)
    traj = _evolve(state, CosmoParams(lam=lam), params, ("lam", "t_end", "step"))
    step, tolerance = params["step"], 1e-6
    # the growth check compares the last sample against the closed form at t_end
    t_last = step * rk4_step_count(t_end, step)
    if abs(t_last - t_end) > 1e-12 * t_end:
        raise ValueError(
            "parameters 'step' = {!r} and 't_end' = {!r}: the steps end at t = {!r}, "
            "not at t_end; choose a step that divides t_end".format(step, t_end, t_last)
        )
    # RK4's global error on a' = H a, relative to a0 as the growth check
    # measures it; float * overflows to inf where ** would raise
    rk4_error = (
        t_end * (hubble * hubble * hubble * hubble * hubble) * (step * step * step * step)
        * math.exp(hubble * t_end) / 120.0
    )
    if not rk4_error < 0.5 * tolerance:
        raise ValueError(
            "parameters 'lam' = {!r}, 't_end' = {!r}, 'step' = {!r}: RK4's global error "
            "t_end H^5 step^4 exp(H t_end) / 120, with H = sqrt(lam / 3), is about {:.3g}, "
            "not below half the scale-factor-growth tolerance {:g}; lower 'step' or "
            "'t_end'".format(lam, t_end, step, rk4_error, tolerance)
        )
    closed = a0 * math.exp(hubble * t_end)
    records = [
        _bound("scale-factor-growth", abs(traj.a[-1] - closed) / a0, tolerance),
        _bound("friedmann-residual", float(np.max(np.abs(traj.friedmann))), 1e-8),
    ]
    csv = {"trajectory": (TRAJECTORY_HEADER, _trajectory_rows(traj, params["csv_stride"]))}
    return records, None, csv


def _run_cosmo_stiff(params: dict, seed: int) -> RunnerOutput:
    vacuum = CosmoParams()
    phi_dot0 = params["phi_dot0"]
    # the momentum drift divides by p_phi(0) = phi_dot0; the matched rate and
    # the Friedmann precheck take phi_dot0^2 and the rate's square, about
    # 4.2 phi_dot0^2, and float ** raises where they leave the float range
    if not (phi_dot0 != 0 and math.isfinite(8.0 * math.pi * phi_dot0 * phi_dot0)):
        raise ValueError(
            "parameter 'phi_dot0' must be nonzero with 8 pi phi_dot0^2 finite, "
            "got {!r}".format(phi_dot0)
        )
    state = ClassicalState(
        a=1.0,
        a_dot=matched_a_dot(1.0, 0.0, phi_dot0, vacuum),
        phi=0.0,
        phi_dot=phi_dot0,
    )
    traj = _evolve(state, vacuum, params, ("phi_dot0", "t_end", "step"))
    if traj.collapse_time is not None:
        raise ValueError(
            "parameter 'phi_dot0' = {!r} with step = {!r}: the RK4 run overflowed "
            "or collapsed at t = {:.6g}; lower parameter 'step' or 'phi_dot0'".format(
                phi_dot0, params["step"], traj.collapse_time
            )
        )
    late = traj.t >= params["fit_from"]
    if np.count_nonzero(late) < 3:
        raise ValueError("parameter 'fit_from' leaves fewer than 3 samples to fit")
    slope = fit_loglog_slope(traj.t[late], traj.a[late])
    _, p_phi = momenta(traj.a, traj.a_dot, traj.phi_dot)
    drift = float(np.max(np.abs(p_phi - p_phi[0])) / abs(p_phi[0]))
    records = [
        _target(
            "expansion-exponent", slope, 1.0 / 3.0, 1e-3,
            "pass iff |value - 1/3| <= tolerance",
        ),
        _diagnostic(
            "momentum-drift",
            drift,
            "relative p_phi drift over the run (truncation transient)",
        ),
    ]
    csv = {"trajectory": (TRAJECTORY_HEADER, _trajectory_rows(traj, params["csv_stride"]))}
    return records, None, csv
