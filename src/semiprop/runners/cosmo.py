"""Runners of the ``cosmo`` checks: de Sitter growth and the stiff-fluid
expansion exponent."""

from __future__ import annotations

import math

import numpy as np

from ..core import fit_loglog_slope, step_count
from ..cosmo import (
    ClassicalState,
    CosmoParams,
    Trajectory,
    evolve_classical,
    friedmann_residual,
    matched_a_dot,
    momenta,
)
from ..report import Floor, _CsvRows, _refuse
from . import _LOG_MAX, _refusing

TRAJECTORY_HEADER = ["t", "a", "adot", "phi", "phidot", "constraint_residual"]


def _trajectory_rows(traj: Trajectory, cosmo: CosmoParams, stride: int) -> _CsvRows:
    """Every stride-th sample, with its Friedmann residual as the constraint
    column; the residual is elementwise, so it is taken on those samples only."""
    samples = [column[::stride] for column in (traj.t, traj.a, traj.a_dot, traj.phi, traj.phi_dot)]
    return _CsvRows(*samples, friedmann_residual(Trajectory(*samples), cosmo))


def _run_cosmo_de_sitter(params: dict, seed: int, hold) -> tuple:
    lam, t_end, a0 = params["lam"], params["t_end"], params["a0"]
    hubble = math.sqrt(lam / 3.0)

    def momentum_square_finite() -> bool:
        # relative_constraint squares p_a = -3 a adot / (4 pi) = -3 H a^2 / (4 pi),
        # largest at a0 exp(H t_end); float * overflows to inf where ** would raise
        a_end = a0 * math.exp(hubble * t_end)
        p_a = 3.0 * hubble * a_end * a_end / (4.0 * math.pi)
        return math.isfinite(p_a * p_a)

    # the series that cosmo defines on the trajectory take a^2, a^3 and p_a^2
    # of every sample, from a0 up to a0 exp(H t_end); this keeps all of them
    # finite, not just the Friedmann residual read here, and float ** raises
    # where a power leaves the float range
    if not (a0 * a0 * a0 > 0
            and 3.0 * (math.log(a0) + hubble * t_end) < _LOG_MAX
            and momentum_square_finite()):
        _refuse(
            params, ("a0", "lam", "t_end"),
            "the cubes of a0 and of a0 exp(t_end sqrt(lam / 3)) must be finite and "
            "nonzero, and so must the square of p_a = -3 sqrt(lam / 3) a^2 / (4 pi)",
        )
    state = ClassicalState(a=a0, a_dot=hubble * a0, phi=0.0, phi_dot=0.0)
    de_sitter = CosmoParams(lam=lam)
    step, names = params["step"], ("lam", "t_end", "step")
    # the growth check compares the last sample against the closed form at t_end
    t_last = step * _refusing(params, names, step_count, t_end, step)
    if abs(t_last - t_end) > 1e-12 * t_end:
        _refuse(
            params, ("step", "t_end"),
            "the steps end at t = {!r}, not at t_end; choose a step that divides "
            "t_end".format(t_last),
        )
    # RK4's global error on a' = H a, relative to a0 as the growth check
    # measures it; float * overflows to inf where ** would raise
    rk4_error = (
        t_end * (hubble * hubble * hubble * hubble * hubble) * (step * step * step * step)
        * math.exp(hubble * t_end) / 120.0
    )
    cause = "RK4's global error t_end H^5 step^4 exp(H t_end) / 120, H = sqrt(lam / 3),"
    hold("scale-factor-growth", Floor(rk4_error, cause, names))
    traj = _refusing(params, names, evolve_classical, state, de_sitter, (0.0, t_end), step)
    growth = abs(traj.a[-1] - a0 * math.exp(hubble * t_end)) / a0
    friedmann = float(np.max(np.abs(friedmann_residual(traj, de_sitter))))
    values = {"scale-factor-growth": growth, "friedmann-residual": friedmann}
    rows = _trajectory_rows(traj, de_sitter, params["csv_stride"])
    return values, None, {"trajectory": (TRAJECTORY_HEADER, rows)}


def _run_cosmo_stiff(params: dict, seed: int, hold) -> tuple:
    vacuum = CosmoParams()
    phi_dot0 = params["phi_dot0"]
    # the momentum drift divides by p_phi(0) = phi_dot0; the matched rate and
    # the Friedmann precheck take phi_dot0^2 and the rate's square, about
    # 4.2 phi_dot0^2, and float ** raises where they leave the float range
    if not (phi_dot0 != 0 and math.isfinite(8.0 * math.pi * phi_dot0 * phi_dot0)):
        _refuse(params, ("phi_dot0",), "it must be nonzero with 8 pi phi_dot0^2 finite")
    state = ClassicalState(
        a=1.0,
        a_dot=matched_a_dot(1.0, 0.0, phi_dot0, vacuum),
        phi=0.0,
        phi_dot=phi_dot0,
    )
    window, names = (0.0, params["t_end"]), ("phi_dot0", "t_end", "step")
    traj = _refusing(params, names, evolve_classical, state, vacuum, window, params["step"])
    if traj.collapse_time is not None:
        _refuse(
            params, ("phi_dot0", "step"),
            "the RK4 run overflowed or collapsed at t = {:.6g}; lower the step or "
            "phi_dot0".format(traj.collapse_time),
        )
    late = traj.t >= params["fit_from"]
    if np.count_nonzero(late) < 3:
        _refuse(params, ("fit_from",), "it leaves fewer than 3 samples to fit")
    slope = fit_loglog_slope(traj.t[late], traj.a[late])
    _, p_phi = momenta(traj.a, traj.a_dot, traj.phi_dot)
    drift = float(np.max(np.abs(p_phi - p_phi[0])) / abs(p_phi[0]))
    rows = _trajectory_rows(traj, vacuum, params["csv_stride"])
    values = {"expansion-exponent": slope, "momentum-drift": drift}
    return values, None, {"trajectory": (TRAJECTORY_HEADER, rows)}
