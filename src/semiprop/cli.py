"""Command-line front end: run one named check and write machine reports.

Grammar:

    semiprop <scenario> <check> [--param value]... [--config path]
             [--out dir] [--seed n] [--sweep path]

Each ``CHECKS`` entry declares every parameter once (default, kind, lower
edge); flags, ``--config`` files and ``--sweep`` lines all pass through it.
Every run writes ``report.json`` (stable key order) into the output
directory, plus CSV tables where the check produces field or trajectory
data.  Exit status is 0 iff every non-diagnostic record passes, 1 if one
fails, 2 on a usage or parameter error.  A ``--sweep`` file lists one
parameter set per line; the sets run one after another, each into its
own subdirectory, and a parameter error fails its own set only.
"""

from __future__ import annotations

import argparse
import ast
import math
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .core import (
    ComplexField,
    SpacetimeGrid,
    SpatialGrid,
    assemble_propagator,
    evaluate_on_grid,
    fit_loglog_slope,
    rk4_step_count,
)
from .cosmo import (
    ClassicalState,
    CosmoParams,
    evolve_classical,
    matched_a_dot,
)
from .general_hj import (
    X_EDGE,
    GeneralAnsatz,
    cos_log_family,
    decoupling_residual,
    exponential_family_residuals,
    imaginary_scaling_probe,
)
from .lattice import (
    EXP_OVERFLOW,
    SIGNATURES,
    LatticeConfig,
    LatticeField,
    PointwiseFunction,
    analytic_conformal_derivative,
    conformal_imaginary_part_residual,
    conformal_transport_check,
    functional_hj_residual,
    lattice_greens_function,
    lattice_klein_gordon_check,
    lattice_plane_wave,
)
from .oracle import (
    MAX_CN_STEPS,
    cn_evolve,
    gaussian_state,
    kernel_propagate,
    l2_difference,
    schrodinger_residual,
)
from .quadratic import (
    PREFACTOR_CASES,
    QuadraticPotential,
    free_particle_factors,
    free_particle_identity_residuals,
    harmonic_factors,
    harmonic_identity_residuals,
    prefactor_error,
    solve_prefactor_odes,
    van_vleck_check,
)
from .report import CheckRecord, Report, build_convergence_rows, write_csv

_LOG_MAX = math.log(sys.float_info.max)
PROPAGATOR_HEADER = ["x", "t", "re_K", "im_K", "re_R", "im_R", "re_S", "im_S"]
TRAJECTORY_HEADER = ["t", "a", "adot", "phi", "phidot", "constraint_residual"]


# CSV payload: file stem -> (header, row iterable)
RunnerOutput = tuple


def _bound(name: str, value: float, tolerance: float, detail: str = "") -> CheckRecord:
    return CheckRecord(
        name=name,
        value=float(value),
        tolerance=float(tolerance),
        passed=bool(value <= tolerance),
        detail=detail or "pass iff value <= tolerance",
    )


def _floor(name: str, value: float, tolerance: float, detail: str) -> CheckRecord:
    """Pass iff value is finite and above tolerance; NaN and inf fail."""
    return CheckRecord(
        name=name,
        value=float(value),
        tolerance=float(tolerance),
        passed=bool(math.isfinite(value) and value > tolerance),
        detail=detail,
    )


def _target(
    name: str, value: float, target: float, tolerance: float, detail: str
) -> CheckRecord:
    """Pass iff |value - target| <= tolerance; a NaN value fails."""
    return CheckRecord(
        name=name,
        value=float(value),
        tolerance=float(tolerance),
        passed=bool(abs(value - target) <= tolerance),
        detail=detail,
    )


def _diagnostic(name: str, value: float, detail: str = "") -> CheckRecord:
    return CheckRecord(
        name=name,
        value=float(value),
        tolerance=None,
        passed=True,
        diagnostic=True,
        detail=detail or "recorded value, no pass semantics",
    )


def _order_record(name: str, rows: list[dict], order: float, tolerance: float) -> CheckRecord:
    """Gate the last observed order of a convergence table at ``order``.

    A table with no fitted order gives NaN, which fails.
    """
    fitted = [r["observed_order"] for r in rows if r["observed_order"] is not None]
    value = fitted[-1] if fitted else float("nan")
    return _target(name, value, order, tolerance, f"pass iff |value - {order:g}| <= tolerance")


# ------------------------------------------------------------ quadratic


def _quadratic_factors(grid: SpacetimeGrid, params: dict):
    if params["family"] == "free":
        return free_particle_factors(grid, mass=params["mass"], x0=params["x0"])
    return harmonic_factors(
        grid, mass=params["mass"], omega=params["omega"], x0=params["x0"]
    )


def _run_quadratic_hj(params: dict, seed: int) -> RunnerOutput:
    grid = SpacetimeGrid(
        x_min=-4.0, x_max=4.0, n_x=257, t_min=0.5, t_max=2.0, n_t=129
    )
    if params["family"] == "free":
        res = free_particle_identity_residuals(grid, mass=params["mass"], x0=params["x0"])
    else:
        res = harmonic_identity_residuals(
            grid, mass=params["mass"], omega=params["omega"], x0=params["x0"]
        )
    records = [
        _bound("hamilton-jacobi", res["hamilton_jacobi"], 1e-8),
        _bound("consistency", res["consistency"], 1e-8),
    ]
    return records, None, {}


def _run_quadratic_van_vleck(params: dict, seed: int) -> RunnerOutput:
    grid = SpacetimeGrid(
        x_min=-3.0, x_max=3.0, n_x=49, t_min=0.4, t_max=1.2, n_t=25
    )
    factors = _quadratic_factors(grid, params)
    report = van_vleck_check(factors, grid, np.linspace(-1.0, 1.0, 9))
    records = [_bound("van-vleck-deviation", report.deviation, 1e-6)]
    return records, None, {}


def _run_quadratic_prefactor(params: dict, seed: int) -> RunnerOutput:
    family = params["family"]
    pot, init, window, t0 = PREFACTOR_CASES[family]
    sol = solve_prefactor_odes(pot, init, window, params["step"], t0=t0)
    records = [_bound("closed-form-deviation", prefactor_error(family, sol), 1e-8)]
    steps = [0.02, 0.01, 0.005, 0.0025]
    errors = [
        prefactor_error(
            family, solve_prefactor_odes(pot, init, window, h, t0=t0)
        )
        for h in steps
    ]
    rows = build_convergence_rows(steps, errors)
    records.append(_order_record("observed-order", rows, 4.0, 0.5))
    return records, rows, {}


def _csv_rows(*columns: np.ndarray) -> list[tuple]:
    """CSV rows from equal-length columns, every cell a plain Python scalar."""
    return list(zip(*[column.tolist() for column in columns]))


def _propagator_rows(factors, propagator: ComplexField) -> list[tuple]:
    """Rows (x, t, K, R, S) at every valid time node, time-major.

    K is ``propagator``, the field ``assemble_propagator`` built from
    ``factors``; R and S are sampled on its grid.
    """
    grid = propagator.grid
    x, keep = grid.x, grid.time_mask()
    times = grid.t[keep]
    fields = (propagator, evaluate_on_grid(factors.R, grid), evaluate_on_grid(factors.S, grid))
    k, r, s = (field.values[:, keep].T.ravel() for field in fields)
    return _csv_rows(
        np.tile(x, times.size), np.repeat(times, x.size),
        k.real, k.imag, r.real, r.imag, s.real, s.imag,
    )


def _run_quadratic_schrodinger(params: dict, seed: int) -> RunnerOutput:
    levels = [(129, 65), (257, 129), (513, 257)]
    spacings, residuals = [], []
    coarse = None
    for n_x, n_t in levels:
        grid = SpacetimeGrid(
            x_min=-4.0, x_max=4.0, n_x=n_x, t_min=0.5, t_max=2.0, n_t=n_t
        )
        factors = _quadratic_factors(grid, params)
        propagator = assemble_propagator(factors, grid)
        if coarse is None:
            coarse = factors, propagator
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
    rows = build_convergence_rows(spacings, residuals)
    records = [_order_record("stencil-order", rows, 2.0, 0.3)]
    csv = {"propagator": (PROPAGATOR_HEADER, _propagator_rows(*coarse))}
    return records, rows, csv


# ------------------------------------------------------------ general-hj


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
    records = [
        _bound("hamilton-jacobi", res["hamilton_jacobi"], 1e-10),
        _bound("decoupling-residual", res["decoupling"], 1e-12),
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


# --------------------------------------------------------------- oracle


def _run_oracle_kernel(params: dict, seed: int) -> RunnerOutput:
    family = params["family"]
    dt = params["dt"]
    target = 1.0 if family == "free" else math.pi / 2.0
    # compared as a float first: round() of an infinite quotient raises
    if dt > 0 and target / dt > MAX_CN_STEPS:
        raise ValueError(
            "parameter 'dt' = {!r} needs {:.3g} Crank-Nicolson steps, more than "
            "the budget of {}".format(dt, target / dt, MAX_CN_STEPS)
        )
    if not dt > 0 or round(target / dt) < 1:
        raise ValueError(
            "parameter 'dt' leaves no Crank-Nicolson step, got {!r}".format(dt)
        )
    n_steps = round(target / dt)
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
            via_cn = cn_evolve(psi0, 0.0, dt=dt, n_steps=n_steps)
        else:
            grid = SpatialGrid(-6.0, 6.0, params["n_x"])
            psi0 = gaussian_state(grid, sigma0=1.0 / math.sqrt(2.0), x_center=1.0)
            span = SpacetimeGrid(
                x_min=-6.0, x_max=6.0, n_x=params["n_x"],
                t_min=0.05, t_max=2.0, n_t=8,
            )
            factors = harmonic_factors(span, mass=1.0, omega=1.0)
            via_cn = cn_evolve(psi0, QuadraticPotential(g2=0.5), dt=target / n_steps, n_steps=n_steps)
        via_kernel = kernel_propagate(psi0, factors, target, reference_time=1e-2)
    agreement = l2_difference(via_kernel, via_cn)
    perturbed = replace(
        via_kernel, psi=via_kernel.psi * np.exp(0.01 * psi0.grid.x**2)
    )
    separation = l2_difference(perturbed, via_cn)
    notes = "; ".join(str(w.message) for w in caught)
    records = [
        _bound("kernel-vs-grid", agreement, 1e-3, detail=notes or "pass iff value <= tolerance"),
    ]
    if family == "free":
        records.append(
            _floor(
                "perturbed-kernel-separation",
                separation,
                1e-2,
                "pass iff value > tolerance (a wrong kernel must stand out)",
            )
        )
    else:
        # exp(0.01 x^2) barely moves mass on the narrower oscillator grid,
        # so the separation floor is calibrated to the free-particle span
        records.append(
            _diagnostic(
                "perturbed-kernel-separation",
                separation,
                "recorded; the 1e-2 floor applies to the free-particle span",
            )
        )
    return records, None, {}


# ---------------------------------------------------------------- cosmo


def _trajectory_rows(traj, stride: int) -> list[tuple]:
    columns = (traj.t, traj.a, traj.a_dot, traj.phi, traj.phi_dot, traj.friedmann)
    return _csv_rows(*(column[::stride] for column in columns))


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
    # the growth check compares the last sample against the closed form at t_end
    t_last = params["step"] * rk4_step_count(t_end, params["step"])
    if abs(t_last - t_end) > 1e-12 * t_end:
        raise ValueError(
            "parameters 'step' = {!r} and 't_end' = {!r}: the steps end at t = {!r}, "
            "not at t_end; choose a step that divides t_end".format(
                params["step"], t_end, t_last
            )
        )
    closed = a0 * math.exp(hubble * t_end)
    records = [
        _bound("scale-factor-growth", abs(traj.a[-1] - closed) / a0, 1e-6),
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
    p_phi = traj.a**3 * traj.phi_dot
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


# --------------------------------------------------------------- lattice


def _lattice_config(params: dict) -> LatticeConfig:
    return LatticeConfig(
        dims=tuple(params["dims"]),
        spacing=params.get("spacing", 1.0),
        signature=params.get("signature", "euclidean"),
        mass=params.get("mass", 1.0),
    )


def _site_rows(config: LatticeConfig, values: np.ndarray) -> list[tuple]:
    # np.indices flattened in C order enumerates the sites as np.ndindex does
    sites = np.indices(config.dims).reshape(len(config.dims), -1)
    return _csv_rows(*sites, np.asarray(values).ravel())


def _lattice_header(config: LatticeConfig) -> list[str]:
    return ["site_index_{}".format(i) for i in range(len(config.dims))] + ["value"]


def _run_lattice_transport(params: dict, seed: int) -> RunnerOutput:
    config = _lattice_config(params)
    # the check takes exp(2 sigma) at every site
    if not 2.0 * params["sigma_const"] <= EXP_OVERFLOW:
        raise ValueError(
            "parameter 'sigma_const' = {!r} overflows exp(2 sigma_const); it must "
            "stay at or below {}".format(params["sigma_const"], EXP_OVERFLOW / 2.0)
        )
    sigma = LatticeField(config, np.full(config.dims, params["sigma_const"]))
    r_value, deviation = conformal_transport_check(sigma, params["lam"])
    closed = (
        params["lam"] / 8.0
        * config.n_sites
        * math.exp(2.0 * params["sigma_const"])
        * config.cell_volume
    )
    records = [
        _diagnostic("curvature-functional", r_value, "R[sigma] on this lattice"),
        _bound(
            "closed-form-deviation",
            abs(r_value - closed),
            1e-12 * max(1.0, abs(closed)),
        ),
        _bound("functional-derivative-deviation", deviation, params["derivative_tol"]),
    ]
    weights = params["lam"] / 8.0 * np.exp(2.0 * sigma.values) * config.cell_volume
    csv = {"lattice": (_lattice_header(config), _site_rows(config, weights))}
    return records, None, csv


def _run_lattice_greens(params: dict, seed: int) -> RunnerOutput:
    config = _lattice_config(params)
    functional = lattice_greens_function(config, use_regulator=params["use_regulator"])
    records = [
        _bound("defining-property", functional.defect, 1e-8),
        _bound("kernel-symmetry", functional.asymmetry, 1e-12),
    ]
    csv = {"lattice": (_lattice_header(config), _site_rows(config, np.real(functional.g)))}
    return records, None, csv


def _run_lattice_positivity(params: dict, seed: int) -> RunnerOutput:
    config = _lattice_config(params)
    amplitude = params["amplitude"]
    # the field is drawn from [-amplitude, amplitude]
    if not math.isfinite(2.0 * amplitude):
        raise ValueError(
            "parameter 'amplitude' must keep 2 * amplitude finite, got {!r}".format(amplitude)
        )
    functional = lattice_greens_function(config)
    rng = np.random.default_rng(seed)
    worst = math.inf
    last = None
    for _ in range(params["draws"]):
        last = LatticeField(
            config, rng.uniform(-amplitude, amplitude, size=config.dims)
        )
        worst = min(worst, functional_hj_residual(functional, last))
    records = [
        _floor(
            "minimum-residual",
            worst,
            0.0,
            "pass iff value > tolerance (euclidean residual is positive off phi = 0)",
        )
    ]
    lightcone = LatticeConfig(dims=(8, 8), signature="lorentzian", mass=1.0)
    t_idx, s_idx = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    wave = LatticeField(lightcone, np.cos(2.0 * np.pi * (t_idx - s_idx) / 8.0))
    diag = functional_hj_residual(lattice_greens_function(lightcone), wave)
    records.append(
        _diagnostic(
            "lorentzian-on-shell-residual",
            diag,
            "recorded for comparison across refinements; no pass threshold",
        )
    )
    csv = {"lattice": (_lattice_header(config), _site_rows(config, last.values))}
    return records, None, csv


def _run_lattice_imaginary(params: dict, seed: int) -> RunnerOutput:
    config = _lattice_config(params)
    w = PointwiseFunction(
        value=lambda p: 2.0 + np.sin(p),
        derivative=np.cos,
        label="2 + sin",
    )
    lam = params["lam"]
    rng = np.random.default_rng(seed)
    worst = 0.0
    last = None
    for _ in range(params["draws"]):
        sigma = LatticeField(config, rng.uniform(-1.0, 1.0, size=config.dims))
        phi = LatticeField(config, rng.uniform(-1.0, 1.0, size=config.dims))
        last = conformal_imaginary_part_residual(
            sigma, phi, w, analytic_conformal_derivative(sigma, lam), lam
        )
        worst = max(worst, float(np.max(np.abs(last.values))))
    records = [_bound("imaginary-part-residual", worst, 1e-12)]
    csv = {"lattice": (_lattice_header(config), _site_rows(config, last.values))}
    return records, None, csv


def _run_lattice_kg(params: dict, seed: int) -> RunnerOutput:
    config = _lattice_config(params)
    phi0, velocity, wave = lattice_plane_wave(config, params["mode"], params["dt"])
    run = lattice_klein_gordon_check(
        phi0, velocity, dt=params["dt"], n_steps=params["steps"], exact=wave
    )
    records = [
        _bound("stencil-residual", run.residual, 1e-8),
        _bound("dispersion-tracking", run.tracking, 1e-8),
    ]
    csv = {"lattice": (_lattice_header(config), _site_rows(config, run.final))}
    return records, None, csv


# ------------------------------------------------------------- registry


# Each check declares every parameter once, as name: (default, kind, edge).
#   kind  float (a finite real), int (an integer, not a bool), bool, a tuple
#         of the allowed text choices, or [kind] for a list of that kind;
#   edge  None, POSITIVE (greater than 0) or an integer the value must
#         reach; on a list, every element meets it.
# A rule that a library constructor already checks, or one that couples
# parameters, stays with the constructor or the runner.
POSITIVE = "positive"


def _reals(**defaults: float) -> dict:
    """Declarations of finite reals with no edge."""
    return {name: (default, float, None) for name, default in defaults.items()}


_QUADRATIC = {
    "family": ("free", ("free", "harmonic"), None),
    **_reals(mass=1.0, omega=1.0, x0=0.0),
}
_DIMS = ([4, 4], [int], 2)
_LATTICE = {"dims": _DIMS, **_reals(mass=1.0, spacing=1.0)}

CHECKS: dict[tuple[str, str], tuple[dict, Callable]] = {
    ("quadratic", "hj"): (_QUADRATIC, _run_quadratic_hj),
    ("quadratic", "van-vleck"): (_QUADRATIC, _run_quadratic_van_vleck),
    ("quadratic", "prefactor-ode"): (
        {"family": ("driven", tuple(PREFACTOR_CASES), None), **_reals(step=1e-4)},
        _run_quadratic_prefactor,
    ),
    ("quadratic", "schrodinger-order"): (_QUADRATIC, _run_quadratic_schrodinger),
    ("general-hj", "decoupling"): (
        _reals(c2=1.0, c3=0.0, c4=0.0, hbar=1.0, mass=1.0),
        _run_general_decoupling,
    ),
    ("general-hj", "exponential"): (
        _reals(amplitude=1.0, slope=1.0, hbar=1.0, mass=1.0),
        _run_general_exponential,
    ),
    ("general-hj", "hbar-slope"): (
        {"hbars": ([0.5, 1.0, 2.0], [float], None), **_reals(curvature=0.25, mass=1.0)},
        _run_general_hbar_slope,
    ),
    ("oracle", "kernel-vs-grid"): (
        {
            "family": ("free", ("free", "harmonic"), None),
            "n_x": (512, int, None),
            **_reals(dt=1e-3),
        },
        _run_oracle_kernel,
    ),
    ("cosmo", "de-sitter"): (
        {
            "lam": (3.0, float, POSITIVE),
            "t_end": (1.0, float, POSITIVE),
            "csv_stride": (10, int, 1),
            **_reals(a0=1.0, step=1e-3),
        },
        _run_cosmo_de_sitter,
    ),
    ("cosmo", "stiff"): (
        {
            "t_end": (35.0, float, POSITIVE),
            "fit_from": (3.5, float, POSITIVE),
            "csv_stride": (50, int, 1),
            **_reals(phi_dot0=20.0, step=1e-3),
        },
        _run_cosmo_stiff,
    ),
    ("lattice", "conformal-transport"): (
        {
            "dims": _DIMS,
            "derivative_tol": (1e-6, float, POSITIVE),
            **_reals(lam=8.0, sigma_const=0.0, spacing=1.0),
        },
        _run_lattice_transport,
    ),
    ("lattice", "greens"): (
        {
            **_LATTICE,
            "signature": ("euclidean", SIGNATURES, None),
            "use_regulator": (False, bool, None),
        },
        _run_lattice_greens,
    ),
    ("lattice", "hj-positivity"): (
        {
            **_LATTICE,
            # the functional HJ residual is positive off phi = 0 there only
            "signature": ("euclidean", ("euclidean",), None),
            "draws": (100, int, 1),
            "amplitude": (2.0, float, POSITIVE),
        },
        _run_lattice_positivity,
    ),
    ("lattice", "imaginary-part"): (
        {"dims": _DIMS, "draws": (100, int, 1), **_reals(lam=1.3)},
        _run_lattice_imaginary,
    ),
    ("lattice", "kg-wave"): (
        {
            "dims": ([32], [int], 2),
            "mode": ([3], [int], None),
            "steps": (200, int, None),
            **_reals(mass=0.7, dt=0.05),
        },
        _run_lattice_kg,
    ),
}

SCENARIOS = tuple(sorted({scenario for scenario, _ in CHECKS}))


# --------------------------------------------------- parameter handling


def _parse_value(text: str):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _checked(subject: str, value, kind, edge):
    """``value`` as its declared kind, or ValueError opening with ``subject``."""
    if isinstance(kind, list) and isinstance(value, (list, tuple)):
        return [
            _checked("{} element {}".format(subject, i), item, kind[0], edge)
            for i, item in enumerate(value)
        ]
    if isinstance(kind, tuple) and str(value) in kind:
        return str(value)
    if kind is bool and str(value).lower() in ("true", "false"):
        return str(value).lower() == "true"
    if kind in (int, float) and isinstance(value, (int, kind)) and not isinstance(value, bool):
        if kind is float:
            try:
                value = float(value)
            except OverflowError:
                raise ValueError(
                    "{} is an integer too large for a float".format(subject)
                ) from None
            if not math.isfinite(value):
                raise ValueError("{} must be finite, got {!r}".format(subject, value))
        if edge == POSITIVE and not value > 0:
            raise ValueError("{} must be positive, got {!r}".format(subject, value))
        if isinstance(edge, int) and value < edge:
            raise ValueError("{} must be at least {}, got {!r}".format(subject, edge, value))
        return value
    if isinstance(kind, list):
        expected = "a list like [4,4]"
    elif isinstance(kind, tuple):
        expected = "one of {}".format(kind)
    else:
        expected = {bool: "true or false", int: "an integer", float: "a number"}[kind]
    raise ValueError("{} expects {}, got {!r}".format(subject, expected, value))


def _merge_params(scenario: str, check: str, *sources: dict) -> dict:
    """The declared defaults, updated by each source in turn; every value is checked."""
    declared, _ = CHECKS[(scenario, check)]
    merged = {name: default for name, (default, _, _) in declared.items()}
    for source in sources:
        for name, raw in source.items():
            if name not in declared:
                raise ValueError(
                    "unknown parameter '{}' for {} {}; valid parameters: {}".format(
                        name, scenario, check, ", ".join(sorted(declared))
                    )
                )
            _, kind, edge = declared[name]
            merged[name] = _checked("parameter '{}'".format(name), raw, kind, edge)
    return merged


def _content_lines(path: Path, kind: str) -> list[tuple[int, str]]:
    """(line number, stripped text) of each non-blank, non-comment line."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError("cannot read {} file: {}".format(kind, exc)) from None
    lines = [(no, line.strip()) for no, line in enumerate(text.splitlines(), start=1)]
    return [(no, line) for no, line in lines if line and not line.startswith("#")]


def _assignment(text: str, where: str) -> tuple[str, object]:
    if "=" not in text:
        raise ValueError("{}: expected key=value, got {!r}".format(where, text))
    key, _, raw = text.partition("=")
    return key.strip(), _parse_value(raw.strip())


def _read_key_value_file(path: Path) -> dict:
    return dict(
        _assignment(line, "config file {} line {}".format(path, no))
        for no, line in _content_lines(path, "config")
    )


def _parse_extra_flags(tokens: list[str]) -> dict:
    values = {}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if not token.startswith("--") or len(token) == 2:
            raise ValueError(
                "unrecognized argument {!r}; parameters are passed as --name value".format(
                    token
                )
            )
        name = token[2:]
        if "=" in name:
            name, _, raw = name.partition("=")
            values[name] = _parse_value(raw)
            i += 1
            continue
        if i + 1 >= len(tokens):
            raise ValueError("parameter '--{}' is missing a value".format(name))
        values[name] = _parse_value(tokens[i + 1])
        i += 2
    return values


def _read_sweep(path: Path) -> list[dict]:
    """The key=value overrides on each line of a sweep file."""
    overrides = [
        dict(_assignment(token, "sweep line {}".format(no)) for token in line.split())
        for no, line in _content_lines(path, "sweep")
    ]
    if not overrides:
        raise ValueError("sweep file {} has no parameter lines".format(path))
    return overrides


# ------------------------------------------------------------ execution


def run_scenario(
    scenario: str, check: str, params: dict, out_dir: Path, seed: int
) -> Report:
    """Run one check on checked parameters, write report.json and CSV
    payloads into ``out_dir``, and return the report."""
    _, runner = CHECKS[(scenario, check)]
    started = time.perf_counter()
    records, convergence, csv_payload = runner(params, seed)
    report = Report(
        scenario=scenario,
        checks=records,
        convergence=convergence,
        seed=seed,
        runtime_seconds=time.perf_counter() - started,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    report.write_json(out_dir / "report.json")
    for stem, (header, rows) in csv_payload.items():
        write_csv(out_dir / (stem + ".csv"), header, rows)
    if convergence is not None:
        write_csv(
            out_dir / "convergence.csv",
            ["h", "residual", "observed_order"],
            [
                (
                    row["h"],
                    row["residual"],
                    "n/a" if row["observed_order"] is None else row["observed_order"],
                )
                for row in convergence
            ],
        )
    return report


def _print_report(report: Report, out_dir: Path, prefix: str) -> None:
    for record in report.checks:
        if record.diagnostic:
            status = "diag"
            bound = ""
        else:
            status = "PASS" if record.passed else "FAIL"
            bound = " tol={:g}".format(record.tolerance)
        print(
            "{}{:<34} value={:.6e}{} {}".format(
                prefix, record.name, record.value, bound, status
            )
        )
    print(
        "{}overall: {} ({})".format(
            prefix, "PASS" if report.passed else "FAIL", out_dir / "report.json"
        )
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiprop",
        description="run one verification check and write a machine-readable report",
        usage="semiprop <scenario> <check> [--param value]... "
        "[--config path] [--out dir] [--seed n] [--sweep path]",
    )
    parser.add_argument("scenario", help="one of: " + ", ".join(SCENARIOS))
    parser.add_argument("check", help="check name within the scenario")
    parser.add_argument("--config", type=Path, default=None, help="key=value file")
    parser.add_argument("--out", type=Path, default=Path("semiprop-out"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--sweep", type=Path, default=None,
        help="file of key=value lines, one run per line",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if (args.scenario, args.check) not in CHECKS:
        if args.scenario not in SCENARIOS:
            problem = "unknown scenario '{}' (choose from {})".format(
                args.scenario, ", ".join(SCENARIOS)
            )
        else:
            problem = "unknown check '{}' for scenario '{}' (choose from {})".format(
                args.check,
                args.scenario,
                ", ".join(sorted(c for s, c in CHECKS if s == args.scenario)),
            )
        parser.print_usage(sys.stderr)
        print("semiprop: " + problem, file=sys.stderr)
        return 2

    try:
        # checked here, not by the first draw, so that every check refuses it
        if args.seed < 0:
            raise ValueError(
                "parameter 'seed' must be a non-negative integer, got {}".format(args.seed)
            )
        flag_values = _parse_extra_flags(extra)
        file_values = _read_key_value_file(args.config) if args.config else {}
        base_params = _merge_params(
            args.scenario, args.check, file_values, flag_values
        )
        overrides = [{}] if args.sweep is None else _read_sweep(args.sweep)
    except ValueError as exc:
        print("semiprop: {}".format(exc), file=sys.stderr)
        return 2

    status = 0
    for index, override in enumerate(overrides):
        # a sweep run gets a label and its own subdirectory; a single run neither
        label = "" if args.sweep is None else "run-{:03d}".format(index)
        prefix = "[{}] ".format(label) if label else ""
        out_dir = args.out / label
        # a parameter error on one set, declared or found by its runner,
        # fails that set alone
        try:
            params = _merge_params(args.scenario, args.check, base_params, override)
            report = run_scenario(args.scenario, args.check, params, out_dir, args.seed)
        except ValueError as exc:
            print("{}semiprop: {}".format(prefix, exc), file=sys.stderr)
            status = 2
            continue
        _print_report(report, out_dir, prefix)
        if not report.passed:
            status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
