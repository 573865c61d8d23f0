"""Command-line front end: run one named check and write machine reports.

Grammar:

    semiprop <scenario> <check> [--param value]... [--config path]
             [--out dir] [--seed n] [--sweep path]

Every run writes ``report.json`` (stable key order) into the output
directory, plus CSV tables where the check produces field or trajectory
data.  Exit status is 0 iff every non-diagnostic record passes.  A
``--sweep`` file lists one parameter set per line; the sets run one
after another, each into its own subdirectory.
"""

from __future__ import annotations

import argparse
import ast
import math
import sys
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .core import SpacetimeGrid, SpatialGrid, assemble_propagator, fit_loglog_slope
from .cosmo import (
    ClassicalState,
    CosmoParams,
    evolve_classical,
    matched_a_dot,
)
from .general_hj import (
    cos_log_family,
    decoupling_residual,
    exponential_family_residuals,
    imaginary_scaling_probe,
)
from .lattice import (
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

PROPAGATOR_HEADER = ["x", "t", "re_K", "im_K", "re_R", "im_R", "re_S", "im_S"]
TRAJECTORY_HEADER = ["t", "a", "adot", "phi", "phidot", "constraint_residual"]


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    check: str
    params: dict
    out_dir: Path
    seed: int


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


def _family(params: dict, allowed: tuple[str, ...]) -> str:
    family = params["family"]
    if family not in allowed:
        raise ValueError(
            "parameter 'family' must be one of {}, got {!r}".format(allowed, family)
        )
    return family


# ------------------------------------------------------------ quadratic


def _quadratic_factors(family: str, grid: SpacetimeGrid, params: dict):
    if family == "free":
        return free_particle_factors(grid, mass=params["mass"], x0=params["x0"])
    return harmonic_factors(
        grid, mass=params["mass"], omega=params["omega"], x0=params["x0"]
    )


def _run_quadratic_hj(params: dict, rng) -> RunnerOutput:
    family = _family(params, ("free", "harmonic"))
    grid = SpacetimeGrid(
        x_min=-4.0, x_max=4.0, n_x=257, t_min=0.5, t_max=2.0, n_t=129
    )
    if family == "free":
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


def _run_quadratic_van_vleck(params: dict, rng) -> RunnerOutput:
    family = _family(params, ("free", "harmonic"))
    grid = SpacetimeGrid(
        x_min=-3.0, x_max=3.0, n_x=49, t_min=0.4, t_max=1.2, n_t=25
    )
    factors = _quadratic_factors(family, grid, params)
    report = van_vleck_check(factors, grid, np.linspace(-1.0, 1.0, 9))
    records = [_bound("van-vleck-deviation", report.deviation, 1e-6)]
    return records, None, {}


def _run_quadratic_prefactor(params: dict, rng) -> RunnerOutput:
    family = _family(params, ("free", "harmonic", "driven"))
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
    orders = [r["observed_order"] for r in rows if r["observed_order"] is not None]
    if orders:
        records.append(
            _target(
                "observed-order", orders[-1], 4.0, 0.5,
                "pass iff |value - 4| <= tolerance",
            )
        )
    return records, rows, {}


def _propagator_rows(factors, grid: SpacetimeGrid):
    x, t = grid.x, grid.t
    mask = grid.time_mask()
    rows = []
    for j, tj in enumerate(t):
        if not mask[j]:
            continue
        r_col = np.broadcast_to(
            np.asarray(factors.R(x, tj), dtype=complex), x.shape
        )
        s_col = np.broadcast_to(
            np.asarray(factors.S(x, tj), dtype=complex), x.shape
        )
        k_col = np.exp(r_col + 1j * s_col / factors.hbar)
        for i, xi in enumerate(x):
            rows.append(
                (
                    xi,
                    tj,
                    k_col[i].real,
                    k_col[i].imag,
                    r_col[i].real,
                    r_col[i].imag,
                    s_col[i].real,
                    s_col[i].imag,
                )
            )
    return rows


def _run_quadratic_schrodinger(params: dict, rng) -> RunnerOutput:
    family = _family(params, ("free", "harmonic"))
    levels = [(129, 65), (257, 129), (513, 257)]
    spacings, residuals = [], []
    coarse_factors = None
    coarse_grid = None
    for n_x, n_t in levels:
        grid = SpacetimeGrid(
            x_min=-4.0, x_max=4.0, n_x=n_x, t_min=0.5, t_max=2.0, n_t=n_t
        )
        factors = _quadratic_factors(family, grid, params)
        if coarse_factors is None:
            coarse_factors, coarse_grid = factors, grid
        propagator = assemble_propagator(factors, grid)
        if family == "free":
            pot = 0.0
        else:
            m, om = params["mass"], params["omega"]
            pot = QuadraticPotential(g2=0.5 * m * om**2).value
        _, rel = schrodinger_residual(
            propagator, pot, hbar=factors.hbar, mass=factors.mass
        )
        spacings.append(grid.dx)
        residuals.append(rel)
    rows = build_convergence_rows(spacings, residuals)
    orders = [r["observed_order"] for r in rows if r["observed_order"] is not None]
    value = float(orders[-1]) if orders else float("nan")
    records = [
        _target("stencil-order", value, 2.0, 0.3, "pass iff |value - 2| <= tolerance"),
    ]
    csv = {"propagator": (PROPAGATOR_HEADER, _propagator_rows(coarse_factors, coarse_grid))}
    return records, rows, csv


# ------------------------------------------------------------ general-hj


def _run_general_decoupling(params: dict, rng) -> RunnerOutput:
    ansatz = cos_log_family(
        c2=params["c2"], c3=params["c3"], c4=params["c4"],
        hbar=params["hbar"], mass=params["mass"],
    )
    grid = SpacetimeGrid(
        x_min=-2.0, x_max=2.0, n_x=65, t_min=0.0, t_max=1.0, n_t=33
    )
    res = decoupling_residual(
        ansatz.R, grid, mass=params["mass"], hbar=params["hbar"],
        dR_dt=ansatz.dR_dt, dR_dx=ansatz.dR_dx, d2R_dx2=ansatz.d2R_dx2,
    )
    records = [_bound("decoupling-residual", res.max_abs(), 1e-8)]
    return records, None, {}


def _run_general_exponential(params: dict, rng) -> RunnerOutput:
    res = exponential_family_residuals(
        amplitude=params["amplitude"], slope=params["slope"],
        hbar=params["hbar"], mass=params["mass"],
    )
    records = [
        _bound("hamilton-jacobi", res["hamilton_jacobi"], 1e-10),
        _bound("decoupling-residual", res["decoupling"], 1e-12),
    ]
    return records, None, {}


def _run_general_hbar_slope(params: dict, rng) -> RunnerOutput:
    curvature = params["curvature"]
    grid = SpacetimeGrid(
        x_min=-2.0, x_max=2.0, n_x=81, t_min=0.0, t_max=1.0, n_t=5
    )
    report = imaginary_scaling_probe(
        lambda x, t: -curvature * x**2 + 0.0 * t,
        params["hbars"],
        grid,
        mass=params["mass"],
    )
    if report.vacuous:
        slope, detail = float("nan"), "Im S vanished identically; slope undefined"
    else:
        slope, detail = report.slope, "pass iff |value - 1| <= tolerance"
    records = [_target("imaginary-slope", slope, 1.0, 0.01, detail)]
    return records, None, {}


# --------------------------------------------------------------- oracle


def _run_oracle_kernel(params: dict, rng) -> RunnerOutput:
    family = _family(params, ("free", "harmonic"))
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


def _trajectory_rows(traj, stride: int):
    rows = []
    for i in range(0, len(traj.t), stride):
        rows.append(
            (
                traj.t[i],
                traj.a[i],
                traj.a_dot[i],
                traj.phi[i],
                traj.phi_dot[i],
                traj.friedmann[i],
            )
        )
    return rows


def _run_cosmo_de_sitter(params: dict, rng) -> RunnerOutput:
    lam, t_end, a0 = params["lam"], params["t_end"], params["a0"]
    if lam <= 0:
        raise ValueError("parameter 'lam' must be positive for a de Sitter run")
    hubble = math.sqrt(lam / 3.0)
    state = ClassicalState(a=a0, a_dot=hubble * a0, phi=0.0, phi_dot=0.0)
    traj = evolve_classical(
        state, CosmoParams(lam=lam), (0.0, t_end), params["step"]
    )
    closed = a0 * math.exp(hubble * t_end)
    records = [
        _bound("scale-factor-growth", abs(traj.a[-1] - closed) / a0, 1e-6),
        _bound("friedmann-residual", float(np.max(np.abs(traj.friedmann))), 1e-8),
    ]
    csv = {"trajectory": (TRAJECTORY_HEADER, _trajectory_rows(traj, params["csv_stride"]))}
    return records, None, csv


def _run_cosmo_stiff(params: dict, rng) -> RunnerOutput:
    vacuum = CosmoParams()
    phi_dot0 = params["phi_dot0"]
    state = ClassicalState(
        a=1.0,
        a_dot=matched_a_dot(1.0, 0.0, phi_dot0, vacuum),
        phi=0.0,
        phi_dot=phi_dot0,
    )
    traj = evolve_classical(state, vacuum, (0.0, params["t_end"]), params["step"])
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
    dims = params["dims"]
    if not dims or any(not isinstance(n, int) or n < 2 for n in dims):
        raise ValueError(
            "parameter 'dims' must list integer extents >= 2, got {!r}".format(dims)
        )
    return LatticeConfig(
        dims=tuple(dims),
        spacing=params.get("spacing", 1.0),
        signature=params.get("signature", "euclidean"),
        mass=params.get("mass", 1.0),
    )


def _site_rows(config: LatticeConfig, values: np.ndarray):
    rows = []
    for idx in np.ndindex(config.dims):
        rows.append(tuple(int(i) for i in idx) + (values[idx],))
    return rows


def _lattice_header(config: LatticeConfig) -> list[str]:
    return ["site_index_{}".format(i) for i in range(len(config.dims))] + ["value"]


def _run_lattice_transport(params: dict, rng) -> RunnerOutput:
    config = _lattice_config(params)
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


def _run_lattice_greens(params: dict, rng) -> RunnerOutput:
    config = _lattice_config(params)
    functional = lattice_greens_function(config, use_regulator=params["use_regulator"])
    records = [
        _bound("defining-property", functional.defect, 1e-8),
        _bound("kernel-symmetry", functional.asymmetry, 1e-12),
    ]
    csv = {"lattice": (_lattice_header(config), _site_rows(config, np.real(functional.g)))}
    return records, None, csv


def _run_lattice_positivity(params: dict, rng) -> RunnerOutput:
    config = _lattice_config(params)
    if config.signature != "euclidean":
        raise ValueError(
            "parameter 'signature' must be euclidean; positivity holds there only"
        )
    functional = lattice_greens_function(config)
    amplitude = params["amplitude"]
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


def _run_lattice_imaginary(params: dict, rng) -> RunnerOutput:
    config = _lattice_config(params)
    w = PointwiseFunction(
        value=lambda p: 2.0 + np.sin(p),
        derivative=np.cos,
        label="2 + sin",
    )
    lam = params["lam"]
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


def _run_lattice_kg(params: dict, rng) -> RunnerOutput:
    config = _lattice_config(params)
    mode = params["mode"]
    phi0, velocity, omega = lattice_plane_wave(config, mode, params["dt"])
    run = lattice_klein_gordon_check(
        phi0, velocity, dt=params["dt"], n_steps=params["steps"]
    )
    grids = np.meshgrid(
        *[config.spacing * np.arange(n) for n in config.dims], indexing="ij"
    )
    k = [2.0 * np.pi * j / (n * config.spacing) for j, n in zip(mode, config.dims)]
    phase = sum(k_mu * x_mu for k_mu, x_mu in zip(k, grids))
    tracking = 0.0
    for step, t in enumerate(run.times):
        tracking = max(
            tracking, float(np.max(np.abs(run.fields[step] - np.cos(phase - omega * t))))
        )
    records = [
        _bound("stencil-residual", float(np.max(run.residual)), 1e-8),
        _bound("dispersion-tracking", tracking, 1e-8),
    ]
    csv = {"lattice": (_lattice_header(config), _site_rows(config, run.fields[-1]))}
    return records, None, csv


# ------------------------------------------------------------- registry


CHECKS: dict[tuple[str, str], tuple[dict, Callable]] = {
    ("quadratic", "hj"): (
        {"family": "free", "mass": 1.0, "omega": 1.0, "x0": 0.0},
        _run_quadratic_hj,
    ),
    ("quadratic", "van-vleck"): (
        {"family": "free", "mass": 1.0, "omega": 1.0, "x0": 0.0},
        _run_quadratic_van_vleck,
    ),
    ("quadratic", "prefactor-ode"): (
        {"family": "driven", "step": 1e-4},
        _run_quadratic_prefactor,
    ),
    ("quadratic", "schrodinger-order"): (
        {"family": "free", "mass": 1.0, "omega": 1.0, "x0": 0.0},
        _run_quadratic_schrodinger,
    ),
    ("general-hj", "decoupling"): (
        {"c2": 1.0, "c3": 0.0, "c4": 0.0, "hbar": 1.0, "mass": 1.0},
        _run_general_decoupling,
    ),
    ("general-hj", "exponential"): (
        {"amplitude": 1.0, "slope": 1.0, "hbar": 1.0, "mass": 1.0},
        _run_general_exponential,
    ),
    ("general-hj", "hbar-slope"): (
        {"curvature": 0.25, "hbars": [0.5, 1.0, 2.0], "mass": 1.0},
        _run_general_hbar_slope,
    ),
    ("oracle", "kernel-vs-grid"): (
        {"family": "free", "n_x": 512, "dt": 1e-3},
        _run_oracle_kernel,
    ),
    ("cosmo", "de-sitter"): (
        {"lam": 3.0, "t_end": 1.0, "a0": 1.0, "step": 1e-3, "csv_stride": 10},
        _run_cosmo_de_sitter,
    ),
    ("cosmo", "stiff"): (
        {
            "phi_dot0": 20.0,
            "t_end": 35.0,
            "step": 1e-3,
            "fit_from": 3.5,
            "csv_stride": 50,
        },
        _run_cosmo_stiff,
    ),
    ("lattice", "conformal-transport"): (
        {
            "lam": 8.0,
            "dims": [4, 4],
            "sigma_const": 0.0,
            "spacing": 1.0,
            "derivative_tol": 1e-6,
        },
        _run_lattice_transport,
    ),
    ("lattice", "greens"): (
        {
            "dims": [4, 4],
            "mass": 1.0,
            "spacing": 1.0,
            "signature": "euclidean",
            "use_regulator": False,
        },
        _run_lattice_greens,
    ),
    ("lattice", "hj-positivity"): (
        {
            "dims": [4, 4],
            "mass": 1.0,
            "spacing": 1.0,
            "signature": "euclidean",
            "draws": 100,
            "amplitude": 2.0,
        },
        _run_lattice_positivity,
    ),
    ("lattice", "imaginary-part"): (
        {"dims": [4, 4], "lam": 1.3, "draws": 100},
        _run_lattice_imaginary,
    ),
    ("lattice", "kg-wave"): (
        {"dims": [32], "mode": [3], "mass": 0.7, "dt": 0.05, "steps": 200},
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


def _coerce(name: str, value, default):
    """Cast a raw flag/config value onto the default's type."""
    if isinstance(default, bool):
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise ValueError(
            "parameter '{}' expects true or false, got {!r}".format(name, value)
        )
    if isinstance(default, str):
        return str(value)
    if isinstance(default, int) and not isinstance(default, bool):
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            return int(value)
        raise ValueError(
            "parameter '{}' expects an integer, got {!r}".format(name, value)
        )
    if isinstance(default, float):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise ValueError(
            "parameter '{}' expects a number, got {!r}".format(name, value)
        )
    if isinstance(default, list):
        if isinstance(value, (list, tuple)):
            return list(value)
        raise ValueError(
            "parameter '{}' expects a list like [4,4], got {!r}".format(name, value)
        )
    return value


def _merge_params(
    scenario: str, check: str, file_values: dict, flag_values: dict
) -> dict:
    defaults, _ = CHECKS[(scenario, check)]
    merged = dict(defaults)
    for source in (file_values, flag_values):
        for name, raw in source.items():
            if name not in defaults:
                raise ValueError(
                    "unknown parameter '{}' for {} {}; valid parameters: {}".format(
                        name, scenario, check, ", ".join(sorted(defaults))
                    )
                )
            merged[name] = _coerce(name, raw, defaults[name])
    for name, value in merged.items():
        if ("tol" in name or name == "tolerance") and not value > 0:
            raise ValueError("parameter '{}' must be positive".format(name))
        if name in ("draws", "csv_stride") and value < 1:
            raise ValueError("parameter '{}' must be at least 1".format(name))
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


def _read_sweep(
    path: Path, scenario: str, check: str, base_params: dict
) -> list[dict]:
    """One merged parameter set per line of a sweep file."""
    param_sets = []
    for no, line in _content_lines(path, "sweep"):
        overrides = dict(
            _assignment(token, "sweep line {}".format(no)) for token in line.split()
        )
        param_sets.append(_merge_params(scenario, check, dict(base_params), overrides))
    if not param_sets:
        raise ValueError("sweep file {} has no parameter lines".format(path))
    return param_sets


# ------------------------------------------------------------ execution


def run_scenario(config: ScenarioConfig) -> Report:
    """Run one check, write report.json and CSV payloads, return the report."""
    _, runner = CHECKS[(config.scenario, config.check)]
    rng = np.random.default_rng(config.seed)
    started = time.perf_counter()
    records, convergence, csv_payload = runner(config.params, rng)
    report = Report(
        scenario=config.scenario,
        checks=records,
        convergence=convergence,
        seed=config.seed,
        runtime_seconds=time.perf_counter() - started,
    )
    config.out_dir.mkdir(parents=True, exist_ok=True)
    report.write_json(config.out_dir / "report.json")
    for stem, (header, rows) in csv_payload.items():
        write_csv(config.out_dir / (stem + ".csv"), header, rows)
    if convergence is not None:
        write_csv(
            config.out_dir / "convergence.csv",
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
        flag_values = _parse_extra_flags(extra)
        file_values = _read_key_value_file(args.config) if args.config else {}
        base_params = _merge_params(
            args.scenario, args.check, file_values, flag_values
        )
        if args.sweep is None:
            param_sets = [base_params]
        else:
            param_sets = _read_sweep(args.sweep, args.scenario, args.check, base_params)
    except ValueError as exc:
        print("semiprop: {}".format(exc), file=sys.stderr)
        return 2

    status = 0
    for index, params in enumerate(param_sets):
        # a sweep run gets a label and its own subdirectory; a single run neither
        label = "" if args.sweep is None else "run-{:03d}".format(index)
        prefix = "[{}] ".format(label) if label else ""
        config = ScenarioConfig(
            scenario=args.scenario,
            check=args.check,
            params=params,
            out_dir=args.out / label,
            seed=args.seed,
        )
        try:
            report = run_scenario(config)
        except ValueError as exc:
            print("{}semiprop: {}".format(prefix, exc), file=sys.stderr)
            status = 2
            continue
        _print_report(report, config.out_dir, prefix)
        if not report.passed:
            status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
