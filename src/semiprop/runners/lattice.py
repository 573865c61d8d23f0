"""Runners of the ``lattice`` checks: conformal transport, Green's functions,
functional Hamilton-Jacobi positivity, the conformal imaginary part and the
Klein-Gordon leapfrog."""

from __future__ import annotations

import math
import sys

import numpy as np

from ..lattice import (
    EXP_OVERFLOW,
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
    plane_wave_phase,
)
from ..report import _bound, _CsvRows, _diagnostic, _floor
from . import RunnerOutput, _refuse_predicted


def _lattice_config(params: dict) -> LatticeConfig:
    return LatticeConfig(
        dims=tuple(params["dims"]),
        spacing=params.get("spacing", 1.0),
        signature=params.get("signature", "euclidean"),
        mass=params.get("mass", 1.0),
    )


def _site_rows(config: LatticeConfig, values: np.ndarray) -> _CsvRows:
    # np.indices flattened in C order enumerates the sites as np.ndindex does
    sites = np.indices(config.dims).reshape(len(config.dims), -1)
    return _CsvRows(*sites, np.asarray(values).ravel())


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
        _bound("functional-derivative-deviation", deviation, 1e-6),
    ]
    weights = params["lam"] / 8.0 * np.exp(2.0 * sigma.values) * config.cell_volume
    csv = {"lattice": (_lattice_header(config), _site_rows(config, weights))}
    return records, None, csv


def _run_lattice_greens(params: dict, seed: int) -> RunnerOutput:
    config = _lattice_config(params)
    functional = lattice_greens_function(config, use_regulator=params["use_regulator"])
    tolerance = 1e-8
    # before defect is first read, so the stencil never runs on a refused lattice
    names = ("mass", "spacing") + (("use_regulator",) if params["use_regulator"] else ())
    cause = "round-off alone in op @ G, machine epsilon times max |lambda + i epsilon| max |g|,"
    _refuse_predicted(functional.roundoff, cause, tolerance, params, names)
    records = [
        _bound("defining-property", functional.defect, tolerance),
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
    # the residual sums, over the sites, halves of (dS/dphi)^2, of one
    # gradient square per axis and of m^2 phi^2; |phi| <= amplitude bounds
    # each root by amplitude * reach, so refuse an amplitude whose squares
    # and their sum (times the cell volume, when that exceeds 1) overflow
    vol = config.cell_volume
    reach = max(vol * float(np.sum(np.abs(functional.g))), 2.0 / config.spacing, config.mass)
    terms = 0.5 * (2 + len(config.dims)) * config.n_sites * max(1.0, vol)
    limit = math.sqrt(sys.float_info.max / terms) / reach
    if not amplitude < limit:
        raise ValueError(
            "parameter 'amplitude' = {!r} overflows the Hamilton-Jacobi residual "
            "on this lattice (spacing {!r}, mass {!r}): it must stay below {:.3g}".format(
                amplitude, config.spacing, config.mass, limit
            )
        )
    # the mass term alone, m^2 phi^2 vol / 2 at every site, keeps the
    # euclidean residual positive while it is a normal float at |phi| =
    # amplitude; below that the squares underflow and the residual reads 0
    least = math.sqrt(2.0 * sys.float_info.min / vol) / config.mass
    if not amplitude >= least:
        raise ValueError(
            "parameter 'amplitude' = {!r} underflows the Hamilton-Jacobi residual "
            "on this lattice (spacing {!r}, mass {!r}): it must be at least {:.3g}".format(
                amplitude, config.spacing, config.mass, least
            )
        )
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
    _, phase = plane_wave_phase(lightcone, (1, -1))
    wave = LatticeField(lightcone, np.cos(phase))
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
